//! Per-query reusable scratch memory ([`QueryArena`]).
//!
//! Steady-state serving answers the same shape of query over and over;
//! allocating fresh heaps, candidate buffers, and decode scratch for each
//! one costs more than the arithmetic it feeds. A [`QueryArena`] owns every
//! buffer the six query methods need, is *reset* (cleared, never freed)
//! between queries, and is owned by each worker thread of
//! [`crate::Engine::query_batch`] and of the `serve` crate's server. After
//! one query of a given shape, a warm-cache repeat allocates nothing (see
//! `tests/alloc_free.rs`).
//!
//! An arena also carries work across queries. The location-independent
//! *text half* of a candidate context (see [`CcScratch`]) outlives the
//! query: it is kept while the engine state — `(instance, epoch)`, which
//! every build, clone, refresh and mutation moves — and the query's `W`,
//! `ox.d` and `ws` stay the same, and rebuilt when any of them changes. A
//! worker answering queries that differ only in locations and `k`
//! therefore derives each user's candidate-term run, `UBL` text and `HW`
//! rows once. The §7 pipeline keeps its own. Answers never
//! depend on the arena's history (`tests/arena_reuse.rs`).
//!
//! The arena is deliberately opaque: callers create one and thread it
//! through [`crate::Engine::query_reusing`]; only this crate's kernels
//! reach its fields.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use geo::{Point, Rect};
use index::MiurScratch;
use storage::RecordId;
use text::{Document, TermId};

use crate::group::UserGroup;
use crate::select::exact::Combinations;
use crate::select::location::{HeldEvaluation, LocationCounts, Winner};
use crate::select::DeltaScan;
use crate::topk::individual::UserColumns;
use crate::topk::ByKey;
use crate::trace::{Phase, PhaseBreakdown, Trace};
#[cfg(test)]
use crate::user_index::reference::FrontierLog;
use crate::user_index::FrontierList;
use crate::QuerySpec;

/// Reusable backing storage for one [`crate::select::CandidateContext`],
/// and the location-independent half of the last context built on it.
///
/// The context takes it by value ([`std::mem::take`] from the arena),
/// holds it as its columns (`CandidateContext::cols`), fills it for the
/// query at hand, and hands it back through
/// `CandidateContext::into_scratch` when it drops — so the slot columns and
/// the per-user columns keep their capacity across queries.
///
/// They keep their contents too. The *text half* — the slot view
/// (`slot_*`, `kw_slots`, `ox_bits`), the per-user columns `ids`,
/// `points`, `n_u`, `ubl_ts` and the `ucand` runs, and the HW table —
/// depends only on the engine state and the query's `W`, `ox.d` and `ws`,
/// which `key` records. A context built with the
/// same key keeps it and rebuilds only the *location half*: the MBR of
/// the locations, the bands `band_lo`/`band_hi`, and the `rsk` column.
#[derive(Debug, Default)]
pub(crate) struct CcScratch {
    /// What the text half (the slot view, the per-user text columns and
    /// the HW table) was derived for.
    pub(crate) key: TextKey,
    /// The slot view of `W ∪ ox.d`: its distinct terms ascending (a term's
    /// index here is its *slot*), each slot's candidate weight `cw(t)`, and
    /// the positions of `W` holding it, ascending:
    /// `slot_kw[slot_kw_off[s]..slot_kw_off[s + 1]]` (as many as the
    /// slot's multiplicity in `W`).
    pub(crate) slot_terms: Vec<TermId>,
    pub(crate) slot_w: Vec<f64>,
    pub(crate) slot_kw_off: Vec<u32>,
    pub(crate) slot_kw: Vec<u32>,
    /// The slot of each position of `W`.
    pub(crate) kw_slots: Vec<usize>,
    /// `ox.d` as a slot set: ⌈slots / 64⌉ words, the base of every
    /// candidate set.
    pub(crate) ox_bits: Vec<u64>,
    /// Per-user id and location (what the kernels need of a `UserData`
    /// besides its candidate terms).
    pub(crate) ids: Vec<u32>,
    pub(crate) points: Vec<Point>,
    /// Per-user spatial band: the least and the greatest `SS` any point
    /// of the locations' MBR can give the user.
    pub(crate) band_lo: Vec<f64>,
    pub(crate) band_hi: Vec<f64>,
    /// `RSk(u)` per user (−∞ for users with fewer than `k` relevant
    /// objects).
    pub(crate) rsk: Vec<f64>,
    /// Per-user text normalizer `N(u)`.
    pub(crate) n_u: Vec<f64>,
    /// Location-independent textual part of `UBL(·, u)` per user.
    pub(crate) ubl_ts: Vec<f64>,
    /// Per-user candidate terms `u.d ∩ (W ∪ ox.d)` as `(slot, cw)`,
    /// flattened; user `u` owns `ucand_flat[ucand_off[u]..ucand_off[u+1]]`.
    /// Runs ascend by slot, which is ascending term order, so a kernel
    /// summing a run adds the weights in the order a merge of the user's
    /// document would.
    pub(crate) ucand_flat: Vec<(usize, f64)>,
    pub(crate) ucand_off: Vec<u32>,
    /// Scratch for `CandidateContext::top_ws_sum`.
    pub(crate) ws_buf: RefCell<Vec<f64>>,
    /// Optimistic `TS` of `HW_{w,u}` per ⟨user, held keyword⟩; see
    /// `CandidateContext::hw_table`.
    pub(crate) hw: RefCell<HwTable>,
}

/// What a [`CcScratch`]'s text half was derived for.
///
/// The engine state is `(instance, epoch)` ([`crate::Engine::state_id`]):
/// every mutation bumps the epoch, and every build, refresh and clone
/// draws a new instance, so a pair names one set of users and one scorer.
/// The epoch alone would not: every build starts at 0, and a clone
/// mutated apart from its original can reach the original's epoch.
#[derive(Debug, Default)]
pub(crate) struct TextKey {
    /// `None` until a context is derived for a named engine state (a
    /// fresh `CandidateContext::new` names none and never matches).
    engine: Option<(u64, u64)>,
    keywords: Vec<TermId>,
    ox_doc: Document,
    ws: usize,
}

impl TextKey {
    /// True when a text half derived for `self` serves `spec` on the
    /// engine state `engine`.
    pub(crate) fn matches(&self, engine: Option<(u64, u64)>, spec: &QuerySpec) -> bool {
        engine.is_some()
            && self.engine == engine
            && self.ws == spec.ws
            && self.keywords == spec.keywords
            && self.ox_doc == spec.ox_doc
    }

    /// Records that the text half is being derived for `spec` on `engine`.
    pub(crate) fn set(&mut self, engine: Option<(u64, u64)>, spec: &QuerySpec) {
        self.engine = engine;
        self.keywords.clone_from(&spec.keywords);
        self.ox_doc.clone_from(&spec.ox_doc);
        self.ws = spec.ws;
    }
}

/// The location-independent half of the §6.2.1 `LUW_w` membership test:
/// per user, one ⟨keyword position, optimistic `TS` of `HW_{w,u}`⟩ row for
/// every candidate keyword the user holds. Filled lazily, a user at a time
/// and in user order, by `CandidateContext::hw_table`.
#[derive(Debug, Default)]
pub(crate) struct HwTable {
    /// User `u` owns `rows[off[u]..off[u + 1]]`; `off.len() - 1` users are
    /// covered so far.
    pub(crate) off: Vec<u32>,
    pub(crate) rows: Vec<(u32, f64)>,
    /// Build scratch: the `(weight, keyword position, slot)` rows of the
    /// user being filled, and the slot set `ox.d ∪ HW`.
    pub(crate) others: Vec<(f64, u32, usize)>,
    pub(crate) bits: Vec<u64>,
}

impl HwTable {
    /// User `u`'s ⟨keyword position, `TS`⟩ rows.
    #[inline]
    pub(crate) fn rows_of(&self, u: usize) -> &[(u32, f64)] {
        &self.rows[self.off[u] as usize..self.off[u + 1] as usize]
    }
}

/// Scratch for the coverage/realized greedy keyword selectors.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    /// `LUW_w` per keyword position `j` of `W`, as a bitset over positions
    /// in `lu`: row `j` is `luw[j * words..(j + 1) * words]` with
    /// `words = ⌈|lu| / 64⌉`.
    pub(crate) luw: Vec<u64>,
    /// `|LUW_w|` per keyword position.
    pub(crate) luw_len: Vec<u32>,
    /// Positions covered so far (a bitset like a `luw` row), and the
    /// keyword positions already picked.
    pub(crate) covered: Vec<u64>,
    pub(crate) used: Vec<bool>,
    /// The realized-gain greedy's slot sets: `ox.d ∪ chosen`, and that
    /// plus one trial keyword.
    pub(crate) sel: Vec<u64>,
    pub(crate) trial: Vec<u64>,
    /// Keyword-holder rows for the realized-gain trial scan.
    pub(crate) delta: DeltaScan,
}

/// Scratch for Algorithm 4 (exact keyword selection).
#[derive(Debug, Default)]
pub(crate) struct ExactScratch {
    /// Slots of the candidate keywords some `LU` user holds, ascending.
    pub(crate) wc: Vec<usize>,
    /// Slot set of every candidate term an `LU` user holds.
    pub(crate) held: Vec<u64>,
    /// Positions into the current `lu` list.
    pub(crate) uncertain: Vec<usize>,
    pub(crate) combos: Combinations,
    /// The slot set `ox.d ∪ combination` under evaluation.
    pub(crate) cand: Vec<u64>,
    /// Keyword-holder rows over the uncertain users.
    pub(crate) delta: DeltaScan,
}

/// Scratch for the selection phase (Algorithm 3, the §4 baseline scan, and
/// the per-location keyword selection inside the §7 pipeline).
#[derive(Debug, Default)]
pub(crate) struct SelectScratch {
    /// Best-first location queue; payload is `(location idx, lu slot)`.
    pub(crate) ql: BinaryHeap<ByKey<(usize, usize)>>,
    /// Pooled per-location candidate-user lists.
    pub(crate) lu_bufs: Vec<Vec<usize>>,
    /// Reachable users whose `UBL` test the spatial bands pass at every
    /// location, and those they leave open (Algorithm 3's step 1).
    pub(crate) always: Vec<usize>,
    pub(crate) maybe: Vec<usize>,
    /// Spatial scores aligned with the `lu` list under evaluation.
    pub(crate) ss: Vec<f64>,
    /// The greedy evaluation later locations of the query reuse, with its
    /// per-position verdicts.
    pub(crate) held: HeldEvaluation,
    /// The best location so far, materialised once the queue drains.
    pub(crate) best: Winner,
    /// How the query's locations were settled (surfaced as
    /// `QueryStats::locations`).
    pub(crate) locations: LocationCounts,
    /// The slot set `ox.d ∪ W'` under evaluation.
    pub(crate) cand: Vec<u64>,
    /// Chosen-keyword buffer.
    pub(crate) kw: Vec<TermId>,
    /// Keyword combination enumerator for the baseline scan.
    pub(crate) combos: Combinations,
    /// Keyword-holder rows for the baseline scan.
    pub(crate) delta: DeltaScan,
    pub(crate) gr: GreedyScratch,
    pub(crate) ex: ExactScratch,
}

impl SelectScratch {
    /// Starts a query's selection: drops the held evaluation and the
    /// winner and zeroes the location counts.
    pub(crate) fn begin(&mut self) {
        self.held.release();
        self.best.clear();
        self.locations = LocationCounts::default();
    }
}

/// One pooled element of the §7 expansion frontier — the reusable twin of
/// `user_index::Elem`. A subtree keeps its summary here (with the
/// location-independent `UBL` text cached, so the keep-test per ⟨location,
/// element⟩ is a couple of float ops); a concrete user is just its index in
/// the query's `CandidateContext`, which holds everything about it.
#[derive(Debug)]
pub(crate) struct ElemSlot {
    pub(crate) is_group: bool,
    // Group fields (valid when `is_group`).
    pub(crate) node: RecordId,
    pub(crate) group: UserGroup,
    pub(crate) rsk_lb: f64,
    /// Location-independent textual part of the group's `UBL`.
    pub(crate) ubl_ts: f64,
    /// User index in the candidate context (valid otherwise).
    pub(crate) user: usize,
}

impl ElemSlot {
    pub(crate) fn blank() -> Self {
        ElemSlot {
            is_group: false,
            node: RecordId(0),
            group: UserGroup {
                mbr: Rect::from_point(Point::new(0.0, 0.0)),
                d_uni: Document::new(),
                d_int: Document::new(),
                n_min: 0.0,
                n_max: 0.0,
                count: 0,
                max_terms: usize::MAX,
            },
            rsk_lb: 0.0,
            ubl_ts: 0.0,
            user: 0,
        }
    }

    /// Users this element stands for.
    pub(crate) fn count(&self) -> usize {
        if self.is_group {
            self.group.count
        } else {
            1
        }
    }
}

/// Scratch for materializing one MIUR node on its first expansion.
#[derive(Debug, Default)]
pub(crate) struct NodeScratch {
    pub(crate) miur: MiurScratch,
    /// The `k` best lower bounds `group_rsk_lb` has seen (min-heap).
    pub(crate) lbs: BinaryHeap<Reverse<ByKey<()>>>,
    /// Algorithm 2's columns over a node's users, and their kept scores.
    pub(crate) cols: UserColumns,
    pub(crate) block: Vec<f64>,
}

/// Scratch for the §7 user-index pipeline.
#[derive(Debug, Default)]
pub(crate) struct UserIndexScratch {
    /// The pipeline's own candidate-context scratch. Its users arrive in
    /// expansion order, not table order, so sharing [`QueryArena`]'s
    /// would make the two paths drop each other's text half on every
    /// switch between them.
    pub(crate) cc: CcScratch,
    /// Pooled frontier elements; slot `i` is live iff `i < live`. A node's
    /// children occupy consecutive slots.
    pub(crate) elems: Vec<ElemSlot>,
    pub(crate) live: usize,
    /// Per-location frontier lists (pooled rows).
    pub(crate) lists: Vec<FrontierList>,
    /// An expansion's children kept at every location, and each child's
    /// keep verdict where the bands decide it.
    pub(crate) run: FrontierList,
    pub(crate) verdicts: Vec<Option<bool>>,
    pub(crate) ql: BinaryHeap<ByKey<usize>>,
    /// The dequeued location's list as candidate-context user indices.
    pub(crate) lu: Vec<usize>,
    pub(crate) node: NodeScratch,
    /// What the last query's frontier did, for the tests that hold it to
    /// the loop in `user_index/reference.rs`.
    #[cfg(test)]
    pub(crate) log: FrontierLog,
}

/// Reusable per-query scratch memory for every query method.
///
/// Create one with [`QueryArena::new`] (or [`Default`]), then pass it to
/// [`crate::Engine::query_reusing`] across queries: buffers are cleared,
/// never freed, so a warm arena makes steady-state queries allocation-free.
/// An arena is cheap when cold (every pool starts empty) and must not be
/// shared across threads mid-query; batch serving keeps one per worker.
#[derive(Debug, Default)]
pub struct QueryArena {
    /// Backing store for the candidate context of Algorithm 3 and the §4
    /// baseline (the §7 pipeline keeps its own in `ui`).
    pub(crate) cc: CcScratch,
    /// Whether the last query's candidate context kept all of its text
    /// half and derived none (counted in `engine_select_context_total{how}`).
    pub(crate) context_reused: bool,
    /// Per-user thresholds for the baseline method.
    pub(crate) rsk: Vec<f64>,
    pub(crate) sel: SelectScratch,
    pub(crate) ui: UserIndexScratch,
    /// Phase-trace scratch `pipeline::execute` stamps (see [`crate::trace`]).
    trace: Trace,
}

impl QueryArena {
    /// An empty arena; pools grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the phase trace: zeroes the breakdown and baselines the
    /// clock and this thread's I/O mirror.
    #[inline]
    pub(crate) fn trace_arm(&mut self) {
        self.trace.arm();
    }

    /// Charges everything since the previous stamp (or
    /// [`QueryArena::trace_arm`]) to `phase`. Stamping a phase twice
    /// accumulates.
    #[inline]
    pub(crate) fn trace_stamp(&mut self, phase: Phase) {
        self.trace.stamp(phase);
    }

    /// Per-phase breakdown of the most recent query traced through this
    /// arena (what the engine surfaces as `QueryStats::phases`).
    #[inline]
    pub fn phases(&self) -> PhaseBreakdown {
        self.trace.breakdown()
    }
}

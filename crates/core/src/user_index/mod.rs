//! §7: candidate selection with disk-resident users (MIUR-tree pipeline).
//!
//! When the user set is large (or sparse), the paper indexes the users in
//! an MIUR-tree and drives candidate selection through it. The root plays
//! the super-user's role for the joint object traversal; the per-location
//! lists `LU_ℓ` may then contain whole user *subtrees*, each summarized by
//! its MBR, IntUni vectors and user count. A subtree is only expanded when
//! the best-first loop actually needs it — users inside subtrees whose
//! upper bound never justifies expansion are *pruned*: their top-k objects
//! (and `RSk(u)`) are never computed. The fraction of such users is the
//! paper's "Users pruned (%)" metric (Fig. 15b).
//!
//! # Where §7 pays
//!
//! §7 prunes only when few candidate locations face widely spread users;
//! where it prunes nothing it costs more than the joint pipeline. The
//! break-even below was measured over a 100,000-object Flickr-like corpus
//! (LM weights, `k = 10`, greedy keyword selection): `users pruned` from
//! [`select_with_user_index_seeded`], and warm per-query times of a cached
//! engine, in process on 2 vCPUs, median of 21 alternating pairs. `area`
//! is the user generator's spread, `locations` the size of `L`. Both
//! methods' answers had equal cardinality in every row.
//!
//! | users | area | locations | users pruned | warm JointGreedy | warm UserIndexGreedy |
//! |---|---|---|---|---|---|
//! | 1,000 | 5 | 25 | 0 | 0.34 ms | 0.51 ms |
//! | 1,000 | 20 | 25 | 0 | 1.94 | 1.96 |
//! | 1,000 | 80 | 25 | 0 | 0.75 | 0.88 |
//! | 8,000 | 5 | 25 | 0 | 3.23 | 6.14 |
//! | 8,000 | 20 | 25 | 0 | 15.14 | 15.49 |
//! | 8,000 | 80 | 25 | 0 | 6.11 | 7.66 |
//! | 1,000 | 80 | 1 | 520 | 0.21 | 0.15 |
//! | 8,000 | 80 | 5 | 180 | 3.42 | 4.69 |
//! | 8,000 | 80 | 1 | 1,564 | 2.37 | 2.80 |
//! | 8,000 | 320 | 1 | 8,000 (empty answer) | 1.43 | 0.03 |
//!
//! The benchmark's §7 requests are the first row: 1,000 users over the
//! paper's area of 5, half of a 50-location pool.
//!
//! To rebuild the table, use a scratch package outside the repository
//! (its own `[workspace]` table, path dependencies on a checkout's
//! `benchmark` package and `crates/{core,datagen}`). Per row it generates
//! the users with `datagen::generate_workload`, whose `UserGenConfig`
//! takes `num_users` and `area` directly, over the objects of
//! `gen::Data::generate(Scale::FULL)`. It builds the engine with the
//! threshold cache and the user index, and reads `users_pruned` from
//! [`select_with_user_index_seeded`] over [`crate::Engine::user_index_seed`].
//! Then it warms both methods and alternates warm `Engine::query_reusing`
//! calls of `JointGreedy` and `UserIndexGreedy`, flipping the order each
//! pair; the host drifts, so only in-process pairs compare.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock};

use geo::Point;
use index::{MiurTree, PostingMode, StTree, UserRef};
use storage::{IoStats, RecordId};
use text::Document;

use crate::arena::{ElemSlot, NodeScratch, QueryArena, UserIndexScratch};
use crate::bounds::lb_object;
use crate::select::location::{evaluate_location, materialise_winner, KeywordSelector};
use crate::select::CandidateContext;
use crate::topk::individual::refine_user_heap;
use crate::topk::joint::joint_topk;
use crate::topk::{ByKey, TopkOutcome};
use crate::{QueryResult, QuerySpec, ScoreContext, UserData, UserGroup};

#[cfg(test)]
pub(crate) mod reference;

/// Outcome of the §7 pipeline: the query answer plus pruning statistics.
#[derive(Debug, Clone)]
pub struct UserIndexOutcome {
    /// The selected ⟨location, keyword-set⟩ and its BRSTkNN users.
    pub result: QueryResult,
    /// Users whose `RSk(u)` was actually computed.
    pub users_scored: usize,
    /// Users skipped entirely (never retrieved from a leaf, or retrieved
    /// but never individually scored).
    pub users_pruned: usize,
}

/// The `k`-dependent, location-independent part of the §7 pipeline: the
/// MIUR root treated as super-user, a joint object traversal's outcome,
/// and every MIUR node materialized so far. Memoized per `(k, epoch)` by
/// [`crate::ThresholdCache`].
///
/// `out` comes from one of two traversals, and every reader is exact over
/// either:
/// - *the paper's* ([`compute_user_index_seed`]: Algorithm 1 for
///   `root_group`, uncapped, no checkpoint), which the uncached engine,
///   the figure harness and the standalone [`select_with_user_index`]
///   run;
/// - *the engine's joint slot* ([`crate::Engine::user_index_seed`] with a
///   threshold cache attached): the seed shares the
///   [`crate::JointThresholds`] outcome of the same `(k, epoch)` and runs
///   no traversal of its own. That outcome was traversed for the user
///   table's super-user with the capped bound, which holds for every MIUR
///   subgroup (each member holds at most `m` keywords), and the MIUR users
///   are the table's users. Its `RO` is cut at `rsk_us = max(RSk(us), T)`,
///   at or below every `RSk(u)`. So a leaf user's `RSk(u)` from
///   `refine_user_heap` is exact, as every user's top-k lies in
///   `LO ∪ RO`; a subtree's `group_rsk_lb` is the k-th best lower bound of
///   a subset of the objects, at or below the k-th best over all of them,
///   so still a lower bound, if possibly a looser one than over the
///   paper's rows (which can only mean more expansions); and the root's
///   reach and the location prune compare against `rsk_us`, which no
///   `RSk(u)` is below.
#[derive(Debug)]
pub struct UserIndexSeed {
    /// Super-user summary of the whole MIUR root.
    pub root_group: UserGroup,
    /// The joint traversal outcome the seed materializes over (see the
    /// type's docs for which one).
    pub out: Arc<TopkOutcome>,
    /// Materialized MIUR nodes by record (subtree groups with `RSk` lower
    /// bounds, concrete users with exact thresholds) — everything an
    /// expansion derives from `(node, out, k)`. The root is materialized
    /// with the seed, any other node on its first expansion under this
    /// seed; every later expansion copies it from here without reading
    /// the node.
    nodes: RwLock<HashMap<RecordId, Arc<[Elem]>>>,
}

impl UserIndexSeed {
    /// Reads the MIUR root (charging its I/O), summarizes it as
    /// `root_group`, takes the joint outcome `out(&root_group)` and
    /// materializes the root over it.
    pub(crate) fn over(
        miur: &MiurTree,
        k: usize,
        ctx: &ScoreContext,
        io: &IoStats,
        out: impl FnOnce(&UserGroup) -> Arc<TopkOutcome>,
    ) -> Self {
        let mut scratch = NodeScratch::default();
        let root = miur.read_node_ref(miur.root(), io, &mut scratch.miur);
        let root_group = group_from_root(&root);
        let out = out(&root_group);
        let (lbs, hu, mask) = (&mut scratch.lbs, &mut scratch.hu, &mut scratch.mask);
        let root_elems = materialize_node(&root, &out, k, ctx, lbs, hu, mask);
        UserIndexSeed {
            root_group,
            out,
            nodes: RwLock::new(HashMap::from([(miur.root(), root_elems)])),
        }
    }

    /// `node`'s materialized entries: from the memo, or read (charging its
    /// I/O) and materialized on the node's first expansion under this seed.
    /// Racing first expansions materialize the same entries; one is kept.
    fn node_elems(
        &self,
        miur: &MiurTree,
        node: RecordId,
        k: usize,
        ctx: &ScoreContext,
        io: &IoStats,
        scratch: &mut NodeScratch,
    ) -> Arc<[Elem]> {
        // A poisoned lock still guards a whole map: an insert is one step.
        let hit = self
            .nodes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&node)
            .cloned();
        if let Some(elems) = hit {
            return elems;
        }
        let view = miur.read_node_ref(node, io, &mut scratch.miur);
        let (lbs, hu, mask) = (&mut scratch.lbs, &mut scratch.hu, &mut scratch.mask);
        let elems = materialize_node(&view, &self.out, k, ctx, lbs, hu, mask);
        let mut nodes = self.nodes.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(nodes.entry(node).or_insert(elems))
    }
}

/// One element of a location's candidate list `LU_ℓ`.
#[derive(Debug)]
pub(crate) enum Elem {
    /// An unexpanded user subtree.
    Group {
        node: RecordId,
        group: UserGroup,
        /// Lower bound on `RSk(u)` for every user below (k-th best
        /// `LB(o, group)` over the retrieved objects).
        rsk_lb: f64,
    },
    /// A concrete user with an exact threshold.
    User { data: UserData, rsk: f64, n_u: f64 },
}

/// Lower bound on the `RSk` of every user in `group`: the k-th largest
/// `LB(o, group)` over the retrieved objects `LO ∪ RO`, the `k` best held
/// in the caller's heap. `LO` is scored in full; `RO` descends by
/// `UB(o, us) ≥ LB(o, group)`, so — as in Algorithm 2 — the walk stops at
/// the first object whose upper bound is below the k-th best lower bound.
fn group_rsk_lb(
    out: &TopkOutcome,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    lbs: &mut BinaryHeap<Reverse<ByKey<()>>>,
) -> f64 {
    lbs.clear();
    let lo_len = out.lo().len();
    for (i, o) in out.lo().chain(out.ro()).enumerate() {
        if lbs.len() < k {
            let key = lb_object(ctx, group, &o.point, o.weights);
            lbs.push(Reverse(ByKey { key, item: () }));
            continue;
        }
        let Some(mut kth) = lbs.peek_mut() else { break };
        if i >= lo_len && o.ub < kth.0.key {
            break;
        }
        let key = lb_object(ctx, group, &o.point, o.weights);
        if key.total_cmp(&kth.0.key).is_gt() {
            kth.0.key = key;
        }
    }
    match lbs.peek() {
        Some(kth) if lbs.len() == k => kth.0.key,
        _ => f64::NEG_INFINITY,
    }
}

/// Summarizes an already-read MIUR root node as the super-user group.
fn group_from_root(root: &index::MiurNodeRef<'_>) -> UserGroup {
    let mbr = geo::Rect::bounding_rects(root.entries.iter().map(|e| e.rect))
        .expect("MIUR root with no entries");
    let uni: Vec<text::TermId> = {
        let mut v: Vec<text::TermId> = root
            .entries
            .iter()
            .flat_map(|e| e.uni.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let int: Vec<text::TermId> = {
        let mut acc: Vec<text::TermId> = root.entries[0].int.clone();
        for e in &root.entries[1..] {
            acc.retain(|t| e.int.contains(t));
        }
        acc
    };
    let count: usize = root.entries.iter().map(|e| e.count as usize).sum();
    let n_min = root
        .entries
        .iter()
        .map(|e| e.norm_min)
        .fold(f64::INFINITY, f64::min);
    let n_max = root
        .entries
        .iter()
        .map(|e| e.norm_max)
        .fold(0.0f64, f64::max);
    UserGroup::from_node_entry(mbr, &uni, &int, count, n_min, n_max)
}

/// Materializes a node view's entries: subtrees become [`Elem::Group`]s
/// with their `RSk` lower bounds, concrete users get their exact thresholds
/// via Algorithm 2, both through the caller's pooled heaps and mask, so
/// the entries returned are all it allocates. Location-independent:
/// everything derives from `(node, out, k)`.
fn materialize_node(
    node: &index::MiurNodeRef<'_>,
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
    lbs: &mut BinaryHeap<Reverse<ByKey<()>>>,
    hu: &mut BinaryHeap<Reverse<ByKey<u32>>>,
    mask: &mut Vec<u64>,
) -> Arc<[Elem]> {
    node.entries
        .iter()
        .map(|e| match e.child {
            UserRef::Node(rec) => {
                let group = UserGroup::from_node_entry(
                    e.rect,
                    &e.uni,
                    &e.int,
                    e.count as usize,
                    e.norm_min,
                    e.norm_max,
                );
                Elem::Group {
                    node: rec,
                    rsk_lb: group_rsk_lb(out, &group, k, ctx, lbs),
                    group,
                }
            }
            UserRef::User(uid) => {
                let data = UserData {
                    id: uid,
                    point: e.rect.min,
                    doc: Document::from_terms(e.uni.iter().copied()),
                };
                Elem::User {
                    rsk: refine_user_heap(&data, out, k, ctx, hu, mask),
                    n_u: ctx.text.normalizer(&data.doc),
                    data,
                }
            }
        })
        .collect()
}

/// Computes the `(engine, k)`-dependent part of the §7 pipeline — the
/// MIUR root as super-user, the paper's joint object traversal for it
/// (uncapped, no checkpoint), and the materialized root — which
/// [`crate::ThresholdCache`] memoizes across queries, together with every
/// node later expansions materialize. A cached engine's seed shares its
/// joint slot's outcome instead (see [`UserIndexSeed`]).
pub fn compute_user_index_seed(
    miur: &MiurTree,
    mir: &StTree,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
) -> UserIndexSeed {
    assert_eq!(
        mir.mode(),
        PostingMode::MaxMin,
        "object index must be a MIR-tree"
    );
    UserIndexSeed::over(miur, k, ctx, io, |root_group| {
        Arc::new(joint_topk(mir, root_group, k, ctx, io))
    })
}

/// Runs the §7 pipeline.
///
/// `mir` indexes the objects (MaxMin mode); `miur` indexes the users. The
/// user table is *not* consulted: users are materialized from MIUR leaf
/// entries, mirroring a disk-resident user set.
pub fn select_with_user_index(
    miur: &MiurTree,
    mir: &StTree,
    spec: &QuerySpec,
    ctx: &ScoreContext,
    selector: KeywordSelector,
    io: &IoStats,
) -> UserIndexOutcome {
    assert!(
        !spec.locations.is_empty(),
        "MaxBRSTkNN requires at least one candidate location"
    );
    // Cold path: build the seed inline (one root read, one traversal, one
    // root materialization); its node memo lives for this query alone.
    let seed = compute_user_index_seed(miur, mir, spec.k, ctx, io);
    select_with_user_index_seeded(miur, spec, ctx, selector, io, &seed)
}

/// [`select_with_user_index`] with the `k`-dependent part supplied by a
/// [`UserIndexSeed`] (typically from the engine's threshold cache): the
/// MIUR root read, the joint MIR traversal and the root materialization
/// are all skipped, and so is every node an earlier query materialized
/// under the same seed. A seeded query charges I/O only for the nodes it
/// is the first to expand — nothing at all once its expansions are memoized.
pub fn select_with_user_index_seeded(
    miur: &MiurTree,
    spec: &QuerySpec,
    ctx: &ScoreContext,
    selector: KeywordSelector,
    io: &IoStats,
    seed: &UserIndexSeed,
) -> UserIndexOutcome {
    assert!(
        !spec.locations.is_empty(),
        "MaxBRSTkNN requires at least one candidate location"
    );
    let mut arena = QueryArena::new();
    let mut result = QueryResult::default();
    let (users_scored, users_pruned) = run_selection(
        miur,
        spec,
        ctx,
        selector,
        io,
        seed,
        None,
        &mut arena,
        &mut result,
    );
    UserIndexOutcome {
        result,
        users_scored,
        users_pruned,
    }
}

/// Copies a node's materialized entries into the next pooled frontier
/// slots (whose `Document`s keep their buffers across queries) and returns
/// the `(start, len)` range of their ids. Every user copied counts as
/// scored.
fn push_children(
    elems: &mut Vec<ElemSlot>,
    live: &mut usize,
    kids: &[Elem],
    cc: &mut CandidateContext<'_>,
    users_scored: &mut usize,
) -> (u32, u32) {
    let start = *live as u32;
    for e in kids {
        if *live == elems.len() {
            elems.push(ElemSlot::blank());
        }
        let slot = &mut elems[*live];
        fill_slot_from_elem(slot, e, cc);
        *users_scored += usize::from(!slot.is_group);
        *live += 1;
    }
    (start, kids.len() as u32)
}

/// Copies a seed element into a pooled slot: a subtree keeps its summary
/// (with the location-independent `UBL` text cached), a user joins the
/// query's candidate context.
fn fill_slot_from_elem(slot: &mut ElemSlot, e: &Elem, cc: &mut CandidateContext<'_>) {
    match e {
        Elem::Group {
            node,
            group,
            rsk_lb,
        } => {
            slot.is_group = true;
            slot.node = *node;
            slot.group.mbr = group.mbr;
            slot.group.d_uni.clone_from(&group.d_uni);
            slot.group.d_int.clone_from(&group.d_int);
            slot.group.n_min = group.n_min;
            slot.group.n_max = group.n_max;
            slot.group.count = group.count;
            slot.rsk_lb = *rsk_lb;
            slot.ubl_ts = cc.ubl_group_ts(&slot.group);
        }
        Elem::User { data, rsk, n_u } => {
            slot.is_group = false;
            slot.user = cc.push_user(data, || *n_u, *rsk);
        }
    }
}

/// The `UBL` keep-test of one frontier element at one location.
fn keep(cc: &CandidateContext<'_>, slot: &ElemSlot, loc: &Point) -> bool {
    if slot.is_group {
        cc.ubl_group_with_ts(loc, &slot.group, slot.ubl_ts) >= slot.rsk_lb
    } else {
        cc.user_reachable(slot.user) && cc.ubl_passes(loc, slot.user)
    }
}

/// [`keep`] at every candidate location at once, when the spatial bands
/// decide it: a user's from its band, a subtree's from
/// [`CandidateContext::group_verdict`].
fn keep_everywhere(cc: &CandidateContext<'_>, slot: &ElemSlot) -> Option<bool> {
    if slot.is_group {
        cc.group_verdict(&slot.group, slot.ubl_ts, slot.rsk_lb)
    } else if cc.user_reachable(slot.user) {
        cc.ubl_verdict(slot.user)
    } else {
        Some(false)
    }
}

/// One location's §7 candidate list `LU_ℓ`: frontier element ids in the
/// order the expansion leaves them, the users they stand for, and where
/// its groups sit. A queue pop then reads the count, and picking or
/// replacing a group scans the list's groups, not the list.
#[derive(Debug, Default)]
pub(crate) struct FrontierList {
    ids: Vec<u32>,
    /// Users the elements of `ids` stand for.
    count: usize,
    /// Every group element of `ids`, with its position there.
    groups: Vec<(u32, u32)>,
    /// Non-empty lists of one query with equal classes hold the same
    /// elements in the same order: every expansion they took part in gave
    /// them one shared run (see [`spread_children`]).
    class: usize,
}

impl FrontierList {
    fn clear(&mut self) {
        self.ids.clear();
        self.count = 0;
        self.groups.clear();
        self.class = 0;
    }

    /// Appends element `id`, whose slot is `e`.
    fn push(&mut self, id: u32, e: &ElemSlot) {
        if e.is_group {
            self.groups.push((id, self.ids.len() as u32));
        }
        self.count += e.count();
        self.ids.push(id);
    }

    /// Appends every element of `run`, in its order.
    fn extend(&mut self, run: &FrontierList) {
        let base = self.ids.len() as u32;
        self.ids.extend_from_slice(&run.ids);
        self.count += run.count;
        self.groups
            .extend(run.groups.iter().map(|&(id, pos)| (id, base + pos)));
    }

    /// The group a scan of the list in order picks by largest user count,
    /// the last of equals (what `max_by_key` returns).
    fn largest_group(&self, elems: &[ElemSlot]) -> Option<u32> {
        self.groups
            .iter()
            .max_by_key(|&&(id, pos)| (elems[id as usize].count(), pos))
            .map(|&(id, _)| id)
    }

    /// Takes group `id` out of the list as `Vec::swap_remove` does, the
    /// last element filling its place, and returns whether the list held
    /// it.
    fn remove_group(&mut self, id: u32, elems: &[ElemSlot]) -> bool {
        let Some(i) = self.groups.iter().position(|&(g, _)| g == id) else {
            return false;
        };
        let (_, pos) = self.groups.swap_remove(i);
        self.ids.swap_remove(pos as usize);
        self.count -= elems[id as usize].count();
        let last = self.ids.len() as u32;
        if pos < last && elems[self.ids[pos as usize] as usize].is_group {
            let moved = self.groups.iter_mut().find(|g| g.1 == last);
            moved.expect("every group of the list is recorded").1 = pos;
        }
        true
    }
}

/// Gives every list the children `kids` of a group it held, taken out of
/// it by `take`, each child where it passes its `UBL` test. A child's
/// verdict is decided once, from its band, when the bands decide it; when
/// they decide every child, the children kept are one run, copied into
/// each list, and the lists keep their classes. Otherwise each list tests
/// the undecided children at its location and takes a new class, the next
/// of `classes`. Either way a list receives the children it keeps in
/// `kids` order, after the removal, as the per-location test in a loop
/// would leave them.
#[allow(clippy::too_many_arguments)]
fn spread_children(
    cc: &CandidateContext<'_>,
    elems: &[ElemSlot],
    kids: Range<u32>,
    lists: &mut [FrontierList],
    mut take: impl FnMut(&mut FrontierList, &Point) -> bool,
    run: &mut FrontierList,
    verdicts: &mut Vec<Option<bool>>,
    classes: &mut usize,
) {
    run.clear();
    verdicts.clear();
    for c in kids.clone() {
        let v = keep_everywhere(cc, &elems[c as usize]);
        if v == Some(true) {
            run.push(c, &elems[c as usize]);
        }
        verdicts.push(v);
    }
    let decided = verdicts.iter().all(Option::is_some);
    for (list, loc) in lists.iter_mut().zip(&cc.spec.locations) {
        if !take(list, loc) {
            continue;
        }
        if decided {
            list.extend(run);
            continue;
        }
        list.class = *classes;
        *classes += 1;
        for (c, v) in kids.clone().zip(verdicts.iter()) {
            let slot = &elems[c as usize];
            if v.unwrap_or_else(|| keep(cc, slot, loc)) {
                list.push(c, slot);
            }
        }
    }
}

/// The location-dependent remainder of the §7 pipeline: per-location
/// candidate lists, best-first subtree expansion and keyword selection.
/// One [`CandidateContext`] serves the whole query: a user enters it once,
/// when its leaf entry is materialized, and every location's keyword
/// selection then runs on index lists into it, exactly as Algorithm 3 does
/// over an in-memory user table. A node's entries come materialized from
/// `seed` (see [`UserIndexSeed`]); every buffer — the context's columns,
/// the frontier element pool, the per-location lists, and the node and
/// keyword-selection scratch — comes from `arena`, so a warm arena over
/// memoized nodes runs this allocation-free. Returns
/// `(users_scored, users_pruned)`; the winning tuple lands in `result`.
///
/// The frontier costs what changes. Each list ([`FrontierList`]) keeps its
/// user count and where its groups sit, so a queue pop reads one number
/// and picks the largest group among the list's groups. An expansion
/// decides each child's keep-test once, from its band, and hands the
/// lists that held the group one shared run when the bands decide every
/// child; only the children they leave open are tested per location.
/// Lists keep the order a per-location scan leaves (`swap_remove` of the
/// group, children appended in order, the last of equal groups expanded
/// first), so `lu`, and the order of the `brstknn` ids, are those of the
/// loop in `reference.rs`. Lists that only ever took shared runs share a
/// class, so the evaluation of one is named by it: a later location of
/// the class reuses the held evaluation by identity (see
/// [`crate::select::location`]) and its users are already in `lu`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_selection(
    miur: &MiurTree,
    spec: &QuerySpec,
    ctx: &ScoreContext,
    selector: KeywordSelector,
    io: &IoStats,
    seed: &UserIndexSeed,
    engine: Option<(u64, u64)>,
    arena: &mut QueryArena,
    result: &mut QueryResult,
) -> (usize, usize) {
    debug_assert!(!spec.locations.is_empty(), "checked at both entry points");
    let total_users = seed.root_group.count;
    let rsk_us = seed.out.rsk_us;
    let k = spec.k;
    let mut users_scored = 0;
    result.clear();

    // Starts without users; they are appended as leaves materialize.
    let scratch = std::mem::take(&mut arena.ui.cc);
    let mut cc = CandidateContext::new_reusing(ctx, spec, &[], &[], scratch, engine);

    arena.sel.begin();
    let UserIndexScratch {
        elems,
        live,
        lists,
        run,
        verdicts,
        ql,
        lu,
        node: node_scratch,
        #[cfg(test)]
        log,
        ..
    } = &mut arena.ui;
    #[cfg(test)]
    log.clear();

    // Seed the element pool with the root's materialized entries: slots
    // `0..root_len`.
    *live = 0;
    let root = seed.node_elems(miur, miur.root(), k, ctx, io, node_scratch);
    let (_, root_len) = push_children(elems, live, &root, &mut cc, &mut users_scored);

    // --- Per-location lists: the root's children, filtered by the UBL
    // bounds, where the root's own UBL reaches the location. (The pool
    // may hold a longer query's lists past this one's locations.) ---
    let root_ts = cc.ubl_group_ts(&seed.root_group);
    while lists.len() < spec.locations.len() {
        lists.push(FrontierList::default());
    }
    let lists = &mut lists[..spec.locations.len()];
    lists.iter_mut().for_each(FrontierList::clear);
    let mut classes = 1;
    let root_reaches = |_: &mut FrontierList, loc: &Point| {
        cc.ubl_group_with_ts(loc, &seed.root_group, root_ts) >= rsk_us
    };
    let kids = 0..root_len;
    spread_children(
        &cc,
        elems,
        kids,
        lists,
        root_reaches,
        run,
        verdicts,
        &mut classes,
    );
    ql.clear();
    let mut lu_class = None;
    for (li, list) in lists.iter().enumerate() {
        if list.count > 0 {
            ql.push(ByKey {
                key: list.count as f64,
                item: li,
            });
        }
    }

    while let Some(ByKey { key, item: li }) = ql.pop() {
        let current = lists[li].count;
        if current != key as usize {
            // Stale entry (a shared subtree was refined since queuing).
            if current > 0 {
                ql.push(ByKey {
                    key: current as f64,
                    item: li,
                });
            }
            continue;
        }
        if current <= arena.sel.best.count() && arena.sel.best.count() > 0 {
            break;
        }

        if let Some(eid) = lists[li].largest_group(elems) {
            // A group slot leaves every list when it is expanded and no
            // list ever takes it back, so each node expands once a query.
            let node = elems[eid as usize].node;
            let kids = seed.node_elems(miur, node, k, ctx, io, node_scratch);
            let (start, len) = push_children(elems, live, &kids, &mut cc, &mut users_scored);
            #[cfg(test)]
            log.expansion(&cc, node, eid, lists, elems, start..start + len);
            let holds = |list: &mut FrontierList, _: &Point| list.remove_group(eid, elems);
            let kids = start..start + len;
            spread_children(&cc, elems, kids, lists, holds, run, verdicts, &mut classes);
            let count = lists[li].count;
            if count > 0 {
                ql.push(ByKey {
                    key: count as f64,
                    item: li,
                });
            }
            continue;
        }

        // All elements are concrete users: Algorithm 3's evaluation of the
        // location, the `LBL` shortcut always worth trying. A list of the
        // class evaluated last holds the users `lu` holds.
        let class = lists[li].class;
        let kept = lu_class == Some(class);
        if !kept {
            lu.clear();
            lu.extend(lists[li].ids.iter().map(|&e| elems[e as usize].user));
            lu_class = Some(class);
        }
        #[cfg(test)]
        log.evaluation(li, lu, kept);
        arena.sel.locations.dequeued += 1;
        evaluate_location(&cc, li, lu, class, true, selector, &mut arena.sel, result);
    }
    materialise_winner(&cc, &mut arena.sel, result);

    arena.context_reused = cc.text_reused();
    arena.ui.cc = cc.into_scratch();
    (users_scored, total_users - users_scored.min(total_users))
}

/// The summary of every subtree below the MIUR root, as the §7 pipeline
/// would materialize it on expansion.
#[cfg(test)]
pub(crate) fn subtree_groups(miur: &MiurTree) -> Vec<UserGroup> {
    let io = IoStats::new();
    let mut groups = Vec::new();
    let mut scratch = index::MiurScratch::default();
    let mut frontier = vec![miur.root()];
    while let Some(id) = frontier.pop() {
        for e in miur.read_node_ref(id, &io, &mut scratch).entries {
            if let UserRef::Node(rec) = e.child {
                groups.push(UserGroup::from_node_entry(
                    e.rect,
                    &e.uni,
                    &e.int,
                    e.count as usize,
                    e.norm_min,
                    e.norm_max,
                ));
                frontier.push(rec);
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::location::select_candidate;
    use crate::topk::individual::individual_topk;
    use geo::{Point, Rect, SpatialContext};
    use index::{IndexedObject, IndexedUser};
    use text::{TermId, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    struct Fix {
        ctx: ScoreContext,
        users: Vec<UserData>,
        spec: QuerySpec,
        mir: StTree,
        miur: MiurTree,
    }

    fn fixture(num_users: u32) -> Fix {
        fixture_with(WeightModel::KeywordOverlap, num_users)
    }

    fn fixture_with(model: WeightModel, num_users: u32) -> Fix {
        let docs: Vec<Document> = (0..50)
            .map(|i| Document::from_terms([t(i % 5), t(5)]))
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new((i % 10) as f64, (i / 10) as f64),
                doc: text.weigh(d),
            })
            .collect();
        let users: Vec<UserData> = (0..num_users)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 9) as f64 + 0.5, (i % 4) as f64 + 0.25),
                doc: Document::from_terms([t(i % 5), t(5)]),
            })
            .collect();
        let iu: Vec<IndexedUser> = users
            .iter()
            .map(|u| IndexedUser {
                id: u.id,
                point: u.point,
                doc: u.doc.clone(),
                norm: text.normalizer(&u.doc),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 5.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let spec = QuerySpec {
            ox_doc: Document::from_terms([t(5)]),
            locations: vec![
                Point::new(2.0, 2.0),
                Point::new(8.0, 1.0),
                Point::new(5.0, 4.0),
            ],
            keywords: vec![t(0), t(1), t(2), t(3), t(4)],
            ws: 2,
            k: 3,
        };
        let mir = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let miur = MiurTree::build_with_fanout(&iu, 4);
        Fix {
            ctx,
            users,
            spec,
            mir,
            miur,
        }
    }

    /// The §7 pipeline must reach the same optimum as the in-memory
    /// Algorithm 3 with exact keyword selection.
    #[test]
    fn user_index_matches_in_memory_exact() {
        for n in [12u32, 40] {
            let f = fixture(n);
            let io = IoStats::new();

            // Reference: joint top-k + Algorithm 3 on in-memory users.
            let su = UserGroup::from_users(&f.users, &f.ctx.text);
            let out = joint_topk(&f.mir, &su, f.spec.k, &f.ctx, &io);
            let tks = individual_topk(&f.users, &out, f.spec.k, &f.ctx);
            let rsk: Vec<f64> = tks.iter().map(|t| t.rsk).collect();
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &rsk);
            let want = select_candidate(&cc, &su, out.rsk_us, KeywordSelector::Exact);

            let got = select_with_user_index(
                &f.miur,
                &f.mir,
                &f.spec,
                &f.ctx,
                KeywordSelector::Exact,
                &io,
            );
            assert_eq!(
                got.result.cardinality(),
                want.cardinality(),
                "n={n}: user-index found {} vs in-memory {}",
                got.result.cardinality(),
                want.cardinality()
            );
        }
    }

    /// The early-breaking walk must return the bits of the
    /// score-everything-and-sort definition: for every subtree of the MIUR
    /// tree and every single-user group, under tied (KO, grid) and untied
    /// (LM) bounds, and with fewer than `k` retrieved objects.
    #[test]
    fn group_rsk_lb_matches_sort_everything_reference() {
        let reference = |out: &TopkOutcome, g: &UserGroup, k: usize, ctx: &ScoreContext| {
            let mut lbs: Vec<f64> = out
                .lo()
                .chain(out.ro())
                .map(|o| lb_object(ctx, g, &o.point, o.weights))
                .collect();
            if lbs.len() < k {
                return f64::NEG_INFINITY;
            }
            lbs.sort_unstable_by(|a, b| b.total_cmp(a));
            lbs[k - 1]
        };
        let (mut checked, mut broke_early, mut starved) = (0, 0, 0);
        for model in [WeightModel::KeywordOverlap, WeightModel::lm()] {
            let f = fixture_with(model, 40);
            let io = IoStats::new();
            // The root, every subtree summary, then every user alone.
            let mut scratch = index::MiurScratch::default();
            let root = f.miur.read_node_ref(f.miur.root(), &io, &mut scratch);
            let mut groups = vec![group_from_root(&root)];
            groups.extend(subtree_groups(&f.miur));
            groups.extend(
                f.users
                    .iter()
                    .map(|u| UserGroup::from_users(std::slice::from_ref(u), &f.ctx.text)),
            );
            for k in [1, 3, 7, 60] {
                let out = joint_topk(&f.mir, &groups[0], k, &f.ctx, &io);
                let retrieved = out.lo().len() + out.ro().len();
                let mut heap = BinaryHeap::new();
                for g in &groups {
                    let got = group_rsk_lb(&out, g, k, &f.ctx, &mut heap);
                    let want = reference(&out, g, k, &f.ctx);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{model:?} k={k}: {got} vs {want}"
                    );
                    checked += 1;
                    starved += usize::from(retrieved < k && got == f64::NEG_INFINITY);
                    // The heap holds the k best of what was scored; an early
                    // break shows as RO objects above the result left out.
                    let last_ub = out.ro().last().map_or(f64::INFINITY, |o| o.ub);
                    broke_early += usize::from(retrieved >= k && last_ub < got);
                }
            }
        }
        assert!(
            checked > 400 && broke_early > 20 && starved > 100,
            "coverage: {checked} checked, {broke_early} broke early, {starved} starved"
        );
    }

    #[test]
    fn pruning_statistics_are_consistent() {
        let f = fixture(40);
        let io = IoStats::new();
        let got = select_with_user_index(
            &f.miur,
            &f.mir,
            &f.spec,
            &f.ctx,
            KeywordSelector::Greedy,
            &io,
        );
        assert_eq!(got.users_scored + got.users_pruned, 40);
    }

    #[test]
    fn greedy_variant_bounded_by_exact() {
        let f = fixture(24);
        let io = IoStats::new();
        let e = select_with_user_index(
            &f.miur,
            &f.mir,
            &f.spec,
            &f.ctx,
            KeywordSelector::Exact,
            &io,
        );
        let g = select_with_user_index(
            &f.miur,
            &f.mir,
            &f.spec,
            &f.ctx,
            KeywordSelector::Greedy,
            &io,
        );
        assert!(g.result.cardinality() <= e.result.cardinality());
    }

    /// Seeding the pipeline with a precomputed `(root group, joint
    /// outcome)` must not change the answer or the pruning statistics —
    /// only skip the MIR traversal I/O.
    #[test]
    fn seeded_pipeline_matches_unseeded() {
        let f = fixture(40);
        for selector in [KeywordSelector::Greedy, KeywordSelector::Exact] {
            let io_cold = IoStats::new();
            let cold = select_with_user_index(&f.miur, &f.mir, &f.spec, &f.ctx, selector, &io_cold);

            let io_seed = IoStats::new();
            let seed = compute_user_index_seed(&f.miur, &f.mir, f.spec.k, &f.ctx, &io_seed);
            let seed_fill_io = io_seed.total();
            let warm =
                select_with_user_index_seeded(&f.miur, &f.spec, &f.ctx, selector, &io_seed, &seed);

            assert_eq!(warm.result, cold.result, "{selector:?}");
            assert_eq!(warm.users_scored, cold.users_scored);
            assert_eq!(warm.users_pruned, cold.users_pruned);
            // The seeded run itself charges only MIUR reads — strictly less
            // than the cold run, which also pays the MIR traversal.
            let warm_io = io_seed.total() - seed_fill_io;
            assert!(
                warm_io < io_cold.total(),
                "{selector:?}: seeded {warm_io} vs cold {}",
                io_cold.total()
            );
        }
    }

    /// The least `RSk(u)` of the users below `node`, asserting on the way
    /// that every subtree carries the `k`-th bound over `seed.out`, at or
    /// below its members' least `RSk(u)`, and every user `want[id]`, bit
    /// for bit.
    fn check_below(
        seed: &UserIndexSeed,
        miur: &MiurTree,
        node: RecordId,
        k: usize,
        ctx: &ScoreContext,
        want: &HashMap<u32, f64>,
        users: &mut usize,
    ) -> f64 {
        let (io, mut scratch) = (IoStats::new(), NodeScratch::default());
        let elems = seed.node_elems(miur, node, k, ctx, &io, &mut scratch);
        let mut least = f64::INFINITY;
        for e in elems.iter() {
            let below = match e {
                Elem::Group {
                    node,
                    group,
                    rsk_lb,
                } => {
                    let bound = group_rsk_lb(&seed.out, group, k, ctx, &mut BinaryHeap::new());
                    assert_eq!(rsk_lb.to_bits(), bound.to_bits(), "k={k}");
                    let below = check_below(seed, miur, *node, k, ctx, want, users);
                    assert!(*rsk_lb <= below, "k={k}: subtree bound {rsk_lb} > {below}");
                    below
                }
                Elem::User { data, rsk, .. } => {
                    assert_eq!(rsk.to_bits(), want[&data.id].to_bits(), "k={k}");
                    *users += 1;
                    *rsk
                }
            };
            least = least.min(below);
        }
        least
    }

    /// A cached engine's seed borrows its joint slot: it holds the slot's
    /// own outcome, every MIUR leaf user materializes with the slot's
    /// `RSk(u)` bit for bit, and every subtree with its `k`-th bound over
    /// that outcome, at or below its members' `RSk(u)` — the root's
    /// children, materialized with the seed, as much as any node's —
    /// under KO, LM and TF-IDF, `k` from 1 to the object count.
    #[test]
    fn a_borrowed_seed_carries_the_joint_slot_thresholds() {
        for model in [
            WeightModel::KeywordOverlap,
            WeightModel::lm(),
            WeightModel::TfIdf,
        ] {
            let f = fixture_with(model, 40);
            let objects = (0..50)
                .map(|i| crate::ObjectData {
                    id: i,
                    point: Point::new((i % 10) as f64, (i / 10) as f64),
                    doc: Document::from_pairs([(t(i % 5), 1 + i % 3), (t(5), 1)]),
                })
                .collect();
            let eng = crate::Engine::build_with_fanout(objects, f.users, model, 0.5, 4)
                .with_user_index()
                .with_threshold_cache();
            let miur = eng.miur.as_ref().unwrap();
            for k in [1, 3, 7, 50] {
                let jt = eng.joint_thresholds(k);
                let seed = eng.user_index_seed(k);
                let want = eng.users.iter().map(|u| u.id).zip(jt.rsk.iter().copied());
                let mut users = 0;
                check_below(
                    &seed,
                    miur,
                    miur.root(),
                    k,
                    &eng.ctx,
                    &want.collect(),
                    &mut users,
                );
                assert_eq!(users, eng.users.len(), "{model:?} k={k}");
                assert!(Arc::ptr_eq(&jt.out, &seed.out), "{model:?} k={k}: a copy");
            }
        }
    }

    #[test]
    fn miur_nodes_read_at_most_once() {
        let f = fixture(40);
        let io = IoStats::new();
        select_with_user_index(
            &f.miur,
            &f.mir,
            &f.spec,
            &f.ctx,
            KeywordSelector::Exact,
            &io,
        );
        // 40 users, fanout 4 → ≤ 10 leaves + 3 inner + root + margin; each
        // read at most once plus the root read.
        assert!(io.snapshot().node_visits < 60);
    }
}

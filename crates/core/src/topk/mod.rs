//! Top-k computation: the §4 baseline and the §5 joint processing.
//!
//! The `MaxBRSTkNN` pipeline first needs `RSk(u)` — the score of the k-th
//! ranked object — for (potentially) every user. The baseline computes each
//! user's top-k independently on the IR-tree; the joint algorithm traverses
//! the MIR-tree once for a super-user and shares every node and inverted
//! file access across all users.
//!
//! # Bound first, materialise survivors only
//!
//! An uncached request spends most of its time here, and most of what the
//! traversal touches is thrown away: on the benchmark's corpus, of the
//! leaf entries it bounds about one in five passes its upper-bound test,
//! and of those fewer than one in a hundred ever competes for `LO`. So
//! nothing is built for an entry before it has survived the test that
//! could discard it:
//!
//! * **Bound first, as columns.** A leaf's postings arrive as one flat
//!   layout (`index::PostingsScratch`: term-major columns, then a
//!   per-entry CSR; no entry owns a buffer). Every entry's exact weight
//!   sum is accumulated a term list at a time — each entry's terms in
//!   ascending order, the order the pairs of a materialised row would be
//!   summed in, so `UB` keeps its bits — beside its squared distance to
//!   `us.mbr`, and the whole leaf is tested against `RSk(us)` (neither
//!   moves while a node is expanded). An entry holding no union term is
//!   decided by its distance alone: its `UB` is a monotone function of it,
//!   and where that falls below `RSk(us)` is found once per value of
//!   `RSk(us)`. The rest are picked into a selection vector for their
//!   exact `UB`. Only a survivor gets its pairs copied into the outcome's
//!   one shared run, its lower bound and a row. No allocation is made per
//!   retrieved object.
//! * **Bound by what one user can score.** No user holds more than `m`
//!   keywords ([`crate::UserGroup::max_terms`]), so no user's text score
//!   adds more than `m` weights: an entry or object whose row holds more
//!   than `m` union terms is bounded by `min(Σ row, Σ of its m heaviest)`
//!   over `n_min` (Lemma 2's sum charges every union term the subtree
//!   holds, though no single user can score them together). On the
//!   benchmark's super-user (`m = 3`, 19 union terms) an inner entry holds
//!   5.7 of them on average, and the cap cuts a cold traversal's reads by
//!   a fifth with no answer bit changed. The bound holds in floating point,
//!   not only in exact arithmetic: a user adds its weights in term order,
//!   the cap in heaviest-first order, and the heaviest-first sum is
//!   inflated by `1 + 4·m·ε` to cover both roundings (argued in
//!   `bounds.rs`). A row of at most `m` terms is bounded as before,
//!   operation for operation, and so is every row under an unbounded `m`:
//!   §7's MIUR groups and the figure harness's paper-path super-user.
//!   The leaf pass reads a row's length from the postings' CSR, so only
//!   an entry holding more than `m` terms selects its heaviest weights.
//! * **Wait on memory once.** A cold read stalls on the first touches of
//!   records the traversal is about to read — the node record, the
//!   inverted file's directory, its lists, a leaf's coordinates — so the
//!   traversal asks for less and asks early. *Term runs:* an inner
//!   node's postings row for entry `i`, read for the union terms, names
//!   every union term child `i`'s subtree holds. When a child is
//!   queued its row's terms are appended to one term vector for the
//!   traversal, and the node side table keeps the child's `(start, len)`
//!   into it; the root's run is `us.dUni`. A node's read asks for its run
//!   only, so both directory walkers stop at the last union term the node
//!   holds rather than at the last of `us.dUni`, and a node whose run is
//!   empty is still read and charged. Simulated I/O keeps its bits: a
//!   Verbatim read is charged its whole file, a Columnar read its
//!   directory and the lists it decodes, and a union term outside the run
//!   has no list in the file. *One node ahead:* after popping a node the
//!   traversal peeks at the queue, and when the top is a node it
//!   prefetches that node's record and inverted file
//!   (`index::StTree::prefetch`) before reading the current one. The
//!   peek sets the distance: the queue's top is the one node the
//!   traversal can name before it expands the current node, and that
//!   expansion is the work the fetch overlaps. When the expansion queues a
//!   child above it, or the peeked node is pruned, the hint is wasted,
//!   never wrong.
//! * **Who may skip the queue.** The queue holds 16-byte `(bound, index)`
//!   pairs — nodes index a side table of `(record, upper bound)`, objects
//!   index their row. An object that arrives while `LO` is full with
//!   `LB < RSk(us)` never enters it: `RSk(us)` only grows, so popping the
//!   object later would push it into `LO` as the new minimum and evict it
//!   at once, leaving `LO`, `RSk(us)` and everything queued as they were.
//!   That argument needs the queue's order to be independent of what else
//!   is queued, so ties between equal bounds are settled by the item, not
//!   left to the heap's internals. `topk/reference.rs` keeps the
//!   everything-through-the-queue traversal under `#[cfg(test)]`, and a
//!   test holds this one to it record for record.
//! * **`RO` by the final threshold.** Every survivor not in `LO` at the end
//!   is an `RO` candidate, and `RO` keeps those with
//!   `UB(o, us) ≥ RSk(us)` for the *final* `RSk(us)` — fewer than a filter
//!   applied at each eviction would keep, and none of the difference is
//!   reachable: both readers (Algorithm 2 and the §7 group bound) score
//!   `LO` in full first, so their running k-th value is at least the final
//!   `RSk(us)` — every `STS(o, u)` and every sub-group `LB` is at least
//!   `LB(o, us)` — and both stop at the first `RO` object whose upper
//!   bound is below that value.
//! * **Rows lie in scan order.** [`TopkOutcome`] stores the `LO` rows,
//!   then the `RO` rows descending by upper bound: the order in which
//!   Algorithm 2 walks them once per user and the §7 pipeline once per
//!   subtree. Keeping rows in discovery order behind index lists was
//!   measured and costs those walks more than the traversal saves. The
//!   order is found on 16-byte `(UB, id, row)` keys and the rows are moved
//!   once, not sorted themselves.
//! * **Algorithm 2 on slot masks.** The terms of `us.dUni` are numbered in
//!   ascending order (slots); each row carries a mask of `⌈|dUni| / 64⌉`
//!   words over them, its pairs in slot order. A user's mask is built once
//!   per refinement, and a row's text score is the sum of its weights at
//!   the slots both masks set — one AND for the many rows that share no
//!   term with the user — added in ascending slot order, the order a merge
//!   of the two term lists adds them in, so every `RSk(u)` keeps its bits
//!   (see [`individual`]; the merge is the test reference).

pub mod baseline;
pub mod individual;
pub mod joint;
#[cfg(test)]
mod reference;

use geo::Point;
use text::{Document, TermId};

use crate::UserData;

/// An object retrieved from an MIR-tree leaf during joint processing, with
/// its exact term weights (restricted to the query-term universe
/// `us.dUni`) and its bounds w.r.t. the super-user. A borrowed view of one
/// row of [`TopkOutcome`]: it owns nothing.
#[derive(Debug, Clone, Copy)]
pub struct ScoredObject<'a> {
    /// Object id.
    pub id: u32,
    /// Object location.
    pub point: Point,
    /// Exact model weights for the union keywords, ascending by term.
    pub weights: &'a [(TermId, f64)],
    /// `LB(o, us)` — lower bound on `STS(o, u)` for every user.
    pub lb: f64,
    /// `UB(o, us)` — upper bound on `STS(o, u)` for every user.
    pub ub: f64,
}

/// One retrieved object as stored: everything but the weights, which lie
/// at `weights` in the outcome's shared run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub id: u32,
    pub point: Point,
    pub lb: f64,
    pub ub: f64,
    /// `(start, len)` of the object's pairs in [`TopkOutcome::weights`].
    pub weights: (u32, u32),
}

/// Result of the Algorithm-1 tree traversal: one table of `Copy` rows over
/// one shared weight run, laid out in the order its readers scan it (see
/// the module docs), with a slot mask per row.
#[derive(Debug, Clone)]
pub struct TopkOutcome {
    /// The `LO` rows (any order), then the `RO` rows descending by
    /// `UB(o, us)`.
    pub(crate) rows: Vec<Row>,
    /// Number of leading `LO` rows.
    pub(crate) lo_len: usize,
    /// Every row's `(term, weight)` pairs, addressed by [`Row::weights`].
    pub(crate) weights: Vec<(TermId, f64)>,
    /// The slots: `us.dUni`, ascending — the only terms a row can hold.
    pub(crate) slots: Vec<TermId>,
    /// Row `r`'s slot mask is the `r`-th run of `⌈|slots| / 64⌉` words:
    /// bit `s` is set when the row's pairs hold `slots[s]`, so the row's
    /// pair for slot `s` is its `rank(s)`-th.
    pub(crate) masks: Vec<u64>,
    /// `RSk(us)`: the k-th best lower bound seen (−∞ when fewer than `k`
    /// objects exist).
    pub rsk_us: f64,
}

impl TopkOutcome {
    /// Words per slot mask.
    fn words(&self) -> usize {
        self.slots.len().div_ceil(64)
    }

    /// Sets `mask` to the slots among `doc`'s terms (terms outside
    /// `us.dUni` weigh nothing in any row).
    pub(crate) fn slot_mask(&self, doc: &Document, mask: &mut Vec<u64>) {
        mask.clear();
        mask.resize(self.words(), 0);
        for t in doc.terms() {
            if let Ok(s) = self.slots.binary_search(&t) {
                mask[s / 64] |= 1 << (s % 64);
            }
        }
    }

    /// `Σ w(t, o)` over the terms of row `r` whose slots are set in `mask`
    /// (from [`TopkOutcome::slot_mask`]), added in ascending slot order —
    /// ascending term order, the order [`text::WeightedDoc::dot_terms`]
    /// adds a row's pairs in, so the sum has the same bits.
    #[inline]
    pub(crate) fn masked_sum(&self, r: usize, mask: &[u64]) -> f64 {
        let words = mask.len();
        let row_mask = &self.masks[r * words..(r + 1) * words];
        let (mut acc, mut first) = (0.0, self.rows[r].weights.0);
        for (&held, &wanted) in row_mask.iter().zip(mask) {
            // Most rows share no term with a user: one AND and done.
            let mut hits = held & wanted;
            while hits != 0 {
                let below = held & ((1 << hits.trailing_zeros()) - 1);
                acc += self.weights[(first + below.count_ones()) as usize].1;
                hits &= hits - 1;
            }
            if words > 1 {
                first += held.count_ones(); // the next word's first pair
            }
        }
        acc
    }

    /// `LO`: the k objects with the best lower bounds (any order).
    pub fn lo(&self) -> impl ExactSizeIterator<Item = ScoredObject<'_>> + Clone {
        self.views(&self.rows[..self.lo_len])
    }

    /// `RO`: the other retrieved objects that may still reach some user's
    /// top-k (`UB(o, us) ≥ RSk(us)`), descending by `UB(o, us)` — the order
    /// Algorithm 2's early break requires.
    pub fn ro(&self) -> impl ExactSizeIterator<Item = ScoredObject<'_>> + Clone {
        self.views(&self.rows[self.lo_len..])
    }

    fn views<'a>(
        &'a self,
        rows: &'a [Row],
    ) -> impl ExactSizeIterator<Item = ScoredObject<'a>> + Clone {
        rows.iter().map(|r| ScoredObject {
            id: r.id,
            point: r.point,
            weights: &self.weights[r.weights.0 as usize..][..r.weights.1 as usize],
            lb: r.lb,
            ub: r.ub,
        })
    }
}

/// One user's top-k result.
#[derive(Debug, Clone)]
pub struct UserTopk {
    /// The user's id.
    pub user: u32,
    /// `(object id, STS)` pairs, descending by score, at most `k`.
    pub topk: Vec<(u32, f64)>,
    /// `RSk(u)`: score of the k-th ranked object (−∞ when the user has
    /// fewer than `k` scored objects).
    pub rsk: f64,
}

/// Runs a per-user top-k kernel over `parts` contiguous slices of `users`
/// — `f(i, slice_i)` — and concatenates the results in user order. The
/// slices are dealt in contiguous runs to at most one scoped thread per
/// core (a single run stays on the caller), so a slice's wall time never
/// includes waiting for a core behind its siblings. The kernels
/// (Algorithm 2, the §4 baseline) treat users independently, so the
/// result equals `f(0, users)`. A worker's panic resumes on the caller
/// with its own payload.
///
/// # Panics
/// Panics when `parts == 0`.
pub(crate) fn fan_out_users<T, F>(users: &[UserData], parts: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[UserData]) -> Vec<T> + Sync,
{
    assert!(parts > 0, "fan-out needs at least one slice");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parts.min(cores);
    let n = users.len();
    let run = &|w: usize| -> Vec<T> {
        (w * parts / workers..(w + 1) * parts / workers)
            .flat_map(|i| f(i, &users[i * n / parts..(i + 1) * n / parts]))
            .collect()
    };
    if workers == 1 {
        return run(0);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || run(w))).collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Max-heap adapter ordering payloads by an `f64` key.
#[derive(Debug, Clone)]
pub(crate) struct ByKey<T> {
    pub key: f64,
    pub item: T,
}

impl<T> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for ByKey<T> {}
impl<T> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn bykey_is_a_max_heap_key() {
        let mut h = BinaryHeap::new();
        h.push(ByKey {
            key: 0.3,
            item: "a",
        });
        h.push(ByKey {
            key: 0.9,
            item: "b",
        });
        h.push(ByKey {
            key: 0.5,
            item: "c",
        });
        assert_eq!(h.pop().unwrap().item, "b");
        assert_eq!(h.pop().unwrap().item, "c");
        assert_eq!(h.pop().unwrap().item, "a");
    }

    #[test]
    #[should_panic(expected = "slice 1 failed")]
    fn fan_out_resumes_a_worker_panic_with_its_own_payload() {
        let users: Vec<UserData> = (0..4)
            .map(|id| UserData {
                id,
                point: Point::new(0.0, 0.0),
                doc: text::Document::new(),
            })
            .collect();
        fan_out_users(&users, 2, |i, _| {
            assert!(i != 1, "slice 1 failed");
            Vec::<f64>::new()
        });
    }

    #[test]
    fn reverse_bykey_is_a_min_heap_key() {
        let mut h = BinaryHeap::new();
        for k in [0.3, 0.9, 0.5] {
            h.push(Reverse(ByKey { key: k, item: () }));
        }
        assert_eq!(h.pop().unwrap().0.key, 0.3);
    }
}

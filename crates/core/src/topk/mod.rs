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
//!   bound is below that value. After a checkpoint (below) the cut is at
//!   the final `max(RSk(us), T)`, which no user's `RSk(u)` is below.
//!   *Readers of `RO`:* on an engine with a threshold cache the §7 seed
//!   reads this cut outcome too, the joint slot's own (see
//!   [`crate::UserIndexSeed`]). Its users' `RSk(u)` keep their bits, as
//!   Algorithm 2's do. A subtree's group bound then sees only the rows
//!   at or above the cut: the k-th best lower bound of fewer objects, so
//!   still a lower bound, and possibly a looser one (every `LB` it misses
//!   is below `T`).
//! * **One exact checkpoint.** `RSk(us)` is a lower bound on every
//!   user's `RSk(u)`, and a loose one: on the benchmark at k = 10 a cold
//!   traversal ends at `RSk(us)` = 0.4786 while the lowest `RSk(u)` is
//!   0.5312. The engine's top-k fill (`individual::joint_rsk`) runs
//!   Algorithm 2 in two parts around one checkpoint inside the traversal,
//!   which then prunes at the lowest `RSk(u)` seen so far:
//!   - *At the checkpoint* every user starts its own heap — a run of `k`
//!     slots in one flat block, all −∞ — and scores the rows retrieved so
//!     far with Algorithm 2's kernel: the current `LO` rows in full, then
//!     the others descending by `UB(o, us)` up to its early break. `T` is
//!     the lowest of the users' k-th kept scores. From then on nodes,
//!     objects and the leaf's `SpatialCut` are pruned at
//!     `max(RSk(us), T)` instead of `RSk(us)`.
//!   - *After the traversal* each user continues its own heap over only
//!     the rows retrieved after the checkpoint, in scan order, with the
//!     same early break. That continuation is Algorithm 2: no row is
//!     scored twice.
//!   - *Memory.* The block holds `k` scores per user, and the checkpoint
//!     is taken only once `k` rows have been retrieved (before that no
//!     heap can fill, so `T` would be −∞); without a checkpoint a heap
//!     has at most one slot more than the outcome's rows. So no `k`, even
//!     one far above the objects, allocates more than users × rows.
//!   - *Soundness.* A kept k-th score is the k-th best score of k real
//!     objects, so `T ≤ RSk(u)` for every user `u`. Pruning is a strict
//!     `UB < T`, and every bound is `≥ STS` bit for bit (the cap's margin
//!     above included), so a pruned object scores strictly below every
//!     `RSk(u)`: it can enter no top-k, move no `RSk(u)`, and tie with no
//!     user's k-th score, so the listings keep their scores bit for bit.
//!     Each user's final k-th score is the k-th best of the scores it saw,
//!     and every object it did not see — pruned, or past an early break
//!     at a threshold no higher than its `RSk(u)` — scores strictly below
//!     that, so `RSk(u)` has the bits Algorithm 2 gives over the paper's
//!     traversal. A pruned object never enters `LO`, so `RSk(us)` may come
//!     out lower than the paper's; the outcome reports `max(RSk(us), T)`
//!     as its `rsk_us`, a lower bound on every `RSk(u)` all the same, to
//!     the location prune (the §8 answers in `select_golden.rs` are the
//!     same under either).
//!   - *The checkpoint's rows lie in scan order too* (below): its rows
//!     are copied into `LO`-then-`UB` order before the users scan them,
//!     as the outcome's are; scanning them in discovery order through an
//!     index list cost every user a cache miss per row.
//!   - *The trigger* is a position tied to the index: after `9/25` of the
//!     leaves a packed tree of the MIR-tree's objects has (1,125 node
//!     reads on the benchmark's 100,000 objects at fanout 32, whose tree
//!     has 3,241 nodes; a cold traversal reads 2,016 of them without a
//!     checkpoint and 1,373 with it at k = 10). It is tuned, not derived,
//!     and no online signal has been found that lands in the basin (ROADMAP
//!     item 16). A sweep on the benchmark's `serve_cold` engine, every
//!     `RSk(u)` bit-equal to Algorithm 2's at every position (simulated I/O
//!     per cold fill at k = 5 / 10 / 20, Columnar at k = 10, and the
//!     `(user, row)` pairs scored against Algorithm 2's at k = 10):
//!
//!     | checkpoint after | k = 5 | k = 10 | k = 20 | Columnar | pairs |
//!     |---|---|---|---|---|---|
//!     | none (the paper) | 10,099 | 10,108 | 10,117 | 4,991 | 1.00× |
//!     | 500 reads | 10,096 | 10,105 | 10,117 | 4,989 | 2.69× |
//!     | 600 | 7,711 | 8,112 | 8,619 | 3,780 | 1.35× |
//!     | 700 | 7,353 | 7,573 | 7,839 | 3,485 | 1.16× |
//!     | 875 (`7/25`) | 7,221 | 7,450 | 7,573 | 3,403 | 1.00× |
//!     | 1,000 | 7,272 | 7,489 | 7,600 | 3,429 | 1.00× |
//!     | **1,125 (`9/25`)** | 7,428 | 7,621 | 7,714 | 3,517 | 1.00× |
//!     | 1,300 | 7,814 | 7,998 | 8,085 | 3,759 | 1.00× |
//!     | 1,500 | 8,510 | 8,618 | 8,678 | 4,133 | 1.00× |
//!
//!     Too early is a trap, not only a waste: retrieved rows grow slowly
//!     between reads 400 and 550 while `RSk(us)` stays flat, then a second
//!     wave doubles them by read 900; a checkpoint inside the plateau sees
//!     users' heaps full of objects that are not their real top-k, lifts
//!     `T` barely above `RSk(us)` and scores two to three times the pairs.
//!     Where the trap lies depends on the corpus, which is why the share
//!     is `9/25` and not this corpus's best, `7/25`. On the same generator
//!     at other sizes (1,000 users, k = 10, Verbatim; I/O and pairs at
//!     `7/25` and `9/25`, and the fill's time at `9/25` against no
//!     checkpoint, in process, 30 alternating pairs):
//!
//!     | objects | none | `7/25` | `9/25` | time at `9/25` |
//!     |---|---|---|---|---|
//!     | 10,000 | 1,134 | 790 (1.00×) | 790 (1.00×) | ×0.99 |
//!     | 30,000 | 3,485 | 2,630 (1.40×) | 2,326 (1.00×) | ×0.98 |
//!     | 50,000 | 4,877 | 3,556 (1.00×) | 3,724 (1.00×) | ×0.94 |
//!     | 70,000 | 5,653 | 4,491 (1.43×) | 4,616 (1.00×) | ×0.97 |
//!     | 100,000 | 10,108 | 7,450 (1.00×) | 7,621 (1.00×) | ×0.87 |
//!     | 150,000 | 15,142 | 11,748 (1.07×) | 11,946 (1.06×) | ×0.88 |
//!     | 200,000 | 10,611 | never taken | never taken | — |
//!
//!     At `7/25` the fill ran ×1.29 on 30,000 objects and ×1.22 on 70,000.
//!     At 200,000 objects the traversal reads only 1,604 nodes, fewer than
//!     either share asks for, so no checkpoint is taken (a checkpoint after
//!     300 reads would save 36% of the I/O there). The online signals tried
//!     before this design (ROADMAP item 16) — a falling rate of survivors
//!     per read, `RSk(us)` flat for a window of reads, the stable minimum of
//!     a sampled subset of users — all fired inside the plateau. A later
//!     checkpoint costs reads and no pairs: at 1,125 the continuation scans
//!     a few dozen rows per user. Periodic checkpoints, and a throw-away
//!     checkpoint followed by Algorithm 2 in full, were measured there too:
//!     both score more pairs and run slower than one checkpoint whose heaps
//!     carry over. Tests force the checkpoint after every read count
//!     (`individual::joint_rsk_at`); answers never depend on where it
//!     falls.
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
//!   (see [`individual`]; the merge is the test reference). Rows are scored
//!   a block of eight at a time, and a block ends before the first row
//!   whose upper bound is below the user's k-th score, so no row past the
//!   early break is scored.

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
    /// objects exist) — or, after a checkpoint, the final
    /// `max(RSk(us), T)` the traversal pruned at (see the module docs).
    /// Below every user's `RSk(u)` either way.
    pub rsk_us: f64,
}

impl TopkOutcome {
    /// The rows as Algorithm 2 reads them.
    pub(crate) fn table(&self) -> Table<'_> {
        Table {
            rows: &self.rows,
            weights: &self.weights,
            slots: &self.slots,
            masks: &self.masks,
        }
    }

    /// `LO`: the k objects with the best lower bounds (any order).
    pub fn lo(&self) -> impl ExactSizeIterator<Item = ScoredObject<'_>> + Clone {
        self.views(&self.rows[..self.lo_len])
    }

    /// `RO`: the other retrieved objects that may still reach some user's
    /// top-k (`UB(o, us) ≥` [`TopkOutcome::rsk_us`]), descending by
    /// `UB(o, us)` — the order Algorithm 2's early break requires.
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

/// Retrieved rows with their slot masks, borrowed: a finished
/// [`TopkOutcome`]'s, or those a traversal has retrieved so far (in
/// discovery order) at its checkpoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a> {
    pub rows: &'a [Row],
    pub weights: &'a [(TermId, f64)],
    /// `us.dUni`, ascending.
    pub slots: &'a [TermId],
    /// One run of [`Table::words`] words per row (see
    /// [`TopkOutcome::masks`]).
    pub masks: &'a [u64],
}

impl Table<'_> {
    /// Words per slot mask.
    pub(crate) fn words(&self) -> usize {
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
    /// (from [`Table::slot_mask`]), added in ascending slot order —
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
/// — `f(i, start_i, slice_i)`, `start_i` the index of the slice's first
/// user — and concatenates the results in user order. The
/// slices are dealt in contiguous runs to at most one scoped thread per
/// core (a single run stays on the caller), so a slice's wall time never
/// includes waiting for a core behind its siblings. The kernels
/// (Algorithm 2, the §4 baseline) treat users independently, so the
/// result equals `f(0, 0, users)`. A worker's panic resumes on the caller
/// with its own payload.
///
/// # Panics
/// Panics when `parts == 0`.
pub(crate) fn fan_out_users<T, F>(users: &[UserData], parts: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize, &[UserData]) -> Vec<T> + Sync,
{
    assert!(parts > 0, "fan-out needs at least one slice");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parts.min(cores);
    let n = users.len();
    let run = &|w: usize| -> Vec<T> {
        (w * parts / workers..(w + 1) * parts / workers)
            .flat_map(|i| {
                let start = i * n / parts;
                f(i, start, &users[start..(i + 1) * n / parts])
            })
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
        fan_out_users(&users, 2, |i, _, _| {
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

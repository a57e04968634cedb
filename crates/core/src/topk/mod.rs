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
//! * **Who may skip the queue (the paper's traversal).** The queue holds
//!   16-byte `(bound, index)` pairs — nodes index a side table of
//!   `(record, upper bound)`, objects index their row. In the paper's
//!   traversal (no checkpoint given) an object that arrives while `LO` is
//!   full with `LB < RSk(us)` never enters it: `RSk(us)` only grows, so
//!   popping the object later would push it into `LO` as the new minimum
//!   and evict it at once, leaving `LO`, `RSk(us)` and everything queued
//!   as they were. That argument needs the queue's order to be independent
//!   of what else is queued, so ties between equal bounds are settled by
//!   the item, not left to the heap's internals. `topk/reference.rs` keeps
//!   the everything-through-the-queue traversal under `#[cfg(test)]`, and a
//!   test holds this one to it record for record. The engine's fill queues
//!   no object at all (*One exact checkpoint*, below).
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
//!   - *Best first by upper bound.* Given a checkpoint, the traversal
//!     queues each node by `UB(e, us)` instead of the paper's `LB(e, us)`,
//!     and puts each retrieved object straight into `LO` — the heap of the
//!     k best `(LB, row)` — never onto the queue. `RSk(us)` and the
//!     threshold are refreshed between pops, so neither moves while a node
//!     is expanded. The paper's order exists to raise `RSk(us)` early, but
//!     on the benchmark's super-user (1,000 users, `dInt` empty) that bound
//!     is spatial only and never passes α = 0.5: read by lower bound, the
//!     nodes before a checkpoint hold term-less objects near the users,
//!     which `T` later discards. Read by upper bound, the nodes holding
//!     heavy union terms near the users come first, the users' runs fill
//!     with their real top-k, and by the checkpoint `T` has its final bits.
//!     The rest of the traversal prunes at it, so a cold fill reads what a
//!     traversal pruned from the root at the final `T` reads: 6,465 I/Os
//!     on the benchmark at k = 10, against the paper's 10,108. Objects stay
//!     off the queue because they must: with nodes keyed by upper bound and
//!     objects still queued by lower bound, the fill reads the same, but
//!     its queue fills with term-less objects nobody pops before the end;
//!     in process this fill took ×0.795 of that one's time (29 of 30
//!     alternating pairs) and ×0.824 of the lower-bound order's (29 of 30).
//!     The paper's path (`joint_topk`, and so the figure harness, an
//!     uncached engine's §7 seed and the benchmark's layer rows) keeps its
//!     order and its object queue, record for record.
//!   - *At the checkpoint* every user starts its own heap — a run of `k`
//!     slots in one flat block, all −∞ — and Algorithm 2's kernel scores
//!     the rows retrieved so far for all users at once: the current `LO`
//!     rows in full, then the others descending by `UB(o, us)`, each user
//!     up to its early break. `T` is the lowest of the users' k-th kept
//!     scores. From then on nodes,
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
//!     traversal. `LO` is the k best lower bounds among all retrieved
//!     rows, so `RSk(us)` is the k-th best `LB` of k real objects: at or
//!     below every `RSk(u)` still. A pruned object never enters `LO`, so
//!     `RSk(us)` may come out lower than the paper's; the outcome reports
//!     `max(RSk(us), T)` as its `rsk_us`, a lower bound on every `RSk(u)`
//!     all the same, to the location prune (the §8 answers in
//!     `select_golden.rs` are the same under either). An `LO` row may have
//!     a `UB` below the final threshold (it was retrieved before the
//!     checkpoint lifted it). Algorithm 2 and §7's group bound score `LO`
//!     in full; such a row scores below every `RSk(u)`, so it moves no
//!     `RSk(u)`, no listing and no group bound. With no checkpoint taken,
//!     `LO` holds the k best lower bounds of the whole tree in either
//!     order, so the outcome is the paper's — `RSk(us)`, `LO` and the
//!     reachable `RO` — read at the floor of that `RSk(us)`.
//!   - *The checkpoint's rows stay where they are.* The traversal
//!     hands the kernel its rows in place, in discovery order, with the
//!     `LO` row indexes and the 16-byte keys of the rest (the order
//!     below); the kernel reads each row once, for all users, and stops
//!     at the row where the last user breaks. On the benchmark at k = 10
//!     that is row 1,354 of the checkpoint's 7,590 keys (of 7,602 rows
//!     retrieved by then): a copy of the rows into scan order, or a slot
//!     mask per row, would be made mostly for rows no user reads. For the
//!     same reason the keys are sorted as they are read (`joint::ScanOrder`:
//!     a chunk of the smallest keys left at a time, picked by selection,
//!     the sorted prefix doubling from 1,024), 2,048 of them there; each
//!     user slice sorts its own copy. Sorting all of them measured ×1.03
//!     the fill time (with the checkpoint after `9/25` of the leaves, which
//!     retrieved 15,900 rows and kept 9,628 keys).
//!   - *The trigger* is a position tied to the index: after `3/25` of the
//!     leaves a packed tree of the MIR-tree's objects has, and after no
//!     fewer than 96 node reads (375 reads on the benchmark's 100,000
//!     objects at fanout 32, whose tree has 3,241 nodes; a cold traversal
//!     reads 997 of them at k = 10, the paper's 2,016). It is tuned, not
//!     derived (ROADMAP item 16). A sweep on the benchmark's `serve_cold`
//!     engine, every `RSk(u)` bit-equal to Algorithm 2's over the paper's
//!     traversal at every position (simulated I/O per cold fill at k = 5 /
//!     10 / 20, Columnar at k = 10, and the `(user, row)` pairs scored
//!     against Algorithm 2's at k = 10):
//!
//!     | checkpoint after | k = 5 | k = 10 | k = 20 | Columnar | pairs |
//!     |---|---|---|---|---|---|
//!     | the paper's traversal | 10,099 | 10,108 | 10,117 | 4,991 | 1.00× |
//!     | none (upper-bound order) | 10,072 | 10,084 | 10,093 | 4,975 | 1.00× |
//!     | 48 reads | 6,356 | 7,053 | 8,067 | 3,100 | 1.23× |
//!     | 96 | 6,271 | 6,510 | 7,089 | 2,785 | 1.10× |
//!     | 150 | 6,194 | 6,465 | 6,723 | 2,755 | 1.04× |
//!     | 200 | 6,194 | 6,465 | 6,642 | 2,755 | 1.00× |
//!     | **375 (`3/25`)** | 6,194 | 6,465 | 6,642 | 2,755 | 1.00× |
//!     | 875 (`7/25`) | 6,194 | 6,465 | 6,642 | 2,755 | 1.00× |
//!     | 1,125 (`9/25`, the lower-bound order's trigger) | 6,962 | 6,962 | 6,962 | 3,048 | 1.00× |
//!
//!     From 200 reads to 875 every `k` reads the floor: `T` is final, and
//!     the traversal pruned from the root at it reads 941 / 997 / 1,056
//!     nodes. A checkpoint later than that is read up to, pruning only at
//!     `RSk(us)` until then: at 1,125 every `k` reads 1,125 nodes. Before
//!     200 the users' runs are not full of their real top-k yet: `T` lands
//!     a little low and the pairs grow. Without a checkpoint upper-bound
//!     order gains little, since `RSk(us)` stays spatial. On the same generator at other
//!     sizes (1,000 users, k = 10, Verbatim; I/O of the lower-bound order
//!     with its `9/25` trigger, of this order at the trigger, the sweep's
//!     best over 14 read counts from 24 to 1,000 and six shares from `2/25`
//!     to `9/25`, and the pairs at the trigger against Algorithm 2's):
//!
//!     | objects | the paper | lower bound, `9/25` | upper bound, trigger | best | pairs |
//!     |---|---|---|---|---|---|
//!     | 10,000 | 1,134 | 790 | 790 (96 reads) | 790 | 1.00× |
//!     | 20,000 | 2,398 | 1,788 | 1,785 (96) | 1,785 | 1.01× |
//!     | 30,000 | 3,485 | 2,326 | 2,317 (112) | 2,317 | 1.01× |
//!     | 50,000 | 4,877 | 3,724 | 3,475 (187) | 3,475 | 1.00× |
//!     | 70,000 | 5,653 | 4,616 | 3,842 (262) | 3,842 | 1.00× |
//!     | 100,000 | 10,108 | 7,621 | 6,465 (375) | 6,465 | 1.00× |
//!     | 150,000 | 15,142 | 11,946 | 10,226 (562) | 10,226 | 1.00× |
//!     | 200,000 | 10,611 | 10,611 (never taken) | 6,780 (750) | 6,780 | 1.00× |
//!
//!     The share alone fires too early on a small tree: `3/25` of 313
//!     leaves is 37 reads, and 10,000 objects then read 814 (793 and 868
//!     at k = 5 and 20, against 734 and 817), scoring 1.08× the pairs;
//!     hence the 96 reads. At 200,000 objects the lower-bound order's
//!     traversal reads 1,604 nodes, fewer than `9/25` asks for, and never
//!     took its checkpoint; this one fires after 750 reads and saves 36% of
//!     the I/O. The online signals tried for the lower-bound order (ROADMAP
//!     item 16) — a falling rate of survivors per read, `RSk(us)` flat for a
//!     window of reads, the stable minimum of a sampled subset of users —
//!     all fired too early. Periodic checkpoints, and a throw-away
//!     checkpoint followed by Algorithm 2 in full, scored more pairs and ran
//!     slower than one checkpoint whose heaps carry over. Tests force the
//!     checkpoint after every read count (`individual::joint_rsk_at`);
//!     answers never depend on where it falls.
//! * **Rows lie in scan order.** [`TopkOutcome`] stores the `LO` rows,
//!   then the `RO` rows descending by upper bound: the order in which
//!   Algorithm 2 walks them for all users at once and the §7 pipeline once
//!   per subtree. The order is found on 16-byte `(UB, id, row)` keys and
//!   the rows are moved once, not sorted themselves.
//! * **Algorithm 2 as one column kernel** (`individual::refine`). The
//!   users are the columns — `x`, `y`, `N(u)`, a slot mask over the terms
//!   of `us.dUni` numbered in ascending order, the k-th kept score — and
//!   the rows the outer loop, so each row is read once for every user
//!   instead of once per user. At an `RO` row the kernel first drops, by
//!   swap-remove, each user whose k-th score the row's upper bound is
//!   below (its early break), then scores the users left a column at a
//!   time: `SS`, then the text sum — the row's weights at the slots the
//!   user holds, added in ascending slot order from `+0.0`, the order a
//!   merge of the two term lists adds them in — then `TS` and `STS`, each
//!   the operations of `ScoreContext::sts` in its order. So every `RSk(u)`
//!   keeps its bits (see [`individual`]; the merge is the test reference),
//!   and the loops over users are plain arithmetic on columns, which the
//!   compiler vectorises two lanes wide without reassociating anything.
//!   A score offered to a score-only run (ascending, its first slot the
//!   k-th kept score) enters it without a branch on the data: slot `i`
//!   takes `max(r[i], min(r[i + 1], s))` and the last `max(r[last], s)`,
//!   plain compares, which drops the minimum and inserts `s` and leaves
//!   the run alone when `s` is at or below it. The shift loop this
//!   replaced exited after a count that depends on the score, so the
//!   branch predictor missed about once per offer (the offers took 16.8%
//!   of a cold `serve_cold` query's samples, 9.9% after). The bits hold
//!   because the run ends as the same sorted multiset and equal scores
//!   are bit-equal: no score is NaN or `-0.0` (`individual::Slots`; the
//!   shift loop is the test reference).
//!   Every caller runs it: the checkpoint's lift and the continuation
//!   (score-only runs in one flat block), the §7 leaf users (a node's users
//!   at once) and the listings (one heap per user).

pub mod baseline;
pub mod individual;
pub mod joint;
#[cfg(test)]
mod reference;

use geo::Point;
use text::TermId;

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
/// the module docs).
#[derive(Debug, Clone)]
pub struct TopkOutcome {
    /// The `LO` rows (ascending by discovery), then the `RO` rows
    /// descending by `UB(o, us)`.
    pub(crate) rows: Vec<Row>,
    /// Number of leading `LO` rows.
    pub(crate) lo_len: usize,
    /// Every row's `(term, weight)` pairs, addressed by [`Row::weights`].
    pub(crate) weights: Vec<(TermId, f64)>,
    /// The slots: `us.dUni`, ascending — the only terms a row can hold.
    pub(crate) slots: Vec<TermId>,
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

/// Retrieved rows over their shared weight run, borrowed in place: a
/// finished [`TopkOutcome`]'s (in scan order), or those a traversal has
/// retrieved so far (in discovery order) at its checkpoint.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Table<'a> {
    pub rows: &'a [Row],
    pub weights: &'a [(TermId, f64)],
    /// `us.dUni`, ascending: a row's pair for term `slots[s]` is at slot
    /// `s`.
    pub slots: &'a [TermId],
}

impl Table<'_> {
    /// Words per slot mask over [`Table::slots`].
    pub(crate) fn words(&self) -> usize {
        self.slots.len().div_ceil(64)
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

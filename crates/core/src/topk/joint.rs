//! Algorithm 1: JOINT-TOPK — one MIR-tree traversal for all users.
//!
//! The tree is traversed for the super-user `us` instead of each individual
//! user, ordered by *lower* bound so objects with strong guaranteed scores
//! surface early and tighten the global pruning threshold `RSk(us)` (the
//! k-th best lower bound seen so far). A node or object is pruned as soon
//! as its upper bound w.r.t. `us` falls below `RSk(us)` — by Lemma 2 no
//! user's top-k can then involve anything below it. Every node and
//! inverted file is read at most once, which is the source of the joint
//! method's I/O savings over the per-user baseline. The engine's fill
//! runs it with one checkpoint that lifts the threshold to the lowest
//! `RSk(u)` seen so far (`Checkpoint`), and then reads best first by
//! *upper* bound: nodes are queued by `UB(e, us)`, and each retrieved
//! object goes straight into `LO` instead of onto the queue, so the users'
//! real top-k are retrieved before the checkpoint (the module docs' *One
//! exact checkpoint*).
//!
//! How the traversal bounds first and materialises survivors only is in
//! the [module docs](crate::topk); the paper-literal form it is tested
//! against lives in `topk/reference.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use index::{ChildRef, NodeScratch, PostingMode, PostingsScratch, StTree};
use storage::{IoStats, RecordId};
use text::TermId;

use crate::bounds::{lb_entry, lb_object, ub_entry, ub_object};
use crate::topk::{Row, Table, TopkOutcome};
use crate::{ScoreContext, UserGroup};

/// Work items on the traversal queue `PQ`: indexes, so a queue slot is 16
/// bytes whatever it stands for. The derived order settles tied bounds (an
/// object before a node, the later arrival first). Only the paper's
/// traversal queues objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Item {
    /// An unexpanded node: its `(record, parent-derived upper bound)` is
    /// at this index of the node side table.
    Node(u32),
    /// A retrieved object: this row of the table.
    Obj(u32),
}

/// A bound as an integer with the same order ([`f64::total_cmp`]'s), so
/// that `(bound, item)` tuples order totally under the derived `Ord`: what
/// a heap pops next then depends on what it holds, not on how it got there
/// — which is what lets objects skip the queue without disturbing it.
fn ordered(bound: f64) -> u64 {
    let bits = bound.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// What the traversal just did — observed by the test that holds it to
/// the reference; [`joint_topk`] itself ignores the steps.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Step {
    /// Read this node, and the lists of its inverted file for this many
    /// union terms.
    Visited(RecordId, usize),
    /// Put a retrieved object on the queue.
    Queued,
    /// Kept a retrieved object off the queue: `LO` was full and its lower
    /// bound below `RSk(us)`.
    Bypassed,
}

/// Runs the Algorithm-1 traversal and returns `LO`, `RO` and `RSk(us)`.
///
/// `tree` must be an MIR-tree ([`PostingMode::MaxMin`]): the lower-bound
/// keys need posting minima.
///
/// # Panics
/// Panics when `k == 0` or when `tree` lacks minima.
pub fn joint_topk(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
) -> TopkOutcome {
    traverse(tree, group, k, ctx, io, None, |_| {}).out
}

/// Where the traversal may lift its pruning threshold above `RSk(us)`
/// (see the module docs' *One exact checkpoint*): before the node read
/// that follows the `at`-th — when at least `k` rows have been retrieved
/// by then, else never — `lift(table, lo, rest)` is handed the rows
/// retrieved so far, in place (discovery order), with their scan order:
/// the current `LO` rows, ascending, and the keys of the others the
/// threshold leaves, unsorted ([`ScanOrder`] reads them descending by
/// `UB(o, us)`). It returns a threshold `T` that no user's `RSk(u)` is
/// below. From then on the traversal prunes at `max(RSk(us), T)`. A
/// traversal given a checkpoint reads by upper bound, whether or not it
/// comes to take it.
pub(crate) struct Checkpoint<'a> {
    pub at: usize,
    pub lift: &'a mut Lift<'a>,
}

/// A [`Checkpoint`]'s `lift(table, lo, rest) -> T`.
pub(crate) type Lift<'a> = dyn FnMut(Table<'_>, &[u32], &[u128]) -> f64 + 'a;

/// What [`traverse`] returns.
pub(crate) struct Traversal {
    pub out: TopkOutcome,
    /// With a checkpoint taken: the rows retrieved after it, as indexes
    /// into `out`'s rows in scan order, and how many of them lead (the
    /// `LO` ones).
    pub fresh: Option<(Vec<u32>, usize)>,
}

/// [`joint_topk`] — or, given a [`Checkpoint`], the fill's traversal —
/// reporting each [`Step`] to `observe`.
pub(crate) fn traverse(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
    mut checkpoint: Option<Checkpoint<'_>>,
    mut observe: impl FnMut(Step),
) -> Traversal {
    assert!(k > 0, "k must be positive");
    assert_eq!(
        tree.mode(),
        PostingMode::MaxMin,
        "joint top-k requires the MIR-tree (max+min postings)"
    );

    let uni = group.uni_terms();
    let mut node_scratch = NodeScratch::default();
    let mut postings_scratch = PostingsScratch::default();
    let resolver = ctx.text.weights();
    let mut pq: BinaryHeap<(u64, Item)> = BinaryHeap::new();
    // Per queued node: its record, its parent-derived upper bound and the
    // `(start, len)` of the union terms its subtree holds in `terms` — the
    // terms of its parent's row for it; the root's run is `uni`.
    let mut terms: Vec<TermId> = uni.clone();
    let mut nodes: Vec<(RecordId, f64, (u32, u32))> =
        vec![(tree.root(), f64::INFINITY, (0, uni.len() as u32))];
    // A leaf's columns, and the cut for the current threshold.
    let mut leaf = LeafColumns::default();
    let mut cut = SpatialCut::NONE;
    // Every object that passed its upper-bound test, in discovery order.
    let mut rows: Vec<Row> = Vec::new();
    let mut weights = Vec::new();
    // LO: min-heap by LB over the rows of the k best lower-bounded objects.
    let mut lo: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut rsk_us = f64::NEG_INFINITY;
    // The checkpoint's T, and the pruning threshold max(RSk(us), T): −∞
    // until LO fills or a checkpoint lifts it.
    let (mut lifted, mut thr) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    // Node reads so far, and the rows retrieved before the checkpoint.
    let (mut visits, mut before) = (0, None);
    // The fill (a checkpoint given) queues nodes by upper bound and keeps
    // objects off the queue; the paper's traversal queues both by lower
    // bound (the module docs' *One exact checkpoint*).
    let by_ub = checkpoint.is_some();

    pq.push((ordered(f64::INFINITY), Item::Node(0)));

    loop {
        // RSk(us) is LO's k-th best lower bound once LO holds k rows. LO
        // moves between pops only — when the paper's traversal pops an
        // object, or when the fill expands a leaf — so neither RSk(us) nor
        // the threshold moves while a node is expanded.
        if let Some(lb) = kth_lb(&lo, k, &rows) {
            rsk_us = lb;
            thr = rsk_us.max(lifted);
        }
        let Some((key, item)) = pq.pop() else {
            break;
        };
        match item {
            Item::Obj(row) => {
                if rows[row as usize].ub < thr {
                    continue; // pruned (the threshold grew since it was queued)
                }
                keep(&mut lo, k, key, row);
                // Whatever is not in LO at the end is an RO candidate;
                // the final threshold decides below.
            }
            Item::Node(n) => {
                let (rec, ub, (start, len)) = nodes[n as usize];
                if ub < thr {
                    continue; // pruned (the threshold grew since it was queued)
                }
                // With fewer than k rows retrieved no user's heap can fill
                // (T would be −∞): the checkpoint is not taken.
                let due = |cp: &mut Checkpoint<'_>| cp.at == visits && rows.len() >= k;
                if let Some(cp) = checkpoint.take_if(due) {
                    lifted = run_checkpoint(cp, &rows, &weights, &uni, &lo, thr);
                    thr = rsk_us.max(lifted);
                    before = Some(rows.len());
                    if ub < thr {
                        continue;
                    }
                }
                visits += 1;
                // Start loading the node likely to be read next while this
                // one is read and expanded.
                if let Some(&(_, Item::Node(next))) = pq.peek() {
                    tree.prefetch(nodes[next as usize].0);
                }
                observe(Step::Visited(rec, len as usize));
                let node = tree.read_node_ref(rec, io, &mut node_scratch);
                let run = &terms[start as usize..][..len as usize];
                let postings = tree.read_postings_ref(&node, run, io, &mut postings_scratch);
                let full = lo.len() >= k;
                if !node.is_leaf() {
                    for i in 0..node.len() {
                        let ChildRef::Node(child) = node.child(i) else {
                            unreachable!("inner entries point at nodes")
                        };
                        let (rect, row) = (node.rect(i), postings.entry(i));
                        let child_ub = ub_entry(ctx, group, &rect, row);
                        if child_ub < thr {
                            continue;
                        }
                        let start = terms.len() as u32;
                        terms.extend(row.iter().map(|&(t, _, _)| t));
                        nodes.push((child, child_ub, (start, row.len() as u32)));
                        let key = if by_ub {
                            child_ub
                        } else {
                            lb_entry(ctx, group, &rect, row)
                        };
                        pq.push((ordered(key), Item::Node(nodes.len() as u32 - 1)));
                    }
                    continue;
                }
                // A leaf is bounded as columns. Every entry's exact weight
                // sum is accumulated a term list at a time — each entry's
                // terms in ascending order, the order its row's pairs would
                // be summed in — beside its squared distance to `us.mbr`.
                // With a threshold set, an entry holding no union term is
                // decided by that distance alone (see `SpatialCut`); the
                // others are picked, without branching, for their exact UB.
                let n = node.len();
                leaf.sums.clear();
                leaf.sums.resize(n, 0.0);
                for (t, idxs, maxs) in postings.lists() {
                    for (&i, &x) in idxs.iter().zip(maxs) {
                        let w = resolver.weight(t, x);
                        if w > 0.0 {
                            leaf.sums[i as usize] += w;
                        }
                    }
                }
                leaf.d2s.clear();
                leaf.d2s
                    .extend((0..n).map(|i| group.mbr.min_dist_sq_point(&node.point(i))));
                let cutting = thr > f64::NEG_INFINITY;
                if cutting && cut.rsk.to_bits() != thr.to_bits() {
                    cut = SpatialCut::new(ctx, group, thr);
                }
                let cut_d2 = if cutting { cut.d2 } else { f64::NAN };
                leaf.picked.clear();
                leaf.picked.resize(n, 0);
                let mut m = 0;
                for (i, (&sum, &d2)) in leaf.sums.iter().zip(&leaf.d2s).enumerate() {
                    leaf.picked[m] = i as u32;
                    m += usize::from(!(sum == 0.0 && d2 >= cut_d2));
                }
                leaf.picked.truncate(m);
                leaf.ubs.clear();
                leaf.ubs.extend(leaf.picked.iter().map(|&i| {
                    let i = i as usize;
                    ub_object(ctx, group, leaf.d2s[i], leaf.sums[i], postings.entry(i))
                }));
                // Only a survivor gets its pairs in the run, an LB and a row.
                for (&i, &ub) in leaf.picked.iter().zip(&leaf.ubs) {
                    if ub < thr {
                        continue;
                    }
                    let i = i as usize;
                    let ChildRef::Object(id) = node.child(i) else {
                        unreachable!("leaf entries point at objects")
                    };
                    let point = node.point(i);
                    let start = weights.len();
                    weights.extend(
                        postings
                            .entry(i)
                            .iter()
                            .map(|&(t, x, _)| (t, resolver.weight(t, x)))
                            .filter(|&(_, w)| w > 0.0),
                    );
                    let lb = lb_object(ctx, group, &point, &weights[start..]);
                    rows.push(Row {
                        id,
                        point,
                        lb,
                        ub,
                        weights: (start as u32, (weights.len() - start) as u32),
                    });
                    let row = rows.len() as u32 - 1;
                    if by_ub {
                        keep(&mut lo, k, ordered(lb), row);
                        continue;
                    }
                    if full && lb < rsk_us {
                        // Popped, it would enter LO as its minimum and
                        // leave again at once: RSk(us) only grows.
                        observe(Step::Bypassed);
                        continue;
                    }
                    observe(Step::Queued);
                    pq.push((ordered(lb), Item::Obj(row)));
                }
            }
        }
    }

    // Scan order: the LO rows in ascending row order, then RO: what the
    // final threshold (still −∞ if LO never filled and no checkpoint lifted
    // it) leaves reachable, descending by UB for Algorithm 2's early break.
    let lo = lo_rows(&lo);
    let mut rest = rest_keys(&rows, &lo, thr);
    rest.sort_unstable();
    let order: Vec<u32> = (lo.iter().copied())
        .chain(rest.into_iter().map(|key| key_row(key) as u32))
        .collect();
    let fresh = before.map(|before| {
        let fresh: Vec<u32> = (0..)
            .zip(&order)
            .filter(|&(_, &i)| i as usize >= before)
            .map(|(at, _)| at)
            .collect();
        let lo_fresh = fresh.partition_point(|&at| (at as usize) < lo.len());
        (fresh, lo_fresh)
    });
    let rows: Vec<Row> = order.iter().map(|&i| rows[i as usize]).collect();
    Traversal {
        out: TopkOutcome {
            rows,
            lo_len: lo.len(),
            weights,
            slots: uni,
            rsk_us: thr,
        },
        fresh,
    }
}

/// Runs a checkpoint over the rows retrieved so far, in place, and returns
/// its `T`.
fn run_checkpoint(
    cp: Checkpoint<'_>,
    rows: &[Row],
    weights: &[(TermId, f64)],
    uni: &[TermId],
    lo: &BinaryHeap<Reverse<(u64, u32)>>,
    thr: f64,
) -> f64 {
    let lo = lo_rows(lo);
    let rest = rest_keys(rows, &lo, thr);
    let table = Table {
        rows,
        weights,
        slots: uni,
    };
    (cp.lift)(table, &lo, &rest)
}

/// Puts row `row` into `LO` under `key`, its ordered lower bound, and
/// drops `LO`'s minimum past `k` rows.
fn keep(lo: &mut BinaryHeap<Reverse<(u64, u32)>>, k: usize, key: u64, row: u32) {
    if lo.len() < k {
        lo.push(Reverse((key, row)));
    } else if let Some(mut min) = lo.peek_mut().filter(|min| (key, row) > min.0) {
        *min = Reverse((key, row));
    }
}

/// `RSk(us)`, the k-th best lower bound in `LO`, once `LO` holds `k` rows.
fn kth_lb(lo: &BinaryHeap<Reverse<(u64, u32)>>, k: usize, rows: &[Row]) -> Option<f64> {
    let Reverse((_, kth)) = lo.peek().filter(|_| lo.len() == k)?;
    Some(rows[*kth as usize].lb)
}

/// The rows of `LO`, ascending.
fn lo_rows(lo: &BinaryHeap<Reverse<(u64, u32)>>) -> Vec<u32> {
    let mut lo: Vec<u32> = lo.iter().map(|&Reverse((_, row))| row).collect();
    lo.sort_unstable();
    lo
}

/// The keys of the rows outside `lo` (ascending) whose upper bound reaches
/// `thr`, unsorted. A 16-byte key `(UB descending, id, row)` sorts as one
/// integer into scan order: descending by upper bound, ids settling ties,
/// so the order does not depend on when an object was discovered.
fn rest_keys(rows: &[Row], lo: &[u32], thr: f64) -> Vec<u128> {
    let mut keys: Vec<u128> = Vec::new();
    let mut in_lo = lo.iter().peekable();
    for (i, row) in rows.iter().enumerate() {
        if in_lo.next_if_eq(&&(i as u32)).is_none() && row.ub >= thr {
            let key = (u128::from(!ordered(row.ub)) << 64) | (u128::from(row.id) << 32);
            keys.push(key | i as u128);
        }
    }
    keys
}

/// The row a key of [`rest_keys`] stands for.
fn key_row(key: u128) -> usize {
    key as u32 as usize
}

/// The rows of [`rest_keys`]' keys in scan order, sorted as they are read:
/// a chunk at a time, each chunk the smallest keys left (picked by
/// selection, then sorted), the chunks doubling from [`ScanOrder::CHUNK`].
/// A scan that stops early — Algorithm 2's, where the last user breaks —
/// sorts about what it reads: at the benchmark's checkpoint 2,048 of 9,628
/// keys for the 1,395 it reads.
pub(crate) struct ScanOrder {
    keys: Vec<u128>,
    next: usize,
    sorted: usize,
}

impl ScanOrder {
    const CHUNK: usize = 1024;

    /// A scan over a copy of `keys`.
    pub(crate) fn new(keys: &[u128]) -> Self {
        ScanOrder {
            keys: keys.to_vec(),
            next: 0,
            sorted: 0,
        }
    }
}

impl Iterator for ScanOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.sorted {
            let left = &mut self.keys[self.sorted..];
            let chunk = self.sorted.max(Self::CHUNK).min(left.len());
            if chunk < left.len() {
                left.select_nth_unstable(chunk);
            }
            left[..chunk].sort_unstable();
            self.sorted += chunk;
        }
        let key = *self.keys.get(self.next)?;
        self.next += 1;
        Some(key_row(key))
    }
}

/// One leaf's bounding columns, reused from leaf to leaf.
#[derive(Debug, Default)]
struct LeafColumns {
    /// Per entry: the exact weight sum over `us.dUni`, and the squared
    /// distance to `us.mbr`.
    sums: Vec<f64>,
    d2s: Vec<f64>,
    /// The entries whose UB is computed, and those UBs.
    picked: Vec<u32>,
    ubs: Vec<f64>,
}

/// Where an object holding no union term fails its upper-bound test.
///
/// Such an object's `UB(o, us)` is `combine(MinSS(o, us), 0)`: the square
/// root of `d² = MinDist(o, us.mbr)²`, a division, a subtraction, a clamp
/// at 0, two products and a sum — correctly rounded monotone operations
/// all, so the computed bound never grows with `d²`. `UB` below the
/// pruning threshold therefore holds, bit for bit as `ub_object` computes
/// it, exactly from one `d²` on. That `d²` is found once per value of the
/// threshold (a traversal sees a few dozen) by bisecting the bit patterns
/// of the non-negative floats, whose order is their values'.
#[derive(Debug, Clone, Copy)]
struct SpatialCut {
    /// The threshold the cut is for.
    rsk: f64,
    /// The smallest failing `d²`; NaN when none fails (no `d² >= NaN`).
    d2: f64,
}

impl SpatialCut {
    /// A cut for no threshold yet: it is replaced before it is read.
    const NONE: SpatialCut = SpatialCut {
        rsk: f64::NAN,
        d2: f64::NAN,
    };

    fn new(ctx: &ScoreContext, group: &UserGroup, rsk: f64) -> Self {
        let fails = |d2: f64| ub_object(ctx, group, d2, 0.0, &[]) < rsk;
        let d2 = if !fails(f64::INFINITY) {
            f64::NAN
        } else if fails(0.0) {
            0.0
        } else {
            // Invariant: `lo` holds, `hi` fails.
            let (mut lo, mut hi) = (0f64.to_bits(), f64::INFINITY.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if fails(f64::from_bits(mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f64::from_bits(hi)
        };
        SpatialCut { rsk, d2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserData;
    use geo::{Point, Rect, SpatialContext};
    use index::IndexedObject;
    use text::{Document, TermId, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// 30 objects on a 6×5 grid with three rotating terms plus a common
    /// term, 5 users clustered near the middle.
    fn fixture() -> (
        Vec<Document>,
        Vec<IndexedObject>,
        Vec<UserData>,
        ScoreContext,
    ) {
        let docs: Vec<Document> = (0..30)
            .map(|i| Document::from_terms([t(i % 3), t(3)]))
            .collect();
        let text = TextScorer::build(WeightModel::lm(), &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new((i % 6) as f64, (i / 6) as f64),
                doc: text.weigh(d),
            })
            .collect();
        let users: Vec<UserData> = (0..5)
            .map(|i| UserData {
                id: i,
                point: Point::new(2.0 + (i as f64) * 0.3, 2.0),
                doc: Document::from_terms([t(i % 3), t(3)]),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(6.0, 5.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        (docs, objects, users, ctx)
    }

    /// Brute-force reference: exact top-k per user by scanning all objects.
    fn brute_topk(
        docs: &[Document],
        objects: &[IndexedObject],
        user: &UserData,
        k: usize,
        ctx: &ScoreContext,
    ) -> Vec<(u32, f64)> {
        let mut scored: Vec<(u32, f64)> = docs
            .iter()
            .zip(objects)
            .map(|(_, o)| {
                let ss = ctx.spatial.ss_points(&o.point, &user.point);
                (
                    o.id,
                    ctx.combine(ss, ctx.text.ts_weighted(&o.doc, &user.doc)),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// A scan order read in full is the sorted keys' rows, at sizes below,
    /// at and past every chunk boundary, with tied upper bounds (ids and
    /// rows settle them); read in part, it sorts no more than the next
    /// chunk boundary past what was read.
    #[test]
    fn scan_order_reads_the_keys_sorted_a_chunk_at_a_time() {
        let mut next = crate::select::test_fixture::stream(48);
        for n in [0, 1, 1023, 1024, 1025, 2048, 5000] {
            let keys: Vec<u128> = (0..n)
                .map(|row| {
                    let ub = next(50) as f64 / 7.0;
                    (u128::from(!ordered(ub)) << 64) | (u128::from(next(20) as u32) << 32) | row
                })
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let want: Vec<usize> = sorted.iter().map(|&key| key_row(key)).collect();
            assert_eq!(ScanOrder::new(&keys).collect::<Vec<_>>(), want, "n = {n}");
            let mut part = ScanOrder::new(&keys);
            let read: Vec<usize> = part.by_ref().take(n as usize / 3).collect();
            assert_eq!(read, want[..n as usize / 3], "n = {n}");
            let bound = (n as usize / 3).next_power_of_two().max(ScanOrder::CHUNK);
            assert!(
                part.sorted <= bound.min(n as usize),
                "n = {n}: {}",
                part.sorted
            );
        }
    }

    #[test]
    fn lo_ro_contain_every_users_topk() {
        let (docs, objects, users, ctx) = fixture();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        for k in [1, 3, 5] {
            let group = UserGroup::from_users(&users, &ctx.text);
            let out = joint_topk(&tree, &group, k, &ctx, &io);
            assert_eq!(out.lo().len(), k);
            let kept: std::collections::HashSet<u32> =
                out.lo().chain(out.ro()).map(|o| o.id).collect();
            for u in &users {
                for (oid, _) in brute_topk(&docs, &objects, u, k, &ctx) {
                    assert!(
                        kept.contains(&oid),
                        "k={k}: user {} top-k object {oid} missing from LO∪RO",
                        u.id
                    );
                }
            }
        }
    }

    #[test]
    fn rsk_us_lower_bounds_every_user_rsk() {
        let (docs, objects, users, ctx) = fixture();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let k = 3;
        let group = UserGroup::from_users(&users, &ctx.text);
        let out = joint_topk(&tree, &group, k, &ctx, &io);
        for u in &users {
            let ref_topk = brute_topk(&docs, &objects, u, k, &ctx);
            let rsk_u = ref_topk.last().unwrap().1;
            assert!(
                out.rsk_us <= rsk_u,
                "RSk(us)={} exceeds RSk(u{})={}",
                out.rsk_us,
                u.id,
                rsk_u
            );
        }
    }

    #[test]
    fn ro_is_sorted_descending_by_ub_and_reachable() {
        let (_, objects, users, ctx) = fixture();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let group = UserGroup::from_users(&users, &ctx.text);
        let out = joint_topk(&tree, &group, 2, &ctx, &io);
        let ubs: Vec<f64> = out.ro().map(|o| o.ub).collect();
        assert!(!ubs.is_empty());
        assert!(ubs.windows(2).all(|w| w[0] >= w[1]));
        assert!(ubs.iter().all(|&ub| ub >= out.rsk_us));
    }

    #[test]
    fn every_node_read_at_most_once() {
        let (_, objects, users, ctx) = fixture();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let group = UserGroup::from_users(&users, &ctx.text);
        for k in [1, 3, 30] {
            let io = IoStats::new();
            let mut visited = Vec::new();
            traverse(&tree, &group, k, &ctx, &io, None, |step| {
                if let Step::Visited(rec, _) = step {
                    visited.push(rec);
                }
            });
            assert_eq!(visited.len() as u64, io.snapshot().node_visits, "k={k}");
            let mut distinct = visited.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), visited.len(), "k={k}: a node read twice");
        }
    }

    #[test]
    fn k_larger_than_dataset_keeps_everything() {
        let (_, objects, users, ctx) = fixture();
        let small = &objects[..3];
        let tree = StTree::build_with_fanout(small, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let group = UserGroup::from_users(&users, &ctx.text);
        let out = joint_topk(&tree, &group, 10, &ctx, &io);
        assert_eq!(out.lo().len(), 3);
        assert_eq!(out.ro().len(), 0);
        assert_eq!(out.rsk_us, f64::NEG_INFINITY);
    }

    /// The cut decides every term-less object as `ub_object` does — ties
    /// with `RSk(us)` included, which must not fail — for thresholds above
    /// every bound, below every bound and equal to the bounds of points
    /// inside, on and around the super-user's MBR.
    #[test]
    fn spatial_cut_decides_as_the_upper_bound_does() {
        let (_, _, users, ctx) = fixture();
        let group = UserGroup::from_users(&users, &ctx.text);
        let mut next = crate::select::test_fixture::stream(7);
        let points: Vec<Point> = (0..400)
            .map(|_| Point::new(next(700) as f64 / 100.0, next(600) as f64 / 100.0))
            .chain([group.mbr.min, group.mbr.max])
            .collect();
        // `ub_object` at the point's squared distance is the point's bound.
        let ub = |p: &Point| {
            let ub = ub_object(&ctx, &group, group.mbr.min_dist_sq_point(p), 0.0, &[]);
            let by_point = ctx.combine(ctx.spatial.min_ss_point(p, &group.mbr), 0.0);
            assert_eq!(ub.to_bits(), by_point.to_bits(), "{p:?}");
            ub
        };
        let mut thresholds: Vec<f64> = points.iter().take(60).map(ub).collect();
        thresholds.extend([0.0, 1e-300, 0.2, 0.5, 2.0]);
        let mut failing = 0;
        for rsk in thresholds {
            let cut = SpatialCut::new(&ctx, &group, rsk);
            for p in &points {
                let fails = ub(p) < rsk;
                assert_eq!(
                    group.mbr.min_dist_sq_point(p) >= cut.d2,
                    fails,
                    "RSk {rsk}, point {p:?}"
                );
                failing += usize::from(fails);
            }
        }
        assert!(
            failing > 1_000,
            "the thresholds must fail points: {failing}"
        );
    }

    /// The invariant the term runs rest on: an inner node's postings row
    /// for entry `i`, read for every term, names every list child `i`'s
    /// inverted file holds. Checked on MIR-trees of fanout 4 and 32 under
    /// both codecs, as built, after a seeded run of inserts and removes,
    /// and after a refresh.
    #[test]
    fn a_parent_row_names_every_list_of_its_child() {
        use crate::{Engine, ObjectData};
        use storage::CodecId;
        const VOCAB: u64 = 40;
        let all: Vec<TermId> = (0..VOCAB as u32).map(t).collect();
        let check = |tree: &StTree, what: &str| {
            let io = IoStats::new();
            let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
            let (mut child_ns, mut child_ps) = (NodeScratch::default(), PostingsScratch::default());
            let (mut stack, mut entries) = (vec![tree.root()], 0);
            while let Some(id) = stack.pop() {
                let node = tree.read_node_ref(id, &io, &mut ns);
                if node.is_leaf() {
                    continue;
                }
                let rows = tree.read_postings_ref(&node, &all, &io, &mut ps);
                for i in 0..node.len() {
                    let ChildRef::Node(child) = node.child(i) else {
                        unreachable!()
                    };
                    let row: Vec<TermId> = rows.entry(i).iter().map(|&(t, _, _)| t).collect();
                    let child_node = tree.read_node_ref(child, &io, &mut child_ns);
                    let lists = tree.read_postings_ref(&child_node, &all, &io, &mut child_ps);
                    for (term, _, _) in lists.lists() {
                        assert!(
                            row.binary_search(&term).is_ok(),
                            "{what}: node {id:?} entry {i}: child {child:?} holds {term:?}, \
                             its parent row {row:?} does not name it"
                        );
                    }
                    stack.push(child);
                    entries += 1;
                }
            }
            entries
        };
        let mut checked = [0; 3];
        for codec in CodecId::ALL {
            for fanout in [4, 32] {
                let mut next = crate::select::test_fixture::stream(fanout as u64 + 1);
                let mut object = |id: u32| ObjectData {
                    id,
                    point: Point::new(next(1000) as f64 / 10.0, next(1000) as f64 / 10.0),
                    doc: Document::from_terms((0..=next(4)).map(|_| t(next(VOCAB) as u32))),
                };
                let objects: Vec<ObjectData> = (0..1_200).map(&mut object).collect();
                let fresh: Vec<ObjectData> = (5_000..5_300).map(&mut object).collect();
                let users = vec![UserData {
                    id: 0,
                    point: Point::new(50.0, 50.0),
                    doc: Document::from_terms([t(0)]),
                }];
                let mut engine = Engine::build_with_fanout_codec(
                    objects,
                    users,
                    WeightModel::lm(),
                    0.5,
                    fanout,
                    codec,
                );
                let what = format!("{codec:?} fanout {fanout}");
                checked[0] += check(&engine.mir, &format!("{what} fresh"));
                for (i, obj) in fresh.into_iter().enumerate() {
                    assert!(engine.insert_object(obj).is_some());
                    if i % 3 == 0 {
                        assert!(engine.remove_object(4 * i as u32).is_some());
                    }
                }
                checked[1] += check(&engine.mir, &format!("{what} edited"));
                engine.refresh();
                checked[2] += check(&engine.mir, &format!("{what} refreshed"));
            }
        }
        assert!(
            checked.iter().all(|&n| n > 800),
            "coverage: inner entries checked fresh, edited, refreshed: {checked:?}"
        );
    }

    #[test]
    #[should_panic(expected = "MIR-tree")]
    fn rejects_max_only_tree() {
        let (_, objects, users, ctx) = fixture();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxOnly, 4);
        let io = IoStats::new();
        let group = UserGroup::from_users(&users, &ctx.text);
        joint_topk(&tree, &group, 1, &ctx, &io);
    }
}

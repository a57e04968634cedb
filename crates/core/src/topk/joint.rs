//! Algorithm 1: JOINT-TOPK — one MIR-tree traversal for all users.
//!
//! The tree is traversed for the super-user `us` instead of each individual
//! user, ordered by *lower* bound so objects with strong guaranteed scores
//! surface early and tighten the global pruning threshold `RSk(us)` (the
//! k-th best lower bound seen so far). A node or object is pruned as soon
//! as its upper bound w.r.t. `us` falls below `RSk(us)` — by Lemma 2 no
//! user's top-k can then involve anything below it. Every node and
//! inverted file is read at most once, which is the source of the joint
//! method's I/O savings over the per-user baseline.
//!
//! How the traversal bounds first and materialises survivors only is in
//! the [module docs](crate::topk); the paper-literal form it is tested
//! against lives in `topk/reference.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use index::{ChildRef, NodeScratch, PostingMode, PostingsScratch, StTree};
use storage::{IoStats, RecordId};

use crate::bounds::{lb_entry, lb_object, ub_entry, ub_object};
use crate::topk::{Row, TopkOutcome};
use crate::{ScoreContext, UserGroup};

/// Work items on the traversal queue `PQ`: indexes, so a queue slot is 16
/// bytes whatever it stands for. The derived order settles tied lower
/// bounds (an object before a node, the later arrival first).
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
    /// Read this node (and its inverted file).
    Visited(RecordId),
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
    traverse(tree, group, k, ctx, io, |_| {})
}

/// [`joint_topk`] reporting each [`Step`] to `observe`.
pub(crate) fn traverse(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
    mut observe: impl FnMut(Step),
) -> TopkOutcome {
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
    let mut nodes: Vec<(RecordId, f64)> = vec![(tree.root(), f64::INFINITY)];
    // Every object that passed its upper-bound test, in discovery order.
    let mut rows: Vec<Row> = Vec::new();
    let mut weights = Vec::new();
    // LO: min-heap by LB over the rows of the k best lower-bounded objects.
    let mut lo: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut rsk_us = f64::NEG_INFINITY;

    pq.push((ordered(f64::INFINITY), Item::Node(0)));

    while let Some((key, item)) = pq.pop() {
        match item {
            Item::Obj(row) => {
                if lo.len() >= k && rows[row as usize].ub < rsk_us {
                    continue; // pruned (RSk grew since this object was queued)
                }
                lo.push(Reverse((key, row)));
                if lo.len() > k {
                    lo.pop();
                }
                if lo.len() == k {
                    let Reverse((_, kth)) = lo.peek().expect("k > 0");
                    rsk_us = rows[*kth as usize].lb;
                }
                // Whatever is not in LO at the end is an RO candidate;
                // the final RSk(us) decides below.
            }
            Item::Node(n) => {
                let (rec, ub) = nodes[n as usize];
                if lo.len() >= k && ub < rsk_us {
                    continue; // pruned (RSk grew since this node was queued)
                }
                observe(Step::Visited(rec));
                let node = tree.read_node_ref(rec, io, &mut node_scratch);
                let postings = tree.read_postings_ref(&node, &uni, io, &mut postings_scratch);
                let full = lo.len() >= k;
                for i in 0..node.len() {
                    let row = postings.entry(i);
                    match node.child(i) {
                        ChildRef::Object(id) => {
                            // Leaf postings resolve to exact weights. Bound
                            // on them where they stand in the run; only a
                            // survivor keeps its extent.
                            let point = node.point(i);
                            let start = weights.len();
                            weights.extend(
                                row.iter()
                                    .map(|&(t, x, _)| (t, resolver.weight(t, x)))
                                    .filter(|&(_, w)| w > 0.0),
                            );
                            let ub = ub_object(ctx, group, &point, &weights[start..]);
                            if full && ub < rsk_us {
                                weights.truncate(start);
                                continue;
                            }
                            let lb = lb_object(ctx, group, &point, &weights[start..]);
                            rows.push(Row {
                                id,
                                point,
                                lb,
                                ub,
                                weights: (start as u32, (weights.len() - start) as u32),
                            });
                            if full && lb < rsk_us {
                                // Popped, it would enter LO as its minimum
                                // and leave again at once: RSk(us) only
                                // grows.
                                observe(Step::Bypassed);
                                continue;
                            }
                            observe(Step::Queued);
                            pq.push((ordered(lb), Item::Obj(rows.len() as u32 - 1)));
                        }
                        ChildRef::Node(child) => {
                            let rect = node.rect(i);
                            let child_ub = ub_entry(ctx, group, &rect, row);
                            if full && child_ub < rsk_us {
                                continue;
                            }
                            nodes.push((child, child_ub));
                            let child_lb = lb_entry(ctx, group, &rect, row);
                            pq.push((ordered(child_lb), Item::Node(nodes.len() as u32 - 1)));
                        }
                    }
                }
            }
        }
    }

    // Scan order: the LO rows to the front (ascending row index keeps each
    // swap's target behind the rows already placed) ...
    let mut lo: Vec<u32> = lo.into_iter().map(|Reverse((_, row))| row).collect();
    lo.sort_unstable();
    for (at, &row) in lo.iter().enumerate() {
        rows.swap(at, row as usize);
    }
    let lo_len = lo.len();
    // ... then RO: what the final RSk(us) (still −∞ if LO never filled)
    // leaves reachable, descending by UB for Algorithm 2's early break; ids
    // settle ties, so the order does not depend on when an object was
    // discovered.
    let mut at = 0;
    rows.retain(|row| {
        at += 1;
        at <= lo_len || row.ub >= rsk_us
    });
    rows[lo_len..].sort_unstable_by(|a, b| b.ub.total_cmp(&a.ub).then(a.id.cmp(&b.id)));
    TopkOutcome {
        rows,
        lo_len,
        weights,
        rsk_us,
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
                out.rsk_us <= rsk_u + 1e-9,
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
        let io = IoStats::new();
        let group = UserGroup::from_users(&users, &ctx.text);
        joint_topk(&tree, &group, 3, &ctx, &io);
        // The tree has ~30/4 leaves + inner nodes; visiting each once means
        // node visits can never exceed the node count.
        let total_nodes = 8 + 2 + 1 + 1; // generous upper bound for 30 items, fanout 4
        assert!(io.snapshot().node_visits <= total_nodes + 3);
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

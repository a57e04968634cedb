//! The paper-literal Algorithm 1, kept as the reference the production
//! traversal ([`crate::topk::joint`]) is tested against — the way
//! `select/reference.rs` keeps the naive selection kernels.
//!
//! This is the traversal as it ran before the table layout: every
//! retrieved object is weighed into an owned document *before* its
//! upper-bound test, every survivor travels through the queue, and an
//! evicted object is kept in `RO` when its upper bound reaches the
//! `RSk(us)` *of that moment*. Two additions: the log of visited records,
//! and a stated rule for tied lower bounds — the production one, see
//! [`Item`] — where the order used to be whatever `BinaryHeap` made of
//! its contents, which no traversal holding other contents can reproduce.
//!
//! Algorithm 2's reference is here too: [`refine_by_merge`], the
//! refinement as it ran before slot masks, scoring every object by merging
//! its pairs with the user's terms ([`ScoreContext::sts`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use geo::Point;
use index::{ChildRef, NodeScratch, PostingMode, PostingsScratch, StTree};
use storage::{IoStats, RecordId};
use text::{TermId, WeightedDoc};

use crate::bounds::{lb_entry, lb_object, ub_entry, ub_object};
use crate::topk::joint::Item as Arrival;
use crate::{ScoreContext, UserData, UserGroup};

/// `RSk(u)` and the top-k listing (descending by score, ties by id) of
/// Algorithm 2 over `LO` (`(id, point, pairs)`) and `RO` (the same plus
/// `UB(o, us)`, descending by it), every score a document merge.
pub(super) fn refine_by_merge<'a>(
    user: &UserData,
    lo: impl Iterator<Item = (u32, Point, &'a [(TermId, f64)])>,
    ro: impl Iterator<Item = (u32, Point, &'a [(TermId, f64)], f64)>,
    k: usize,
    ctx: &ScoreContext,
) -> (f64, Vec<(u32, f64)>) {
    use crate::topk::ByKey;
    let n_u = ctx.text.normalizer(&user.doc);
    let mut hu: BinaryHeap<Reverse<ByKey<u32>>> = BinaryHeap::new();
    let mut rsk = f64::NEG_INFINITY;
    for (id, point, weights) in lo {
        let key = ctx.sts(&point, weights, user, n_u);
        hu.push(Reverse(ByKey { key, item: id }));
        if hu.len() > k {
            hu.pop();
        }
    }
    if hu.len() == k {
        rsk = hu.peek().unwrap().0.key;
    }
    for (id, point, weights, ub) in ro {
        if hu.len() == k && ub < rsk {
            break;
        }
        let key = ctx.sts(&point, weights, user, n_u);
        if hu.len() < k || key >= rsk {
            hu.push(Reverse(ByKey { key, item: id }));
            if hu.len() > k {
                hu.pop();
            }
            if hu.len() == k {
                rsk = hu.peek().unwrap().0.key;
            }
        }
    }
    let mut topk: Vec<(u32, f64)> = hu.into_iter().map(|r| (r.0.item, r.0.key)).collect();
    topk.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    (rsk, topk)
}

/// A retrieved object owning its weights.
#[derive(Debug, Clone)]
pub(super) struct ScoredObject {
    pub id: u32,
    pub point: Point,
    pub weights: WeightedDoc,
    pub lb: f64,
    pub ub: f64,
}

/// `LO` (any order), `RO` (descending by `UB`, ties in eviction order),
/// `RSk(us)` and the records read, in order.
pub(super) struct Outcome {
    pub lo: Vec<ScoredObject>,
    pub ro: Vec<ScoredObject>,
    pub rsk_us: f64,
    pub visited: Vec<RecordId>,
}

/// Max-heap adapter: by lower bound, ties by arrival (the n-th node or
/// the n-th object queued).
struct ByKey<T> {
    key: f64,
    arrival: Arrival,
    item: T,
}

impl<T> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
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
        self.key
            .total_cmp(&other.key)
            .then(self.arrival.cmp(&other.arrival))
    }
}

/// Work items on the traversal queue `PQ` (keyed by lower bound).
enum Item {
    /// An unexpanded node with its parent-derived upper bound.
    Node { rec: RecordId, ub: f64 },
    /// A retrieved object.
    Obj(ScoredObject),
}

/// Runs the Algorithm-1 traversal with everything through the queue.
pub(super) fn joint_topk(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
) -> Outcome {
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
    let mut pq: BinaryHeap<ByKey<Item>> = BinaryHeap::new();
    // LO: min-heap by LB holding the k best lower-bounded objects.
    let mut lo: BinaryHeap<Reverse<ByKey<ScoredObject>>> = BinaryHeap::new();
    let mut ro: Vec<ScoredObject> = Vec::new();
    let mut rsk_us = f64::NEG_INFINITY;
    let mut visited = Vec::new();
    let (mut nodes_queued, mut objects_queued) = (1, 0);

    pq.push(ByKey {
        key: f64::INFINITY,
        arrival: Arrival::Node(0),
        item: Item::Node {
            rec: tree.root(),
            ub: f64::INFINITY,
        },
    });

    while let Some(ByKey { item, arrival, .. }) = pq.pop() {
        match item {
            Item::Obj(obj) => {
                let entry = |obj: ScoredObject| {
                    Reverse(ByKey {
                        key: obj.lb,
                        arrival,
                        item: obj,
                    })
                };
                if lo.len() < k {
                    lo.push(entry(obj));
                    if lo.len() == k {
                        rsk_us = lo.peek().unwrap().0.key;
                    }
                } else if obj.ub >= rsk_us {
                    lo.push(entry(obj));
                    let evicted = lo.pop().unwrap().0.item;
                    rsk_us = lo.peek().unwrap().0.key;
                    if evicted.ub >= rsk_us {
                        ro.push(evicted);
                    }
                }
                // Otherwise the object is pruned outright: its UB cannot
                // beat the k-th best LB for any user.
            }
            Item::Node { rec, ub } => {
                if lo.len() >= k && ub < rsk_us {
                    continue; // pruned (RSk grew since this node was queued)
                }
                visited.push(rec);
                let node = tree.read_node_ref(rec, io, &mut node_scratch);
                let postings = tree.read_postings_ref(&node, &uni, io, &mut postings_scratch);
                for i in 0..node.len() {
                    let row = postings.entry(i);
                    match node.child(i) {
                        ChildRef::Object(oid) => {
                            let point = node.point(i);
                            let weights = WeightedDoc::from_pairs(
                                row.iter()
                                    .map(|&(t, x, _)| (t, resolver.weight(t, x)))
                                    .collect(),
                            );
                            let sum = weights.entries.iter().map(|&(_, w)| w).sum();
                            let d2 = group.mbr.min_dist_sq_point(&point);
                            let obj_ub = ub_object(ctx, group, d2, sum, row);
                            if lo.len() >= k && obj_ub < rsk_us {
                                continue;
                            }
                            let obj_lb = lb_object(ctx, group, &point, &weights.entries);
                            objects_queued += 1;
                            pq.push(ByKey {
                                key: obj_lb,
                                arrival: Arrival::Obj(objects_queued - 1),
                                item: Item::Obj(ScoredObject {
                                    id: oid,
                                    point,
                                    weights,
                                    lb: obj_lb,
                                    ub: obj_ub,
                                }),
                            });
                        }
                        ChildRef::Node(child) => {
                            let rect = node.rect(i);
                            let child_ub = ub_entry(ctx, group, &rect, row);
                            if lo.len() >= k && child_ub < rsk_us {
                                continue;
                            }
                            let child_lb = lb_entry(ctx, group, &rect, row);
                            nodes_queued += 1;
                            pq.push(ByKey {
                                key: child_lb,
                                arrival: Arrival::Node(nodes_queued - 1),
                                item: Item::Node {
                                    rec: child,
                                    ub: child_ub,
                                },
                            });
                        }
                    }
                }
            }
        }
    }

    // RO must descend by UB for Algorithm 2's early break.
    ro.sort_by(|a, b| b.ub.total_cmp(&a.ub));
    let lo: Vec<ScoredObject> = lo.into_iter().map(|r| r.0.item).collect();
    let rsk_us = if lo.len() == k {
        rsk_us
    } else {
        f64::NEG_INFINITY
    };
    Outcome {
        lo,
        ro,
        rsk_us,
        visited,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::joint::{traverse, Step};
    use crate::user_index::subtree_groups;
    use crate::UserData;
    use geo::{Rect, SpatialContext};
    use index::{IndexedObject, IndexedUser, MiurTree};
    use text::{Document, TermId, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// 120 objects on a 12×10 grid with five rotating terms plus a common
    /// one (under KO every bound ties with its mirror images), and 40
    /// users; with `shared` every user holds the common term, so every
    /// group has a non-empty `dInt`.
    fn fixture(model: WeightModel, shared: bool) -> (ScoreContext, StTree, Vec<UserGroup>) {
        let docs: Vec<Document> = (0..120)
            .map(|i| Document::from_terms([t(i % 5), t(5)]))
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new((i % 12) as f64, (i / 12) as f64),
                doc: text.weigh(d),
            })
            .collect();
        let users: Vec<UserData> = (0..40)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 9) as f64 + 0.5, (i % 4) as f64 + 0.25),
                doc: if shared || i % 2 == 0 {
                    Document::from_terms([t(i % 5), t(5)])
                } else {
                    Document::from_terms([t(i % 5)])
                },
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
        let miur = MiurTree::build_with_fanout(&iu, 4);

        // The super-user, every MIUR subtree summary, every user alone.
        let mut groups = vec![UserGroup::from_users(&users, &text)];
        groups.extend(subtree_groups(&miur));
        groups.extend(
            users
                .iter()
                .map(|u| UserGroup::from_users(std::slice::from_ref(u), &text)),
        );

        let space = Rect::new(Point::new(0.0, 0.0), Point::new(12.0, 10.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let mir = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        (ctx, mir, groups)
    }

    /// What one record-for-record comparison saw, for coverage asserts.
    #[derive(Default)]
    struct Seen {
        runs: usize,
        /// Runs whose traversal bypassed the queue, queued more than `k`
        /// objects, and whose reference `RO` had a tail below the final
        /// `RSk(us)`.
        bypassing: usize,
        queued_past_k: usize,
        tails: usize,
        /// Nodes read, and the union terms their reads asked for.
        visits: usize,
        run_terms: usize,
    }

    /// Holds the production traversal to the paper-literal one, record
    /// for record: the same records read in the same order, the same
    /// simulated I/O, the same `RSk(us)` and `LO`, and exactly the part of
    /// the reference `RO` the final `RSk(us)` leaves reachable.
    fn assert_matches_reference(
        mir: &StTree,
        group: &UserGroup,
        k: usize,
        ctx: &ScoreContext,
        what: &str,
        seen: &mut Seen,
    ) {
        let want_io = IoStats::new();
        let want = joint_topk(mir, group, k, ctx, &want_io);

        let (mut visited, mut queued, mut bypassed) = (Vec::new(), 0, 0);
        let io = IoStats::new();
        let got = traverse(mir, group, k, ctx, &io, None, |step| match step {
            Step::Visited(rec, terms) => {
                visited.push(rec);
                seen.run_terms += terms;
            }
            Step::Queued => queued += 1,
            Step::Bypassed => bypassed += 1,
        })
        .out;

        assert_eq!(visited, want.visited, "{what}: visit order");
        assert_eq!(io.snapshot(), want_io.snapshot(), "{what}: simulated I/O");
        assert_eq!(io.snapshot().node_visits, visited.len() as u64, "{what}");
        assert_eq!(got.rsk_us.to_bits(), want.rsk_us.to_bits(), "{what}");

        let ids = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            ids(got.lo().map(|o| o.id).collect()),
            ids(want.lo.iter().map(|o| o.id).collect()),
            "{what}: LO"
        );

        let mut reachable: Vec<&ScoredObject> =
            want.ro.iter().filter(|o| o.ub >= want.rsk_us).collect();
        reachable.sort_by(|a, b| b.ub.total_cmp(&a.ub).then(a.id.cmp(&b.id)));
        assert_eq!(got.ro().len(), reachable.len(), "{what}: |RO|");
        for (g, w) in got.ro().zip(&reachable) {
            assert_eq!(g.id, w.id, "{what}: RO order");
            assert_eq!(g.point, w.point, "{what}");
            assert_eq!(g.weights, &w.weights.entries[..], "{what}");
            assert_eq!(g.lb.to_bits(), w.lb.to_bits(), "{what}");
            assert_eq!(g.ub.to_bits(), w.ub.to_bits(), "{what}");
        }
        for g in got.lo() {
            let w = want.lo.iter().find(|o| o.id == g.id).unwrap();
            assert_eq!(g.weights, &w.weights.entries[..], "{what}");
            assert_eq!(g.lb.to_bits(), w.lb.to_bits(), "{what}");
        }

        seen.runs += 1;
        seen.bypassing += usize::from(bypassed > 0);
        seen.queued_past_k += usize::from(queued > k);
        seen.tails += usize::from(reachable.len() < want.ro.len());
        seen.visits += visited.len();
    }

    /// The production traversal matches the paper-literal one record for
    /// record (see [`assert_matches_reference`]) under tied (KO, grid) and
    /// untied (LM) bounds, `k = 1`, `k ≥ |O|`, empty and non-empty `dInt`,
    /// single-user groups and every MIUR subtree.
    #[test]
    fn table_traversal_matches_the_paper_literal_one() {
        let (mut seen, mut with_int) = (Seen::default(), 0);
        for model in [WeightModel::KeywordOverlap, WeightModel::lm()] {
            for shared in [true, false] {
                let (ctx, mir, groups) = fixture(model, shared);
                for group in &groups {
                    for k in [1, 3, 7, 200] {
                        let what = format!("{model:?} shared={shared} k={k} group={:?}", group.mbr);
                        assert_matches_reference(&mir, group, k, &ctx, &what, &mut seen);
                        with_int += usize::from(group.d_int.num_terms() > 0);
                    }
                }
            }
        }
        let Seen {
            runs,
            bypassing,
            queued_past_k,
            tails,
            ..
        } = seen;
        assert!(
            runs > 800 && bypassing > 100 && queued_past_k > 100 && tails > 100 && with_int > 100,
            "coverage: {runs} runs, {bypassing} bypassed the queue, {queued_past_k} queued \
             more than k objects, {tails} reference ROs had a tail below the final RSk(us), \
             {with_int} groups shared a keyword"
        );
    }

    /// Nodes `mir` holds (a walk on a throwaway counter).
    fn node_count(mir: &StTree) -> usize {
        let (io, mut scratch, mut stack) =
            (IoStats::new(), NodeScratch::default(), vec![mir.root()]);
        let mut count = 0;
        while let Some(id) = stack.pop() {
            let node = mir.read_node_ref(id, &io, &mut scratch);
            stack.extend((0..node.len()).filter_map(|i| match node.child(i) {
                ChildRef::Node(c) => Some(c),
                ChildRef::Object(_) => None,
            }));
            count += 1;
        }
        count
    }

    /// A node's read asks only for the union terms its parent's row names
    /// (the root's for all of `uni`); the records, the simulated I/O and
    /// every row still match the reference, which reads `uni` everywhere —
    /// at unions of one term and of one, two and three mask words (the
    /// wide fixture, which reads every node), and on the clustered
    /// fixture, whose traversal prunes nodes, under LM, TF-IDF and KO,
    /// both codecs, `k` from 1 past `|O|`. Most reads ask for fewer terms
    /// than `uni` holds.
    #[test]
    fn term_runs_match_the_reference_at_every_union_width() {
        let mut seen = Seen::default();
        let (mut narrowed, mut pruned) = (0, 0);
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for uni in [0, 1, 63, 64, 65, 130] {
                for codec in [storage::CodecId::Verbatim, storage::CodecId::Columnar] {
                    // Width 0 stands for the clustered fixture.
                    let (ctx, mir, _, group) = match uni {
                        0 => clustered_fixture(model, codec),
                        _ => wide_fixture(model, uni, codec, uni as u64),
                    };
                    let (uni, nodes) = (group.d_uni.num_terms(), node_count(&mir));
                    for k in [1, 7, 40, 305] {
                        let what = format!("{model:?} |uni|={uni} {codec:?} k={k}");
                        let (visits, run_terms) = (seen.visits, seen.run_terms);
                        assert_matches_reference(&mir, &group, k, &ctx, &what, &mut seen);
                        let (visits, run_terms) =
                            (seen.visits - visits, seen.run_terms - run_terms);
                        narrowed += usize::from(run_terms < visits * uni);
                        pruned += usize::from(visits < nodes);
                    }
                }
            }
        }
        let Seen {
            runs,
            visits,
            run_terms,
            ..
        } = seen;
        assert!(
            runs == 144 && narrowed >= 96 && 2 * run_terms < visits * 64 && pruned >= 18,
            "coverage: {runs} runs, {narrowed} read fewer terms than uni, {run_terms} terms \
             asked for over {visits} reads, {pruned} read fewer nodes than the tree holds"
        );
    }

    /// The keyword cap, where it bites: groups of users holding `m` ∈
    /// {1, 2, 3} keywords each, together spanning a fixture's union (the
    /// wide fixture's, which reads every node, and the clustered one's,
    /// whose traversal prunes nodes), under LM, TF-IDF and KO and both
    /// codecs. The traversal matches the reference record for record; it
    /// bounds retrieved objects lower than under the uncapped group (Lemma
    /// 2 as the paper states it); and every member's `RSk(u)` and top-k
    /// scores are the uncapped group's, bit for bit.
    #[test]
    fn capped_groups_match_the_reference_and_the_uncapped_answers() {
        use crate::topk::individual::individual_topk;
        let (mut seen, mut capped_rows, mut lowered, mut pruned) = (Seen::default(), 0, 0, 0);
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for codec in storage::CodecId::ALL {
                for clustered in [false, true] {
                    let (ctx, mir, users, group) = if clustered {
                        clustered_fixture(model, codec)
                    } else {
                        wide_fixture(model, 65, codec, 9)
                    };
                    // The terms objects hold: the wide fixture's ghosts
                    // would leave `n_min` 0.
                    let uni = group.uni_terms();
                    let held = if clustered { &uni[..] } else { &uni[..63] };
                    let nodes = node_count(&mir);
                    for m in 1..=3 {
                        let members: Vec<UserData> = (0..held.len())
                            .map(|i| UserData {
                                id: i as u32,
                                point: users[i % users.len()].point,
                                doc: Document::from_terms((i..i + m).map(|j| held[j % held.len()])),
                            })
                            .collect();
                        let capped = UserGroup::from_users(&members, &ctx.text);
                        assert_eq!(
                            (capped.max_terms, capped.d_uni.num_terms()),
                            (m, held.len())
                        );
                        let open = UserGroup {
                            max_terms: usize::MAX,
                            ..capped.clone()
                        };
                        for k in [1, 7, 40] {
                            let what = format!("{model:?} {codec:?} {clustered} m={m} k={k}");
                            let visits = seen.visits;
                            assert_matches_reference(&mir, &capped, k, &ctx, &what, &mut seen);
                            pruned += usize::from(seen.visits - visits < nodes);
                            let io = IoStats::new();
                            let got = crate::topk::joint::joint_topk(&mir, &capped, k, &ctx, &io);
                            let want = crate::topk::joint::joint_topk(&mir, &open, k, &ctx, &io);
                            capped_rows += got
                                .lo()
                                .chain(got.ro())
                                .filter(|o| o.weights.len() > m)
                                .count();
                            let open_ub: std::collections::HashMap<u32, f64> =
                                want.lo().chain(want.ro()).map(|o| (o.id, o.ub)).collect();
                            lowered += got
                                .lo()
                                .chain(got.ro())
                                .filter(|o| open_ub.get(&o.id).is_some_and(|&ub| o.ub < ub))
                                .count();
                            let answers = |out| {
                                individual_topk(&members, out, k, &ctx)
                                    .iter()
                                    .map(|t| {
                                        let scores = t.topk.iter().map(|&(_, s)| s.to_bits());
                                        (t.rsk.to_bits(), scores.collect::<Vec<_>>())
                                    })
                                    .collect::<Vec<_>>()
                            };
                            assert_eq!(answers(&got), answers(&want), "{what}");
                        }
                    }
                }
            }
        }
        assert!(
            seen.runs == 108 && capped_rows > 1_000 && lowered > 1_000 && pruned >= 27,
            "coverage: {} runs, {capped_rows} retrieved rows above the cap, {lowered} \
             bounded lower than uncapped, {pruned} read fewer nodes than the tree holds",
            seen.runs
        );
    }

    /// The fused entry against the paper-literal traversal plus the
    /// document-merge refinement. With no checkpoint taken its outcome is
    /// the reference's record for record — `RSk(us)`, `LO`, the reachable
    /// `RO` and the simulated I/O. With the checkpoint forced after every
    /// node count, every `RSk(u)` and every listing score over its outcome
    /// is the reference's, bit for bit, and it never reads more — under
    /// LM, TF-IDF and KO and both codecs, on a fixture where checkpoints
    /// save node reads.
    #[test]
    fn forced_checkpoints_match_the_reference_at_every_visit() {
        use crate::topk::individual::{individual_topk, joint_rsk_at};
        let (mut runs, mut lifted, mut saved) = (0, 0, 0);
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for codec in storage::CodecId::ALL {
                let (ctx, mir, users, group) = clustered_fixture(model, codec);
                // The codec moves only the I/O: one k on Columnar.
                let ks = if codec == storage::CodecId::Columnar {
                    &[5][..]
                } else {
                    &[1, 5, 20]
                };
                for &k in ks {
                    let want_io = IoStats::new();
                    let want = joint_topk(&mir, &group, k, &ctx, &want_io);
                    let want_io = want_io.snapshot();
                    let merged: Vec<(u64, Vec<u64>)> = users
                        .iter()
                        .map(|u| {
                            let (rsk, topk) = refine_by_merge(
                                u,
                                want.lo
                                    .iter()
                                    .map(|o| (o.id, o.point, &o.weights.entries[..])),
                                want.ro
                                    .iter()
                                    .map(|o| (o.id, o.point, &o.weights.entries[..], o.ub)),
                                k,
                                &ctx,
                            );
                            (rsk.to_bits(), topk.iter().map(|s| s.1.to_bits()).collect())
                        })
                        .collect();
                    for at in (0..=want.visited.len()).chain([usize::MAX]) {
                        let what = format!("{model:?} {codec:?} k={k} checkpoint at {at}");
                        let io = IoStats::new();
                        let (got, rsk) =
                            joint_rsk_at(&mir, &group, k, &ctx, &io, at, |f| f(0, &users));
                        let listed = individual_topk(&users, &got, k, &ctx);
                        for ((want, rsk), listed) in merged.iter().zip(&rsk).zip(&listed) {
                            assert_eq!(rsk.to_bits(), want.0, "{what}");
                            let scores: Vec<u64> =
                                listed.topk.iter().map(|s| s.1.to_bits()).collect();
                            assert_eq!((listed.rsk.to_bits(), scores), *want, "{what}");
                        }
                        let io = io.snapshot();
                        assert!(io.node_visits <= want_io.node_visits, "{what}");
                        if at < want.visited.len() {
                            runs += 1;
                            lifted += usize::from(got.ro().len() < want.ro.len());
                            saved += usize::from(io.node_visits < want_io.node_visits);
                            continue;
                        }
                        // No checkpoint taken: the paper's outcome.
                        assert_eq!(io, want_io, "{what}: simulated I/O");
                        assert_eq!(got.rsk_us.to_bits(), want.rsk_us.to_bits(), "{what}");
                        let sorted = |mut ids: Vec<u32>| {
                            ids.sort_unstable();
                            ids
                        };
                        assert_eq!(
                            sorted(got.lo().map(|o| o.id).collect()),
                            sorted(want.lo.iter().map(|o| o.id).collect()),
                            "{what}: LO"
                        );
                        let mut reachable: Vec<&ScoredObject> =
                            want.ro.iter().filter(|o| o.ub >= want.rsk_us).collect();
                        reachable.sort_by(|a, b| b.ub.total_cmp(&a.ub).then(a.id.cmp(&b.id)));
                        let row = |id, lb: f64, ub: f64| (id, lb.to_bits(), ub.to_bits());
                        assert!(
                            got.ro()
                                .map(|o| row(o.id, o.lb, o.ub))
                                .eq(reachable.iter().map(|o| row(o.id, o.lb, o.ub))),
                            "{what}: RO"
                        );
                    }
                }
            }
        }
        assert!(
            runs > 1_000 && lifted > runs / 2 && saved > runs / 4,
            "coverage: {runs} checkpoints, {lifted} cut RO, {saved} read fewer nodes"
        );
    }

    /// 300 objects of one to three of 30 terms over a 100×100 space, and
    /// 24 users of one or two of the first 8 terms clustered in a 10×10
    /// square at its centre: the traversal prunes, and a checkpoint lifts
    /// its threshold enough to prune more.
    fn clustered_fixture(
        model: WeightModel,
        codec: storage::CodecId,
    ) -> (ScoreContext, StTree, Vec<UserData>, UserGroup) {
        let mut next = crate::select::test_fixture::stream(610);
        let docs: Vec<Document> = (0..300)
            .map(|_| {
                Document::from_pairs(
                    (0..=next(2)).map(|_| (t(next(30) as u32), 1 + next(3) as u32)),
                )
            })
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new(next(1000) as f64 / 10.0, next(1000) as f64 / 10.0),
                doc: text.weigh(d),
            })
            .collect();
        let users: Vec<UserData> = (0..24)
            .map(|id| UserData {
                id,
                point: Point::new(
                    45.0 + next(100) as f64 / 10.0,
                    45.0 + next(100) as f64 / 10.0,
                ),
                doc: Document::from_terms((0..=next(1)).map(|_| t(next(8) as u32))),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let mir = StTree::build_with_fanout_codec(&objects, PostingMode::MaxMin, 4, codec);
        let group = UserGroup::from_users(&users, &ctx.text);
        (ctx, mir, users, group)
    }

    /// Objects, users and the super-user for a union of exactly `uni`
    /// terms: `uni − 2` even terms the corpus holds, and two "ghost" terms
    /// no object holds (no ghost below three terms). Objects draw even and odd terms alike (an object
    /// of odd terms only holds no union term); users share the even terms
    /// round-robin, so every slot — the last word's included — has a
    /// holder, and the last two users hold a ghost term alone.
    fn wide_fixture(
        model: WeightModel,
        uni: usize,
        codec: storage::CodecId,
        seed: u64,
    ) -> (ScoreContext, StTree, Vec<UserData>, UserGroup) {
        let mut next = crate::select::test_fixture::stream(seed);
        let n_ghosts = if uni > 2 { 2 } else { 0 };
        let held = (uni - n_ghosts) as u32;
        let docs: Vec<Document> = (0..300)
            .map(|i| {
                let n = next(4);
                let odd_only = i % 10 == 0;
                Document::from_pairs((0..=n).map(|_| {
                    let term = next(u64::from(held)) as u32 * 2 + u32::from(odd_only);
                    (t(term), 1 + next(3) as u32)
                }))
            })
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new(next(1000) as f64 / 10.0, next(1000) as f64 / 10.0),
                doc: text.weigh(d),
            })
            .collect();
        let ghosts = [t(100_000), t(100_001)];
        let n_users = 32u32;
        let users: Vec<UserData> = (0..n_users)
            .map(|id| UserData {
                id,
                point: Point::new(
                    40.0 + next(200) as f64 / 10.0,
                    30.0 + next(200) as f64 / 10.0,
                ),
                doc: if id >= n_users - n_ghosts as u32 {
                    Document::from_terms([ghosts[(id % 2) as usize]])
                } else {
                    let extra = t(next(u64::from(held)) as u32 * 2);
                    Document::from_terms(
                        (id..held)
                            .step_by(n_users as usize - 2)
                            .map(|s| t(2 * s))
                            .chain([extra]),
                    )
                },
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let ctx = ScoreContext::new(0.4, SpatialContext::from_dataspace(&space), text);
        let mir = StTree::build_with_fanout_codec(&objects, PostingMode::MaxMin, 8, codec);
        let group = UserGroup::from_users(&users, &ctx.text);
        assert_eq!(group.d_uni.num_terms(), uni);
        (ctx, mir, users, group)
    }

    /// Algorithms 1 + 2 on slot masks of one, two and three words equal
    /// the paper-literal traversal and the document-merge refinement, bit
    /// for bit: `RSk(us)`, `LO`, every `RSk(u)` (listing and fused
    /// paths) and every listing — under LM, TF-IDF and KO, both codecs,
    /// `k` from 1 past `|O|`, with users whose keywords no object holds and
    /// objects that hold no union term.
    #[test]
    fn slot_masks_match_the_merge_reference_past_one_word() {
        use crate::topk::individual::{individual_topk, joint_rsk};
        let (mut runs, mut unmatched_users, mut bare_rows) = (0, 0, 0);
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for uni in [63, 64, 65, 130] {
                for codec in [storage::CodecId::Verbatim, storage::CodecId::Columnar] {
                    let (ctx, mir, users, group) = wide_fixture(model, uni, codec, uni as u64);
                    for k in [1, 7, 40, 305] {
                        let what = format!("{model:?} |uni|={uni} {codec:?} k={k}");
                        let io = IoStats::new();
                        let got = crate::topk::joint::joint_topk(&mir, &group, k, &ctx, &io);
                        let want = joint_topk(&mir, &group, k, &ctx, &io);
                        assert_eq!(got.rsk_us.to_bits(), want.rsk_us.to_bits(), "{what}");
                        assert_eq!(got.table().words(), uni.div_ceil(64), "{what}");
                        bare_rows += got
                            .lo()
                            .chain(got.ro())
                            .filter(|o| o.weights.is_empty())
                            .count();

                        let listed = individual_topk(&users, &got, k, &ctx);
                        let (_, rsk) = joint_rsk(&mir, &group, k, &ctx, &io, |f| f(0, &users));
                        for ((u, listed), rsk) in users.iter().zip(&listed).zip(&rsk) {
                            let (merged_rsk, merged) = refine_by_merge(
                                u,
                                got.lo().map(|o| (o.id, o.point, o.weights)),
                                got.ro().map(|o| (o.id, o.point, o.weights, o.ub)),
                                k,
                                &ctx,
                            );
                            let bits = |v: &[(u32, f64)]| {
                                v.iter()
                                    .map(|&(id, s)| (id, s.to_bits()))
                                    .collect::<Vec<_>>()
                            };
                            assert_eq!(listed.rsk.to_bits(), merged_rsk.to_bits(), "{what}");
                            assert_eq!(rsk.to_bits(), merged_rsk.to_bits(), "{what}");
                            assert_eq!(bits(&listed.topk), bits(&merged), "{what}");

                            // Over the reference outcome: the same threshold
                            // and scores (tied ids may differ: its RO breaks
                            // UB ties by eviction order).
                            let (ref_rsk, ref_topk) = refine_by_merge(
                                u,
                                want.lo
                                    .iter()
                                    .map(|o| (o.id, o.point, &o.weights.entries[..])),
                                want.ro
                                    .iter()
                                    .map(|o| (o.id, o.point, &o.weights.entries[..], o.ub)),
                                k,
                                &ctx,
                            );
                            assert_eq!(ref_rsk.to_bits(), merged_rsk.to_bits(), "{what}");
                            let scores = |v: &[(u32, f64)]| {
                                v.iter().map(|&(_, s)| s.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(scores(&ref_topk), scores(&merged), "{what}");
                            unmatched_users += usize::from(ctx.text.normalizer(&u.doc) == 0.0);
                        }
                        runs += 1;
                    }
                }
            }
        }
        assert!(
            runs == 96 && unmatched_users > 0 && bare_rows > 0,
            "coverage: {runs} runs, {unmatched_users} users with N(u) = 0, {bare_rows} rows \
             without a union term"
        );
    }
}

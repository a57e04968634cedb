//! §4 baseline: independent per-user top-k on the IR-tree.
//!
//! This is the classic best-first top-k spatial keyword search of Cong et
//! al. (the paper's ref. 3): a priority queue ordered by upper-bound score,
//! node upper bounds from the IR-tree's per-term *maximum* weights, exact
//! scores at the leaves. Each user traverses the tree from scratch, so the
//! same nodes and inverted files are fetched over and over across users —
//! the I/O redundancy the joint algorithm (§5) eliminates.

use std::collections::BinaryHeap;

use index::{ChildRef, NodeScratch, PostingsScratch, StTree};
use storage::{IoStats, RecordId};
use text::TermId;

use crate::topk::{ByKey, UserTopk};
use crate::{ScoreContext, UserData};

enum Item {
    Node(RecordId),
    Obj(u32),
}

/// Reusable traversal state for the per-user searches: the priority queue,
/// the user's term list, and the zero-copy node/postings decode scratch.
/// Hoisted across the user loop so repeated searches reuse one set of
/// buffers instead of building new heaps per user.
#[derive(Default)]
struct BaselineTopkScratch {
    pq: BinaryHeap<ByKey<Item>>,
    terms: Vec<TermId>,
    node: NodeScratch,
    postings: PostingsScratch,
}

/// Computes one user's exact top-k by best-first IR-tree search.
///
/// Works on either posting mode (only maxima are consulted).
///
/// # Panics
/// Panics when `k == 0`.
pub fn user_topk_baseline(
    tree: &StTree,
    user: &UserData,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
) -> UserTopk {
    user_topk_baseline_with(tree, user, k, ctx, io, &mut BaselineTopkScratch::default())
}

fn user_topk_baseline_with(
    tree: &StTree,
    user: &UserData,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
    scratch: &mut BaselineTopkScratch,
) -> UserTopk {
    assert!(k > 0, "k must be positive");
    let BaselineTopkScratch {
        pq,
        terms,
        node: node_scratch,
        postings: postings_scratch,
    } = scratch;
    terms.clear();
    terms.extend(user.doc.terms());
    let n_u = ctx.text.normalizer(&user.doc);
    let resolver = ctx.text.weights();

    pq.clear();
    pq.push(ByKey {
        key: f64::INFINITY,
        item: Item::Node(tree.root()),
    });

    // A capacity hint only: `k` comes off the wire, the tree bounds it.
    let mut topk: Vec<(u32, f64)> = Vec::with_capacity(k.min(tree.num_objects()));
    while let Some(ByKey { key, item }) = pq.pop() {
        match item {
            Item::Obj(oid) => {
                // Exact score dominates every remaining upper bound, so
                // this object is the next best.
                topk.push((oid, key));
                if topk.len() == k {
                    break;
                }
            }
            Item::Node(rec) => {
                let node = tree.read_node_ref(rec, io, node_scratch);
                let postings = tree.read_postings_ref(&node, terms, io, postings_scratch);
                for i in 0..node.len() {
                    let sum_max: f64 = postings
                        .entry(i)
                        .iter()
                        .map(|&(t, mx, _)| resolver.weight(t, mx))
                        .sum();
                    let ts_ub = if n_u > 0.0 {
                        (sum_max / n_u).min(1.0)
                    } else {
                        0.0
                    };
                    match node.child(i) {
                        ChildRef::Object(oid) => {
                            // Leaf postings are exact weights → exact STS.
                            let ss = ctx.spatial.ss_points(&node.point(i), &user.point);
                            pq.push(ByKey {
                                key: ctx.combine(ss, ts_ub),
                                item: Item::Obj(oid),
                            });
                        }
                        ChildRef::Node(child) => {
                            let ss = ctx
                                .spatial
                                .proximity(node.rect(i).min_dist_point(&user.point));
                            pq.push(ByKey {
                                key: ctx.combine(ss, ts_ub),
                                item: Item::Node(child),
                            });
                        }
                    }
                }
            }
        }
    }

    let rsk = if topk.len() == k {
        topk[k - 1].1
    } else {
        f64::NEG_INFINITY
    };
    UserTopk {
        user: user.id,
        topk,
        rsk,
    }
}

/// The full §4 baseline: every user independently (shared scratch — the
/// queue and decode buffers warm up on the first user and are reused).
pub fn all_users_topk_baseline(
    tree: &StTree,
    users: &[UserData],
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
) -> Vec<UserTopk> {
    let mut scratch = BaselineTopkScratch::default();
    users
        .iter()
        .map(|u| user_topk_baseline_with(tree, u, k, ctx, io, &mut scratch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::{Point, Rect, SpatialContext};
    use index::{IndexedObject, PostingMode};
    use text::{Document, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    struct Fix {
        objects: Vec<IndexedObject>,
        users: Vec<UserData>,
        ctx: ScoreContext,
    }

    fn fixture(model: WeightModel) -> Fix {
        let docs: Vec<Document> = (0..35)
            .map(|i| Document::from_pairs([(t(i % 5), 1 + i % 3), (t(5), 1)]))
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new((i % 7) as f64, (i / 7) as f64),
                doc: text.weigh(d),
            })
            .collect();
        let users = (0..4)
            .map(|i| UserData {
                id: i,
                point: Point::new(3.0, 1.0 + i as f64),
                doc: Document::from_terms([t(i % 5), t(5)]),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(7.0, 5.0));
        let ctx = ScoreContext::new(0.4, SpatialContext::from_dataspace(&space), text);
        Fix {
            objects,
            users,
            ctx,
        }
    }

    fn brute(fix: &Fix, user: &UserData, k: usize) -> Vec<(u32, f64)> {
        let ctx = &fix.ctx;
        let mut all: Vec<(u32, f64)> = fix
            .objects
            .iter()
            .map(|o| {
                let ss = ctx.spatial.ss_points(&o.point, &user.point);
                (
                    o.id,
                    ctx.combine(ss, ctx.text.ts_weighted(&o.doc, &user.doc)),
                )
            })
            .collect();
        all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn baseline_matches_brute_force_on_ir_and_mir() {
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            let fix = fixture(model);
            for mode in [PostingMode::MaxOnly, PostingMode::MaxMin] {
                let tree = StTree::build_with_fanout(&fix.objects, mode, 4);
                let io = IoStats::new();
                for u in &fix.users {
                    for k in [1, 3, 7] {
                        let got = user_topk_baseline(&tree, u, k, &fix.ctx, &io);
                        let want = brute(&fix, u, k);
                        assert_eq!(got.topk.len(), k);
                        for ((_, gs), (_, ws)) in got.topk.iter().zip(&want) {
                            assert_eq!(
                                gs.to_bits(),
                                ws.to_bits(),
                                "{model:?} {mode:?} k={k} user {}",
                                u.id
                            );
                        }
                        assert_eq!(got.rsk.to_bits(), want[k - 1].1.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_users_multiply_io() {
        let fix = fixture(WeightModel::lm());
        let tree = StTree::build_with_fanout(&fix.objects, PostingMode::MaxOnly, 4);
        let io = IoStats::new();
        user_topk_baseline(&tree, &fix.users[0], 3, &fix.ctx, &io);
        let one = io.total();
        user_topk_baseline(&tree, &fix.users[0], 3, &fix.ctx, &io);
        // Cold repetition costs the same again — no cache in the substrate.
        assert_eq!(io.total(), 2 * one);
    }

    #[test]
    fn fewer_objects_than_k_returns_all() {
        let fix = fixture(WeightModel::lm());
        let small = &fix.objects[..2];
        let tree = StTree::build_with_fanout(small, PostingMode::MaxOnly, 4);
        let io = IoStats::new();
        let got = user_topk_baseline(&tree, &fix.users[0], 6, &fix.ctx, &io);
        assert_eq!(got.topk.len(), 2);
        assert_eq!(got.rsk, f64::NEG_INFINITY);
    }
}

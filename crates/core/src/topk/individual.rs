//! Algorithm 2: INDIVIDUAL-TOPK — per-user top-k from `LO` and `RO`.
//!
//! After the joint traversal, `LO ∪ RO` is guaranteed to contain every
//! user's top-k objects (see the proof sketch in [`crate::topk::joint`]).
//! Each user first scores the k objects of `LO` exactly, establishing
//! `RSk(u)`; the remaining candidates in `RO` are then scanned in
//! descending `UB(o, us)` order, stopping as soon as the upper bound drops
//! below the user's own threshold — objects after that point cannot enter
//! the user's top-k.
//!
//! Scoring runs on slot masks, not document merges: the outcome numbers
//! the terms of `us.dUni` in ascending order and marks each row's terms in
//! a mask (`TopkOutcome::masks`); each user gets a mask over the same
//! slots once, and a row's text score is the sum of its weights at the
//! slots both masks set, in ascending slot order — the order a merge of
//! the two term lists adds them in, so every `RSk(u)` keeps its bits. The
//! merge survives as the test reference in `topk/reference.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::topk::{ByKey, TopkOutcome, UserTopk};
use crate::{ScoreContext, UserData};

/// The refinement kernel shared by the top-k listing, the `RSk`-only path
/// and the §7 pipeline's user materialisation: fills `hu` (min-heap by
/// score, best k kept) and returns `RSk(u)`. The heap and the user's slot
/// mask are cleared first, so pooled ones can be reused across users
/// without reallocating.
///
/// # Panics
/// Panics when `k == 0`.
pub(crate) fn refine_user_heap(
    user: &UserData,
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
    hu: &mut BinaryHeap<Reverse<ByKey<u32>>>,
    mask: &mut Vec<u64>,
) -> f64 {
    assert!(k > 0, "k must be positive");
    let n_u = ctx.text.normalizer(&user.doc);
    out.slot_mask(&user.doc, mask);
    let mask: &[u64] = mask;
    // `ScoreContext::sts` with the merge replaced by the masked sum (a
    // zero sum divides to the same +0 the skipped division would give).
    let sts = |r: usize| {
        let ss = ctx.spatial.ss_points(&out.rows[r].point, &user.point);
        let sum = out.masked_sum(r, mask);
        let ts = if n_u > 0.0 && sum != 0.0 {
            sum / n_u
        } else {
            0.0
        };
        ctx.combine(ss, ts)
    };
    // Rows are scored a block at a time, before the heap sees any of them:
    // the scores do not depend on each other, so they overlap in the
    // pipeline instead of waiting on the heap's branches. A block past the
    // early break is wasted work, never a different answer.
    let score = |from: usize, to: usize| {
        let mut scores = [0.0; BLOCK];
        for (s, r) in scores.iter_mut().zip(from..to) {
            *s = sts(r);
        }
        scores
    };
    hu.clear();
    let mut rsk = f64::NEG_INFINITY;

    for from in (0..out.lo_len).step_by(BLOCK) {
        let to = (from + BLOCK).min(out.lo_len);
        for (r, s) in (from..to).zip(score(from, to)) {
            hu.push(Reverse(ByKey {
                key: s,
                item: out.rows[r].id,
            }));
            if hu.len() > k {
                hu.pop();
            }
        }
    }
    if hu.len() == k {
        rsk = hu.peek().unwrap().0.key;
    }

    'scan: for from in (out.lo_len..out.rows.len()).step_by(BLOCK) {
        if hu.len() == k && out.rows[from].ub < rsk {
            break;
        }
        let to = (from + BLOCK).min(out.rows.len());
        for (r, s) in (from..to).zip(score(from, to)) {
            let row = &out.rows[r];
            if hu.len() == k && row.ub < rsk {
                break 'scan; // RO descends by UB: nothing further can qualify.
            }
            if hu.len() < k || s >= rsk {
                hu.push(Reverse(ByKey {
                    key: s,
                    item: row.id,
                }));
                if hu.len() > k {
                    hu.pop();
                }
                if hu.len() == k {
                    rsk = hu.peek().unwrap().0.key;
                }
            }
        }
    }
    rsk
}

/// Rows scored per step of [`refine_user_heap`].
const BLOCK: usize = 8;

/// The top-k listing of a single user, through a pooled heap and mask.
fn individual_topk_user_with(
    user: &UserData,
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
    hu: &mut BinaryHeap<Reverse<ByKey<u32>>>,
    mask: &mut Vec<u64>,
) -> UserTopk {
    let rsk = refine_user_heap(user, out, k, ctx, hu, mask);
    let mut topk: Vec<(u32, f64)> = hu.drain().map(|r| (r.0.item, r.0.key)).collect();
    topk.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    UserTopk {
        user: user.id,
        topk,
        rsk,
    }
}

/// Algorithm 2 over all users (one pooled heap and mask across the user
/// loop).
pub fn individual_topk(
    users: &[UserData],
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
) -> Vec<UserTopk> {
    let (mut hu, mut mask) = (BinaryHeap::new(), Vec::new());
    users
        .iter()
        .map(|u| individual_topk_user_with(u, out, k, ctx, &mut hu, &mut mask))
        .collect()
}

/// `RSk(u)` of every user, in order — Algorithm 2 without the listings,
/// which is all the selection phase reads of it.
pub(crate) fn individual_rsk(
    users: &[UserData],
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
) -> Vec<f64> {
    let (mut hu, mut mask) = (BinaryHeap::new(), Vec::new());
    users
        .iter()
        .map(|u| refine_user_heap(u, out, k, ctx, &mut hu, &mut mask))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::joint::joint_topk;
    use crate::UserGroup;
    use geo::{Point, Rect, SpatialContext};
    use index::{IndexedObject, PostingMode, StTree};
    use storage::IoStats;
    use text::{Document, TermId, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    struct Fix {
        objects: Vec<IndexedObject>,
        users: Vec<UserData>,
        ctx: ScoreContext,
        tree: StTree,
    }

    fn fixture(model: WeightModel, alpha: f64) -> Fix {
        let docs: Vec<Document> = (0..40)
            .map(|i| Document::from_pairs([(t(i % 4), 1 + i % 2), (t(4), 1), (t(5 + i % 2), 2)]))
            .collect();
        let text = TextScorer::build(model, &docs);
        let objects: Vec<IndexedObject> = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new((i % 8) as f64, (i / 8) as f64),
                doc: text.weigh(d),
            })
            .collect();
        let users: Vec<UserData> = (0..6)
            .map(|i| UserData {
                id: i,
                point: Point::new(1.0 + (i as f64), 2.5),
                doc: Document::from_terms([t(i % 4), t(4)]),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(8.0, 5.0));
        let ctx = ScoreContext::new(alpha, SpatialContext::from_dataspace(&space), text);
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        Fix {
            objects,
            users,
            ctx,
            tree,
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

    /// End-to-end Algorithm 1 + 2 equals brute force for every model, α, k.
    #[test]
    fn joint_plus_individual_matches_brute_force() {
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for alpha in [0.1, 0.5, 0.9] {
                let fix = fixture(model, alpha);
                let io = IoStats::new();
                let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
                for k in [1, 2, 5] {
                    let out = joint_topk(&fix.tree, &group, k, &fix.ctx, &io);
                    let results = individual_topk(&fix.users, &out, k, &fix.ctx);
                    for (u, res) in fix.users.iter().zip(&results) {
                        let want = brute(&fix, u, k);
                        let got_scores: Vec<f64> = res.topk.iter().map(|&(_, s)| s).collect();
                        let want_scores: Vec<f64> = want.iter().map(|&(_, s)| s).collect();
                        for (g, w) in got_scores.iter().zip(&want_scores) {
                            assert!(
                                (g - w).abs() < 1e-9,
                                "{model:?} α={alpha} k={k} user {}: scores {got_scores:?} vs {want_scores:?}",
                                u.id
                            );
                        }
                        assert!(
                            (res.rsk - want.last().unwrap().1).abs() < 1e-9,
                            "RSk mismatch for user {}",
                            u.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn topk_is_sorted_descending() {
        let fix = fixture(WeightModel::lm(), 0.5);
        let io = IoStats::new();
        let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
        let out = joint_topk(&fix.tree, &group, 4, &fix.ctx, &io);
        for res in individual_topk(&fix.users, &out, 4, &fix.ctx) {
            assert!(res.topk.windows(2).all(|w| w[0].1 >= w[1].1));
            assert_eq!(res.topk.len(), 4);
        }
    }

    #[test]
    fn rsk_only_refinement_equals_the_listings() {
        let fix = fixture(WeightModel::lm(), 0.5);
        let io = IoStats::new();
        let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
        for k in [1, 4, 50] {
            let out = joint_topk(&fix.tree, &group, k, &fix.ctx, &io);
            let listed: Vec<u64> = individual_topk(&fix.users, &out, k, &fix.ctx)
                .iter()
                .map(|t| t.rsk.to_bits())
                .collect();
            let rsk: Vec<u64> = individual_rsk(&fix.users, &out, k, &fix.ctx)
                .iter()
                .map(|r| r.to_bits())
                .collect();
            assert_eq!(rsk, listed, "k={k}");
        }
    }

    #[test]
    fn fewer_objects_than_k() {
        let fix = fixture(WeightModel::lm(), 0.5);
        let small: Vec<IndexedObject> = fix.objects[..2].to_vec();
        let tree = StTree::build_with_fanout(&small, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
        let out = joint_topk(&tree, &group, 5, &fix.ctx, &io);
        let res = individual_topk(&fix.users, &out, 5, &fix.ctx);
        for r in res {
            assert_eq!(r.topk.len(), 2);
            assert_eq!(r.rsk, f64::NEG_INFINITY);
        }
    }
}

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
//! [`individual_topk`] runs it after [`crate::topk::joint::joint_topk`],
//! as the paper does. The engine's fill, `joint_rsk`, runs it in two
//! parts around one checkpoint inside the traversal — the rows retrieved
//! by then, and after the traversal the rows retrieved since — and
//! prunes the rest of the traversal at the lowest `RSk(u)` seen at the
//! checkpoint (the `topk` module docs' *One exact checkpoint*).
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
use std::ops::Range;

use index::StTree;
use storage::IoStats;

use crate::topk::joint::{traverse, Checkpoint, Traversal};
use crate::topk::{ByKey, Table, TopkOutcome, UserTopk};
use crate::{ScoreContext, UserData, UserGroup};

/// The `k` best scores a refinement keeps (by [`f64::total_cmp`]).
pub(crate) trait Kept {
    /// The k-th best score kept: −∞ while fewer than `k` are.
    fn kth(&self, k: usize) -> f64;
    /// Offers object `id`'s `score`; the lowest of `k + 1` is dropped.
    fn offer(&mut self, k: usize, score: f64, id: u32);
}

/// Algorithm 2's heap, for the listings.
impl Kept for BinaryHeap<Reverse<ByKey<u32>>> {
    fn kth(&self, k: usize) -> f64 {
        match self.peek() {
            Some(kth) if self.len() == k => kth.0.key,
            _ => f64::NEG_INFINITY,
        }
    }

    fn offer(&mut self, k: usize, score: f64, id: u32) {
        self.push(Reverse(ByKey {
            key: score,
            item: id,
        }));
        if self.len() > k {
            self.pop();
        }
    }
}

/// Scores alone, as a min-heap of exactly `k` slots that starts all −∞ —
/// one user's run of a flat block. A −∞ slot is a score not yet kept: it
/// is the minimum until `k` real scores push it out, so [`Kept::kth`]
/// reads the same as the heap's.
impl Kept for [f64] {
    fn kth(&self, _: usize) -> f64 {
        self[0]
    }

    fn offer(&mut self, _: usize, score: f64, _: u32) {
        if score.total_cmp(&self[0]).is_le() {
            return;
        }
        // Replace the minimum and sift it down.
        let (n, mut i) = (self.len(), 0);
        self[0] = score;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut min = i;
            if l < n && self[l].total_cmp(&self[min]).is_lt() {
                min = l;
            }
            if r < n && self[r].total_cmp(&self[min]).is_lt() {
                min = r;
            }
            if min == i {
                return;
            }
            self.swap(i, min);
            i = min;
        }
    }
}

/// Row indexes into a [`Table`], in the order a refinement scans them.
pub(crate) trait Order {
    fn rows(&self) -> usize;
    fn row(&self, i: usize) -> usize;
}

impl Order for Range<usize> {
    fn rows(&self) -> usize {
        self.len()
    }
    #[inline]
    fn row(&self, i: usize) -> usize {
        self.start + i
    }
}

impl Order for &[u32] {
    fn rows(&self) -> usize {
        self.len()
    }
    #[inline]
    fn row(&self, i: usize) -> usize {
        self[i] as usize
    }
}

/// The refinement kernel: scores `user` against the rows of `first` in
/// full, then against those of `rest` — descending by `UB(o, us)` — up to
/// the first whose upper bound is below the k-th kept score, offering each
/// score to `kept`, whose k-th score it returns. `kept` may already hold
/// scores; a row must not be offered twice. `mask` is scratch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine(
    table: Table<'_>,
    user: &UserData,
    k: usize,
    ctx: &ScoreContext,
    kept: &mut (impl Kept + ?Sized),
    mask: &mut Vec<u64>,
    first: impl Order,
    rest: impl Order,
) -> f64 {
    let n_u = ctx.text.normalizer(&user.doc);
    table.slot_mask(&user.doc, mask);
    let mask: &[u64] = mask;
    // `ScoreContext::sts` with the merge replaced by the masked sum (a
    // zero sum divides to the same +0 the skipped division would give).
    let sts = |r: usize| {
        let ss = ctx.spatial.ss_points(&table.rows[r].point, &user.point);
        let sum = table.masked_sum(r, mask);
        let ts = if n_u > 0.0 && sum != 0.0 {
            sum / n_u
        } else {
            0.0
        };
        ctx.combine(ss, ts)
    };
    // Rows are scored a block at a time, before the heap sees any of them:
    // the scores do not depend on each other, so they overlap in the
    // pipeline instead of waiting on the heap's branches.
    fn score(
        sts: impl Fn(usize) -> f64,
        order: &impl Order,
        from: usize,
        to: usize,
    ) -> [f64; BLOCK] {
        let mut scores = [0.0; BLOCK];
        for (s, i) in scores.iter_mut().zip(from..to) {
            *s = sts(order.row(i));
        }
        scores
    }

    for from in (0..first.rows()).step_by(BLOCK) {
        let to = (from + BLOCK).min(first.rows());
        for (i, s) in (from..to).zip(score(sts, &first, from, to)) {
            kept.offer(k, s, table.rows[first.row(i)].id);
        }
    }
    let mut rsk = kept.kth(k);

    let mut from = 0;
    'scan: while from < rest.rows() {
        // A block ends before the first row whose upper bound is below the
        // k-th score: `rest` descends by UB and the k-th score only grows,
        // so nothing from there on can qualify.
        let end = (from + BLOCK).min(rest.rows());
        let to = (from..end)
            .find(|&i| table.rows[rest.row(i)].ub < rsk)
            .unwrap_or(end);
        for (i, s) in (from..to).zip(score(sts, &rest, from, to)) {
            let row = &table.rows[rest.row(i)];
            if row.ub < rsk {
                break 'scan; // the k-th score grew past it inside the block
            }
            if s >= rsk {
                kept.offer(k, s, row.id);
                rsk = kept.kth(k);
            }
        }
        if to < end {
            break;
        }
        from = to;
    }
    rsk
}

/// Rows scored per step of [`refine`].
const BLOCK: usize = 8;

/// Algorithm 2 for one user over a finished outcome — `LO` in full, then
/// `RO` — shared by the top-k listing and the §7 pipeline's user
/// materialisation: fills `hu` (min-heap by score, best k kept) and
/// returns `RSk(u)`. The heap and the user's slot mask are cleared first,
/// so pooled ones can be reused across users without reallocating.
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
    hu.clear();
    let (lo, rows) = (out.lo_len, out.rows.len());
    refine(out.table(), user, k, ctx, hu, mask, 0..lo, lo..rows)
}

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

/// A per-user kernel `f(first, users)` — `first` the table index of
/// `users[0]` — returning one value per user or, at the checkpoint, `k`.
pub(crate) type PerUser<'a> = dyn Fn(usize, &[UserData]) -> Vec<f64> + Sync + 'a;

/// Algorithms 1 and 2 fused at one checkpoint (see the module docs' *One
/// exact checkpoint*): the traversal of [`crate::topk::joint::joint_topk`]
/// for `group`, and every user's `RSk(u)` — the same bits as
/// [`individual_topk`] gives over `joint_topk`'s outcome. `scatter` runs a
/// per-user kernel over the whole user table, in table order (inline, or
/// fanned out over slices), and concatenates what it returns.
///
/// The outcome's `RO` is cut at the traversal's final threshold, which
/// may be above `RSk(us)`; every user's top-k still lies in `LO ∪ RO`, so
/// [`individual_topk`] lists from it with the same scores.
///
/// # Panics
/// Panics when `k == 0` or when `tree` lacks minima.
pub(crate) fn joint_rsk(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
    scatter: impl Fn(&PerUser<'_>) -> Vec<f64>,
) -> (TopkOutcome, Vec<f64>) {
    joint_rsk_at(tree, group, k, ctx, io, checkpoint_visit(tree), scatter)
}

/// Where [`joint_rsk`] takes its checkpoint: after this many node reads,
/// a share of the leaves a packed tree of `tree`'s objects has (within a
/// few percent of its node count at the fanouts used). Tuned; the sweep
/// is in the module docs.
fn checkpoint_visit(tree: &StTree) -> usize {
    tree.num_objects().div_ceil(tree.fanout()) * CHECKPOINT_SHARE.0 / CHECKPOINT_SHARE.1
}

/// The checkpoint's position as a fraction of the leaf count.
const CHECKPOINT_SHARE: (usize, usize) = (9, 25);

/// [`joint_rsk`] with the checkpoint after `at` node reads (never, when
/// the traversal reads no more).
pub(crate) fn joint_rsk_at(
    tree: &StTree,
    group: &UserGroup,
    k: usize,
    ctx: &ScoreContext,
    io: &IoStats,
    at: usize,
    scatter: impl Fn(&PerUser<'_>) -> Vec<f64>,
) -> (TopkOutcome, Vec<f64>) {
    assert!(k > 0, "k must be positive");
    // Every user's k best scores at the checkpoint: one flat block, `k`
    // per user in table order (`k` is at most the rows retrieved by then).
    let mut kept: Vec<f64> = Vec::new();
    let mut lift = |table: Table<'_>, lo: usize| {
        kept = scatter(&|_, users| {
            let mut block = vec![f64::NEG_INFINITY; users.len() * k];
            let (mut mask, rows) = (Vec::new(), table.rows.len());
            for (user, heap) in users.iter().zip(block.chunks_exact_mut(k)) {
                refine(table, user, k, ctx, heap, &mut mask, 0..lo, lo..rows);
            }
            block
        });
        // T: the lowest k-th score kept (a heap's minimum is its root).
        kept.chunks_exact(k)
            .map(|heap| heap[0])
            .min_by(f64::total_cmp)
            .unwrap_or(f64::NEG_INFINITY)
    };
    let Traversal { out, fresh } = traverse(
        tree,
        group,
        k,
        ctx,
        io,
        Some(Checkpoint {
            at,
            lift: &mut lift,
        }),
        |_| {},
    );
    // Each user continues its own heap over the rows retrieved after the
    // checkpoint — Algorithm 2 over all of them when none was taken. A
    // heap never needs more slots than there are rows to score, plus one
    // to stay −∞: so no `k` allocates more than the rows (a checkpoint is
    // taken only once `k` rows are retrieved).
    let rsk = scatter(&|first, users| {
        let slots = match fresh {
            Some(_) => k,
            None => k.min(out.rows.len() + 1),
        };
        let (mut heap, mut mask) = (vec![f64::NEG_INFINITY; slots], Vec::new());
        let (lo, rows) = (out.lo_len, out.rows.len());
        (first..)
            .zip(users)
            .map(|(u, user)| {
                let table = out.table();
                match &fresh {
                    None => {
                        heap.fill(f64::NEG_INFINITY);
                        refine(
                            table,
                            user,
                            k,
                            ctx,
                            &mut heap[..],
                            &mut mask,
                            0..lo,
                            lo..rows,
                        )
                    }
                    Some((fresh, lo)) => {
                        heap.copy_from_slice(&kept[u * k..][..k]);
                        let (first, rest) = fresh.split_at(*lo);
                        refine(table, user, k, ctx, &mut heap[..], &mut mask, first, rest)
                    }
                }
            })
            .collect()
    });
    (out, rsk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::joint::joint_topk;
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
                        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&got_scores),
                            bits(&want_scores),
                            "{model:?} α={alpha} k={k} user {}: scores {got_scores:?} vs {want_scores:?}",
                            u.id
                        );
                        assert_eq!(
                            res.rsk.to_bits(),
                            want.last().unwrap().1.to_bits(),
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

    /// The fused entry's `RSk(u)` — with the checkpoint after every node
    /// count, and never — equals Algorithm 2's listings over the paper's
    /// traversal, bit for bit, with the users in one run and in slices;
    /// and the listings over the fused outcome keep their scores.
    #[test]
    fn rsk_only_refinement_equals_the_listings() {
        let fix = fixture(WeightModel::lm(), 0.5);
        let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
        let (users, ctx) = (&fix.users, &fix.ctx);
        let scores = |tks: &[UserTopk]| -> Vec<(u64, Vec<u64>)> {
            tks.iter()
                .map(|t| {
                    (
                        t.rsk.to_bits(),
                        t.topk.iter().map(|s| s.1.to_bits()).collect(),
                    )
                })
                .collect()
        };
        let mut lifted = 0;
        for k in [1, 4, 50] {
            let io = IoStats::new();
            let out = joint_topk(&fix.tree, &group, k, ctx, &io);
            let (visits, paper_ro) = (io.snapshot().node_visits as usize, out.ro().len());
            let listed = individual_topk(users, &out, k, ctx);
            let want: Vec<u64> = listed.iter().map(|t| t.rsk.to_bits()).collect();
            for at in 0..=visits {
                for sliced in [false, true] {
                    let (out, rsk) = joint_rsk_at(&fix.tree, &group, k, ctx, &io, at, |f| {
                        if !sliced {
                            return f(0, users);
                        }
                        let (a, b) = users.split_at(2);
                        [f(0, a), f(2, b)].concat()
                    });
                    let got: Vec<u64> = rsk.iter().map(|r| r.to_bits()).collect();
                    assert_eq!(got, want, "k={k} checkpoint at {at} sliced={sliced}");
                    let relisted = individual_topk(users, &out, k, ctx);
                    assert_eq!(scores(&relisted), scores(&listed), "k={k} at {at}");
                    lifted += usize::from(out.ro().len() < paper_ro);
                }
            }
        }
        assert!(lifted > 0, "no checkpoint cut RO");
    }

    /// A `k` far above the objects fills no heap and allocates by the rows,
    /// not by `k`, with the checkpoint after every node count: every
    /// `RSk(u)` is −∞, as the listings say.
    #[test]
    fn a_huge_k_allocates_by_the_rows() {
        let fix = fixture(WeightModel::lm(), 0.5);
        let group = UserGroup::from_users(&fix.users, &fix.ctx.text);
        let k = 1 << 40;
        let io = IoStats::new();
        let out = joint_topk(&fix.tree, &group, k, &fix.ctx, &io);
        assert!(individual_topk(&fix.users, &out, k, &fix.ctx)
            .iter()
            .all(|t| t.rsk == f64::NEG_INFINITY && t.topk.len() == fix.objects.len()));
        for at in 0..=io.snapshot().node_visits as usize {
            let (_, rsk) = joint_rsk_at(&fix.tree, &group, k, &fix.ctx, &io, at, |f| {
                f(0, &fix.users)
            });
            assert!(rsk.iter().all(|&r| r == f64::NEG_INFINITY), "at {at}");
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

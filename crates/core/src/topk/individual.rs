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
//! One kernel, `refine`, serves every caller, and it scans the rows
//! once for all users: the users are its columns (`x`, `y`, `N(u)`, a
//! slot mask, the k-th kept score) and the rows its outer loop, in scan
//! order. At an `RO` row it first drops, by swap-remove, every user whose
//! k-th score the row's `UB(o, us)` is below — that user's early break —
//! and it stops at the row where the last user breaks. It then scores the
//! users still scanning, a column at a time, with the operations of
//! [`ScoreContext::sts`] in their order: the text score is the sum of the
//! row's weights at the slots (the terms of `us.dUni`, numbered
//! ascending) the user holds, added in ascending slot order from `+0.0` —
//! the order a merge of the two term lists adds them in — so every
//! `RSk(u)` keeps its bits. A row's slots are found when the kernel
//! reaches the row, once for all users. The merge survives as the test
//! reference in `topk/reference.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use index::StTree;
use storage::IoStats;

use crate::topk::joint::{traverse, Checkpoint, ScanOrder, Traversal};
use crate::topk::{ByKey, Table, TopkOutcome, UserTopk};
use crate::{ScoreContext, UserData, UserGroup};

/// Every user's `k` best scores (by [`f64::total_cmp`]), addressed by the
/// user's index in a [`refine`] call.
trait Kept {
    /// User `u`'s k-th best score kept: −∞ while fewer than `k` are.
    fn kth(&self, u: usize) -> f64;
    /// Offers object `id`'s `score` to user `u`; the lowest of `k + 1` is
    /// dropped.
    fn offer(&mut self, u: usize, score: f64, id: u32);
}

/// Algorithm 2's heaps, one per user, for the listings.
struct Heaps<'a> {
    k: usize,
    heaps: &'a mut [BinaryHeap<Reverse<ByKey<u32>>>],
}

impl Kept for Heaps<'_> {
    fn kth(&self, u: usize) -> f64 {
        kth_of(&self.heaps[u], self.k)
    }

    fn offer(&mut self, u: usize, score: f64, id: u32) {
        let heap = &mut self.heaps[u];
        heap.push(Reverse(ByKey {
            key: score,
            item: id,
        }));
        if heap.len() > self.k {
            heap.pop();
        }
    }
}

/// A heap's k-th best score: −∞ while it holds fewer than `k`.
fn kth_of(heap: &BinaryHeap<Reverse<ByKey<u32>>>, k: usize) -> f64 {
    match heap.peek() {
        Some(kth) if heap.len() == k => kth.0.key,
        _ => f64::NEG_INFINITY,
    }
}

/// Scores alone: one flat block, user `u`'s run the `u`-th of `width`
/// slots, each run sorted ascending and starting all −∞. A −∞ slot is a
/// score not yet kept: it is the minimum until `width` real scores push it
/// out, so with `width = k` [`Kept::kth`] — the run's first slot — reads
/// the same as a heap's. A run of `width = min(k, rows + 1)` slots keeps
/// one −∞ slot whenever fewer than `k` rows are scored, which no `k`
/// above the rows can tell apart. The runs compare scores as floats: a
/// score is never NaN and never `-0.0` (a sum from `+0.0` of products of
/// non-negative factors), and on such values `<` orders as
/// [`f64::total_cmp`] does.
struct Slots<'a> {
    width: usize,
    block: &'a mut [f64],
}

impl Kept for Slots<'_> {
    #[inline]
    fn kth(&self, u: usize) -> f64 {
        self.block[u * self.width]
    }

    /// Drops the minimum and inserts `score`, in closed form: slot `i`
    /// takes `max(r[i], min(r[i + 1], s))`, the last slot `max(r[last],
    /// s)`. No branch depends on where `score` lands, and a score at or
    /// below the minimum leaves the run as it is. The run keeps the same
    /// sorted multiset a shift of the lower scores gives, so each slot
    /// the same bits: equal scores are bit-equal (see the type's docs).
    #[inline]
    fn offer(&mut self, u: usize, score: f64, _: u32) {
        let run = &mut self.block[u * self.width..][..self.width];
        for i in 1..run.len() {
            // Slot `i` is read before it is written.
            let up = if run[i] < score { run[i] } else { score };
            run[i - 1] = if run[i - 1] < up { up } else { run[i - 1] };
        }
        let last = &mut run[self.width - 1];
        *last = if *last < score { score } else { *last };
    }
}

/// [`refine`]'s users as columns, entry `i` one user still scanning; kept
/// by a caller to reuse its buffers across calls.
#[derive(Debug, Default)]
pub(crate) struct UserColumns {
    /// The user's index in the call: its run in [`Kept`].
    user: Vec<u32>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// `N(u)`.
    n_u: Vec<f64>,
    /// The k-th kept score.
    kth: Vec<f64>,
    /// Slot masks, word-major: word `w` of entry `i` at `w * n + i`, `n`
    /// the users loaded.
    masks: Vec<u64>,
    /// The current row's `SS`, then its score, and its text sum.
    score: Vec<f64>,
    sum: Vec<f64>,
    /// The entries whose score is offered.
    hits: Vec<u32>,
}

impl UserColumns {
    /// Loads `users` (the first `live` entries, in order) and returns
    /// `live`.
    fn load(
        &mut self,
        table: Table<'_>,
        users: &[UserData],
        ctx: &ScoreContext,
        kept: &impl Kept,
    ) -> usize {
        fn refill<T>(column: &mut Vec<T>, values: impl Iterator<Item = T>) {
            column.clear();
            column.extend(values);
        }
        let n = users.len();
        refill(&mut self.user, 0..n as u32);
        refill(&mut self.x, users.iter().map(|u| u.point.x));
        refill(&mut self.y, users.iter().map(|u| u.point.y));
        refill(
            &mut self.n_u,
            users.iter().map(|u| ctx.text.normalizer(&u.doc)),
        );
        refill(&mut self.kth, (0..n).map(|u| kept.kth(u)));
        refill(&mut self.masks, std::iter::repeat_n(0, table.words() * n));
        for (i, user) in users.iter().enumerate() {
            // Terms outside `us.dUni` weigh nothing in any row.
            let slots = user
                .doc
                .terms()
                .filter_map(|t| table.slots.binary_search(&t).ok());
            for s in slots {
                self.masks[s / 64 * n + i] |= 1 << (s % 64);
            }
        }
        refill(&mut self.score, std::iter::repeat_n(0.0, n));
        refill(&mut self.sum, std::iter::repeat_n(0.0, n));
        refill(&mut self.hits, std::iter::repeat_n(0, n));
        n
    }

    /// Drops, by swap-remove, every entry whose k-th score `ub` is below
    /// — its early break — and returns how many are left.
    fn drop_below(&mut self, ub: f64, mut live: usize) -> usize {
        // Most rows break no one: count first, a pass without branches.
        let breaking = self.kth[..live]
            .iter()
            .fold(0, |n, &kth| n + usize::from(ub < kth));
        if breaking == 0 {
            return live;
        }
        let mut i = 0;
        while i < live {
            if ub >= self.kth[i] {
                i += 1;
                continue;
            }
            // Swap-remove: the last entry takes its place.
            live -= 1;
            self.user[i] = self.user[live];
            self.x[i] = self.x[live];
            self.y[i] = self.y[live];
            self.n_u[i] = self.n_u[live];
            self.kth[i] = self.kth[live];
            for word in self.masks.chunks_exact_mut(self.x.len()) {
                word[i] = word[live];
            }
        }
        live
    }

    /// Scores row `r` for the first `live` entries into `score`:
    /// [`ScoreContext::sts`]'s operations in its order, with the merge
    /// replaced by a sum over the slots the user holds (a zero sum
    /// divides to the same `+0` the skipped division gives).
    fn score(&mut self, table: Table<'_>, r: usize, live: usize, ctx: &ScoreContext) {
        let row = &table.rows[r];
        let (px, py) = (row.point.x, row.point.y);
        let score = &mut self.score[..live];
        for ((ss, &x), &y) in score.iter_mut().zip(&self.x[..live]).zip(&self.y[..live]) {
            let (dx, dy) = (px - x, py - y);
            *ss = ctx.spatial.proximity((dx * dx + dy * dy).sqrt());
        }
        let sum = &mut self.sum[..live];
        sum.fill(0.0);
        // The row's pairs ascend by term, and so do the slots: each slot
        // search starts past the last.
        let mut s = 0;
        for &(t, w) in &table.weights[row.weights.0 as usize..][..row.weights.1 as usize] {
            s += table.slots[s..].partition_point(|&slot| slot < t);
            debug_assert_eq!(table.slots[s], t, "a row term outside the slots");
            let (held, bit) = (&self.masks[s / 64 * self.x.len()..][..live], s % 64);
            for (acc, &mask) in sum.iter_mut().zip(held) {
                // `w` where the user holds the slot, else `+0.0`: a sum
                // from `+0.0` of positive weights is never `-0.0`, so
                // adding `+0.0` leaves its bits.
                *acc += f64::from_bits(w.to_bits() & ((mask >> bit) & 1).wrapping_neg());
            }
        }
        for ((ss, &sum), &n_u) in score.iter_mut().zip(&*sum).zip(&self.n_u[..live]) {
            let ts = if n_u > 0.0 && sum != 0.0 {
                sum / n_u
            } else {
                0.0
            };
            *ss = ctx.combine(*ss, ts);
        }
    }

    /// Offers row `r`'s scores of the first `live` entries to `kept`:
    /// every one when `all`, else those that reach the entry's k-th score.
    /// The entries to offer are picked first, without branching: about one
    /// score in five is offered, in no order a branch could predict.
    fn offer(&mut self, id: u32, live: usize, all: bool, kept: &mut impl Kept) {
        let mut m = 0;
        for (i, (&score, &kth)) in self.score[..live].iter().zip(&self.kth).enumerate() {
            self.hits[m] = i as u32;
            m += usize::from(all || score >= kth);
        }
        for &i in &self.hits[..m] {
            let (i, u) = (i as usize, self.user[i as usize] as usize);
            kept.offer(u, self.score[i], id);
            self.kth[i] = kept.kth(u);
        }
    }
}

/// The refinement kernel: scores every user of `users` against the rows
/// of `first` in full, then against those of `rest` — descending by
/// `UB(o, us)` — each user up to the first row whose upper bound is below
/// its k-th kept score, offering each score to `kept` (user `u`'s run is
/// `users[u]`'s). `kept` may already hold scores; a row must not be
/// offered twice. The rows are the outer loop, read once for all users,
/// and the scan stops where the last user breaks. `cols` is scratch.
fn refine(
    table: Table<'_>,
    first: impl IntoIterator<Item = usize>,
    rest: impl IntoIterator<Item = usize>,
    users: &[UserData],
    ctx: &ScoreContext,
    kept: &mut impl Kept,
    cols: &mut UserColumns,
) {
    let mut live = cols.load(table, users, ctx, kept);
    if live == 0 {
        return;
    }
    for r in first {
        cols.score(table, r, live, ctx);
        cols.offer(table.rows[r].id, live, true, kept);
    }
    for r in rest {
        // `rest` descends by UB and a k-th score only grows, so a user
        // dropped here could qualify for no later row.
        live = cols.drop_below(table.rows[r].ub, live);
        if live == 0 {
            return;
        }
        cols.score(table, r, live, ctx);
        cols.offer(table.rows[r].id, live, false, kept);
    }
}

/// Algorithm 2 over all users and a finished outcome — `LO` in full, then
/// `RO` — with one heap per user: the top-k listings.
pub fn individual_topk(
    users: &[UserData],
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
) -> Vec<UserTopk> {
    assert!(k > 0, "k must be positive");
    let mut heaps = vec![BinaryHeap::new(); users.len()];
    let (lo, rows) = (out.lo_len, out.rows.len());
    let mut kept = Heaps {
        k,
        heaps: &mut heaps,
    };
    let cols = &mut UserColumns::default();
    refine(out.table(), 0..lo, lo..rows, users, ctx, &mut kept, cols);
    users
        .iter()
        .zip(heaps)
        .map(|(user, heap)| {
            let rsk = kth_of(&heap, k);
            let mut topk: Vec<(u32, f64)> = heap.into_iter().map(|r| (r.0.item, r.0.key)).collect();
            topk.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            UserTopk {
                user: user.id,
                topk,
                rsk,
            }
        })
        .collect()
}

/// `RSk(u)` of every user of `users` over a finished outcome, through the
/// caller's pooled columns and block: the §7 pipeline's user
/// materialisation, and the fill's when it takes no checkpoint.
///
/// # Panics
/// Panics when `k == 0`.
pub(crate) fn refine_rsk<'a>(
    users: &[UserData],
    out: &TopkOutcome,
    k: usize,
    ctx: &ScoreContext,
    cols: &mut UserColumns,
    block: &'a mut Vec<f64>,
) -> impl Iterator<Item = f64> + 'a {
    assert!(k > 0, "k must be positive");
    // No run needs more slots than there are rows to score, plus one to
    // stay −∞: so no `k` allocates more than the rows.
    let (lo, rows) = (out.lo_len, out.rows.len());
    let width = k.min(rows + 1);
    block.clear();
    block.resize(users.len() * width, f64::NEG_INFINITY);
    let mut kept = Slots { width, block };
    refine(out.table(), 0..lo, lo..rows, users, ctx, &mut kept, cols);
    block.iter().step_by(width).copied()
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
/// few percent of its node count at the fanouts used), and no fewer than
/// [`CHECKPOINT_MIN_READS`]. Tuned; the sweep is in the module docs.
fn checkpoint_visit(tree: &StTree) -> usize {
    let leaves = tree.num_objects().div_ceil(tree.fanout());
    (leaves * CHECKPOINT_SHARE.0 / CHECKPOINT_SHARE.1).max(CHECKPOINT_MIN_READS)
}

/// The checkpoint's position as a fraction of the leaf count.
const CHECKPOINT_SHARE: (usize, usize) = (3, 25);

/// The fewest node reads before the checkpoint: the share alone fires too
/// early on a small tree (37 reads on 10,000 objects at fanout 32).
const CHECKPOINT_MIN_READS: usize = 96;

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
    let mut lift = |table: Table<'_>, lo: &[u32], rest: &[u128]| {
        kept = scatter(&|_, users| {
            let mut block = vec![f64::NEG_INFINITY; users.len() * k];
            let (first, rest) = (lo.iter().map(|&r| r as usize), ScanOrder::new(rest));
            let slots = &mut Slots {
                width: k,
                block: &mut block,
            };
            refine(
                table,
                first,
                rest,
                users,
                ctx,
                slots,
                &mut UserColumns::default(),
            );
            block
        });
        // T: the lowest k-th score kept (a run's first slot).
        kept.chunks_exact(k)
            .map(|run| run[0])
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
    // Each user continues its own run over the rows retrieved after the
    // checkpoint — Algorithm 2 over all of them when none was taken. No
    // `k` allocates more than the rows: a checkpoint is taken only once
    // `k` rows are retrieved, and `refine_rsk` sizes its runs by the rows.
    let rsk = scatter(&|start, users| {
        let cols = &mut UserColumns::default();
        let Some((fresh, lo)) = &fresh else {
            return refine_rsk(users, &out, k, ctx, cols, &mut Vec::new()).collect();
        };
        let mut block = kept[start * k..][..users.len() * k].to_vec();
        let slots = &mut Slots {
            width: k,
            block: &mut block,
        };
        let (first, rest) = fresh.split_at(*lo);
        let (first, rest) = (first.iter(), rest.iter());
        let rows = |&r: &u32| r as usize;
        refine(
            out.table(),
            first.map(rows),
            rest.map(rows),
            users,
            ctx,
            slots,
            cols,
        );
        block.iter().step_by(k).copied().collect()
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

    /// The shift loop the closed form replaced, kept as its reference:
    /// a score above the minimum shifts the scores below it down one slot
    /// and takes the slot they leave.
    fn shift_offer(run: &mut [f64], score: f64) {
        if score <= run[0] {
            return;
        }
        let mut i = 0;
        while i + 1 < run.len() && run[i + 1] < score {
            run[i] = run[i + 1];
            i += 1;
        }
        run[i] = score;
    }

    /// `Slots::offer` leaves every run bit-equal to the shift loop, after
    /// every offer, at widths 1–24: three runs per block, each starting all
    /// −∞, fed seeded scores from a pool small enough to tie often (`+0.0`
    /// among them), some streams shorter than the run so −∞ slots stay.
    #[test]
    fn closed_form_offers_match_the_shift_loop() {
        let mut next = crate::select::test_fixture::stream(0x5107_5EED);
        let (mut ties, mut kept_neg_inf) = (0, 0);
        for width in 1..=24 {
            for _ in 0..8 {
                let mut block = vec![f64::NEG_INFINITY; 3 * width];
                let mut want = block.clone();
                let offers = next(3 * width as u64 + 1) as usize;
                for _ in 0..offers {
                    let u = next(3) as usize;
                    let score = next(12) as f64 / 8.0;
                    let run = &want[u * width..][..width];
                    ties += usize::from(run.contains(&score));
                    Slots {
                        width,
                        block: &mut block,
                    }
                    .offer(u, score, 0);
                    shift_offer(&mut want[u * width..][..width], score);
                    let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&block), bits(&want), "width {width}, offer {score}");
                }
                kept_neg_inf += usize::from(block.contains(&f64::NEG_INFINITY));
            }
        }
        assert!(ties > 1_000, "the streams must tie: {ties}");
        assert!(kept_neg_inf > 50, "some runs must keep −∞: {kept_neg_inf}");
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

//! Upper and lower bound estimations between index entries and user groups
//! (§5.3, Lemma 2).
//!
//! For any MIR-tree entry `E` and any user `u` in a group `g`:
//!
//! ```text
//! UB(E, g) = α·MinSS(E.l, g.mbr) + (1−α)·MaxTS(E.d, g.dUni)  ≥  STS(E, u)
//! LB(E, g) = α·MaxSS(E.l, g.mbr) + (1−α)·MinTS(E.d, g.dInt)  ≤  STS(o, u)
//!                                             for every object o under E
//! ```
//!
//! `MaxTS` sums the posting maxima over the group's union keywords;
//! `MinTS` sums the posting minima over the group's intersection keywords
//! (minima are 0 for terms missing anywhere below `E`, so absent terms
//! contribute nothing, keeping the bound sound). An entry's postings are
//! its stored row, summed through the scorer's weight map; an object's
//! weights are already resolved. Normalization uses the group's
//! `n_min`/`n_max` brackets — see [`crate::UserGroup`].
//!
//! # The keyword cap
//!
//! `TS(o, u) = Σ_{t∈u.d} w(t, o) / N(u)` adds at most `|u.d|` weights, so
//! when no member of `g` holds more than `m` keywords
//! ([`UserGroup::max_terms`]) a row holding more than `m` union terms is
//! bounded by `min(Σ row, Σ of its m heaviest)` over `n_min`: a member
//! picks at most `m` of the row's terms, each weighing at most its
//! posting maximum. A row of at most `m` terms is bounded exactly as
//! without the cap, operation for operation, so an unbounded `m` (MIUR
//! groups) changes no bit.
//!
//! The bound must hold in floating point too: the traversal prunes with
//! an exact `<`, and Algorithm 2 sums a member's weights in its own slot
//! order, which need not be the heaviest-first order the cap sums in, so
//! no summation-order argument covers both. Summing `m` non-negative
//! addends in any order is off the exact sum by a relative `(m−1)·u` at
//! most (`u = ε/2`), low on one side and high on the other; inflating the
//! heaviest-first sum by `1 + 4·m·ε` (exact in binary for any `m` that
//! matters) covers both errors and the rounding of the product. Summing
//! the heaviest first keeps the entry bound at or above the bounds of the
//! objects below it bit for bit: the `i`-th heaviest maximum of an entry
//! is at least the `i`-th heaviest weight of any object under it.

use geo::Point;
use text::TermId;

use crate::{ScoreContext, UserGroup};

/// The most weights [`capped`] selects: a row read for a group whose
/// members hold more keywords than this keeps its whole sum.
const HEAVIEST: usize = 16;

/// `UB(E, g)` for a node entry: `postings` is the entry's stored `(term,
/// max, min)` row over the group's union terms.
pub fn ub_entry(
    ctx: &ScoreContext,
    group: &UserGroup,
    entry_rect: &geo::Rect,
    postings: &[(TermId, f64, f64)],
) -> f64 {
    let ss = ctx.spatial.min_ss(entry_rect, &group.mbr);
    let weights = ctx.text.weights();
    let sum_max: f64 = postings
        .iter()
        .map(|&(t, mx, _)| weights.weight(t, mx))
        .sum();
    ctx.combine(ss, group.ts_upper(capped(ctx, group, postings, sum_max)))
}

/// `sum`, the weight sum of `row` (stored `(term, max, min)` triples),
/// capped at what one member of `group` can add up from it (the module's
/// keyword cap): `sum` itself when the row holds at most `m` terms.
fn capped(ctx: &ScoreContext, group: &UserGroup, row: &[(TermId, f64, f64)], sum: f64) -> f64 {
    let m = group.max_terms;
    if row.len() <= m || m > HEAVIEST {
        return sum;
    }
    // The m heaviest weights, descending, selected in place.
    let weights = ctx.text.weights();
    let mut top = [0.0f64; HEAVIEST];
    let top = &mut top[..m];
    for &(t, x, _) in row {
        let w = weights.weight(t, x);
        if let Some(j) = top.iter().position(|&h| h < w) {
            top[j..].rotate_right(1);
            top[j] = w;
        }
    }
    let heaviest: f64 = top.iter().sum();
    sum.min(heaviest * (1.0 + 4.0 * m as f64 * f64::EPSILON))
}

/// `LB(E, g)` for a node entry: sums posting *minima* restricted to the
/// group's intersection keywords.
pub fn lb_entry(
    ctx: &ScoreContext,
    group: &UserGroup,
    entry_rect: &geo::Rect,
    postings: &[(TermId, f64, f64)],
) -> f64 {
    let ss = ctx.spatial.max_ss(entry_rect, &group.mbr);
    let weights = ctx.text.weights();
    let sum_min: f64 = postings
        .iter()
        .filter(|&&(t, _, mn)| mn > 0.0 && group.d_int.contains(t))
        .map(|&(t, _, mn)| weights.weight(t, mn))
        .sum();
    ctx.combine(ss, group.ts_lower(sum_min))
}

/// `UB(o, g)` for a retrieved object at squared distance `min_dist_sq`
/// from the group's MBR (`Rect::min_dist_sq_point`) whose exact weights
/// over the query-term universe (`d_uni`) sum to `sum_max`. `row` is the
/// object's stored leaf row over those terms; it is read only when it
/// holds more terms than any member of the group.
pub fn ub_object(
    ctx: &ScoreContext,
    group: &UserGroup,
    min_dist_sq: f64,
    sum_max: f64,
    row: &[(TermId, f64, f64)],
) -> f64 {
    let ss = ctx.spatial.proximity(min_dist_sq.sqrt());
    ctx.combine(ss, group.ts_upper(capped(ctx, group, row, sum_max)))
}

/// `LB(o, g)` for a retrieved object with exact `(term, weight)` pairs.
pub fn lb_object(
    ctx: &ScoreContext,
    group: &UserGroup,
    point: &Point,
    weights: &[(TermId, f64)],
) -> f64 {
    let ss = ctx.spatial.max_ss_point(point, &group.mbr);
    let sum_min: f64 = weights
        .iter()
        .filter(|&&(t, _)| group.d_int.contains(t))
        .map(|&(_, w)| w)
        .sum();
    ctx.combine(ss, group.ts_lower(sum_min))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserData;
    use geo::{Rect, SpatialContext};
    use text::{Document, TextScorer, WeightModel, WeightedDoc};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// An object's stored leaf row over `terms`: `(term, x, x)`.
    fn object_row(ctx: &ScoreContext, d: &Document, terms: &Document) -> Vec<(TermId, f64, f64)> {
        let stored = ctx.text.weigh(d).entries;
        stored
            .iter()
            .filter(|&&(t, _)| terms.contains(t))
            .map(|&(t, x)| (t, x, x))
            .collect()
    }

    /// A row's resolved weights and their sum, added as the traversal's
    /// leaf pass adds them.
    fn resolved(ctx: &ScoreContext, row: &[(TermId, f64, f64)]) -> (Vec<(TermId, f64)>, f64) {
        let weights = ctx.text.weights();
        let pairs: Vec<(TermId, f64)> = row
            .iter()
            .map(|&(t, x, _)| (t, weights.weight(t, x)))
            .filter(|&(_, w)| w > 0.0)
            .collect();
        let sum = pairs.iter().fold(0.0, |acc, &(_, w)| acc + w);
        (pairs, sum)
    }

    /// The stored `(term, max, min)` row over `terms` of an entry covering
    /// `docs`: a term's minimum is 0 unless every document holds it.
    fn entry_row(
        ctx: &ScoreContext,
        docs: &[&Document],
        terms: &Document,
    ) -> Vec<(TermId, f64, f64)> {
        let weighed: Vec<WeightedDoc> = docs.iter().map(|d| ctx.text.weigh(d)).collect();
        terms
            .terms()
            .filter_map(|term| {
                let xs: Vec<f64> = weighed.iter().map(|w| w.weight(term)).collect();
                let mx = xs.iter().copied().fold(0.0, f64::max);
                let mn = if xs.iter().all(|&x| x > 0.0) {
                    xs.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    0.0
                };
                (mx > 0.0).then_some((term, mx, mn))
            })
            .collect()
    }

    /// Fixture: 5 objects (the last holding all three terms), 3 users;
    /// checks the Lemma-2 property directly.
    fn fixture() -> (ScoreContext, Vec<(Document, Point)>, Vec<UserData>) {
        let docs = vec![
            Document::from_terms([t(0), t(1)]),
            Document::from_terms([t(0)]),
            Document::from_terms([t(1), t(2)]),
            Document::from_terms([t(2)]),
            Document::from_terms([t(0), t(1), t(2)]),
        ];
        let points = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(2.0, 2.0),
            Point::new(9.0, 1.0),
            Point::new(1.0, 3.0),
        ];
        let users = vec![
            UserData {
                id: 0,
                point: Point::new(1.0, 1.0),
                doc: Document::from_terms([t(0), t(1)]),
            },
            UserData {
                id: 1,
                point: Point::new(3.0, 2.0),
                doc: Document::from_terms([t(0), t(2)]),
            },
            UserData {
                id: 2,
                point: Point::new(2.0, 4.0),
                doc: Document::from_terms([t(0), t(1), t(2)]),
            },
        ];
        let text = TextScorer::build(WeightModel::lm(), &docs);
        let ctx = ScoreContext::new(0.5, SpatialContext::with_dmax(20.0), text);
        (ctx, docs.into_iter().zip(points).collect(), users)
    }

    /// Every user (`m = 3`, no row can exceed it) and the first two
    /// (`m = 2`: the three-term rows are capped).
    fn groups(ctx: &ScoreContext, users: &[UserData]) -> [(UserGroup, usize); 2] {
        [
            (UserGroup::from_users(users, &ctx.text), users.len()),
            (UserGroup::from_users(&users[..2], &ctx.text), 2),
        ]
    }

    #[test]
    fn object_bounds_bracket_every_user_score() {
        let (ctx, objects, users) = fixture();
        for (group, members) in groups(&ctx, &users) {
            for (d, p) in &objects {
                let row = object_row(&ctx, d, &group.d_uni);
                let (w, sum) = resolved(&ctx, &row);
                let d2 = group.mbr.min_dist_sq_point(p);
                let ub = ub_object(&ctx, &group, d2, sum, &row);
                let lb = lb_object(&ctx, &group, p, &w);
                assert!(lb <= ub);
                for u in &users[..members] {
                    let n_u = ctx.text.normalizer(&u.doc);
                    let sts = ctx.sts(p, &w, u, n_u);
                    assert!(sts <= ub, "UB violated: {sts} > {ub}");
                    assert!(sts >= lb, "LB violated: {sts} < {lb}");
                }
            }
        }
    }

    #[test]
    fn entry_bounds_dominate_object_bounds() {
        // Synthetic node entries, each covering some of the objects: its
        // postings carry the max/min of their stored halves; its rect
        // covers their points.
        let (ctx, objects, users) = fixture();
        let mut capped_rows = 0;
        for (group, members) in groups(&ctx, &users) {
            for covered in [&[0, 1][..], &[0, 2], &[1, 4], &[2, 3, 4]] {
                let below: Vec<&(Document, Point)> = covered.iter().map(|&o| &objects[o]).collect();
                let docs: Vec<&Document> = below.iter().map(|(d, _)| d).collect();
                let rect = Rect::bounding(below.iter().map(|&&(_, p)| p)).unwrap();
                let postings = entry_row(&ctx, &docs, &group.d_uni);
                capped_rows += usize::from(postings.len() > group.max_terms);

                let ub_e = ub_entry(&ctx, &group, &rect, &postings);
                let lb_e = lb_entry(&ctx, &group, &rect, &postings);
                for (d, p) in below {
                    let row = object_row(&ctx, d, &group.d_uni);
                    let (w, sum) = resolved(&ctx, &row);
                    let d2 = group.mbr.min_dist_sq_point(p);
                    assert!(ub_object(&ctx, &group, d2, sum, &row) <= ub_e);
                    // LB(entry) lower-bounds every contained object's true
                    // scores, UB(entry) upper-bounds them.
                    for u in &users[..members] {
                        let n_u = ctx.text.normalizer(&u.doc);
                        let sts = ctx.sts(p, &w, u, n_u);
                        assert!(lb_e <= sts && sts <= ub_e, "{lb_e} <= {sts} <= {ub_e}");
                    }
                }
                assert!(lb_e <= ub_e);
            }
        }
        assert!(capped_rows >= 3, "rows above the cap: {capped_rows}");
    }

    /// The keyword cap, held without tolerance: over LM, TF-IDF and KO
    /// (whose weights all tie), groups of 1–5 users holding 1–4 keywords
    /// and entries over 2–6 objects of up to 8 terms, every capped entry
    /// and object bound is at least every member's `STS` for every object
    /// below the entry, bit for bit as [`ScoreContext::sts`] adds it; an
    /// entry bound is at least the bounds of the objects below it; the cap
    /// never loosens a bound, and leaves one whose row it cannot cut
    /// bit-identical.
    #[test]
    fn capped_bounds_bracket_every_member_exactly() {
        const VOCAB: u64 = 10;
        // Entries and objects whose bound the cap lowered; capped rows
        // whose m-th and (m+1)-th heaviest weights tie.
        let (mut lowered, mut tied) = ([0usize; 2], 0);
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            let mut next = crate::select::test_fixture::stream(31);
            let coord = |next: &mut dyn FnMut(u64) -> u64| {
                Point::new(next(10_000) as f64 / 100.0, next(10_000) as f64 / 100.0)
            };
            let docs: Vec<Document> = (0..200)
                .map(|_| {
                    let n = 1 + next(8);
                    Document::from_pairs(
                        (0..n).map(|_| (t(next(VOCAB) as u32), 1 + next(3) as u32)),
                    )
                })
                .collect();
            let points: Vec<Point> = docs.iter().map(|_| coord(&mut next)).collect();
            let text = TextScorer::build(model, &docs);
            let ctx = ScoreContext::new(0.5, SpatialContext::with_dmax(150.0), text);
            for _ in 0..300 {
                let users: Vec<UserData> = (0..1 + next(5))
                    .map(|id| UserData {
                        id: id as u32,
                        point: coord(&mut next),
                        doc: Document::from_terms((0..1 + next(4)).map(|_| t(next(VOCAB) as u32))),
                    })
                    .collect();
                let group = UserGroup::from_users(&users, &ctx.text);
                let m = group.max_terms;
                assert!((1..=4).contains(&m));
                let open = UserGroup {
                    max_terms: usize::MAX,
                    ..group.clone()
                };
                let below: Vec<usize> = (0..2 + next(5)).map(|_| next(200) as usize).collect();
                let covered: Vec<&Document> = below.iter().map(|&o| &docs[o]).collect();
                let rect = Rect::bounding(below.iter().map(|&o| points[o])).unwrap();
                let postings = entry_row(&ctx, &covered, &group.d_uni);
                let ub_e = ub_entry(&ctx, &group, &rect, &postings);
                let open_e = ub_entry(&ctx, &open, &rect, &postings);
                assert!(ub_e <= open_e);
                if postings.len() <= m {
                    assert_eq!(ub_e.to_bits(), open_e.to_bits());
                } else {
                    let (mut maxima, _) = resolved(&ctx, &postings);
                    maxima.sort_by(|a, b| b.1.total_cmp(&a.1));
                    tied += usize::from(maxima.len() > m && maxima[m - 1].1 == maxima[m].1);
                }
                lowered[0] += usize::from(ub_e < open_e);
                for &o in &below {
                    let (d, p) = (&docs[o], &points[o]);
                    let row = object_row(&ctx, d, &group.d_uni);
                    let (w, sum) = resolved(&ctx, &row);
                    let d2 = group.mbr.min_dist_sq_point(p);
                    let ub_o = ub_object(&ctx, &group, d2, sum, &row);
                    let open_o = ub_object(&ctx, &open, d2, sum, &row);
                    assert!(ub_o <= ub_e, "object {o}: {ub_o} > entry {ub_e}");
                    assert!(ub_o <= open_o);
                    if row.len() <= m {
                        assert_eq!(ub_o.to_bits(), open_o.to_bits());
                    }
                    lowered[1] += usize::from(ub_o < open_o);
                    for u in &users {
                        let sts = ctx.sts(p, &w, u, ctx.text.normalizer(&u.doc));
                        assert!(
                            sts <= ub_o,
                            "{model:?}: user {:?} scores object {o} {sts} > its bound {ub_o}",
                            u.doc
                        );
                    }
                }
            }
        }
        assert!(
            lowered.iter().all(|&n| n > 100) && tied > 100,
            "coverage: entries and objects lowered by the cap {lowered:?}, tied cuts {tied}"
        );
    }

    /// The cap's float margin is needed, and enough: a member holding an
    /// object's `m` heaviest terms adds their weights in term order, which
    /// can round above the heaviest-first sum. Text only (`α = 0`), a
    /// second member holding another of the object's terms (so the row
    /// exceeds `m`) and no smaller normalizer, so nothing else loosens the
    /// bound: cases where the bare heaviest-first sum falls below the
    /// member's score must occur, and the bound must hold on every one.
    #[test]
    fn the_cap_margin_covers_a_member_adding_in_term_order() {
        const VOCAB: u64 = 12;
        let mut needed = 0;
        for model in [WeightModel::lm(), WeightModel::TfIdf] {
            let mut next = crate::select::test_fixture::stream(5);
            let docs: Vec<Document> = (0..400)
                .map(|_| {
                    let n = 3 + next(7);
                    Document::from_pairs(
                        (0..n).map(|_| (t(next(VOCAB) as u32), 1 + next(4) as u32)),
                    )
                })
                .collect();
            let text = TextScorer::build(model, &docs);
            let ctx = ScoreContext::new(0.0, SpatialContext::with_dmax(10.0), text);
            let at = Point::new(1.0, 1.0);
            for d in &docs {
                let all = object_row(&ctx, d, d);
                let (mut heavy, _) = resolved(&ctx, &all);
                heavy.sort_by(|a, b| b.1.total_cmp(&a.1));
                for m in 2..heavy.len().min(5) {
                    let user = |terms: &[(TermId, f64)]| UserData {
                        id: 0,
                        point: at,
                        doc: Document::from_terms(terms.iter().map(|&(t, _)| t)),
                    };
                    let (top, rest) = heavy.split_at(m);
                    let members = [user(top), user(&rest[..rest.len().min(m)])];
                    let n_u = ctx.text.normalizer(&members[0].doc);
                    if ctx.text.normalizer(&members[1].doc) < n_u {
                        continue;
                    }
                    let group = UserGroup::from_users(&members, &ctx.text);
                    assert_eq!((group.max_terms, group.n_min), (m, n_u));
                    let row = object_row(&ctx, d, &group.d_uni);
                    let (w, sum) = resolved(&ctx, &row);
                    let ub = ub_object(&ctx, &group, 0.0, sum, &row);
                    let bare = top.iter().fold(0.0, |acc, &(_, w)| acc + w);
                    let sts = ctx.sts(&at, &w, &members[0], n_u);
                    needed += usize::from(sts > ctx.combine(1.0, group.ts_upper(bare)));
                    assert!(sts <= ub, "{model:?}, m = {m}: {sts} > {ub}");
                }
            }
        }
        assert!(needed > 4, "members rounding above the bare sum: {needed}");
    }

    #[test]
    fn empty_postings_fall_back_to_spatial() {
        let (ctx, _, users) = fixture();
        let group = UserGroup::from_users(&users, &ctx.text);
        let rect = Rect::from_point(Point::new(2.0, 2.0));
        let ub = ub_entry(&ctx, &group, &rect, &[]);
        let lb = lb_entry(&ctx, &group, &rect, &[]);
        // Purely spatial component remains.
        assert!(ub > 0.0);
        assert!(lb >= 0.0);
        assert!(lb <= ub);
    }
}

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

use geo::Point;
use text::TermId;

use crate::{ScoreContext, UserGroup};

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
    ctx.combine(ss, group.ts_upper(sum_max))
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
/// over the query-term universe (`d_uni`) sum to `sum_max`.
pub fn ub_object(ctx: &ScoreContext, group: &UserGroup, min_dist_sq: f64, sum_max: f64) -> f64 {
    let ss = ctx.spatial.proximity(min_dist_sq.sqrt());
    ctx.combine(ss, group.ts_upper(sum_max))
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

    /// A document's model weights: its stored halves, resolved.
    fn weights(ctx: &ScoreContext, d: &Document) -> WeightedDoc {
        let (stored, weights) = (ctx.text.weigh(d).entries, ctx.text.weights());
        WeightedDoc::from_pairs(
            stored
                .iter()
                .map(|&(t, x)| (t, weights.weight(t, x)))
                .collect(),
        )
    }

    /// Fixture: 4 objects, 3 users; checks the Lemma-2 property directly.
    fn fixture() -> (ScoreContext, Vec<Document>, Vec<UserData>) {
        let docs = vec![
            Document::from_terms([t(0), t(1)]),
            Document::from_terms([t(0)]),
            Document::from_terms([t(1), t(2)]),
            Document::from_terms([t(2)]),
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
        (ctx, docs, users)
    }

    #[test]
    fn object_bounds_bracket_every_user_score() {
        let (ctx, docs, users) = fixture();
        let group = UserGroup::from_users(&users, &ctx.text);
        let points = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 5.0),
            Point::new(2.0, 2.0),
            Point::new(9.0, 1.0),
        ];
        for (d, p) in docs.iter().zip(&points) {
            let w = weights(&ctx, d).entries;
            let d2 = group.mbr.min_dist_sq_point(p);
            let ub = ub_object(&ctx, &group, d2, w.iter().map(|&(_, w)| w).sum());
            let lb = lb_object(&ctx, &group, p, &w);
            assert!(lb <= ub + 1e-12);
            for u in &users {
                let n_u = ctx.text.normalizer(&u.doc);
                let sts = ctx.sts(p, &w, u, n_u);
                assert!(sts <= ub + 1e-9, "UB violated: {sts} > {ub}");
                assert!(sts >= lb - 1e-9, "LB violated: {sts} < {lb}");
            }
        }
    }

    #[test]
    fn entry_bounds_dominate_object_bounds() {
        // A synthetic node entry covering two objects: its postings carry
        // the max/min of the two docs' stored halves; its rect covers both
        // points.
        let (ctx, docs, users) = fixture();
        let group = UserGroup::from_users(&users, &ctx.text);
        let w0 = weights(&ctx, &docs[0]);
        let w1 = weights(&ctx, &docs[1]);
        let p0 = Point::new(0.0, 0.0);
        let p1 = Point::new(5.0, 5.0);
        let rect = Rect::bounding([p0, p1]).unwrap();

        // Build the entry's stored (term, max, min) row for the union terms.
        let (x0, x1) = (ctx.text.weigh(&docs[0]), ctx.text.weigh(&docs[1]));
        let uni = group.uni_terms();
        let mut postings = Vec::new();
        for &term in &uni {
            let a = x0.weight(term);
            let b = x1.weight(term);
            let mx = a.max(b);
            let mn = if a > 0.0 && b > 0.0 { a.min(b) } else { 0.0 };
            if mx > 0.0 {
                postings.push((term, mx, mn));
            }
        }

        let ub_e = ub_entry(&ctx, &group, &rect, &postings);
        let lb_e = lb_entry(&ctx, &group, &rect, &postings);
        for (p, w) in [(p0, &w0), (p1, &w1)] {
            let sum = w.entries.iter().map(|&(_, w)| w).sum();
            let d2 = group.mbr.min_dist_sq_point(&p);
            assert!(ub_object(&ctx, &group, d2, sum) <= ub_e + 1e-9);
            // LB(entry) lower-bounds every contained object's true scores.
            for u in &users {
                let n_u = ctx.text.normalizer(&u.doc);
                assert!(ctx.sts(&p, &w.entries, u, n_u) >= lb_e - 1e-9);
            }
        }
        assert!(lb_e <= ub_e + 1e-12);
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

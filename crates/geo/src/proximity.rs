//! Normalized spatial proximity `SS` (Eq. 2 of the paper).

use crate::{Point, Rect};

/// Dataspace-wide context needed to normalize spatial distances.
///
/// Eq. (2): `SS(o.l, u.l) = 1 − dist(o.l, u.l) / dmax`, where `dmax` is the
/// maximum Euclidean distance between any two points in the dataset `D`.
/// We take `dmax` as the diagonal of the MBR of the whole dataspace, which
/// is exactly that maximum for points constrained to the dataspace.
///
/// All proximity values are in `[0, 1]`; higher means closer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialContext {
    dmax: f64,
}

impl SpatialContext {
    /// Builds a context from the dataspace MBR.
    ///
    /// # Panics
    /// Panics when the dataspace is degenerate (zero diagonal); a dataset
    /// whose every location coincides cannot be normalized.
    pub fn from_dataspace(space: &Rect) -> Self {
        let dmax = space.diagonal();
        assert!(
            dmax > 0.0,
            "degenerate dataspace: dmax must be positive to normalize distances"
        );
        SpatialContext { dmax }
    }

    /// Builds a context directly from a known `dmax`.
    ///
    /// # Panics
    /// Panics when `dmax` is not strictly positive.
    pub fn with_dmax(dmax: f64) -> Self {
        assert!(dmax > 0.0, "dmax must be positive");
        SpatialContext { dmax }
    }

    /// The maximum distance between any two points in the dataspace.
    #[inline]
    pub fn dmax(&self) -> f64 {
        self.dmax
    }

    /// Normalizes a raw distance into a proximity score in `[0, 1]`.
    ///
    /// Distances beyond `dmax` (possible when query locations fall outside
    /// the dataspace used to derive `dmax`) clamp to 0 so that the combined
    /// score `STS` stays within `[0, 1]`.
    #[inline]
    pub fn proximity(&self, dist: f64) -> f64 {
        debug_assert!(dist >= 0.0);
        (1.0 - dist / self.dmax).max(0.0)
    }

    /// `SS` between two points (Eq. 2).
    #[inline]
    pub fn ss_points(&self, a: &Point, b: &Point) -> f64 {
        self.proximity(a.dist(b))
    }

    /// Upper bound on `SS` between any point of `r` and any point of `q`:
    /// proximity of the *minimum* rect-rect distance (`MinSS` in §5.3).
    #[inline]
    pub fn min_ss(&self, r: &Rect, q: &Rect) -> f64 {
        self.proximity(r.min_dist_rect(q))
    }

    /// Lower bound on `SS` between any point of `r` and any point of `q`:
    /// proximity of the *maximum* rect-rect distance (`MaxSS` in §5.3).
    #[inline]
    pub fn max_ss(&self, r: &Rect, q: &Rect) -> f64 {
        self.proximity(r.max_dist_rect(q))
    }

    /// Upper bound on `SS` between a fixed point and any point of `q`
    /// (used by the candidate-location bound `UBL(ℓ, us)` in §6.1).
    #[inline]
    pub fn min_ss_point(&self, p: &Point, q: &Rect) -> f64 {
        self.proximity(q.min_dist_point(p))
    }

    /// Lower bound on `SS` between a fixed point and any point of `q`
    /// (used by the candidate-location bound `LBL(ℓ, us)` in §6.1).
    #[inline]
    pub fn max_ss_point(&self, p: &Point, q: &Rect) -> f64 {
        self.proximity(q.max_dist_point(p))
    }

    /// Bounds `(lo, hi)` on [`SpatialContext::min_ss_point`]`(p, r)` over
    /// every point `p` of `q`: `hi` is `MinSS(q, r)`, `lo` the least score
    /// of `q`'s four corners. Both hold in floating point: on each axis a
    /// point's excess over `r` is a rounded difference, monotone on either
    /// side of `r`, so no point of `q` lies closer than `q` does or farther
    /// than the corner with both axes' larger excesses, and the score
    /// rounds monotonically in the distance.
    #[inline]
    pub fn min_ss_point_bounds(&self, q: &Rect, r: &Rect) -> (f64, f64) {
        let corners = [
            q.min,
            Point::new(q.min.x, q.max.y),
            Point::new(q.max.x, q.min.y),
            q.max,
        ];
        let lo = corners
            .iter()
            .map(|c| self.min_ss_point(c, r))
            .fold(f64::INFINITY, f64::min);
        (lo, self.min_ss(q, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx10() -> SpatialContext {
        // Dataspace [0,0]..[6,8] → diagonal 10.
        SpatialContext::from_dataspace(&Rect::new(Point::new(0.0, 0.0), Point::new(6.0, 8.0)))
    }

    #[test]
    fn dmax_is_diagonal() {
        assert_eq!(ctx10().dmax(), 10.0);
    }

    #[test]
    fn proximity_extremes() {
        let c = ctx10();
        assert_eq!(c.proximity(0.0), 1.0);
        assert_eq!(c.proximity(10.0), 0.0);
        assert_eq!(c.proximity(5.0), 0.5);
        // Beyond dmax clamps to zero instead of going negative.
        assert_eq!(c.proximity(12.0), 0.0);
    }

    #[test]
    fn ss_points_matches_manual() {
        let c = ctx10();
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(c.ss_points(&a, &b), 0.5);
    }

    #[test]
    fn min_ss_at_least_max_ss() {
        let c = ctx10();
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let q = Rect::new(Point::new(4.0, 4.0), Point::new(5.0, 5.0));
        assert!(c.min_ss(&r, &q) >= c.max_ss(&r, &q));
    }

    #[test]
    fn point_bounds_bracket_true_score() {
        let c = ctx10();
        let q = Rect::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let p = Point::new(5.0, 5.0);
        // Any user inside q must have an SS between the bounds.
        let inside = Point::new(2.0, 2.5);
        let true_ss = c.ss_points(&p, &inside);
        assert!(c.min_ss_point(&p, &q) >= true_ss);
        assert!(c.max_ss_point(&p, &q) <= true_ss);
    }

    #[test]
    #[should_panic(expected = "degenerate dataspace")]
    fn degenerate_dataspace_panics() {
        SpatialContext::from_dataspace(&Rect::from_point(Point::new(1.0, 1.0)));
    }
}

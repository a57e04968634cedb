//! Axis-aligned minimum bounding rectangles (MBRs) and rect distances.

use crate::Point;

/// An axis-aligned minimum bounding rectangle.
///
/// Used for R-tree / IR-tree / MIR-tree / MIUR-tree node extents and for the
/// super-user MBR of §5.2. A `Rect` may be degenerate (a point) — the paper's
/// leaf entries bound a single location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left and upper-right corners.
    ///
    /// # Panics
    /// In debug builds, panics when the corners are inverted.
    #[inline]
    pub fn new(min: Point, max: Point) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y, "inverted rect corners");
        Rect { min, max }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// The smallest rectangle enclosing all `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r.expand_point(p);
        }
        Some(r)
    }

    /// The smallest rectangle enclosing all `rects`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding_rects(rects: impl IntoIterator<Item = Rect>) -> Option<Self> {
        let mut it = rects.into_iter();
        let mut acc = it.next()?;
        for r in it {
            acc.expand(&r);
        }
        Some(acc)
    }

    /// Grows this rectangle to also cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows this rectangle to also cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &Rect) {
        self.min.x = self.min.x.min(other.min.x);
        self.min.y = self.min.y.min(other.min.y);
        self.max.x = self.max.x.max(other.max.x);
        self.max.y = self.max.y.max(other.max.y);
    }

    /// The union of two rectangles (smallest rect covering both).
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        let mut r = *self;
        r.expand(other);
        r
    }

    /// Rectangle width (x extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Rectangle height (y extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle; 0 for degenerate rects.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter, the classic R-tree split heuristic metric.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Increase in area if this rect were enlarged to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// True if `p` lies inside or on the border of this rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// True if `other` lies fully inside this rectangle.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains_point(&other.min) && self.contains_point(&other.max)
    }

    /// True if the two rectangles share any point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Minimum Euclidean distance from `p` to any point of this rectangle
    /// (0 when `p` is inside). This is the classic `MINDIST` of R-tree
    /// literature, used for `MinSS` in the paper's upper bounds.
    #[inline]
    pub fn min_dist_point(&self, p: &Point) -> f64 {
        self.min_dist_sq_point(p).sqrt()
    }

    /// Squared version of [`Rect::min_dist_point`].
    #[inline]
    pub fn min_dist_sq_point(&self, p: &Point) -> f64 {
        let dx = clamp_excess(p.x, self.min.x, self.max.x);
        let dy = clamp_excess(p.y, self.min.y, self.max.y);
        dx * dx + dy * dy
    }

    /// Maximum Euclidean distance from `p` to any point of this rectangle,
    /// i.e. the distance to the farthest corner. Used for `MaxSS` in the
    /// paper's lower bounds.
    #[inline]
    pub fn max_dist_point(&self, p: &Point) -> f64 {
        self.max_dist_sq_point(p).sqrt()
    }

    /// Squared version of [`Rect::max_dist_point`].
    #[inline]
    pub fn max_dist_sq_point(&self, p: &Point) -> f64 {
        let dx = (p.x - self.min.x).abs().max((p.x - self.max.x).abs());
        let dy = (p.y - self.min.y).abs().max((p.y - self.max.y).abs());
        dx * dx + dy * dy
    }

    /// Minimum Euclidean distance between any pair of points drawn from the
    /// two rectangles (0 when they intersect). `MinSS(E.l, us.l)` in §5.3 is
    /// computed from this distance.
    #[inline]
    pub fn min_dist_rect(&self, other: &Rect) -> f64 {
        let dx = axis_gap(self.min.x, self.max.x, other.min.x, other.max.x);
        let dy = axis_gap(self.min.y, self.max.y, other.min.y, other.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum Euclidean distance between any pair of points drawn from the
    /// two rectangles. `MaxSS(E.l, us.l)` in §5.3 is computed from this.
    #[inline]
    pub fn max_dist_rect(&self, other: &Rect) -> f64 {
        let dx = (self.max.x - other.min.x)
            .abs()
            .max((other.max.x - self.min.x).abs());
        let dy = (self.max.y - other.min.y)
            .abs()
            .max((other.max.y - self.min.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The diagonal length of this rectangle: the maximum distance between
    /// any two points inside it. Used to derive the dataspace `dmax`.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.dist(&self.max)
    }
}

/// Distance from `v` to the interval `[lo, hi]` (±0 when inside), without
/// a branch: outside, exactly one of the two differences is positive.
/// Callers square it, so the sign of a zero never shows.
#[inline]
fn clamp_excess(v: f64, lo: f64, hi: f64) -> f64 {
    (lo - v).max(v - hi).max(0.0)
}

/// Gap between two 1-D intervals (0 when they overlap).
#[inline]
fn axis_gap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> f64 {
    if a_hi < b_lo {
        b_lo - a_hi
    } else if b_hi < a_lo {
        a_lo - b_hi
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn bounding_of_points() {
        let r = Rect::bounding([
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ])
        .unwrap();
        assert_eq!(r, rect(-2.0, -1.0, 4.0, 5.0));
    }

    #[test]
    fn bounding_empty_is_none() {
        assert!(Rect::bounding(std::iter::empty()).is_none());
        assert!(Rect::bounding_rects(std::iter::empty()).is_none());
    }

    #[test]
    fn union_and_enlargement() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(2.0, 0.0, 3.0, 1.0);
        let u = a.union(&b);
        assert_eq!(u, rect(0.0, 0.0, 3.0, 1.0));
        assert_eq!(a.enlargement(&b), 3.0 - 1.0);
    }

    #[test]
    fn containment_and_intersection() {
        let outer = rect(0.0, 0.0, 10.0, 10.0);
        let inner = rect(2.0, 2.0, 3.0, 3.0);
        let off = rect(11.0, 11.0, 12.0, 12.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.intersects(&inner));
        assert!(!outer.intersects(&off));
        // Touching borders count as intersecting.
        let touch = rect(10.0, 0.0, 11.0, 1.0);
        assert!(outer.intersects(&touch));
    }

    #[test]
    fn min_dist_point_inside_is_zero() {
        let r = rect(0.0, 0.0, 4.0, 4.0);
        assert_eq!(r.min_dist_point(&Point::new(2.0, 2.0)), 0.0);
        assert_eq!(r.min_dist_point(&Point::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn min_dist_point_outside() {
        let r = rect(0.0, 0.0, 4.0, 4.0);
        // Straight out along x.
        assert_eq!(r.min_dist_point(&Point::new(7.0, 2.0)), 3.0);
        // Diagonal from corner: 3-4-5.
        assert_eq!(r.min_dist_point(&Point::new(7.0, 8.0)), 5.0);
    }

    #[test]
    fn max_dist_point_is_farthest_corner() {
        let r = rect(0.0, 0.0, 4.0, 4.0);
        // From origin corner the farthest corner is (4,4).
        assert_eq!(r.max_dist_point(&Point::new(0.0, 0.0)), 32.0_f64.sqrt());
        // From outside, farthest corner is (0,0): dist((7,8),(0,0)).
        let d = Point::new(7.0, 8.0).dist(&Point::new(0.0, 0.0));
        assert_eq!(r.max_dist_point(&Point::new(7.0, 8.0)), d);
    }

    #[test]
    fn rect_rect_min_dist_overlapping_is_zero() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(3.0, 3.0, 6.0, 6.0);
        assert_eq!(a.min_dist_rect(&b), 0.0);
    }

    #[test]
    fn rect_rect_min_dist_disjoint() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(4.0, 5.0, 6.0, 7.0);
        // Gap is 3 in x and 4 in y → 5.
        assert_eq!(a.min_dist_rect(&b), 5.0);
        assert_eq!(b.min_dist_rect(&a), 5.0);
    }

    #[test]
    fn rect_rect_max_dist() {
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(4.0, 0.0, 5.0, 1.0);
        // Farthest pair: (0,0)..(5,1) or (0,1)..(5,0) → sqrt(26).
        assert!((a.max_dist_rect(&b) - 26.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_rect_behaves_like_point() {
        let p = Point::new(2.0, 3.0);
        let r = Rect::from_point(p);
        assert_eq!(r.area(), 0.0);
        assert_eq!(r.diagonal(), 0.0);
        let q = Point::new(5.0, 7.0);
        assert_eq!(r.min_dist_point(&q), p.dist(&q));
        assert_eq!(r.max_dist_point(&q), p.dist(&q));
    }

    #[test]
    fn margin_and_center() {
        let r = rect(0.0, 0.0, 4.0, 2.0);
        assert_eq!(r.margin(), 6.0);
        assert_eq!(r.center(), Point::new(2.0, 1.0));
    }
}

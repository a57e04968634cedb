//! 2-D points and point-to-point distances.

/// A location in the 2-D dataspace.
///
/// The paper's objects and users each carry a spatial location `o.l` / `u.l`;
/// this is that location. Coordinates are `f64` degrees (or any consistent
/// planar unit — all scores are normalized by the dataspace diameter, so the
/// unit cancels).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude in the paper's datasets).
    pub x: f64,
    /// Vertical coordinate (latitude in the paper's datasets).
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// True when both coordinates are finite (neither NaN nor infinite):
    /// every distance and bound in the dataspace needs it.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::dist`] in comparisons: it avoids the square
    /// root and is therefore cheaper inside tree-traversal hot loops.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other` (Eq. 2's `dist`).
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = Point::new(3.5, -2.0);
        assert_eq!(p.dist(&p), 0.0);
        assert_eq!(p.dist_sq(&p), 0.0);
    }

    #[test]
    fn pythagorean_triple() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.25, 7.5);
        let b = Point::new(-3.0, 2.0);
        assert_eq!(a.dist(&b), b.dist(&a));
    }

    #[test]
    fn negative_coordinates() {
        let a = Point::new(-1.0, -1.0);
        let b = Point::new(-4.0, -5.0);
        assert_eq!(a.dist(&b), 5.0);
    }
}

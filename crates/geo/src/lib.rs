//! Spatial primitives for the MaxBRSTkNN reproduction.
//!
//! This crate provides the 2-D geometry substrate used by every index and
//! algorithm in the workspace:
//!
//! * [`Point`] — a location in the plane,
//! * [`Rect`] — an axis-aligned minimum bounding rectangle (MBR),
//! * minimum / maximum Euclidean distances between points and rectangles,
//! * [`SpatialContext`] — the normalized spatial proximity `SS` of Eq. (2)
//!   in the paper: `SS(a, b) = 1 − dist(a, b) / dmax`, where `dmax` is the
//!   maximum distance between any two points in the dataspace.
//!
//! All distances are Euclidean (`L2`), matching §3 of the paper. Scores are
//! normalized into `[0, 1]`, higher meaning *more* relevant.

#![forbid(unsafe_code)]

mod point;
mod proximity;
mod rect;

pub use point::Point;
pub use proximity::SpatialContext;
pub use rect::Rect;

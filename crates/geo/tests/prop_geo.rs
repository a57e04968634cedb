//! Randomized-property tests for the spatial substrate.
//!
//! These invariants are what the paper's bound proofs (Lemma 2, §6.1) lean
//! on: MINDIST lower-bounds and MAXDIST upper-bounds every point-pair
//! distance, and proximity is monotone in distance.
//!
//! Cases are generated by a seeded SplitMix64 stream (no `proptest`
//! dependency — the registry is unavailable in the build environment), so
//! every run explores the same instances and failures reproduce exactly.

use geo::{Point, Rect, SpatialContext};

const CASES: usize = 1_000;

use splitmix::SplitMix64 as Gen;

/// Domain-specific case generators on the shared SplitMix64 core.
trait GenExt {
    fn pt(&mut self) -> Point;
    fn rect(&mut self) -> Rect;
    /// A rect together with a point inside it.
    fn rect_with_inner(&mut self) -> (Rect, Point);
}

impl GenExt for Gen {
    fn pt(&mut self) -> Point {
        Point::new(self.range(-100.0, 100.0), self.range(-100.0, 100.0))
    }

    fn rect(&mut self) -> Rect {
        let (a, b) = (self.pt(), self.pt());
        Rect::new(
            Point::new(a.x.min(b.x), a.y.min(b.y)),
            Point::new(a.x.max(b.x), a.y.max(b.y)),
        )
    }

    fn rect_with_inner(&mut self) -> (Rect, Point) {
        let r = self.rect();
        let (fx, fy) = (self.unit(), self.unit());
        let p = Point::new(
            r.min.x + fx * (r.max.x - r.min.x),
            r.min.y + fy * (r.max.y - r.min.y),
        );
        (r, p)
    }
}

#[test]
fn min_dist_point_bounds_inner_distance() {
    let mut g = Gen(1);
    for _ in 0..CASES {
        let (r, inner) = g.rect_with_inner();
        let q = g.pt();
        let d = q.dist(&inner);
        assert!(r.min_dist_point(&q) <= d + 1e-9);
        assert!(r.max_dist_point(&q) >= d - 1e-9);
    }
}

#[test]
fn rect_rect_dists_bound_point_pairs() {
    let mut g = Gen(2);
    for _ in 0..CASES {
        let (ra, pa) = g.rect_with_inner();
        let (rb, pb) = g.rect_with_inner();
        let d = pa.dist(&pb);
        assert!(ra.min_dist_rect(&rb) <= d + 1e-9);
        assert!(ra.max_dist_rect(&rb) >= d - 1e-9);
    }
}

#[test]
fn rect_dists_are_symmetric() {
    let mut g = Gen(3);
    for _ in 0..CASES {
        let (a, b) = (g.rect(), g.rect());
        assert!((a.min_dist_rect(&b) - b.min_dist_rect(&a)).abs() < 1e-9);
        assert!((a.max_dist_rect(&b) - b.max_dist_rect(&a)).abs() < 1e-9);
    }
}

#[test]
fn union_contains_both() {
    let mut g = Gen(4);
    for _ in 0..CASES {
        let (a, b) = (g.rect(), g.rect());
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
    }
}

#[test]
fn union_is_commutative() {
    let mut g = Gen(5);
    for _ in 0..CASES {
        let (a, b) = (g.rect(), g.rect());
        assert_eq!(a.union(&b), b.union(&a));
    }
}

#[test]
fn enlargement_nonnegative() {
    let mut g = Gen(6);
    for _ in 0..CASES {
        let (a, b) = (g.rect(), g.rect());
        assert!(a.enlargement(&b) >= -1e-9);
    }
}

#[test]
fn proximity_monotone_in_distance() {
    let mut g = Gen(7);
    let ctx = SpatialContext::with_dmax(150.0);
    for _ in 0..CASES {
        let d1 = g.range(0.0, 200.0);
        let d2 = g.range(0.0, 200.0);
        if d1 <= d2 {
            assert!(ctx.proximity(d1) >= ctx.proximity(d2));
        } else {
            assert!(ctx.proximity(d1) <= ctx.proximity(d2));
        }
    }
}

#[test]
fn proximity_in_unit_interval() {
    let mut g = Gen(8);
    let ctx = SpatialContext::with_dmax(150.0);
    for _ in 0..CASES {
        let p = ctx.proximity(g.range(0.0, 1000.0));
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn ss_bounds_bracket_true_ss() {
    let mut g = Gen(9);
    let ctx = SpatialContext::with_dmax(600.0);
    for _ in 0..CASES {
        let (r, inner) = g.rect_with_inner();
        let (q, qinner) = g.rect_with_inner();
        let true_ss = ctx.ss_points(&inner, &qinner);
        assert!(ctx.min_ss(&r, &q) >= true_ss - 1e-9);
        assert!(ctx.max_ss(&r, &q) <= true_ss + 1e-9);
    }
}

/// The point-against-MBR bounds bracket every location of the MBR
/// *exactly* — no epsilon: for `r` the bounding box of the locations `L`,
/// `max_ss_point(p, r) ≤ ss_points(ℓ, p) ≤ min_ss_point(p, r)` for every
/// `ℓ ∈ L`, bit for bit. Candidate selection leans on this to decide a
/// user's `combine(ss, ts) ≥ RSk(u)` tests once for all of `L`.
///
/// The rounding argument: `r` is built by `min`/`max` over the
/// locations, so each coordinate of `ℓ` lies between `r`'s on that axis
/// with no rounding at all. IEEE subtraction is correctly rounded, hence
/// monotone: `fl(a − c)` never decreases as `a` grows, and
/// `fl(c − a) = −fl(a − c)` exactly. Per axis, `|fl(ℓ.x − p.x)|` is
/// therefore at most the larger of `|fl(p.x − r.min.x)|` and
/// `|fl(p.x − r.max.x)|` (what `max_dist_sq_point` takes) and at least
/// `clamp_excess`'s gap (0 inside, `fl(r.min.x − p.x)` or
/// `fl(p.x − r.max.x)` outside). Every later step — squaring a
/// non-negative value, the sum of the two axes, `sqrt`, the division by
/// `dmax`, `1 − d`, the clamp at 0 — is correctly rounded or exact and
/// monotone, so the order survives to the three scores. Ties included:
/// the clamp makes every distance beyond `dmax` score exactly 0 on all
/// three sides.
#[test]
fn point_rect_ss_bounds_bracket_every_location_exactly() {
    let mut g = Gen(11);
    let (mut inside, mut clamped, mut tight) = (0, 0, 0);
    for case in 0..CASES {
        // Coordinates near 0, at unit scale, and near 1e6, where a
        // subtraction loses most of its low bits.
        let (base, spread) = match case % 3 {
            0 => (0.0, 1e-3),
            1 => (0.0, 100.0),
            _ => (1e6, 2.0),
        };
        let draw = |g: &mut Gen| {
            Point::new(
                base + g.range(-spread, spread),
                base + g.range(-spread, spread),
            )
        };
        let locs: Vec<Point> = (0..1 + g.below(6)).map(|_| draw(&mut g)).collect();
        let r = Rect::bounding(locs.iter().copied()).expect("at least one location");
        // Half the users inside the box (a convex mix of two locations,
        // pulled back onto the box), half anywhere in the window.
        let p = if case % 2 == 0 {
            let (a, b, f) = (locs[0], locs[locs.len() - 1], g.unit());
            Point::new(
                (a.x + f * (b.x - a.x)).clamp(r.min.x, r.max.x),
                (a.y + f * (b.y - a.y)).clamp(r.min.y, r.max.y),
            )
        } else {
            draw(&mut g)
        };
        // `dmax` from well below the window (most distances clamp) to
        // well above it.
        let ctx = SpatialContext::with_dmax(spread * [0.05, 0.5, 4.0][g.below(3) as usize]);
        let (lo, hi) = (ctx.max_ss_point(&p, &r), ctx.min_ss_point(&p, &r));
        inside += usize::from(r.contains_point(&p));
        for l in &locs {
            let ss = ctx.ss_points(l, &p);
            assert!(
                lo <= ss && ss <= hi,
                "case {case}: {lo:e} ≤ {ss:e} ≤ {hi:e} fails for p {p:?}, ℓ {l:?}, r {r:?}"
            );
            clamped += usize::from(ss == 0.0);
            tight += usize::from(lo == ss || ss == hi);
        }
    }
    assert!(
        inside > CASES / 3 && clamped > CASES / 2 && tight > CASES,
        "coverage: {inside} inside, {clamped} clamped, {tight} tight"
    );
}

/// `min_ss_point_bounds(q, r)` brackets `min_ss_point(ℓ, r)` for every
/// location `ℓ` of `q` bit for bit: the `UBL` test of a user subtree `r`
/// is decided for every location at once from it.
#[test]
fn rect_ss_bounds_bracket_every_location_exactly() {
    let mut g = Gen(12);
    let (mut inside, mut clamped, mut tight) = (0, 0, 0);
    for case in 0..CASES {
        let (base, spread) = match case % 3 {
            0 => (0.0, 1e-3),
            1 => (0.0, 100.0),
            _ => (1e6, 2.0),
        };
        let draw = |g: &mut Gen| {
            Point::new(
                base + g.range(-spread, spread),
                base + g.range(-spread, spread),
            )
        };
        let locs: Vec<Point> = (0..1 + g.below(6)).map(|_| draw(&mut g)).collect();
        let q = Rect::bounding(locs.iter().copied()).expect("at least one location");
        // A subtree box anywhere in the window; every other case a point.
        let r = Rect::bounding([
            draw(&mut g),
            if case % 2 == 0 { draw(&mut g) } else { locs[0] },
        ])
        .expect("two corners");
        let ctx = SpatialContext::with_dmax(spread * [0.05, 0.5, 4.0][g.below(3) as usize]);
        let (lo, hi) = ctx.min_ss_point_bounds(&q, &r);
        for l in &locs {
            let ss = ctx.min_ss_point(l, &r);
            assert!(
                lo <= ss && ss <= hi,
                "case {case}: {lo:e} ≤ {ss:e} ≤ {hi:e} fails for ℓ {l:?}, q {q:?}, r {r:?}"
            );
            inside += usize::from(r.contains_point(l));
            clamped += usize::from(ss == 0.0);
            tight += usize::from(lo == ss || ss == hi);
        }
    }
    assert!(
        inside > CASES / 4 && clamped > CASES / 2 && tight > CASES,
        "coverage: {inside} inside, {clamped} clamped, {tight} tight"
    );
}

#[test]
fn triangle_inequality() {
    let mut g = Gen(10);
    for _ in 0..CASES {
        let (a, b, c) = (g.pt(), g.pt(), g.pt());
        assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
    }
}

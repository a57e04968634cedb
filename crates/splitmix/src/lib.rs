//! Seeded SplitMix64 stream — the workspace's single canonical PRNG core.
//!
//! The build environment has no network access to crates.io, so the
//! workspace carries its own deterministic generator instead of `rand`.
//! This crate is the one implementation of the algorithm: `datagen::rng`
//! builds its `rand`-shaped API on top of it, and the leaf crates'
//! randomized test suites (`geo`, `text`, `storage`, `index` — which sit
//! *below* `datagen` in the dependency graph) dev-depend on it directly.
//!
//! SplitMix64 is small, fast, passes BigCrush on its 64-bit output, and —
//! unlike external PRNG crates — is guaranteed stable forever, so seeded
//! datasets and test cases reproduce byte-for-byte across toolchains.

#![forbid(unsafe_code)]

/// Maps a raw 64-bit draw onto `0..n` (Lemire multiply-shift bounded
/// draw; bias is < 2⁻⁶⁴ per draw, far below anything the statistical
/// tests observe).
#[inline]
pub fn bounded(raw: u64, n: u64) -> u64 {
    ((raw as u128 * n as u128) >> 64) as u64
}

/// Maps a raw 64-bit draw onto `[0, 1)` with 53 bits of precision (the
/// full mantissa of an `f64`).
#[inline]
pub fn unit_from(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded SplitMix64 stream. Equal seeds give equal streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        bounded(self.next_u64(), n)
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        unit_from(self.next_u64())
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64(9);
        let mut b = SplitMix64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64(1);
        let mut b = SplitMix64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut g = SplitMix64(3);
        for _ in 0..10_000 {
            let x = g.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_covers_and_respects_bound() {
        let mut g = SplitMix64(4);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[g.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_respects_bounds() {
        let mut g = SplitMix64(5);
        for _ in 0..10_000 {
            let x = g.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }
}

//! Simulated disk substrate for the MaxBRSTkNN reproduction.
//!
//! The paper's indexes are disk resident with a 4 KB page size, and its
//! experiments report *simulated* I/O (§8): the counter grows by 1 whenever
//! a tree node is visited, and by the number of 4 KB blocks of a posting
//! list whenever an inverted file is loaded. This crate reproduces that
//! substrate:
//!
//! * [`BlockFile`] — an append-only record store standing in for a disk
//!   file; records are byte payloads addressed by [`RecordId`],
//! * [`IoStats`] — the simulated I/O counter with exactly the paper's
//!   accounting rule,
//! * [`mod@codec`] — little-endian serialization helpers plus the pluggable
//!   per-block-file [`Codec`] implementations ([`CodecId::Verbatim`] lays
//!   out nodes and inverted files byte-exactly, [`CodecId::Columnar`]
//!   re-encodes them column-wise).
//!
//! Queries in the evaluation are *cold*: the substrate deliberately has no
//! buffer pool, so every node visit is charged. For warm-cache serving
//! (beyond the paper), [`IoStats::with_cache`] attaches a lock-striped LRU
//! page cache ([`ShardedLru`]) so concurrent batch workers can probe it
//! without serializing on a single lock.

// The one `unsafe` block of the workspace is the CPU hint in
// `store::prefetch` (a byte range of a record, clamped to it), allowed
// there alone; `BlockFile::prefetch` and the index's posting-list
// prefetch both call it.
#![deny(unsafe_code)]

mod cache;
pub mod codec;
mod file;
mod io;
mod sharded;
mod store;

pub use cache::LruSet;
pub use codec::{codec, Codec, CodecId};
pub use file::{load_blockfile, save_blockfile};
pub use io::{IoSnapshot, IoStats};
pub use sharded::{ShardedLru, DEFAULT_SHARDS, MIN_SHARD_BLOCKS};
pub use store::{prefetch, BlockFile, RecordId};

/// Disk page size in bytes (§8: "the page size was fixed at 4 kB").
pub const PAGE_SIZE: usize = 4096;

/// Number of 4 KB blocks needed to store `bytes` bytes (0 for empty).
#[inline]
pub fn blocks_for(bytes: usize) -> u64 {
    (bytes as u64).div_ceil(PAGE_SIZE as u64)
}

/// Number of distinct 4 KB pages overlapped by the half-open byte ranges
/// `(start, end)` — the charge for a partial-column read that touches only
/// some extents of a record. Ranges may overlap or arrive unsorted; empty
/// ranges are free. Every touched page is charged exactly once no matter
/// how many ranges overlap it (see the boundary and randomized
/// differential tests below, which pin this against a brute-force page
/// set). For a single range `(0, len)` this equals [`blocks_for`]`(len)`.
pub fn pages_for_ranges(ranges: &[(usize, usize)]) -> u64 {
    // Fast path: ranges already ascending by start — the layout order the
    // columnar decoders emit touched extents in. Counting distinct pages
    // then needs one pass and no allocation, which keeps warm query
    // kernels allocation-free.
    if ranges.windows(2).all(|w| w[0].0 <= w[1].0) {
        let mut total = 0u64;
        let mut covered_through: Option<usize> = None;
        for &(start, end) in ranges {
            if end <= start {
                continue;
            }
            let (first, last) = (start / PAGE_SIZE, (end - 1) / PAGE_SIZE);
            let from = match covered_through {
                Some(c) if first <= c => c + 1,
                _ => first,
            };
            if from <= last {
                total += (last - from + 1) as u64;
                covered_through = Some(last);
            }
        }
        return total;
    }
    let mut pages: Vec<(usize, usize)> = ranges
        .iter()
        .filter(|&&(start, end)| end > start)
        .map(|&(start, end)| (start / PAGE_SIZE, (end - 1) / PAGE_SIZE))
        .collect();
    pages.sort_unstable();
    let mut total = 0u64;
    let mut covered_through: Option<usize> = None;
    for (first, last) in pages {
        let from = match covered_through {
            Some(c) if first <= c => c + 1,
            _ => first,
        };
        if from <= last {
            total += (last - from + 1) as u64;
            covered_through = Some(last);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_for_boundaries() {
        assert_eq!(blocks_for(0), 0);
        assert_eq!(blocks_for(1), 1);
        assert_eq!(blocks_for(PAGE_SIZE), 1);
        assert_eq!(blocks_for(PAGE_SIZE + 1), 2);
        assert_eq!(blocks_for(3 * PAGE_SIZE), 3);
    }

    #[test]
    fn pages_for_ranges_matches_blocks_for_whole_records() {
        for len in [1, PAGE_SIZE, PAGE_SIZE + 1, 5 * PAGE_SIZE + 17] {
            assert_eq!(pages_for_ranges(&[(0, len)]), blocks_for(len), "{len}");
        }
        assert_eq!(pages_for_ranges(&[]), 0);
        assert_eq!(pages_for_ranges(&[(10, 10)]), 0, "empty range is free");
    }

    #[test]
    fn pages_for_ranges_counts_distinct_pages_once() {
        let p = PAGE_SIZE;
        // Two ranges inside the same page: one page.
        assert_eq!(pages_for_ranges(&[(0, 10), (100, 200)]), 1);
        // Straddling a boundary: two pages.
        assert_eq!(pages_for_ranges(&[(p - 1, p + 1)]), 2);
        // Disjoint pages with a skipped page between them.
        assert_eq!(pages_for_ranges(&[(0, 10), (2 * p + 5, 2 * p + 6)]), 2);
        // Overlapping and unsorted ranges still count each page once.
        assert_eq!(
            pages_for_ranges(&[(3 * p, 4 * p), (0, 2 * p), (p, 3 * p + 1)]),
            4
        );
    }

    /// Overlap boundary cases: identical ranges, nested ranges, a range
    /// subsuming earlier ones, and partial page-straddling overlaps must
    /// all charge each distinct page exactly once (no double-charge), on
    /// both the sorted fast path and the unsorted fallback.
    #[test]
    fn pages_for_ranges_never_double_charges_overlaps() {
        let p = PAGE_SIZE;
        // Identical ranges (sorted fast path).
        assert_eq!(pages_for_ranges(&[(0, 2 * p), (0, 2 * p)]), 2);
        // Nested: the second range lies inside the first.
        assert_eq!(pages_for_ranges(&[(0, 4 * p), (p, 2 * p)]), 4);
        // Subsuming, unsorted: the last range covers everything.
        assert_eq!(
            pages_for_ranges(&[(2 * p, 3 * p), (p, 2 * p), (0, 4 * p)]),
            4
        );
        // Equal starts with shrinking ends (ascending-start fast path).
        assert_eq!(pages_for_ranges(&[(0, 3 * p), (0, 10)]), 3);
        // Page-straddling overlap: both ranges share the middle page.
        assert_eq!(pages_for_ranges(&[(p - 1, p + 1), (p + 1, 2 * p + 1)]), 3);
        // Overlap after a skipped page: pages 0, 2, 3 — pages 2 and 3
        // shared by the last two ranges, charged once each.
        assert_eq!(
            pages_for_ranges(&[(0, 10), (2 * p, 3 * p + 1), (2 * p + 5, 4 * p)]),
            3
        );
    }

    #[test]
    fn pages_for_ranges_adjacent_unsorted_and_zero_length() {
        let p = PAGE_SIZE;
        // Adjacent byte ranges within one page: one page.
        assert_eq!(pages_for_ranges(&[(0, 10), (10, 20)]), 1);
        // Adjacent ranges meeting exactly at a page boundary: no overlap,
        // both pages charged.
        assert_eq!(pages_for_ranges(&[(0, p), (p, 2 * p)]), 2);
        // Unsorted adjacency.
        assert_eq!(pages_for_ranges(&[(p, 2 * p), (0, p)]), 2);
        // Zero-length ranges are free wherever they appear, including
        // interleaved with real ranges and at page boundaries.
        assert_eq!(pages_for_ranges(&[(0, 0), (p, p), (5 * p, 5 * p)]), 0);
        assert_eq!(pages_for_ranges(&[(0, 10), (p, p), (p, 2 * p)]), 2);
        // A zero-length range between out-of-order real ranges must not
        // mask the unsorted fallback.
        assert_eq!(pages_for_ranges(&[(2 * p, 3 * p), (0, 0), (0, p)]), 2);
    }

    /// Seeded randomized differential test: the incremental two-path
    /// implementation must agree with a brute-force distinct-page set on
    /// arbitrary (overlapping, unsorted, zero-length, adjacent) inputs.
    /// This is the regression net for the partial-column I/O accounting:
    /// an over-count here would double-charge every columnar posting read
    /// whose wanted lists share a page.
    #[test]
    fn pages_for_ranges_matches_brute_force_on_random_inputs() {
        fn brute(ranges: &[(usize, usize)]) -> u64 {
            let mut pages: Vec<usize> = ranges
                .iter()
                .filter(|&&(s, e)| e > s)
                .flat_map(|&(s, e)| (s / PAGE_SIZE)..=((e - 1) / PAGE_SIZE))
                .collect();
            pages.sort_unstable();
            pages.dedup();
            pages.len() as u64
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..4_000 {
            let n = (next() % 7) as usize;
            let ranges: Vec<(usize, usize)> = (0..n)
                .map(|_| {
                    // Spread starts across ~6 pages; lengths up to ~2
                    // pages including 0 — dense enough that overlaps,
                    // adjacency and shared pages all occur constantly.
                    let s = (next() as usize) % (6 * PAGE_SIZE);
                    let len = (next() as usize) % (2 * PAGE_SIZE + 1);
                    (s, s + len)
                })
                .collect();
            assert_eq!(
                pages_for_ranges(&ranges),
                brute(&ranges),
                "trial {trial}: {ranges:?}"
            );
        }
    }
}

//! Simulated I/O accounting (§8 "Setup").

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::sharded::ShardedLru;

thread_local! {
    // Per-thread mirrors of the global counters, so concurrent queries can
    // each measure their own I/O delta without tearing the shared totals
    // apart (see [`IoStats::scoped`]). Every charge lands in both.
    static THREAD_NODE_VISITS: Cell<u64> = const { Cell::new(0) };
    static THREAD_INVFILE_BLOCKS: Cell<u64> = const { Cell::new(0) };
    static THREAD_CACHE_HITS: Cell<u64> = const { Cell::new(0) };
    static THREAD_CACHE_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// The simulated I/O counter.
///
/// Accounting rule, verbatim from the paper: *"The number of simulated I/Os
/// is increased by 1 when a node of a tree is visited. When an inverted
/// file is loaded, the number of simulated I/Os is increased by the number
/// of blocks (4 kB per block) for storing the list."*
///
/// By default every access is charged — the paper's *cold* model. For
/// warm-cache serving, [`IoStats::with_cache`] attaches a sharded LRU page
/// cache ([`ShardedLru`]); keyed accesses that hit it are then free,
/// modelling an OS page cache, and the counter additionally tracks cache
/// hits and misses (surfaced through [`IoSnapshot`]).
///
/// Counters are atomic so a shared reference can be threaded through index
/// and algorithm layers without interior-mutability plumbing; the page
/// cache is lock-striped so concurrent batch workers don't serialize on a
/// single cache lock.
#[derive(Debug, Default)]
pub struct IoStats {
    node_visits: AtomicU64,
    invfile_blocks: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache: Option<ShardedLru>,
}

/// A point-in-time copy of [`IoStats`], used to measure deltas per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Tree nodes visited (1 simulated I/O each).
    pub node_visits: u64,
    /// 4 KB blocks of inverted-file data loaded.
    pub invfile_blocks: u64,
    /// Keyed accesses served by the attached page cache (0 without one).
    /// Hits are free: they do not contribute to [`IoSnapshot::total`].
    pub cache_hits: u64,
    /// Keyed accesses that missed the attached page cache (0 without one).
    pub cache_misses: u64,
}

impl IoSnapshot {
    /// Total simulated I/O operations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.node_visits + self.invfile_blocks
    }
}

/// Component-wise difference of two snapshots.
///
/// Saturating: if [`IoStats::reset`] lands between the two snapshots the
/// minuend can be smaller than the subtrahend, and a wrapping subtraction
/// would panic in debug builds or produce garbage totals in release. The
/// contract is that deltas are only meaningful when no reset intervened;
/// when one did, saturation clamps the affected components to zero instead
/// of wrapping.
impl std::ops::Sub for IoSnapshot {
    type Output = IoSnapshot;
    fn sub(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            node_visits: self.node_visits.saturating_sub(rhs.node_visits),
            invfile_blocks: self.invfile_blocks.saturating_sub(rhs.invfile_blocks),
            cache_hits: self.cache_hits.saturating_sub(rhs.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(rhs.cache_misses),
        }
    }
}

impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;
    fn add(self, rhs: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            node_visits: self.node_visits + rhs.node_visits,
            invfile_blocks: self.invfile_blocks + rhs.invfile_blocks,
            cache_hits: self.cache_hits + rhs.cache_hits,
            cache_misses: self.cache_misses + rhs.cache_misses,
        }
    }
}

impl std::iter::Sum for IoSnapshot {
    fn sum<I: Iterator<Item = IoSnapshot>>(iter: I) -> IoSnapshot {
        iter.fold(IoSnapshot::default(), std::ops::Add::add)
    }
}

impl IoStats {
    /// A fresh counter at zero (cold model — no cache).
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter backed by a sharded LRU page cache of `capacity_blocks`
    /// 4 KB blocks with the default shard count (warm-cache serving; the
    /// benchmark's `storage.page_cache_hit_ratio` row).
    pub fn with_cache(capacity_blocks: u64) -> Self {
        IoStats {
            cache: Some(ShardedLru::new(capacity_blocks)),
            ..Self::default()
        }
    }

    /// [`IoStats::with_cache`] with an explicit shard count (rounded up to
    /// a power of two).
    pub fn with_cache_sharded(capacity_blocks: u64, shards: usize) -> Self {
        IoStats {
            cache: Some(ShardedLru::with_shards(capacity_blocks, shards)),
            ..Self::default()
        }
    }

    /// The attached page cache, if any.
    pub fn cache(&self) -> Option<&ShardedLru> {
        self.cache.as_ref()
    }

    /// A fresh counter with the same page-cache *configuration*: zeroed
    /// counters and, when a cache is attached, an empty cache of identical
    /// capacity and shard layout. The corpus-refresh and copy-on-write
    /// paths use this so a rebuilt or cloned engine keeps its serving
    /// configuration without inheriting warm state.
    pub fn fork(&self) -> IoStats {
        match &self.cache {
            Some(c) => IoStats::with_cache_sharded(c.capacity_blocks(), c.num_shards()),
            None => IoStats::new(),
        }
    }

    /// Flushes the given keys from the attached page cache (no-op without
    /// one). Index mutations call this for every record they rewrite or
    /// free, so a stale page can never satisfy a post-mutation read.
    pub fn evict_keys(&self, keys: impl IntoIterator<Item = u64>) {
        if let Some(cache) = &self.cache {
            for key in keys {
                cache.remove(key);
            }
        }
    }

    /// Charge one node visit.
    #[inline]
    pub fn charge_node_visit(&self) {
        self.node_visits.fetch_add(1, Ordering::Relaxed);
        THREAD_NODE_VISITS.with(|c| c.set(c.get() + 1));
    }

    /// Charge a node visit identified by `key`; free on a cache hit.
    #[inline]
    pub fn charge_node_visit_keyed(&self, key: u64) {
        if let Some(cache) = &self.cache {
            if cache.access(key, 1) {
                self.note_cache_hit();
                return;
            }
            self.note_cache_miss();
        }
        self.charge_node_visit();
    }

    /// Charge an inverted-file load of `bytes` bytes (⌈bytes / 4096⌉ blocks).
    #[inline]
    pub fn charge_invfile(&self, bytes: usize) {
        self.charge_blocks(crate::blocks_for(bytes));
    }

    /// Charge an inverted-file load identified by `key`; free on a cache
    /// hit.
    #[inline]
    pub fn charge_invfile_keyed(&self, key: u64, bytes: usize) {
        self.charge_invfile_blocks_keyed(key, crate::blocks_for(bytes));
    }

    /// Charge a pre-computed number of blocks for a keyed inverted-file
    /// access; free on a cache hit. Partial-column reads of compressed
    /// records compute their touched-page count with
    /// [`pages_for_ranges`](crate::pages_for_ranges) and charge it here:
    /// the record keeps one cache key, sized by whatever page count the
    /// latest access touched (the LRU reconciles size changes on access).
    #[inline]
    pub fn charge_invfile_blocks_keyed(&self, key: u64, blocks: u64) {
        if blocks == 0 {
            return;
        }
        if let Some(cache) = &self.cache {
            if cache.access(key, blocks) {
                self.note_cache_hit();
                return;
            }
            self.note_cache_miss();
        }
        self.charge_blocks(blocks);
    }

    /// Charge a pre-computed number of inverted-file blocks.
    #[inline]
    pub fn charge_blocks(&self, blocks: u64) {
        if blocks > 0 {
            self.invfile_blocks.fetch_add(blocks, Ordering::Relaxed);
            THREAD_INVFILE_BLOCKS.with(|c| c.set(c.get() + blocks));
        }
    }

    #[inline]
    fn note_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        THREAD_CACHE_HITS.with(|c| c.set(c.get() + 1));
    }

    #[inline]
    fn note_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        THREAD_CACHE_MISSES.with(|c| c.set(c.get() + 1));
    }

    /// The calling thread's cumulative charges (across every `IoStats`
    /// instance the thread has touched — in practice one engine's).
    ///
    /// Unlike [`IoStats::snapshot`], deltas of this counter are exact per
    /// *query* even when other threads charge the same `IoStats`
    /// concurrently, because a query's work happens entirely on one
    /// thread. This is what makes per-query accounting in
    /// `Engine::query_batch` possible.
    pub fn thread_snapshot() -> IoSnapshot {
        IoSnapshot {
            node_visits: THREAD_NODE_VISITS.with(Cell::get),
            invfile_blocks: THREAD_INVFILE_BLOCKS.with(Cell::get),
            cache_hits: THREAD_CACHE_HITS.with(Cell::get),
            cache_misses: THREAD_CACHE_MISSES.with(Cell::get),
        }
    }

    /// Runs `f` and returns its result together with the simulated I/O the
    /// calling thread charged while inside it.
    ///
    /// The delta is taken from the thread-local mirror, so it is accurate
    /// under concurrency as long as `f` only charges this thread (true for
    /// all query algorithms — they are single-threaded internally, as in
    /// the paper).
    pub fn scoped<T>(&self, f: impl FnOnce() -> T) -> (T, IoSnapshot) {
        let before = Self::thread_snapshot();
        let out = f();
        (out, Self::thread_snapshot() - before)
    }

    /// Current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            node_visits: self.node_visits.load(Ordering::Relaxed),
            invfile_blocks: self.invfile_blocks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
        }
    }

    /// Total simulated I/Os so far.
    pub fn total(&self) -> u64 {
        self.snapshot().total()
    }

    /// Resets every counter to zero and empties any attached cache (cold
    /// start for the next trial).
    ///
    /// Contract: snapshot deltas are only meaningful when no `reset`
    /// happened between the two snapshots. A delta straddling a reset
    /// saturates to zero per component (see the [`IoSnapshot`] `Sub` impl)
    /// rather than wrapping.
    pub fn reset(&self) {
        self.node_visits.store(0, Ordering::Relaxed);
        self.invfile_blocks.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.cache_misses.store(0, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn node_visit_counts_one() {
        let io = IoStats::new();
        io.charge_node_visit();
        io.charge_node_visit();
        assert_eq!(io.snapshot().node_visits, 2);
        assert_eq!(io.total(), 2);
    }

    #[test]
    fn invfile_charges_blocks() {
        let io = IoStats::new();
        io.charge_invfile(1); // 1 block
        io.charge_invfile(PAGE_SIZE + 1); // 2 blocks
        io.charge_invfile(0); // nothing
        assert_eq!(io.snapshot().invfile_blocks, 3);
    }

    #[test]
    fn snapshot_delta() {
        let io = IoStats::new();
        io.charge_node_visit();
        let before = io.snapshot();
        io.charge_node_visit();
        io.charge_invfile(10);
        let delta = io.snapshot() - before;
        assert_eq!(delta.node_visits, 1);
        assert_eq!(delta.invfile_blocks, 1);
        assert_eq!(delta.total(), 2);
    }

    /// Regression: a `reset` between two snapshots used to make the delta
    /// panic in debug builds (unchecked `u64` subtraction) or wrap in
    /// release. The subtraction now saturates to zero.
    #[test]
    fn snapshot_delta_saturates_across_reset() {
        let io = IoStats::new();
        io.charge_node_visit();
        io.charge_invfile(PAGE_SIZE * 3);
        let before = io.snapshot();
        io.reset();
        io.charge_node_visit(); // 1 < the 3 invfile blocks before the reset
        let delta = io.snapshot() - before;
        assert_eq!(delta.node_visits, 0);
        assert_eq!(delta.invfile_blocks, 0);
        assert_eq!(delta.total(), 0);
    }

    #[test]
    fn keyed_charges_without_cache_always_count() {
        let io = IoStats::new();
        io.charge_node_visit_keyed(1);
        io.charge_node_visit_keyed(1);
        io.charge_invfile_keyed(2, 10);
        io.charge_invfile_keyed(2, 10);
        assert_eq!(io.snapshot().node_visits, 2);
        assert_eq!(io.snapshot().invfile_blocks, 2);
        // No cache attached → no hit/miss bookkeeping.
        assert_eq!(io.snapshot().cache_hits, 0);
        assert_eq!(io.snapshot().cache_misses, 0);
    }

    #[test]
    fn warm_cache_makes_repeat_access_free() {
        let io = IoStats::with_cache(16);
        io.charge_node_visit_keyed(1);
        io.charge_node_visit_keyed(1); // hit
        io.charge_invfile_keyed(2, PAGE_SIZE * 2);
        io.charge_invfile_keyed(2, PAGE_SIZE * 2); // hit
        assert_eq!(io.snapshot().node_visits, 1);
        assert_eq!(io.snapshot().invfile_blocks, 2);
        assert_eq!(io.snapshot().cache_hits, 2);
        assert_eq!(io.snapshot().cache_misses, 2);
    }

    #[test]
    fn tiny_cache_still_charges_when_evicting() {
        // One block, one shard: keys 1 and 2 contend for the same slot.
        let io = IoStats::with_cache_sharded(1, 1);
        io.charge_node_visit_keyed(1);
        io.charge_node_visit_keyed(2); // evicts 1
        io.charge_node_visit_keyed(1); // miss again
        assert_eq!(io.snapshot().node_visits, 3);
        assert_eq!(io.snapshot().cache_misses, 3);
    }

    #[test]
    fn evict_keys_forces_remiss_of_flushed_pages() {
        let io = IoStats::with_cache(16);
        io.charge_node_visit_keyed(1);
        io.charge_node_visit_keyed(2);
        io.evict_keys([1]);
        io.charge_node_visit_keyed(1); // flushed → miss, charged again
        io.charge_node_visit_keyed(2); // untouched → hit
        assert_eq!(io.snapshot().node_visits, 3);
        assert_eq!(io.snapshot().cache_hits, 1);
        // Without a cache the call is a harmless no-op.
        let cold = IoStats::new();
        cold.evict_keys([1, 2, 3]);
        assert_eq!(cold.total(), 0);
    }

    #[test]
    fn reset_clears_the_cache_too() {
        let io = IoStats::with_cache(16);
        io.charge_node_visit_keyed(1);
        io.reset();
        io.charge_node_visit_keyed(1); // cold again
        assert_eq!(io.snapshot().node_visits, 1);
        assert_eq!(io.snapshot().cache_hits, 0);
        assert_eq!(io.snapshot().cache_misses, 1);
    }

    #[test]
    fn scoped_measures_only_the_closure() {
        let io = IoStats::new();
        io.charge_node_visit(); // outside the scope
        let ((), delta) = io.scoped(|| {
            io.charge_node_visit();
            io.charge_invfile(PAGE_SIZE + 1);
        });
        assert_eq!(delta.node_visits, 1);
        assert_eq!(delta.invfile_blocks, 2);
        assert_eq!(io.total(), 4);
    }

    #[test]
    fn scoped_sees_cache_hits_and_misses() {
        let io = IoStats::with_cache(16);
        io.charge_node_visit_keyed(9); // miss, outside the scope
        let ((), delta) = io.scoped(|| {
            io.charge_node_visit_keyed(9); // hit
            io.charge_node_visit_keyed(10); // miss
        });
        assert_eq!(delta.cache_hits, 1);
        assert_eq!(delta.cache_misses, 1);
        assert_eq!(delta.node_visits, 1);
    }

    #[test]
    fn scoped_nests() {
        let io = IoStats::new();
        let ((inner_delta,), outer) = io.scoped(|| {
            io.charge_node_visit();
            let ((), d) = io.scoped(|| io.charge_node_visit());
            io.charge_node_visit();
            (d,)
        });
        assert_eq!(inner_delta.total(), 1);
        assert_eq!(outer.total(), 3);
    }

    #[test]
    fn scoped_is_per_thread_under_concurrency() {
        let io = IoStats::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4u64)
                .map(|n| {
                    let io = &io;
                    s.spawn(move || {
                        let ((), delta) = io.scoped(|| {
                            for _ in 0..n * 10 {
                                io.charge_node_visit();
                            }
                        });
                        delta
                    })
                })
                .collect();
            for (n, h) in (1..=4u64).zip(handles) {
                assert_eq!(h.join().unwrap().node_visits, n * 10);
            }
        });
        // The global counter saw everyone.
        assert_eq!(io.snapshot().node_visits, 100);
    }

    /// Concurrent keyed accesses through the sharded cache never lose a
    /// hit/miss: per-thread deltas sum to the global counters.
    #[test]
    fn sharded_cache_accounting_is_exact_under_concurrency() {
        let io = IoStats::with_cache(1 << 12);
        let deltas: Vec<IoSnapshot> = std::thread::scope(|s| {
            (0..4u64)
                .map(|t| {
                    let io = &io;
                    s.spawn(move || {
                        let ((), d) = io.scoped(|| {
                            for i in 0..200u64 {
                                // Private keys: hit pattern is deterministic
                                // per thread even under interleaving.
                                io.charge_node_visit_keyed(t * 1_000 + (i % 50));
                            }
                        });
                        d
                    })
                })
                .map(|h| h.join().unwrap())
                .collect()
        });
        let summed: IoSnapshot = deltas.iter().copied().sum();
        assert_eq!(summed, io.snapshot());
        // 50 distinct keys per thread → 50 misses, 150 hits each.
        for d in &deltas {
            assert_eq!(d.cache_misses, 50);
            assert_eq!(d.cache_hits, 150);
        }
    }

    /// `fork` replicates the cache configuration but nothing else: no
    /// counters, no warm pages.
    #[test]
    fn fork_copies_config_not_state() {
        let io = IoStats::with_cache_sharded(256, 4);
        io.charge_node_visit_keyed(1);
        io.charge_node_visit_keyed(1); // warm hit
        let fork = io.fork();
        assert_eq!(fork.total(), 0);
        let fc = fork.cache().unwrap();
        assert_eq!(fc.capacity_blocks(), 256);
        assert_eq!(fc.num_shards(), 4);
        assert!(fc.is_empty(), "forked cache starts cold");
        // Cold counter forks to a cold counter.
        assert!(IoStats::new().fork().cache().is_none());
    }

    #[test]
    fn reset_zeroes() {
        let io = IoStats::new();
        io.charge_node_visit();
        io.charge_invfile(100);
        io.reset();
        assert_eq!(io.total(), 0);
    }
}

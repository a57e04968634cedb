//! Cross-query top-k threshold cache — the serving-side complement of the
//! paper's per-query algorithms.
//!
//! Every [`Method`](crate::Method) starts by computing per-user `RSk`
//! thresholds (the top-k phase: the joint traversal with Algorithm 2
//! fused in at one checkpoint, or the §4 baseline, or the §7 seed over a
//! joint traversal's outcome). Those
//! thresholds depend only on the engine and `k` — not on the query's
//! candidate locations or keywords — yet a naive server recomputes them
//! for every query. [`ThresholdCache`] memoizes them per `k` so a batch of
//! same-`k` queries pays the top-k phase (and its simulated I/O) exactly
//! once.
//!
//! **The §7 slot borrows the joint slot.** A [`UserIndexSeed`] runs no
//! traversal of its own here: it reads the MIUR root and materializes it
//! over the joint slot's outcome of the same `(k, epoch)` — the same
//! `Arc`, filling the joint slot first if it is empty — so the §5/§6 and
//! §7 methods pay one top-k traversal per `(k, epoch)` between them (the
//! soundness argument is on [`UserIndexSeed`]). The seed also keeps every
//! MIUR node a query has materialized (its subtrees' `RSk` lower bounds,
//! its users' exact `RSk(u)`): the §7 pipeline computes `RSk(u)` per user
//! only when a location's expansion reaches the user's leaf, so the slot
//! fills node by node, and a node is read and materialized once per `(k,
//! epoch)` — a query whose expansions are all memoized charges no I/O.
//!
//! The cache is opt-in ([`Engine::with_threshold_cache`]) because it
//! changes what the paper's *cold* experiments measure: with it enabled,
//! only the first query of a given `k` charges top-k I/O. Entries are
//! filled through a blocking once-cell per `k`, so concurrent batch
//! workers asking for the same `k` compute it exactly once — the unlucky
//! first worker is charged the I/O, everyone else waits and gets it free
//! (see the warm-accounting note on
//! [`Engine::query_batch`](crate::Engine::query_batch)).
//!
//! Two serving-side safeguards wrap the memo:
//!
//! * **Epoch stamps.** Every slot, and the memoized super-user, records the
//!   engine epoch it was filled under. Every mutation ([`crate::dynamic`])
//!   bumps the epoch and clears the cache — an object mutation moves the
//!   live statistics and with them every normalizer, so nothing here
//!   outlives one — and a lookup that presents a newer epoch treats the
//!   slot as stale and recomputes: the invalidation signal works even if
//!   an eager clear was missed.
//! * **An LRU bound on the per-`k` maps.** A serving system facing
//!   adversarial `k` diversity must not retain a threshold set per
//!   distinct `k` forever; each map keeps at most [`DEFAULT_K_CAPACITY`]
//!   of them and evicts the least-recently-used `k`. Eviction drops the
//!   slot's once-cell from the map only — a worker blocked on (or
//!   computing into) that cell holds its own `Arc` and completes
//!   normally; nothing is poisoned.
//!
//! [`Engine::with_threshold_cache`]: crate::Engine::with_threshold_cache

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::topk::{TopkOutcome, UserTopk};
use crate::user_index::UserIndexSeed;
use crate::UserGroup;

/// The joint top-k phase output shared by the §5+§6 methods: the
/// super-user, the Algorithm-1 traversal outcome and every user's
/// Algorithm-2 threshold, computed together (see the `topk` module docs'
/// *One exact checkpoint*). The per-user listings are not kept: the
/// pipeline reads `RSk(u)` alone, and
/// [`Engine::joint_user_topk`](crate::Engine::joint_user_topk) rebuilds
/// them from `out` on demand.
#[derive(Debug)]
pub struct JointThresholds {
    /// The super-user the traversal ran for (carried so consumers don't
    /// recompute the O(users) group summary).
    pub su: Arc<UserGroup>,
    /// `LO`, `RO` and the traversal's final threshold: `RO` is cut, and
    /// `rsk_us` reports, at `max(RSk(us), T)` — `T` the lowest `RSk(u)`
    /// seen at the checkpoint — which every `RSk(u)` is at or above. Shared
    /// with the §7 seed of the same `(k, epoch)` (see [`UserIndexSeed`]).
    pub out: Arc<TopkOutcome>,
    /// `RSk(u)` per user (Algorithm 2), in user-table order.
    pub rsk: Vec<f64>,
}

/// Bound on distinct `k` values retained per map (the paper
/// sweeps `k ∈ {1, 5, 10, 20, 50}`; a serving mix rarely needs more live
/// threshold sets than this at once).
pub const DEFAULT_K_CAPACITY: usize = 16;

/// One memo slot: the blocking once-cell plus the epoch it was filled
/// under and its LRU recency.
#[derive(Debug)]
struct Slot<T> {
    epoch: u64,
    last_used: AtomicU64,
    cell: Arc<OnceLock<Arc<T>>>,
}

/// A bounded per-`k` map of blocking once-cells: the first caller
/// computes, every concurrent caller for the same `(k, epoch)` blocks on
/// the cell and shares the `Arc`. Slots from older epochs are replaced on
/// access; beyond [`DEFAULT_K_CAPACITY`] distinct `k`s the
/// least-recently-used slot is dropped (waiters keep their own `Arc` to
/// the cell and are unaffected).
#[derive(Debug)]
struct KeyedOnce<T> {
    map: RwLock<HashMap<usize, Slot<T>>>,
    tick: AtomicU64,
}

impl<T> KeyedOnce<T> {
    fn new() -> Self {
        KeyedOnce {
            map: RwLock::new(HashMap::new()),
            tick: AtomicU64::new(0),
        }
    }

    fn get_or_compute(
        &self,
        k: usize,
        epoch: u64,
        hits: &AtomicU64,
        misses: &AtomicU64,
        compute: impl FnOnce() -> T,
    ) -> Arc<T> {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        // Fast path: a current-epoch slot already exists.
        let cell = {
            let read = self.map.read().unwrap();
            read.get(&k).and_then(|slot| {
                (slot.epoch == epoch).then(|| {
                    slot.last_used.store(now, Ordering::Relaxed);
                    slot.cell.clone()
                })
            })
        };
        let cell = match cell {
            Some(c) => c,
            None => {
                let mut map = self.map.write().unwrap();
                // Re-check under the write lock (another worker may have
                // installed the slot, or a stale one needs replacing).
                let cell = match map.get(&k) {
                    Some(slot) if slot.epoch == epoch => {
                        slot.last_used.store(now, Ordering::Relaxed);
                        slot.cell.clone()
                    }
                    _ => {
                        let cell = Arc::new(OnceLock::new());
                        map.insert(
                            k,
                            Slot {
                                epoch,
                                last_used: AtomicU64::new(now),
                                cell: cell.clone(),
                            },
                        );
                        cell
                    }
                };
                // LRU bound: evict the coldest other `k`s past capacity.
                while map.len() > DEFAULT_K_CAPACITY {
                    let victim = map
                        .iter()
                        .filter(|&(&key, _)| key != k)
                        .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                        .map(|(&key, _)| key);
                    let Some(victim) = victim else { break };
                    map.remove(&victim);
                }
                cell
            }
        };
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                Arc::new(compute())
            })
            .clone();
        if computed {
            misses.fetch_add(1, Ordering::Relaxed);
        } else {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    fn clear(&self) {
        self.map.write().unwrap().clear();
    }
}

/// Thread-safe memo of the `(engine, k)`-dependent top-k phase outputs.
/// See the module docs for semantics and opt-in.
#[derive(Debug)]
pub struct ThresholdCache {
    joint: KeyedOnce<JointThresholds>,
    baseline: KeyedOnce<Vec<UserTopk>>,
    user_index: KeyedOnce<UserIndexSeed>,
    /// Memoized super-user, stamped with the epoch it was built under
    /// (mutations clear it eagerly; the stamp is the lazy safety net, like
    /// the per-`k` slots).
    su: RwLock<Option<(u64, Arc<UserGroup>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ThresholdCache {
    /// An empty cache retaining at most [`DEFAULT_K_CAPACITY`] distinct
    /// `k` values per map.
    pub fn new() -> Self {
        ThresholdCache {
            joint: KeyedOnce::new(),
            baseline: KeyedOnce::new(),
            user_index: KeyedOnce::new(),
            su: RwLock::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lookups served from the cache so far (across all three maps). A
    /// §7 seed's fill looks the joint slot up like a query does, and that
    /// lookup counts: every slot computed is one miss.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute (across all three maps; a §7 fill that
    /// also fills the joint slot counts two).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached entry, including the memoized super-user (the
    /// counters keep running). [`crate::dynamic`] calls this on every
    /// mutation; the epoch stamps additionally invalidate lazily even when
    /// nothing clears eagerly.
    pub fn clear(&self) {
        self.joint.clear();
        self.baseline.clear();
        self.user_index.clear();
        *self.su.write().unwrap() = None;
    }

    pub(crate) fn joint(
        &self,
        k: usize,
        epoch: u64,
        compute: impl FnOnce() -> JointThresholds,
    ) -> Arc<JointThresholds> {
        self.joint
            .get_or_compute(k, epoch, &self.hits, &self.misses, compute)
    }

    pub(crate) fn baseline(
        &self,
        k: usize,
        epoch: u64,
        compute: impl FnOnce() -> Vec<UserTopk>,
    ) -> Arc<Vec<UserTopk>> {
        self.baseline
            .get_or_compute(k, epoch, &self.hits, &self.misses, compute)
    }

    pub(crate) fn user_index(
        &self,
        k: usize,
        epoch: u64,
        compute: impl FnOnce() -> UserIndexSeed,
    ) -> Arc<UserIndexSeed> {
        self.user_index
            .get_or_compute(k, epoch, &self.hits, &self.misses, compute)
    }

    pub(crate) fn super_user(
        &self,
        epoch: u64,
        compute: impl FnOnce() -> UserGroup,
    ) -> Arc<UserGroup> {
        if let Some((stamp, su)) = self.su.read().unwrap().clone() {
            if stamp == epoch {
                return su;
            }
        }
        let mut slot = self.su.write().unwrap();
        if let Some((stamp, su)) = &*slot {
            if *stamp == epoch {
                return su.clone();
            }
        }
        // Computed under the write lock: the group summary is CPU-only
        // (no I/O charges), so briefly serializing racers is fine and
        // guarantees a single computation.
        let su = Arc::new(compute());
        *slot = Some((epoch, su.clone()));
        su
    }
}

impl Default for ThresholdCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_value() {
        let tc = ThresholdCache::new();
        let a = tc.baseline(3, 0, Vec::new);
        let b = tc.baseline(3, 0, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tc.hits(), 1);
        assert_eq!(tc.misses(), 1);
    }

    #[test]
    fn distinct_k_compute_independently() {
        let tc = ThresholdCache::new();
        tc.baseline(1, 0, Vec::new);
        tc.baseline(2, 0, Vec::new);
        assert_eq!(tc.misses(), 2);
        assert_eq!(tc.hits(), 0);
    }

    #[test]
    fn clear_forces_recompute() {
        let tc = ThresholdCache::new();
        tc.baseline(1, 0, Vec::new);
        tc.clear();
        tc.baseline(1, 0, Vec::new);
        assert_eq!(tc.misses(), 2);
    }

    /// A slot filled under an older epoch is stale: presenting a newer
    /// epoch recomputes and replaces it, and the old `Arc` stays valid for
    /// whoever still holds it.
    #[test]
    fn stale_epoch_slot_recomputes() {
        let tc = ThresholdCache::new();
        let old = tc.baseline(5, 1, Vec::new);
        let new = tc.baseline(5, 2, Vec::new);
        assert!(!Arc::ptr_eq(&old, &new), "stale slot must be replaced");
        assert_eq!(tc.misses(), 2);
        // Same epoch again: hit on the fresh slot.
        let again = tc.baseline(5, 2, || panic!("current slot must hit"));
        assert!(Arc::ptr_eq(&new, &again));
        assert_eq!(tc.hits(), 1);
    }

    /// Older epochs never resurrect: after a newer fill, an old-epoch
    /// lookup recomputes too (the stamp must match exactly).
    #[test]
    fn epoch_mismatch_is_symmetric() {
        let tc = ThresholdCache::new();
        tc.baseline(5, 2, Vec::new);
        tc.baseline(5, 1, Vec::new);
        assert_eq!(tc.misses(), 2);
    }

    /// The per-`k` map holds at most its capacity: the coldest `k` is
    /// evicted, recently used ones survive.
    #[test]
    fn k_capacity_evicts_least_recently_used() {
        const CAP: usize = DEFAULT_K_CAPACITY;
        let tc = ThresholdCache::new();
        for k in 1..=CAP {
            tc.baseline(k, 0, Vec::new);
        }
        tc.baseline(1, 0, Vec::new); // touch 1 → 2 is coldest
        tc.baseline(CAP + 1, 0, Vec::new); // evicts 2
        assert_eq!(tc.misses(), CAP as u64 + 1);
        tc.baseline(1, 0, || panic!("1 was just used, must survive"));
        tc.baseline(CAP + 1, 0, || panic!("just inserted, must survive"));
        assert_eq!(tc.hits(), 3, "the earlier touch of 1 plus these two");
        tc.baseline(2, 0, Vec::new); // recompute after eviction
        assert_eq!(tc.misses(), CAP as u64 + 2);
    }

    /// Eviction drops the once-cell from the map without poisoning anyone
    /// already holding it: concurrent fillers complete on their own Arc.
    #[test]
    fn eviction_does_not_poison_in_flight_waiters() {
        use std::sync::mpsc;
        let tc = Arc::new(ThresholdCache::new());
        let (enter_tx, enter_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let tc2 = tc.clone();
        let filler = std::thread::spawn(move || {
            tc2.baseline(7, 0, move || {
                enter_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                vec![]
            })
        });
        enter_rx.recv().unwrap(); // filler is inside compute for k=7
        for k in 8..8 + DEFAULT_K_CAPACITY {
            tc.baseline(k, 0, Vec::new); // the last one evicts the k=7 slot
        }
        release_tx.send(()).unwrap();
        let filled = filler.join().unwrap();
        assert!(filled.is_empty(), "evicted filler still completes");
        // The k=7 slot is gone from the map: next lookup recomputes.
        tc.baseline(7, 0, Vec::new);
        assert_eq!(
            tc.misses(),
            DEFAULT_K_CAPACITY as u64 + 2,
            "filler, k=8.., and the post-eviction refill"
        );
    }

    fn dummy_group() -> UserGroup {
        UserGroup::from_node_entry(
            geo::Rect::new(geo::Point::new(0.0, 0.0), geo::Point::new(1.0, 1.0)),
            &[],
            &[],
            1,
            1.0,
            1.0,
        )
    }

    /// `clear` must drop the memoized super-user too — a stale group after
    /// a data mutation would silently corrupt pruning bounds.
    #[test]
    fn clear_drops_memoized_super_user() {
        let tc = ThresholdCache::new();
        let a = tc.super_user(0, dummy_group);
        let b = tc.super_user(0, || panic!("memoized"));
        assert!(Arc::ptr_eq(&a, &b));
        tc.clear();
        let c = tc.super_user(0, dummy_group);
        assert!(!Arc::ptr_eq(&a, &c), "cleared cell must recompute");
    }

    /// The super-user memo is stamped with the epoch: even without an
    /// eager clear, presenting a newer generation recomputes.
    #[test]
    fn stale_epoch_recomputes_super_user() {
        let tc = ThresholdCache::new();
        let a = tc.super_user(1, dummy_group);
        let b = tc.super_user(2, dummy_group);
        assert!(!Arc::ptr_eq(&a, &b), "stale stamp must not serve");
        let c = tc.super_user(2, || panic!("current stamp must serve"));
        assert!(Arc::ptr_eq(&b, &c));
    }

    /// Concurrent same-k lookups compute exactly once: every other worker
    /// blocks on the once-cell and shares the Arc.
    #[test]
    fn concurrent_lookups_compute_exactly_once() {
        let tc = ThresholdCache::new();
        let computes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (tc, computes) = (&tc, &computes);
                s.spawn(move || {
                    tc.baseline(7, 0, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    });
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(tc.misses(), 1);
        assert_eq!(tc.hits(), 7);
    }
}

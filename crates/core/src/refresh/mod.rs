//! Background rebuild with an atomic engine swap.
//!
//! [`crate::dynamic`] keeps the scorer live, so a refresh changes no
//! weight. What mutations do leave behind is structural: freed placeholder
//! records in every block file, nodes packed by Guttman insertion instead
//! of the paper's bulk load, and the dataspace hull (the spatial
//! normalizer) of the build. A refresh does that one job:
//!
//! * **Rebuild** — [`Engine::refreshed`] rebuilds the scorer, the
//!   dataspace hull and all three disk-resident indexes (MIR, IR, MIUR)
//!   from the live tables into *fresh* block files — every freed
//!   placeholder is reclaimed, every tree re-tiled by STR, the hull
//!   recomputed — and is bit-identical to a cold [`Engine::build`] over
//!   the surviving tables. [`Engine::refresh`] does the same in place.
//!   [`RefreshConfig::max_mutations`] says when.
//! * **Atomic swap** — [`ServingEngine`] publishes the engine behind an
//!   `Arc`: queries grab a snapshot and run lock-free on it, mutations
//!   serialize on one writer lock and edit the published engine in place
//!   (falling back to a copy-on-write clone when a long-lived snapshot is
//!   still held), and a refresh rebuilds holding no lock, replays the
//!   writes that landed meanwhile onto its private engine under the writer
//!   lock, and publishes it with one pointer store. In-flight queries
//!   finish on their old snapshot without ever blocking on the rebuild or
//!   its replay; new queries land on the refreshed engine. Caches are handed
//!   off by *dropping*: the rebuilt engine carries fresh (same-shape)
//!   threshold and page caches, and because the refreshed epoch is
//!   strictly above every epoch the old engine ever had, no stale
//!   threshold stamp could survive the swap even if one leaked.
//!
//! # Epoch discipline
//!
//! Epochs are strictly monotone across the engine's whole service life,
//! including refreshes: the rebuilt engine starts at `old_epoch + 1` and
//! replaying the mutations that landed during the rebuild bumps it
//! further, so it always publishes *above* the live engine it replaces.
//! An [`EpochGuard`] taken on a pre-swap snapshot therefore reports
//! stale against any post-swap snapshot — "valid for the old epoch" is an
//! observable, testable property (see `tests/refresh_soak.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use mbrstk_obs::Histogram;
use text::WeightModel;

use crate::cluster::{self, EngineCluster};
use crate::dynamic::{BatchReport, EpochGuard, MaintenanceIo, Mutation};
use crate::metrics::{EngineMetrics, ServingMetrics};
use crate::{Engine, Method, ObjectData, QueryArena, QueryResult, QuerySpec, UserData};

/// When [`ServingEngine::needs_refresh`] and the background worker
/// ([`ServingEngine::start_refresher`]) rebuild.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Refresh once this many mutations accumulated (objects + users):
    /// each leaves freed slots behind and insert-packed nodes in a tree.
    pub max_mutations: u64,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            max_mutations: 4096,
        }
    }
}

/// What one refresh did.
#[derive(Debug, Clone, Copy)]
pub struct RefreshReport {
    /// Engine epoch after the refresh (strictly above every epoch the
    /// replaced engine ever had).
    pub epoch: u64,
    /// Freed placeholder record slots the rebuild reclaimed across the
    /// MIR, IR and MIUR block files (a rebuild writes fresh dense files).
    pub reclaimed_records: u64,
    /// Mutations that landed while the rebuild ran and were replayed onto
    /// the fresh engine before the swap (always 0 for the in-place
    /// [`Engine::refresh`]).
    pub replayed: usize,
    /// Simulated I/O the refresh write path cost: every live node record
    /// and payload of the fresh indexes.
    pub refresh_io: u64,
}

/// Everything a refresh needs from a snapshot, captured cheaply so the
/// expensive rebuild can run without holding the snapshot `Arc` (holding
/// it would force every concurrent mutation into the copy-on-write
/// fallback for the whole rebuild).
struct RefreshSeed {
    objects: Vec<ObjectData>,
    users: Vec<UserData>,
    model: WeightModel,
    alpha: f64,
    fanout: usize,
    codec: storage::CodecId,
    user_index: bool,
    threshold_cache: bool,
    page_cache: Option<(u64, usize)>,
    epoch: u64,
    term_extent: u64,
    reclaimed_records: u64,
    /// The captured engine's telemetry, carried into the rebuilt engine
    /// by `Arc` so metrics history is continuous across the swap.
    metrics: Arc<EngineMetrics>,
}

impl RefreshSeed {
    fn capture(engine: &Engine) -> RefreshSeed {
        RefreshSeed {
            objects: engine.objects.clone(),
            users: engine.users.clone(),
            model: engine.ctx.text.model(),
            alpha: engine.ctx.alpha,
            fanout: engine.mir.fanout(),
            codec: engine.codec(),
            user_index: engine.miur.is_some(),
            threshold_cache: engine.thresholds.is_some(),
            page_cache: engine
                .io
                .cache()
                .map(|c| (c.capacity_blocks(), c.num_shards())),
            epoch: engine.epoch,
            term_extent: engine.term_extent,
            reclaimed_records: engine.freed_record_slots(),
            metrics: Arc::clone(&engine.metrics),
        }
    }

    /// The actual rebuild: a cold build over the captured tables (same
    /// model, α, fanout, record codec — so the result is bit-identical to
    /// [`Engine::build_with_fanout_codec`] over the survivors) with the
    /// serving configuration restored, the epoch carried strictly forward
    /// and the term extent kept (it never shrinks).
    fn build(self) -> (Engine, RefreshReport) {
        let mut fresh = Engine::build_with_fanout_codec(
            self.objects,
            self.users,
            self.model,
            self.alpha,
            self.fanout,
            self.codec,
        );
        if self.user_index {
            fresh = fresh.with_user_index();
        }
        if self.threshold_cache {
            fresh = fresh.with_threshold_cache();
        }
        if let Some((blocks, shards)) = self.page_cache {
            fresh.io = storage::IoStats::with_cache_sharded(blocks, shards);
        }
        // Strictly monotone epochs across the swap: every stamp the old
        // engine ever issued is below the refreshed generation, so no
        // stale threshold-cache slot can validate against it.
        fresh.epoch = self.epoch + 1;
        fresh.term_extent = self.term_extent;
        // Telemetry survives the swap (the cold build made a fresh
        // registry; replace it with the captured engine's).
        fresh.metrics = self.metrics;
        let report = RefreshReport {
            epoch: fresh.epoch,
            reclaimed_records: self.reclaimed_records,
            replayed: 0,
            refresh_io: fresh.rebuild_io_cost(),
        };
        (fresh, report)
    }
}

impl Engine {
    /// Mutations absorbed since build or the last corpus refresh
    /// (objects + users).
    pub fn mutations_since_refresh(&self) -> u64 {
        self.muts_since_refresh
    }

    /// Freed placeholder record slots across the MIR, IR and (when built)
    /// MIUR block files — what a refresh would reclaim.
    pub fn freed_record_slots(&self) -> u64 {
        self.mir.freed_records()
            + self.ir.freed_records()
            + self.miur.as_ref().map_or(0, |m| m.freed_records())
    }

    /// A rebuilt twin of this engine: scorer, dataspace hull and all
    /// indexes rebuilt from the live tables into fresh block files
    /// (reclaiming freed placeholders), serving configuration (caches'
    /// shapes, user index, fanout) preserved, epochs carried strictly
    /// forward. Takes `&self` so a background worker can rebuild off an
    /// immutable snapshot; answers are bit-identical to a cold
    /// [`Engine::build_with_fanout`] over the same tables.
    pub fn refreshed(&self) -> Engine {
        RefreshSeed::capture(self).build().0
    }

    /// [`Engine::refreshed`] with its [`RefreshReport`]. Every refresh is
    /// the cold rebuild; this name survives only for callers that still
    /// time it separately and goes with them.
    pub fn refreshed_incremental(&self) -> (Engine, RefreshReport) {
        RefreshSeed::capture(self).build()
    }

    /// In-place [`Engine::refreshed`]: replaces this engine's scorer and
    /// indexes with the rebuild and resets the mutations-since-refresh
    /// counter. Single-threaded convenience —
    /// concurrent serving goes through [`ServingEngine`].
    pub fn refresh(&mut self) -> RefreshReport {
        let (fresh, report) = RefreshSeed::capture(self).build();
        *self = fresh;
        report
    }
}

/// Signals between mutators and the background refresher thread.
#[derive(Debug, Default)]
struct Signal {
    /// Mutations landed since the worker last looked.
    pending: bool,
    /// The handle asked the worker to exit.
    stop: bool,
}

/// A concurrently servable engine with background refresh.
///
/// * **Queries** take an [`ServingEngine::snapshot`] (`Arc<Engine>`) and
///   run lock-free on it; the publish lock is held only for the clone.
/// * **Mutations** ([`ServingEngine::apply`]) serialize on the writer
///   lock, then take the write side of the publish lock and maintain the
///   engine in place; queries wait out that edit. When a query (or
///   anything else) still holds a snapshot `Arc`, the mutation waits
///   briefly for it to drop — new snapshots are blocked, so the holder
///   count only shrinks — and falls back to a copy-on-write clone of the
///   engine for genuinely long-lived holders, guaranteeing progress
///   without ever mutating shared state.
/// * **Refreshes** ([`ServingEngine::refresh_now`], or the background
///   worker from [`ServingEngine::start_refresher`]) open the journal and
///   capture the live tables under the writer lock, rebuild holding no
///   lock, then under the writer lock replay the journal onto the fresh
///   engine and publish it with one pointer store. Queries wait for that
///   store only; in-flight ones keep their old snapshot, and the old
///   engine is dropped when its last snapshot is.
///
/// Every accepted mutation runs under the writer lock, so it lands either
/// before a refresh's capture (the capture holds it) or in the open
/// journal (the replay applies it). The journal is open only while a
/// rebuild runs, so it holds at most the writes one rebuild overlaps.
#[derive(Debug)]
pub struct ServingEngine {
    /// The published snapshot.
    snap: RwLock<Arc<Engine>>,
    /// The writer lock. `Some` while a refresh rebuilds: the mutations
    /// accepted since its capture, for replay onto the rebuilt engine.
    /// Lock order: `writer` before `snap`; queries never take it.
    writer: Mutex<Option<Vec<Mutation>>>,
    /// Serializes refreshers: two must not both open the journal.
    refresh_gate: Mutex<()>,
    cfg: RefreshConfig,
    refreshes: AtomicU64,
    signal: Mutex<Signal>,
    wake: Condvar,
    /// Serving-layer telemetry handles, drawn from the wrapped engine's
    /// (swap-stable) registry at construction.
    metrics: ServingMetrics,
    /// Cluster backend ([`ServingEngine::new_cluster`]): one scatter
    /// histogram per user slice the query path fans the top-k phase of
    /// the snapshot out over. Empty for a plain fused engine.
    scatter_latency_us: Vec<Arc<Histogram>>,
}

impl ServingEngine {
    /// Wraps an engine for concurrent serving with the default
    /// [`RefreshConfig`].
    pub fn new(engine: Engine) -> Arc<Self> {
        Self::with_config(engine, RefreshConfig::default())
    }

    /// [`ServingEngine::new`] with explicit refresh thresholds.
    pub fn with_config(engine: Engine, cfg: RefreshConfig) -> Arc<Self> {
        Self::with_config_parts(engine, Vec::new(), cfg)
    }

    /// Wraps an [`EngineCluster`] for concurrent serving: its engine
    /// becomes the published snapshot and every query scatters its top-k
    /// phase across contiguous slices of *that snapshot's* user table.
    /// Mutations and refreshes are exactly the fused paths — the slices
    /// hold no state to keep in step — so cluster answers stay
    /// bit-identical to a fused engine across swaps.
    pub fn new_cluster(cluster: EngineCluster) -> Arc<Self> {
        Self::with_config_cluster(cluster, RefreshConfig::default())
    }

    /// [`ServingEngine::new_cluster`] with explicit refresh thresholds.
    pub fn with_config_cluster(cluster: EngineCluster, cfg: RefreshConfig) -> Arc<Self> {
        Self::with_config_parts(cluster.head, cluster.scatter_latency_us, cfg)
    }

    fn with_config_parts(
        engine: Engine,
        scatter_latency_us: Vec<Arc<Histogram>>,
        cfg: RefreshConfig,
    ) -> Arc<Self> {
        let metrics = ServingMetrics::new(engine.metrics.registry());
        Arc::new(ServingEngine {
            snap: RwLock::new(Arc::new(engine)),
            writer: Mutex::new(None),
            refresh_gate: Mutex::new(()),
            cfg,
            refreshes: AtomicU64::new(0),
            signal: Mutex::new(Signal::default()),
            wake: Condvar::new(),
            metrics,
            scatter_latency_us,
        })
    }

    /// Number of user slices behind this serving engine (0 when it wraps
    /// a plain fused engine).
    pub fn shard_count(&self) -> usize {
        self.scatter_latency_us.len()
    }

    /// The refresh thresholds in force.
    pub fn config(&self) -> &RefreshConfig {
        &self.cfg
    }

    /// The current published snapshot. Queries on it never block on (and
    /// are never torn by) concurrent mutations or swaps; pair it with
    /// [`Engine::epoch_guard`] to detect afterwards whether the results
    /// describe a superseded generation.
    pub fn snapshot(&self) -> Arc<Engine> {
        self.snap.read().unwrap().clone()
    }

    /// Epoch of the published snapshot.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Completed refreshes over this serving engine's lifetime.
    pub fn refreshes(&self) -> u64 {
        self.refreshes.load(Ordering::Relaxed)
    }

    /// Answers one query on the current snapshot, returning the result
    /// with the guard that certifies which generation computed it. On a
    /// cluster backend the top-k phase scatters across slices of that
    /// same snapshot's user table, so the thresholds always match the
    /// engine they are installed into.
    pub fn query(&self, spec: &QuerySpec, method: Method) -> (QueryResult, EpochGuard) {
        let mut out = QueryResult::default();
        let guard = self.query_reusing(spec, method, &mut QueryArena::new(), &mut out);
        (out, guard)
    }

    /// [`ServingEngine::query`] into caller-owned scratch, as
    /// [`Engine::query_reusing`]: the answer lands in `out` and every
    /// buffer comes from `arena`. A worker that keeps one arena across
    /// requests also keeps the candidate context's location-independent
    /// half while the snapshot and the query's `W`, `ox.d` and `ws` stay
    /// the same (see [`QueryArena`]); answers are bit-identical to
    /// [`ServingEngine::query`] whatever the arena's history.
    pub fn query_reusing(
        &self,
        spec: &QuerySpec,
        method: Method,
        arena: &mut QueryArena,
        out: &mut QueryResult,
    ) -> EpochGuard {
        let snap = self.snapshot();
        let guard = snap.epoch_guard();
        if self.scatter_latency_us.is_empty() {
            snap.query_reusing(spec, method, arena, out);
        } else {
            cluster::scatter_query(&snap, &self.scatter_latency_us, spec, method, arena, out);
        }
        guard
    }

    /// Applies one mutation (see [`Engine::insert_object`] and friends for
    /// semantics); rejected mutations return `None`. Wakes the background
    /// refresher, if one is running.
    pub fn apply(&self, mutation: Mutation) -> Option<MaintenanceIo> {
        let mut writer = self.writer.lock().unwrap();
        // A copy only while a rebuild runs: its replay needs one.
        let replay = writer.is_some().then(|| mutation.clone());
        let mut published = self.snap.write().unwrap();
        let engine = self.exclusive(&mut published);
        let mutate_start = Instant::now();
        let io = engine.apply(mutation);
        self.metrics
            .mutation_latency_us
            .record_duration_us(mutate_start.elapsed());
        drop(published);
        if let (Some(journal), Some(m), true) = (writer.as_mut(), replay, io.is_some()) {
            journal.push(m);
        }
        drop(writer);
        if io.is_some() {
            let mut s = self.signal.lock().unwrap();
            s.pending = true;
            self.wake.notify_one();
        }
        io
    }

    /// Applies a stream of mutations in order (each one is individually
    /// published — queries may interleave anywhere).
    pub fn apply_batch(&self, mutations: impl IntoIterator<Item = Mutation>) -> BatchReport {
        let mut report = BatchReport::default();
        for m in mutations {
            match self.apply(m) {
                Some(io) => {
                    report.applied += 1;
                    report.io += io;
                }
                None => report.rejected += 1,
            }
        }
        report
    }

    /// Exclusive access to the published engine for a writer already
    /// holding the write lock. Waits briefly for in-flight snapshot
    /// holders to drain (the write lock blocks new snapshots, so the
    /// count only shrinks), then falls back to a copy-on-write clone so a
    /// long-running reader can never stall mutations — it simply keeps
    /// its private pre-mutation engine alive until it drops the `Arc`.
    /// The drain wait lands in `serving_swap_wait_us`; a taken fallback
    /// bumps `serving_cow_fallbacks_total`.
    fn exclusive<'a>(&self, published: &'a mut Arc<Engine>) -> &'a mut Engine {
        let wait_start = Instant::now();
        for _ in 0..64 {
            if Arc::get_mut(published).is_some() {
                break;
            }
            std::thread::yield_now();
        }
        if Arc::get_mut(published).is_none() {
            self.metrics.cow_fallbacks.inc();
            let copy = Engine::clone(published);
            *published = Arc::new(copy);
        }
        self.metrics
            .swap_wait_us
            .record_duration_us(wait_start.elapsed());
        Arc::get_mut(published).expect("writer holds the only new reference")
    }

    /// Whether `max_mutations` mutations (at least one) landed since the
    /// published engine was built or refreshed.
    pub fn needs_refresh(&self) -> bool {
        let mutations = self.snapshot().mutations_since_refresh();
        mutations > 0 && mutations >= self.cfg.max_mutations
    }

    /// Runs one refresh now, on the calling thread: open the journal and
    /// capture the live tables, rebuild holding no lock, replay the
    /// journal onto the fresh engine, publish. Concurrent callers
    /// serialize. Writers wait out the capture and the replay; queries
    /// keep running on the old snapshot throughout and wait only for the
    /// final pointer store.
    pub fn refresh_now(&self) -> RefreshReport {
        let _gate = self.refresh_gate.lock().unwrap();
        let refresh_start = Instant::now();

        let seed = {
            let mut writer = self.writer.lock().unwrap();
            *writer = Some(Vec::new());
            let snapshot = self.snapshot();
            RefreshSeed::capture(&snapshot)
        };
        let (mut fresh, mut report) = seed.build();

        // The epoch ends at `captured + 1 + replayed`, strictly above the
        // live engine's `captured + replayed`.
        let mut writer = self.writer.lock().unwrap();
        let journal = writer.take().expect("the refresh gate keeps it open");
        let replay = fresh.apply_batch(journal);
        debug_assert_eq!(replay.rejected, 0, "journaled mutations replay cleanly");
        report.replayed = replay.applied;
        report.epoch = fresh.epoch();
        let swap_wait = Instant::now();
        let retired = std::mem::replace(&mut *self.snap.write().unwrap(), Arc::new(fresh));
        self.metrics
            .swap_wait_us
            .record_duration_us(swap_wait.elapsed());
        drop(writer);
        drop(retired);
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .record_refresh(refresh_start.elapsed(), report.replayed);
        report
    }

    /// Spawns the background refresh worker: it sleeps until mutations
    /// land, re-checks [`ServingEngine::needs_refresh`], and runs
    /// [`ServingEngine::refresh_now`] when the thresholds say so. Drop
    /// (or [`RefresherHandle::stop`]) the returned handle to stop and
    /// join the worker.
    pub fn start_refresher(self: &Arc<Self>) -> RefresherHandle {
        let owner = Arc::clone(self);
        let thread = std::thread::spawn(move || loop {
            {
                let mut s = owner.signal.lock().unwrap();
                while !s.pending && !s.stop {
                    s = owner.wake.wait(s).unwrap();
                }
                if s.stop {
                    return;
                }
                s.pending = false;
            }
            if owner.needs_refresh() {
                owner.refresh_now();
            }
        });
        RefresherHandle {
            owner: Arc::clone(self),
            thread: Some(thread),
        }
    }

    fn stop_worker(&self, thread: &mut Option<JoinHandle<()>>) {
        if let Some(handle) = thread.take() {
            self.signal.lock().unwrap().stop = true;
            self.wake.notify_all();
            handle.join().expect("refresher worker must not panic");
            // Allow a future `start_refresher` on the same engine.
            self.signal.lock().unwrap().stop = false;
        }
    }
}

/// Handle to the background refresh worker of a [`ServingEngine`].
/// Stopping (explicitly or by drop) joins the thread; a refresh already
/// in progress completes first.
#[derive(Debug)]
pub struct RefresherHandle {
    owner: Arc<ServingEngine>,
    thread: Option<JoinHandle<()>>,
}

impl RefresherHandle {
    /// Stops and joins the worker, returning how many refreshes the
    /// serving engine has completed in total.
    pub fn stop(mut self) -> u64 {
        self.owner.stop_worker(&mut self.thread);
        self.owner.refreshes()
    }
}

impl Drop for RefresherHandle {
    fn drop(&mut self) {
        self.owner.stop_worker(&mut self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Point;
    use text::{Document, TermId};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn obj(id: u32, x: f64, y: f64, term: u32) -> ObjectData {
        ObjectData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn user(id: u32, x: f64, y: f64, term: u32) -> UserData {
        UserData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn engine(model: WeightModel) -> Engine {
        let objects: Vec<ObjectData> = (0..40)
            .map(|i| obj(i, (i % 8) as f64, (i / 8) as f64, i % 4))
            .collect();
        let users: Vec<UserData> = (0..10)
            .map(|i| user(i, (i % 6) as f64 + 0.4, (i % 4) as f64 + 0.3, i % 4))
            .collect();
        Engine::build_with_fanout(objects, users, model, 0.5, 4).with_user_index()
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            ox_doc: Document::from_terms([t(9)]),
            locations: vec![Point::new(2.0, 1.5), Point::new(6.0, 3.0)],
            keywords: vec![t(0), t(1), t(2), t(3)],
            ws: 2,
            k: 3,
        }
    }

    /// In-place refresh: bit-identical to a cold build over the live
    /// tables, counters reset, placeholders gone, epochs strictly
    /// advanced.
    #[test]
    fn refresh_restores_cold_build_equivalence() {
        let mut eng = engine(WeightModel::lm())
            .with_threshold_cache()
            .with_page_cache(1 << 12);
        for i in 0..12 {
            // One-sided churn: inserted docs flood term 0 with a heavier
            // term frequency than anything in the build-time corpus, so
            // the LM background model (cf/|C|) genuinely moves.
            eng.insert_object(ObjectData {
                id: 200 + i,
                point: Point::new((i % 5) as f64 + 0.2, 2.1),
                doc: Document::from_pairs([(t(0), 3), (t(9), 1)]),
            })
            .unwrap();
            eng.remove_object(i).unwrap();
        }
        eng.insert_user(user(50, 3.0, 2.0, 2)).unwrap();
        assert_eq!(eng.mutations_since_refresh(), 25);
        assert!(eng.freed_record_slots() > 0);
        let epoch_before = eng.epoch();

        let report = eng.refresh();
        assert!(report.reclaimed_records > 0);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.epoch, eng.epoch());
        assert!(eng.epoch() > epoch_before);
        assert_eq!(eng.mutations_since_refresh(), 0);
        assert_eq!(eng.freed_record_slots(), 0);
        // Serving configuration survives the rebuild.
        assert!(eng.thresholds.is_some());
        assert!(eng.io.cache().is_some());

        let cold = Engine::build_with_fanout(
            eng.objects.clone(),
            eng.users.clone(),
            WeightModel::lm(),
            0.5,
            4,
        )
        .with_user_index();
        let s = spec();
        for m in Method::ALL {
            assert_eq!(
                eng.query(&s, m).cardinality(),
                cold.query(&s, m).cardinality(),
                "{m:?}"
            );
        }
        assert_eq!(
            eng.query(&s, Method::JointExact),
            cold.query(&s, Method::JointExact)
        );
    }

    #[test]
    fn clone_is_deep_and_cold() {
        let eng = engine(WeightModel::lm())
            .with_threshold_cache()
            .with_page_cache(1 << 12);
        let s = spec();
        let _ = eng.query(&s, Method::JointExact); // warm caches + counters
        let twin = eng.clone();
        assert_eq!(twin.io.total(), 0, "clone starts with cold counters");
        assert_eq!(twin.epoch(), eng.epoch());
        // Mutating the clone leaves the original untouched.
        let mut twin = twin;
        twin.remove_object(0).unwrap();
        assert_eq!(eng.objects.len(), 40);
        assert_eq!(twin.objects.len(), 39);
        assert_eq!(twin.epoch(), eng.epoch() + 1);
        assert_eq!(
            eng.query(&s, Method::JointExact),
            engine(WeightModel::lm()).query(&s, Method::JointExact),
            "original still answers like a fresh twin"
        );
    }

    #[test]
    fn serving_engine_applies_and_journals_only_during_rebuilds() {
        let serving = ServingEngine::new(engine(WeightModel::KeywordOverlap));
        assert!(serving
            .apply(Mutation::InsertObject(obj(100, 1.0, 1.0, 1)))
            .is_some());
        assert!(
            serving.apply(Mutation::RemoveObject(999)).is_none(),
            "unknown id is rejected"
        );
        assert!(
            serving.writer.lock().unwrap().is_none(),
            "no rebuild in flight → nothing to journal (the next capture contains it)"
        );
        assert_eq!(serving.epoch(), 1);
        assert_eq!(serving.snapshot().objects.len(), 41);

        // With the journal open, as a refresh holds it during its rebuild,
        // accepted mutations journal and rejected ones still do not.
        *serving.writer.lock().unwrap() = Some(Vec::new());
        assert!(serving
            .apply(Mutation::InsertObject(obj(101, 1.5, 1.0, 2)))
            .is_some());
        assert!(serving.apply(Mutation::RemoveObject(999)).is_none());
        let journal = serving.writer.lock().unwrap().take().unwrap();
        assert!(matches!(journal[..], [Mutation::InsertObject(ref o)] if o.id == 101));
    }

    /// A refresh holds the writer lock through its capture and its replay;
    /// a query on another thread completes meanwhile, because queries
    /// never take that lock.
    #[test]
    fn readers_never_take_the_writer_lock() {
        let serving = ServingEngine::new(engine(WeightModel::lm()));
        let want = serving.snapshot().query(&spec(), Method::JointExact);
        let _writer = serving.writer.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = Arc::clone(&serving);
        std::thread::spawn(move || tx.send(reader.query(&spec(), Method::JointExact).0));
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a query completes while the writer lock is held");
        assert_eq!(got, want);
    }

    /// Mutations racing a refresh are never lost: whatever lands during
    /// the rebuild is replayed onto the fresh engine before the swap, and
    /// the journal never retains anything once the refresh completes.
    #[test]
    fn concurrent_mutations_during_refresh_are_replayed() {
        let serving = ServingEngine::new(engine(WeightModel::lm()));
        std::thread::scope(|s| {
            let serving = &serving;
            let refresher = s.spawn(move || {
                let mut reports = Vec::new();
                for _ in 0..3 {
                    reports.push(serving.refresh_now());
                }
                reports
            });
            for i in 0..30u32 {
                assert!(serving
                    .apply(Mutation::InsertObject(obj(
                        400 + i,
                        (i % 6) as f64 + 0.2,
                        1.7,
                        i % 4
                    )))
                    .is_some());
                std::thread::yield_now();
            }
            let reports = refresher.join().unwrap();
            // Epochs strictly advance across refreshes regardless of the
            // interleaving.
            for w in reports.windows(2) {
                assert!(w[1].epoch > w[0].epoch);
            }
        });
        let snap = serving.snapshot();
        assert_eq!(snap.objects.len(), 70, "no insert may be lost");
        for i in 0..30u32 {
            assert!(snap.objects.iter().any(|o| o.id == 400 + i), "object {i}");
        }
        assert!(serving.writer.lock().unwrap().is_none());
        // And the final state still answers like a cold rebuild.
        serving.refresh_now();
        let snap = serving.snapshot();
        let cold = Engine::build_with_fanout(
            snap.objects.clone(),
            snap.users.clone(),
            WeightModel::lm(),
            0.5,
            4,
        )
        .with_user_index();
        let s_ = spec();
        assert_eq!(
            snap.query(&s_, Method::JointExact),
            cold.query(&s_, Method::JointExact)
        );
    }

    #[test]
    fn refresh_now_replays_nothing_when_quiesced_and_swaps() {
        let serving = ServingEngine::new(engine(WeightModel::lm()));
        serving.apply_batch((0..8).map(|i| Mutation::InsertObject(obj(100 + i, 2.0, 2.0, 0))));
        let before = serving.epoch();
        let report = serving.refresh_now();
        assert_eq!(report.replayed, 0);
        assert!(report.epoch > before);
        assert_eq!(serving.epoch(), report.epoch);
        assert_eq!(serving.refreshes(), 1);
        assert_eq!(serving.snapshot().mutations_since_refresh(), 0);
        assert!(serving.writer.lock().unwrap().is_none());
    }

    #[test]
    fn needs_refresh_tracks_mutation_threshold() {
        let cfg = RefreshConfig { max_mutations: 3 };
        let serving = ServingEngine::with_config(engine(WeightModel::KeywordOverlap), cfg);
        assert!(!serving.needs_refresh());
        serving.apply(Mutation::InsertObject(obj(100, 1.0, 1.0, 0)));
        serving.apply(Mutation::InsertObject(obj(101, 1.5, 1.0, 1)));
        assert!(!serving.needs_refresh());
        serving.apply(Mutation::InsertObject(obj(102, 1.5, 2.0, 2)));
        assert!(serving.needs_refresh());
        serving.refresh_now();
        assert!(!serving.needs_refresh(), "counters reset with the swap");
    }

    /// The background worker refreshes on its own once the threshold is
    /// crossed, and the handle joins cleanly.
    #[test]
    fn background_worker_refreshes_past_threshold() {
        let cfg = RefreshConfig { max_mutations: 5 };
        let serving = ServingEngine::with_config(engine(WeightModel::lm()), cfg);
        let worker = serving.start_refresher();
        for i in 0..20 {
            serving.apply(Mutation::InsertObject(obj(
                300 + i,
                (i % 4) as f64 + 0.1,
                1.0,
                i % 4,
            )));
        }
        // The worker owes us at least one refresh; give it a moment.
        for _ in 0..2_000 {
            if serving.refreshes() > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let refreshes = worker.stop();
        assert!(refreshes > 0, "worker must have refreshed at least once");
        assert!(serving.snapshot().mutations_since_refresh() < 20);
    }

    /// Copy-on-write fallback: a mutation applied while a snapshot is
    /// pinned makes progress on a private copy; the pinned snapshot stays
    /// bit-stable.
    #[test]
    fn mutation_progresses_while_snapshot_is_pinned() {
        let serving = ServingEngine::new(engine(WeightModel::KeywordOverlap));
        let pinned = serving.snapshot();
        let objects_before = pinned.objects.len();
        assert!(serving.apply(Mutation::RemoveObject(0)).is_some());
        assert_eq!(
            pinned.objects.len(),
            objects_before,
            "pinned snapshot untouched"
        );
        assert_eq!(serving.snapshot().objects.len(), objects_before - 1);
        assert!(pinned.objects.iter().any(|o| o.id == 0));
    }
}

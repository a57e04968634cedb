//! Always-on engine/serving telemetry (the [`mbrstk_obs`] integration).
//!
//! One [`MetricsRegistry`] is born with every [`crate::Engine`] and then
//! travels: copy-on-write clones and corpus refreshes *share* the `Arc`
//! (unlike the caches, which restart cold), so the serving layer
//! accumulates one continuous history across swaps. All handles are
//! resolved here, once, at engine build — the warm query path records
//! through cached `Arc`s with relaxed atomics only, keeping
//! `Engine::query_reusing` allocation-free with telemetry enabled.
//!
//! Metric families (label sets in Prometheus notation):
//!
//! * `engine_query_latency_us{method}` / `engine_query_io_ops{method}` —
//!   per-query wall time and simulated I/O, one histogram per
//!   [`Method`].
//! * `engine_query_phase_latency_us{method,phase}` /
//!   `engine_query_phase_io_ops{method,phase}` — the [`Phase`] split of
//!   the same queries; phase I/O sums reconcile exactly with the query
//!   totals (see `tests/obs_telemetry.rs`).
//! * `engine_query_cache_hits_total{method}` / `..misses_total{method}` —
//!   the PR 2 page-cache counters, attributed per method.
//! * `engine_select_locations_total{method,how}` — candidate locations
//!   the selection phase evaluated in full (`how="evaluated"`) or settled
//!   by reusing an earlier greedy evaluation (`how="reused"`); the two sum
//!   to the locations dequeued ([`crate::LocationCounts`]).
//! * `engine_select_context_total{how}` — queries whose candidate context
//!   kept the whole of its location-independent half from the arena's
//!   previous query on the same path (`how="reused"`, see
//!   [`crate::QueryArena`]) or derived any of it (`how="built"`: a key
//!   miss, or a §7 query whose expansion order moved and kept only a
//!   prefix of its users' columns); the two sum to the queries answered.
//! * `page_cache_hit_ratio` / `threshold_cache_hit_ratio` — gauges over
//!   the engine's [`ShardedLru`](storage::ShardedLru) page cache and
//!   [`ThresholdCache`] counters (last-writer-wins across clones).
//! * `serving_*` — [`crate::ServingEngine`] mutation latency, swap-wait,
//!   CoW fallbacks, replayed mutations, refresh count/duration. The refresh
//!   families keep their single `tier="full"` label (every refresh is a
//!   cold rebuild), so their names stay stable for scrapers.

use std::sync::Arc;
use std::time::Duration;

use mbrstk_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use storage::IoStats;

use crate::cache::ThresholdCache;
use crate::pipeline::QueryStats;
use crate::query::Method;
use crate::trace::{Phase, PHASE_COUNT};

/// Pre-resolved handles for one [`Method`].
#[derive(Debug)]
struct MethodMetrics {
    latency_us: Arc<Histogram>,
    io_ops: Arc<Histogram>,
    phase_latency_us: [Arc<Histogram>; PHASE_COUNT],
    phase_io_ops: [Arc<Histogram>; PHASE_COUNT],
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    locations_evaluated: Arc<Counter>,
    locations_reused: Arc<Counter>,
}

impl MethodMetrics {
    fn new(reg: &MetricsRegistry, method: &str) -> MethodMetrics {
        let h = |family: &str| reg.histogram(&format!("{family}{{method=\"{method}\"}}"));
        let ph = |family: &str, i: usize| {
            reg.histogram(&format!(
                "{family}{{method=\"{method}\",phase=\"{}\"}}",
                Phase::ALL[i].name()
            ))
        };
        let locations = |how: &str| {
            reg.counter(&format!(
                "engine_select_locations_total{{method=\"{method}\",how=\"{how}\"}}"
            ))
        };
        MethodMetrics {
            latency_us: h("engine_query_latency_us"),
            io_ops: h("engine_query_io_ops"),
            phase_latency_us: std::array::from_fn(|i| ph("engine_query_phase_latency_us", i)),
            phase_io_ops: std::array::from_fn(|i| ph("engine_query_phase_io_ops", i)),
            cache_hits: reg.counter(&format!(
                "engine_query_cache_hits_total{{method=\"{method}\"}}"
            )),
            cache_misses: reg.counter(&format!(
                "engine_query_cache_misses_total{{method=\"{method}\"}}"
            )),
            locations_evaluated: locations("evaluated"),
            locations_reused: locations("reused"),
        }
    }

    /// Pure relaxed-atomic recording — no locks, no allocation.
    fn record(&self, stats: &QueryStats) {
        self.latency_us.record_duration_us(stats.elapsed);
        self.io_ops.record(stats.io.total());
        self.cache_hits.add(stats.io.cache_hits);
        self.cache_misses.add(stats.io.cache_misses);
        self.locations_evaluated.add(stats.locations.evaluated);
        self.locations_reused.add(stats.locations.reused);
        for (phase, ps) in stats.phases.iter() {
            self.phase_latency_us[phase as usize].record(ps.nanos / 1_000);
            self.phase_io_ops[phase as usize].record(ps.io.total());
        }
    }
}

/// Per-engine telemetry: the shared registry plus every handle the query
/// path needs, resolved once at build.
#[derive(Debug)]
pub(crate) struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    methods: [MethodMetrics; 6],
    /// `engine_select_context_total{how="built"|"reused"}`.
    context: [Arc<Counter>; 2],
    page_hit_ratio: Arc<Gauge>,
    threshold_hit_ratio: Arc<Gauge>,
}

impl EngineMetrics {
    pub(crate) fn new() -> Arc<EngineMetrics> {
        let registry = Arc::new(MetricsRegistry::new());
        let methods = Method::ALL.map(|m| MethodMetrics::new(&registry, m.name()));
        let context = ["built", "reused"]
            .map(|how| registry.counter(&format!("engine_select_context_total{{how=\"{how}\"}}")));
        let page_hit_ratio = registry.gauge("page_cache_hit_ratio");
        let threshold_hit_ratio = registry.gauge("threshold_cache_hit_ratio");
        Arc::new(EngineMetrics {
            registry,
            methods,
            context,
            page_hit_ratio,
            threshold_hit_ratio,
        })
    }

    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Records one finished query (`methods` is in [`Method::ALL`] order,
    /// which is the enum's declaration order); `context_reused` says
    /// whether its candidate context derived no text (it kept all of the
    /// arena's text half).
    pub(crate) fn record_query(
        &self,
        method: Method,
        stats: &QueryStats,
        context_reused: bool,
        io: &IoStats,
        thresholds: Option<&ThresholdCache>,
    ) {
        self.methods[method as usize].record(stats);
        self.context[usize::from(context_reused)].inc();
        // Hit-ratio gauges over the engine-lifetime counters: the page
        // cache's keyed accesses (ShardedLru hits are counted by IoStats)
        // and the threshold cache's lookups. Atomic loads + one store.
        let snap = io.snapshot();
        let keyed = snap.cache_hits + snap.cache_misses;
        if keyed > 0 {
            self.page_hit_ratio
                .set(snap.cache_hits as f64 / keyed as f64);
        }
        if let Some(tc) = thresholds {
            let (h, m) = (tc.hits(), tc.misses());
            if h + m > 0 {
                self.threshold_hit_ratio.set(h as f64 / (h + m) as f64);
            }
        }
    }
}

/// Pre-resolved handles for the [`crate::ServingEngine`] layer, drawn
/// from the wrapped engine's registry at construction (the registry is
/// swap-stable, so the handles outlive every refresh).
#[derive(Debug)]
pub(crate) struct ServingMetrics {
    /// Engine-mutation latency under the publish lock.
    pub(crate) mutation_latency_us: Arc<Histogram>,
    /// Time writers spent waiting for snapshot holders to drain — in the
    /// mutation path's exclusive-access spin and at the refresh swap.
    pub(crate) swap_wait_us: Arc<Histogram>,
    /// Mutations that gave up waiting and took the copy-on-write clone.
    pub(crate) cow_fallbacks: Arc<Counter>,
    /// Journaled mutations replayed onto fresh engines, lifetime total.
    replayed_total: Arc<Counter>,
    refresh_total: Arc<Counter>,
    refresh_duration_us: Arc<Histogram>,
}

impl ServingMetrics {
    pub(crate) fn new(reg: &MetricsRegistry) -> ServingMetrics {
        ServingMetrics {
            mutation_latency_us: reg.histogram("serving_mutation_latency_us"),
            swap_wait_us: reg.histogram("serving_swap_wait_us"),
            cow_fallbacks: reg.counter("serving_cow_fallbacks_total"),
            replayed_total: reg.counter("serving_replayed_mutations_total"),
            refresh_total: reg.counter("serving_refreshes_total{tier=\"full\"}"),
            refresh_duration_us: reg.histogram("serving_refresh_duration_us{tier=\"full\"}"),
        }
    }

    /// Records one completed refresh (duration, replay depth).
    pub(crate) fn record_refresh(&self, elapsed: Duration, replayed: usize) {
        self.refresh_total.inc();
        self.refresh_duration_us.record_duration_us(elapsed);
        self.replayed_total.add(replayed as u64);
    }
}

//! The one execution point of the six query methods, and batch-parallel
//! execution on top of it.
//!
//! The paper evaluates a closed set of six end-to-end ways of answering a
//! `MaxBRSTkNN` query; [`Method`] names them and `execute` is the `match`
//! that runs them. Every public entry point ([`Engine::query`],
//! [`Engine::query_reusing`], [`Engine::query_batch`]) reaches it through
//! one instrumented call, so telemetry sees every query exactly once.
//!
//! Batching is the scaling primitive this layer adds: a production service
//! answers many queries against one (read-only) engine, so
//! [`Engine::query_batch`] fans a slice of specs out across threads. All
//! methods are deterministic and take `&Engine`, so batched results are
//! bit-identical to sequential ones; per-query cost comes back as
//! [`QueryStats`] via the storage layer's per-thread I/O accounting
//! ([`IoStats::scoped`](storage::IoStats::scoped)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use storage::IoSnapshot;

use crate::arena::QueryArena;
use crate::select::baseline::baseline_select_into;
use crate::select::location::{select_candidate_into, KeywordSelector, LocationCounts};
use crate::select::CandidateContext;
use crate::trace::{Phase, PhaseBreakdown};
use crate::user_index::run_selection;
use crate::{Engine, Method, QueryResult, QuerySpec};

/// Answers `spec` with `method` into `out` (overwritten, not appended —
/// buffer capacity is the only state that survives from its previous
/// value), stamping the arena's phase trace at the top-k / selection
/// boundary. Deterministic whatever the arena's history, and all work
/// happens on the calling thread: per-query I/O accounting measures the
/// calling thread's charges.
fn execute(
    engine: &Engine,
    method: Method,
    spec: &QuerySpec,
    arena: &mut QueryArena,
    out: &mut QueryResult,
) {
    use KeywordSelector::{Exact, Greedy, GreedyPlus};
    arena.trace_arm();
    match method {
        Method::Baseline => baseline(engine, spec, arena, out),
        Method::JointGreedy => joint(engine, Greedy, spec, arena, out),
        Method::JointGreedyPlus => joint(engine, GreedyPlus, spec, arena, out),
        Method::JointExact => joint(engine, Exact, spec, arena, out),
        Method::UserIndexGreedy => user_index(engine, Greedy, spec, arena, out),
        Method::UserIndexExact => user_index(engine, Exact, spec, arena, out),
    }
    arena.trace_stamp(Phase::Select);
}

/// §4: per-user top-k on the IR-tree + exhaustive candidate scan.
fn baseline(engine: &Engine, spec: &QuerySpec, arena: &mut QueryArena, out: &mut QueryResult) {
    let tks = engine.baseline_thresholds(spec.k);
    arena.trace_stamp(Phase::TopK);
    arena.rsk.clear();
    arena.rsk.extend(tks.iter().map(|t| t.rsk));
    let cc = CandidateContext::new_reusing(
        &engine.ctx,
        spec,
        &engine.users,
        &arena.rsk,
        std::mem::take(&mut arena.cc),
        Some(engine.state_id()),
    );
    baseline_select_into(&cc, &mut arena.sel, out);
    arena.context_reused = cc.text_reused();
    arena.cc = cc.into_scratch();
}

/// §5+§6: joint top-k (Algorithms 1+2) + Algorithm 3 with `selector`.
fn joint(
    engine: &Engine,
    selector: KeywordSelector,
    spec: &QuerySpec,
    arena: &mut QueryArena,
    out: &mut QueryResult,
) {
    let jt = engine.joint_thresholds(spec.k);
    arena.trace_stamp(Phase::TopK);
    let cc = CandidateContext::new_reusing(
        &engine.ctx,
        spec,
        &engine.users,
        &jt.rsk,
        std::mem::take(&mut arena.cc),
        Some(engine.state_id()),
    );
    select_candidate_into(&cc, &jt.su, jt.out.rsk_us, selector, &mut arena.sel, out);
    arena.context_reused = cc.text_reused();
    arena.cc = cc.into_scratch();
}

/// §7: MIUR-tree user-index pipeline with `selector`. The `k`-dependent
/// prefix (root super-user + a joint MIR traversal's outcome) comes from
/// the threshold cache when one is attached, over the joint slot's
/// outcome; only the location-dependent MIUR expansion runs per query.
fn user_index(
    engine: &Engine,
    selector: KeywordSelector,
    spec: &QuerySpec,
    arena: &mut QueryArena,
    out: &mut QueryResult,
) {
    assert!(
        !spec.locations.is_empty(),
        "MaxBRSTkNN requires at least one candidate location"
    );
    let miur = engine
        .miur
        .as_ref()
        .expect("call with_user_index() before querying with a user-index method");
    let seed = engine.user_index_seed(spec.k);
    arena.trace_stamp(Phase::TopK);
    run_selection(
        miur,
        spec,
        &engine.ctx,
        selector,
        &engine.io,
        &seed,
        Some(engine.state_id()),
        arena,
        out,
    );
}

/// Per-query cost measured by the batch executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Wall-clock time of this query on its worker thread.
    pub elapsed: Duration,
    /// Simulated I/O charged by this query alone — exact under concurrency
    /// because the delta comes from the per-thread mirror (see
    /// [`storage::IoStats::scoped`]).
    ///
    /// With a page cache attached the snapshot also carries this query's
    /// cache hits and misses. Note that *which* query of a batch gets the
    /// miss (and its charge) is interleaving-dependent — see the warm-cache
    /// note on [`Engine::query_batch`].
    pub io: IoSnapshot,
    /// Per-phase split of `elapsed`/`io` (top-k vs. selection), stamped
    /// through the arena's [`crate::trace::Trace`]. The phase I/O
    /// *partitions* `io` exactly: `phases.total_io() == io`.
    pub phases: PhaseBreakdown,
    /// How the selection phase settled the candidate locations.
    pub locations: LocationCounts,
}

/// One query's answer plus its measured cost.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The query answer — bit-identical to what [`Engine::query`] returns
    /// for the same spec and method.
    pub result: QueryResult,
    /// Measured cost of this query.
    pub stats: QueryStats,
}

impl Engine {
    /// Single-sourced precondition check for every query entry point.
    fn assert_method_ready(&self, method: Method) {
        assert!(
            !method.requires_user_index() || self.miur.is_some(),
            "call with_user_index() before querying with a user-index method"
        );
    }

    /// [`Engine::query`] into caller-owned scratch: the answer lands in
    /// `out` (overwritten) and every intermediate buffer comes from
    /// `arena`. Passing the same arena across calls makes warm steady-state
    /// queries allocation-free (see `tests/alloc_free.rs`); results are
    /// bit-identical to [`Engine::query`] whatever the arena's history.
    ///
    /// # Panics
    /// Panics when a user-index method is requested without
    /// [`Engine::with_user_index`].
    pub fn query_reusing(
        &self,
        spec: &QuerySpec,
        method: Method,
        arena: &mut QueryArena,
        out: &mut QueryResult,
    ) {
        self.assert_method_ready(method);
        let _ = self.run_instrumented(spec, method, arena, out);
    }

    /// The one execution point every query funnels through: runs the
    /// method under wall-clock + per-thread I/O measurement and records
    /// the outcome into the engine's always-on telemetry
    /// ([`Engine::metrics`]). Recording is relaxed atomics through handles
    /// resolved at engine build, so a warm call stays allocation-free
    /// (`tests/alloc_free.rs` pins this with telemetry enabled).
    fn run_instrumented(
        &self,
        spec: &QuerySpec,
        method: Method,
        arena: &mut QueryArena,
        out: &mut QueryResult,
    ) -> QueryStats {
        let start = Instant::now();
        let ((), io) = self.io.scoped(|| execute(self, method, spec, arena, out));
        let stats = QueryStats {
            elapsed: start.elapsed(),
            io,
            phases: arena.phases(),
            locations: arena.sel.locations,
        };
        self.metrics.record_query(
            method,
            &stats,
            arena.context_reused,
            &self.io,
            self.thresholds.as_ref(),
        );
        stats
    }

    /// Answers a whole batch of queries in parallel, using all available
    /// parallelism: workers claim specs off a shared cursor
    /// (work-stealing), so uneven query costs don't leave threads idle.
    ///
    /// Results are in spec order and bit-identical to calling
    /// [`Engine::query`] sequentially: every method is deterministic and
    /// only reads the engine. Per-query [`QueryStats`] come from the
    /// storage layer's per-thread accounting, so each query's I/O delta is
    /// exact even though all workers share one
    /// [`IoStats`](storage::IoStats); the engine-level counter still
    /// accumulates the batch total.
    ///
    /// **Warm-cache accounting caveat.** With a page cache
    /// ([`Engine::with_page_cache`]) or a threshold cache
    /// ([`Engine::with_threshold_cache`]) attached, the *result payloads*
    /// are still bit-identical to sequential execution, but the
    /// per-query I/O split is interleaving-dependent: which worker takes
    /// the cache miss (and its charge) depends on thread scheduling, as
    /// does which same-`k` query fills the threshold cache. Only the batch
    /// *total* is meaningful under warm caches, and it is at most the cold
    /// total. Pin down nothing about individual warm `QueryStats.io`
    /// values in tests.
    pub fn query_batch(&self, specs: &[QuerySpec], method: Method) -> Vec<BatchOutcome> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.query_batch_threads(specs, method, threads)
    }

    /// [`Engine::query_batch`] with an explicit worker-thread budget
    /// (clamped to `1..=specs.len()`).
    ///
    /// # Panics
    /// Panics when a user-index method is requested without
    /// [`Engine::with_user_index`].
    pub fn query_batch_threads(
        &self,
        specs: &[QuerySpec],
        method: Method,
        threads: usize,
    ) -> Vec<BatchOutcome> {
        self.assert_method_ready(method);
        if specs.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, specs.len());

        // Work stealing off a shared cursor rather than static chunking:
        // query costs vary (k, |L|, selector), so pre-assigned contiguous
        // blocks would leave workers idle behind whichever block drew the
        // expensive queries. Each worker pops the next unclaimed spec until
        // the batch is drained, and results are stitched back into spec
        // order afterwards.
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, BatchOutcome)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        // One arena per worker: buffers warm up on the
                        // worker's first query and are reused for every
                        // spec it claims afterwards.
                        let mut arena = QueryArena::new();
                        let mut result = QueryResult::default();
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(i) else { break };
                            let stats =
                                self.run_instrumented(spec, method, &mut arena, &mut result);
                            local.push((
                                i,
                                BatchOutcome {
                                    result: result.clone(),
                                    stats,
                                },
                            ));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut out: Vec<Option<BatchOutcome>> = Vec::new();
        out.resize_with(specs.len(), || None);
        for (i, outcome) in per_worker.into_iter().flatten() {
            out[i] = Some(outcome);
        }
        out.into_iter()
            .map(|o| o.expect("every spec index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Point;
    use text::{Document, TermId, WeightModel};

    use crate::{ObjectData, UserData};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn engine() -> Engine {
        let objects: Vec<ObjectData> = (0..50)
            .map(|i| ObjectData {
                id: i,
                point: Point::new((i % 10) as f64, (i / 10) as f64),
                doc: Document::from_pairs([(t(i % 5), 1 + i % 2), (t(5), 1)]),
            })
            .collect();
        let users: Vec<UserData> = (0..12)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 7) as f64 + 0.4, (i % 4) as f64 + 0.7),
                doc: Document::from_terms([t(i % 5), t(5)]),
            })
            .collect();
        Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4).with_user_index()
    }

    fn specs() -> Vec<QuerySpec> {
        (0..9)
            .map(|i| QuerySpec {
                ox_doc: Document::from_terms([t(5)]),
                locations: vec![
                    Point::new((i % 3) as f64 + 0.5, 1.0),
                    Point::new(8.0 - (i % 4) as f64, 3.5),
                ],
                keywords: vec![t(0), t(1), t(2), t(3), t(4)],
                ws: 2,
                k: 2 + i % 3,
            })
            .collect()
    }

    /// The benchmark's `core.query_us.<name>` rows and the
    /// `engine_query_*{method=…}` metric families key on these strings.
    #[test]
    fn method_names_and_user_index_requirement_are_pinned() {
        let pinned = [
            ("baseline", false),
            ("joint-greedy", false),
            ("joint-greedy-plus", false),
            ("joint-exact", false),
            ("user-index-greedy", true),
            ("user-index-exact", true),
        ];
        let got = Method::ALL.map(|m| (m.name(), m.requires_user_index()));
        assert_eq!(got, pinned);
        // `EngineMetrics` indexes its per-method handles by discriminant.
        assert_eq!(Method::ALL.map(|m| m as usize), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn batch_matches_sequential_for_every_method() {
        let eng = engine();
        let specs = specs();
        for m in Method::ALL {
            let sequential: Vec<_> = specs.iter().map(|s| eng.query(s, m)).collect();
            let batch = eng.query_batch_threads(&specs, m, 4);
            assert_eq!(batch.len(), sequential.len());
            for (b, s) in batch.iter().zip(&sequential) {
                assert_eq!(&b.result, s, "{m:?}");
            }
        }
    }

    #[test]
    fn batch_stats_sum_to_engine_total() {
        let eng = engine();
        let specs = specs();
        eng.io.reset();
        let before = eng.io.snapshot();
        let batch = eng.query_batch_threads(&specs, Method::JointExact, 4);
        let delta = eng.io.snapshot() - before;
        let summed: IoSnapshot = batch.iter().map(|o| o.stats.io).sum();
        assert_eq!(summed, delta);
        assert!(delta.total() > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let eng = engine();
        assert!(eng.query_batch_threads(&[], Method::Baseline, 4).is_empty());
    }

    #[test]
    fn more_threads_than_specs_is_fine() {
        let eng = engine();
        let specs = &specs()[..2];
        let batch = eng.query_batch_threads(specs, Method::JointGreedy, 16);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    #[should_panic(expected = "with_user_index")]
    fn batch_rejects_user_index_method_without_index() {
        let objects = vec![ObjectData {
            id: 0,
            point: Point::new(0.0, 0.0),
            doc: Document::from_terms([t(0)]),
        }];
        let users = vec![UserData {
            id: 0,
            point: Point::new(1.0, 1.0),
            doc: Document::from_terms([t(0)]),
        }];
        let eng = Engine::build(objects, users, WeightModel::lm(), 0.5);
        eng.query_batch_threads(&specs()[..1], Method::UserIndexExact, 2);
    }

    /// With the threshold cache enabled, batch answers stay bit-identical
    /// to a cold engine's for every method, and a same-`k` batch charges
    /// less engine I/O than the cold run (the top-k phase is paid once).
    #[test]
    fn threshold_cached_batch_matches_cold_results() {
        let cold = engine();
        let cached = engine().with_threshold_cache();
        let specs = specs();
        for m in Method::ALL {
            let want: Vec<_> = specs.iter().map(|s| cold.query(s, m)).collect();
            let got = cached.query_batch_threads(&specs, m, 4);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(&g.result, w, "{m:?}");
            }
        }
        let tc = cached.thresholds.as_ref().unwrap();
        assert!(tc.hits() > 0, "repeat (method, k) lookups must hit");
    }

    /// Same-`k` queries after the first charge zero top-k I/O; the joint
    /// methods' selection stage is in-memory, so their second query
    /// charges nothing at all.
    #[test]
    fn threshold_cache_eliminates_repeat_topk_io() {
        let eng = engine().with_threshold_cache();
        let spec = &specs()[0];
        for m in [Method::Baseline, Method::JointExact] {
            let _ = eng.query(spec, m); // fills the cache for (m, k)
            let before = eng.io.snapshot();
            let _ = eng.query(spec, m);
            let delta = eng.io.snapshot() - before;
            assert_eq!(delta.total(), 0, "{m:?} second query charged I/O");
        }
    }
}

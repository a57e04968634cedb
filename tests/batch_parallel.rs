//! Batch-execution guarantees on a realistic generated workload: parallel
//! `query_batch` is observably identical to sequential `query` for every
//! method, and the per-query I/O accounting is exact.

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::QueryStats;
use maxbrstknn::prelude::*;
use maxbrstknn::storage::{IoSnapshot, IoStats};

/// A seeded 1K-object engine plus a batch of derived query variants.
fn workload() -> (Engine, Vec<QuerySpec>) {
    let objects = generate_objects(&CorpusConfig::flickr_like(1_000));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 60,
            area: 8.0,
            uw: 12,
            ul: 3,
            num_locations: 12,
            seed: 77,
        },
    );
    let engine =
        Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 8).with_user_index();
    let specs: Vec<QuerySpec> = (0..10)
        .map(|i| {
            let mut locations = wl.candidate_locations.clone();
            let shift = i % locations.len();
            locations.rotate_left(shift);
            locations.truncate(4);
            QuerySpec {
                ox_doc: Document::new(),
                locations,
                keywords: wl.candidate_keywords.clone(),
                ws: 2,
                k: 3 + i % 5,
            }
        })
        .collect();
    (engine, specs)
}

/// Acceptance criterion: with ≥ 4 threads, `query_batch` produces
/// bit-identical `QueryResult`s to sequential `query` for all six methods.
#[test]
fn batch_identical_to_sequential_for_every_method() {
    let (engine, specs) = workload();
    for method in Method::ALL {
        let sequential: Vec<QueryResult> = specs.iter().map(|s| engine.query(s, method)).collect();
        for threads in [4, 8] {
            let batch = engine.query_batch_threads(&specs, method, threads);
            assert_eq!(batch.len(), sequential.len());
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    &b.result, s,
                    "{method:?} query {i} with {threads} threads diverged"
                );
            }
        }
    }
}

/// Per-query `IoSnapshot` deltas sum to the engine-level total, even with
/// every worker charging the shared counter concurrently.
#[test]
fn per_query_io_deltas_sum_to_engine_total() {
    let (engine, specs) = workload();
    for method in Method::ALL {
        engine.io.reset();
        let before = engine.io.snapshot();
        let batch = engine.query_batch_threads(&specs, method, 4);
        let engine_delta = engine.io.snapshot() - before;
        let summed: IoSnapshot = batch.iter().map(|o| o.stats.io).sum();
        assert_eq!(summed, engine_delta, "{method:?}");
    }
}

/// Per-query stats are also *plausible*: elapsed is nonzero and index-based
/// methods charge I/O on every query.
#[test]
fn per_query_stats_are_populated() {
    let (engine, specs) = workload();
    let batch = engine.query_batch_threads(&specs, Method::JointExact, 4);
    for QueryStats {
        elapsed,
        io,
        phases,
        locations,
    } in batch.iter().map(|o| o.stats)
    {
        assert!(elapsed.as_nanos() > 0);
        assert!(io.total() > 0);
        // The built-in strategies stamp both phases, and their phase I/O
        // partitions the query total exactly.
        assert_eq!(phases.total_io(), io);
        // Algorithm 3 evaluated at least one location, and exact
        // selection reuses none.
        assert!(locations.evaluated > 0);
        assert_eq!(locations.reused, 0);
    }
}

/// Warm-cache contract: with a sharded page cache attached, per-query
/// `QueryStats.io` becomes interleaving-dependent (which worker takes a
/// miss is racy — see the `Engine::query_batch` docs), so this test pins
/// only what *is* deterministic: result payloads stay bit-identical to
/// sequential cold execution, and the batch I/O total never exceeds the
/// cold total.
#[test]
fn warm_cache_batch_payloads_identical_and_io_bounded() {
    let (mut engine, specs) = workload();
    for method in [
        Method::Baseline,
        Method::JointExact,
        Method::UserIndexGreedy,
    ] {
        // Cold reference: sequential answers + cold batch I/O total.
        engine.io = IoStats::new();
        let sequential: Vec<QueryResult> = specs.iter().map(|s| engine.query(s, method)).collect();
        engine.io.reset();
        let cold_total: u64 = engine
            .query_batch_threads(&specs, method, 4)
            .iter()
            .map(|o| o.stats.io.total())
            .sum();

        // Warm run: same engine data, page-cache-backed counter.
        engine.io = IoStats::with_cache(1 << 15);
        let warm = engine.query_batch_threads(&specs, method, 4);
        for (i, (w, s)) in warm.iter().zip(&sequential).enumerate() {
            assert_eq!(
                &w.result, s,
                "{method:?} query {i}: warm payload diverged from sequential"
            );
        }
        let warm_total: u64 = warm.iter().map(|o| o.stats.io.total()).sum();
        assert!(
            warm_total <= cold_total,
            "{method:?}: warm batch I/O {warm_total} exceeds cold {cold_total}"
        );
        let hits: u64 = warm.iter().map(|o| o.stats.io.cache_hits).sum();
        assert!(hits > 0, "{method:?}: repeated index pages must hit");
    }
}

/// The default thread count (available parallelism) also matches
/// sequential answers.
#[test]
fn default_query_batch_matches_sequential() {
    let (engine, specs) = workload();
    let sequential: Vec<QueryResult> = specs
        .iter()
        .map(|s| engine.query(s, Method::JointGreedy))
        .collect();
    let batch = engine.query_batch(&specs, Method::JointGreedy);
    for (b, s) in batch.iter().zip(&sequential) {
        assert_eq!(&b.result, s);
    }
}

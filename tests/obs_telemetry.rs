//! Differential telemetry test: the metrics registry is an *exact*
//! re-aggregation of the per-query `QueryStats` the engine hands back.
//!
//! A seeded batch of ≥1K queries (168 specs × all six methods) runs
//! through the instrumented engine; every per-query stat is folded into
//! an expectation by hand, then `Engine::metrics().snapshot()` must
//! reconcile with it **exactly** — histogram counts and sums are exact
//! (only the quantiles are log-bucketed), so any double-count, dropped
//! record, or phase/total mismatch in the recording path fails here.

use std::sync::Arc;

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::{LocationCounts, Phase, ServingEngine};
use maxbrstknn::prelude::*;
use serve::{Client, Reply, Request, ServeConfig, Server};

const SPECS: usize = 168; // × 6 methods = 1008 queries

/// A small seeded engine plus 168 derived query variants.
fn workload() -> (Engine, Vec<QuerySpec>) {
    let objects = generate_objects(&CorpusConfig::flickr_like(500));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 24,
            area: 8.0,
            uw: 10,
            ul: 3,
            num_locations: 8,
            seed: 4242,
        },
    );
    let engine =
        Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 8).with_user_index();
    let specs: Vec<QuerySpec> = (0..SPECS)
        .map(|i| {
            let mut locations = wl.candidate_locations.clone();
            let shift = i % locations.len();
            locations.rotate_left(shift);
            locations.truncate(3);
            QuerySpec {
                ox_doc: Document::new(),
                locations,
                keywords: wl.candidate_keywords.clone(),
                ws: 2,
                k: 2 + i % 4,
            }
        })
        .collect();
    (engine, specs)
}

/// Everything the registry should have accumulated for one method.
#[derive(Default)]
struct Expected {
    queries: u64,
    latency_us_sum: u64,
    io_sum: u64,
    phase_io_sum: [u64; 2],
    phase_latency_us_sum: [u64; 2],
    locations: LocationCounts,
}

#[test]
fn registry_reconciles_exactly_with_summed_query_stats() {
    let (engine, specs) = workload();

    let mut expected: Vec<(&'static str, Expected)> = Vec::new();
    for method in Method::ALL {
        let outcomes = engine.query_batch_threads(&specs, method, 4);
        assert_eq!(outcomes.len(), SPECS);
        let mut e = Expected::default();
        for o in &outcomes {
            e.queries += 1;
            // The same truncations the recording path applies, so the
            // comparison below is exact, not approximate.
            e.latency_us_sum += o.stats.elapsed.as_micros().min(u64::MAX as u128) as u64;
            e.io_sum += o.stats.io.total();
            for (phase, ps) in o.stats.phases.iter() {
                e.phase_io_sum[phase as usize] += ps.io.total();
                e.phase_latency_us_sum[phase as usize] += ps.nanos / 1_000;
            }
            // Built-in strategies partition their I/O across the two
            // phases with nothing left over.
            assert_eq!(o.stats.phases.total_io(), o.stats.io, "{method:?}");
            // Every dequeued location is evaluated or reused, never both.
            let l = o.stats.locations;
            assert_eq!(l.evaluated + l.reused, l.dequeued, "{method:?}");
            e.locations.dequeued += l.dequeued;
            e.locations.evaluated += l.evaluated;
            e.locations.reused += l.reused;
        }
        expected.push((method.name(), e));
    }

    let snap = engine.metrics().snapshot();
    for (name, e) in &expected {
        let hist = |family: &str| {
            snap.histogram(&format!("{family}{{method=\"{name}\"}}"))
                .unwrap_or_else(|| panic!("{name}: missing {family}"))
        };
        let phase_hist = |family: &str, phase: Phase| {
            snap.histogram(&format!(
                "{family}{{method=\"{name}\",phase=\"{}\"}}",
                phase.name()
            ))
            .unwrap_or_else(|| panic!("{name}: missing {family}/{phase:?}"))
        };

        // Per-method latency: exact count and sum, ordered percentiles.
        let lat = hist("engine_query_latency_us");
        assert_eq!(lat.count(), e.queries, "{name}: latency count");
        assert_eq!(lat.sum(), e.latency_us_sum, "{name}: latency sum");
        let (p50, p99, p999) = (lat.p50(), lat.p99(), lat.p999());
        assert!(lat.min() <= p50 && p50 <= p99 && p99 <= p999 && p999 <= lat.max());

        // Per-method I/O: the histogram total is the summed QueryStats.
        let io = hist("engine_query_io_ops");
        assert_eq!(io.count(), e.queries, "{name}: io count");
        assert_eq!(io.sum(), e.io_sum, "{name}: io sum");

        // Per-phase I/O and latency reconcile, and the two phases
        // partition the method's I/O total exactly.
        let mut phase_io_total = 0;
        for phase in Phase::ALL {
            let pio = phase_hist("engine_query_phase_io_ops", phase);
            assert_eq!(pio.count(), e.queries, "{name}/{phase:?}: io count");
            assert_eq!(
                pio.sum(),
                e.phase_io_sum[phase as usize],
                "{name}/{phase:?}: io sum"
            );
            phase_io_total += pio.sum();

            let plat = phase_hist("engine_query_phase_latency_us", phase);
            assert_eq!(
                plat.sum(),
                e.phase_latency_us_sum[phase as usize],
                "{name}/{phase:?}: latency sum"
            );
        }
        assert_eq!(phase_io_total, e.io_sum, "{name}: phases must partition io");

        // The location counters are the summed per-query counts, and the
        // two sum to the locations dequeued.
        let located = |how: &str| {
            snap.counter(&format!(
                "engine_select_locations_total{{method=\"{name}\",how=\"{how}\"}}"
            ))
            .unwrap_or_else(|| panic!("{name}: missing {how} locations"))
        };
        let (evaluated, reused) = (located("evaluated"), located("reused"));
        assert_eq!(evaluated, e.locations.evaluated, "{name}: evaluated");
        assert_eq!(reused, e.locations.reused, "{name}: reused");
        assert_eq!(evaluated + reused, e.locations.dequeued, "{name}: dequeued");
        // Only greedy selection reuses an evaluation; on this workload's
        // clustered users it does.
        assert_eq!(reused > 0, name.ends_with("-greedy"), "{name}: {reused}");
    }

    // The same numbers survive both export formats.
    let json = snap.to_json();
    let prom = snap.render_prometheus();
    for (name, e) in &expected {
        assert!(json.contains(&format!("engine_query_latency_us{{method=\\\"{name}\\\"}}")));
        assert!(prom.contains(&format!(
            "engine_query_latency_us_count{{method=\"{name}\"}} {}",
            e.queries
        )));
    }
}

/// The serve layer's query counter reconciles exactly against its
/// latency histogram *plus* the error counter: a query that fails before
/// reaching the engine (user-index method on an index-less engine) is
/// counted on `serve_request_errors_total{kind="query"}` and records no
/// latency sample, so `requests == latency.count + errors` always holds
/// — the books never disagree by a silent error path.
#[test]
fn serve_query_counter_reconciles_with_histogram_plus_errors() {
    let objects = generate_objects(&CorpusConfig::flickr_like(400));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 12,
            area: 8.0,
            uw: 10,
            ul: 3,
            num_locations: 6,
            seed: 555,
        },
    );
    // No user index: the §7 methods must take the serve error path.
    let engine = Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 8);
    let serving = ServingEngine::new(engine);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&serving), ServeConfig::default())
        .expect("bind ephemeral");
    let mut client = Client::connect(server.local_addr()).unwrap();

    let spec = QuerySpec {
        ox_doc: Document::new(),
        locations: wl.candidate_locations.clone(),
        keywords: wl.candidate_keywords.clone(),
        ws: 2,
        k: 3,
    };

    let mut ok = 0u64;
    let mut errors = 0u64;
    for round in 0..6u64 {
        for method in Method::ALL {
            let reply = client
                .request(&Request::Query {
                    method,
                    spec: QuerySpec {
                        k: 2 + (round as usize % 3),
                        ..spec.clone()
                    },
                })
                .expect("transport ok");
            match reply {
                Reply::Answer(_) => ok += 1,
                Reply::Error(msg) => {
                    assert!(
                        method.requires_user_index(),
                        "unexpected error for {}: {msg}",
                        method.name()
                    );
                    errors += 1;
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
    }
    assert_eq!(errors, 12, "two §7 methods × six rounds");

    let snap = serving.snapshot().metrics().snapshot();
    let requests = snap
        .counter("serve_requests_total{kind=\"query\"}")
        .expect("query counter registered");
    let recorded_errors = snap
        .counter("serve_request_errors_total{kind=\"query\"}")
        .expect("error counter registered");
    let lat = snap
        .histogram("serve_request_latency_us{kind=\"query\"}")
        .expect("latency histogram registered");
    assert_eq!(requests, ok + errors);
    assert_eq!(recorded_errors, errors);
    assert_eq!(lat.count(), ok, "only answered queries are latency-sampled");
    assert_eq!(
        requests,
        lat.count() + recorded_errors,
        "counter and histogram must reconcile"
    );

    // The reconciliation survives the Prometheus export.
    let page = snap.render_prometheus();
    assert!(page.contains(&format!(
        "serve_request_errors_total{{kind=\"query\"}} {recorded_errors}"
    )));
}

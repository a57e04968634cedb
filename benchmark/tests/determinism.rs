//! Seed and determinism: the seed fixes the op lists and the exact
//! metrics; the catalogue is well-formed and matches `BENCHMARK.json`.

use std::collections::HashSet;

use mbrstk_benchmark::catalogue::{
    manifest_json, workload, END_TO_END, PER_LAYER, REFERENCE_SECONDS, RUN_SECONDS, WORKLOADS,
};
use mbrstk_benchmark::gen::{Data, Plan, Scale};
use mbrstk_benchmark::run::{run, RunConfig};

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[test]
fn catalogue_is_well_formed() {
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "metric name {:?}", m.name);
        assert!(unit_ok(m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));

    assert!((2..=8).contains(&WORKLOADS.len()));
    for w in &WORKLOADS {
        assert!(name_ok(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} used twice", w.name);
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why must be one line of at most 200 characters, is {}",
            w.name,
            w.why.len()
        );
        assert!(!w.why.contains('"') && !w.why.contains('\\'));
    }
}

#[test]
fn benchmark_json_is_the_rendered_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn the_seed_fixes_the_op_lists() {
    let data = Data::generate(Scale::QUICK);
    for w in &WORKLOADS {
        let a = Plan::generate(&data, w, 100, 12.0, 2);
        let b = Plan::generate(&data, w, 100, 12.0, 2);
        let c = Plan::generate(&data, w, 101, 12.0, 2);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}: same seed", w.name);
        assert_ne!(a.fingerprint(), c.fingerprint(), "{}: other seed", w.name);
        let ops: usize = a.closed.iter().map(Vec::len).sum();
        assert_eq!(
            ops,
            (w.closed_ops as f64 * 12.0 / REFERENCE_SECONDS).round() as usize
        );
        assert_eq!(a.closed_writes > 0, w.write_frac > 0.0);
    }
}

/// Two traced runs of one seed agree exactly on every count the program
/// makes single-threaded, and print every metric of both lists.
#[test]
fn the_seed_fixes_the_exact_metrics() {
    let cfg = RunConfig {
        workload: workload("serve_cold").expect("serve_cold exists"),
        seed: 100,
        seconds: 2.0,
        scale: Scale::QUICK,
        trace: true,
    };
    let a = run(&cfg);
    let b = run(&cfg);
    for out in [&a, &b] {
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted > 0);
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let v = out.metrics.get(m.name).copied();
            assert!(
                v.is_some_and(f64::is_finite),
                "{} missing or not finite: {v:?}",
                m.name
            );
        }
        for m in END_TO_END {
            assert!(out.metrics[m.name] > 0.0, "{} must never be 0", m.name);
        }
    }
    assert_eq!(a.plan_fingerprint, b.plan_fingerprint);
    let exact = ["sim_io_per_query", "index_bytes_per_object"]
        .into_iter()
        .map(str::to_owned)
        .chain(
            PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with("core.query_io."))
                .map(|m| m.name.to_owned()),
        );
    for name in exact {
        assert_eq!(
            a.metrics[&name], b.metrics[&name],
            "{name} must repeat exactly"
        );
    }
    assert!(a.metrics["sim_io_per_query"] > 0.0);

    // The result line carries exactly the list its mode names.
    let traced = a.result_json();
    assert!(traced.contains("\"core.query_io.joint-greedy\""));
    assert!(!traced.contains("\"setup_s\""));
    assert!(!traced.contains("null"));
}

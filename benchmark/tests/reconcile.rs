//! The reconciliation row: the in-process layer self-times of a request
//! explain its TCP round trip up to a bounded residual.

use mbrstk_benchmark::catalogue::workload;
use mbrstk_benchmark::gen::Scale;
use mbrstk_benchmark::run::{out_dir, run, RunConfig};

/// Share of `serve.roundtrip_us` the layers may leave unexplained on the
/// cold workload (wire, queue hand-off, server bookkeeping, telemetry).
const MAX_RESIDUAL_FRAC: f64 = 0.35;

#[test]
fn layers_sum_to_the_round_trip_within_the_stated_residual() {
    let out = run(&RunConfig {
        workload: workload("serve_cold").expect("serve_cold exists"),
        seed: 100,
        seconds: 3.0,
        scale: Scale::QUICK,
        trace: true,
    });
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let roundtrip = out.metrics["serve.roundtrip_us"];
    let layers = out.metrics["serve.layers_sum_us"];
    let residual = out.metrics["serve.residual_us"];
    assert!(roundtrip > 0.0 && layers > 0.0);
    assert!((roundtrip - layers - residual).abs() < 1e-6);
    assert!(
        residual.abs() / roundtrip < MAX_RESIDUAL_FRAC,
        "residual {residual:.1} us of round trip {roundtrip:.1} us"
    );

    let trace = std::fs::read_to_string(out_dir().join("trace-serve_cold.json"))
        .expect("the traced pass writes its spans");
    for name in [
        "serve.roundtrip",
        "core.topk",
        "core.select",
        "bench.inprocess",
    ] {
        assert!(
            trace.contains(&format!("\"name\": \"{name}\"")),
            "{name} span"
        );
    }
    assert!(trace.contains("\"env\": {\"nproc\""));
}

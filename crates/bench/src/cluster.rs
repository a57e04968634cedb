//! `figures -- cluster`: scatter-gather scaling vs slice count.
//!
//! Builds one corpus at 4× the configured scale (scattering only pays off
//! past the single-thread comfort zone), then answers the same query
//! stream through a fused `Engine` and through [`EngineCluster`]s of
//! 1, 2, 4 and 8 user-table slices over that one engine. Answers are
//! bit-identical across configurations (the differential suite pins
//! that); this experiment measures what slicing the user table buys.
//!
//! Two methods, two regimes:
//!
//! * **Baseline** (§4): the top-k phase is one IR-tree traversal *per
//!   user* — wholly per-user work, the embarrassingly parallel case the
//!   slices target. The scatter critical path (the slowest slice)
//!   shrinks ≈ 1/N.
//! * **JointGreedy** (§5/§6): the shared MIR traversal and the candidate
//!   selection are not scattered, so Amdahl bounds the win to the
//!   individual-top-k fraction.
//!
//! Besides measured wall-clock throughput, the table reports the **top-k
//! critical path** — the slowest slice's accumulated scatter time, read
//! from the `cluster_scatter_latency_us{shard=...}` histograms — and its
//! speedup over the 1-slice configuration. Wall-clock throughput tracks
//! the critical path when one core per slice is available; on fewer
//! cores each scoped worker runs several slices back to back and wall
//! time stays flat while the critical path still contracts (the dev box
//! has 2 cores).
//!
//! The query stream cycles `k` through more distinct values than the
//! engine's 16-slot threshold-cache LRU holds, so every query pays the
//! scattered top-k phase rather than a cache hit.

use std::time::Instant;

use mbrstk_core::{EngineCluster, Method, QuerySpec};

use crate::report::{fmt, Table};
use crate::{Params, Scenario};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Measure {
    qps: f64,
    mean_ms: f64,
    p99_ms: f64,
}

/// Runs the shard-count sweep for both methods and prints one table per
/// method.
pub fn scaling(p: &Params) {
    let mut sp = p.clone();
    sp.num_objects *= 4;
    sp.num_users *= 4;
    println!(
        "## cluster — |O|={}, |U|={} (4x the configured scale)",
        sp.num_objects, sp.num_users
    );
    let sc = Scenario::build(&sp, 0);

    // 17 distinct k values exceed the 16-slot LRU; Baseline's per-user
    // traversals are expensive enough that one pass over the cycle is
    // the whole panel. JointGreedy is cheap per query — run more.
    sweep(&sc, Method::Baseline, 17, 17);
    sweep(&sc, Method::JointGreedy, (sp.trials * 32).max(32), 32);
}

fn sweep(sc: &Scenario, method: Method, n_queries: usize, k_cycle: usize) {
    let specs: Vec<QuerySpec> = (0..n_queries)
        .map(|i| QuerySpec {
            k: 2 + (i % k_cycle),
            ..sc.spec.clone()
        })
        .collect();

    let mut table = Table::new(
        &format!(
            "{} — {} queries, k cycling over {} values",
            method.name(),
            n_queries,
            k_cycle
        ),
        &[
            "config",
            "qps",
            "mean ms",
            "p99 ms",
            "topk crit ms",
            "crit speedup",
        ],
    );

    let fused = run(&specs, |spec| {
        sc.engine.query(spec, method);
    });
    table.row(vec![
        "fused".into(),
        fmt(fused.qps),
        fmt(fused.mean_ms),
        fmt(fused.p99_ms),
        "-".into(),
        "-".into(),
    ]);

    let mut one_shard_crit = None;
    for n in SHARD_COUNTS {
        let cluster = EngineCluster::from_engine(sc.engine.clone(), n);
        // The cloned head shares the fused engine's metrics registry, so
        // the per-slice histograms accumulate across configurations —
        // diff around the run to isolate this one's samples.
        let before = shard_scatter_us(&cluster, n);
        let m = run(&specs, |spec| {
            cluster.query(spec, method);
        });
        let after = shard_scatter_us(&cluster, n);
        let crit_ms = after
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b) as f64 / 1e3)
            .fold(0.0, f64::max);
        let base = *one_shard_crit.get_or_insert(crit_ms);
        table.row(vec![
            format!("{n}-shard"),
            fmt(m.qps),
            fmt(m.mean_ms),
            fmt(m.p99_ms),
            fmt(crit_ms),
            format!("{:.2}x", base / crit_ms.max(f64::MIN_POSITIVE)),
        ]);
    }
    table.print();
}

/// Per-slice accumulated scatter time (µs) from the head registry's
/// `cluster_scatter_latency_us{shard=...}` histograms. The slowest
/// slice's delta over a panel is the **critical path**: the wall time
/// the scattered top-k phase needs when every slice has a core of its
/// own.
fn shard_scatter_us(cluster: &EngineCluster, nshards: usize) -> Vec<u64> {
    let snap = cluster.head().metrics().snapshot();
    (0..nshards)
        .map(|i| {
            snap.histogram(&format!("cluster_scatter_latency_us{{shard=\"{i}\"}}"))
                .map_or(0, |h| h.sum())
        })
        .collect()
}

fn run(specs: &[QuerySpec], mut f: impl FnMut(&QuerySpec)) -> Measure {
    let mut lat_ms = Vec::with_capacity(specs.len());
    let start = Instant::now();
    for spec in specs {
        let t0 = Instant::now();
        f(spec);
        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let total = start.elapsed().as_secs_f64();
    lat_ms.sort_by(f64::total_cmp);
    let p99_rank = ((lat_ms.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    Measure {
        qps: specs.len() as f64 / total.max(f64::MIN_POSITIVE),
        mean_ms: lat_ms.iter().sum::<f64>() / lat_ms.len() as f64,
        p99_ms: lat_ms[p99_rank.min(lat_ms.len() - 1)],
    }
}

//! What the benchmark runs and what it reports: the five workloads and
//! the two metric lists. `BENCHMARK.json` at the repo root is rendered
//! from this file (`benchmark manifest`) and a test keeps the two equal.

use mbrstk_core::Method;
use storage::CodecId;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 8;

/// `--seconds` at which the closed-loop op counts below apply unscaled.
/// Every count in a run is `count × seconds / REFERENCE_SECONDS`, so both
/// commits of a comparison replay lists of identical length.
pub const REFERENCE_SECONDS: f64 = 40.0;

/// Query variants per workload (location pool rotated, half-pool window).
pub const VARIANTS: usize = 64;

/// Writes in the quiesced tail of the traced pass (inserts only, so the
/// timed refresh after them has a changed corpus to re-weigh).
pub const TAIL_WRITES: usize = 32;

/// One traffic mix against one engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name later issues claim against.
    pub name: &'static str,
    /// Why this workload exists, in one sentence.
    pub why: &'static str,
    /// Block-file codec of every index.
    pub codec: CodecId,
    /// Threshold cache + 1 Mi-block page cache (the whole index fits).
    pub caches: bool,
    /// Serve through an `EngineCluster` of `nproc` shards.
    pub cluster: bool,
    /// Share of closed-loop ops that are writes.
    pub write_frac: f64,
    /// Query methods and their weights (out of 100).
    pub methods: &'static [(Method, u32)],
    /// `k` values; variant `i` always asks for `ks[i % ks.len()]`.
    pub ks: &'static [usize],
    /// Closed-loop ops at [`REFERENCE_SECONDS`].
    pub closed_ops: usize,
    /// Open-loop arrival rate (requests/s), about 35% of the closed-loop
    /// capacity measured on the 2-core dev box.
    pub open_rate: f64,
}

const JOINT_ONLY: &[(Method, u32)] = &[(Method::JointGreedy, 100)];

/// The five workloads, in the order `all` runs them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "serve_cold",
        why: "no caches, Verbatim codec: every request pays the paper's full pipeline, so index, storage and core.topk do most of the work",
        codec: CodecId::Verbatim,
        caches: false,
        cluster: false,
        write_frac: 0.0,
        methods: JOINT_ONLY,
        ks: &[10],
        closed_ops: 2_400,
        open_rate: 25.0,
    },
    Workload {
        name: "serve_cold_columnar",
        why: "the serve_cold op list on a Columnar engine: a codec-specific gain must show here and not on serve_cold, and a Verbatim fast path must not cost this one",
        codec: CodecId::Columnar,
        caches: false,
        cluster: false,
        write_frac: 0.0,
        methods: JOINT_ONLY,
        ks: &[10],
        closed_ops: 2_400,
        open_rate: 16.0,
    },
    Workload {
        name: "serve_warm",
        why: "threshold and page cache on, three k values, 15% user-index queries: the top-k phase is a cache hit, so core.select, core.user_index, serve and obs are the whole request",
        codec: CodecId::Verbatim,
        caches: true,
        cluster: false,
        write_frac: 0.0,
        methods: &[(Method::JointGreedy, 85), (Method::UserIndexGreedy, 15)],
        ks: &[5, 10, 20],
        closed_ops: 7_000,
        open_rate: 55.0,
    },
    Workload {
        name: "serve_mixed",
        why: "90% cached reads beside 10% writes with a background refresher: every write invalidates the threshold cache and contends with snapshot holders (copy-on-write fallback)",
        codec: CodecId::Verbatim,
        caches: true,
        cluster: false,
        write_frac: 0.10,
        methods: JOINT_ONLY,
        ks: &[10],
        closed_ops: 2_400,
        open_rate: 80.0,
    },
    Workload {
        name: "cluster_mixed",
        why: "the serve_mixed mix against an EngineCluster of nproc shards: scatter/gather, broadcast mutation routing, synchronized refresh and the (N+1)x object-tree replication",
        codec: CodecId::Verbatim,
        caches: true,
        cluster: true,
        write_frac: 0.10,
        methods: JOINT_ONLY,
        ks: &[10],
        closed_ops: 1_600,
        open_rate: 80.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named, unit-carrying number.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Gated end-to-end metrics: every workload reports every one of them,
/// never 0, and two sets of runs of one commit agree on them within the
/// bound. The two `*_undisturbed` metrics are computed from per-request
/// fastest round trips (see `run::undisturbed_query_us`); the raw closed-loop
/// figures they stand in for are recorded in [`PER_LAYER`].
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("queries_per_s_undisturbed", "1/s", Higher, 0.25),
    e2e("query_p50_us_undisturbed", "us", Lower, 0.25),
    e2e("sim_io_per_query", "io", Lower, 0.02),
    e2e("index_bytes_per_object", "bytes", Lower, 0.02),
    e2e("rss_after_setup_mb", "MiB", Lower, 0.10),
];

/// Recorded per-layer metrics (no bound). The first blocks are read after
/// each workload from the benchmark's samples and the engine's public
/// registry; the rest is timed single-threaded in the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end by meaning, but not gateable: 0 by design (failed_frac,
    // enforced by the exit code instead), or moving 15-50% between
    // identical runs on the shared dev box (raw closed-loop throughput and
    // latency, everything a write or a refresh times). Recorded under the
    // names later issues use.
    layer("failed_frac", "ratio", Lower),
    layer("ops_per_s", "1/s", Higher),
    layer("query_p50_us", "us", Lower),
    layer("sched_p50_us", "us", Lower),
    layer("mutate_p50_us", "us", Lower),
    layer("refresh_s", "s", Lower),
    // serve.*, per workload
    layer("serve.query_p90_us", "us", Lower),
    layer("serve.query_p99_us", "us", Lower),
    layer("serve.mutate_p99_us", "us", Lower),
    layer("serve.sched_p99_us", "us", Lower),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.shed_total", "count", Lower),
    // registry counts, per workload
    layer("storage.page_cache_hit_ratio", "ratio", Higher),
    layer("core.cache.threshold_hit_ratio", "ratio", Higher),
    layer("core.refresh.cow_fallbacks", "count", Lower),
    layer("core.refresh.swap_wait_p50_us", "us", Lower),
    layer("core.refresh.cycles", "count", Higher),
    layer("core.refresh.replayed", "count", Lower),
    // traced replay of the workload's requests
    layer("serve.roundtrip_us", "us", Lower),
    layer("serve.layers_sum_us", "us", Lower),
    layer("serve.residual_us", "us", Lower),
    layer("serve.stats_roundtrip_us", "us", Lower),
    layer("serve.connect_roundtrip_us", "us", Lower),
    layer("serve.protocol.encode_request_ns", "ns", Lower),
    layer("serve.protocol.decode_request_ns", "ns", Lower),
    layer("serve.protocol.encode_reply_ns", "ns", Lower),
    layer("serve.protocol.decode_reply_ns", "ns", Lower),
    layer("serve.protocol.request_bytes", "bytes", Lower),
    layer("serve.protocol.reply_bytes", "bytes", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    // datagen / build
    layer("datagen.generate_s", "s", Lower),
    layer("core.build_s.verbatim", "s", Lower),
    layer("core.build_s.columnar", "s", Lower),
    layer("core.user_index_build_s", "s", Lower),
    layer("core.cluster.build_s", "s", Lower),
    layer("index.bytes_physical.verbatim", "bytes", Lower),
    layer("index.bytes_physical.columnar", "bytes", Lower),
    layer("index.bytes_logical", "bytes", Lower),
    layer("index.mir_height", "count", Lower),
    layer("index.save_s", "s", Lower),
    layer("index.load_s", "s", Lower),
    // geo, text, storage
    layer("geo.min_ss_ns", "ns", Lower),
    layer("text.ts_weighted_ns", "ns", Lower),
    layer("storage.codec_get_u32s_ns_per_value.columnar", "ns", Lower),
    layer("storage.codec_get_f64s_ns_per_value.columnar", "ns", Lower),
    layer("storage.io_charge_ns", "ns", Lower),
    layer("storage.lru_access_hit_ns", "ns", Lower),
    // index
    layer("index.mir_read_node_ns.verbatim", "ns", Lower),
    layer("index.mir_read_node_ns.columnar", "ns", Lower),
    layer("index.mir_read_postings_ns.verbatim", "ns", Lower),
    layer("index.mir_read_postings_ns.columnar", "ns", Lower),
    layer("index.mir_postings_io_per_read.verbatim", "io", Lower),
    layer("index.mir_postings_io_per_read.columnar", "io", Lower),
    layer("index.miur_read_node_ns.verbatim", "ns", Lower),
    layer("index.miur_read_node_ns.columnar", "ns", Lower),
    layer("index.insert_us", "us", Lower),
    layer("index.remove_us", "us", Lower),
    // core.topk
    layer("core.topk.joint_us", "us", Lower),
    layer("core.topk.individual_us", "us", Lower),
    layer("core.topk.baseline_us", "us", Lower),
    layer("core.topk.joint_io", "io", Lower),
    layer("core.topk.baseline_io", "io", Lower),
    // core.select, core.user_index
    layer("core.select.context_us", "us", Lower),
    layer("core.select.greedy_us", "us", Lower),
    layer("core.select.exact_us", "us", Lower),
    layer("core.select.baseline_us", "us", Lower),
    layer("core.user_index.select_us", "us", Lower),
    layer("core.user_index.select_io", "io", Lower),
    // core.pipeline: the paper's figure-level numbers, cold, one thread
    layer("core.query_us.baseline", "us", Lower),
    layer("core.query_us.joint-greedy", "us", Lower),
    layer("core.query_us.joint-greedy-plus", "us", Lower),
    layer("core.query_us.joint-exact", "us", Lower),
    layer("core.query_us.user-index-greedy", "us", Lower),
    layer("core.query_us.user-index-exact", "us", Lower),
    layer("core.query_io.baseline", "io", Lower),
    layer("core.query_io.joint-greedy", "io", Lower),
    layer("core.query_io.joint-greedy-plus", "io", Lower),
    layer("core.query_io.joint-exact", "io", Lower),
    layer("core.query_io.user-index-greedy", "io", Lower),
    layer("core.query_io.user-index-exact", "io", Lower),
    layer("core.query_warm_us.joint-greedy", "us", Lower),
    layer("core.cache.fill_us", "us", Lower),
    // core.dynamic, core.refresh
    layer("core.dynamic.insert_object_us", "us", Lower),
    layer("core.dynamic.remove_object_us", "us", Lower),
    layer("core.dynamic.insert_user_us", "us", Lower),
    layer("core.dynamic.remove_user_us", "us", Lower),
    layer("core.dynamic.maint_io_per_mutation", "io", Lower),
    layer("core.dynamic.engine_clone_ms", "ms", Lower),
    layer("core.refresh.apply_us", "us", Lower),
    layer("core.refresh.full_s", "s", Lower),
    layer("core.refresh.incremental_s", "s", Lower),
    // core.cluster
    layer("core.cluster.query_cold_us", "us", Lower),
    layer("core.cluster.apply_object_us", "us", Lower),
    layer("core.cluster.apply_user_us", "us", Lower),
    layer("core.cluster.refresh_s", "s", Lower),
    layer("core.cluster.scatter_p50_us", "us", Lower),
    // obs
    layer("obs.histogram_record_ns", "ns", Lower),
    layer("obs.snapshot_us", "us", Lower),
    layer("obs.render_prometheus_us", "us", Lower),
];

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

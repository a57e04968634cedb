//! One run of one workload: set up, warm up, closed loop, quiesce and
//! verify; the traced pass adds the open loop, the replay with spans, the
//! quiesced write tail with a timed refresh, and the layer measurements.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use mbrstk_core::QueryResult;
use mbrstk_obs::MetricsSnapshot;
use serve::Client;

use crate::catalogue::{Workload, REFERENCE_SECONDS, TAIL_WRITES};
use crate::drive::{self, Check, Failures, OpClass, PhaseResult};
use crate::gen::{Plan, Scale};
use crate::layers;
use crate::report::{commit, rustc_version, Env, RunOutput};
use crate::stats::{mean, median, percentile, us};
use crate::system::{undisturbed_setup_s, System};
use crate::trace::{self, Recorder};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
}

/// Client threads, connections and server workers: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark's own output directory (`benchmark/out/`).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Σ simulated I/O and query count over every method's phase histograms.
fn io_mass(snap: &MetricsSnapshot) -> (u64, u64) {
    let mut sum = 0;
    let mut count = 0;
    for (name, h) in snap.histograms() {
        if name.starts_with("engine_query_phase_io_ops{") {
            sum += h.sum();
            if name.contains("phase=\"topk\"") {
                count += h.count();
            }
        }
    }
    (sum, count)
}

fn counter_family(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// The undisturbed cost (us) of every query of a closed loop: the fast
/// edge (2nd percentile) of the round trips its class — method and `k`
/// — had in the run.
///
/// The dev box is a shared VM that drifts between full speed and about
/// 1.4x slower for seconds at a time, and a neighbour only ever adds
/// time: over identical runs the median round trip moves 15-30%, the
/// 10th percentile 5-10%, the 2nd 1-4%. A class is sent tens to hundreds
/// of times, spread over the whole loop, and its requests do the same
/// work up to the few percent by which location windows differ, so its
/// fast edge is what the program itself costs; a change that makes a
/// request cheaper or dearer moves that edge by the same amount. Writes
/// have no such edge (their cost spreads 10x with the object and the
/// tree state), so they are left to the raw metrics.
///
/// The edge comes from the loop itself, with every client busy: a phase
/// with one client alone reads 40-100% *slower* than this edge, because
/// each request then has to wake an idle vCPU.
fn undisturbed_query_us(ops: &[(OpClass, u64)]) -> Vec<f64> {
    let mut by_class: HashMap<OpClass, Vec<f64>> = HashMap::new();
    for &(class, ns) in ops.iter().filter(|(class, _)| class.is_query()) {
        by_class.entry(class).or_default().push(ns as f64 / 1_000.0);
    }
    let edge: HashMap<OpClass, f64> = by_class
        .into_iter()
        .map(|(class, mut us)| (class, percentile(&mut us, 0.02)))
        .collect();
    ops.iter()
        .filter_map(|(class, _)| edge.get(class).copied())
        .collect()
}

fn latencies_us(ops: &[(OpClass, u64)], queries: bool) -> Vec<f64> {
    ops.iter()
        .filter(|(class, _)| class.is_query() == queries)
        .map(|&(_, ns)| ns as f64 / 1_000.0)
        .collect()
}

struct Tally {
    attempted: u64,
    failures: Failures,
}

impl Tally {
    fn take(&mut self, phase: &PhaseResult) {
        self.attempted += phase.attempted;
        self.failures.add(phase.failures);
    }
}

/// Wall time of each step of a run, for the time budget.
struct Phases {
    last: Instant,
    rows: Vec<(&'static str, f64)>,
}

impl Phases {
    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.rows.push((name, (now - self.last).as_secs_f64()));
        self.last = now;
    }
}

pub fn run(cfg: &RunConfig) -> RunOutput {
    let w = cfg.workload;
    let clients_n = nproc();
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    let mut samples: BTreeMap<String, usize> = BTreeMap::new();
    let mut tally = Tally {
        attempted: 0,
        failures: Failures::default(),
    };
    let mut phases = Phases {
        last: Instant::now(),
        rows: Vec::new(),
    };

    // Three background refresh cycles inside the closed loop.
    let closed_total = w.closed_ops as f64 * cfg.seconds / REFERENCE_SECONDS;
    let max_mutations = ((closed_total * w.write_frac / 3.0) as u64).max(8);
    let mut sys = System::setup(w, cfg.scale, clients_n, max_mutations);
    phases.mark("setup");
    metrics.insert("rss_after_setup_mb".into(), sys.rss_after_setup_mb);
    metrics.insert("index_bytes_per_object".into(), sys.index_bytes_per_object);

    let plan = Plan::generate(&sys.data, w, cfg.seed, cfg.seconds, clients_n);
    let env = Env {
        nproc: clients_n,
        commit: commit(),
        rustc: rustc_version(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        scale: cfg.scale.name,
        workload: w.name,
        codec: w.codec.name(),
        shards: sys.shards,
        clients: clients_n,
        closed_ops: plan.closed.iter().map(Vec::len).sum(),
        closed_writes: plan.closed_writes,
        open_requests: if cfg.trace { plan.open.len() } else { 0 },
        open_rate: w.open_rate,
        tail_writes: if cfg.trace { TAIL_WRITES } else { 0 },
        replay_requests: if cfg.trace { plan.replay.len() } else { 0 },
    };

    let read_only = w.write_frac == 0.0;
    let mut clients = drive::connect(sys.server.local_addr(), clients_n);
    // Every query key once, in-process, on the engine as built: the
    // expected answers, the cache fill, and what a first-touch query costs
    // in simulated I/O. A shared page cache makes that count depend on how
    // threads interleave, so a cached engine is asked on one thread.
    let threads = if w.caches { 1 } else { clients_n };
    let before = sys.registry.snapshot();
    let mut expected = sys.expected_answers(&plan, threads);
    let (io_a, n_a) = io_mass(&sys.registry.snapshot());
    let (io_b, n_b) = io_mass(&before);
    metrics.insert(
        "sim_io_per_query".into(),
        (io_a - io_b) as f64 / (n_a - n_b).max(1) as f64,
    );
    samples.insert("sim_io_per_query".into(), (n_a - n_b) as usize);
    // While writes are in flight only structural checks hold.
    let in_flight_check = if read_only {
        Check::Exact(&expected)
    } else {
        Check::Structural(&plan.user_universe)
    };
    phases.mark("expected");
    sys.setups.resample();
    phases.mark("setup again");

    // Warm-up (untimed, still checked), then the timed closed loop.
    let warm = drive::closed_loop(&mut clients, &plan.warmup, &plan, in_flight_check);
    tally.take(&warm);
    phases.mark("warmup");
    let before = sys.registry.snapshot();
    let closed = drive::closed_loop(&mut clients, &plan.closed, &plan, in_flight_check);
    let after = sys.registry.snapshot();
    tally.take(&closed);
    phases.mark("closed");

    let mut query_clean = undisturbed_query_us(&closed.ops);
    samples.insert("queries_per_s_undisturbed".into(), query_clean.len());
    samples.insert("query_p50_us_undisturbed".into(), query_clean.len());
    metrics.insert(
        "queries_per_s_undisturbed".into(),
        clients_n as f64 * 1e6 / mean(&query_clean),
    );
    metrics.insert("query_p50_us_undisturbed".into(), median(&mut query_clean));
    metrics.insert("ops_per_s".into(), closed.attempted as f64 / closed.wall_s);
    let mut query_raw = latencies_us(&closed.ops, true);
    metrics.insert("query_p50_us".into(), median(&mut query_raw));
    metrics.insert(
        "serve.query_p90_us".into(),
        percentile(&mut query_raw, 0.90),
    );
    metrics.insert(
        "serve.query_p99_us".into(),
        percentile(&mut query_raw, 0.99),
    );
    metrics.insert(
        "core.refresh.cycles".into(),
        (counter_family(&after, "serving_refreshes_total{")
            - counter_family(&before, "serving_refreshes_total{")) as f64,
    );
    for (metric, counter) in [
        ("core.refresh.cow_fallbacks", "serving_cow_fallbacks_total"),
        ("core.refresh.replayed", "serving_replayed_mutations_total"),
    ] {
        let delta = after.counter(counter).unwrap_or(0) - before.counter(counter).unwrap_or(0);
        metrics.insert(metric.into(), delta as f64);
    }
    metrics.insert(
        "storage.page_cache_hit_ratio".into(),
        after.gauge("page_cache_hit_ratio").unwrap_or(0.0),
    );
    metrics.insert(
        "core.cache.threshold_hit_ratio".into(),
        after.gauge("threshold_cache_hit_ratio").unwrap_or(0.0),
    );

    // Quiesce: no writer, no refresher. From here on every answer has one
    // right value, the published snapshot's.
    drop(sys.refresher.take());
    if !read_only {
        expected = sys.expected_answers(&plan, clients_n);
        let verify = drive::verify_keys(&mut clients, &plan, 0..plan.queries.len(), &expected);
        tally.take(&verify);
    }
    phases.mark("quiesce");

    sys.setups.resample();
    phases.mark("setup again");
    let setup_samples = sys.setups.samples.clone();
    metrics.insert("setup_s".into(), undisturbed_setup_s(&setup_samples));
    samples.insert("setup_s".into(), setup_samples.len());

    if cfg.trace {
        let mut pass = TracedPass {
            cfg,
            plan: &plan,
            env: &env,
            metrics: &mut metrics,
            tally: &mut tally,
        };
        pass.run(sys, clients, expected, &closed);
        phases.mark("traced pass");
    }

    let failed = tally.failures.total();
    metrics.insert("failed_frac".into(), failed as f64 / tally.attempted as f64);
    RunOutput {
        env,
        metrics,
        samples,
        attempted: tally.attempted,
        failed,
        failures: tally.failures,
        plan_fingerprint: plan.fingerprint(),
        traced: cfg.trace,
        setup_samples,
        phases: phases.rows,
    }
}

/// Everything only a `--trace 1` run does, after quiescing: the open
/// loop, the span-recorded replay, the quiesced write tail with its timed refresh,
/// the one-shot connections, and the per-layer measurements.
struct TracedPass<'a> {
    cfg: &'a RunConfig,
    plan: &'a Plan,
    env: &'a Env,
    metrics: &'a mut BTreeMap<String, f64>,
    tally: &'a mut Tally,
}

impl TracedPass<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn run(
        &mut self,
        mut sys: System,
        mut clients: Vec<Client>,
        mut expected: Vec<QueryResult>,
        closed: &PhaseResult,
    ) {
        let plan = self.plan;
        let w = self.cfg.workload;
        let open = drive::open_loop(&mut clients, plan, Check::Exact(&expected));
        self.tally.take(&open);
        let mut sched_us = us(&open.sched_ns);
        self.put("sched_p50_us", median(&mut sched_us));
        self.put("serve.sched_p99_us", percentile(&mut sched_us, 0.99));
        self.put(
            "serve.gen_late_p99_us",
            percentile(&mut us(&open.late_ns), 0.99),
        );

        let mut recorder = Recorder::default();
        let replay = trace::replay(
            &mut clients[0],
            &sys.serving,
            plan,
            &expected,
            &mut recorder,
        );
        self.tally.attempted += replay.attempted;
        self.tally.failures.add(replay.failures);
        let roundtrip = replay.roundtrip_us();
        let layers_sum = replay.layers_sum_us(&recorder);
        self.put("serve.roundtrip_us", roundtrip);
        self.put("serve.layers_sum_us", layers_sum);
        self.put("serve.residual_us", roundtrip - layers_sum);
        self.put("bench.trace_overhead_frac", replay.overhead_frac());
        for (metric, span) in [
            (
                "serve.protocol.encode_request_ns",
                "serve.protocol.encode_request",
            ),
            (
                "serve.protocol.decode_request_ns",
                "serve.protocol.decode_request",
            ),
            (
                "serve.protocol.encode_reply_ns",
                "serve.protocol.encode_reply",
            ),
            (
                "serve.protocol.decode_reply_ns",
                "serve.protocol.decode_reply",
            ),
        ] {
            self.put(metric, recorder.mean_self_ns(span, replay.requests));
        }
        self.put("serve.protocol.request_bytes", mean(&replay.request_bytes));
        self.put("serve.protocol.reply_bytes", mean(&replay.reply_bytes));
        // The null request: wire, worker wake-up and the stats document.
        let stats_us: Vec<f64> = (0..20)
            .map(|_| {
                let start = Instant::now();
                let ok = clients[0].stats_json().is_ok();
                self.tally.attempted += 1;
                self.tally.failures.transport += u64::from(!ok);
                start.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        self.put("serve.stats_roundtrip_us", mean(&stats_us));

        // The quiesced tail: writes with nothing else in flight, then one
        // timed refresh over exactly those writes' churn.
        let tail = drive::write_tail(&mut clients, &plan.tail);
        self.tally.take(&tail);
        let refresh_start = Instant::now();
        sys.serving.refresh_now();
        self.put("refresh_s", refresh_start.elapsed().as_secs_f64());
        // The swapped-in engine must answer like its own snapshot.
        let stride = (plan.queries.len() / 8).max(1);
        let snap = sys.serving.snapshot();
        for idx in (0..plan.queries.len()).step_by(stride) {
            let key = &plan.queries[idx];
            expected[idx] = snap.query(key.spec(), key.method);
        }
        drop(snap);
        let sampled = (0..plan.queries.len()).step_by(stride);
        let verify = drive::verify_keys(&mut clients, plan, sampled, &expected);
        self.tally.take(&verify);

        // Mutation-ack latency: under read contention where the workload
        // writes, quiesced where it does not.
        let writes = if w.write_frac > 0.0 {
            &closed.ops
        } else {
            &tail.ops
        };
        let mut write_us = latencies_us(writes, false);
        self.put("mutate_p50_us", median(&mut write_us));
        self.put("serve.mutate_p99_us", percentile(&mut write_us, 0.99));
        let end = sys.registry.snapshot();
        self.put(
            "core.refresh.swap_wait_p50_us",
            end.histogram("serving_swap_wait_us").map_or(0, |h| h.p50()) as f64,
        );
        self.put(
            "serve.shed_total",
            counter_family(&end, "serve_shed_total{") as f64,
        );

        // Free the workers: a one-shot connection needs one.
        let addr = sys.server.local_addr();
        drop(clients);
        let request = &plan.queries[plan.replay[0]].request;
        let connect_us: Vec<f64> = (0..plan.replay.len().min(40))
            .map(|_| {
                let start = Instant::now();
                let ok = serve::one_shot(addr, request).is_ok();
                self.tally.attempted += 1;
                self.tally.failures.transport += u64::from(!ok);
                start.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        self.put("serve.connect_roundtrip_us", mean(&connect_us));
        let path = out_dir().join(format!("trace-{}.json", w.name));
        if let Err(e) = recorder.write_json(&path, w.name, &self.env.to_json()) {
            eprintln!("could not write {}: {e}", path.display());
            self.tally.failures.error += 1;
        }
        sys.server.shutdown();
        drop(sys);
        for (name, value) in layers::measure(self.cfg.scale, nproc(), &out_dir()) {
            self.metrics.insert(name, value);
        }
    }
}

//! Setting a workload's system up: data, engine (or cluster), serving
//! engine, TCP server. The set-up is timed twice before the run drives
//! the second build, and again at later points of the run; miniature
//! set-ups timed around each one say how much the host disturbed it.

use std::sync::Arc;
use std::time::Instant;

use mbrstk_core::{
    Engine, EngineCluster, QueryResult, RefreshConfig, RefresherHandle, ServingEngine,
};
use mbrstk_obs::MetricsRegistry;
use serve::{ServeConfig, Server};

use crate::catalogue::Workload;
use crate::gen::{model, Data, Plan, Scale, ALPHA, FANOUT};
use crate::stats::{mean, median};

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fused engine of a workload: user index always, caches when the
/// workload has them.
pub fn build_engine(data: &Data, w: &Workload) -> Engine {
    let engine = Engine::build_with_fanout_codec(
        data.objects.clone(),
        data.users.clone(),
        model(),
        ALPHA,
        FANOUT,
        w.codec,
    )
    .with_user_index();
    if w.caches {
        engine.with_threshold_cache().with_page_cache(1 << 20)
    } else {
        engine
    }
}

enum Backend {
    Fused(Engine),
    Cluster(EngineCluster),
}

/// The corpus of a miniature set-up: the same `build_engine` over 2,000
/// objects, about 12 ms. Short enough that some run undisturbed even when
/// the host slows every full set-up, and the same code, so the host slows
/// both alike (correlation 0.89 over 200 set-ups; a pointer-chasing loop
/// reached 0.54).
const MINIATURE: Scale = Scale {
    name: "miniature",
    objects: 2_000,
    users: 60,
    locations: 10,
};

/// Miniature set-ups timed right before, and again right after, every
/// full one.
const MINIATURES_PER_SIDE: usize = 8;

/// One timed set-up and the miniatures timed around it.
#[derive(Debug, Clone)]
pub struct SetupSample {
    pub raw_s: f64,
    pub miniature_s: Vec<f64>,
}

/// `setup_s`: the median over the samples of the set-up time with the
/// host's disturbance divided out. The disturbance of a sample is the
/// mean of its miniatures over the fastest miniature of the whole run.
///
/// The host slows a set-up (0.7-2.5 s of memory-bound work) by 20-50%
/// for seconds to minutes at a time, so that plain medians of ten runs
/// taken a quarter of an hour apart differ by up to 56%. A change to the
/// build code moves the miniatures' mean and their floor alike and so
/// leaves the divisor alone.
pub fn undisturbed_setup_s(samples: &[SetupSample]) -> f64 {
    let floor = samples
        .iter()
        .flat_map(|s| &s.miniature_s)
        .copied()
        .fold(f64::INFINITY, f64::min);
    let mut undisturbed: Vec<f64> = samples
        .iter()
        .map(|s| s.raw_s * floor / mean(&s.miniature_s))
        .collect();
    median(&mut undisturbed)
}

/// Times the set-ups of one workload.
pub struct SetupTimer {
    workload: &'static Workload,
    scale: Scale,
    workers: usize,
    miniature: Data,
    pub samples: Vec<SetupSample>,
}

impl SetupTimer {
    fn new(workload: &'static Workload, scale: Scale, workers: usize) -> SetupTimer {
        SetupTimer {
            workload,
            scale,
            workers,
            miniature: Data::generate(MINIATURE),
            samples: Vec::new(),
        }
    }

    fn time_miniatures(&self, out: &mut Vec<f64>) {
        for _ in 0..MINIATURES_PER_SIDE {
            let start = Instant::now();
            std::hint::black_box(build_engine(&self.miniature, self.workload));
            out.push(start.elapsed().as_secs_f64());
        }
    }

    /// One timed set-up: generate, build, and build the cluster where
    /// the workload has one.
    fn sample(&mut self) -> (Data, Backend) {
        let mut miniature_s = Vec::with_capacity(2 * MINIATURES_PER_SIDE);
        self.time_miniatures(&mut miniature_s);
        let start = Instant::now();
        let data = Data::generate(self.scale);
        let engine = build_engine(&data, self.workload);
        let backend = if self.workload.cluster {
            Backend::Cluster(EngineCluster::from_engine(engine, self.workers))
        } else {
            Backend::Fused(engine)
        };
        let raw_s = start.elapsed().as_secs_f64();
        self.time_miniatures(&mut miniature_s);
        self.samples.push(SetupSample { raw_s, miniature_s });
        (data, backend)
    }

    /// Sets up once more and drops the build. The samples of a run are
    /// taken at separate points of it, so that they rarely share one of
    /// the host's shorter (5-30 s) disturbances.
    pub fn resample(&mut self) {
        self.sample();
    }
}

/// A served workload system.
pub struct System {
    pub data: Data,
    pub serving: Arc<ServingEngine>,
    pub registry: Arc<MetricsRegistry>,
    pub server: Server,
    pub refresher: Option<RefresherHandle>,
    pub shards: usize,
    pub setups: SetupTimer,
    pub rss_after_setup_mb: f64,
    pub index_bytes_per_object: f64,
}

impl System {
    /// Sets up twice and serves the second build on `127.0.0.1:0` with
    /// `workers` workers.
    pub fn setup(w: &'static Workload, scale: Scale, workers: usize, max_mutations: u64) -> System {
        let mut setups = SetupTimer::new(w, scale, workers);
        let first = setups.sample();
        // The first set-up runs in a clean process: later ones reuse
        // pages the allocator kept.
        let rss_after_setup_mb = rss_mb();
        drop(first);
        let (data, backend) = setups.sample();

        let cfg = RefreshConfig {
            max_mutations,
            ..RefreshConfig::default()
        };
        let (serving, shards) = match backend {
            Backend::Fused(engine) => (ServingEngine::with_config(engine, cfg), 0),
            Backend::Cluster(cluster) => {
                let shards = cluster.shard_count();
                (ServingEngine::with_config_cluster(cluster, cfg), shards)
            }
        };
        let snap = serving.snapshot();
        let registry = snap.metrics();
        let index_bytes_per_object = snap.physical_index_bytes() as f64 / snap.objects.len() as f64;
        drop(snap);
        let refresher = (w.write_frac > 0.0).then(|| serving.start_refresher());
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&serving),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .expect("bind a loopback port");
        System {
            data,
            serving,
            registry,
            server,
            refresher,
            shards,
            setups,
            rss_after_setup_mb,
            index_bytes_per_object,
        }
    }

    /// The in-process answer of the published snapshot for every query
    /// key of `plan`. Only meaningful while no write is in flight.
    pub fn expected_answers(&self, plan: &Plan, threads: usize) -> Vec<QueryResult> {
        let snap = self.serving.snapshot();
        let mut expected = vec![QueryResult::default(); plan.queries.len()];
        let mut methods: Vec<_> = plan.queries.iter().map(|q| q.method).collect();
        methods.sort_by_key(|m| m.name());
        methods.dedup();
        for method in methods {
            let keys: Vec<usize> = (0..plan.queries.len())
                .filter(|&i| plan.queries[i].method == method)
                .collect();
            let specs: Vec<_> = keys
                .iter()
                .map(|&i| plan.queries[i].spec().clone())
                .collect();
            let outcomes = snap.query_batch_threads(&specs, method, threads);
            for (i, outcome) in keys.into_iter().zip(outcomes) {
                expected[i] = outcome.result;
            }
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(raw_s: f64, miniature_s: &[f64]) -> SetupSample {
        SetupSample {
            raw_s,
            miniature_s: miniature_s.to_vec(),
        }
    }

    #[test]
    fn a_disturbance_is_divided_out_and_added_work_is_not() {
        let quiet = [sample(1.0, &[0.010, 0.010]), sample(1.0, &[0.010, 0.010])];
        assert!((undisturbed_setup_s(&quiet) - 1.0).abs() < 1e-12);
        // The host slows the second sample and its miniatures by 1.5x.
        let disturbed = [sample(1.0, &[0.010, 0.010]), sample(1.5, &[0.015, 0.015])];
        assert!((undisturbed_setup_s(&disturbed) - 1.0).abs() < 1e-12);
        // A build that got 1.5x slower slows every miniature too.
        let slower = [sample(1.5, &[0.015, 0.015]), sample(1.5, &[0.015, 0.015])];
        assert!((undisturbed_setup_s(&slower) - 1.5).abs() < 1e-12);
    }
}

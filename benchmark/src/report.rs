//! What a run prints: the environment block, every metric by name with
//! its unit, and the one-line JSON result the driver reads.

use std::collections::BTreeMap;
use std::process::Command;

use crate::catalogue::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::mean;
use crate::system::SetupSample;

/// Where and how a run was measured.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: &'static str,
    pub workload: &'static str,
    pub codec: &'static str,
    pub shards: usize,
    pub clients: usize,
    pub closed_ops: usize,
    pub closed_writes: usize,
    pub open_requests: usize,
    pub open_rate: f64,
    pub tail_writes: usize,
    pub replay_requests: usize,
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit (a driver checkout is not a git repository).
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short", "HEAD"])
}

pub fn rustc_version() -> String {
    first_line("rustc", &["-V"])
}

impl Env {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \
             \"seconds\": {}, \"scale\": \"{}\", \"workload\": \"{}\", \"codec\": \"{}\", \
             \"shards\": {}, \"clients\": {}, \"loop\": \"{}\", \
             \"closed_ops\": {}, \"closed_writes\": {}, \"open_requests\": {}, \
             \"open_rate_per_s\": {}, \"tail_writes\": {}, \"replay_requests\": {}}}",
            self.nproc,
            self.commit,
            self.rustc,
            self.seed,
            self.seconds,
            self.scale,
            self.workload,
            self.codec,
            self.shards,
            self.clients,
            if self.open_requests > 0 {
                "closed, then open (Poisson)"
            } else {
                "closed"
            },
            self.closed_ops,
            self.closed_writes,
            self.open_requests,
            self.open_rate,
            self.tail_writes,
            self.replay_requests
        )
    }

    pub fn print(&self) {
        println!("env {}", self.to_json());
        println!(
            "env note: {} core(s); clients = workers = nproc share them, so any scaling \
             number here is a critical-path number",
            self.nproc
        );
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunOutput {
    pub env: Env,
    /// Metric name → value; holds every end-to-end metric, and every
    /// per-layer metric after a traced run.
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts behind the medians, by metric name.
    pub samples: BTreeMap<String, usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure counts by cause, for the human-readable block.
    pub failures: crate::drive::Failures,
    pub plan_fingerprint: u64,
    pub traced: bool,
    /// Every timed set-up with its miniatures, in order.
    pub setup_samples: Vec<SetupSample>,
    /// Wall seconds of each step of the run.
    pub phases: Vec<(&'static str, f64)>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn print_list(&self, title: &str, defs: &[MetricDef]) {
        println!("{title}");
        for def in defs {
            let Some(v) = self.metrics.get(def.name) else {
                continue;
            };
            let n = self
                .samples
                .get(def.name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            println!(
                "  {:<48} {:>16} {:<6} better={}{}{n}",
                def.name,
                v,
                def.unit,
                def.better.as_str(),
                def.bound.map_or(String::new(), |b| format!(" bound={b}"))
            );
        }
    }

    /// Every metric by name with its unit.
    pub fn print_human(&self) {
        self.env.print();
        println!(
            "ops attempted={} failed={} (shed={} error={} transport={} wrong={} rejected={})",
            self.attempted,
            self.failed,
            self.failures.shed,
            self.failures.error,
            self.failures.transport,
            self.failures.wrong,
            self.failures.rejected
        );
        let steps: Vec<String> = self
            .phases
            .iter()
            .map(|(name, s)| format!("{name} {s:.2}"))
            .collect();
        println!(
            "wall s: {} | total {:.2}",
            steps.join(" | "),
            self.phases.iter().map(|p| p.1).sum::<f64>()
        );
        let raw: Vec<f64> = self.setup_samples.iter().map(|s| s.raw_s).collect();
        let miniature_ms: Vec<f64> = self
            .setup_samples
            .iter()
            .map(|s| 1_000.0 * mean(&s.miniature_s))
            .collect();
        println!("set-up samples s, as timed: {raw:.3?}; mean miniature ms around each: {miniature_ms:.2?}");
        self.print_list("end to end (gated)", END_TO_END);
        self.print_list("per layer (recorded)", PER_LAYER);
        if let (Some(rt), Some(sum), Some(res)) = (
            self.metrics.get("serve.roundtrip_us"),
            self.metrics.get("serve.layers_sum_us"),
            self.metrics.get("serve.residual_us"),
        ) {
            println!(
                "reconciliation: layer self-times {sum:.1} us + residual {res:.1} us = \
                 serve.roundtrip_us {rt:.1} us (residual {:.1}%)",
                100.0 * res / rt
            );
        }
    }

    /// The driver's result line: exactly the end-to-end metrics untraced,
    /// exactly the per-layer metrics traced.
    pub fn result_json(&self) -> String {
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(f64::NAN);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values (a metric that
/// was never measured) become `null`, which the driver refuses.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

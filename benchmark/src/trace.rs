//! The traced pass: spans recorded from the benchmark's own code around
//! each public call, kept in memory, written out at exit.
//!
//! A request is replayed twice over TCP — once with span recording on,
//! once off, alternating which goes first — and re-executed in-process
//! layer by layer (`decode_request` → top-k phase → selection →
//! `encode_reply` → `decode_reply`). The in-process layer self-times are
//! reconciled against the mean TCP round trip; what they do not explain
//! (wire, accept queue, server bookkeeping, telemetry) is the residual.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use mbrstk_core::select::location::{select_candidate, KeywordSelector};
use mbrstk_core::select::CandidateContext;
use mbrstk_core::user_index::select_with_user_index_seeded;
use mbrstk_core::{Engine, Method, QueryResult, ServingEngine};
use serve::{decode_reply, decode_request, encode_reply, encode_request, Client, Reply, Request};

use crate::drive::{judge_answer, Failures};
use crate::gen::Plan;
use crate::stats::{mean, median};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub request_id: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; timestamps are nanoseconds since `origin`.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        layer: &'static str,
        request_id: u32,
        parent: Option<u32>,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            request_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Mean self time (ns) per request of all spans named `name`.
    pub fn mean_self_ns(&self, name: &str, requests: usize) -> f64 {
        let own = self.self_times_ns();
        let total: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum();
        total as f64 / requests.max(1) as f64
    }

    /// Writes `{"workload", "env", "spans": [...]}`.
    pub fn write_json(&self, path: &Path, workload: &str, env_json: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times_ns();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            f,
            "{{\"workload\": \"{workload}\", \"env\": {env_json}, \"spans\": ["
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"request_id\": {}, \
                 \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{comma}",
                s.name, s.layer, s.request_id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// The leaf spans whose self-times are the layer breakdown of one request.
pub const LAYER_SPANS: [&str; 6] = [
    "serve.protocol.encode_request",
    "serve.protocol.decode_request",
    "core.topk",
    "core.select",
    "serve.protocol.encode_reply",
    "serve.protocol.decode_reply",
];

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub requests: usize,
    /// Round trips with span recording on / off (ns).
    pub roundtrip_on_ns: Vec<u64>,
    pub roundtrip_off_ns: Vec<u64>,
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
}

impl Replay {
    pub fn roundtrip_us(&self) -> f64 {
        mean(&crate::stats::us(&self.roundtrip_on_ns))
    }

    /// Median over the requests of the round trip with recording on over
    /// the same request's with recording off, minus one. A host stall on
    /// either side of one pair moves a ratio of means by whole percents.
    pub fn overhead_frac(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .roundtrip_on_ns
            .iter()
            .zip(&self.roundtrip_off_ns)
            .map(|(&on, &off)| on as f64 / off as f64)
            .collect();
        median(&mut ratios) - 1.0
    }

    /// Σ layer self-times per request (µs).
    pub fn layers_sum_us(&self, rec: &Recorder) -> f64 {
        LAYER_SPANS
            .iter()
            .map(|name| rec.mean_self_ns(name, self.requests))
            .sum::<f64>()
            / 1_000.0
    }
}

/// The selection half of a query, called the way the built-in pipelines
/// call it, from public functions only.
fn top_k_and_select(
    snap: &Engine,
    request: &Request,
    rec: &mut Recorder,
    rid: u32,
    parent: u32,
) -> QueryResult {
    let Request::Query { method, spec } = request else {
        unreachable!("the replay holds query requests")
    };
    match method {
        Method::UserIndexGreedy => {
            let s = rec.begin("core.topk", "core.topk", rid, Some(parent));
            let seed = snap.user_index_seed(spec.k);
            rec.end(s);
            let s = rec.begin("core.select", "core.user_index", rid, Some(parent));
            let miur = snap
                .miur
                .as_ref()
                .expect("every workload engine has a user index");
            let out = select_with_user_index_seeded(
                miur,
                spec,
                &snap.ctx,
                KeywordSelector::Greedy,
                &snap.io,
                &seed,
            );
            rec.end(s);
            out.result
        }
        Method::JointGreedy => {
            let s = rec.begin("core.topk", "core.topk", rid, Some(parent));
            let jt = snap.joint_thresholds(spec.k);
            rec.end(s);
            let s = rec.begin("core.select", "core.select", rid, Some(parent));
            let cc = CandidateContext::new(&snap.ctx, spec, &snap.users, &jt.rsk);
            let out = select_candidate(&cc, &jt.su, jt.out.rsk_us, KeywordSelector::Greedy);
            rec.end(s);
            out
        }
        other => unreachable!("no workload issues {}", other.name()),
    }
}

/// Replays `plan.replay` on one connection with nothing else in flight.
pub fn replay(
    client: &mut Client,
    serving: &ServingEngine,
    plan: &Plan,
    expected: &[QueryResult],
    rec: &mut Recorder,
) -> Replay {
    let mut out = Replay {
        requests: plan.replay.len(),
        ..Replay::default()
    };
    let snap = serving.snapshot();
    for (r, &idx) in plan.replay.iter().enumerate() {
        let rid = r as u32;
        let request = &plan.queries[idx].request;
        for pass in 0..2 {
            let recording = (pass == 0) == (r % 2 == 0);
            out.attempted += 1;
            if !recording {
                let start = Instant::now();
                let reply = client.request(request);
                out.roundtrip_off_ns.push(start.elapsed().as_nanos() as u64);
                judge_answer(reply, |got| *got == expected[idx], &mut out.failures);
                continue;
            }
            let root = rec.begin("bench.replay", "bench", rid, None);
            let s = rec.begin(
                "serve.protocol.encode_request",
                "serve.protocol",
                rid,
                Some(root),
            );
            let wire = encode_request(request);
            rec.end(s);
            let s = rec.begin("serve.roundtrip", "serve.server", rid, Some(root));
            let reply = client.request(request);
            rec.end(s);
            let rt = &rec.spans[s as usize];
            out.roundtrip_on_ns.push(rt.end_ns - rt.start_ns);
            judge_answer(reply, |got| *got == expected[idx], &mut out.failures);

            // The same request, layer by layer, in this process.
            let inproc = rec.begin("bench.inprocess", "bench", rid, Some(root));
            let s = rec.begin(
                "serve.protocol.decode_request",
                "serve.protocol",
                rid,
                Some(inproc),
            );
            let decoded = decode_request(&wire).expect("own encoding decodes");
            rec.end(s);
            let answer = top_k_and_select(&snap, &decoded, rec, rid, inproc);
            if answer != expected[idx] {
                out.failures.wrong += 1;
            }
            let reply = Reply::Answer(answer);
            let s = rec.begin(
                "serve.protocol.encode_reply",
                "serve.protocol",
                rid,
                Some(inproc),
            );
            let reply_wire = encode_reply(&reply);
            rec.end(s);
            let s = rec.begin(
                "serve.protocol.decode_reply",
                "serve.protocol",
                rid,
                Some(inproc),
            );
            let back = decode_reply(&reply_wire).expect("own encoding decodes");
            rec.end(s);
            std::hint::black_box(back);
            rec.end(inproc);
            rec.end(root);
            out.request_bytes.push(wire.len() as f64);
            out.reply_bytes.push(reply_wire.len() as f64);
        }
    }
    out
}

//! Per-layer measurements of the traced pass: single-threaded,
//! in-process, on the same corpus and user set as the workloads, with
//! fixed iteration counts, by timing calls into public functions. Layer
//! names are the crate and module names.

use std::hint::black_box;
use std::time::Instant;

use geo::Rect;
use index::{
    ChildRef, IndexedObject, MiurScratch, MiurTree, NodeScratch, PostingsScratch, StTree, UserRef,
};
use mbrstk_core::select::baseline::baseline_select;
use mbrstk_core::select::location::{select_candidate, KeywordSelector};
use mbrstk_core::select::CandidateContext;
use mbrstk_core::topk::baseline::all_users_topk_baseline;
use mbrstk_core::topk::individual::individual_topk;
use mbrstk_core::topk::joint::joint_topk;
use mbrstk_core::user_index::{compute_user_index_seed, select_with_user_index_seeded};
use mbrstk_core::{
    Engine, EngineCluster, Method, Mutation, ObjectData, QueryArena, QueryResult, QuerySpec,
    ServingEngine, UserData,
};
use mbrstk_obs::Histogram;
use storage::codec::{codec, Reader, Writer};
use storage::{CodecId, IoStats, RecordId, ShardedLru};
use text::{Document, TermId};

use crate::gen::{model, Data, Scale, ALPHA, FANOUT, WS};

/// Named results, in measurement order.
pub type Rows = Vec<(String, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Mean nanoseconds per call over `iters` calls.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn us_per_call(iters: usize, f: impl FnMut(usize)) -> f64 {
    ns_per_call(iters, f) / 1_000.0
}

fn build(data: &Data, codec: CodecId) -> Engine {
    Engine::build_with_fanout_codec(
        data.objects.clone(),
        data.users.clone(),
        model(),
        ALPHA,
        FANOUT,
        codec,
    )
}

fn fresh_object(data: &Data, i: usize) -> ObjectData {
    let donor = &data.objects[(i * 7919) % data.objects.len()];
    ObjectData {
        id: 20_000_000 + i as u32,
        point: donor.point,
        doc: donor.doc.clone(),
    }
}

fn fresh_user(data: &Data, i: usize) -> UserData {
    let donor = &data.users[(i * 31) % data.users.len()];
    UserData {
        id: 20_000_000 + i as u32,
        point: donor.point,
        doc: donor.doc.clone(),
    }
}

/// Every node record of an ST-tree, breadth first.
fn st_nodes(tree: &StTree) -> Vec<RecordId> {
    let io = IoStats::new();
    let mut scratch = NodeScratch::default();
    let mut nodes = vec![tree.root()];
    let mut next = 0;
    while next < nodes.len() {
        let node = tree.read_node_ref(nodes[next], &io, &mut scratch);
        for i in 0..node.len() {
            if let ChildRef::Node(id) = node.child(i) {
                nodes.push(id);
            }
        }
        next += 1;
    }
    nodes
}

fn miur_nodes(tree: &MiurTree) -> Vec<RecordId> {
    let io = IoStats::new();
    let mut scratch = MiurScratch::default();
    let mut nodes = vec![tree.root()];
    let mut next = 0;
    while next < nodes.len() {
        let node = tree.read_node_ref(nodes[next], &io, &mut scratch);
        for e in node.entries {
            if let UserRef::Node(id) = e.child {
                nodes.push(id);
            }
        }
        next += 1;
    }
    nodes
}

/// `index` read path of one engine: node reads over a full BFS, postings
/// reads for the candidate keywords at every node, MIUR node reads.
fn index_reads(rows: &mut Rows, engine: &Engine, keywords: &[TermId]) {
    let tag = engine.codec().name();
    let nodes = st_nodes(&engine.mir);
    let io = IoStats::new();
    let mut ns = NodeScratch::default();
    let mut ps = PostingsScratch::default();
    const PASSES: usize = 3;
    let read = ns_per_call(PASSES * nodes.len(), |i| {
        black_box(
            engine
                .mir
                .read_node_ref(nodes[i % nodes.len()], &io, &mut ns)
                .len(),
        );
    });
    rows.push((format!("index.mir_read_node_ns.{tag}"), read));

    let post_io = IoStats::new();
    let mut spent = 0u128;
    for _ in 0..PASSES {
        for &id in &nodes {
            let node = engine.mir.read_node_ref(id, &io, &mut ns);
            let start = Instant::now();
            black_box(
                engine
                    .mir
                    .read_postings_ref(&node, keywords, &post_io, &mut ps)
                    .len(),
            );
            spent += start.elapsed().as_nanos();
        }
    }
    let reads = (PASSES * nodes.len()) as f64;
    rows.push((
        format!("index.mir_read_postings_ns.{tag}"),
        spent as f64 / reads,
    ));
    rows.push((
        format!("index.mir_postings_io_per_read.{tag}"),
        post_io.total() as f64 / reads,
    ));

    let miur = engine.miur.as_ref().expect("built with a user index");
    let unodes = miur_nodes(miur);
    let mut ms = MiurScratch::default();
    let read = ns_per_call(200 * unodes.len(), |i| {
        black_box(
            miur.read_node_ref(unodes[i % unodes.len()], &io, &mut ms)
                .entries
                .len(),
        );
    });
    rows.push((format!("index.miur_read_node_ns.{tag}"), read));
}

fn leaf_layers(rows: &mut Rows, engine: &Engine, data: &Data) {
    // geo: MinSS between node rectangles and the user window.
    let rects: Vec<Rect> = data
        .objects
        .chunks(32)
        .take(1024)
        .map(|c| Rect::bounding(c.iter().map(|o| o.point)).expect("non-empty chunk"))
        .collect();
    let window = Rect::bounding(data.users.iter().map(|u| u.point)).expect("users exist");
    let spatial = engine.ctx.spatial;
    rows.push((
        "geo.min_ss_ns".into(),
        ns_per_call(2_000_000, |i| {
            black_box(spatial.min_ss(&rects[i % rects.len()], &window));
        }),
    ));

    // text: TS of a weighed object document against a user.
    let weighed: Vec<_> = data.objects[..1024.min(data.objects.len())]
        .iter()
        .map(|o| engine.ctx.text.weigh(&o.doc))
        .collect();
    rows.push((
        "text.ts_weighted_ns".into(),
        ns_per_call(2_000_000, |i| {
            let user = &data.users[i % data.users.len()];
            black_box(
                engine
                    .ctx
                    .text
                    .ts_weighted(&weighed[i % weighed.len()], &user.doc),
            );
        }),
    ));

    // storage: Columnar column decode, the I/O charge, a page-cache hit.
    let columnar = codec(CodecId::Columnar);
    let ids: Vec<u32> = (0..4096u32).map(|i| i * 7 + (i % 5)).collect();
    let mut w = Writer::new();
    columnar.put_ascending_u32s(&mut w, &ids);
    let bytes = w.into_bytes();
    let mut out = Vec::with_capacity(ids.len());
    rows.push((
        "storage.codec_get_u32s_ns_per_value.columnar".into(),
        ns_per_call(500, |_| {
            out.clear();
            columnar.get_ascending_u32s(&mut Reader::new(&bytes), ids.len(), &mut out);
            black_box(out.len());
        }) / ids.len() as f64,
    ));
    let weights: Vec<f64> = weighed
        .iter()
        .flat_map(|d| data.keywords.iter().map(|&t| d.weight(t)))
        .chain((0..4096).map(|i| 0.001 * i as f64))
        .take(4096)
        .collect();
    let mut w = Writer::new();
    columnar.put_f64s(&mut w, &weights);
    let bytes = w.into_bytes();
    let mut out = Vec::with_capacity(weights.len());
    rows.push((
        "storage.codec_get_f64s_ns_per_value.columnar".into(),
        ns_per_call(500, |_| {
            out.clear();
            columnar.get_f64s(&mut Reader::new(&bytes), weights.len(), &mut out);
            black_box(out.len());
        }) / weights.len() as f64,
    ));
    let io = IoStats::new();
    rows.push((
        "storage.io_charge_ns".into(),
        ns_per_call(2_000_000, |i| io.charge_node_visit_keyed(i as u64 & 1023)),
    ));
    let lru = ShardedLru::new(1 << 20);
    for key in 0..1024 {
        lru.access(key, 1);
    }
    rows.push((
        "storage.lru_access_hit_ns".into(),
        ns_per_call(2_000_000, |i| {
            black_box(lru.access(i as u64 & 1023, 1));
        }),
    ));

    // obs
    let hist = Histogram::new();
    rows.push((
        "obs.histogram_record_ns".into(),
        ns_per_call(2_000_000, |i| hist.record(i as u64 * 37 % 100_000)),
    ));
    let registry = engine.metrics();
    rows.push((
        "obs.snapshot_us".into(),
        us_per_call(20, |_| {
            black_box(registry.snapshot());
        }),
    ));
    rows.push((
        "obs.render_prometheus_us".into(),
        us_per_call(20, |_| {
            black_box(registry.render_prometheus().len());
        }),
    ));
}

/// `core.topk`, `core.select`, `core.user_index`, `core.pipeline`,
/// `core.cache` on the Verbatim engine.
fn core_query(rows: &mut Rows, engine: &Engine, spec: &QuerySpec) {
    let k = spec.k;
    let su = engine.super_user();
    const REPS: usize = 5;

    let before = engine.io.total();
    let mut joint = None;
    rows.push((
        "core.topk.joint_us".into(),
        us_per_call(REPS, |_| {
            joint = Some(joint_topk(&engine.mir, &su, k, &engine.ctx, &engine.io));
        }),
    ));
    rows.push((
        "core.topk.joint_io".into(),
        (engine.io.total() - before) as f64 / REPS as f64,
    ));
    let joint = joint.expect("REPS >= 1");
    let mut tks = Vec::new();
    rows.push((
        "core.topk.individual_us".into(),
        us_per_call(REPS, |_| {
            tks = individual_topk(&engine.users, &joint, k, &engine.ctx);
        }),
    ));
    let before = engine.io.total();
    let mut base_tks = Vec::new();
    rows.push((
        "core.topk.baseline_us".into(),
        us_per_call(2, |_| {
            base_tks =
                all_users_topk_baseline(&engine.ir, &engine.users, k, &engine.ctx, &engine.io);
        }),
    ));
    rows.push((
        "core.topk.baseline_io".into(),
        (engine.io.total() - before) as f64 / 2.0,
    ));

    let rsk: Vec<f64> = tks.iter().map(|t| t.rsk).collect();
    rows.push((
        "core.select.context_us".into(),
        us_per_call(20, |_| {
            black_box(CandidateContext::new(&engine.ctx, spec, &engine.users, &rsk).ref_len);
        }),
    ));
    let cc = CandidateContext::new(&engine.ctx, spec, &engine.users, &rsk);
    for (name, selector, reps) in [
        ("core.select.greedy_us", KeywordSelector::Greedy, 20),
        ("core.select.exact_us", KeywordSelector::Exact, 5),
    ] {
        rows.push((
            name.into(),
            us_per_call(reps, |_| {
                black_box(select_candidate(&cc, &su, joint.rsk_us, selector).location);
            }),
        ));
    }
    let base_rsk: Vec<f64> = base_tks.iter().map(|t| t.rsk).collect();
    let base_cc = CandidateContext::new(&engine.ctx, spec, &engine.users, &base_rsk);
    rows.push((
        "core.select.baseline_us".into(),
        us_per_call(2, |_| {
            black_box(baseline_select(&base_cc).location);
        }),
    ));

    let miur = engine.miur.as_ref().expect("built with a user index");
    let seed = compute_user_index_seed(miur, &engine.mir, k, &engine.ctx, &engine.io);
    let before = engine.io.total();
    rows.push((
        "core.user_index.select_us".into(),
        us_per_call(REPS, |_| {
            black_box(
                select_with_user_index_seeded(
                    miur,
                    spec,
                    &engine.ctx,
                    KeywordSelector::Greedy,
                    &engine.io,
                    &seed,
                )
                .users_scored,
            );
        }),
    ));
    rows.push((
        "core.user_index.select_io".into(),
        (engine.io.total() - before) as f64 / REPS as f64,
    ));

    for method in Method::ALL {
        let reps = if method == Method::Baseline { 2 } else { REPS };
        let before = engine.io.total();
        rows.push((
            format!("core.query_us.{}", method.name()),
            us_per_call(reps, |_| {
                black_box(engine.query(spec, method).location);
            }),
        ));
        rows.push((
            format!("core.query_io.{}", method.name()),
            (engine.io.total() - before) as f64 / reps as f64,
        ));
    }
}

/// The cached query path: arena + threshold cache + page cache.
fn core_cache(rows: &mut Rows, cached: &Engine, spec: &QuerySpec) {
    let tc = cached.thresholds.as_ref().expect("cached engine");
    rows.push((
        "core.cache.fill_us".into(),
        us_per_call(3, |_| {
            tc.clear();
            black_box(cached.joint_thresholds(spec.k).rsk.len());
        }),
    ));
    let mut arena = QueryArena::new();
    let mut out = QueryResult::default();
    cached.query_reusing(spec, Method::JointGreedy, &mut arena, &mut out);
    rows.push((
        "core.query_warm_us.joint-greedy".into(),
        us_per_call(50, |_| {
            cached.query_reusing(spec, Method::JointGreedy, &mut arena, &mut out);
        }),
    ));
}

/// `index` edits, `core.dynamic`, `core.refresh` on a private copy.
fn writes(rows: &mut Rows, engine: &Engine, data: &Data) {
    const N: usize = 60;
    let mut tree = engine.mir.clone();
    let indexed: Vec<IndexedObject> = (0..N)
        .map(|i| {
            let o = fresh_object(data, i);
            IndexedObject {
                id: o.id,
                point: o.point,
                doc: engine.ctx.text.weigh(&o.doc),
            }
        })
        .collect();
    rows.push((
        "index.insert_us".into(),
        us_per_call(N, |i| {
            black_box(tree.insert(&indexed[i]).node_writes);
        }),
    ));
    rows.push((
        "index.remove_us".into(),
        us_per_call(N, |i| {
            black_box(tree.remove(indexed[i].id, indexed[i].point).is_some());
        }),
    ));
    drop(tree);

    let mut copy = None;
    rows.push((
        "core.dynamic.engine_clone_ms".into(),
        secs(|| copy = Some(engine.clone())) * 1_000.0,
    ));
    let mut engine = copy.expect("cloned above");
    let mut io_total = 0u64;
    let mut applied = 0u64;
    let mut tally = |io: Option<mbrstk_core::MaintenanceIo>| {
        let io = io.expect("fresh ids insert, inserted ids remove");
        io_total += io.total();
        applied += 1;
    };
    let objects: Vec<_> = (0..N).map(|i| fresh_object(data, i)).collect();
    let users: Vec<_> = (0..N).map(|i| fresh_user(data, i)).collect();
    rows.push((
        "core.dynamic.insert_object_us".into(),
        us_per_call(N, |i| tally(engine.insert_object(objects[i].clone()))),
    ));
    rows.push((
        "core.dynamic.remove_object_us".into(),
        us_per_call(N / 2, |i| tally(engine.remove_object(objects[i].id))),
    ));
    rows.push((
        "core.dynamic.insert_user_us".into(),
        us_per_call(N, |i| tally(engine.insert_user(users[i].clone()))),
    ));
    rows.push((
        "core.dynamic.remove_user_us".into(),
        us_per_call(N / 2, |i| tally(engine.remove_user(users[i].id))),
    ));
    rows.push((
        "core.dynamic.maint_io_per_mutation".into(),
        io_total as f64 / applied as f64,
    ));

    // The engine now carries N/2 extra objects and users: both refresh
    // tiers re-weigh the same churned corpus.
    rows.push((
        "core.refresh.incremental_s".into(),
        secs(|| {
            black_box(engine.refreshed_incremental().1.refresh_io);
        }),
    ));
    rows.push((
        "core.refresh.full_s".into(),
        secs(|| {
            black_box(engine.refreshed().epoch());
        }),
    ));

    let serving = ServingEngine::new(engine);
    rows.push((
        "core.refresh.apply_us".into(),
        us_per_call(N, |i| {
            let m = Mutation::InsertObject(fresh_object(data, N + i));
            black_box(serving.apply(m).is_some());
        }),
    ));
}

/// `core.cluster`: build, cold scattered query, routed writes,
/// synchronized refresh. Consumes the head.
fn cluster(rows: &mut Rows, head: Engine, data: &Data, spec: &QuerySpec, shards: usize) {
    let mut built = None;
    rows.push((
        "core.cluster.build_s".into(),
        secs(|| built = Some(EngineCluster::from_engine(head, shards))),
    ));
    let mut cluster = built.expect("built above");

    const REPS: usize = 5;
    let registry = cluster.head().metrics();
    rows.push((
        "core.cluster.query_cold_us".into(),
        us_per_call(REPS, |_| {
            let tc = cluster.head().thresholds.as_ref().expect("cluster head");
            tc.clear();
            black_box(cluster.query(spec, Method::JointGreedy).location);
        }),
    ));
    // The slowest shard sets the scattered phase's time.
    let snap = registry.snapshot();
    let slowest = (0..shards)
        .filter_map(|s| snap.histogram(&format!("cluster_scatter_latency_us{{shard=\"{s}\"}}")))
        .map(|h| h.p50())
        .max()
        .unwrap_or(0);
    rows.push(("core.cluster.scatter_p50_us".into(), slowest as f64));

    const N: usize = 20;
    rows.push((
        "core.cluster.apply_object_us".into(),
        us_per_call(N, |i| {
            let m = Mutation::InsertObject(fresh_object(data, 1_000 + i));
            black_box(cluster.apply(m).is_some());
        }),
    ));
    rows.push((
        "core.cluster.apply_user_us".into(),
        us_per_call(N, |i| {
            let m = Mutation::InsertUser(fresh_user(data, 1_000 + i));
            black_box(cluster.apply(m).is_some());
        }),
    ));
    rows.push((
        "core.cluster.refresh_s".into(),
        secs(|| {
            black_box(cluster.refresh_synchronized().epoch);
        }),
    ));
}

/// Runs every per-layer measurement; `out_dir` holds the save/load
/// scratch files (removed before returning).
pub fn measure(scale: Scale, shards: usize, out_dir: &std::path::Path) -> Rows {
    let mut rows = Rows::new();
    let mut data = None;
    rows.push((
        "datagen.generate_s".into(),
        secs(|| data = Some(Data::generate(scale))),
    ));
    let data = data.expect("generated above");
    let spec = QuerySpec {
        ox_doc: Document::new(),
        locations: data.locations.clone(),
        keywords: data.keywords.clone(),
        ws: WS,
        k: 10,
    };

    let mut engines = Vec::new();
    for id in CodecId::ALL {
        let mut engine = None;
        rows.push((
            format!("core.build_s.{}", id.name()),
            secs(|| engine = Some(build(&data, id))),
        ));
        let user_index_s = secs(|| engine = engine.take().map(Engine::with_user_index));
        let engine = engine.expect("built above");
        if id == CodecId::Verbatim {
            rows.push(("core.user_index_build_s".into(), user_index_s));
        }
        rows.push((
            format!("index.bytes_physical.{}", id.name()),
            engine.physical_index_bytes() as f64,
        ));
        engines.push(engine);
    }
    let columnar = engines.pop().expect("two codecs");
    let verbatim = engines.pop().expect("two codecs");
    rows.push((
        "index.bytes_logical".into(),
        verbatim.logical_index_bytes() as f64,
    ));
    rows.push(("index.mir_height".into(), f64::from(verbatim.mir.height())));

    let dir = out_dir.join(format!("index-{}", std::process::id()));
    rows.push((
        "index.save_s".into(),
        secs(|| {
            verbatim
                .mir
                .save(&dir)
                .expect("save under the benchmark's out/")
        }),
    ));
    rows.push((
        "index.load_s".into(),
        secs(|| {
            black_box(
                StTree::load(&dir)
                    .expect("load what was saved")
                    .num_objects(),
            );
        }),
    ));
    let _ = std::fs::remove_dir_all(&dir);

    leaf_layers(&mut rows, &verbatim, &data);
    index_reads(&mut rows, &verbatim, &data.keywords);
    index_reads(&mut rows, &columnar, &data.keywords);
    drop(columnar);
    core_query(&mut rows, &verbatim, &spec);
    let cached = verbatim
        .clone()
        .with_threshold_cache()
        .with_page_cache(1 << 20);
    core_cache(&mut rows, &cached, &spec);
    drop(cached);
    writes(&mut rows, &verbatim, &data);
    cluster(&mut rows, verbatim, &data, &spec, shards);
    rows
}

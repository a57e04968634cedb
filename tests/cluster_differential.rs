//! Cluster differential harness: an [`EngineCluster`] over 1/2/4/8 user
//! slices must answer **bit-identically** to the single fused engine it
//! was built from — for every built-in method, under both record codecs,
//! on cold and warm threshold caches, and throughout a seeded churn
//! stream. The serving layer's cluster-backed constructor is held to the
//! same bar.

use datagen::{
    generate_churn, generate_objects, generate_workload, ChurnConfig, ChurnOp, CorpusConfig,
    UserGenConfig,
};
use maxbrstknn::mbrstk_core::{EngineCluster, Mutation, ServingEngine};
use maxbrstknn::prelude::*;

/// Slice counts under test.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Fixture {
    engine: Engine,
    specs: Vec<QuerySpec>,
    keyword_pool: Vec<TermId>,
}

/// Seeded corpus + engine (user index on, so all six methods serve) +
/// a grid of query variants cycling location shortlists and `k`.
fn fixture(codec: CodecId, seed: u64) -> Fixture {
    let objects = generate_objects(&CorpusConfig::flickr_like(900));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 37, // odd, so every slice count gets uneven slices
            area: 8.0,
            uw: 12,
            ul: 3,
            num_locations: 9,
            seed,
        },
    );
    let engine =
        Engine::build_with_fanout_codec(objects, wl.users, WeightModel::lm(), 0.5, 8, codec)
            .with_user_index();
    let specs: Vec<QuerySpec> = (0..8)
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
    Fixture {
        engine,
        specs,
        keyword_pool: wl.candidate_keywords,
    }
}

/// The fused reference's answer to every spec × method, computed once per
/// engine state: it does not depend on the slice count or the pass.
fn reference_answers(reference: &Engine, specs: &[QuerySpec]) -> Vec<QueryResult> {
    specs
        .iter()
        .flat_map(|spec| Method::ALL.map(|method| reference.query(spec, method)))
        .collect()
}

/// Every method × spec must agree between the fused reference's answers
/// and each cluster — twice in a row, so both the cold (scatter) and warm
/// (threshold-cache hit) paths are exercised.
fn assert_identical(
    reference: &Engine,
    clusters: &[EngineCluster],
    specs: &[QuerySpec],
    ctx: &str,
) {
    let want = reference_answers(reference, specs);
    for cluster in clusters {
        for pass in ["cold", "warm"] {
            let mut want = want.iter();
            for spec in specs {
                for method in Method::ALL {
                    assert_eq!(
                        Some(&cluster.query(spec, method)),
                        want.next(),
                        "{ctx}: {pass} {} k={} diverged at {} shards",
                        method.name(),
                        spec.k,
                        cluster.shard_count()
                    );
                }
            }
        }
    }
}

fn clusters_of(engine: &Engine) -> Vec<EngineCluster> {
    SHARD_COUNTS
        .iter()
        .map(|&n| EngineCluster::from_engine(engine.clone(), n))
        .collect()
}

/// Cold + warm bit-identity for every shard count and both codecs.
#[test]
fn cluster_is_bit_identical_to_fused_for_both_codecs() {
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        let fx = fixture(codec, 2024);
        assert_identical(
            &fx.engine,
            &clusters_of(&fx.engine),
            &fx.specs,
            &format!("{codec:?}"),
        );
    }
}

/// A seeded churn stream (queries interleaved with object and user
/// mutations) applied in lockstep to one fused reference and a cluster per
/// slice count: every cluster accepts or rejects exactly like the fused
/// twin, and every query op along the way answers bit-identically. A
/// refresh mid-stream must preserve the identity on the rebuilt state.
#[test]
fn churn_stream_preserves_bit_identity_in_lockstep() {
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        let fx = fixture(codec, 7070);
        let ops = generate_churn(
            &fx.engine.objects,
            &fx.engine.users,
            &fx.keyword_pool,
            &ChurnConfig::new(90, 0.6).with_seed(31337),
        );
        let mut reference = fx.engine.clone();
        let mut clusters = clusters_of(&fx.engine);
        let ctx = format!("{codec:?} churn");
        let mut qi = 0usize;
        for (op_no, op) in ops.iter().enumerate() {
            match op {
                ChurnOp::Query => {
                    // Rotate through the spec/method grid rather than
                    // running the full product at every step.
                    let spec = &fx.specs[qi % fx.specs.len()];
                    let method = Method::ALL[qi % Method::ALL.len()];
                    qi += 1;
                    let want = reference.query(spec, method);
                    for cluster in &clusters {
                        assert_eq!(
                            cluster.query(spec, method),
                            want,
                            "{ctx}: op {op_no} {} diverged at {} shards",
                            method.name(),
                            cluster.shard_count()
                        );
                    }
                }
                ChurnOp::Mutate(m) => {
                    let fused_applied = reference.apply_batch([m.clone()]).applied == 1;
                    for cluster in &mut clusters {
                        assert_eq!(
                            cluster.apply(m.clone()).is_some(),
                            fused_applied,
                            "{ctx}: op {op_no} acceptance diverged at {} shards",
                            cluster.shard_count()
                        );
                    }
                }
            }
            if op_no == ops.len() / 2 {
                reference.refresh();
                for cluster in &mut clusters {
                    cluster.refresh_synchronized();
                }
                let ctx = ctx.clone() + " post-refresh";
                assert_identical(&reference, &clusters, &fx.specs, &ctx);
            }
        }
        assert_identical(&reference, &clusters, &fx.specs, &(ctx + " post-churn"));
    }
}

/// The serving wrapper's cluster constructor serves the same answers as
/// a fused serving engine — through churn applied via the serving `apply`
/// path and a serving-level refresh.
#[test]
fn serving_engine_cluster_backend_matches_fused_serving() {
    let fx = fixture(CodecId::Verbatim, 909);
    let fused = ServingEngine::new(fx.engine.clone());
    let clustered = ServingEngine::new_cluster(EngineCluster::from_engine(fx.engine.clone(), 4));
    assert_eq!(clustered.shard_count(), 4);
    assert_eq!(clustered.epoch(), 0);

    let check = |ctx: &str| {
        for spec in &fx.specs {
            for method in Method::ALL {
                let (a, _) = clustered.query(spec, method);
                let (b, _) = fused.query(spec, method);
                assert_eq!(a, b, "{ctx}: {} k={}", method.name(), spec.k);
            }
        }
    };
    check("fresh");

    let ops = generate_churn(
        &fx.engine.objects,
        &fx.engine.users,
        &fx.keyword_pool,
        &ChurnConfig::new(40, 1.0).with_seed(4242),
    );
    for op in &ops {
        if let ChurnOp::Mutate(m) = op {
            let a = fused.apply(m.clone()).is_some();
            let b = clustered.apply(m.clone()).is_some();
            assert_eq!(a, b, "serving acceptance diverged");
        }
    }
    check("post-churn");

    fused.refresh_now();
    let report = clustered.refresh_now();
    assert_eq!(report.replayed, 0, "no mutator ran beside the refresh");
    assert_eq!(clustered.epoch(), fused.epoch());
    check("post-refresh");

    // A user inserted after the swap is scattered like any other.
    let probe = UserData {
        id: 9_001,
        point: fused.snapshot().users[0].point,
        doc: fused.snapshot().users[0].doc.clone(),
    };
    let before = clustered.epoch();
    assert!(fused.apply(Mutation::InsertUser(probe.clone())).is_some());
    assert!(clustered.apply(Mutation::InsertUser(probe)).is_some());
    assert_eq!(clustered.epoch(), before + 1);
    check("post-insert");
}

//! The dynamic-update subsystem end to end (`mbrstk_core::dynamic`).
//!
//! Acceptance criteria pinned here:
//!
//! (a) **Mutation equivalence** — after any random interleaving of
//!     object/user inserts and deletes, under every weight model, the
//!     four table-driven [`Method`]s answer bit-identically to a fresh
//!     [`Engine::build`] over the surviving object/user sets and the two
//!     §7 methods reach its objective, on a cold engine and on one serving
//!     warm through both caches while the mutations were applied.
//! (b) **No stale threshold hits** — a cached same-`k` query after a
//!     mutation re-pays the top-k phase (simulated I/O flows again and the
//!     cache records a miss).
//! (c) **Incremental beats rebuild** — maintaining the indexes of a
//!     10K-object engine through a churn batch costs ≥10× less simulated
//!     I/O per mutation than a full rebuild.
//!
//! The mutated engine's scorer is live — exact counters and maxima over
//! the current objects — so LM and TF-IDF, whose statistics move with
//! every object mutation, must agree as exactly as KO. The fixture pins
//! four corner objects/users that churn never touches: the dataspace
//! bounding box, and with it the spatial normalizer a refresh recomputes,
//! survives every interleaving.

use datagen::rng::{Rng, SeedableRng, StdRng};
use datagen::{generate_churn, generate_objects, generate_workload, ChurnConfig, ChurnOp};
use datagen::{CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::Mutation;
use maxbrstknn::prelude::*;
use text::Document;

fn t(i: u32) -> TermId {
    TermId(i)
}

const FANOUT: usize = 4;
const ALPHA: f64 = 0.5;
/// Ids below this are churnable; the four corner anchors sit above it.
const ANCHOR_BASE: u32 = 9_000;

fn corner_points() -> [Point; 4] {
    [
        Point::new(0.0, 0.0),
        Point::new(9.0, 0.0),
        Point::new(0.0, 7.0),
        Point::new(9.0, 7.0),
    ]
}

/// ~70 objects and ~20 users on a jittered grid, plus pinned corners.
fn seed_data(rng: &mut StdRng) -> (Vec<ObjectData>, Vec<UserData>) {
    let mut objects: Vec<ObjectData> = (0..70u32)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(
                (i % 9) as f64 + rng.gen_range(0.0..0.9),
                (i / 10) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    let mut users: Vec<UserData> = (0..20u32)
        .map(|i| UserData {
            id: i,
            point: Point::new(
                (i % 7) as f64 + rng.gen_range(0.0..0.9),
                (i % 5) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    for (j, p) in corner_points().into_iter().enumerate() {
        objects.push(ObjectData {
            id: ANCHOR_BASE + j as u32,
            point: p,
            doc: Document::from_terms([t(j as u32 % 5), t(6)]),
        });
        users.push(UserData {
            id: ANCHOR_BASE + j as u32,
            point: p,
            doc: Document::from_terms([t(j as u32 % 5), t(6)]),
        });
    }
    (objects, users)
}

fn build(objects: Vec<ObjectData>, users: Vec<UserData>) -> Engine {
    Engine::build_with_fanout(objects, users, WeightModel::KeywordOverlap, ALPHA, FANOUT)
        .with_user_index()
}

fn build_with(
    objects: Vec<ObjectData>,
    users: Vec<UserData>,
    model: WeightModel,
    codec: CodecId,
) -> Engine {
    Engine::build_with_fanout_codec(objects, users, model, ALPHA, FANOUT, codec).with_user_index()
}

/// A random interleaving of ~40 mutations that only touches churnable
/// ids and keeps every inserted point strictly inside the anchored hull.
fn mutation_script(rng: &mut StdRng, objects: &[ObjectData], users: &[UserData]) -> Vec<Mutation> {
    let mut live_objects: Vec<u32> = objects
        .iter()
        .map(|o| o.id)
        .filter(|&id| id < ANCHOR_BASE)
        .collect();
    let mut live_users: Vec<u32> = users
        .iter()
        .map(|u| u.id)
        .filter(|&id| id < ANCHOR_BASE)
        .collect();
    let (mut next_obj, mut next_user) = (1_000u32, 1_000u32);
    let inner_point =
        |rng: &mut StdRng| Point::new(rng.gen_range(0.5..8.5), rng.gen_range(0.5..6.5));
    // Inserts repeat term 0, so LM's cf/|C| and TF-IDF's df and largest
    // tf move with the churn.
    let doc = |rng: &mut StdRng| {
        Document::from_pairs([
            (t(0), 1 + rng.gen_range(0..4) as u32),
            (t(rng.gen_range(1..5) as u32), 1),
            (t(6), 1),
        ])
    };
    (0..40)
        .map(|_| match rng.gen_range(0..100) {
            0..=39 => {
                let id = next_obj;
                next_obj += 1;
                live_objects.push(id);
                Mutation::InsertObject(ObjectData {
                    id,
                    point: inner_point(rng),
                    doc: doc(rng),
                })
            }
            40..=64 if live_objects.len() > 5 => {
                let pos = rng.gen_range(0..live_objects.len());
                Mutation::RemoveObject(live_objects.swap_remove(pos))
            }
            65..=84 => {
                let id = next_user;
                next_user += 1;
                live_users.push(id);
                Mutation::InsertUser(UserData {
                    id,
                    point: inner_point(rng),
                    doc: doc(rng),
                })
            }
            _ if live_users.len() > 5 => {
                let pos = rng.gen_range(0..live_users.len());
                Mutation::RemoveUser(live_users.swap_remove(pos))
            }
            _ => {
                let id = next_obj;
                next_obj += 1;
                live_objects.push(id);
                Mutation::InsertObject(ObjectData {
                    id,
                    point: inner_point(rng),
                    doc: doc(rng),
                })
            }
        })
        .collect()
}

fn specs() -> Vec<QuerySpec> {
    [2usize, 4]
        .into_iter()
        .map(|k| QuerySpec {
            ox_doc: Document::from_terms([t(6)]),
            locations: vec![
                Point::new(2.1, 1.4),
                Point::new(6.8, 4.2),
                Point::new(4.4, 5.9),
            ],
            keywords: vec![t(0), t(1), t(2), t(3), t(4)],
            ws: 2,
            k,
        })
        .collect()
}

/// Sorted copy of a result's user set (the §7 pipeline reports BRSTkNN
/// members in expansion order, which legitimately differs between tree
/// shapes; membership is what the definition fixes).
fn sorted_users(r: &QueryResult) -> Vec<u32> {
    let mut ids = r.brstknn.clone();
    ids.sort_unstable();
    ids
}

/// The table-driven pipelines are bit-identical end to end. §7 walks the
/// MIUR-tree, whose shape a mutated engine does not share with a cold
/// build, and breaks objective ties by expansion order: it is held to
/// the objective (`tests/refresh_soak.rs`'s cross-shape rule).
fn assert_equivalent(label: &str, mutated: &Engine, rebuilt: &Engine) {
    for spec in specs() {
        let optimum = rebuilt.query(&spec, Method::JointExact).cardinality();
        for m in Method::ALL {
            let got = mutated.query(&spec, m);
            let want = rebuilt.query(&spec, m);
            let k = spec.k;
            match m {
                Method::UserIndexGreedy => {
                    assert_eq!(
                        got.cardinality(),
                        want.cardinality(),
                        "{label}: {m:?} k={k}"
                    );
                    assert!(got.cardinality() <= optimum);
                }
                Method::UserIndexExact => {
                    assert_eq!(got.cardinality(), optimum, "{label}: {m:?} k={k}");
                    assert_eq!(want.cardinality(), optimum);
                }
                _ => assert_eq!(got, want, "{label}: {m:?} k={k} diverged"),
            }
        }
    }
}

/// Acceptance (a) + the seeded equivalence property: cold and warm
/// mutated engines match a fresh build over the survivors, for every
/// method and weight model, across random interleavings — under both
/// record codecs, which must also agree with *each other*
/// bit-identically.
#[test]
fn mutation_equivalence_warm_and_cold() {
    let models = [
        WeightModel::KeywordOverlap,
        WeightModel::lm(),
        WeightModel::TfIdf,
    ];
    for (seed, model) in [11u64, 42, 77]
        .into_iter()
        .flat_map(|s| models.map(|m| (s, m)))
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let (objects, users) = seed_data(&mut rng);
        let script = mutation_script(&mut rng, &objects, &users);
        let seed = format!("seed {seed} {}", model.short_name());
        let build_codec = |objects, users, codec| build_with(objects, users, model, codec);

        let mut rebuilt_by_codec = Vec::new();
        for codec in CodecId::ALL {
            // Cold twin: mutations only.
            let mut cold = build_codec(objects.clone(), users.clone(), codec);
            // Warm twin: serves queries through both caches between chunks.
            let mut warm = build_codec(objects.clone(), users.clone(), codec)
                .with_threshold_cache()
                .with_page_cache(1 << 12);

            for chunk in script.chunks(7) {
                let a = cold.apply_batch(chunk.to_vec());
                let b = warm.apply_batch(chunk.to_vec());
                assert_eq!(a.applied, b.applied, "{seed}: twins must agree");
                assert_eq!(a.rejected, 0, "script only emits valid mutations");
                // Keep the warm caches genuinely warm across mutations.
                for spec in specs() {
                    let _ = warm.query(&spec, Method::JointExact);
                    let _ = warm.query(&spec, Method::UserIndexGreedy);
                }
            }
            assert_eq!(cold.epoch(), script.len() as u64);

            // Fresh build over the surviving sets, in surviving table order.
            let rebuilt = build_codec(cold.objects.clone(), cold.users.clone(), codec);
            assert_eq!(rebuilt.mir.num_objects(), cold.mir.num_objects());
            assert_eq!(
                rebuilt.miur.as_ref().unwrap().num_users(),
                cold.miur.as_ref().unwrap().num_users()
            );

            assert_equivalent(&format!("{seed} {codec:?} cold"), &cold, &rebuilt);
            assert_equivalent(&format!("{seed} {codec:?} warm"), &warm, &rebuilt);
            rebuilt_by_codec.push(rebuilt);
        }
        // Cross-codec bit-identity at query level: the codecs only change
        // the bytes on disk, never an answer.
        assert_equivalent(
            &format!("{seed} verbatim-vs-columnar"),
            &rebuilt_by_codec[0],
            &rebuilt_by_codec[1],
        );
    }
}

/// Acceptance (b): a cached same-`k` query after a mutation re-pays the
/// top-k phase — no stale `ThresholdCache` hit survives a mutation.
#[test]
fn mutation_invalidates_cached_thresholds() {
    let mut rng = StdRng::seed_from_u64(5);
    let (objects, users) = seed_data(&mut rng);
    let mut eng = build(objects, users).with_threshold_cache();
    let spec = &specs()[0];

    for method in [Method::Baseline, Method::JointExact, Method::UserIndexExact] {
        // Warm the (method, k) slot, then prove the second query is free.
        let _ = eng.query(spec, method);
        let before = eng.io.snapshot();
        let _ = eng.query(spec, method);
        let repeat = (eng.io.snapshot() - before).total();

        let misses_before = eng.thresholds.as_ref().unwrap().misses();
        eng.insert_object(ObjectData {
            id: 5_000 + eng.epoch() as u32,
            point: Point::new(4.5, 3.5),
            doc: Document::from_terms([t(1), t(6)]),
        })
        .unwrap();

        let before = eng.io.snapshot();
        let _ = eng.query(spec, method);
        let after_mutation = (eng.io.snapshot() - before).total();
        assert!(
            after_mutation > repeat,
            "{method:?}: post-mutation query charged {after_mutation} ≤ cached {repeat} — stale hit"
        );
        assert!(
            eng.thresholds.as_ref().unwrap().misses() > misses_before,
            "{method:?}: cache must record a recompute"
        );

        // And the recomputed answer matches a fresh build.
        let rebuilt = build(eng.objects.clone(), eng.users.clone());
        let got = eng.query(spec, method);
        let want = rebuilt.query(spec, method);
        assert_eq!(sorted_users(&got), sorted_users(&want), "{method:?}");
    }
}

/// Acceptance (c): incrementally maintaining a 10K-object engine through
/// a mixed churn batch is ≥10× cheaper in simulated I/O per mutation than
/// a full rebuild of the live indexes.
#[test]
fn incremental_update_is_10x_cheaper_than_rebuild() {
    let objects = generate_objects(&CorpusConfig::flickr_like(10_000));
    let wl = generate_workload(&objects, &UserGenConfig::paper_default());
    let mut eng =
        Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 32).with_user_index();

    let stream = generate_churn(
        &eng.objects,
        &eng.users,
        &wl.candidate_keywords,
        &ChurnConfig::new(60, 1.0).with_seed(101),
    );
    let report = eng.apply_batch(stream.into_iter().filter_map(|op| match op {
        ChurnOp::Mutate(m) => Some(m),
        ChurnOp::Query => None,
    }));
    assert!(report.applied >= 50, "churn stream must mostly apply");
    assert_eq!(report.rejected, 0);

    let mean_maintenance = report.io.total() as f64 / report.applied as f64;
    let rebuild = eng.rebuild_io_cost() as f64;
    assert!(
        mean_maintenance * 10.0 <= rebuild,
        "incremental {mean_maintenance:.1} I/O per mutation vs rebuild {rebuild:.0}: \
         less than 10x cheaper"
    );
}

/// Epoch guards observe mutations across the borrow boundary, and batch
/// queries against a frozen engine stay consistent with its epoch.
#[test]
fn epoch_guard_tracks_mutations_across_batches() {
    let mut rng = StdRng::seed_from_u64(9);
    let (objects, users) = seed_data(&mut rng);
    let mut eng = build(objects, users).with_threshold_cache();
    let batch = specs();

    let guard = eng.epoch_guard();
    let first = eng.query_batch_threads(&batch, Method::JointGreedy, 2);
    assert!(
        guard.is_current(&eng),
        "querying must not advance the epoch"
    );

    eng.apply_batch(vec![
        Mutation::InsertObject(ObjectData {
            id: 7_777,
            point: Point::new(3.3, 3.3),
            doc: Document::from_terms([t(2), t(6)]),
        }),
        Mutation::RemoveUser(1),
    ]);
    assert!(!guard.is_current(&eng), "mutations must be observable");
    assert_eq!(eng.epoch(), guard.epoch() + 2);

    // Post-mutation batches answer against the new snapshot and agree
    // with a rebuilt engine.
    let rebuilt = build(eng.objects.clone(), eng.users.clone());
    let second = eng.query_batch_threads(&batch, Method::JointGreedy, 2);
    for (out, spec) in second.iter().zip(&batch) {
        assert_eq!(out.result, rebuilt.query(spec, Method::JointGreedy));
    }
    // The pre-mutation results were computed under the old epoch: the
    // serving layer can tell them apart (and they may legitimately
    // differ from the new snapshot's answers).
    assert_eq!(first.len(), batch.len());
}

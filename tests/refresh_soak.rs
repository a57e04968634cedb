//! The corpus-refresh subsystem under churn and concurrency
//! (`mbrstk_core::refresh`).
//!
//! Acceptance criteria pinned here:
//!
//! (a) **Soak** — mutation and query streams interleaved across threads
//!     against a [`ServingEngine`], with a refresh at every checkpoint:
//!     all six [`Method`]s are then bit-identical to a cold fresh build
//!     over the survivors (under the corpus-*dependent* LM model), the
//!     rebuild reclaims every freed placeholder record and resets the
//!     mutation counter, and every observer sees strictly monotone
//!     epochs.
//! (b) **Swap safety** — queries racing the atomic swap never observe
//!     torn state (exact methods agree on every snapshot, no panic, no
//!     deadlock), under a seeded thread-interleaving loop.
//! (c) **No blocking on the rebuild** — an in-flight query pinning a
//!     pre-swap snapshot completes on that snapshot *after* the swap has
//!     already been published; its results are valid for the old epoch
//!     and its guard reports stale against the new one.
//! (d) **Live weights** — a TF-IDF insert heavier than anything the
//!     build saw is answered at its true weight before any refresh: the
//!     trees store its `tf`, the live scorer its `idf` and `wmax`.
//! (e) **Copy-on-write fallback** — a mutation applied while a snapshot
//!     is pinned proceeds on a private clone: the pinned snapshot's
//!     query answers stay bit-stable for its epoch while the published
//!     engine advances.
//! (f) **Refresh ≡ cold build** — for every weight model (LM, TF-IDF,
//!     KO) and for both a drift-heavy and a uniform churn stream,
//!     `Engine::refreshed()` answers every one of the six [`Method`]s
//!     bit-identically to a cold build over the survivors under either
//!     codec, on cold caches and again on warm ones; a refresh keeps the
//!     engine's codec.
//!
//! Scale knobs (CI uses reduced settings): `MBRSTK_SOAK_OPS` mutations
//! per mutator thread per round (default 48), `MBRSTK_SOAK_ROUNDS`
//! churn/checkpoint rounds (default 2), `MBRSTK_RACE_ITERS` iterations
//! per racing query thread (default 40).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

use datagen::rng::{Rng, SeedableRng, StdRng};
use index::{NodeScratch, PostingsScratch};
use maxbrstknn::datagen::{generate_churn, ChurnConfig, ChurnOp};
use maxbrstknn::mbrstk_core::{EngineCluster, Mutation, ServingEngine};
use maxbrstknn::prelude::*;
use text::Document;

fn t(i: u32) -> TermId {
    TermId(i)
}

const FANOUT: usize = 4;
const ALPHA: f64 = 0.5;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// ~140 objects / ~30 users on a jittered grid; LM model, so the scorer
/// genuinely depends on corpus statistics and only a refresh can restore
/// cold-build equivalence after churn.
fn seed_data(rng: &mut StdRng) -> (Vec<ObjectData>, Vec<UserData>) {
    let objects: Vec<ObjectData> = (0..140u32)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(
                (i % 12) as f64 + rng.gen_range(0.0..0.9),
                (i / 12) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    let users: Vec<UserData> = (0..30u32)
        .map(|i| UserData {
            id: i,
            point: Point::new(
                (i % 10) as f64 + rng.gen_range(0.0..0.9),
                (i % 8) as f64 + rng.gen_range(0.0..0.9),
            ),
            doc: Document::from_terms([t(i % 5), t(6)]),
        })
        .collect();
    (objects, users)
}

fn build(objects: Vec<ObjectData>, users: Vec<UserData>) -> Engine {
    Engine::build_with_fanout(objects, users, WeightModel::lm(), ALPHA, FANOUT).with_user_index()
}

/// [`build`] under an explicit model and codec, with both caches.
fn build_cached(
    objects: Vec<ObjectData>,
    users: Vec<UserData>,
    model: WeightModel,
    codec: CodecId,
) -> Engine {
    Engine::build_with_fanout_codec(objects, users, model, ALPHA, FANOUT, codec)
        .with_user_index()
        .with_threshold_cache()
        .with_page_cache(1 << 12)
}

/// Serves `engine` fused (`shards == 0`) or scattered over `shards` user
/// slices — the racing tests take both as inputs.
fn serve(engine: Engine, shards: usize) -> std::sync::Arc<ServingEngine> {
    match shards {
        0 => ServingEngine::new(engine),
        n => ServingEngine::new_cluster(EngineCluster::from_engine(engine, n)),
    }
}

fn specs() -> Vec<QuerySpec> {
    [2usize, 3]
        .into_iter()
        .map(|k| QuerySpec {
            ox_doc: Document::from_terms([t(6)]),
            locations: vec![
                Point::new(2.1, 1.4),
                Point::new(7.8, 4.2),
                Point::new(4.4, 6.9),
            ],
            keywords: vec![t(0), t(1), t(2), t(3), t(4)],
            ws: 2,
            k,
        })
        .collect()
}

/// Sorted copy of a result's user set (the §7 pipeline reports members in
/// tree-shape-dependent expansion order; membership is what Definition 1
/// fixes).
fn sorted_users(r: &QueryResult) -> Vec<u32> {
    let mut ids = r.brstknn.clone();
    ids.sort_unstable();
    ids
}

/// Like [`assert_equivalent`], but tolerant of §7 tie-breaking: a mutated
/// engine keeps its trees' *shape* (a cold rebuild re-tiles them), and the
/// MIUR pipeline breaks objective ties by expansion order, so across
/// different shapes the §7 methods are pinned on the objective
/// (cardinality, checked against the exact joint optimum) instead of the
/// full payload.
fn assert_equivalent_cross_shape(label: &str, refreshed: &Engine, rebuilt: &Engine) {
    for spec in specs() {
        let optimum = rebuilt.query(&spec, Method::JointExact).cardinality();
        for m in Method::ALL {
            let got = refreshed.query(&spec, m);
            let want = rebuilt.query(&spec, m);
            match m {
                Method::UserIndexGreedy => {
                    assert_eq!(
                        got.cardinality(),
                        want.cardinality(),
                        "{label}: {m:?} k={} diverged",
                        spec.k
                    );
                    assert!(got.cardinality() <= optimum);
                }
                Method::UserIndexExact => {
                    assert_eq!(
                        got.cardinality(),
                        optimum,
                        "{label}: {m:?} k={} missed the optimum",
                        spec.k
                    );
                    assert_eq!(want.cardinality(), optimum);
                }
                _ => assert_eq!(got, want, "{label}: {m:?} k={} diverged", spec.k),
            }
        }
    }
}

fn assert_equivalent(label: &str, refreshed: &Engine, rebuilt: &Engine) {
    for spec in specs() {
        for m in Method::ALL {
            let got = refreshed.query(&spec, m);
            let want = rebuilt.query(&spec, m);
            match m {
                Method::Baseline
                | Method::JointGreedy
                | Method::JointGreedyPlus
                | Method::JointExact => {
                    assert_eq!(got, want, "{label}: {m:?} k={} diverged", spec.k)
                }
                Method::UserIndexGreedy | Method::UserIndexExact => {
                    assert_eq!(
                        (got.location, got.keywords.clone(), sorted_users(&got)),
                        (want.location, want.keywords.clone(), sorted_users(&want)),
                        "{label}: {m:?} k={} diverged",
                        spec.k
                    );
                }
            }
        }
    }
}

/// A self-consistent object-only mutation script over a private id range
/// (drift-heavy: inserted docs flood term 0), so two mutator threads can
/// interleave without ever conflicting.
fn object_script(
    rng: &mut StdRng,
    ops: usize,
    mut live: Vec<u32>,
    fresh_base: u32,
) -> Vec<Mutation> {
    let mut next = fresh_base;
    (0..ops)
        .map(|_| {
            if rng.gen_range(0..100) < 60 || live.len() <= 8 {
                let id = next;
                next += 1;
                live.push(id);
                Mutation::InsertObject(ObjectData {
                    id,
                    point: Point::new(rng.gen_range(0.5..11.5), rng.gen_range(0.5..11.0)),
                    doc: Document::from_pairs([(t(0), 3), (t(rng.gen_range(1..5) as u32), 1)]),
                })
            } else {
                let pos = rng.gen_range(0..live.len());
                Mutation::RemoveObject(live.swap_remove(pos))
            }
        })
        .collect()
}

/// The user-side twin of [`object_script`].
fn user_script(rng: &mut StdRng, ops: usize, mut live: Vec<u32>, fresh_base: u32) -> Vec<Mutation> {
    let mut next = fresh_base;
    (0..ops)
        .map(|_| {
            if rng.gen_range(0..100) < 55 || live.len() <= 5 {
                let id = next;
                next += 1;
                live.push(id);
                Mutation::InsertUser(UserData {
                    id,
                    point: Point::new(rng.gen_range(0.5..11.5), rng.gen_range(0.5..11.0)),
                    doc: Document::from_terms([t(rng.gen_range(0..5) as u32), t(6)]),
                })
            } else {
                let pos = rng.gen_range(0..live.len());
                Mutation::RemoveUser(live.swap_remove(pos))
            }
        })
        .collect()
}

/// Acceptance (a): the long seeded churn soak. Mutators and queries race
/// across threads; each quiesced checkpoint refreshes and proves
/// bit-identity with a cold fresh build over the survivors, full
/// placeholder reclamation, and strictly monotone epochs.
#[test]
fn soak_churn_with_periodic_refresh_checkpoints() {
    let ops = env_usize("MBRSTK_SOAK_OPS", 48);
    let rounds = env_usize("MBRSTK_SOAK_ROUNDS", 2);

    let mut rng = StdRng::seed_from_u64(4242);
    let (objects, users) = seed_data(&mut rng);
    let serving = ServingEngine::new(
        build(objects, users)
            .with_threshold_cache()
            .with_page_cache(1 << 12),
    );

    let mut last_checkpoint_epoch = serving.epoch();
    for round in 0..rounds {
        // Scripts are generated against the *current* snapshot's live id
        // sets, partitioned by kind: one thread churns objects, one churns
        // users, so interleavings commute and every mutation applies.
        let snap = serving.snapshot();
        let obj_live: Vec<u32> = snap.objects.iter().map(|o| o.id).collect();
        let user_live: Vec<u32> = snap.users.iter().map(|u| u.id).collect();
        let fresh_base = 10_000 * (round as u32 + 1);
        let obj_ops = object_script(&mut rng, ops, obj_live, fresh_base);
        let user_ops = user_script(&mut rng, ops / 3, user_live, fresh_base);
        drop(snap);

        // Observers keep racing until the *last* mutator finishes, so the
        // whole churn runs under concurrent snapshot checking.
        let mutators_left = AtomicUsize::new(2);
        let applied = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for script in [obj_ops.clone(), user_ops.clone()] {
                let (serving, mutators_left, applied) = (&serving, &mutators_left, &applied);
                s.spawn(move || {
                    let report = serving.apply_batch(script);
                    assert_eq!(report.rejected, 0, "partitioned scripts never conflict");
                    applied.fetch_add(report.applied, Ordering::Relaxed);
                    mutators_left.fetch_sub(1, Ordering::Relaxed);
                });
            }
            // Two query observers: every snapshot must be internally
            // consistent (all exact methods agree) and epochs must never
            // run backwards.
            for worker in 0..2u64 {
                let (serving, mutators_left) = (&serving, &mutators_left);
                s.spawn(move || {
                    let spec = &specs()[worker as usize % 2];
                    let mut last_epoch = 0u64;
                    let mut iterations = 0usize;
                    while mutators_left.load(Ordering::Relaxed) > 0 || iterations < 4 {
                        iterations += 1;
                        let snap = serving.snapshot();
                        let guard = snap.epoch_guard();
                        assert!(
                            guard.epoch() >= last_epoch,
                            "epochs ran backwards: {} after {last_epoch}",
                            guard.epoch()
                        );
                        last_epoch = guard.epoch();
                        let e = snap.query(spec, Method::JointExact);
                        let b = snap.query(spec, Method::Baseline);
                        let u = snap.query(spec, Method::UserIndexExact);
                        assert_eq!(e.cardinality(), b.cardinality(), "torn snapshot");
                        assert_eq!(e.cardinality(), u.cardinality(), "torn snapshot");
                        std::thread::yield_now();
                    }
                });
            }
        });
        let applied = applied.load(Ordering::Relaxed);
        assert_eq!(applied, obj_ops.len() + user_ops.len());

        // Quiesced checkpoint: refresh, then prove the acceptance bundle.
        let pre_epoch = serving.epoch();
        assert!(
            pre_epoch >= last_checkpoint_epoch + applied as u64,
            "every applied mutation bumps the epoch"
        );
        let report = serving.refresh_now();
        assert_eq!(report.replayed, 0, "quiesced refresh replays nothing");
        assert!(
            report.epoch > pre_epoch,
            "refresh strictly advances the epoch"
        );
        assert!(
            report.reclaimed_records > 0,
            "churn leaves placeholders and the rebuild reclaims them"
        );

        let snap = serving.snapshot();
        assert_eq!(snap.epoch(), report.epoch);
        assert_eq!(snap.mutations_since_refresh(), 0);
        assert_eq!(snap.freed_record_slots(), 0, "fresh block files are dense");

        let cold = build(snap.objects.clone(), snap.users.clone());
        assert_equivalent(&format!("round {round}"), &snap, &cold);
        last_checkpoint_epoch = report.epoch;
    }
    assert_eq!(serving.refreshes(), rounds as u64);
}

/// Acceptance (b): queries racing the atomic swap — mutations and
/// refreshes fire under a seeded interleaving while query threads hammer
/// snapshots. No torn state, no panic, no deadlock, monotone epochs.
#[test]
fn queries_racing_the_swap_never_observe_torn_state() {
    let iters = env_usize("MBRSTK_RACE_ITERS", 40);
    for (seed, shards) in [(3u64, 0usize), (17, 0), (91, 0), (3, 4)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (objects, users) = seed_data(&mut rng);
        let serving = serve(build(objects, users).with_threshold_cache(), shards);
        let done = AtomicBool::new(false);

        std::thread::scope(|s| {
            for worker in 0..2usize {
                let (serving, done) = (&serving, &done);
                s.spawn(move || {
                    let spec = &specs()[worker % 2];
                    let mut last_epoch = 0u64;
                    for i in 0.. {
                        if done.load(Ordering::Relaxed) && i >= iters {
                            break;
                        }
                        let snap = serving.snapshot();
                        assert!(snap.epoch() >= last_epoch, "epoch ran backwards");
                        last_epoch = snap.epoch();
                        let e = snap.query(spec, Method::JointExact);
                        let b = snap.query(spec, Method::Baseline);
                        assert_eq!(
                            e.cardinality(),
                            b.cardinality(),
                            "seed {seed}: torn snapshot at epoch {last_epoch}"
                        );
                        // The serving path (scattered when `shards > 0`)
                        // answers on whichever snapshot is published by
                        // now; epochs name published states uniquely.
                        let (served, guard) = serving.query(spec, Method::JointExact);
                        if guard.epoch() == last_epoch {
                            assert_eq!(served, e, "seed {seed} × {shards} slices");
                        }
                    }
                });
            }

            // The interleaving driver: seeded mutation bursts with swaps
            // in between.
            let script = object_script(
                &mut rng,
                iters.max(24),
                (0..140).collect(),
                50_000 + seed as u32 * 1_000,
            );
            for (i, m) in script.into_iter().enumerate() {
                assert!(serving.apply(m).is_some());
                if i % 9 == 4 {
                    let before = serving.epoch();
                    let report = serving.refresh_now();
                    assert!(report.epoch > before);
                }
                for _ in 0..rng.gen_range(0..3) {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Relaxed);
        });
        assert!(serving.refreshes() > 0);
    }
}

/// Acceptance (c): the swap publishes while an in-flight query still pins
/// the pre-swap snapshot — the rebuild never blocks on the query and the
/// query never blocks on the rebuild. The pinned results stay valid for
/// the old epoch, and the guard reports them stale against the new one.
#[test]
fn in_flight_queries_complete_on_their_snapshot_without_blocking_on_rebuild() {
    let mut rng = StdRng::seed_from_u64(7);
    let (objects, users) = seed_data(&mut rng);
    let serving = ServingEngine::new(build(objects, users).with_threshold_cache());
    let spec = &specs()[0];

    let (ready_tx, ready_rx) = mpsc::channel();
    let (swapped_tx, swapped_rx) = mpsc::channel::<()>();

    let (old_snap, old_guard, old_result) = std::thread::scope(|s| {
        let serving_ref = &serving;
        let handle = s.spawn(move || {
            // Pin a pre-swap snapshot, then pause mid-"query" while the
            // main thread mutates and swaps underneath us.
            let snap = serving_ref.snapshot();
            let guard = snap.epoch_guard();
            ready_tx.send(()).unwrap();
            swapped_rx.recv().unwrap();
            let result = snap.query(spec, Method::JointExact);
            (snap, guard, result)
        });

        ready_rx.recv().unwrap();
        // With the snapshot pinned, a mutation must still make progress
        // (copy-on-write fallback) ...
        assert!(serving
            .apply(Mutation::InsertObject(ObjectData {
                id: 77_000,
                point: Point::new(5.5, 5.5),
                doc: Document::from_pairs([(t(0), 4), (t(6), 1)]),
            }))
            .is_some());
        // ... and the refresh must rebuild and PUBLISH the swap while the
        // old snapshot is still alive. If the swap waited for in-flight
        // snapshot holders, this call would deadlock (the holder is
        // waiting on our channel send below).
        let before = serving.epoch();
        let report = serving.refresh_now();
        assert!(report.epoch > before);
        swapped_tx.send(()).unwrap();
        handle.join().unwrap()
    });

    // The pinned snapshot never saw the mutation or the swap: its answer
    // is exactly what a cold build over its own (pre-mutation) tables
    // gives — valid for the old epoch.
    assert!(old_snap.objects.iter().all(|o| o.id != 77_000));
    let old_twin = build(old_snap.objects.clone(), old_snap.users.clone());
    assert_eq!(old_result, old_twin.query(spec, Method::JointExact));

    // And the serving side has moved on: the guard is stale, the new
    // snapshot reflects the mutation, and answers match ITS cold twin.
    let new_snap = serving.snapshot();
    assert!(
        !old_guard.is_current(&new_snap),
        "old-epoch results are detectable"
    );
    assert!(new_snap.epoch() > old_snap.epoch());
    assert!(new_snap.objects.iter().any(|o| o.id == 77_000));
    let new_twin = build(new_snap.objects.clone(), new_snap.users.clone());
    assert_eq!(
        new_snap.query(spec, Method::JointExact),
        new_twin.query(spec, Method::JointExact)
    );
}

/// Acceptance (d): no weight is frozen. 20 docs, term 0 in half of them,
/// every tf 1, so the build's `wmax(t0)` is `ln 2`; an insert with
/// `tf(t0) = 6` moves `idf(t0)` to `ln(21/11)` and is stored as its `tf`,
/// so before any refresh `wmax(t0)` is its true `6·ln(21/11)` and every
/// answer is a cold build's over the 21 objects.
#[test]
fn outlier_tf_insert_is_answered_at_its_true_weight() {
    let objects: Vec<ObjectData> = (0..20u32)
        .map(|i| ObjectData {
            id: i,
            point: Point::new((i % 5) as f64, (i / 5) as f64),
            doc: Document::from_terms([t(i % 2), t(2)]),
        })
        .collect();
    let users: Vec<UserData> = (0..6u32)
        .map(|i| UserData {
            id: i,
            point: Point::new((i % 4) as f64 + 0.4, (i % 3) as f64 + 0.4),
            doc: Document::from_terms([t(0), t(2)]),
        })
        .collect();
    let build_tfidf = |objects, users| {
        Engine::build_with_fanout(objects, users, WeightModel::TfIdf, ALPHA, FANOUT)
            .with_user_index()
    };
    let mut eng = build_tfidf(objects, users);
    assert_eq!(eng.ctx.text.max_weight(t(0)), 2.0f64.ln());

    eng.insert_object(ObjectData {
        id: 500,
        point: Point::new(2.2, 2.2),
        doc: Document::from_pairs([(t(0), 6)]),
    })
    .unwrap();
    let posted_max = |eng: &Engine| -> f64 {
        let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
        let root = eng.mir.read_node_ref(eng.mir.root(), &eng.io, &mut ns);
        let postings = eng.mir.read_postings_ref(&root, &[t(0)], &eng.io, &mut ps);
        (0..postings.len())
            .flat_map(|i| postings.entry(i))
            .map(|&(_, mx, _)| mx)
            .fold(0.0, f64::max)
    };
    assert_eq!(posted_max(&eng), 6.0, "the tree stores the outlier's tf");
    let true_wmax = 6.0 * (21.0f64 / 11.0).ln();
    assert!(
        true_wmax > 2.0f64.ln(),
        "the outlier exceeds the build's wmax"
    );
    assert_eq!(eng.ctx.text.max_weight(t(0)), true_wmax);
    assert_eq!(eng.mutations_since_refresh(), 1, "no refresh ran");

    let cold = build_tfidf(eng.objects.clone(), eng.users.clone());
    assert_eq!(
        eng.ctx.text.max_weight(t(0)).to_bits(),
        cold.ctx.text.max_weight(t(0)).to_bits()
    );
    // The insert left the MIR-tree in a shape STR would not build.
    assert_equivalent_cross_shape("outlier", &eng, &cold);
}

/// Acceptance (e): the copy-on-write fallback regression. Pin a
/// snapshot, mutate through the CoW clone, and prove the pinned
/// snapshot's query results are bit-unchanged (for every method) while
/// the published engine advances and answers like a cold build over its
/// new tables.
#[test]
fn cow_fallback_keeps_pinned_snapshot_answers_bit_stable() {
    let mut rng = StdRng::seed_from_u64(31);
    let (objects, users) = seed_data(&mut rng);
    let serving = ServingEngine::new(
        build(objects, users)
            .with_threshold_cache()
            .with_page_cache(1 << 12),
    );

    // Pin a snapshot and record its answers for every method and spec.
    let pinned = serving.snapshot();
    let guard = pinned.epoch_guard();
    let pinned_objects = pinned.objects.len();
    let pinned_users = pinned.users.len();
    let before: Vec<QueryResult> = specs()
        .iter()
        .flat_map(|spec| Method::ALL.map(|m| pinned.query(spec, m)))
        .collect();

    // Mutate while the snapshot is pinned: every one of these must take
    // the copy-on-write fallback (the pinned Arc never drops), and none
    // may block.
    let muts = [
        Mutation::InsertObject(ObjectData {
            id: 90_001,
            point: Point::new(4.4, 4.4),
            doc: Document::from_pairs([(t(0), 3), (t(6), 1)]),
        }),
        Mutation::RemoveObject(3),
        Mutation::InsertUser(UserData {
            id: 90_002,
            point: Point::new(5.5, 2.2),
            doc: Document::from_terms([t(1), t(6)]),
        }),
        Mutation::RemoveUser(1),
    ];
    for m in muts {
        assert!(serving.apply(m).is_some(), "CoW mutation must progress");
    }

    // The pinned snapshot is bit-stable: same tables, same epoch, and
    // every re-run answer identical to the recorded one.
    assert_eq!(pinned.objects.len(), pinned_objects);
    assert_eq!(pinned.users.len(), pinned_users);
    assert_eq!(guard.epoch(), pinned.epoch());
    let after: Vec<QueryResult> = specs()
        .iter()
        .flat_map(|spec| Method::ALL.map(|m| pinned.query(spec, m)))
        .collect();
    assert_eq!(before, after, "pinned answers must not move");

    // The published engine moved on — all four mutations visible, epoch
    // advanced, the old guard reports stale — and it answers exactly
    // like a cold build over its own tables.
    let published = serving.snapshot();
    assert_eq!(published.epoch(), pinned.epoch() + 4);
    assert!(!guard.is_current(&published), "pinned results are stale");
    assert_eq!(published.objects.len(), pinned_objects); // +1 −1
    assert_eq!(published.users.len(), pinned_users); // +1 −1
    assert!(published.objects.iter().any(|o| o.id == 90_001));
    assert!(published.objects.iter().all(|o| o.id != 3));
    let cold = build(published.objects.clone(), published.users.clone());
    // Same engine lineage → same tree shapes are NOT guaranteed after
    // incremental maintenance; compare with the shape-tolerant bundle.
    assert_equivalent_cross_shape("cow published", &published, &cold);
}

/// Writes racing a rebuild are never lost. Every accepted write runs under
/// the serving engine's writer lock, either before a refresh's capture
/// (the capture holds it) or into the journal the capture opened (the
/// replay applies it before the swap). So under back-to-back rebuilds
/// racing two mutator threads, some writes are replayed, and after
/// quiescing every applied insert is live.
#[test]
fn mutations_racing_the_rebuild_are_never_lost() {
    let per_worker = env_usize("MBRSTK_RACE_ITERS", 40).max(24);
    for (seed, shards) in [(5u64, 0usize), (23, 0), (77, 0), (5, 4)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (objects, users) = seed_data(&mut rng);
        let serving = serve(build(objects, users), shards);
        let stop = AtomicBool::new(false);

        let inserted: Vec<u32> = std::thread::scope(|s| {
            // Back-to-back full rebuilds for the whole race: every apply
            // below has a high chance of landing mid-capture or
            // mid-rebuild.
            let refresher = {
                let (serving, stop) = (&serving, &stop);
                s.spawn(move || {
                    let (mut rebuilds, mut replayed) = (0u64, 0usize);
                    while !stop.load(Ordering::Relaxed) {
                        replayed += serving.refresh_now().replayed;
                        rebuilds += 1;
                    }
                    (rebuilds, replayed)
                })
            };

            let mut handles = Vec::new();
            for worker in 0..2u32 {
                let serving = &serving;
                handles.push(s.spawn(move || {
                    let base = 100_000 + worker * 10_000;
                    let ids: Vec<u32> = (base..base + per_worker as u32).collect();
                    for &id in &ids {
                        let io = serving.apply(Mutation::InsertObject(ObjectData {
                            id,
                            point: Point::new((id % 11) as f64 + 0.3, (id % 7) as f64 + 0.4),
                            doc: Document::from_pairs([(t(0), 2), (t(id % 5), 1)]),
                        }));
                        assert!(io.is_some(), "fresh id {id} must apply");
                        // A pause, not a yield: two writers that only yield
                        // can keep the refresher from the writer lock until
                        // every write is done, and then nothing is replayed.
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                    ids
                }));
            }

            let mut ids = Vec::new();
            for h in handles {
                ids.extend(h.join().expect("mutator"));
            }
            stop.store(true, Ordering::Relaxed);
            let (rebuilds, replayed) = refresher.join().expect("refresher");
            assert!(rebuilds > 0, "seed {seed}: the race never rebuilt");
            assert!(
                replayed > 0,
                "seed {seed} × {shards} slices: no write landed inside a rebuild"
            );
            ids
        });

        // Quiesce with one more refresh; every raced insert must have
        // survived.
        serving.refresh_now();
        let snap = serving.snapshot();
        let live: std::collections::HashSet<u32> = snap.objects.iter().map(|o| o.id).collect();
        for id in inserted {
            assert!(
                live.contains(&id),
                "seed {seed}: insert {id} was dropped by the rebuild race"
            );
        }
        for spec in specs() {
            let (served, _) = serving.query(&spec, Method::JointExact);
            assert_eq!(served, snap.query(&spec, Method::JointExact));
        }
    }
}

/// Acceptance (f): the differential refresh harness. Refreshed ≡ cold,
/// for all six methods, under both codecs, cold caches and warm, across
/// drift-heavy and uniform streams and all three weight models.
#[test]
fn refresh_is_bit_identical_to_cold_build() {
    let pool: Vec<TermId> = (0..=6).map(t).collect();
    for model in [
        WeightModel::lm(),
        WeightModel::TfIdf,
        WeightModel::KeywordOverlap,
    ] {
        for (stream_name, cfg) in [
            ("drift-heavy", ChurnConfig::drift_heavy(120).with_seed(901)),
            ("uniform", ChurnConfig::new(120, 1.0).with_seed(902)),
        ] {
            let label = format!("{} / {stream_name}", model.short_name());
            let (objects, users) = seed_data(&mut StdRng::seed_from_u64(901));
            let mut churned =
                build_cached(objects.clone(), users.clone(), model, CodecId::default());
            let report = churned.apply_batch(
                generate_churn(&objects, &users, &pool, &cfg)
                    .into_iter()
                    .filter_map(|op| match op {
                        ChurnOp::Mutate(m) => Some(m),
                        ChurnOp::Query => None,
                    }),
            );
            assert!(report.applied > 0 && report.rejected == 0, "{label}");
            assert!(
                churned.freed_record_slots() > 0,
                "{label}: churn left slots"
            );

            let refreshed = churned.refreshed();
            assert_eq!(refreshed.mutations_since_refresh(), 0, "{label}");
            assert_eq!(refreshed.freed_record_slots(), 0, "{label}");
            let cold =
                |codec| build_cached(churned.objects.clone(), churned.users.clone(), model, codec);
            let engines = [
                ("refreshed", refreshed),
                ("cold", cold(CodecId::Verbatim)),
                ("cold-columnar", cold(CodecId::Columnar)),
            ];
            for spec in specs() {
                for m in Method::ALL {
                    let want = engines[0].1.query(&spec, m);
                    for (name, engine) in &engines {
                        // Twice: the second pass runs on warm caches.
                        for pass in ["cold", "warm"] {
                            assert_eq!(
                                engine.query(&spec, m),
                                want,
                                "{label}: {name} ({pass} caches) diverged on {m:?} k={}",
                                spec.k
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The refresh seed captures the engine's codec, so refreshing a Columnar
/// engine yields a Columnar engine (a plain build would be Verbatim).
#[test]
fn refresh_preserves_engine_codec() {
    let (objects, users) = seed_data(&mut StdRng::seed_from_u64(48));
    let mut eng = build_cached(objects, users, WeightModel::lm(), CodecId::Columnar);
    assert_eq!(eng.refreshed().codec(), CodecId::Columnar);
    eng.refresh();
    assert_eq!(eng.codec(), CodecId::Columnar);
}

//! The serving-cache subsystem end to end: the cross-query threshold
//! cache eliminates repeat top-k simulated I/O without changing any
//! answer, alone or combined with the sharded page cache.

use datagen::rng::{Rng, SeedableRng, StdRng};
use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::select::location::KeywordSelector;
use maxbrstknn::mbrstk_core::user_index::{
    compute_user_index_seed, select_with_user_index, select_with_user_index_seeded,
};
use maxbrstknn::mbrstk_core::{BatchOutcome, EngineCluster, Mutation, Phase};
use maxbrstknn::prelude::*;
use maxbrstknn::storage::IoStats;

/// A seeded 1K-object workload; `cached` controls the threshold cache.
fn workload(cached: bool) -> (Engine, Vec<QuerySpec>) {
    let objects = generate_objects(&CorpusConfig::flickr_like(1_000));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 50,
            area: 8.0,
            uw: 12,
            ul: 3,
            num_locations: 10,
            seed: 99,
        },
    );
    let mut engine =
        Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 8).with_user_index();
    if cached {
        engine = engine.with_threshold_cache();
    }
    // Same k throughout — the serving scenario the cache targets.
    let specs: Vec<QuerySpec> = (0..6)
        .map(|i| {
            let mut locations = wl.candidate_locations.clone();
            let shift = i % locations.len();
            locations.rotate_left(shift);
            locations.truncate(4);
            QuerySpec {
                ox_doc: Document::new(),
                locations,
                keywords: wl.candidate_keywords.clone(),
                ws: 2,
                k: 5,
            }
        })
        .collect();
    (engine, specs)
}

/// Acceptance criterion: with the threshold cache enabled, the second
/// same-`k` query's top-k phase charges zero simulated I/O. For the
/// baseline and joint strategies the top-k phase is their *only* source
/// of I/O, so the whole second query is free. The user-index strategies
/// charge only the MIUR nodes no earlier query under the same seed
/// expanded: nothing for a repeat, at most a cold seeded selection's reads
/// for a new location window.
#[test]
fn second_same_k_query_charges_zero_topk_io() {
    let (engine, specs) = workload(true);
    for method in [
        Method::Baseline,
        Method::JointGreedy,
        Method::JointGreedyPlus,
        Method::JointExact,
    ] {
        engine.io.reset();
        let _ = engine.query(&specs[0], method); // fills the (method, k) slot
        let first = engine.io.snapshot();
        let _ = engine.query(&specs[1], method); // same k, different locations
        let delta = engine.io.snapshot() - first;
        assert_eq!(
            delta.total(),
            0,
            "{method:?}: second same-k query charged {delta:?}"
        );
    }
    let miur = engine.miur.as_ref().unwrap();
    for (method, selector) in [
        (Method::UserIndexGreedy, KeywordSelector::Greedy),
        (Method::UserIndexExact, KeywordSelector::Exact),
    ] {
        // Same spec twice: the seed slot holds the root super-user, the MIR
        // traversal and every MIUR node the first query materialized, so
        // the second query charges nothing. The seed slot is
        // selector-independent, so clear it between methods to measure
        // each fill.
        engine.thresholds.as_ref().unwrap().clear();
        engine.io.reset();
        let _ = engine.query(&specs[0], method);
        let first_total = engine.io.total();
        assert!(first_total > 0, "{method:?}: the fill charges");
        let _ = engine.query(&specs[0], method);
        let second_total = engine.io.total() - first_total;
        assert_eq!(
            second_total, 0,
            "{method:?}: a repeat re-read memoized nodes"
        );

        // A new location window reads at most the nodes a cold seeded
        // selection of it reads: memoized ones are free.
        let cold_io = IoStats::new();
        let fresh = compute_user_index_seed(miur, &engine.mir, specs[1].k, &engine.ctx, &cold_io);
        let before = cold_io.total();
        let _ =
            select_with_user_index_seeded(miur, &specs[1], &engine.ctx, selector, &cold_io, &fresh);
        let cold_selection = cold_io.total() - before;
        let before = engine.io.total();
        let _ = engine.query(&specs[1], method);
        let warm_selection = engine.io.total() - before;
        assert!(
            warm_selection <= cold_selection,
            "{method:?}: new window charged {warm_selection}, a cold seeded selection {cold_selection}"
        );
    }
}

/// An uncached engine over `objects` flickr-like objects and the first
/// `users` of `users + 20` generated users (fanout 4, `model`, `codec`),
/// the generated candidate locations and keywords, and the other 20 users,
/// returned for inserting.
fn instance(
    model: WeightModel,
    codec: CodecId,
    objects: usize,
    users: usize,
) -> (Engine, Vec<Point>, Vec<TermId>, Vec<UserData>) {
    let objects = generate_objects(&CorpusConfig::flickr_like(objects));
    let mut wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: users + 20,
            area: 8.0,
            uw: 10,
            ul: 3,
            num_locations: 16,
            seed: 7,
        },
    );
    let spare = wl.users.split_off(users);
    let engine =
        Engine::build_with_fanout_codec(objects, wl.users, model, 0.5, 4, codec).with_user_index();
    (engine, wl.candidate_locations, wl.candidate_keywords, spare)
}

/// The query over location window `w` (`2 + w % 3` locations from `2w`)
/// at `k`.
fn window_spec(locs: &[Point], keywords: &[TermId], w: usize, k: usize) -> QuerySpec {
    QuerySpec {
        ox_doc: Document::new(),
        locations: (0..2 + w % 3)
            .map(|i| locs[(2 * w + i) % locs.len()])
            .collect(),
        keywords: keywords.to_vec(),
        ws: 2,
        k,
    }
}

/// A deeper user index than [`workload`]'s (380 users, fanout 4; 20 more
/// users returned for inserting) and 24 specs: eight sliding location
/// windows, each at k ∈ {1, 3, 10}.
fn memo_workload(cached: bool) -> (Engine, Vec<QuerySpec>, Vec<UserData>) {
    let (mut engine, locs, keywords, spare) =
        instance(WeightModel::lm(), CodecId::Verbatim, 400, 380);
    if cached {
        engine = engine.with_threshold_cache();
    }
    let specs = (0..8)
        .flat_map(|w| [1, 3, 10].map(|k| window_spec(&locs, &keywords, w, k)))
        .collect();
    (engine, specs, spare)
}

/// Answer and pruning statistics of one §7 selection.
type Outcome = (QueryResult, usize, usize);

const SELECTORS: [KeywordSelector; 2] = [KeywordSelector::Greedy, KeywordSelector::Exact];

/// Through the seed the engine serves (the threshold cache's, when one is
/// attached).
fn seeded(engine: &Engine, spec: &QuerySpec, selector: KeywordSelector) -> Outcome {
    let seed = engine.user_index_seed(spec.k);
    let miur = engine.miur.as_ref().unwrap();
    let o = select_with_user_index_seeded(miur, spec, &engine.ctx, selector, &engine.io, &seed);
    (o.result, o.users_scored, o.users_pruned)
}

/// Through a seed built for this one query (the uncached path).
fn uncached(engine: &Engine, spec: &QuerySpec, selector: KeywordSelector) -> Outcome {
    let miur = engine.miur.as_ref().unwrap();
    let o = select_with_user_index(miur, &engine.mir, spec, &engine.ctx, selector, &engine.io);
    (o.result, o.users_scored, o.users_pruned)
}

fn uncached_all(engine: &Engine, specs: &[QuerySpec]) -> Vec<Outcome> {
    SELECTORS
        .iter()
        .flat_map(|&sel| specs.iter().map(move |s| uncached(engine, s, sel)))
        .collect()
}

/// Every selector × spec through `cached`'s seeds, twice (the second pass
/// all memo hits), and through `Engine::query`, held to `want`.
fn assert_memo_matches(cached: &Engine, specs: &[QuerySpec], want: &[Outcome], label: &str) {
    for pass in 0..2 {
        let got = SELECTORS
            .iter()
            .flat_map(|&sel| specs.iter().map(move |s| (sel, s)));
        for (i, ((sel, spec), want)) in got.zip(want).enumerate() {
            let o = seeded(cached, spec, sel);
            assert_eq!(
                &o, want,
                "{label} pass {pass}, {sel:?} spec {i} (k={})",
                spec.k
            );
            assert_eq!(
                o.1 + o.2,
                cached.users.len(),
                "{label}: a stale seed's user count"
            );
            let method = match sel {
                KeywordSelector::Exact => Method::UserIndexExact,
                _ => Method::UserIndexGreedy,
            };
            assert_eq!(
                cached.query(spec, method),
                o.0,
                "{label}: pipeline vs seeded"
            );
        }
    }
}

/// The seed's node memo changes no answer and no pruning statistic: one
/// threshold-cached engine answers 24 specs of eight location windows and
/// three `k`s, in an order that leaves every window to find some nodes
/// materialized by another, exactly as a seed built per query does.
#[test]
fn node_memo_is_bit_identical_to_per_query_seeds() {
    let (cold, specs, _) = memo_workload(false);
    let (cached, _, _) = memo_workload(true);
    let want = uncached_all(&cold, &specs);
    assert!(
        want.iter().any(|o| o.2 > 0) && want.iter().any(|o| o.0.brstknn.len() > 1),
        "the workload must prune users and find non-trivial answers"
    );
    assert_memo_matches(&cached, &specs, &want, "sequential");
}

/// Eight threads sharing each `k`'s seed race to materialize the same
/// nodes; every answer and statistic is still the per-query seed's.
#[test]
fn node_memo_is_bit_identical_under_eight_threads() {
    let (cold, specs, _) = memo_workload(false);
    let (cached, _, _) = memo_workload(true);
    let want = uncached_all(&cold, &specs);
    let jobs: Vec<(KeywordSelector, usize)> = SELECTORS
        .iter()
        .flat_map(|&sel| (0..specs.len()).map(move |i| (sel, i)))
        .collect();
    std::thread::scope(|s| {
        for t in 0..8 {
            let (cached, specs, want, jobs) = (&cached, &specs, &want, &jobs);
            s.spawn(move || {
                // Each thread walks every job from its own offset.
                for j in (0..jobs.len()).map(|j| (j + 7 * t) % jobs.len()) {
                    let (sel, i) = jobs[j];
                    assert_eq!(
                        seeded(cached, &specs[i], sel),
                        want[j],
                        "thread {t} job {j}"
                    );
                }
            });
        }
    });
}

/// No materialized node survives an epoch: after a user mutation and then
/// an object mutation, a warm cached engine answers like an uncached twin
/// that received the same mutations.
#[test]
fn node_memo_does_not_survive_a_mutation() {
    let (mut cold, specs, spare) = memo_workload(false);
    let (mut cached, _, _) = memo_workload(true);
    // One `k` is enough here: every window of it warms the memo first.
    let specs: Vec<QuerySpec> = specs.into_iter().filter(|s| s.k == 1).collect();
    let mut before = uncached_all(&cold, &specs);
    assert_memo_matches(&cached, &specs, &before, "warm-up");

    let moved = |cold: &Engine, before: &mut Vec<Outcome>, label: &str| {
        let after = uncached_all(cold, specs.as_slice());
        assert_ne!(
            &after, before,
            "{label}: the mutation must move some outcome"
        );
        *before = after;
    };

    let user = spare[0].clone();
    assert!(cold.insert_user(user.clone()).is_some());
    assert!(cached.insert_user(user).is_some());
    moved(&cold, &mut before, "user insert");
    assert_memo_matches(&cached, &specs, &before, "after a user insert");

    // An object on top of a user the first `k = 1` answer wins, with that
    // user's keywords: it becomes the user's best object and raises its
    // `RSk(u)`.
    let won = before[0].0.brstknn[0];
    let user = cold.users.iter().find(|u| u.id == won).unwrap();
    let object = ObjectData {
        id: 1_000_000,
        point: user.point,
        doc: user.doc.clone(),
    };
    assert!(cold.insert_object(object.clone()).is_some());
    assert!(cached.insert_object(object).is_some());
    moved(&cold, &mut before, "object insert");
    assert_memo_matches(&cached, &specs, &before, "after an object insert");
}

/// With both caches enabled, every method still returns exactly what a
/// cold engine returns, and the exact methods still agree with the
/// baseline on the optimum cardinality.
#[test]
fn all_six_methods_agree_with_caches_enabled() {
    let (cold, specs) = workload(false);
    let (cached, _) = workload(true);
    let cached = cached.with_page_cache(1 << 15);
    for method in Method::ALL {
        for (i, spec) in specs.iter().enumerate() {
            let want = cold.query(spec, method);
            let got = cached.query(spec, method);
            assert_eq!(got, want, "{method:?} query {i} diverged under caches");
        }
    }
    // Exact methods agree with the baseline optimum, caches and all.
    for spec in &specs {
        let b = cached.query(spec, Method::Baseline).cardinality();
        let e = cached.query(spec, Method::JointExact).cardinality();
        let u = cached.query(spec, Method::UserIndexExact).cardinality();
        assert_eq!(b, e);
        assert_eq!(e, u);
    }
}

/// The cache is per-`k`: a different `k` recomputes (and charges) the
/// top-k phase once, then serves it for free again.
#[test]
fn distinct_k_fill_distinct_slots() {
    let (engine, specs) = workload(true);
    let spec_k5 = specs[0].clone();
    let spec_k7 = QuerySpec {
        k: 7,
        ..specs[1].clone()
    };

    engine.io.reset();
    let _ = engine.query(&spec_k5, Method::JointExact);
    let after_k5 = engine.io.total();
    assert!(after_k5 > 0);

    let _ = engine.query(&spec_k7, Method::JointExact);
    let after_k7 = engine.io.total();
    assert!(after_k7 > after_k5, "new k must charge its own top-k fill");

    let before = engine.io.total();
    let _ = engine.query(&spec_k5, Method::JointExact);
    let _ = engine.query(&spec_k7, Method::JointExact);
    assert_eq!(engine.io.total(), before, "both slots now serve for free");
}

/// `ThresholdCache::clear` drops the entries: the next query recomputes.
#[test]
fn clear_invalidates_cached_thresholds() {
    let (engine, specs) = workload(true);
    let _ = engine.query(&specs[0], Method::JointExact);
    engine.io.reset();
    engine.thresholds.as_ref().unwrap().clear();
    let _ = engine.query(&specs[0], Method::JointExact);
    assert!(engine.io.total() > 0, "cleared cache must recompute");
}

/// Concurrent same-k batch workers share one fill: the engine's total I/O
/// for a cached batch equals a single cold query's top-k I/O plus the
/// location-dependent remainder — in particular, far less than N cold
/// queries.
#[test]
fn batched_same_k_queries_pay_topk_once() {
    let (cold, specs) = workload(false);
    cold.io.reset();
    let _ = cold.query_batch_threads(&specs, Method::JointExact, 4);
    let cold_total = cold.io.total();

    let (cached, _) = workload(true);
    cached.io.reset();
    let outcomes = cached.query_batch_threads(&specs, Method::JointExact, 4);
    let cached_total = cached.io.total();

    // Joint strategies charge only in the top-k phase → a same-k cached
    // batch charges exactly one cold query's worth.
    assert_eq!(cached_total * specs.len() as u64, cold_total);
    // And the per-query deltas still sum to the engine total.
    let summed: u64 = outcomes.iter().map(|o| o.stats.io.total()).sum();
    assert_eq!(summed, cached_total);
}

/// [`instance`] under `model` and `codec` with three specs: windows 0, 1
/// and 2 at `k` = 1, 3 and 10.
fn model_workload(
    model: WeightModel,
    codec: CodecId,
    objects: usize,
    users: usize,
) -> (Engine, Vec<QuerySpec>, Vec<UserData>) {
    let (engine, locs, keywords, spare) = instance(model, codec, objects, users);
    let specs = [(0, 1), (1, 3), (2, 10)]
        .map(|(w, k)| window_spec(&locs, &keywords, w, k))
        .to_vec();
    (engine, specs, spare)
}

fn models() -> [WeightModel; 3] {
    [
        WeightModel::KeywordOverlap,
        WeightModel::TfIdf,
        WeightModel::lm(),
    ]
}

/// One query on one thread, with its measured cost.
fn run(engine: &Engine, spec: &QuerySpec, method: Method) -> BatchOutcome {
    let mut out = engine.query_batch_threads(std::slice::from_ref(spec), method, 1);
    out.pop().unwrap()
}

/// The I/O of reading the MIUR root once.
fn root_read_io(engine: &Engine) -> u64 {
    let miur = engine.miur.as_ref().unwrap();
    let io = IoStats::new();
    let _ = miur.read_node_ref(miur.root(), &io, &mut Default::default());
    io.total()
}

/// One top-k traversal per `(k, epoch)`: on a cached engine the §7 seed
/// borrows the joint slot. Under LM, TF-IDF and KO, both codecs, on a
/// fused engine and on one split in three user slices, for every spec:
/// - a §7 query after a joint query at the same `k` charges, in its top-k
///   phase, only the MIUR root read (no object-tree I/O), and in all
///   exactly what the §7-first order charges minus the joint fill — so
///   everything it reads besides the shared fill is MIUR nodes;
/// - a joint query after a §7 fill charges nothing;
/// - every answer equals an uncached engine's bit for bit (location,
///   keywords, `brstknn` in order);
/// - a §7 fill makes one joint-slot lookup, and the cache counts it: a
///   §7-first pair misses twice (seed, joint) and hits once (the joint
///   query), a joint-first pair misses twice and hits once (the seed's
///   lookup).
#[test]
fn user_index_seed_borrows_the_joint_slot() {
    let mut checked = 0;
    for model in models() {
        for codec in CodecId::ALL {
            let (uncached, specs, _) = model_workload(model, codec, 200, 180);
            let want: Vec<_> = specs
                .iter()
                .map(|s| {
                    let ui = uncached.query(s, Method::UserIndexGreedy);
                    (ui, uncached.query(s, Method::JointGreedy))
                })
                .collect();
            let fused = uncached.clone().with_threshold_cache();
            let cluster = EngineCluster::from_engine(uncached.clone(), 3);
            for (engine, sliced) in [(&fused, false), (cluster.head(), true)] {
                let root_io = root_read_io(engine);
                let tc = engine.thresholds.as_ref().unwrap();
                for (i, (spec, (want_ui, want_joint))) in specs.iter().zip(&want).enumerate() {
                    let what = format!("{model:?} {codec:?} sliced={sliced} spec {i}");
                    let counts = || (tc.hits(), tc.misses());
                    tc.clear();
                    let before = counts();
                    let joint = run(engine, spec, Method::JointGreedy);
                    let after_joint = run(engine, spec, Method::UserIndexGreedy);
                    let mid = counts();
                    assert_eq!((mid.0 - before.0, mid.1 - before.1), (1, 2), "{what}");

                    tc.clear();
                    let first = run(engine, spec, Method::UserIndexGreedy);
                    let joint_after = run(engine, spec, Method::JointGreedy);
                    let after = counts();
                    assert_eq!((after.0 - mid.0, after.1 - mid.1), (1, 2), "{what}");

                    let topk = after_joint.stats.phases.get(Phase::TopK).io;
                    assert_eq!(topk.total(), root_io, "{what}: §7 top-k phase");
                    assert_eq!(
                        after_joint.stats.io.total() + joint.stats.io.total(),
                        first.stats.io.total(),
                        "{what}: §7 reads besides the joint fill"
                    );
                    assert!(joint.stats.io.total() > 0, "{what}");
                    assert_eq!(joint_after.stats.io.total(), 0, "{what}: joint after §7");

                    assert_eq!(&after_joint.result, want_ui, "{what}: §7 after joint");
                    assert_eq!(&first.result, want_ui, "{what}: §7 first");
                    assert_eq!(&joint.result, want_joint, "{what}");
                    assert_eq!(&joint_after.result, want_joint, "{what}");
                    checked += usize::from(want_ui.brstknn.len() > 1);
                }
            }
        }
    }
    assert!(checked >= 24, "coverage: {checked} non-trivial §7 answers");
}

/// `group_from_root`'s summary and the user table's super-user, field for
/// field (`max_terms` aside: an MIUR entry does not record it).
fn same_group(a: &UserGroup, b: &UserGroup) -> bool {
    let bits = |g: &UserGroup| (g.n_min.to_bits(), g.n_max.to_bits(), g.count);
    a.mbr == b.mbr && a.d_uni == b.d_uni && a.d_int == b.d_int && bits(a) == bits(b)
}

/// The edge case of a borrowed seed: user writes edit the MIUR-tree in
/// place, so its root's summary could drift from the user table's
/// super-user the joint slot was traversed for. A seeded churn of user
/// inserts and removes and object inserts and removes (LM, TF-IDF and
/// KO; Verbatim and Columnar) runs on a cached engine and an uncached
/// twin. After every write the cached engine's §7 answers — its seed
/// borrows the joint slot — equal the twin's bit for bit and a cold
/// build's objective (a cold build's MIUR-tree has another shape, which
/// may break objective ties in another order); the states where the
/// root's summary and `Engine::super_user` differ, and where the answer
/// differs from a cold build's bit for bit, are counted and printed.
#[test]
fn borrowed_seed_answers_hold_across_user_and_object_churn() {
    let (mut writes, mut diverged, mut cold_ties) = ([0; 4], 0, 0);
    for (case, model) in models().into_iter().enumerate() {
        let codec = CodecId::ALL[case % 2];
        let (mut twin, specs, spare) = model_workload(model, codec, 120, 100);
        let mut cached = twin.clone().with_threshold_cache();
        let mut rng = StdRng::seed_from_u64(17 + case as u64);
        let (mut spare, mut next_object) = (spare.into_iter(), 1_000_000);
        for step in 0..12 {
            let what = format!("{model:?} {codec:?} write {step}");
            let kind = rng.gen_range(0..4);
            let mutation = match kind {
                0 => Mutation::InsertUser(spare.next().unwrap()),
                1 => Mutation::RemoveUser(twin.users[rng.gen_range(0..twin.users.len())].id),
                // A new object on a donor's point (inside the build's
                // hull) with another donor's document.
                2 => {
                    let n = twin.objects.len();
                    let (at, doc) = (&twin.objects[rng.gen_range(0..n)], rng.gen_range(0..n));
                    next_object += 1;
                    Mutation::InsertObject(ObjectData {
                        id: next_object,
                        point: at.point,
                        doc: twin.objects[doc].doc.clone(),
                    })
                }
                _ => Mutation::RemoveObject(twin.objects[rng.gen_range(0..twin.objects.len())].id),
            };
            assert!(twin.apply_batch([mutation.clone()]).applied == 1, "{what}");
            assert!(cached.apply_batch([mutation]).applied == 1, "{what}");
            writes[kind] += 1;
            let cold = Engine::build_with_fanout_codec(
                twin.objects.clone(),
                twin.users.clone(),
                model,
                0.5,
                4,
                codec,
            )
            .with_user_index();
            let mut differs = false;
            for spec in &specs {
                let got = cached.query(spec, Method::UserIndexGreedy);
                assert_eq!(got, twin.query(spec, Method::UserIndexGreedy), "{what}");
                let want = cold.query(spec, Method::UserIndexGreedy);
                assert_eq!(got.cardinality(), want.cardinality(), "{what}: cold build");
                cold_ties += usize::from(got != want);
                let seed = cached.user_index_seed(spec.k);
                differs |= !same_group(&seed.root_group, &cached.super_user());
            }
            diverged += usize::from(differs);
        }
    }
    println!(
        "writes (user insert, user remove, object insert, object remove) {writes:?}: \
         {diverged} of 36 states' MIUR root differs from the super-user, {cold_ties} of 108 \
         answers differ from a cold build's bit for bit"
    );
    assert!(writes.iter().all(|&w| w >= 4), "coverage: {writes:?}");
}

//! The serving-cache subsystem end to end: the cross-query threshold
//! cache eliminates repeat top-k simulated I/O without changing any
//! answer, alone or combined with the sharded page cache.

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::select::location::KeywordSelector;
use maxbrstknn::mbrstk_core::user_index::{
    compute_user_index_seed, select_with_user_index, select_with_user_index_seeded,
};
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

/// A deeper user index than [`workload`]'s (380 users, fanout 4; 20 more
/// users returned for inserting) and 24 specs: eight sliding location
/// windows, each at k ∈ {1, 3, 10}.
fn memo_workload(cached: bool) -> (Engine, Vec<QuerySpec>, Vec<UserData>) {
    let objects = generate_objects(&CorpusConfig::flickr_like(400));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 400,
            area: 8.0,
            uw: 10,
            ul: 3,
            num_locations: 16,
            seed: 7,
        },
    );
    let (users, spare) = wl.users.split_at(380);
    let mut engine = Engine::build_with_fanout(objects, users.to_vec(), WeightModel::lm(), 0.5, 4)
        .with_user_index();
    if cached {
        engine = engine.with_threshold_cache();
    }
    let locs = &wl.candidate_locations;
    let specs = (0..8)
        .flat_map(|w| [1, 3, 10].map(|k| (w, k)))
        .map(|(w, k)| QuerySpec {
            ox_doc: Document::new(),
            locations: (0..2 + w % 3)
                .map(|i| locs[(2 * w + i) % locs.len()])
                .collect(),
            keywords: wl.candidate_keywords.clone(),
            ws: 2,
            k,
        })
        .collect();
    (engine, specs, spare.to_vec())
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

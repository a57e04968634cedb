//! The two-tier incremental refresh (`mbrstk_core::refresh::incremental`)
//! under a differential refresh-equivalence harness.
//!
//! Acceptance criteria pinned here:
//!
//! (a) **Differential bit-identity** — for every weight model (LM,
//!     TF-IDF, KO) and for both a drift-heavy and a uniform churn
//!     stream, `Engine::refreshed_incremental()` answers every one of
//!     the six [`Method`]s bit-identically to `Engine::refreshed()` *and*
//!     to a cold build over the survivors — cold caches and warm (each
//!     engine queried twice with threshold + page caches attached; the
//!     warm pass must reproduce the cold one).
//! (b) **Sublinear refresh I/O** — once churn is term-local (replacement
//!     pairs confined to <10% of the vocabulary,
//!     [`datagen::ChurnConfig::term_local`]), incremental refresh I/O is
//!     strictly below full-refresh I/O, and the incremental/full ratio
//!     *shrinks* as |O| grows at fixed drift — the I/O is proportional
//!     to the drifted part of the corpus, not to its size.
//! (c) **Ledger sanity** — the drift ledger names only the genuinely
//!     drifted terms (a bounded fraction under term-local churn), and
//!     the refresh re-weighs only documents touching them.
//!
//! Scale knobs (CI uses reduced settings): `MBRSTK_INCR_OPS` churn
//! operations per differential round (default 120).

use maxbrstknn::datagen::{generate_churn, ChurnConfig, ChurnOp};
use maxbrstknn::mbrstk_core::{Mutation, RefreshConfig, RefreshTier, ServingEngine};
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

/// A jittered-grid collection over `vocab` rotating terms plus one shared
/// term `t(vocab)` (so every user overlaps every query).
fn seed_data(n_objects: u32, n_users: u32, vocab: u32) -> (Vec<ObjectData>, Vec<UserData>) {
    let objects: Vec<ObjectData> = (0..n_objects)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(
                (i % 16) as f64 + 0.13 * ((i / 16) % 7) as f64,
                (i / 16) as f64 + 0.17 * (i % 5) as f64,
            ),
            doc: Document::from_pairs([(t(i % vocab), 1 + i % 3), (t(vocab), 1)]),
        })
        .collect();
    let users: Vec<UserData> = (0..n_users)
        .map(|i| UserData {
            id: i,
            point: Point::new((i % 12) as f64 + 0.4, (i % 9) as f64 + 0.3),
            doc: Document::from_terms([t(i % vocab), t(vocab)]),
        })
        .collect();
    (objects, users)
}

fn build(objects: Vec<ObjectData>, users: Vec<UserData>, model: WeightModel) -> Engine {
    build_codec(objects, users, model, CodecId::default())
}

fn build_codec(
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

fn specs(vocab: u32) -> Vec<QuerySpec> {
    [2usize, 3]
        .into_iter()
        .map(|k| QuerySpec {
            ox_doc: Document::from_terms([t(vocab)]),
            locations: vec![
                Point::new(2.1, 1.4),
                Point::new(9.8, 4.2),
                Point::new(5.4, 7.9),
            ],
            keywords: (0..5).map(t).collect(),
            ws: 2,
            k,
        })
        .collect()
}

/// Sorted copy of a result's user set (the §7 pipeline reports members in
/// tree-shape-dependent expansion order; membership is what Definition 1
/// fixes — and the incremental tier deliberately preserves the mutated
/// tree's shape while the full tier bulk-loads a fresh one).
fn sorted_users(r: &QueryResult) -> Vec<u32> {
    let mut ids = r.brstknn.clone();
    ids.sort_unstable();
    ids
}

/// Normalized answer for comparison across engines with different index
/// shapes.
fn canonical(r: &QueryResult) -> (usize, Vec<TermId>, Vec<u32>) {
    (r.location, r.keywords.clone(), sorted_users(r))
}

/// Queries `engines` twice (cold caches, then warm) on every spec and
/// method and asserts equivalence across passes and engines.
///
/// The four table-driven methods (baseline and the three joint
/// strategies) are deterministic in the tables alone, so their whole
/// payload must be bit-identical everywhere. The two §7 methods break
/// objective *ties* by MIUR expansion order, which is index-shape
/// dependent — and the incremental tier deliberately preserves the
/// mutated tree's shape while a cold rebuild re-tiles it — so across
/// engines they must agree on the objective (the cardinality Definition
/// 1 fixes, compared bit-exactly against the exact joint optimum), while
/// within one engine the warm pass must reproduce the cold payload
/// bit-for-bit.
fn assert_engines_equivalent(label: &str, vocab: u32, engines: &[(&str, &Engine)]) {
    for spec in specs(vocab) {
        for m in Method::ALL {
            let exact_cardinality = engines[0].1.query(&spec, Method::JointExact).cardinality();
            let mut reference: Option<(usize, Vec<TermId>, Vec<u32>)> = None;
            for (name, engine) in engines {
                let cold_pass = canonical(&engine.query(&spec, m));
                let warm_pass = canonical(&engine.query(&spec, m));
                assert_eq!(
                    cold_pass, warm_pass,
                    "{label}: {name} warm pass diverged on {m:?} k={}",
                    spec.k
                );
                match m {
                    Method::UserIndexGreedy | Method::UserIndexExact => {
                        // Shape-dependent tie-breaking: pin the objective.
                        if m == Method::UserIndexExact {
                            assert_eq!(
                                cold_pass.2.len(),
                                exact_cardinality,
                                "{label}: {name} missed the optimum on {m:?} k={}",
                                spec.k
                            );
                        } else {
                            assert!(
                                cold_pass.2.len() <= exact_cardinality,
                                "{label}: {name} overshot the optimum on {m:?} k={}",
                                spec.k
                            );
                        }
                        let engines_agree = reference.get_or_insert_with(|| cold_pass.clone());
                        assert_eq!(
                            cold_pass.2.len(),
                            engines_agree.2.len(),
                            "{label}: {name} cardinality diverged on {m:?} k={}",
                            spec.k
                        );
                    }
                    _ => match &reference {
                        None => reference = Some(cold_pass),
                        Some(want) => assert_eq!(
                            &cold_pass, want,
                            "{label}: {name} diverged on {m:?} k={}",
                            spec.k
                        ),
                    },
                }
            }
        }
    }
}

fn apply_stream(engine: &mut Engine, stream: Vec<ChurnOp>) -> usize {
    let report = engine.apply_batch(stream.into_iter().filter_map(|op| match op {
        ChurnOp::Mutate(m) => Some(m),
        ChurnOp::Query => None,
    }));
    assert_eq!(report.rejected, 0, "generated streams are self-consistent");
    report.applied
}

/// Acceptance (a): the differential harness. Incremental ≡ full ≡ cold,
/// for all six methods, warm and cold, across drift-heavy and uniform
/// streams and all three weight models.
#[test]
fn incremental_refresh_is_bit_identical_to_full_and_cold() {
    let ops = env_usize("MBRSTK_INCR_OPS", 120);
    const VOCAB: u32 = 6;
    let pool: Vec<TermId> = (0..=VOCAB).map(t).collect();

    for model in [
        WeightModel::lm(),
        WeightModel::TfIdf,
        WeightModel::KeywordOverlap,
    ] {
        for (stream_name, cfg) in [
            ("drift-heavy", ChurnConfig::drift_heavy(ops).with_seed(901)),
            ("uniform", ChurnConfig::new(ops, 1.0).with_seed(902)),
        ] {
            let (objects, users) = seed_data(160, 24, VOCAB);
            let mut churned = build(objects.clone(), users.clone(), model);
            let stream = generate_churn(&objects, &users, &pool, &cfg);
            let applied = apply_stream(&mut churned, stream);
            assert!(applied > 0);

            let (inc, report) = churned.refreshed_incremental();
            let full = churned.refreshed();
            let cold = build(churned.objects.clone(), churned.users.clone(), model);
            // A cold build under the Columnar codec: cross-engine equality
            // below then also proves cross-codec bit-identity on the
            // refresh path.
            let cold_col = build_codec(
                churned.objects.clone(),
                churned.users.clone(),
                model,
                CodecId::Columnar,
            );
            let label = format!("{} / {stream_name}", model.short_name());

            // The incremental engine is drift-free, reset, and dense —
            // exactly like the full tier.
            assert_eq!(report.tier, RefreshTier::Incremental);
            assert_eq!(inc.drift().max_rel_error, 0.0, "{label}");
            assert_eq!(inc.mutations_since_refresh(), 0, "{label}");
            assert_eq!(inc.freed_record_slots(), 0, "{label}");
            assert_eq!(inc.epoch(), full.epoch(), "{label}");
            assert!(report.reclaimed_records > 0, "{label}: churn left slots");
            assert_eq!(
                report.reweighed_docs + report.reweighed_users,
                {
                    let (_, again) = churned.refreshed_incremental();
                    again.reweighed_docs + again.reweighed_users
                },
                "{label}: the refresh is deterministic"
            );

            assert_engines_equivalent(
                &label,
                VOCAB,
                &[
                    ("incremental", &inc),
                    ("full", &full),
                    ("cold", &cold),
                    ("cold-columnar", &cold_col),
                ],
            );
        }
    }
}

/// The refresh seed captures the engine's codec (not the environment),
/// so refreshing a Columnar engine yields a Columnar engine on both
/// tiers.
#[test]
fn refresh_preserves_engine_codec() {
    let (objects, users) = seed_data(48, 8, 4);
    let eng = build_codec(objects, users, WeightModel::lm(), CodecId::Columnar);
    assert_eq!(eng.refreshed().codec(), CodecId::Columnar);
    let (inc, _) = eng.refreshed_incremental();
    assert_eq!(inc.codec(), CodecId::Columnar);
}

/// How many objects carry the churned ("hot") pool terms in the
/// sublinearity rounds — a *constant*, independent of |O|, modeling
/// skewed churn against a hot subset of a growing corpus.
const HOT_DOCS: u32 = 24;

/// A single-term corpus over `vocab` rotating terms: the first
/// [`HOT_DOCS`] objects draw from the 3-term churn pool, the rest from
/// the remaining vocabulary — so term-local churn touches a fixed number
/// of documents no matter how large the corpus grows.
fn single_term_data(n_objects: u32, vocab: u32) -> (Vec<ObjectData>, Vec<UserData>) {
    let objects: Vec<ObjectData> = (0..n_objects)
        .map(|i| ObjectData {
            id: i,
            point: Point::new(
                (i % 24) as f64 + 0.19 * (i % 3) as f64,
                (i / 24) as f64 + 0.23 * (i % 7) as f64,
            ),
            doc: Document::from_pairs([(
                if i < HOT_DOCS {
                    t(i % 3)
                } else {
                    t(3 + i % (vocab - 3))
                },
                1 + i % 2,
            )]),
        })
        .collect();
    let users: Vec<UserData> = (0..10u32)
        .map(|i| UserData {
            id: i,
            // Users 0..3 touch the pool (exercising the MIUR splice);
            // the rest stay clear of it.
            point: Point::new((i % 8) as f64 + 0.5, (i % 6) as f64 + 0.4),
            doc: Document::from_terms([t(i % 3 + if i < 3 { 0 } else { 3 }), t(20 + i % 3)]),
        })
        .collect();
    (objects, users)
}

/// Runs term-local churn over `pool` against a TF-IDF engine of
/// `n_objects` and returns (drifted fraction, incremental I/O, full I/O,
/// reweighed docs, |O|).
fn term_local_round(n_objects: u32, vocab: u32, ops: usize) -> (f64, u64, u64, u64, usize) {
    let (objects, users) = single_term_data(n_objects, vocab);
    let pool: Vec<TermId> = (0..3).map(t).collect(); // 3 of `vocab` terms
    let mut eng =
        Engine::build_with_fanout(objects.clone(), users.clone(), WeightModel::TfIdf, ALPHA, 8)
            .with_user_index();
    let stream = generate_churn(
        &objects,
        &users,
        &pool,
        &ChurnConfig::term_local(ops).with_seed(77),
    );
    apply_stream(&mut eng, stream);

    let ledger = eng.drift_ledger();
    assert!(
        !ledger.drifted_terms.is_empty(),
        "replacement churn must register drift"
    );
    assert!(
        ledger.drifted_terms.iter().all(|term| pool.contains(term)),
        "replacement churn keeps |O| and |C| constant, so only pool terms drift: {:?}",
        ledger.drifted_terms
    );

    let (inc, report) = eng.refreshed_incremental();
    assert_eq!(report.tier, RefreshTier::Incremental);
    let full_io = {
        let full = eng.refreshed();
        full.rebuild_io_cost()
    };
    // Spot-check exactness on one probe.
    let spec = QuerySpec {
        ox_doc: Document::new(),
        locations: vec![Point::new(3.3, 2.2), Point::new(12.5, 6.1)],
        keywords: (0..5).map(t).collect(),
        ws: 2,
        k: 3,
    };
    let cold = Engine::build_with_fanout(
        eng.objects.clone(),
        eng.users.clone(),
        WeightModel::TfIdf,
        ALPHA,
        8,
    )
    .with_user_index();
    assert_eq!(
        inc.query(&spec, Method::JointExact),
        cold.query(&spec, Method::JointExact),
        "|O|={n_objects}: incremental refresh must stay exact"
    );

    (
        ledger.drifted_fraction(),
        report.refresh_io,
        full_io,
        report.reweighed_docs,
        eng.objects.len(),
    )
}

/// Acceptance (b) + (c): with drift confined to <10% of the vocabulary,
/// incremental refresh I/O is strictly below the full tier's, and the
/// incremental/full ratio shrinks as the corpus grows at fixed drift —
/// the sublinearity claim.
#[test]
fn term_local_drift_makes_incremental_io_sublinear() {
    const VOCAB: u32 = 40;
    let ops = env_usize("MBRSTK_INCR_OPS", 120).min(60);

    let (frac_small, inc_small, full_small, reweighed_small, n_small) =
        term_local_round(960, VOCAB, ops);
    let (frac_big, inc_big, full_big, reweighed_big, n_big) = term_local_round(3840, VOCAB, ops);

    // (c) the ledger stays confined: <10% of the vocabulary drifted.
    assert!(
        frac_small < 0.1 && frac_big < 0.1,
        "drift must stay term-local: {frac_small} / {frac_big}"
    );
    // Only documents touching the pool were re-weighed — the constant
    // hot set (plus nothing), no matter the corpus size.
    assert!(
        reweighed_small <= u64::from(HOT_DOCS),
        "re-weighed {reweighed_small} of {n_small}"
    );
    assert!(
        reweighed_big <= u64::from(HOT_DOCS),
        "re-weighed {reweighed_big} of {n_big}"
    );

    // (b) strictly below the full tier at both sizes ...
    assert!(
        inc_small < full_small,
        "incremental {inc_small} must beat full {full_small}"
    );
    assert!(
        inc_big < full_big,
        "incremental {inc_big} must beat full {full_big}"
    );
    // ... and the advantage grows with the corpus: at fixed term-local
    // drift the incremental cost tracks the affected paths, not |O|.
    let ratio_small = inc_small as f64 / full_small as f64;
    let ratio_big = inc_big as f64 / full_big as f64;
    assert!(
        ratio_big < ratio_small,
        "sublinearity: ratio must shrink with |O| ({ratio_small:.3} -> {ratio_big:.3})"
    );
}

/// `refresh_now` picks the tier on the drifted *fraction* of the
/// vocabulary. One LM object insert moves `|C|` and with it every term's
/// basis, so the incremental tier would re-weigh the whole corpus: the full
/// tier runs, although the largest relative `wmax` error — what the tier
/// was once chosen on — stays far below the threshold. Term-local
/// replacement churn keeps the incremental tier.
#[test]
fn refresh_now_picks_the_tier_on_the_drifted_fraction() {
    let threshold = RefreshConfig::default().full_refresh_drift;

    let (objects, users) = seed_data(160, 24, 6);
    let serving = ServingEngine::new(build(objects, users, WeightModel::lm()));
    let insert = Mutation::InsertObject(ObjectData {
        id: 10_000,
        point: Point::new(3.3, 2.2),
        doc: Document::from_pairs([(t(0), 2), (t(6), 1)]),
    });
    assert!(serving.apply(insert).is_some());
    let ledger = serving.snapshot().drift_ledger();
    assert!(
        ledger.drifted_fraction() > 0.9 && ledger.drift.max_rel_error < threshold,
        "one LM insert: drifted fraction {}, max relative error {}",
        ledger.drifted_fraction(),
        ledger.drift.max_rel_error
    );
    assert_eq!(serving.refresh_now().tier, RefreshTier::Full);

    let (objects, users) = single_term_data(960, 40);
    let pool: Vec<TermId> = (0..3).map(t).collect();
    let stream = generate_churn(
        &objects,
        &users,
        &pool,
        &ChurnConfig::term_local(60).with_seed(77),
    );
    let mut eng =
        Engine::build_with_fanout(objects, users, WeightModel::TfIdf, ALPHA, 8).with_user_index();
    apply_stream(&mut eng, stream);
    let serving = ServingEngine::new(eng);
    assert!(serving.snapshot().drift_ledger().drifted_fraction() < threshold);
    assert_eq!(serving.refresh_now().tier, RefreshTier::Incremental);
}

//! The incremental refresh tier: re-weigh only what drifted, splice the
//! rest.
//!
//! [`Engine::refreshed`] certifies: it re-weighs every document and
//! bulk-loads every index from scratch — O(|O| log |O|) work even when a
//! churn burst moved the statistics of a handful of terms. This module
//! disseminates: it exploits the fact that corpus statistics reach a
//! stored weight only through a per-term channel
//! ([`WeightModel::corpus_basis`]) to bound the refresh to the drifted
//! part of the corpus.
//!
//! 1. **Drift ledger** — [`Engine::drift_ledger`] compares the frozen
//!    scorer against a freshly computed live one *per term*: the basis
//!    (`idf` / `cf/|C|`) that feeds document weights and the maximum
//!    `wmax(t)` that feeds user normalizers. Terms whose relative error
//!    exceeds [`RefreshConfig::term_drift_bound`] are *drifted*; a
//!    reverse walk over the live tables collects the documents and users
//!    touching them (plus any document whose insert-time clamp fired —
//!    its stored weights are stale regardless of drift).
//! 2. **Partial re-weigh** — [`Engine::refreshed_incremental`] re-weighs
//!    exactly the affected documents under the live statistics, re-norms
//!    the affected users, and splices the new values into twins of the
//!    MIR/IR/MIUR trees ([`StTree::splice_reweighed`] /
//!    `MiurTree::splice_reweighed`): only root-to-leaf paths containing
//!    an affected entry are rewritten; every untouched subtree's records
//!    are copied verbatim at zero simulated I/O. Freed placeholder slots
//!    are reclaimed on the way, exactly as the full tier does.
//! 3. **Exactness** — with the default bound `0.0`, "drifted" means
//!    *changed at all*, so every stored weight left in place is bitwise
//!    equal to what a full re-weigh would compute: the incremental
//!    engine is bit-identical to [`Engine::refreshed`] (pinned for all
//!    six query methods by `tests/incremental_refresh.rs`). Positive
//!    bounds tolerate within-bound stale weights for even less I/O; the
//!    refreshed `wmax` is floored at the frozen values
//!    ([`text::TextScorer::raise_max_weight`]) so every pruning bound
//!    keeps dominating every weight left in the index.
//!
//! The cost model is the point: refresh I/O is proportional to the
//! number of affected root-to-leaf paths — sublinear in |O| whenever
//! drift is term-local — instead of the full index footprint.
//!
//! [`RefreshConfig::term_drift_bound`]: super::RefreshConfig::term_drift_bound
//! [`WeightModel::corpus_basis`]: text::WeightModel::corpus_basis
//! [`StTree::splice_reweighed`]: index::StTree::splice_reweighed

use std::collections::{HashMap, HashSet};

use geo::{Rect, SpatialContext};
use index::SpliceReport;
use storage::IoStats;
use text::{CorpusStats, TermId, TextScorer, WeightedDoc};

use super::{RefreshReport, RefreshTier, ScorerDrift};
use crate::cache::ThresholdCache;
use crate::{Engine, ScoreContext};

/// The per-term drift ledger: which terms moved, and what they touch.
///
/// Produced by [`Engine::drift_ledger`]; consumed by
/// [`Engine::refreshed_incremental`] and the bench layer (which charts
/// refresh I/O against the drifted fraction of the vocabulary).
#[derive(Debug, Clone)]
pub struct DriftLedger {
    /// The aggregate drift metric (identical to [`Engine::drift`]).
    pub drift: ScorerDrift,
    /// The relative bound a term had to exceed to enter
    /// [`DriftLedger::drifted_terms`].
    pub term_drift_bound: f64,
    /// Terms whose statistics moved past the bound: the relative error
    /// of the weight basis ([`text::WeightModel::corpus_basis`]) *or* of
    /// the per-term maximum `wmax(t)`, whichever is larger.
    pub drifted_terms: Vec<TermId>,
    /// Objects whose stored weights may be stale: every object touching
    /// a drifted term, plus every object whose insert-time clamp to the
    /// frozen `wmax` fired (its stored weights were never the frozen
    /// model's to begin with).
    pub reweigh_objects: Vec<u32>,
    /// Users touching a drifted term (their normalizer `N(u)` sums the
    /// per-term maxima, so only `wmax` movement can age it).
    pub reweigh_users: Vec<u32>,
    /// Terms that moved but stayed *within* the bound (`0 < rel ≤
    /// bound`; always 0 at the exact bound). Documents touching only
    /// these terms are spliced without re-weighing — the tolerated
    /// staleness a bounded refresh leaves in the index.
    pub within_bound_terms: usize,
}

impl DriftLedger {
    /// Drifted terms as a fraction of the compared vocabulary, in
    /// `[0, 1]` (0 when nothing was compared).
    pub fn drifted_fraction(&self) -> f64 {
        if self.drift.terms_compared == 0 {
            return 0.0;
        }
        self.drifted_terms.len() as f64 / self.drift.terms_compared as f64
    }
}

/// A freshly computed scorer over the live object documents — the target
/// model both refresh tiers converge to.
fn live_scorer(engine: &Engine) -> TextScorer {
    let stats = CorpusStats::build(engine.objects.iter().map(|o| &o.doc));
    TextScorer::build(
        engine.ctx.text.model(),
        stats,
        engine.objects.iter().map(|o| &o.doc),
    )
}

/// The stored weight vector of one object under the frozen scorer: what
/// build time wrote, and what [`Engine::insert_object`] wrote after
/// clamping to the frozen `wmax` (a no-op for build-time documents,
/// whose weights defined the maxima).
fn stored_weights(frozen: &TextScorer, doc: &text::Document) -> WeightedDoc {
    WeightedDoc::from_pairs(
        frozen
            .weigh(doc)
            .entries
            .iter()
            .map(|&(t, w)| (t, w.min(frozen.max_weight(t))))
            .collect(),
    )
}

/// One pass over the vocabulary and the live tables: the drift metric,
/// the drifted-term set, and the touched documents/users.
fn ledger_scan(engine: &Engine, live: &TextScorer, bound: f64) -> DriftLedger {
    let frozen = &engine.ctx.text;
    let model = frozen.model();
    let vocab = frozen.stats().vocab_len().max(live.stats().vocab_len());

    let rel = |f: f64, l: f64| -> f64 {
        let denom = f.max(l);
        if denom <= 0.0 {
            0.0
        } else {
            (f - l).abs() / denom
        }
    };

    let mut drifted: HashSet<TermId> = HashSet::new();
    let (mut max_rel, mut sum, mut compared) = (0.0f64, 0.0f64, 0usize);
    let mut within_bound_terms = 0usize;
    for i in 0..vocab {
        let t = TermId(i as u32);
        let f_max = frozen.max_weight(t);
        let l_max = live.max_weight(t);
        // The aggregate metric stays the wmax comparison of
        // `Engine::drift` (every pruning bound consumes wmax), counting
        // only terms with weight mass on either side.
        if f_max.max(l_max) > 0.0 {
            let r = rel(f_max, l_max);
            max_rel = max_rel.max(r);
            sum += r;
            compared += 1;
        }
        // A term is *drifted* when either channel moved past the bound:
        // the weight basis ages stored document weights, the maximum
        // ages user normalizers.
        let basis_rel = rel(
            model.corpus_basis(t, frozen.stats()),
            model.corpus_basis(t, live.stats()),
        );
        let combined = rel(f_max, l_max).max(basis_rel);
        if combined > bound {
            drifted.insert(t);
        } else if combined > 0.0 {
            within_bound_terms += 1;
        }
    }

    // The table walks only matter for a finite bound — with `bound =
    // ∞` (the plain `Engine::drift` metric) nothing can drift, so the
    // candidate sets are empty by construction.
    let mut reweigh_objects = Vec::new();
    let mut reweigh_users = Vec::new();
    if bound.is_finite() {
        for o in &engine.objects {
            let touches = o.doc.terms().any(|t| drifted.contains(&t));
            // The clamp check catches inserted outliers whose stored
            // weight is the frozen cap, not the frozen model — stale
            // even when none of their terms drifted.
            let clamped = || {
                o.doc.entries().iter().any(|&(t, tf)| {
                    model.weight(t, tf, o.doc.len(), frozen.stats()) > frozen.max_weight(t)
                })
            };
            if touches || clamped() {
                reweigh_objects.push(o.id);
            }
        }
        reweigh_users = engine
            .users
            .iter()
            .filter(|u| u.doc.terms().any(|t| drifted.contains(&t)))
            .map(|u| u.id)
            .collect();
    }

    let mut drifted_terms: Vec<TermId> = drifted.into_iter().collect();
    drifted_terms.sort_unstable();

    DriftLedger {
        drift: ScorerDrift {
            object_mutations: engine.obj_muts_since_refresh,
            user_mutations: engine.user_muts_since_refresh,
            max_rel_error: max_rel,
            mean_rel_error: if compared > 0 {
                sum / compared as f64
            } else {
                0.0
            },
            terms_compared: compared,
        },
        term_drift_bound: bound,
        drifted_terms,
        reweigh_objects,
        reweigh_users,
        within_bound_terms,
    }
}

impl Engine {
    /// [`Engine::drift`] extended into the per-term ledger the
    /// incremental refresh consumes: the set of terms whose statistics
    /// moved past `term_drift_bound` (relative, in `[0, 1]`; `0.0` means
    /// "changed at all") and the documents/users touching them. One
    /// O(|O| + vocab) scan, no tree work, no simulated I/O. An infinite
    /// bound degenerates to the plain [`Engine::drift`] metric (empty
    /// term and candidate sets).
    pub fn drift_ledger(&self, term_drift_bound: f64) -> DriftLedger {
        self.drift_parts(term_drift_bound).1
    }

    /// The live scorer and its ledger in one scan (the serving layer's
    /// tier decision reuses both, so the O(|O|) work is paid once).
    pub(crate) fn drift_parts(&self, term_drift_bound: f64) -> (TextScorer, DriftLedger) {
        let live = live_scorer(self);
        let ledger = ledger_scan(self, &live, term_drift_bound);
        (live, ledger)
    }

    /// True when a previous *bounded* incremental refresh left
    /// within-bound stale weights in the index. The refresh that spliced
    /// them also advanced the frozen scorer past them, so no later drift
    /// ledger can see them — the next refresh must be a full re-weigh to
    /// certify again, and both [`Engine::refreshed_incremental`] and the
    /// serving tier selection escalate accordingly.
    pub fn has_stale_weights(&self) -> bool {
        self.stale_weights
    }

    /// The incremental twin of [`Engine::refreshed`] at the exact bound
    /// (`term_drift_bound = 0.0`): answers are bit-identical to a full
    /// refresh — and to a cold build over the live tables — but the
    /// refresh I/O is proportional to the drifted part of the corpus.
    /// Returns the re-weighed engine together with its
    /// [`RefreshReport`].
    pub fn refreshed_incremental(&self) -> (Engine, RefreshReport) {
        self.refreshed_incremental_bounded(0.0)
    }

    /// [`Engine::refreshed_incremental`] with an explicit per-term drift
    /// bound. Positive bounds splice documents whose terms drifted by at
    /// most the bound *without* re-weighing them: cheaper still, exact
    /// under a blended model whose `wmax` is floored at the frozen
    /// values so pruning stays sound over the retained weights. The
    /// tolerated staleness is remembered ([`Engine::has_stale_weights`])
    /// and the *next* refresh escalates to the full tier — the ledger
    /// compares against the frozen scorer, which a bounded refresh
    /// advances past the weights it spliced, so only a full re-weigh can
    /// repair them.
    pub fn refreshed_incremental_bounded(&self, term_drift_bound: f64) -> (Engine, RefreshReport) {
        let (live, ledger) = self.drift_parts(term_drift_bound);
        self.refreshed_incremental_from(live, ledger)
    }

    /// The splice half of [`Engine::refreshed_incremental_bounded`],
    /// taking an already-computed live scorer and ledger (so the serving
    /// layer's tier decision and the refresh share one scan).
    pub(crate) fn refreshed_incremental_from(
        &self,
        mut live: TextScorer,
        ledger: DriftLedger,
    ) -> (Engine, RefreshReport) {
        if self.stale_weights {
            // Residual staleness from an earlier bounded refresh is
            // invisible to the ledger: escalate to the full tier.
            let fresh = self.refreshed();
            let report = RefreshReport {
                epoch: fresh.epoch,
                reclaimed_records: self.freed_record_slots(),
                replayed: 0,
                tier: RefreshTier::Full,
                reweighed_docs: fresh.objects.len() as u64,
                reweighed_users: fresh.users.len() as u64,
                spliced_records: 0,
                refresh_io: fresh.rebuild_io_cost(),
            };
            return (fresh, report);
        }
        let frozen = &self.ctx.text;
        let term_drift_bound = ledger.term_drift_bound;

        // Soundness floor for spliced stale weights: a non-drifted term
        // keeps (within the bound) its old stored weights, which were
        // bounded by the *frozen* wmax — the refreshed scorer must not
        // report a smaller maximum. Exact mode never fires this (a
        // non-drifted term's maxima are bitwise equal).
        let drifted: HashSet<TermId> = ledger.drifted_terms.iter().copied().collect();
        let vocab = frozen.stats().vocab_len().max(live.stats().vocab_len());
        for i in 0..vocab {
            let t = TermId(i as u32);
            if !drifted.contains(&t) {
                let floor = frozen.max_weight(t);
                if floor > live.max_weight(t) {
                    live.raise_max_weight(t, floor);
                }
            }
        }

        // Re-weigh exactly the affected entries, skipping no-op rewrites
        // (a candidate whose recomputed values are bitwise unchanged
        // splices like everything else).
        let object_candidates: HashSet<u32> = ledger.reweigh_objects.iter().copied().collect();
        let mut new_weights: HashMap<u32, WeightedDoc> = HashMap::new();
        for o in &self.objects {
            if !object_candidates.contains(&o.id) {
                continue;
            }
            let fresh = live.weigh(&o.doc);
            if stored_weights(frozen, &o.doc) != fresh {
                new_weights.insert(o.id, fresh);
            }
        }
        let user_candidates: HashSet<u32> = ledger.reweigh_users.iter().copied().collect();
        let mut new_norms: HashMap<u32, f64> = HashMap::new();
        for u in &self.users {
            if !user_candidates.contains(&u.id) {
                continue;
            }
            let fresh = live.normalizer(&u.doc);
            if frozen.normalizer(&u.doc) != fresh {
                new_norms.insert(u.id, fresh);
            }
        }

        // Splice the three indexes: affected paths rewritten, the rest
        // carried verbatim into fresh dense block files.
        let mut splice = SpliceReport::default();
        let (mir, rep) = self.mir.splice_reweighed(&new_weights);
        splice.absorb(rep);
        let (ir, rep) = self.ir.splice_reweighed(&new_weights);
        splice.absorb(rep);
        let miur = self.miur.as_ref().map(|m| {
            let (tree, rep) = m.splice_reweighed(&new_norms);
            splice.absorb(rep);
            tree
        });

        // The dataspace hull ages with churn exactly like the scorer;
        // recompute it the way a cold build would (an O(|O|+|U|) scan —
        // the hull is not disk-resident, so this charges nothing).
        let space = Rect::bounding(
            self.objects
                .iter()
                .map(|o| o.point)
                .chain(self.users.iter().map(|u| u.point)),
        )
        .expect("non-empty dataset");
        let spatial = SpatialContext::from_dataspace(&space);

        let fresh = Engine {
            ctx: ScoreContext::new(self.ctx.alpha, spatial, live),
            objects: self.objects.clone(),
            users: self.users.clone(),
            mir,
            ir,
            miur,
            // Serving configuration survives with fresh (cold) caches,
            // exactly like the full tier: no page or threshold state can
            // leak across a scorer change.
            io: match self.io.cache() {
                Some(c) => IoStats::with_cache_sharded(c.capacity_blocks(), c.num_shards()),
                None => IoStats::new(),
            },
            thresholds: self
                .thresholds
                .as_ref()
                .map(|tc| ThresholdCache::with_capacity(tc.k_capacity())),
            // Strictly monotone epochs across the swap, as in the full
            // tier.
            epoch: self.epoch + 1,
            user_epoch: self.user_epoch + 1,
            obj_muts_since_refresh: 0,
            user_muts_since_refresh: 0,
            // Telemetry is swap-stable: the spliced engine keeps recording
            // into the same registry (see `Engine::metrics`).
            metrics: std::sync::Arc::clone(&self.metrics),
            // A bounded refresh that tolerated any within-bound movement
            // leaves stale weights behind that this very refresh makes
            // invisible (the frozen scorer advances to `live`): remember
            // it, so the next refresh escalates to a full re-weigh.
            stale_weights: term_drift_bound > 0.0 && ledger.within_bound_terms > 0,
        };

        let report = RefreshReport {
            epoch: fresh.epoch,
            reclaimed_records: self.freed_record_slots(),
            replayed: 0,
            tier: RefreshTier::Incremental,
            reweighed_docs: new_weights.len() as u64,
            reweighed_users: new_norms.len() as u64,
            spliced_records: splice.spliced_records,
            refresh_io: splice.io_total(),
        };
        (fresh, report)
    }

    /// In-place [`Engine::refreshed_incremental`]: replaces this engine
    /// with its incrementally re-weighed twin and resets the
    /// mutations-since-refresh counters. Single-threaded convenience —
    /// concurrent serving goes through
    /// [`ServingEngine`](super::ServingEngine), whose worker picks the
    /// tier from measured drift.
    pub fn refresh_incremental(&mut self) -> RefreshReport {
        let (fresh, report) = self.refreshed_incremental();
        *self = fresh;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, ObjectData, QuerySpec, UserData};
    use geo::Point;
    use text::{Document, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn obj(id: u32, x: f64, y: f64, term: u32) -> ObjectData {
        ObjectData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn user(id: u32, x: f64, y: f64, term: u32) -> UserData {
        UserData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn engine(model: WeightModel) -> Engine {
        let objects: Vec<ObjectData> = (0..40)
            .map(|i| obj(i, (i % 8) as f64, (i / 8) as f64, i % 4))
            .collect();
        let users: Vec<UserData> = (0..10)
            .map(|i| user(i, (i % 6) as f64 + 0.4, (i % 4) as f64 + 0.3, i % 4))
            .collect();
        Engine::build_with_fanout(objects, users, model, 0.5, 4).with_user_index()
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            ox_doc: Document::from_terms([t(9)]),
            locations: vec![Point::new(2.0, 1.5), Point::new(6.0, 3.0)],
            keywords: vec![t(0), t(1), t(2), t(3)],
            ws: 2,
            k: 3,
        }
    }

    #[test]
    fn fresh_engine_has_an_empty_ledger() {
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            let eng = engine(model);
            let ledger = eng.drift_ledger(0.0);
            assert!(ledger.drifted_terms.is_empty(), "{model:?}");
            assert!(ledger.reweigh_objects.is_empty(), "{model:?}");
            assert!(ledger.reweigh_users.is_empty(), "{model:?}");
            assert_eq!(ledger.drifted_fraction(), 0.0);
            assert_eq!(ledger.drift.max_rel_error, eng.drift().max_rel_error);
        }
    }

    /// Flooding one term registers it (and everything it touches) in the
    /// ledger; the shared term 9 drifts alongside under LM because the
    /// background estimate renormalizes over |C|.
    #[test]
    fn ledger_tracks_flooded_terms_and_their_documents() {
        let mut eng = engine(WeightModel::lm());
        for i in 0..6 {
            eng.insert_object(ObjectData {
                id: 200 + i,
                point: Point::new((i % 5) as f64 + 0.2, 2.1),
                doc: Document::from_pairs([(t(0), 4)]),
            })
            .unwrap();
        }
        let ledger = eng.drift_ledger(0.0);
        assert!(ledger.drifted_terms.contains(&t(0)));
        assert!(!ledger.drifted_terms.is_empty());
        // Every inserted flooder touches t0 and must be re-weighed.
        for i in 0..6 {
            assert!(ledger.reweigh_objects.contains(&(200 + i)));
        }
        // |C| moved, so every LM term drifts and every user (all touch
        // t9) is a re-norm candidate.
        assert_eq!(ledger.reweigh_users.len(), 10);
        assert!(ledger.drifted_fraction() > 0.0);
    }

    /// The exact incremental refresh is bit-identical to the full tier
    /// (same queries, zero residual drift, counters reset, placeholders
    /// reclaimed) while reporting what it spliced.
    #[test]
    fn incremental_matches_full_refresh_bit_for_bit() {
        for model in [WeightModel::lm(), WeightModel::TfIdf] {
            let mut eng = engine(model)
                .with_threshold_cache()
                .with_page_cache(1 << 12);
            for i in 0..10 {
                eng.insert_object(ObjectData {
                    id: 300 + i,
                    point: Point::new((i % 5) as f64 + 0.3, 2.4),
                    doc: Document::from_pairs([(t(0), 3), (t(9), 1)]),
                })
                .unwrap();
                eng.remove_object(i).unwrap();
            }
            eng.insert_user(user(50, 3.0, 2.0, 2)).unwrap();
            assert!(eng.freed_record_slots() > 0);

            let full = eng.refreshed();
            let (inc, report) = eng.refreshed_incremental();
            assert_eq!(report.tier, RefreshTier::Incremental);
            assert_eq!(report.epoch, eng.epoch() + 1);
            assert!(report.reclaimed_records > 0);
            assert_eq!(inc.epoch(), full.epoch());
            assert_eq!(inc.drift().max_rel_error, 0.0, "{model:?}");
            assert_eq!(inc.mutations_since_refresh(), 0);
            assert_eq!(inc.freed_record_slots(), 0);
            assert!(inc.thresholds.is_some() && inc.io.cache().is_some());

            let s = spec();
            for m in Method::ALL {
                let a = inc.query(&s, m);
                let b = full.query(&s, m);
                // The §7 methods break objective ties by MIUR expansion
                // order, which follows the index shape — and the whole
                // point of the incremental tier is to keep the mutated
                // shape while the full tier re-tiles. Pin the Definition-1
                // objective for them, the full payload for the rest.
                assert_eq!(a.cardinality(), b.cardinality(), "{model:?} {m:?}");
                if !matches!(m, Method::UserIndexGreedy | Method::UserIndexExact) {
                    assert_eq!(a.location, b.location, "{model:?} {m:?}");
                    assert_eq!(a.keywords, b.keywords, "{model:?} {m:?}");
                }
            }
            assert_eq!(
                inc.query(&s, Method::JointExact),
                full.query(&s, Method::JointExact),
                "{model:?}"
            );
        }
    }

    /// Corpus-independent weights (KO) never drift: the incremental tier
    /// degenerates to a pure splice — zero refresh I/O, nothing
    /// re-weighed — while the full tier would have rewritten everything.
    #[test]
    fn keyword_overlap_refreshes_for_free() {
        let mut eng = engine(WeightModel::KeywordOverlap);
        for i in 0..8 {
            eng.insert_object(obj(400 + i, (i % 5) as f64 + 0.1, 3.2, i % 4))
                .unwrap();
            eng.remove_object(i).unwrap();
        }
        let (inc, report) = eng.refreshed_incremental();
        assert_eq!(report.reweighed_docs, 0);
        assert_eq!(report.reweighed_users, 0);
        assert_eq!(report.refresh_io, 0, "pure splice charges nothing");
        assert!(report.spliced_records > 0);
        let full = eng.refreshed();
        assert!(
            full.rebuild_io_cost() > 0,
            "the full tier would write the whole footprint"
        );
        let s = spec();
        assert_eq!(
            inc.query(&s, Method::JointExact),
            full.query(&s, Method::JointExact)
        );
    }

    /// A positive bound splices within-bound drift: less I/O than the
    /// exact mode, internally consistent answers (the floored wmax keeps
    /// every exact method agreeing on the optimum).
    #[test]
    fn bounded_mode_trades_exactness_for_io() {
        let mut eng = engine(WeightModel::lm());
        for i in 0..6 {
            eng.insert_object(ObjectData {
                id: 500 + i,
                point: Point::new((i % 5) as f64 + 0.15, 1.9),
                doc: Document::from_pairs([(t(0), 5), (t(9), 1)]),
            })
            .unwrap();
        }
        let (exact, exact_report) = eng.refreshed_incremental();
        assert!(
            !exact.has_stale_weights(),
            "the exact bound leaves nothing stale"
        );
        let (loose, loose_report) = eng.refreshed_incremental_bounded(0.9);
        assert!(
            loose_report.reweighed_docs <= exact_report.reweighed_docs,
            "a loose bound cannot re-weigh more"
        );
        assert!(loose_report.refresh_io <= exact_report.refresh_io);
        let s = spec();
        let b = loose.query(&s, Method::Baseline);
        let e = loose.query(&s, Method::JointExact);
        let u = loose.query(&s, Method::UserIndexExact);
        assert_eq!(b.cardinality(), e.cardinality());
        assert_eq!(e.cardinality(), u.cardinality());

        // The bounded refresh advanced the frozen scorer past the stale
        // weights it spliced: the engine remembers, because measured
        // drift alone can no longer identify them (what remains visible
        // is only the within-bound wmax floor, far below any plausible
        // full-refresh threshold), and the next incremental refresh
        // escalates to a full re-weigh that certifies again.
        assert!(
            loose.has_stale_weights(),
            "within-bound splices must be remembered"
        );
        assert!(
            loose.drift().max_rel_error <= 0.9,
            "residual drift stays within the tolerated bound"
        );
        let (repaired, repair_report) = loose.refreshed_incremental();
        assert_eq!(
            repair_report.tier,
            RefreshTier::Full,
            "stale engines must escalate"
        );
        assert!(!repaired.has_stale_weights());
        let cold = Engine::build_with_fanout(
            repaired.objects.clone(),
            repaired.users.clone(),
            WeightModel::lm(),
            0.5,
            4,
        )
        .with_user_index();
        assert_eq!(
            repaired.query(&s, Method::JointExact),
            cold.query(&s, Method::JointExact),
            "the escalated full tier restores cold-build equivalence"
        );
    }

    /// The in-place wrapper mirrors `Engine::refresh` semantics.
    #[test]
    fn refresh_incremental_in_place() {
        let mut eng = engine(WeightModel::lm());
        for i in 0..5 {
            eng.insert_object(ObjectData {
                id: 600 + i,
                point: Point::new(1.0 + f64::from(i) * 0.3, 2.8),
                doc: Document::from_pairs([(t(1), 3), (t(9), 1)]),
            })
            .unwrap();
        }
        let before = eng.epoch();
        let report = eng.refresh_incremental();
        assert_eq!(report.epoch, eng.epoch());
        assert!(eng.epoch() > before);
        assert_eq!(eng.drift().max_rel_error, 0.0);
        assert_eq!(eng.mutations_since_refresh(), 0);
    }
}

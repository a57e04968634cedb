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
//!    `wmax(t)` that feeds user normalizers. Terms on which either
//!    changed at all are *drifted*; a reverse walk over the live tables
//!    collects the documents and users touching them (plus any document
//!    whose insert-time clamp fired — its stored weights are stale
//!    regardless of drift).
//! 2. **Partial re-weigh** — [`Engine::refreshed_incremental`] re-weighs
//!    exactly the affected documents under the live statistics, re-norms
//!    the affected users, and splices the new values into twins of the
//!    MIR/IR/MIUR trees ([`StTree::splice_reweighed`] /
//!    `MiurTree::splice_reweighed`): only root-to-leaf paths containing
//!    an affected entry are rewritten; every untouched subtree's records
//!    are copied verbatim at zero simulated I/O. Freed placeholder slots
//!    are reclaimed on the way, exactly as the full tier does.
//! 3. **Exactness** — "drifted" means *changed at all*, so every stored
//!    weight left in place is bitwise equal to what a full re-weigh would
//!    compute: the incremental engine is bit-identical to
//!    [`Engine::refreshed`] (pinned for all six query methods by
//!    `tests/incremental_refresh.rs`).
//!
//! The cost model is the point: refresh I/O is proportional to the
//! number of affected root-to-leaf paths — sublinear in |O| whenever
//! drift is term-local — instead of the full index footprint.
//!
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
/// [`Engine::refreshed_incremental`].
#[derive(Debug, Clone)]
pub struct DriftLedger {
    /// The aggregate drift metric (identical to [`Engine::drift`]).
    pub drift: ScorerDrift,
    /// Terms whose statistics changed at all: the weight basis
    /// ([`text::WeightModel::corpus_basis`]) *or* the per-term maximum
    /// `wmax(t)`.
    pub drifted_terms: Vec<TermId>,
    /// Objects whose stored weights may be stale: every object touching
    /// a drifted term, plus every object whose insert-time clamp to the
    /// frozen `wmax` fired (its stored weights were never the frozen
    /// model's to begin with).
    pub reweigh_objects: Vec<u32>,
    /// Users touching a drifted term (their normalizer `N(u)` sums the
    /// per-term maxima, so only `wmax` movement can age it).
    pub reweigh_users: Vec<u32>,
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
pub(super) fn live_scorer(engine: &Engine) -> TextScorer {
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

/// Relative error of a frozen value against its live twin, in `[0, 1]`.
fn rel_error(f: f64, l: f64) -> f64 {
    let denom = f.max(l);
    if denom <= 0.0 {
        0.0
    } else {
        (f - l).abs() / denom
    }
}

fn vocab_len(frozen: &TextScorer, live: &TextScorer) -> usize {
    frozen.stats().vocab_len().max(live.stats().vocab_len())
}

/// The aggregate drift metric: one pass over the vocabulary comparing the
/// per-term maxima (every pruning bound consumes `wmax`), counting only
/// terms with weight mass on either side. No table walk — this is what
/// [`Engine::drift`] runs beside live traffic.
pub(super) fn wmax_drift(engine: &Engine, live: &TextScorer) -> ScorerDrift {
    let frozen = &engine.ctx.text;
    let (mut max_rel, mut sum, mut compared) = (0.0f64, 0.0f64, 0usize);
    for i in 0..vocab_len(frozen, live) {
        let t = TermId(i as u32);
        let (f_max, l_max) = (frozen.max_weight(t), live.max_weight(t));
        if f_max.max(l_max) > 0.0 {
            let r = rel_error(f_max, l_max);
            max_rel = max_rel.max(r);
            sum += r;
            compared += 1;
        }
    }
    ScorerDrift {
        object_mutations: engine.obj_muts_since_refresh,
        user_mutations: engine.user_muts_since_refresh,
        max_rel_error: max_rel,
        mean_rel_error: if compared > 0 {
            sum / compared as f64
        } else {
            0.0
        },
        terms_compared: compared,
    }
}

/// The drift metric, the drifted-term set, and one walk over each live
/// table for the documents/users touching it.
fn ledger_scan(engine: &Engine, live: &TextScorer) -> DriftLedger {
    let frozen = &engine.ctx.text;
    let model = frozen.model();

    // A term is *drifted* when either channel moved: the weight basis
    // ages stored document weights, the maximum ages user normalizers.
    let drifted: HashSet<TermId> = (0..vocab_len(frozen, live))
        .map(|i| TermId(i as u32))
        .filter(|&t| {
            let basis = |s: &TextScorer| model.corpus_basis(t, s.stats());
            rel_error(frozen.max_weight(t), live.max_weight(t)) > 0.0
                || rel_error(basis(frozen), basis(live)) > 0.0
        })
        .collect();

    let mut reweigh_objects = Vec::new();
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
    let reweigh_users = engine
        .users
        .iter()
        .filter(|u| u.doc.terms().any(|t| drifted.contains(&t)))
        .map(|u| u.id)
        .collect();

    let mut drifted_terms: Vec<TermId> = drifted.into_iter().collect();
    drifted_terms.sort_unstable();

    DriftLedger {
        drift: wmax_drift(engine, live),
        drifted_terms,
        reweigh_objects,
        reweigh_users,
    }
}

impl Engine {
    /// [`Engine::drift`] extended into the per-term ledger the
    /// incremental refresh consumes: the set of terms whose statistics
    /// changed at all and the documents/users touching them. One
    /// O(|O| + vocab) scan, no tree work, no simulated I/O.
    pub fn drift_ledger(&self) -> DriftLedger {
        self.drift_parts().1
    }

    /// The live scorer and its ledger in one scan (the serving layer's
    /// tier decision reuses both, so the O(|O|) work is paid once).
    pub(crate) fn drift_parts(&self) -> (TextScorer, DriftLedger) {
        let live = live_scorer(self);
        let ledger = ledger_scan(self, &live);
        (live, ledger)
    }

    /// The incremental twin of [`Engine::refreshed`]: answers are
    /// bit-identical to a full refresh — and to a cold build over the live
    /// tables — but the refresh I/O is proportional to the drifted part of
    /// the corpus. Returns the re-weighed engine together with its
    /// [`RefreshReport`].
    pub fn refreshed_incremental(&self) -> (Engine, RefreshReport) {
        let (live, ledger) = self.drift_parts();
        self.refreshed_incremental_from(live, ledger)
    }

    /// The splice half of [`Engine::refreshed_incremental`], taking an
    /// already-computed live scorer and ledger (so the serving layer's
    /// tier decision and the refresh share one scan).
    pub(crate) fn refreshed_incremental_from(
        &self,
        live: TextScorer,
        ledger: DriftLedger,
    ) -> (Engine, RefreshReport) {
        let frozen = &self.ctx.text;

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
            let ledger = eng.drift_ledger();
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
        let ledger = eng.drift_ledger();
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

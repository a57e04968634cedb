//! The three text relevance measures of §3 behind one uniform scorer.

use std::sync::OnceLock;

use crate::{CorpusStats, Document, TermId, WeightedDoc};

/// Default Jelinek–Mercer smoothing parameter.
///
/// Zhai & Lafferty (the paper's ref. 23) recommend values near 0.1–0.7 for
/// keyword-style queries; 0.3 is a common middle ground for short queries.
pub const DEFAULT_LM_LAMBDA: f64 = 0.3;

/// A per-term weight model, `w(t, d)` in the uniform `TS` form
/// (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightModel {
    /// `w = tf(t,d) · idf(t,O)` (§3, TF-IDF).
    TfIdf,
    /// `w = (1−λ)·tf/|d| + λ·cf(t)/|C|` for present terms (Eq. 3).
    ///
    /// Absent terms weigh 0, matching the paper's relevance precondition
    /// that an object is relevant only when it *contains* a user term.
    LanguageModel {
        /// Jelinek–Mercer smoothing weight `λ ∈ [0,1)`.
        lambda: f64,
    },
    /// `w = 1` for present terms (Keyword Overlap; `TS = |u.d∩o.d|/|u.d|`).
    KeywordOverlap,
}

impl WeightModel {
    /// The paper's language model with [`DEFAULT_LM_LAMBDA`].
    pub fn lm() -> Self {
        WeightModel::LanguageModel {
            lambda: DEFAULT_LM_LAMBDA,
        }
    }

    /// The document-only half `x` of a term occurring `tf` times in a
    /// document of token length `doc_len` (0 when `tf == 0`): `tf` under
    /// TF-IDF, `(1−λ)·tf/|d|` under LM, 1 under KO. No corpus statistic
    /// enters it, so an index that stores `x` never goes stale.
    pub fn doc_part(&self, tf: u32, doc_len: u64) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        match *self {
            WeightModel::TfIdf => f64::from(tf),
            WeightModel::LanguageModel { lambda } => {
                debug_assert!(doc_len > 0);
                (1.0 - lambda) * f64::from(tf) / doc_len as f64
            }
            WeightModel::KeywordOverlap => 1.0,
        }
    }

    /// The statistics half of `w`: `w(t, d) = a·x + b` for every `x > 0`,
    /// with `(a, b)` = `(idf(t), 0)` under TF-IDF, `(1, λ·cf(t)/|C|)` under
    /// LM and `(1, 0)` under KO. `a ≥ 0`, so the map is non-decreasing and
    /// commutes with the maxima and minima an index aggregates; and it
    /// rounds exactly like the undivided formula (`x·idf`, `x + λ·bg`).
    pub fn affine(&self, t: TermId, stats: &CorpusStats) -> (f64, f64) {
        match *self {
            WeightModel::TfIdf => (stats.idf(t), 0.0),
            WeightModel::LanguageModel { lambda } => (1.0, lambda * stats.background(t)),
            WeightModel::KeywordOverlap => (1.0, 0.0),
        }
    }

    /// Weight of a term occurring `tf` times in a document of token length
    /// `doc_len`. Zero when `tf == 0`.
    pub fn weight(&self, t: TermId, tf: u32, doc_len: u64, stats: &CorpusStats) -> f64 {
        apply(self.affine(t, stats), self.doc_part(tf, doc_len))
    }

    /// Short display name used by the benchmark harness ("LM", "TF", "KO").
    pub fn short_name(&self) -> &'static str {
        match self {
            WeightModel::TfIdf => "TF",
            WeightModel::LanguageModel { .. } => "LM",
            WeightModel::KeywordOverlap => "KO",
        }
    }
}

/// `a·x + b` for a present term, 0 for an absent one (`x == 0`: the
/// minimum of a subtree some document of which lacks the term).
#[inline]
fn apply((a, b): (f64, f64), x: f64) -> f64 {
    if x > 0.0 {
        a * x + b
    } else {
        0.0
    }
}

/// Evaluates the normalized text relevance `TS` for one corpus and model.
///
/// ```text
/// TS(o.d, u.d) = Σ_{t∈u.d} w(t, o.d) / N(u),   N(u) = Σ_{t∈u.d} wmax(t)
/// ```
///
/// `wmax(t)` is the per-term maximum weight over all object documents *and*
/// over any keyword-set candidate document — a document holding `t` once
/// with total length 1, which is how heavy a candidate keyword (`ox.d ∪
/// W'`) can get — which makes the normalizer the paper's `Pmax` (Eq. 4)
/// extended to also cover the query object and keeps every `TS`, candidate
/// scores included, inside `[0, 1]`.
///
/// The scorer is live: [`TextScorer::add_doc`] and
/// [`TextScorer::remove_doc`] keep its counters and per-term maxima exact
/// over the current object set in O(|d|), and every weight is derived from
/// them at read time. Stored weights are the document-only half `x`
/// ([`TextScorer::weigh`]); [`TextScorer::weights`] maps them back.
#[derive(Debug, Clone)]
pub struct TextScorer {
    model: WeightModel,
    stats: CorpusStats,
    /// Per-term maximum of `x` over the live documents (0 for a term none
    /// holds); as long as the statistics' extent.
    xmax: Vec<f64>,
    /// Every term's [`TermWeights`] under the current counters, built by
    /// the first read after a mutation — once per epoch, so a read pays a
    /// lookup where it would pay a division (LM) or a logarithm (TF-IDF).
    table: OnceLock<Vec<TermWeights>>,
}

/// What reads need of one term: the affine map and `wmax(t)`.
#[derive(Debug, Clone, Copy)]
struct TermWeights {
    affine: (f64, f64),
    wmax: f64,
}

impl TextScorer {
    /// Builds a scorer over the object documents: one pass of
    /// [`TextScorer::add_doc`].
    pub fn build<'a>(model: WeightModel, docs: impl IntoIterator<Item = &'a Document>) -> Self {
        let mut scorer = TextScorer {
            model,
            stats: CorpusStats::default(),
            xmax: Vec::new(),
            table: OnceLock::new(),
        };
        for d in docs {
            scorer.add_doc(d);
        }
        scorer
    }

    /// Adds one object document: its counts and its `x` maxima, O(|d|).
    pub fn add_doc(&mut self, d: &Document) {
        self.table.take();
        self.stats.add_doc(d);
        if self.xmax.len() < self.stats.vocab_len() {
            self.xmax.resize(self.stats.vocab_len(), 0.0);
        }
        for &(t, tf) in d.entries() {
            let slot = &mut self.xmax[t.idx()];
            *slot = slot.max(self.model.doc_part(tf, d.len()));
        }
    }

    /// Removes one object document added earlier. `live_max` holds, for
    /// each term of `d` in order, the largest `x` the *remaining* documents
    /// give it (0 when none holds it) — an index's root aggregates know it,
    /// the scorer does not.
    pub fn remove_doc(&mut self, d: &Document, live_max: &[f64]) {
        debug_assert_eq!(live_max.len(), d.num_terms());
        self.table.take();
        self.stats.remove_doc(d);
        for (&(t, _), &x) in d.entries().iter().zip(live_max) {
            self.xmax[t.idx()] = x;
        }
    }

    /// The weight model in use.
    #[inline]
    pub fn model(&self) -> WeightModel {
        self.model
    }

    /// The live corpus statistics.
    #[inline]
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// `t`'s [`TermWeights`] from the counters. `wmax(t)` is the heaviest
    /// live document's weight, or the keyword-set ceiling when that is
    /// larger — always for a term no object carries, which a candidate
    /// document still can.
    fn term_weights(&self, t: TermId) -> TermWeights {
        let affine = self.model.affine(t, &self.stats);
        let unit = apply(affine, self.model.doc_part(1, 1));
        let top = apply(affine, self.xmax.get(t.idx()).copied().unwrap_or(0.0));
        let wmax = if unit > top { unit } else { top };
        TermWeights { affine, wmax }
    }

    /// The per-term table, built on first use since the last mutation.
    fn table(&self) -> &[TermWeights] {
        self.table.get_or_init(|| {
            (0..self.xmax.len())
                .map(|i| self.term_weights(TermId(i as u32)))
                .collect()
        })
    }

    /// The read side: stored halves to weights, through the per-term
    /// table. Take one per traversal rather than one per posting.
    pub fn weights(&self) -> Weights<'_> {
        Weights {
            scorer: self,
            table: self.table(),
        }
    }

    /// Per-term maximum weight `wmax(t)` (see [`TextScorer`]).
    pub fn max_weight(&self, t: TermId) -> f64 {
        self.weights().lookup(t).wmax
    }

    /// The document-only halves `x` of an object document — what the
    /// indexes store (see [`WeightModel::doc_part`]).
    pub fn weigh(&self, doc: &Document) -> WeightedDoc {
        WeightedDoc::from_pairs(
            doc.entries()
                .iter()
                .map(|&(t, tf)| (t, self.model.doc_part(tf, doc.len())))
                .collect(),
        )
    }

    /// The user normalizer `N(u) = Σ_{t∈u.d} wmax(t)`.
    ///
    /// Zero when no user term appears anywhere in the corpus (such a user
    /// scores 0 against every document).
    pub fn normalizer(&self, user: &Document) -> f64 {
        let weights = self.weights();
        user.terms().map(|t| weights.lookup(t).wmax).sum()
    }

    /// `TS` between a weighed object document (its `x` halves) and a user
    /// keyword set.
    pub fn ts_weighted(&self, obj: &WeightedDoc, user: &Document) -> f64 {
        let n = self.normalizer(user);
        if n == 0.0 {
            return 0.0;
        }
        let weights = self.weights();
        let score = WeightedDoc::dot_terms(&obj.entries, user, |t, x| weights.weight(t, x)) / n;
        debug_assert!((-1e-9..=1.0 + 1e-9).contains(&score));
        score
    }

    /// `TS` between raw documents (weighs the object on the fly).
    pub fn ts(&self, obj: &Document, user: &Document) -> f64 {
        self.ts_weighted(&self.weigh(obj), user)
    }

    /// Weight a term takes in a *candidate* (keyword-set) document of
    /// `ref_len` distinct keywords.
    ///
    /// Candidate documents are evaluated with a fixed reference length — the
    /// keyword budget `|ox.d| + ws` — so that adding a candidate keyword
    /// never lowers the weight of the keywords already present. That
    /// monotonicity is what Lemma 3 and the greedy (1−1/e) guarantee of
    /// §6.2.1 require; `mbrstk_core::QuerySpec::ref_len` is that length.
    pub fn candidate_weight(&self, t: TermId, ref_len: u64) -> f64 {
        debug_assert!(ref_len > 0);
        self.model.weight(t, 1, ref_len, &self.stats)
    }

    /// `TS` between a candidate keyword set (evaluated at `ref_len`) and a
    /// user keyword set.
    pub fn candidate_ts(&self, cand: &Document, user: &Document, ref_len: u64) -> f64 {
        let n = self.normalizer(user);
        if n == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for t in user.terms() {
            if cand.contains(t) {
                acc += self.candidate_weight(t, ref_len);
            }
        }
        let score = acc / n;
        debug_assert!((-1e-9..=1.0 + 1e-9).contains(&score));
        score
    }
}

/// A [`TextScorer`]'s read side for one traversal: [`Weights::weight`] is
/// the one place a stored document-only half becomes a weight. Borrowing
/// the per-term table keeps a posting's cost to one lookup and a
/// multiply-add.
#[derive(Debug, Clone, Copy)]
pub struct Weights<'a> {
    scorer: &'a TextScorer,
    table: &'a [TermWeights],
}

impl Weights<'_> {
    /// `t`'s row of the table, or computed for a term past the extent.
    #[inline]
    fn lookup(&self, t: TermId) -> TermWeights {
        match self.table.get(t.idx()) {
            Some(&tw) => tw,
            None => self.scorer.term_weights(t),
        }
    }

    /// `w(t, ·)` of a stored document-only half `x` (0 stays 0).
    #[inline]
    pub fn weight(&self, t: TermId, x: f64) -> f64 {
        apply(self.lookup(t).affine, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn corpus() -> Vec<Document> {
        vec![
            Document::from_pairs([(t(0), 2), (t(1), 1)]), // len 3
            Document::from_pairs([(t(1), 3)]),            // len 3
            Document::from_pairs([(t(0), 1), (t(2), 1)]), // len 2
        ]
    }

    #[test]
    fn ko_matches_paper_formula() {
        let docs = corpus();
        let s = TextScorer::build(WeightModel::KeywordOverlap, &docs);
        let user = Document::from_terms([t(0), t(1), t(3)]);
        // wmax of t3 is 1 (keyword unit), so N(u) = 3 even though t3 is
        // unseen; overlap with doc0 = {t0, t1} → 2/3.
        assert!((s.ts(&docs[0], &user) - 2.0 / 3.0).abs() < 1e-12);
        // doc1 = {t1} → 1/3.
        assert!((s.ts(&docs[1], &user) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lm_weight_matches_eq3() {
        let docs = corpus();
        let stats = CorpusStats::build(docs.iter());
        let m = WeightModel::LanguageModel { lambda: 0.4 };
        // t0 in doc0: tf=2, |d|=3, cf=3, |C|=8.
        let w = m.weight(t(0), 2, 3, &stats);
        let expect = 0.6 * (2.0 / 3.0) + 0.4 * (3.0 / 8.0);
        assert!((w - expect).abs() < 1e-12);
        // Absent term weighs zero.
        assert_eq!(m.weight(t(0), 0, 3, &stats), 0.0);
    }

    #[test]
    fn tfidf_weight() {
        let docs = corpus();
        let stats = CorpusStats::build(docs.iter());
        let m = WeightModel::TfIdf;
        let w = m.weight(t(0), 2, 3, &stats);
        assert!((w - 2.0 * (1.5f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn scores_are_normalized_for_all_models() {
        let docs = corpus();
        let user = Document::from_terms([t(0), t(1), t(2)]);
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let s = TextScorer::build(model, &docs);
            for d in &docs {
                let ts = s.ts(d, &user);
                assert!(
                    (0.0..=1.0).contains(&ts),
                    "{model:?} score {ts} out of range"
                );
            }
        }
    }

    #[test]
    fn max_weight_dominates_every_doc_weight() {
        let docs = corpus();
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let s = TextScorer::build(model, &docs);
            for d in &docs {
                for &(term, x) in &s.weigh(d).entries {
                    assert!(s.weights().weight(term, x) <= s.max_weight(term));
                }
            }
        }
    }

    #[test]
    fn candidate_weight_bounded_by_max_weight() {
        let docs = corpus();
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let s = TextScorer::build(model, &docs);
            for i in 0..3 {
                for ref_len in 1..=5 {
                    assert!(
                        s.candidate_weight(t(i), ref_len) <= s.max_weight(t(i)) + 1e-12,
                        "{model:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_ts_monotone_in_added_keywords() {
        let docs = corpus();
        let s = TextScorer::build(WeightModel::lm(), &docs);
        let user = Document::from_terms([t(0), t(1), t(2)]);
        let ref_len = 3;
        let c1 = Document::from_terms([t(0)]);
        let c2 = Document::from_terms([t(0), t(1)]);
        let c3 = Document::from_terms([t(0), t(1), t(2)]);
        let s1 = s.candidate_ts(&c1, &user, ref_len);
        let s2 = s.candidate_ts(&c2, &user, ref_len);
        let s3 = s.candidate_ts(&c3, &user, ref_len);
        assert!(s1 <= s2 && s2 <= s3);
        assert!(s1 > 0.0);
    }

    #[test]
    fn user_with_no_known_terms_scores_zero() {
        // Corpus without t9; user only has t9. KO gives N(u)=1 (unit) but
        // no doc contains it → 0. For LM/TF the same.
        let docs = corpus();
        let user = Document::from_terms([t(9)]);
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let s = TextScorer::build(model, &docs);
            for d in &docs {
                assert_eq!(s.ts(d, &user), 0.0);
            }
        }
    }

    #[test]
    fn empty_user_scores_zero() {
        let docs = corpus();
        let s = TextScorer::build(WeightModel::lm(), &docs);
        let user = Document::new();
        assert_eq!(s.ts(&docs[0], &user), 0.0);
        assert_eq!(s.normalizer(&user), 0.0);
    }

    #[test]
    fn ts_weighted_equals_ts() {
        let docs = corpus();
        let s = TextScorer::build(WeightModel::lm(), &docs);
        let user = Document::from_terms([t(0), t(2)]);
        for d in &docs {
            let wd = s.weigh(d);
            assert!((s.ts_weighted(&wd, &user) - s.ts(d, &user)).abs() < 1e-12);
        }
    }

    /// The stored half and the statistics half recombine into the
    /// undivided formulas bit for bit.
    #[test]
    fn doc_part_and_affine_round_like_the_formulas() {
        let docs = corpus();
        let stats = CorpusStats::build(docs.iter());
        let lm = WeightModel::LanguageModel { lambda: 0.3 };
        for (term, tf, len) in [(0, 2, 3), (1, 3, 3), (2, 1, 2), (0, 187, 187)] {
            let (term, m) = (t(term), WeightModel::TfIdf);
            let want = f64::from(tf) * stats.idf(term);
            assert_eq!(m.weight(term, tf, len, &stats).to_bits(), want.to_bits());
            let want = 0.7 * f64::from(tf) / len as f64 + 0.3 * stats.background(term);
            assert_eq!(lm.weight(term, tf, len, &stats).to_bits(), want.to_bits());
        }
    }

    /// A scorer maintained by `add_doc` / `remove_doc` reads exactly like
    /// one built cold over the same documents, `wmax` included — even where
    /// an LM document's `x` rounds one ulp above the keyword-unit ceiling
    /// (`tf = |d| = 187`).
    #[test]
    fn maintained_scorer_equals_a_cold_build() {
        let mut docs = corpus();
        docs.push(Document::from_pairs([(t(3), 187)]));
        let bits = |s: &TextScorer| -> Vec<u64> {
            (0..6)
                .flat_map(|i| [s.max_weight(t(i)), s.weights().weight(t(i), 0.5)])
                .map(f64::to_bits)
                .collect()
        };
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let mut s = TextScorer::build(model, &docs[1..]);
            s.add_doc(&docs[0]);
            assert_eq!(
                bits(&s),
                bits(&TextScorer::build(model, &docs)),
                "{model:?}"
            );
            for gone in [3, 0] {
                let rest: Vec<Document> = docs.drain(gone..=gone).collect();
                let live_max: Vec<f64> = rest[0]
                    .terms()
                    .map(|term| {
                        docs.iter()
                            .map(|d| model.doc_part(d.tf(term), d.len()))
                            .fold(0.0, f64::max)
                    })
                    .collect();
                s.remove_doc(&rest[0], &live_max);
                assert_eq!(
                    bits(&s),
                    bits(&TextScorer::build(model, &docs)),
                    "{model:?}"
                );
                docs.insert(gone, rest.into_iter().next().unwrap());
                s.add_doc(&docs[gone]);
            }
        }
        let lm = TextScorer::build(WeightModel::lm(), &docs);
        let x = WeightModel::lm().doc_part(187, 187);
        assert!(x > WeightModel::lm().doc_part(1, 1), "the ulp case is live");
        assert!(lm.weights().weight(t(3), x) == lm.max_weight(t(3)));
    }

    #[test]
    fn short_names() {
        assert_eq!(WeightModel::TfIdf.short_name(), "TF");
        assert_eq!(WeightModel::lm().short_name(), "LM");
        assert_eq!(WeightModel::KeywordOverlap.short_name(), "KO");
    }
}

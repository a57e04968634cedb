//! The three text relevance measures of §3 behind one uniform scorer.

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

    /// Weight of a term occurring `tf` times in a document of token length
    /// `doc_len`. Zero when `tf == 0`.
    pub fn weight(&self, t: TermId, tf: u32, doc_len: u64, stats: &CorpusStats) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        match *self {
            WeightModel::TfIdf => f64::from(tf) * stats.idf(t),
            WeightModel::LanguageModel { lambda } => {
                debug_assert!(doc_len > 0);
                (1.0 - lambda) * f64::from(tf) / doc_len as f64 + lambda * stats.background(t)
            }
            WeightModel::KeywordOverlap => 1.0,
        }
    }

    /// The largest weight `t` can attain in any *keyword-set* document:
    /// a document containing `t` once with total length 1.
    ///
    /// Candidate objects (`ox.d ∪ W'`) are keyword sets, so their term
    /// weights never exceed this; folding it into the per-term maximum keeps
    /// every `TS` — including candidate scores — inside `[0, 1]`.
    pub fn keyword_unit_weight(&self, t: TermId, stats: &CorpusStats) -> f64 {
        self.weight(t, 1, 1, stats)
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

/// Evaluates the normalized text relevance `TS` for one corpus and model.
///
/// ```text
/// TS(o.d, u.d) = Σ_{t∈u.d} w(t, o.d) / N(u),   N(u) = Σ_{t∈u.d} wmax(t)
/// ```
///
/// `wmax(t)` is the per-term maximum weight over all object documents *and*
/// over any keyword-set candidate document (see
/// [`WeightModel::keyword_unit_weight`]), which makes the normalizer the
/// paper's `Pmax` (Eq. 4) extended to also cover the query object.
#[derive(Debug, Clone)]
pub struct TextScorer {
    model: WeightModel,
    stats: CorpusStats,
    wmax: Vec<f64>,
}

impl TextScorer {
    /// Builds a scorer: computes corpus statistics (if not already built)
    /// and the per-term maxima by one scan over the object documents.
    pub fn build<'a>(
        model: WeightModel,
        stats: CorpusStats,
        docs: impl IntoIterator<Item = &'a Document>,
    ) -> Self {
        let mut wmax = vec![0.0f64; stats.vocab_len()];
        for d in docs {
            for &(t, tf) in d.entries() {
                let w = model.weight(t, tf, d.len(), &stats);
                let slot = &mut wmax[t.idx()];
                if w > *slot {
                    *slot = w;
                }
            }
        }
        // Fold in the keyword-set ceiling so candidate docs stay bounded.
        for (i, slot) in wmax.iter_mut().enumerate() {
            let unit = model.keyword_unit_weight(TermId(i as u32), &stats);
            if unit > *slot {
                *slot = unit;
            }
        }
        TextScorer { model, stats, wmax }
    }

    /// Convenience constructor that also computes [`CorpusStats`].
    pub fn from_docs(model: WeightModel, docs: &[Document]) -> Self {
        let stats = CorpusStats::build(docs.iter());
        Self::build(model, stats, docs.iter())
    }

    /// The weight model in use.
    #[inline]
    pub fn model(&self) -> WeightModel {
        self.model
    }

    /// The corpus statistics backing this scorer.
    #[inline]
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// Per-term maximum weight `wmax(t)`.
    ///
    /// For terms outside the corpus vocabulary the maximum is the
    /// keyword-set ceiling: no object carries the term, but a candidate
    /// document still can, so the term is not weightless.
    #[inline]
    pub fn max_weight(&self, t: TermId) -> f64 {
        match self.wmax.get(t.idx()) {
            Some(&w) => w,
            None => self.model.keyword_unit_weight(t, &self.stats),
        }
    }

    /// Precomputes the model weights of an object document.
    pub fn weigh(&self, doc: &Document) -> WeightedDoc {
        WeightedDoc::from_pairs(
            doc.entries()
                .iter()
                .map(|&(t, tf)| (t, self.model.weight(t, tf, doc.len(), &self.stats)))
                .collect(),
        )
    }

    /// The user normalizer `N(u) = Σ_{t∈u.d} wmax(t)`.
    ///
    /// Zero when no user term appears anywhere in the corpus (such a user
    /// scores 0 against every document).
    pub fn normalizer(&self, user: &Document) -> f64 {
        user.terms().map(|t| self.max_weight(t)).sum()
    }

    /// `TS` between a pre-weighted object document and a user keyword set.
    pub fn ts_weighted(&self, obj: &WeightedDoc, user: &Document) -> f64 {
        let n = self.normalizer(user);
        if n == 0.0 {
            return 0.0;
        }
        let score = WeightedDoc::dot_terms(&obj.entries, user) / n;
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
        let s = TextScorer::from_docs(WeightModel::KeywordOverlap, &docs);
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
            let s = TextScorer::from_docs(model, &docs);
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
            let s = TextScorer::from_docs(model, &docs);
            for d in &docs {
                let wd = s.weigh(d);
                for &(term, w) in &wd.entries {
                    assert!(w <= s.max_weight(term) + 1e-12);
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
            let s = TextScorer::from_docs(model, &docs);
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
        let s = TextScorer::from_docs(WeightModel::lm(), &docs);
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
            let s = TextScorer::from_docs(model, &docs);
            for d in &docs {
                assert_eq!(s.ts(d, &user), 0.0);
            }
        }
    }

    #[test]
    fn empty_user_scores_zero() {
        let docs = corpus();
        let s = TextScorer::from_docs(WeightModel::lm(), &docs);
        let user = Document::new();
        assert_eq!(s.ts(&docs[0], &user), 0.0);
        assert_eq!(s.normalizer(&user), 0.0);
    }

    #[test]
    fn ts_weighted_equals_ts() {
        let docs = corpus();
        let s = TextScorer::from_docs(WeightModel::lm(), &docs);
        let user = Document::from_terms([t(0), t(2)]);
        for d in &docs {
            let wd = s.weigh(d);
            assert!((s.ts_weighted(&wd, &user) - s.ts(d, &user)).abs() < 1e-12);
        }
    }

    #[test]
    fn short_names() {
        assert_eq!(WeightModel::TfIdf.short_name(), "TF");
        assert_eq!(WeightModel::lm().short_name(), "LM");
        assert_eq!(WeightModel::KeywordOverlap.short_name(), "KO");
    }
}

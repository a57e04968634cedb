//! Corpus-level statistics over the object collection `O`.

use crate::{Document, TermId};

/// Collection statistics needed by the relevance models.
///
/// * `df(t)` — document frequency, for IDF;
/// * `cf(t)` — collection frequency `tf(t, C)`, for Jelinek–Mercer smoothing;
/// * `collection_len` — `|C|`, the total token count of the concatenated
///   collection;
/// * `num_docs` — `|O|`.
///
/// The counts are exact over the live object set: a serving engine adds and
/// removes one document's counts per mutation, in O(|d|).
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    num_docs: u64,
    collection_len: u64,
    df: Vec<u32>,
    cf: Vec<u64>,
}

impl CorpusStats {
    /// Computes statistics over the given object documents.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a Document>) -> Self {
        let mut stats = CorpusStats::default();
        for d in docs {
            stats.add_doc(d);
        }
        stats
    }

    /// Adds one document's counts (used by builders that stream objects).
    pub fn add_doc(&mut self, d: &Document) {
        self.num_docs += 1;
        self.collection_len += d.len();
        for &(t, tf) in d.entries() {
            let i = t.idx();
            if i >= self.df.len() {
                self.df.resize(i + 1, 0);
                self.cf.resize(i + 1, 0);
            }
            self.df[i] += 1;
            self.cf[i] += u64::from(tf);
        }
    }

    /// Takes back the counts [`CorpusStats::add_doc`] added for `d`. The
    /// vocabulary extent never shrinks: a term no document holds any more
    /// reads as unseen.
    pub fn remove_doc(&mut self, d: &Document) {
        self.num_docs -= 1;
        self.collection_len -= d.len();
        for &(t, tf) in d.entries() {
            self.df[t.idx()] -= 1;
            self.cf[t.idx()] -= u64::from(tf);
        }
    }

    /// Number of documents `|O|`.
    #[inline]
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Total collection token count `|C|`.
    #[inline]
    pub fn collection_len(&self) -> u64 {
        self.collection_len
    }

    /// Document frequency of `t` (0 for unseen terms).
    #[inline]
    pub fn df(&self, t: TermId) -> u32 {
        self.df.get(t.idx()).copied().unwrap_or(0)
    }

    /// Collection frequency of `t` (0 for unseen terms).
    #[inline]
    pub fn cf(&self, t: TermId) -> u64 {
        self.cf.get(t.idx()).copied().unwrap_or(0)
    }

    /// Number of terms with statistics (vocabulary extent).
    #[inline]
    pub fn vocab_len(&self) -> usize {
        self.df.len()
    }

    /// `idf(t, O) = log(|O| / df(t))`, natural log, 0 for unseen terms.
    ///
    /// Matches §3: `idf(t, O) = log(|O| / |{d ∈ O : tf(t,d) > 0}|)`.
    pub fn idf(&self, t: TermId) -> f64 {
        let df = self.df(t);
        if df == 0 || self.num_docs == 0 {
            return 0.0;
        }
        (self.num_docs as f64 / df as f64).ln()
    }

    /// Maximum-likelihood estimate of `t` in the collection,
    /// `tf(t, C) / |C|` (Eq. 3's background model).
    pub fn background(&self, t: TermId) -> f64 {
        if self.collection_len == 0 {
            return 0.0;
        }
        self.cf(t) as f64 / self.collection_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn sample() -> CorpusStats {
        let docs = [
            Document::from_pairs([(t(0), 2), (t(1), 1)]),
            Document::from_pairs([(t(1), 3)]),
            Document::from_pairs([(t(0), 1), (t(2), 1)]),
        ];
        CorpusStats::build(docs.iter())
    }

    #[test]
    fn counts() {
        let s = sample();
        assert_eq!(s.num_docs(), 3);
        assert_eq!(s.collection_len(), 8);
        assert_eq!(s.df(t(0)), 2);
        assert_eq!(s.df(t(1)), 2);
        assert_eq!(s.df(t(2)), 1);
        assert_eq!(s.cf(t(0)), 3);
        assert_eq!(s.cf(t(1)), 4);
        assert_eq!(s.cf(t(2)), 1);
    }

    /// Adding and removing a document leaves statistics every accessor
    /// reads exactly as before, although the extent stays grown.
    #[test]
    fn remove_doc_takes_back_add_doc() {
        let mut s = sample();
        let extra = Document::from_pairs([(t(1), 2), (t(5), 1)]);
        s.add_doc(&extra);
        assert_eq!((s.df(t(5)), s.collection_len()), (1, 11));
        s.remove_doc(&extra);
        let fresh = sample();
        assert_eq!(s.vocab_len(), 6);
        assert_eq!(s.num_docs(), fresh.num_docs());
        assert_eq!(s.collection_len(), fresh.collection_len());
        for i in 0..6 {
            assert_eq!((s.df(t(i)), s.cf(t(i))), (fresh.df(t(i)), fresh.cf(t(i))));
            assert_eq!(s.idf(t(i)).to_bits(), fresh.idf(t(i)).to_bits());
            assert_eq!(
                s.background(t(i)).to_bits(),
                fresh.background(t(i)).to_bits()
            );
        }
    }

    #[test]
    fn unseen_terms_are_zero() {
        let s = sample();
        assert_eq!(s.df(t(42)), 0);
        assert_eq!(s.cf(t(42)), 0);
        assert_eq!(s.idf(t(42)), 0.0);
        assert_eq!(s.background(t(42)), 0.0);
    }

    #[test]
    fn idf_is_log_ratio() {
        let s = sample();
        assert!((s.idf(t(2)) - (3.0f64).ln()).abs() < 1e-12);
        assert!((s.idf(t(0)) - (1.5f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn rarer_terms_have_higher_idf() {
        let s = sample();
        assert!(s.idf(t(2)) > s.idf(t(0)));
    }

    #[test]
    fn background_sums_to_one_over_vocab() {
        let s = sample();
        let total: f64 = (0..3).map(|i| s.background(t(i))).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus() {
        let s = CorpusStats::default();
        assert_eq!(s.num_docs(), 0);
        assert_eq!(s.idf(t(0)), 0.0);
        assert_eq!(s.background(t(0)), 0.0);
    }
}

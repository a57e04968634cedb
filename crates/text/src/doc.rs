//! Term-frequency documents and precomputed weight vectors.

use crate::TermId;

/// A text description: distinct terms with term frequencies, sorted by
/// [`TermId`] so that intersections are linear merges.
///
/// Both objects (`o.d`) and users (`u.d`) carry a `Document`. User keyword
/// sets are documents whose frequencies are all 1.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Document {
    /// `(term, tf)` pairs, strictly ascending by term.
    entries: Vec<(TermId, u32)>,
    /// Total token count `|d| = Σ tf` (the LM document length).
    len: u64,
}

impl Clone for Document {
    fn clone(&self) -> Self {
        Document {
            entries: self.entries.clone(),
            len: self.len,
        }
    }

    /// Reuses the destination's entry buffer — `a.clone_from(&b)` on a
    /// warm buffer is allocation-free, which the query arenas rely on.
    fn clone_from(&mut self, src: &Self) {
        self.entries.clone_from(&src.entries);
        self.len = src.len;
    }
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a document from arbitrary `(term, tf)` pairs; duplicates are
    /// merged by summing frequencies and zero frequencies are dropped.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (TermId, u32)>) -> Self {
        let mut entries: Vec<(TermId, u32)> = pairs.into_iter().filter(|&(_, tf)| tf > 0).collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        entries.dedup_by(|next, acc| {
            if next.0 == acc.0 {
                acc.1 += next.1;
                true
            } else {
                false
            }
        });
        let len = entries.iter().map(|&(_, tf)| u64::from(tf)).sum();
        Document { entries, len }
    }

    /// Builds a keyword-set document: every distinct term with frequency 1.
    pub fn from_terms(terms: impl IntoIterator<Item = TermId>) -> Self {
        Self::from_pairs(terms.into_iter().map(|t| (t, 1)))
    }

    /// The `(term, tf)` entries, ascending by term.
    #[inline]
    pub fn entries(&self) -> &[(TermId, u32)] {
        &self.entries
    }

    /// Iterator over the distinct terms, ascending.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.entries.iter().map(|&(t, _)| t)
    }

    /// Term frequency of `t` in this document (0 when absent).
    pub fn tf(&self, t: TermId) -> u32 {
        match self.entries.binary_search_by_key(&t, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// True when `t` occurs in this document.
    #[inline]
    pub fn contains(&self, t: TermId) -> bool {
        self.tf(t) > 0
    }

    /// Number of distinct terms.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.entries.len()
    }

    /// Total token count `|d|` (sum of term frequencies).
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the document has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when this document shares at least one term with `other` —
    /// the paper's relevance precondition ("`o` is relevant to `u` iff
    /// `o.d` contains at least one term of `u.d`").
    pub fn overlaps(&self, other: &Document) -> bool {
        merge_any(self.terms(), other.terms())
    }

    /// Number of distinct shared terms `|self ∩ other|`.
    pub fn overlap_count(&self, other: &Document) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// The union document: distinct terms of both, frequencies summed.
    pub fn union(&self, other: &Document) -> Document {
        Document::from_pairs(
            self.entries
                .iter()
                .copied()
                .chain(other.entries.iter().copied()),
        )
    }

    /// A new document equal to `self` plus the given extra terms (each with
    /// tf 1, merged into existing frequencies). Models `ox.d ∪ W'` of
    /// Definition 1.
    pub fn with_terms(&self, extra: impl IntoIterator<Item = TermId>) -> Document {
        Document::from_pairs(
            self.entries
                .iter()
                .copied()
                .chain(extra.into_iter().map(|t| (t, 1))),
        )
    }
}

/// True if the two ascending iterators share an element.
fn merge_any(a: impl Iterator<Item = TermId>, b: impl Iterator<Item = TermId>) -> bool {
    let mut a = a.peekable();
    let mut b = b.peekable();
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                a.next();
            }
            std::cmp::Ordering::Greater => {
                b.next();
            }
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// A document with one positive value per term, ascending by term.
///
/// [`crate::TextScorer::weigh`] fills it with the document-only half `x`
/// of each weight, which is what index leaves store (the IR-tree leaf
/// posting of `w_{d,t}`, less its corpus statistics); the scorer maps
/// `x` back to `w` where it scores.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedDoc {
    /// `(term, value)` pairs, strictly ascending by term, values > 0.
    pub entries: Vec<(TermId, f64)>,
}

impl WeightedDoc {
    /// Builds from pairs; must be free of duplicate terms.
    pub fn from_pairs(mut entries: Vec<(TermId, f64)>) -> Self {
        entries.retain(|&(_, w)| w > 0.0);
        entries.sort_unstable_by_key(|&(t, _)| t);
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate terms in WeightedDoc"
        );
        WeightedDoc { entries }
    }

    /// Value of `t` (0 when absent).
    pub fn weight(&self, t: TermId) -> f64 {
        match self.entries.binary_search_by_key(&t, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Number of weighted terms.
    pub fn num_terms(&self) -> usize {
        self.entries.len()
    }

    /// True when no term has a positive value.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum over the terms of `user` of `weight(t, v)` for the pairs in
    /// `entries` (ascending by term, as [`WeightedDoc::entries`]) — the
    /// numerator `Σ_{t∈u.d} w(t, o.d)` of the uniform `TS` form. Takes the
    /// slice, not the document, so weights stored in a shared run score
    /// without being copied out.
    pub fn dot_terms(
        entries: &[(TermId, f64)],
        user: &Document,
        weight: impl Fn(TermId, f64) -> f64,
    ) -> f64 {
        let (mut i, mut j, mut acc) = (0, 0, 0.0);
        let u = user.entries();
        while i < entries.len() && j < u.len() {
            match entries[i].0.cmp(&u[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += weight(entries[i].0, entries[i].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn from_pairs_merges_duplicates_and_sorts() {
        let d = Document::from_pairs([(t(3), 2), (t(1), 1), (t(3), 1), (t(2), 0)]);
        assert_eq!(d.entries(), &[(t(1), 1), (t(3), 3)]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.num_terms(), 2);
    }

    #[test]
    fn from_terms_gives_unit_frequencies() {
        let d = Document::from_terms([t(5), t(2), t(5)]);
        assert_eq!(d.entries(), &[(t(2), 1), (t(5), 2)]);
    }

    #[test]
    fn tf_and_contains() {
        let d = Document::from_pairs([(t(1), 4), (t(7), 2)]);
        assert_eq!(d.tf(t(1)), 4);
        assert_eq!(d.tf(t(7)), 2);
        assert_eq!(d.tf(t(3)), 0);
        assert!(d.contains(t(7)));
        assert!(!d.contains(t(3)));
    }

    #[test]
    fn overlaps_detects_shared_terms() {
        let a = Document::from_terms([t(1), t(4), t(9)]);
        let b = Document::from_terms([t(2), t(4)]);
        let c = Document::from_terms([t(0), t(5)]);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_count(&b), 1);
        assert_eq!(a.overlap_count(&c), 0);
    }

    #[test]
    fn union_sums_frequencies() {
        let a = Document::from_pairs([(t(1), 2), (t(2), 1)]);
        let b = Document::from_pairs([(t(2), 3), (t(4), 1)]);
        let u = a.union(&b);
        assert_eq!(u.entries(), &[(t(1), 2), (t(2), 4), (t(4), 1)]);
        assert_eq!(u.len(), 7);
    }

    #[test]
    fn with_terms_models_candidate_keywords() {
        let base = Document::from_terms([t(1)]);
        let extended = base.with_terms([t(3), t(1)]);
        assert_eq!(extended.entries(), &[(t(1), 2), (t(3), 1)]);
        // The original is untouched.
        assert_eq!(base.entries(), &[(t(1), 1)]);
    }

    #[test]
    fn clone_from_reuses_buffer() {
        let src = Document::from_terms([t(1), t(2), t(3)]);
        let mut dst = Document::from_terms([t(9), t(8), t(7), t(6)]);
        dst.clone_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn weighted_doc_dot_terms() {
        let w = WeightedDoc::from_pairs(vec![(t(1), 0.5), (t(3), 0.25), (t(6), 0.1)]);
        let u = Document::from_terms([t(0), t(3), t(6), t(9)]);
        assert!((WeightedDoc::dot_terms(&w.entries, &u, |_, v| v) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn weighted_doc_drops_zero_weights() {
        let w = WeightedDoc::from_pairs(vec![(t(1), 0.0), (t(2), 0.4)]);
        assert_eq!(w.num_terms(), 1);
        assert_eq!(w.weight(t(1)), 0.0);
        assert_eq!(w.weight(t(2)), 0.4);
    }

    #[test]
    fn empty_document_edge_cases() {
        let e = Document::new();
        let d = Document::from_terms([t(1)]);
        assert!(e.is_empty());
        assert!(!e.overlaps(&d));
        assert!(!d.overlaps(&e));
        assert_eq!(e.union(&d), d);
    }
}

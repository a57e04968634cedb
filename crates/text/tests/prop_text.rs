//! Randomized-property tests of the text substrate: the invariants every
//! index bound in the paper leans on.
//!
//! Cases come from a seeded SplitMix64 stream (no `proptest` dependency —
//! the registry is unavailable in the build environment), so runs are
//! deterministic and failures reproduce exactly.

use text::{CorpusStats, Document, TermId, TextScorer, WeightModel};

const CASES: usize = 64;

use splitmix::SplitMix64 as Gen;

/// Domain-specific case generators on the shared SplitMix64 core.
trait GenExt {
    /// 1–7 term/tf pairs over a 12-term vocabulary, tf in 1..5.
    fn doc(&mut self) -> Document;
    /// 1–29 random documents.
    fn corpus(&mut self) -> Vec<Document>;
}

impl GenExt for Gen {
    fn doc(&mut self) -> Document {
        let n = 1 + self.below(7) as usize;
        Document::from_pairs(
            (0..n).map(|_| (TermId(self.below(12) as u32), 1 + self.below(4) as u32)),
        )
    }

    fn corpus(&mut self) -> Vec<Document> {
        let n = 1 + self.below(29) as usize;
        (0..n).map(|_| self.doc()).collect()
    }
}

fn models() -> [WeightModel; 3] {
    [
        WeightModel::TfIdf,
        WeightModel::lm(),
        WeightModel::KeywordOverlap,
    ]
}

/// TS is always normalized, for every model.
#[test]
fn ts_in_unit_interval() {
    let mut g = Gen(11);
    for _ in 0..CASES {
        let docs = g.corpus();
        let user = g.doc();
        for model in models() {
            let s = TextScorer::build(model, &docs);
            for d in &docs {
                let ts = s.ts(d, &user);
                assert!((0.0..=1.0 + 1e-9).contains(&ts), "{model:?}: {ts}");
            }
        }
    }
}

/// wmax really is the maximum: no document weight exceeds it.
#[test]
fn wmax_dominates() {
    let mut g = Gen(12);
    for _ in 0..CASES {
        let docs = g.corpus();
        for model in models() {
            let s = TextScorer::build(model, &docs);
            for d in &docs {
                for &(t, x) in &s.weigh(d).entries {
                    assert!(s.weights().weight(t, x) <= s.max_weight(t));
                }
            }
        }
    }
}

/// A scorer maintained through random adds and removes reads bit for bit
/// like a cold build over the surviving documents.
#[test]
fn maintained_scorer_matches_cold_build() {
    let mut g = Gen(18);
    for _ in 0..CASES {
        let mut live = g.corpus();
        for model in models() {
            let mut s = TextScorer::build(model, &live);
            for _ in 0..8 {
                if live.len() > 1 && g.below(2) == 0 {
                    let gone = live.swap_remove(g.below(live.len() as u64) as usize);
                    let live_max: Vec<f64> = gone
                        .terms()
                        .map(|t| {
                            live.iter()
                                .map(|d| model.doc_part(d.tf(t), d.len()))
                                .fold(0.0, f64::max)
                        })
                        .collect();
                    s.remove_doc(&gone, &live_max);
                } else {
                    live.push(g.doc());
                    s.add_doc(live.last().unwrap());
                }
                let cold = TextScorer::build(model, &live);
                for t in (0..13).map(TermId) {
                    assert_eq!(s.max_weight(t).to_bits(), cold.max_weight(t).to_bits());
                    let (w, cold_w) = (s.weights().weight(t, 0.25), cold.weights().weight(t, 0.25));
                    assert_eq!(w.to_bits(), cold_w.to_bits());
                }
            }
        }
    }
}

/// Candidate weights never exceed wmax either (Lemma 3's premise).
#[test]
fn candidate_weight_dominated() {
    let mut g = Gen(13);
    for _ in 0..CASES {
        let docs = g.corpus();
        let ref_len = 1 + g.below(9);
        for model in models() {
            let s = TextScorer::build(model, &docs);
            for t in 0..12u32 {
                assert!(
                    s.candidate_weight(TermId(t), ref_len) <= s.max_weight(TermId(t)) + 1e-12,
                    "{model:?} term {t} ref_len {ref_len}"
                );
            }
        }
    }
}

/// Candidate TS is monotone in added keywords — the property the greedy
/// (1−1/e) argument requires.
#[test]
fn candidate_ts_monotone() {
    let mut g = Gen(14);
    for _ in 0..CASES {
        let docs = g.corpus();
        let user = g.doc();
        let extra = g.below(12) as u32;
        for model in models() {
            let s = TextScorer::build(model, &docs);
            let base = Document::from_terms([TermId(0)]);
            let bigger = base.with_terms([TermId(extra)]);
            let ref_len = 4;
            assert!(
                s.candidate_ts(&bigger, &user, ref_len)
                    >= s.candidate_ts(&base, &user, ref_len) - 1e-12
            );
        }
    }
}

/// TS only grows when an object gains terms the user also has.
#[test]
fn ts_monotone_in_overlap() {
    let mut g = Gen(15);
    for _ in 0..CASES {
        let docs = g.corpus();
        let user = g.doc();
        let s = TextScorer::build(WeightModel::KeywordOverlap, &docs);
        for d in &docs {
            let richer = d.union(&user);
            assert!(s.ts(&richer, &user) >= s.ts(d, &user) - 1e-12);
        }
    }
}

/// Corpus statistics are consistent: df ≤ |O|, Σ background ≈ 1.
#[test]
fn stats_consistency() {
    let mut g = Gen(16);
    for _ in 0..CASES {
        let docs = g.corpus();
        let stats = CorpusStats::build(docs.iter());
        let mut bg = 0.0;
        for t in 0..stats.vocab_len() as u32 {
            assert!(u64::from(stats.df(TermId(t))) <= stats.num_docs());
            bg += stats.background(TermId(t));
        }
        assert!((bg - 1.0).abs() < 1e-9);
    }
}

/// Document identities: union is commutative; overlap symmetric.
#[test]
fn document_algebra() {
    let mut g = Gen(17);
    for _ in 0..CASES {
        let (a, b) = (g.doc(), g.doc());
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        assert_eq!(a.overlap_count(&b), b.overlap_count(&a));
        // Union length = sum of lengths (tf semantics).
        assert_eq!(a.union(&b).len(), a.len() + b.len());
    }
}

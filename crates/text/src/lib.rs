//! Text substrate for the MaxBRSTkNN reproduction.
//!
//! The paper (§3) ranks an object `o` for a user `u` with a combined score
//! `STS(o,u) = α·SS + (1−α)·TS`, where the textual relevance `TS` may be any
//! of three measures:
//!
//! * **TF-IDF** — `Σ_{t∈u.d} tf(t, o.d) · idf(t, O)`,
//! * **Language Model (LM)** — Jelinek–Mercer smoothed unigram likelihood
//!   (Eq. 3), normalized by `Pmax` (Eq. 4),
//! * **Keyword Overlap (KO)** — `|u.d ∩ o.d| / |u.d|`.
//!
//! We express all three in one normalized form, which is exactly the paper's
//! LM/KO form and an analogous normalization for TF-IDF:
//!
//! ```text
//! TS(o.d, u.d) = Σ_{t ∈ u.d} w(t, o.d)  /  N(u),
//! N(u)         = Σ_{t ∈ u.d} wmax(t),       wmax(t) = max_{o'∈O} w(t, o'.d)
//! ```
//!
//! With `w` a presence indicator this is precisely KO; with `w = p̂(t|θ_d)`
//! it is the paper's Eq. 4 (`N(u)` is `Pmax`); with `w = tf·idf` it is the
//! natural max-normalized TF-IDF. This uniform shape is what lets the index
//! bounds (`MaxTS`/`MinTS`, §5.3) be derived once for every measure.
//!
//! Every model's weight of a present term splits into a document-only half
//! and a statistics half, `w(t, d) = a_t · x(t, d) + b_t` (TF-IDF: `x = tf`,
//! `a_t = idf`; LM: `x = (1−λ)·tf/|d|`, `b_t = λ·cf(t)/|C|`; KO: `x = 1`).
//! Indexes store `x`, which no insert or remove elsewhere in the corpus can
//! change; `a_t`, `b_t` and `wmax` come from counters kept exact over the
//! live object set, so every score is the paper's over the *current*
//! corpus.
//!
//! This crate provides string interning ([`Dictionary`]), term-frequency
//! documents ([`Document`]), corpus statistics ([`CorpusStats`]), the weight
//! models ([`WeightModel`]), and the live [`TextScorer`] that keeps per-term
//! maxima, maps stored halves to weights and evaluates `TS`.

#![forbid(unsafe_code)]

mod corpus;
mod dict;
mod doc;
mod relevance;

pub use corpus::CorpusStats;
pub use dict::{Dictionary, TermId};
pub use doc::{Document, WeightedDoc};
pub use relevance::{TextScorer, WeightModel, Weights, DEFAULT_LM_LAMBDA};

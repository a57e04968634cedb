//! Synthetic workload generation matching §8 of the paper.
//!
//! The paper evaluates on two real collections we cannot redistribute:
//! the Yahoo I3 Flickr photos (1M–8M geo-tagged, short tag sets) and the
//! Yelp academic dataset (61K businesses, very long review documents).
//! This crate builds *statistical stand-ins*: clustered spatial points
//! with Zipf-distributed vocabularies whose headline statistics (objects,
//! vocabulary size, average distinct terms per object, total term count —
//! the paper's Table 4) match the shapes that drive the algorithms.
//!
//! It also reproduces the paper's **user-generation protocol** verbatim:
//! pick an `Area × Area` window, take `|U|` objects inside it as user
//! locations, sample a pool of `UW` distinct keywords from those objects,
//! and give each user `UL` keywords following the pool's occurrence
//! distribution. The pool doubles as the candidate keyword set `W`, and
//! candidate locations are drawn uniformly from the window.

#![forbid(unsafe_code)]

mod churn;
mod corpus;
pub mod rng;
mod stats;
mod users;
mod zipf;

pub use churn::{generate_churn, ChurnConfig, ChurnOp};
pub use corpus::{generate_objects, CorpusConfig};
pub use stats::{dataset_stats, DatasetStats};
pub use users::{generate_workload, UserGenConfig, Workload};
pub use zipf::Zipf;

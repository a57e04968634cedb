//! MaxBRSTkNN query processing — the paper's primary contribution.
//!
//! Given a bichromatic dataset of users `U` and objects `O`, a
//! `MaxBRSTkNN(ox, L, W, ws, k)` query finds the candidate location `ℓ ∈ L`
//! and keyword set `W' ⊆ W` (|W'| ≤ ws) that maximize how many users would
//! rank `ox` — placed at `ℓ` with text `ox.d ∪ W'` — among their top-k
//! spatial-textual objects (Definition 1). The keyword-selection subproblem
//! is NP-hard (Lemma 1, reduction from Maximum Coverage).
//!
//! The crate implements every method the paper evaluates:
//!
//! | Paper | Module |
//! |---|---|
//! | §4 baseline per-user top-k on the IR-tree | [`topk::baseline`] |
//! | §5 Algorithm 1 (joint top-k traversal of the MIR-tree) | [`topk::joint`] |
//! | §5 Algorithm 2 (individual top-k from `LO`/`RO`) | [`topk::individual`] |
//! | §6 Algorithm 3 (candidate location selection) | [`select::location`] |
//! | §6.2.1 greedy (1−1/e) keyword selection | [`select::greedy`] |
//! | §6.2.2 Algorithm 4 (exact keyword selection) | [`select::exact`] |
//! | §4 exhaustive baseline candidate scan | [`select::baseline`] |
//! | §7 MIUR-tree user-index pipeline | [`user_index`] |
//!
//! [`Engine`] ties everything together behind one convenient entry point;
//! the individual modules stay public because the paper evaluates them
//! separately (and the joint top-k is of independent interest).

#![forbid(unsafe_code)]
#![deny(clippy::redundant_clone)]

mod arena;
mod bounds;
mod cache;
pub mod cluster;
mod data;
pub mod dynamic;
mod group;
mod metrics;
pub mod pipeline;
mod query;
pub mod refresh;
mod score;
pub mod select;
pub mod topk;
pub mod trace;
pub mod user_index;

pub use arena::QueryArena;
pub use cache::{JointThresholds, ThresholdCache, DEFAULT_K_CAPACITY};
pub use cluster::EngineCluster;
pub use data::{ObjectData, QueryResult, QuerySpec, UserData};
pub use dynamic::{BatchReport, EpochGuard, MaintenanceIo, Mutation};
pub use group::UserGroup;
pub use pipeline::{BatchOutcome, QueryStats};
pub use query::{Engine, Method};
pub use refresh::{RefreshConfig, RefreshReport, RefresherHandle, ServingEngine};
pub use score::ScoreContext;
pub use select::location::LocationCounts;
pub use topk::{ScoredObject, TopkOutcome, UserTopk};
pub use trace::{Phase, PhaseBreakdown, PhaseStat};
pub use user_index::UserIndexSeed;

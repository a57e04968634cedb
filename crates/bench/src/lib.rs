//! The paper's §8 experiments for the MaxBRSTkNN reproduction.
//!
//! The `figures` binary regenerates every table and figure of §8: each
//! name sweeps one parameter (Table 5) and prints the same series the
//! corresponding figure plots. Scales are reduced relative to the paper's
//! testbed (the reductions are listed in `src/params.rs`) — the claims
//! under test are the *shapes*: joint ≪ baseline, approx ≈ 2–3 orders
//! faster than exact, flat joint cost in α/UL/Area/|U|, etc.
//!
//! The approximation ratio is reported, not guaranteed. The `1 − 1/e ≈
//! 0.632` bound of §6.2.1 holds on the coverage objective over the `LUW_w`
//! sets, whose membership test is optimistic; the realised BRSTkNN count
//! is re-evaluated exactly afterwards and is a threshold function, not
//! submodular (`mbrstk_core::select::greedy`). `figures --quick fig5`
//! prints 0.300 for TF-IDF at `k = 10`.
//!
//! Metrics, matching §8.1:
//! * **MRPU** — mean runtime per user of the top-k stage (ms),
//! * **MIOCPU** — mean simulated I/O per user of the top-k stage,
//! * candidate-selection **runtime** (ms, total),
//! * **approximation ratio** — approx cardinality / exact cardinality.
//!
//! What the serving system costs on the clock — throughput, latency, the
//! per-layer trace and the regression gate — is measured by the
//! `benchmark/` package, not here.

#![forbid(unsafe_code)]

pub mod figs;
mod measure;
mod params;
mod report;
mod scenario;

pub use params::{DatasetKind, Params};
pub use report::Table;
use scenario::Scenario;

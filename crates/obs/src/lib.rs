//! # mbrstk_obs
//!
//! Always-on telemetry primitives for the MaxBRSTkNN engine: a
//! lock-light [`MetricsRegistry`] of [`Counter`]s, [`Gauge`]s and
//! log-bucketed mergeable [`Histogram`]s, with a JSON and Prometheus
//! text export surface. `std`-only, no external dependencies.
//!
//! Design goals, in order:
//!
//! 1. **Free on the hot path.** Callers resolve metric handles once
//!    (get-or-create under a short lock) and record through cached
//!    `Arc`s: every record is a handful of relaxed atomic ops — no
//!    locks, no lookups, no allocation. The engine's warm query path
//!    stays allocation-free with telemetry enabled.
//! 2. **Mergeable.** Histograms share one fixed bucket layout
//!    ([`histogram::NUM_BUCKETS`] log buckets, ≤ `2^-SUB_BITS` relative
//!    error), so per-thread or per-shard histograms combine by plain
//!    bucket-wise addition — commutative and associative.
//! 3. **Exportable.** [`MetricsRegistry::snapshot`] freezes everything
//!    into a [`MetricsSnapshot`] for programmatic inspection,
//!    [`MetricsSnapshot::to_json`] serializes it, and
//!    [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//!    exposition format (histograms as summaries with
//!    `p50/p90/p99/p999` quantile samples).
//!
//! ```
//! use mbrstk_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let latency = reg.histogram("query_latency_us{method=\"joint-greedy\"}");
//! latency.record(120);
//! latency.record(95);
//! let snap = reg.snapshot();
//! let h = snap.histogram("query_latency_us{method=\"joint-greedy\"}").unwrap();
//! assert_eq!(h.count(), 2);
//! assert!(h.p99() >= 95);
//! println!("{}", snap.render_prometheus());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::redundant_clone)]

pub mod histogram;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};

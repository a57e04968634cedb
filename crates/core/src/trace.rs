//! Phase-level query tracing ([`Trace`], [`PhaseBreakdown`]).
//!
//! Every [`crate::Method`] splits into the same two phases: a **top-k**
//! phase (per-user `RSk` thresholds — Algorithms 1+2,
//! the §4 baseline scan, or the §7 seed) and a **selection** phase
//! (everything after: candidate locations, keyword selection, result
//! materialization). The [`Trace`] scratch lives in the
//! [`crate::QueryArena`]; the pipeline re-arms it when execution starts and
//! stamps each phase boundary, and the engine surfaces the result as
//! [`crate::QueryStats`]`::phases`.
//!
//! Stamping takes *consecutive deltas* of the wall clock and of the
//! calling thread's I/O mirror ([`IoStats::thread_snapshot`]) — so the
//! per-phase I/O numbers **partition** the query's total exactly:
//! `phases[TopK].io + phases[Select].io` equals the query's
//! `QueryStats.io` charge for charge. Everything is `Copy` and fixed-size;
//! tracing allocates nothing (see `tests/alloc_free.rs`).

use std::time::Instant;

use storage::{IoSnapshot, IoStats};

/// Number of phases every query decomposes into.
pub const PHASE_COUNT: usize = 2;

/// A query phase (the array index into [`PhaseBreakdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Per-user top-k thresholds: joint MIR traversal + individual top-k,
    /// the §4 baseline all-users scan, or the §7 user-index seed.
    TopK = 0,
    /// Candidate-location and keyword selection over the thresholds.
    Select = 1,
}

impl Phase {
    /// Both phases, in execution order.
    pub const ALL: [Phase; PHASE_COUNT] = [Phase::TopK, Phase::Select];

    /// Stable lowercase name (used as a metric label).
    pub fn name(self) -> &'static str {
        match self {
            Phase::TopK => "topk",
            Phase::Select => "select",
        }
    }
}

/// Wall time and exact simulated I/O charged by one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Wall-clock nanoseconds spent in the phase on the query's thread.
    pub nanos: u64,
    /// Simulated I/O charged during the phase (per-thread exact delta).
    pub io: IoSnapshot,
}

/// Per-phase cost of one query; `phases[TopK] + phases[Select]`
/// partitions the query's total I/O exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    stats: [PhaseStat; PHASE_COUNT],
}

impl PhaseBreakdown {
    /// The cost of one phase.
    #[inline]
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase as usize]
    }

    /// `(phase, cost)` pairs in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseStat)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Total traced wall-clock nanoseconds (sum over phases).
    pub fn total_nanos(&self) -> u64 {
        self.stats.iter().map(|s| s.nanos).sum()
    }

    /// Total traced I/O (sum over phases); equals the query's
    /// `QueryStats.io`.
    pub fn total_io(&self) -> IoSnapshot {
        self.stats.iter().map(|s| s.io).sum()
    }

    /// Folds another breakdown in phase-wise (for batch aggregation).
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.nanos = a.nanos.saturating_add(b.nanos);
            a.io = a.io + b.io;
        }
    }
}

/// The arena-owned tracing scratch the pipeline stamps.
///
/// `arm()` zeroes the breakdown and baselines the clock and the thread's
/// I/O mirror; each `stamp(phase)` charges the delta since the previous
/// stamp (or the arming) to `phase` and re-baselines. Stamping the same
/// phase twice accumulates.
#[derive(Debug)]
pub struct Trace {
    mark: Instant,
    mark_io: IoSnapshot,
    breakdown: PhaseBreakdown,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            mark: Instant::now(),
            mark_io: IoSnapshot::default(),
            breakdown: PhaseBreakdown::default(),
        }
    }
}

impl Trace {
    /// Zeroes the breakdown and baselines time + thread I/O.
    #[inline]
    pub fn arm(&mut self) {
        self.breakdown = PhaseBreakdown::default();
        self.mark = Instant::now();
        self.mark_io = IoStats::thread_snapshot();
    }

    /// Charges everything since the last stamp (or [`Trace::arm`]) to
    /// `phase`, then re-baselines.
    #[inline]
    pub fn stamp(&mut self, phase: Phase) {
        let now = Instant::now();
        let io = IoStats::thread_snapshot();
        let slot = &mut self.breakdown.stats[phase as usize];
        slot.nanos = slot
            .nanos
            .saturating_add(now.duration_since(self.mark).as_nanos() as u64);
        slot.io = slot.io + (io - self.mark_io);
        self.mark = now;
        self.mark_io = io;
    }

    /// The breakdown of the most recently traced query.
    #[inline]
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_partition_and_accumulate() {
        let mut tr = Trace::default();
        tr.arm();
        tr.stamp(Phase::TopK);
        tr.stamp(Phase::Select);
        tr.stamp(Phase::Select); // double stamp accumulates, not replaces
        let bd = tr.breakdown();
        assert_eq!(
            bd.total_io(),
            bd.get(Phase::TopK).io + bd.get(Phase::Select).io
        );
        assert_eq!(
            bd.total_nanos(),
            bd.get(Phase::TopK).nanos + bd.get(Phase::Select).nanos
        );

        let mut sum = PhaseBreakdown::default();
        sum.accumulate(&bd);
        sum.accumulate(&bd);
        assert_eq!(sum.get(Phase::TopK).nanos, 2 * bd.get(Phase::TopK).nanos);
    }

    #[test]
    fn arm_resets_between_queries() {
        let mut tr = Trace::default();
        tr.arm();
        tr.stamp(Phase::TopK);
        tr.arm();
        assert_eq!(tr.breakdown(), PhaseBreakdown::default());
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::TopK.name(), "topk");
        assert_eq!(Phase::Select.name(), "select");
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
    }
}

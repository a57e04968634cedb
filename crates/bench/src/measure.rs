//! Timed measurements of each pipeline stage.

use std::time::Instant;

use index::StTree;
use mbrstk_core::select::baseline::baseline_select;
use mbrstk_core::select::location::{select_candidate, KeywordSelector};
use mbrstk_core::select::CandidateContext;
use mbrstk_core::topk::individual::individual_topk;
use mbrstk_core::topk::joint::joint_topk;
use mbrstk_core::topk::UserTopk;
use mbrstk_core::user_index::select_with_user_index;
use mbrstk_core::{QuerySpec, UserGroup};

use crate::Scenario;

/// Top-k stage result: the paper's MRPU / MIOCPU metrics plus the
/// thresholds needed by the selection stage.
#[derive(Debug, Clone)]
pub struct TopkMeasure {
    /// Mean runtime per user, milliseconds.
    pub mrpu_ms: f64,
    /// Mean simulated I/O per user.
    pub miocpu: f64,
    /// Total runtime (ms) — Fig. 12a reports totals.
    pub total_ms: f64,
    /// Total simulated I/O.
    pub total_io: u64,
    /// `RSk(u)` per user.
    pub rsk: Vec<f64>,
    /// `RSk(us)` (−∞ for the baseline, which has no super-user).
    pub rsk_us: f64,
}

/// Times `run` — a top-k stage returning every user's top-k and `RSk(us)`
/// — against the engine's I/O counters, reset first.
fn timed_topk(sc: &Scenario, run: impl FnOnce() -> (Vec<UserTopk>, f64)) -> TopkMeasure {
    let eng = &sc.engine;
    eng.io.reset();
    let start = Instant::now();
    let (tks, rsk_us) = run();
    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    let total_io = eng.io.total();
    let n = eng.users.len() as f64;
    TopkMeasure {
        mrpu_ms: total_ms / n,
        miocpu: total_io as f64 / n,
        total_ms,
        total_io,
        rsk: tks.iter().map(|t| t.rsk).collect(),
        rsk_us,
    }
}

/// Runs the §4 per-user baseline top-k and measures it.
pub fn measure_topk_baseline(sc: &Scenario, k: usize) -> TopkMeasure {
    timed_topk(sc, || (sc.engine.baseline_user_topk(k), f64::NEG_INFINITY))
}

/// Runs the §5 joint top-k (Algorithms 1+2) and measures it.
pub fn measure_topk_joint(sc: &Scenario, k: usize) -> TopkMeasure {
    measure_topk_joint_on(sc, &sc.engine.mir, k)
}

/// [`measure_topk_joint`] over `tree` in place of the engine's MIR-tree.
pub fn measure_topk_joint_on(sc: &Scenario, tree: &StTree, k: usize) -> TopkMeasure {
    let eng = &sc.engine;
    timed_topk(sc, || {
        // The paper's super-user: no keyword cap on its bounds.
        let su = UserGroup {
            max_terms: usize::MAX,
            ..eng.super_user()
        };
        let out = joint_topk(tree, &su, k, &eng.ctx, &eng.io);
        (individual_topk(&eng.users, &out, k, &eng.ctx), out.rsk_us)
    })
}

/// Candidate-selection strategies under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectMethod {
    /// §4 exhaustive enumeration.
    Baseline,
    /// Algorithm 3 + Algorithm 4.
    Exact,
    /// Algorithm 3 + greedy.
    Approx,
    /// Algorithm 3 + realized-gain greedy (extension; ablation only).
    ApproxPlus,
}

/// Selection stage result.
#[derive(Debug, Clone)]
pub struct SelectMeasure {
    /// Total runtime, ms.
    pub runtime_ms: f64,
    /// `|BRSTkNN|` of the returned tuple.
    pub cardinality: usize,
}

/// Runs one candidate-selection strategy on precomputed thresholds.
pub fn measure_select(
    sc: &Scenario,
    spec: &QuerySpec,
    topk: &TopkMeasure,
    method: SelectMethod,
) -> SelectMeasure {
    let eng = &sc.engine;
    let start = Instant::now();
    let cc = CandidateContext::new(&eng.ctx, spec, &eng.users, &topk.rsk);
    let algorithm3 = |keywords| select_candidate(&cc, &eng.super_user(), topk.rsk_us, keywords);
    let result = match method {
        SelectMethod::Baseline => baseline_select(&cc),
        SelectMethod::Exact => algorithm3(KeywordSelector::Exact),
        SelectMethod::Approx => algorithm3(KeywordSelector::Greedy),
        SelectMethod::ApproxPlus => algorithm3(KeywordSelector::GreedyPlus),
    };
    SelectMeasure {
        runtime_ms: start.elapsed().as_secs_f64() * 1e3,
        cardinality: result.cardinality(),
    }
}

/// §7 pipeline result (Fig. 15).
#[derive(Debug, Clone)]
pub struct UserIndexMeasure {
    /// Combined MIR + MIUR simulated I/O.
    pub total_io: u64,
    /// Runtime, ms.
    pub runtime_ms: f64,
    /// Percentage of users whose top-k was never computed.
    pub users_pruned_pct: f64,
}

/// Runs the MIUR-tree pipeline end to end and measures it.
pub fn measure_user_index(sc: &Scenario, spec: &QuerySpec) -> UserIndexMeasure {
    let eng = &sc.engine;
    let miur = eng.miur.as_ref().expect("scenario builds the user index");
    eng.io.reset();
    let start = Instant::now();
    let out = select_with_user_index(
        miur,
        &eng.mir,
        spec,
        &eng.ctx,
        KeywordSelector::Greedy,
        &eng.io,
    );
    let runtime_ms = start.elapsed().as_secs_f64() * 1e3;
    let total = out.users_scored + out.users_pruned;
    UserIndexMeasure {
        total_io: eng.io.total(),
        runtime_ms,
        users_pruned_pct: if total > 0 {
            100.0 * out.users_pruned as f64 / total as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;

    fn quick_scenario() -> Scenario {
        Scenario::build(
            &Params {
                num_objects: 1_500,
                num_users: 60,
                num_locations: 10,
                uw: 10,
                ws: 2,
                k: 5,
                ..Params::quick()
            },
            0,
        )
    }

    #[test]
    fn joint_beats_baseline_io() {
        let sc = quick_scenario();
        let b = measure_topk_baseline(&sc, sc.spec.k);
        let j = measure_topk_joint(&sc, sc.spec.k);
        assert!(
            j.total_io < b.total_io,
            "joint {} vs baseline {}",
            j.total_io,
            b.total_io
        );
        // Thresholds must agree between the two methods.
        for (x, y) in b.rsk.iter().zip(&j.rsk) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn select_methods_agree_on_optimum() {
        let sc = quick_scenario();
        let t = measure_topk_joint(&sc, sc.spec.k);
        let b = measure_select(&sc, &sc.spec, &t, SelectMethod::Baseline);
        let e = measure_select(&sc, &sc.spec, &t, SelectMethod::Exact);
        let a = measure_select(&sc, &sc.spec, &t, SelectMethod::Approx);
        assert_eq!(b.cardinality, e.cardinality);
        assert!(a.cardinality <= e.cardinality);
        if e.cardinality > 0 {
            let ratio = a.cardinality as f64 / e.cardinality as f64;
            assert!(ratio >= 0.632 - 1e-9, "approximation ratio {ratio}");
        }
    }

    #[test]
    fn user_index_pipeline_runs() {
        let sc = quick_scenario();
        let m = measure_user_index(&sc, &sc.spec);
        assert!(m.total_io > 0);
        assert!((0.0..=100.0).contains(&m.users_pruned_pct));
    }
}

//! The tables and figures of §8.
//!
//! Figs 6–14 are one measurement swept over one parameter: `Row` holds the
//! §8.1 numbers of a single setting, `sweep` averages it over
//! `Params::trials` independently generated user sets at every value, and
//! a panel is a pick of its columns. `SWEEPS` is that table, with the
//! paper's expected shape beside each entry. Fig 5 runs the same sweep
//! once per relevance model; Fig 15 (the user index) and the ablation
//! measure something else and are plain functions.
//!
//! Nothing here prints: every experiment returns its panels and the
//! `figures` binary prints them.

use mbrstk_core::QuerySpec;
use text::WeightModel;

use crate::measure::{
    measure_select, measure_topk_baseline, measure_topk_joint, measure_topk_joint_on,
    measure_user_index, SelectMethod,
};
use crate::report::{fmt, Table};
use crate::{Params, Scenario};

/// The experiments `figures` accepts, in the order `all` runs them.
pub const NAMES: [&str; 14] = [
    "table4", "table5", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "ablation",
];

/// Runs one experiment; `None` when `name` is not one of [`NAMES`].
pub fn run(name: &str, p: &Params) -> Option<Vec<Table>> {
    Some(match name {
        "table4" => vec![table4(p)],
        "table5" => vec![table5()],
        "fig5" => fig5(p),
        "fig15" => fig15(p),
        "ablation" => ablation(p),
        _ => SWEEPS.iter().find(|s| s.name == name)?.run(p),
    })
}

/// One column of a [`Row`]. `B` is the §4 baseline, `J` the §5 joint top-k.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// Top-k stage: mean runtime per user (ms).
    BMrpu,
    JMrpu,
    /// Top-k stage: mean simulated I/O per user.
    BMiocpu,
    JMiocpu,
    /// Top-k stage totals, which Fig 12 plots: runtime (ms) and I/O.
    BTotalMs,
    JTotalMs,
    BTotalIo,
    JTotalIo,
    /// Candidate-selection runtime (ms): §4 enumeration, Algorithm 3 with
    /// Algorithm 4, Algorithm 3 with the greedy.
    SelBaseline,
    SelExact,
    SelApprox,
    /// Greedy cardinality over exact cardinality.
    Ratio,
}
use Col::*;

const NUM_COLS: usize = 12;

impl Col {
    /// Column header in a single-model panel.
    fn label(self) -> &'static str {
        match self {
            BMrpu | BMiocpu | BTotalMs | BTotalIo | SelBaseline => "Baseline",
            JMrpu | JMiocpu | JTotalMs | JTotalIo => "Joint top-k",
            SelExact => "Exact",
            SelApprox => "Approx",
            Ratio => "ratio",
        }
    }
}

/// What one parameter setting measures, indexed by [`Col`]; a figure shows
/// the columns its panels pick.
#[derive(Debug, Clone, Copy)]
struct Row([f64; NUM_COLS]);

/// Baseline-selection guardrail: `C(|W|, ws) × |L| × |U|` beyond this is
/// skipped and reported as `NaN` (the paper ran those points for hours;
/// the shape is already clear from the in-budget points).
const BASELINE_OP_BUDGET: f64 = 3e9;

fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

fn baseline_feasible(spec: &QuerySpec, users: f64) -> bool {
    choose(spec.keywords.len(), spec.ws) * spec.locations.len() as f64 * users <= BASELINE_OP_BUDGET
}

fn ratio(approx: usize, exact: usize) -> f64 {
    if exact == 0 {
        1.0
    } else {
        approx as f64 / exact as f64
    }
}

impl Row {
    /// Measures one scenario. Every strategy selects on the joint stage's
    /// thresholds.
    fn measure(sc: &Scenario) -> Row {
        let (spec, users) = (&sc.spec, sc.engine.users.len() as f64);
        let mut row = [f64::NAN; NUM_COLS];
        let mut set = |col: Col, v: f64| row[col as usize] = v;
        let b = measure_topk_baseline(sc, spec.k);
        set(BMrpu, b.mrpu_ms);
        set(BMiocpu, b.miocpu);
        set(BTotalMs, b.total_ms);
        set(BTotalIo, b.total_io as f64);
        let j = measure_topk_joint(sc, spec.k);
        set(JMrpu, j.mrpu_ms);
        set(JMiocpu, j.miocpu);
        set(JTotalMs, j.total_ms);
        set(JTotalIo, j.total_io as f64);
        if baseline_feasible(spec, users) {
            let b = measure_select(sc, spec, &j, SelectMethod::Baseline);
            set(SelBaseline, b.runtime_ms);
        }
        let e = measure_select(sc, spec, &j, SelectMethod::Exact);
        let a = measure_select(sc, spec, &j, SelectMethod::Approx);
        set(SelExact, e.runtime_ms);
        set(SelApprox, a.runtime_ms);
        set(Ratio, ratio(a.cardinality, e.cardinality));
        Row(row)
    }
}

/// Mean of `f` over `p.trials` independently generated user sets.
fn mean_over_trials<const N: usize>(p: &Params, f: impl Fn(&Scenario) -> [f64; N]) -> [f64; N] {
    let mut sum = [0.0; N];
    for trial in 0..p.trials {
        for (s, x) in sum.iter_mut().zip(f(&Scenario::build(p, trial))) {
            *s += x;
        }
    }
    sum.map(|s| s / p.trials as f64)
}

/// One [`Row`] per value of the parameter `set` writes into `p`.
fn sweep(p: &Params, values: &[f64], set: fn(&mut Params, f64)) -> Vec<Row> {
    values
        .iter()
        .map(|&v| {
            let mut pv = p.clone();
            set(&mut pv, v);
            Row(mean_over_trials(&pv, |sc| Row::measure(sc).0))
        })
        .collect()
}

/// One panel of a figure: what it plots and the columns it plots it from.
struct Panel {
    what: &'static str,
    cols: &'static [Col],
}

const fn panel(what: &'static str, cols: &'static [Col]) -> Panel {
    Panel { what, cols }
}

const MRPU: Panel = panel("top-k MRPU (ms)", &[BMrpu, JMrpu]);
const MIOCPU: Panel = panel("top-k MIOCPU", &[BMiocpu, JMiocpu]);
const TOTAL_MS: Panel = panel("total top-k runtime (ms)", &[BTotalMs, JTotalMs]);
const TOTAL_IO: Panel = panel("total top-k I/O", &[BTotalIo, JTotalIo]);
const SELECT: Panel = panel(
    "candidate-selection runtime (ms)",
    &[SelBaseline, SelExact, SelApprox],
);
/// [`SELECT`] where the paper does not plot the baseline either.
const SELECT_NO_BASELINE: Panel = panel("candidate-selection runtime (ms)", &[SelExact, SelApprox]);
const RATIO: Panel = panel("approximation ratio", &[Ratio]);

/// Title of the `i`-th panel of figure `name` (`figN`).
fn panel_title(name: &str, i: usize, panel: &Panel, param: &str, suffix: &str) -> String {
    let (n, letter) = (&name["fig".len()..], (b'a' + i as u8) as char);
    format!("Fig {n}{letter} — {} vs {param}{suffix}", panel.what)
}

/// A panel as a table: one line per swept value, one column per
/// `(header, rows of its series, column)` pick.
fn panel_table(
    title: String,
    param: &str,
    values: &[f64],
    picks: &[(String, &[Row], Col)],
) -> Table {
    let mut header = vec![param];
    header.extend(picks.iter().map(|(label, ..)| label.as_str()));
    let mut t = Table::new(&title, &header);
    for (i, v) in values.iter().enumerate() {
        let mut cells = vec![v.to_string()];
        cells.extend(picks.iter().map(|(_, rows, c)| fmt(rows[i].0[*c as usize])));
        t.row(cells);
    }
    t
}

/// A figure that sweeps one parameter under the run's relevance model.
struct Sweep {
    /// The name `figures` takes, `figN`.
    name: &'static str,
    /// Axis label of the swept parameter.
    param: &'static str,
    values: &'static [f64],
    set: fn(&mut Params, f64),
    /// On the Yelp-like collection instead of the Flickr-like one.
    yelp: bool,
    panels: &'static [Panel],
}

const KS: [f64; 5] = [1.0, 5.0, 10.0, 20.0, 50.0];
const SET_K: fn(&mut Params, f64) = |p, v| p.k = v as usize;

static SWEEPS: [Sweep; 9] = [
    // Effect of α. Paper shape: baseline drops as α grows (the IR-tree is
    // spatially clustered); joint stays flat; ratio rises with α.
    Sweep {
        name: "fig6",
        param: "alpha",
        values: &[0.1, 0.3, 0.5, 0.7, 0.9],
        set: |p, v| p.alpha = v,
        yelp: false,
        panels: &[MRPU, MIOCPU, SELECT, RATIO],
    },
    // Effect of UL (keywords per user). Paper shape: baseline grows with
    // UL, joint I/O ~flat; approximation dips mid-range.
    Sweep {
        name: "fig7",
        param: "UL",
        values: &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        set: |p, v| p.ul = v as usize,
        yelp: false,
        panels: &[MRPU, MIOCPU, SELECT, RATIO],
    },
    // Effect of UW (unique user keywords = |W|). Paper shape: joint
    // benefits most at high keyword overlap (low UW); selection runtimes
    // grow with UW; ratio decreases then recovers.
    Sweep {
        name: "fig8",
        param: "UW",
        values: &[5.0, 10.0, 20.0, 30.0, 40.0],
        set: |p, v| p.uw = v as usize,
        yelp: false,
        panels: &[MRPU, MIOCPU, SELECT, RATIO],
    },
    // Effect of Area (user sparsity). Paper shape: joint keeps its
    // advantage even for sparse users (shared keywords still share I/O).
    Sweep {
        name: "fig9",
        param: "Area",
        values: &[1.0, 2.0, 5.0, 10.0, 20.0],
        set: |p, v| p.area = v,
        yelp: false,
        panels: &[MRPU, MIOCPU],
    },
    // Effect of |L|. Paper shape: selection runtimes grow roughly
    // linearly with |L|; ratio improves slightly.
    Sweep {
        name: "fig10",
        param: "|L|",
        values: &[1.0, 20.0, 50.0, 100.0, 300.0],
        set: |p, v| p.num_locations = v as usize,
        yelp: false,
        panels: &[SELECT, RATIO],
    },
    // Effect of ws. Paper shape: baseline and exact blow up
    // combinatorially; approx stays low; ratio dips then recovers past
    // the coverage knee.
    Sweep {
        name: "fig11",
        param: "ws",
        values: &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        set: |p, v| p.ws = v as usize,
        yelp: false,
        panels: &[SELECT, RATIO],
    },
    // Effect of |U|. Paper shape: baseline totals grow rapidly with |U|;
    // joint totals barely move (shared traversal).
    Sweep {
        name: "fig12",
        param: "|U|",
        values: &[100.0, 250.0, 500.0, 1_000.0, 2_000.0],
        set: |p, v| p.num_users = v as usize,
        yelp: false,
        panels: &[TOTAL_MS, TOTAL_IO, SELECT, RATIO],
    },
    // Effect of |O| (scaled sweep). Paper shape: both top-k methods grow
    // with |O|; joint keeps a large constant-factor advantage; selection
    // gets *cheaper* as |O| grows (higher RSk prunes more candidates).
    Sweep {
        name: "fig13",
        param: "|O|",
        values: &[10_000.0, 20_000.0, 40_000.0, 80_000.0],
        set: |p, v| p.num_objects = v as usize,
        yelp: false,
        panels: &[MRPU, MIOCPU, SELECT_NO_BASELINE, RATIO],
    },
    // Effect of k on the Yelp-like collection. Paper: "all results were
    // consistent across both datasets".
    Sweep {
        name: "fig14",
        param: "k",
        values: &KS,
        set: SET_K,
        yelp: true,
        panels: &[MRPU, MIOCPU, SELECT_NO_BASELINE, RATIO],
    },
];

impl Sweep {
    fn run(&self, p: &Params) -> Vec<Table> {
        let (base, suffix) = if self.yelp {
            (p.clone().yelp(), " (Yelp-like)")
        } else {
            (p.clone(), "")
        };
        let rows = sweep(&base, self.values, self.set);
        let tables = self.panels.iter().enumerate().map(|(i, panel)| {
            let picks: Vec<_> = panel
                .cols
                .iter()
                .map(|&c| (c.label().to_string(), &rows[..], c))
                .collect();
            let title = panel_title(self.name, i, panel, self.param, suffix);
            panel_table(title, self.param, self.values, &picks)
        });
        tables.collect()
    }
}

/// Fig. 5: effect of k under each relevance model. Paper shape: joint ≪
/// baseline for every measure; KO costs the most; approx 2–3 orders faster
/// than exact; ratio rises with k. The baseline selection is plotted for
/// LM only.
fn fig5(p: &Params) -> Vec<Table> {
    const PANELS: [Panel; 4] = [MRPU, MIOCPU, SELECT, RATIO];
    let models = [
        WeightModel::lm(),
        WeightModel::TfIdf,
        WeightModel::KeywordOverlap,
    ];
    let shown = |model: &WeightModel, col: Col| {
        col != SelBaseline || matches!(model, WeightModel::LanguageModel { .. })
    };
    let rows: Vec<Vec<Row>> = models
        .iter()
        .map(|&model| sweep(&Params { model, ..p.clone() }, &KS, SET_K))
        .collect();
    let tables = PANELS.iter().enumerate().map(|(i, panel)| {
        let mut picks = Vec::new();
        for (model, rows) in models.iter().zip(&rows) {
            for &col in panel.cols.iter().filter(|&&c| shown(model, c)) {
                let label = match col {
                    Ratio => model.short_name().to_string(),
                    _ => format!("{}({})", &col.label()[..1], model.short_name()),
                };
                picks.push((label, &rows[..], col));
            }
        }
        panel_table(panel_title("fig5", i, panel, "k", ""), "k", &KS, &picks)
    });
    tables.collect()
}

/// Table 4: dataset statistics of the generated stand-ins.
fn table4(p: &Params) -> Table {
    let mut t = Table::new(
        "Table 4 — Description of datasets (synthetic stand-ins)",
        &["Property", "Flickr-like", "Yelp-like"],
    );
    let fl = datagen::dataset_stats(&datagen::generate_objects(
        &datagen::CorpusConfig::flickr_like(p.num_objects),
    ));
    let yp = datagen::dataset_stats(&datagen::generate_objects(
        &datagen::CorpusConfig::yelp_like(p.clone().yelp().num_objects),
    ));
    t.row(vec![
        "Total objects".into(),
        fl.total_objects.to_string(),
        yp.total_objects.to_string(),
    ]);
    t.row(vec![
        "Total unique terms".into(),
        fl.total_unique_terms.to_string(),
        yp.total_unique_terms.to_string(),
    ]);
    t.row(vec![
        "Avg unique terms per object".into(),
        fmt(fl.avg_unique_terms_per_object),
        fmt(yp.avg_unique_terms_per_object),
    ]);
    t.row(vec![
        "Total terms in dataset".into(),
        fl.total_terms.to_string(),
        yp.total_terms.to_string(),
    ]);
    t
}

/// Table 5: parameter ranges (defaults in brackets).
fn table5() -> Table {
    let mut t = Table::new(
        "Table 5 — Parameters (defaults bracketed)",
        &["Parameter", "Range"],
    );
    for (parameter, range) in [
        ("k", "1, 5, [10], 20, 50"),
        ("alpha", "0.1, 0.3, [0.5], 0.7, 0.9"),
        ("UL", "1, 2, [3], 4, 5, 6"),
        ("UW", "5, 10, [20], 30, 40"),
        ("Area", "1, 2, [5], 10, 20"),
        ("|L|", "1, 20, [50], 100, 300"),
        ("ws", "1, 2, [3], 4, 5, 6, 7, 8"),
        ("|U| (scaled)", "100, 250, [500], 1000, 2000"),
        ("|O| (scaled)", "10K, [20K], 40K, 80K"),
    ] {
        t.row(vec![parameter.into(), range.into()]);
    }
    t
}

/// Fig. 15: the user index (§7). Paper shape: indexed users cost less
/// total I/O; 5–12.5% of users pruned, share growing with |U|.
///
/// §7 targets *disk-resident, sparse* users, so this experiment widens the
/// user window (Area = 30) and limits the siting options (|L| = 8) — with
/// the default dense window every user genuinely is a BRSTkNN somewhere
/// and nothing is prunable at our object density. The un-indexed
/// competitor must still read the user table from disk: its I/O is the
/// joint traversal plus a sequential scan of the serialized user records;
/// the indexed pipeline reads MIUR nodes instead, skipping unexpanded
/// subtrees.
fn fig15(p: &Params) -> Vec<Table> {
    let mut a = Table::new(
        "Fig 15a — total I/O and runtime vs |U| (user index, Area=30, |L|=8)",
        &["|U|", "Un-idx I/O", "Idx I/O", "Un-idx ms", "Idx ms"],
    );
    let mut b = Table::new(
        "Fig 15b — users pruned (%) vs |U| (Area=30, |L|=8)",
        &["|U|", "pruned %"],
    );
    for u in [250, 500, 1_000, 2_000, 4_000] {
        let pv = Params {
            num_users: u,
            area: 30.0,
            num_locations: 8,
            ..p.clone()
        };
        let row = mean_over_trials(&pv, |sc| {
            // Constrained siting: candidate locations confined to one
            // corner quarter of the window, so distant user subtrees are
            // genuinely unreachable (the situation §7's subtree pruning
            // exists for).
            let w = sc.window;
            let n = pv.num_locations;
            let spec = QuerySpec {
                locations: (0..n)
                    .map(|i| {
                        let f = i as f64 / n.max(1) as f64;
                        geo::Point::new(
                            w.min.x + 0.25 * w.width() * f,
                            w.min.y + 0.25 * w.height() * (1.0 - f),
                        )
                    })
                    .collect(),
                ..sc.spec.clone()
            };
            // Un-indexed: joint top-k + sequential scan of the on-disk
            // user table (id + point + keyword list per record).
            let jm = measure_topk_joint(sc, pv.k);
            let user_table_bytes: usize = sc
                .engine
                .users
                .iter()
                .map(|u| 4 + 16 + 4 + 4 * u.doc.num_terms())
                .sum();
            let unindexed_io = jm.total_io as f64 + storage::blocks_for(user_table_bytes) as f64;
            let ui = measure_user_index(sc, &spec);
            // Un-indexed runtime: the full §5–§6 pipeline on in-memory
            // users (joint top-k + Algorithm 3 greedy).
            let sel = measure_select(sc, &spec, &jm, SelectMethod::Approx);
            [
                unindexed_io,
                ui.total_io as f64,
                jm.total_ms + sel.runtime_ms,
                ui.runtime_ms,
                ui.users_pruned_pct,
            ]
        });
        let mut cells = vec![u.to_string()];
        cells.extend(row[..4].iter().map(|&v| fmt(v)));
        a.row(cells);
        b.row(vec![u.to_string(), fmt(row[4])]);
    }
    vec![a, b]
}

/// Ablations beyond the paper's figures: design-choice experiments, in
/// the order printed (A, B, C, E, D).
fn ablation(p: &Params) -> Vec<Table> {
    vec![
        ablation_cache(p),
        ablation_fanout(p),
        ablation_selector(p),
        ablation_clustering(p),
        ablation_footprint(p),
    ]
}

/// The paper measures *cold* simulated I/O because real deployments sit
/// behind OS caches; this sweep shows how an LRU page cache of growing
/// capacity erodes the baseline's I/O penalty while the joint method
/// (which never re-reads a page) is unaffected.
fn ablation_cache(p: &Params) -> Table {
    let mut t = Table::new(
        "Ablation A — MIOCPU vs LRU cache capacity (4 KB blocks)",
        &["cache", "Baseline", "Joint top-k"],
    );
    let mut sc = Scenario::build(p, 0);
    for blocks in [0u64, 1024, 8192, 65536] {
        // Single shard: this ablation is single-threaded and sweeps the
        // behavior of *one* global LRU of the stated capacity; striping
        // would change what the row measures (per-shard eviction,
        // per-shard oversize bypass).
        sc.engine.io = match blocks {
            0 => storage::IoStats::new(),
            _ => storage::IoStats::with_cache_sharded(blocks, 1),
        };
        let b = measure_topk_baseline(&sc, p.k);
        let j = measure_topk_joint(&sc, p.k);
        t.row(vec![blocks.to_string(), fmt(b.miocpu), fmt(j.miocpu)]);
    }
    t
}

/// Node capacity vs top-k I/O and runtime.
fn ablation_fanout(p: &Params) -> Table {
    let mut t = Table::new(
        "Ablation B — fanout vs top-k cost",
        &["fanout", "B MIOCPU", "J MIOCPU", "B MRPU(ms)", "J MRPU(ms)"],
    );
    for fanout in [16usize, 32, 64, 128] {
        let pf = Params {
            fanout,
            ..p.clone()
        };
        let sc = Scenario::build(&pf, 0);
        let b = measure_topk_baseline(&sc, pf.k);
        let j = measure_topk_joint(&sc, pf.k);
        t.row(vec![
            fanout.to_string(),
            fmt(b.miocpu),
            fmt(j.miocpu),
            fmt(b.mrpu_ms),
            fmt(j.mrpu_ms),
        ]);
    }
    t
}

/// The paper's coverage greedy vs the realized-gain greedy extension vs
/// exact: quality and cost, one line per trial.
fn ablation_selector(p: &Params) -> Table {
    let mut t = Table::new(
        "Ablation C — keyword selector: runtime (ms) and ratio to exact",
        &[
            "trial",
            "Greedy ms",
            "Greedy+ ms",
            "Exact ms",
            "Greedy ratio",
            "Greedy+ ratio",
        ],
    );
    for trial in 0..p.trials {
        let sc = Scenario::build(p, trial);
        let topk = measure_topk_joint(&sc, p.k);
        let g = measure_select(&sc, &sc.spec, &topk, SelectMethod::Approx);
        let gp = measure_select(&sc, &sc.spec, &topk, SelectMethod::ApproxPlus);
        let e = measure_select(&sc, &sc.spec, &topk, SelectMethod::Exact);
        t.row(vec![
            trial.to_string(),
            fmt(g.runtime_ms),
            fmt(gp.runtime_ms),
            fmt(e.runtime_ms),
            fmt(ratio(g.cardinality, e.cardinality)),
            fmt(ratio(gp.cardinality, e.cardinality)),
        ]);
    }
    t
}

/// Leaf clustering: STR (spatial) vs text-first (CIR-like), under the
/// joint top-k.
fn ablation_clustering(p: &Params) -> Table {
    use index::{IndexedObject, PostingMode, StTree};

    let mut t = Table::new(
        "Ablation E — leaf clustering: STR vs text-first (joint top-k)",
        &["clustering", "MIOCPU", "MRPU(ms)", "invfile bytes"],
    );
    let sc = Scenario::build(p, 0);
    let objs: Vec<IndexedObject> = sc
        .engine
        .objects
        .iter()
        .map(|o| IndexedObject {
            id: o.id,
            point: o.point,
            doc: sc.engine.ctx.text.weigh(&o.doc),
        })
        .collect();
    for (name, tree) in [
        (
            "STR",
            StTree::build_with_fanout(&objs, PostingMode::MaxMin, p.fanout),
        ),
        (
            "text-first",
            StTree::build_text_first(&objs, PostingMode::MaxMin, p.fanout, &sc.engine.ctx.text),
        ),
    ] {
        let m = measure_topk_joint_on(&sc, &tree, p.k);
        t.row(vec![
            name.into(),
            fmt(m.miocpu),
            fmt(m.mrpu_ms),
            tree.invfile_bytes().to_string(),
        ]);
    }
    t
}

/// Index footprint (§5.1 cost analysis): the MIR-tree's extra minimum
/// weight per posting.
fn ablation_footprint(p: &Params) -> Table {
    let mut t = Table::new(
        "Ablation D — index footprint (bytes)",
        &["index", "node records", "inverted files"],
    );
    let eng = Scenario::build(p, 0).engine;
    let miur = eng.miur.as_ref().expect("scenario builds the user index");
    for (name, node_bytes, payload_bytes) in [
        ("IR-tree", eng.ir.node_bytes(), eng.ir.invfile_bytes()),
        ("MIR-tree", eng.mir.node_bytes(), eng.mir.invfile_bytes()),
        ("MIUR-tree", miur.node_bytes(), miur.intuni_bytes()),
    ] {
        t.row(vec![
            name.into(),
            node_bytes.to_string(),
            payload_bytes.to_string(),
        ]);
    }
    t
}

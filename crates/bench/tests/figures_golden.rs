//! Golden cells of every paper figure at `Params::quick()`.
//!
//! Recorded on the `figs.rs` that printed as it measured, before it became
//! a table of sweeps: a constant here changes only when a figure is *meant*
//! to change. The test reads the `figures` binary's stdout, the one surface
//! both sides of that refactor share, and runs it under
//! `MBRSTK_CODEC=verbatim` (`Scenario::build` takes its codec from the
//! environment) so the Columnar CI leg reads the same constants.
//!
//! The run is seeded and single-threaded, so every cell that is not a
//! wall-clock reading is pinned as printed: simulated I/O, approximation
//! ratios, pruned %, dataset statistics, byte counts. A wall-clock cell is
//! only checked for being finite and > 0.
//!
//! Unoptimised, fig11's `ws` sweep takes minutes (it enumerates `C(20, ws)`
//! keyword sets up to `ws = 8`); `cargo test --release -p bench` runs the
//! whole file in seconds.

use std::process::Command;

/// `# name` opens a figure, `## title` a panel; a panel's next line is its
/// header and the rest are its rows, cells two spaces apart. `*` is a
/// wall-clock cell, and a panel recorded without rows has no other kind:
/// each of its rows is the swept value and a `*` per remaining column.
const GOLDEN: &str = r#"
# table4
## Table 4 — Description of datasets (synthetic stand-ins)
Property  Flickr-like  Yelp-like
Total objects  4000  500
Total unique terms  995  2000
Avg unique terms per object  6.935  398.2
Total terms in dataset  27739  543027
# table5
## Table 5 — Parameters (defaults bracketed)
Parameter  Range
k  1, 5, [10], 20, 50
alpha  0.1, 0.3, [0.5], 0.7, 0.9
UL  1, 2, [3], 4, 5, 6
UW  5, 10, [20], 30, 40
Area  1, 2, [5], 10, 20
|L|  1, 20, [50], 100, 300
ws  1, 2, [3], 4, 5, 6, 7, 8
|U| (scaled)  100, 250, [500], 1000, 2000
|O| (scaled)  10K, [20K], 40K, 80K
# fig5
## Fig 5a — top-k MRPU (ms) vs k
k  B(LM)  J(LM)  B(TF)  J(TF)  B(KO)  J(KO)
## Fig 5b — top-k MIOCPU vs k
k  B(LM)  J(LM)  B(TF)  J(TF)  B(KO)  J(KO)
1  57.5  4.167  54.5  4.183  57.1  4.183
5  74.2  4.167  93.1  4.183  95.5  4.183
10  83.1  4.167  117.0  4.183  118.4  4.183
20  94.6  4.167  148.7  4.183  151.0  4.183
50  114.5  4.167  196.4  4.183  198.8  4.183
## Fig 5c — candidate-selection runtime (ms) vs k
k  B(LM)  E(LM)  A(LM)  E(TF)  A(TF)  E(KO)  A(KO)
## Fig 5d — approximation ratio vs k
k  LM  TF  KO
1  0.845  0.667  0.833
5  0.948  0.429  0.692
10  1.000  0.300  0.824
20  1.000  0.458  0.950
50  1.000  0.667  0.807
# fig6
## Fig 6a — top-k MRPU (ms) vs alpha
alpha  Baseline  Joint top-k
## Fig 6b — top-k MIOCPU vs alpha
alpha  Baseline  Joint top-k
0.1  238.7  4.183
0.3  148.6  4.183
0.5  83.1  4.167
0.7  54.9  3.150
0.9  42.6  1.583
## Fig 6c — candidate-selection runtime (ms) vs alpha
alpha  Baseline  Exact  Approx
## Fig 6d — approximation ratio vs alpha
alpha  ratio
0.1  0.915
0.3  0.942
0.5  1.000
0.7  1.000
0.9  0.914
# fig7
## Fig 7a — top-k MRPU (ms) vs UL
UL  Baseline  Joint top-k
## Fig 7b — top-k MIOCPU vs UL
UL  Baseline  Joint top-k
1  65.3  4.183
2  77.4  4.167
3  83.1  4.167
4  88.0  4.050
5  90.1  3.775
6  91.9  3.458
## Fig 7c — candidate-selection runtime (ms) vs UL
UL  Baseline  Exact  Approx
## Fig 7d — approximation ratio vs UL
UL  ratio
1  1.000
2  0.963
3  1.000
4  1.000
5  1.000
6  1.000
# fig8
## Fig 8a — top-k MRPU (ms) vs UW
UW  Baseline  Joint top-k
## Fig 8b — top-k MIOCPU vs UW
UW  Baseline  Joint top-k
5  71.2  2.308
10  75.1  3.483
20  83.1  4.167
30  84.7  4.167
40  84.6  4.167
## Fig 8c — candidate-selection runtime (ms) vs UW
UW  Baseline  Exact  Approx
## Fig 8d — approximation ratio vs UW
UW  ratio
5  1.000
10  1.000
20  1.000
30  0.981
40  1.000
# fig9
## Fig 9a — top-k MRPU (ms) vs Area
Area  Baseline  Joint top-k
## Fig 9b — top-k MIOCPU vs Area
Area  Baseline  Joint top-k
1  84.8  4.150
2  83.5  4.150
5  83.1  4.167
10  87.5  4.167
20  95.2  4.183
# fig10
## Fig 10a — candidate-selection runtime (ms) vs |L|
|L|  Baseline  Exact  Approx
## Fig 10b — approximation ratio vs |L|
|L|  ratio
1  1.000
20  1.000
50  1.000
100  1.000
300  1.000
# fig11
## Fig 11a — candidate-selection runtime (ms) vs ws
ws  Baseline  Exact  Approx
## Fig 11b — approximation ratio vs ws
ws  ratio
1  1.000
2  1.000
3  1.000
4  0.941
5  0.876
6  0.766
7  0.942
8  0.966
# fig12
## Fig 12a — total top-k runtime (ms) vs |U|
|U|  Baseline  Joint top-k
## Fig 12b — total top-k I/O vs |U|
|U|  Baseline  Joint top-k
100  8112  493.0
250  23216  500.0
500  49892  500.0
1000  98431  502.0
2000  186426  502.0
## Fig 12c — candidate-selection runtime (ms) vs |U|
|U|  Baseline  Exact  Approx
## Fig 12d — approximation ratio vs |U|
|U|  ratio
100  1.000
250  0.791
500  1.000
1000  1.000
2000  1.000
# fig13
## Fig 13a — top-k MRPU (ms) vs |O|
|O|  Baseline  Joint top-k
## Fig 13b — top-k MIOCPU vs |O|
|O|  Baseline  Joint top-k
10000  163.7  9.633
20000  354.5  21.4
40000  746.4  42.9
80000  1258  81.6
## Fig 13c — candidate-selection runtime (ms) vs |O|
|O|  Exact  Approx
## Fig 13d — approximation ratio vs |O|
|O|  ratio
10000  1.000
20000  1.000
40000  0.907
80000  0.980
# fig14
## Fig 14a — top-k MRPU (ms) vs k (Yelp-like)
k  Baseline  Joint top-k
## Fig 14b — top-k MIOCPU vs k (Yelp-like)
k  Baseline  Joint top-k
1  156.0  6.867
5  173.3  8.558
10  179.2  9.075
20  192.0  9.625
50  246.2  9.625
## Fig 14c — candidate-selection runtime (ms) vs k (Yelp-like)
k  Exact  Approx
## Fig 14d — approximation ratio vs k (Yelp-like)
k  ratio
1  1.000
5  1.000
10  1.000
20  1.000
50  1.000
# fig15
## Fig 15a — total I/O and runtime vs |U| (user index, Area=30, |L|=8)
|U|  Un-idx I/O  Idx I/O  Un-idx ms  Idx ms
250  505.0  522.0  *  *
500  507.0  536.0  *  *
1000  511.0  580.0  *  *
2000  520.0  632.0  *  *
4000  538.0  690.0  *  *
## Fig 15b — users pruned (%) vs |U| (Area=30, |L|=8)
|U|  pruned %
250  0
500  0
1000  0
2000  3.200
4000  30.9
# ablation
## Ablation A — MIOCPU vs LRU cache capacity (4 KB blocks)
cache  Baseline  Joint top-k
0  83.1  4.167
1024  1.133  4.167
8192  1.133  4.167
65536  1.133  4.167
## Ablation B — fanout vs top-k cost
fanout  B MIOCPU  J MIOCPU  B MRPU(ms)  J MRPU(ms)
16  103.2  5.542  *  *
32  83.1  4.167  *  *
64  80.2  2.692  *  *
128  78.0  2.192  *  *
## Ablation C — keyword selector: runtime (ms) and ratio to exact
trial  Greedy ms  Greedy+ ms  Exact ms  Greedy ratio  Greedy+ ratio
0  *  *  *  1.000  1.000
## Ablation E — leaf clustering: STR vs text-first (joint top-k)
clustering  MIOCPU  MRPU(ms)  invfile bytes
STR  4.167  *  1118536
text-first  4.008  *  1090444
## Ablation D — index footprint (bytes)
index  node records  inverted files
IR-tree  150219  737984
MIR-tree  150219  1118536
MIUR-tree  5005  6132
"#;

/// The panels of a `figures` report: title, header, rows, each split into
/// cells. Columns are right-aligned and joined by two spaces, so a run of
/// two or more separates cells and a single space is inside one.
fn panels(report: &str) -> Vec<Vec<Vec<&str>>> {
    let mut out: Vec<Vec<Vec<&str>>> = Vec::new();
    for line in report.lines().filter(|l| l.bytes().any(|b| b != b'-')) {
        if line.starts_with("## ") {
            out.push(Vec::new());
        }
        if let Some(panel) = out.last_mut() {
            let cells = line.split("  ").map(str::trim).filter(|c| !c.is_empty());
            panel.push(cells.collect());
        }
    }
    out
}

fn check(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--quick", name])
        .env("MBRSTK_CODEC", "verbatim")
        .output()
        .expect("run figures");
    assert!(out.status.success(), "figures --quick {name}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    let section = GOLDEN
        .split("\n# ")
        .find_map(|s| s.strip_prefix(name)?.strip_prefix('\n'))
        .unwrap_or_else(|| panic!("no golden section for {name}"));

    let (got, want) = (panels(&stdout), panels(section));
    let mut wrong = Vec::new();
    if got.len() != want.len() {
        wrong.push(format!("{} panels, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(&want) {
        let mut w = w.clone();
        if let [_, header] = &w[..] {
            let columns = header.len();
            w.extend(g.iter().skip(2).map(|row| {
                let mut timings = vec!["*"; columns];
                timings[0] = row.first().copied().unwrap_or_default();
                timings
            }));
        }
        if g.len() != w.len() {
            wrong.push(format!(
                "{:?}: {} lines, expected {}",
                w[0],
                g.len(),
                w.len()
            ));
        }
        for (gr, wr) in g.iter().zip(&w) {
            let cell = |(g, w): (&&str, &&str)| match *w {
                "*" => g.parse::<f64>().is_ok_and(|v| v.is_finite() && v > 0.0),
                _ => g == w,
            };
            if gr.len() != wr.len() || !gr.iter().zip(wr).all(cell) {
                wrong.push(format!("{:?}: got {gr:?}, expected {wr:?}", w[0]));
            }
        }
    }
    assert!(wrong.is_empty(), "{name}:\n{}\n{stdout}", wrong.join("\n"));
}

macro_rules! golden {
    ($($name:ident)*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}

golden!(table4 table5 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 ablation);

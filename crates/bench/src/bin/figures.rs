//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--objects N] [--users N] [--trials N] [--seed N]
//!         [table4 table5 fig5 fig6 ... fig15 ablation | all]
//! ```
//!
//! No name, or `all`, runs every experiment. `--quick` shrinks the
//! collection for smoke runs; the default scales are the reductions of the
//! paper's setup listed in `crates/bench/src/params.rs`. Anything else on
//! the command line is refused with exit code 2.

use bench::{figs, Params};

const USAGE: &str = "usage: figures [--quick] [--objects N] [--users N] [--trials N] [--seed N] \
                     [table4 table5 fig5 fig6 ... fig15 ablation | all]";

fn refuse(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut p = if quick {
        Params::quick()
    } else {
        Params::default()
    };
    let mut which: Vec<&str> = Vec::new();
    let mut all = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let mut number = || -> u64 {
            let value = rest.next().and_then(|v| v.parse().ok());
            value.unwrap_or_else(|| refuse(&format!("{arg} needs a number")))
        };
        match arg.as_str() {
            "--quick" => {}
            "--objects" => p.num_objects = number() as usize,
            "--users" => p.num_users = number() as usize,
            "--trials" => p.trials = (number() as usize).max(1),
            "--seed" => p.seed = number(),
            "all" => all = true,
            name => match figs::NAMES.iter().find(|n| **n == name) {
                Some(known) => which.push(known),
                None => refuse(&format!("unknown argument: {name}")),
            },
        }
    }
    if all || which.is_empty() {
        which = figs::NAMES.to_vec();
    }
    println!(
        "# MaxBRSTkNN experiment harness — |O|={}, |U|={}, trials={}{}",
        p.num_objects,
        p.num_users,
        p.trials,
        if quick { " (quick mode)" } else { "" }
    );

    for name in which {
        let start = std::time::Instant::now();
        let tables = figs::run(name, &p).expect("every name was checked against figs::NAMES");
        for table in tables {
            print!("{}", table.render());
        }
        eprintln!("[{name} done in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

//! `benchmark` — see `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! benchmark run   --workload W [--seed N] [--seconds S]      the same, untraced
//! benchmark trace [--workload W] [--seed N] [--seconds S]    the traced pass (every workload by default)
//! benchmark all   [--seed N] [--seconds S]                   every workload, every metric
//! benchmark manifest                                         prints BENCHMARK.json
//! ```
//! `--scale quick` shrinks the corpus for smoke runs.

use std::process::{Command, ExitCode};

use mbrstk_benchmark::catalogue::{manifest_json, workload, RUN_SECONDS, WORKLOADS};
use mbrstk_benchmark::gen::Scale;
use mbrstk_benchmark::run::{run, RunConfig};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 100,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        scale: Scale::FULL,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--scale" => {
                let name = value("--scale")?;
                args.scale = Scale::from_name(&name).ok_or(format!("unknown scale {name}"))?;
            }
            name if !name.starts_with('-') && args.command.is_none() => {
                args.command = Some(name.to_owned());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run in this process. Exit code 1 when any op failed.
fn run_here(args: &Args, name: &str) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!(
            "unknown workload {name}; one of: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let out = run(&RunConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        trace: args.trace,
    });
    out.print_human();
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Each workload run is a child process of its own: clean RSS, clean
/// allocator.
fn run_children(args: &Args, names: &[&str], trace: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut worst = ExitCode::SUCCESS;
    for name in names {
        println!("=== {name} ===");
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--scale", args.scale.name])
            .status()
            .expect("spawn a workload run");
        if !status.success() {
            eprintln!("{name}: exit {status}");
            worst = ExitCode::from(1);
        }
    }
    worst
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a non-release build: pass --release");
        return ExitCode::from(2);
    }
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("manifest"), _) => {
            print!("{}", manifest_json());
            ExitCode::SUCCESS
        }
        (None | Some("run"), Some(name)) => run_here(&args, name),
        (Some("trace"), Some(name)) => run_children(&args, &[name], true),
        // A traced run measures the end-to-end metrics with span recording
        // off first, so one child per workload prints both lists: `all` is
        // `trace` over every workload.
        (Some("trace" | "all"), None) => run_children(&args, &all, true),
        _ => {
            eprintln!("usage: benchmark [run|trace|all|manifest] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--scale full|quick]");
            ExitCode::from(2)
        }
    }
}

//! The `serve` binary: generate a corpus, build an engine, serve it.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--objects 20000] [--users 500]
//!       [--seed 42] [--model lm|tfidf|ko] [--workers N]
//!       [--queue-depth N] [--shards N]
//! ```
//!
//! The corpus is the same deterministic Flickr-like stand-in the bench
//! harness uses, so a client driving this process sees the data
//! distribution of the paper's experiments. The engine is built with the
//! user index (every built-in method is servable) and a background
//! refresher rebuilds it once enough mutations landed. `--shards N` (or the
//! `MBRSTK_SHARDS` environment variable; the flag wins, and either must
//! be a number) serves through an [`EngineCluster`]: the one engine with
//! its per-user top-k phase fanned out over N contiguous slices of the
//! user table — answers are bit-identical, only that phase's parallelism
//! changes. `0` or `1` means unsharded.

use std::sync::Arc;

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use mbrstk_core::{Engine, EngineCluster, ServingEngine};
use serve::{ServeConfig, Server};
use text::WeightModel;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--objects N] [--users N] [--seed N]\n\
         \x20            [--model lm|tfidf|ko] [--workers N] [--queue-depth N]\n\
         \x20            [--shards N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = String::from("127.0.0.1:7878");
    let mut objects = 20_000usize;
    let mut users = 500usize;
    let mut seed = 42u64;
    let mut model = WeightModel::LanguageModel { lambda: 0.2 };
    let mut cfg = ServeConfig::default();
    let mut shards: usize =
        std::env::var_os("MBRSTK_SHARDS").map_or(0, |s| parse(&s.to_string_lossy()));

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = val(),
            "--objects" => objects = parse(&val()),
            "--users" => users = parse(&val()),
            "--seed" => seed = parse(&val()),
            "--workers" => cfg.workers = parse(&val()),
            "--queue-depth" => cfg.queue_depth = parse(&val()),
            "--shards" => shards = parse(&val()),
            "--model" => {
                model = match val().as_str() {
                    "lm" => WeightModel::LanguageModel { lambda: 0.2 },
                    "tfidf" => WeightModel::TfIdf,
                    "ko" => WeightModel::KeywordOverlap,
                    other => {
                        eprintln!("unknown --model {other:?} (expected lm|tfidf|ko)");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }

    eprintln!("generating corpus: |O|={objects} |U|={users} seed={seed}");
    let mut corpus = CorpusConfig::flickr_like(objects);
    corpus.seed = seed;
    let object_data = generate_objects(&corpus);
    let workload = generate_workload(
        &object_data,
        &UserGenConfig {
            num_users: users,
            area: 5.0,
            uw: 20,
            ul: 3,
            num_locations: 50,
            seed: seed ^ 0x9e37_79b9,
        },
    );

    eprintln!("building engine (model {model:?}, user index on)");
    let engine = Engine::build(object_data, workload.users, model, 0.5).with_user_index();
    let serving = if shards > 1 {
        eprintln!("scattering the top-k phase over {shards} user-table slices");
        ServingEngine::new_cluster(EngineCluster::from_engine(engine, shards))
    } else {
        ServingEngine::new(engine)
    };
    let _refresher = serving.start_refresher();

    let server = match Server::bind(addr.as_str(), Arc::clone(&serving), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The line tooling greps for: the actual bound address (resolves
    // port 0) on stdout.
    println!("serving on {}", server.local_addr());

    // Serve until killed; the Server's threads do all the work.
    loop {
        std::thread::park();
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid numeric argument {s:?}");
        std::process::exit(2);
    })
}

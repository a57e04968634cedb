//! The joint top-k processor (§5) as a standalone facility.
//!
//! The paper presents joint top-k computation — all users' top-k results
//! from one index traversal — as a contribution "of independent interest".
//! This example uses it directly (no MaxBRSTkNN query at all): a food
//! delivery platform refreshing every customer's top-10 restaurant list,
//! comparing the per-user baseline against the shared traversal.
//!
//! ```sh
//! cargo run --release --example joint_topk_demo
//! ```

use std::time::Instant;

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::mbrstk_core::topk::individual::individual_topk;
use maxbrstknn::mbrstk_core::topk::joint::joint_topk;
use maxbrstknn::prelude::*;

fn main() {
    let objects = generate_objects(&CorpusConfig::flickr_like(20_000));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 1_000,
            area: 8.0,
            uw: 25,
            ul: 3,
            num_locations: 1,
            seed: 99,
        },
    );
    let k = 10;
    let engine = Engine::build(objects, wl.users, WeightModel::lm(), 0.5);

    // --- Baseline: one IR-tree search per user. ---
    engine.io.reset();
    let t0 = Instant::now();
    let base = engine.baseline_user_topk(k);
    let base_ms = t0.elapsed().as_secs_f64() * 1e3;
    let base_io = engine.io.total();

    // --- Joint: one MIR-tree traversal for the super-user, then local
    //     refinement per user (Algorithms 1 + 2). ---
    engine.io.reset();
    let t0 = Instant::now();
    let su = engine.super_user();
    let out = joint_topk(&engine.mir, &su, k, &engine.ctx, &engine.io);
    let joint_results = individual_topk(&engine.users, &out, k, &engine.ctx);
    let joint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let joint_io = engine.io.total();

    // Both must produce identical thresholds.
    for (b, j) in base.iter().zip(&joint_results) {
        assert!((b.rsk - j.rsk).abs() < 1e-9, "user {} differs", b.user);
    }

    println!(
        "top-{k} for {} users over {} objects:",
        joint_results.len(),
        20_000
    );
    println!("  baseline : {base_ms:8.1} ms, {base_io:8} simulated I/Os");
    println!("  joint    : {joint_ms:8.1} ms, {joint_io:8} simulated I/Os");
    println!(
        "  joint saves {:.0}× runtime and {:.0}× I/O, with identical results",
        base_ms / joint_ms,
        base_io as f64 / joint_io as f64
    );
    println!(
        "  retrieved object pool: |LO| = {}, |RO| = {}, RSk(us) = {:.4}",
        out.lo().len(),
        out.ro().len(),
        out.rsk_us
    );

    // Show one user's feed.
    let u = &joint_results[0];
    println!(
        "  sample — user {} top-{k}: {:?}",
        u.user,
        &u.topk[..k.min(u.topk.len())]
    );
}

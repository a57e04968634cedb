//! Integration tests for the extensions beyond the paper: the
//! realized-gain greedy, the warm cache, and text-first construction.

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use maxbrstknn::index::{IndexedObject, PostingMode, StTree};
use maxbrstknn::mbrstk_core::topk::individual::individual_topk;
use maxbrstknn::mbrstk_core::topk::joint::joint_topk;
use maxbrstknn::prelude::*;
use maxbrstknn::storage::IoStats;

fn build() -> (Engine, QuerySpec) {
    let objects = generate_objects(&CorpusConfig::flickr_like(3_000));
    let wl = generate_workload(
        &objects,
        &UserGenConfig {
            num_users: 100,
            area: 8.0,
            uw: 14,
            ul: 3,
            num_locations: 15,
            seed: 4242,
        },
    );
    let engine = Engine::build_with_fanout(objects, wl.users, WeightModel::lm(), 0.5, 8);
    let spec = QuerySpec {
        ox_doc: Document::new(),
        locations: wl.candidate_locations,
        keywords: wl.candidate_keywords,
        ws: 3,
        k: 5,
    };
    (engine, spec)
}

#[test]
fn greedy_plus_sits_between_greedy_and_exact() {
    let (engine, spec) = build();
    let g = engine.query(&spec, Method::JointGreedy);
    let gp = engine.query(&spec, Method::JointGreedyPlus);
    let e = engine.query(&spec, Method::JointExact);
    assert!(gp.cardinality() <= e.cardinality());
    // Not a theorem, but should hold on realistic workloads: the realized-
    // gain greedy is at least as good as the coverage greedy.
    assert!(
        gp.cardinality() + 1 >= g.cardinality(),
        "greedy+ {} far below greedy {}",
        gp.cardinality(),
        g.cardinality()
    );
}

#[test]
fn warm_cache_collapses_baseline_io_but_not_joint() {
    let (engine, spec) = build();

    // Cold baseline vs a big warm cache.
    let cold = IoStats::new();
    let warm = IoStats::with_cache(1 << 20);
    for io in [&cold, &warm] {
        for u in &engine.users {
            maxbrstknn::mbrstk_core::topk::baseline::user_topk_baseline(
                &engine.ir,
                u,
                spec.k,
                &engine.ctx,
                io,
            );
        }
    }
    assert!(
        warm.total() * 10 < cold.total(),
        "warm {} vs cold {}",
        warm.total(),
        cold.total()
    );

    // The joint traversal touches every page once — caching cannot help.
    let jcold = IoStats::new();
    let jwarm = IoStats::with_cache(1 << 20);
    let su = engine.super_user();
    for io in [&jcold, &jwarm] {
        joint_topk(&engine.mir, &su, spec.k, &engine.ctx, io);
    }
    assert_eq!(jcold.total(), jwarm.total());
}

#[test]
fn text_first_tree_gives_identical_topk_results() {
    let (engine, spec) = build();
    let objs: Vec<IndexedObject> = engine
        .objects
        .iter()
        .map(|o| IndexedObject {
            id: o.id,
            point: o.point,
            doc: engine.ctx.text.weigh(&o.doc),
        })
        .collect();
    let tf_tree = StTree::build_text_first(&objs, PostingMode::MaxMin, 8, &engine.ctx.text);

    let io = IoStats::new();
    let su = engine.super_user();
    let out_str = joint_topk(&engine.mir, &su, spec.k, &engine.ctx, &io);
    let out_tf = joint_topk(&tf_tree, &su, spec.k, &engine.ctx, &io);
    let res_str = individual_topk(&engine.users, &out_str, spec.k, &engine.ctx);
    let res_tf = individual_topk(&engine.users, &out_tf, spec.k, &engine.ctx);
    for (a, b) in res_str.iter().zip(&res_tf) {
        assert!(
            (a.rsk - b.rsk).abs() < 1e-9,
            "user {}: STR {} vs text-first {}",
            a.user,
            a.rsk,
            b.rsk
        );
    }
}

#[test]
fn dynamically_inserted_objects_are_queryable_end_to_end() {
    // Build the MIR-tree from 90% of the collection, insert the rest, and
    // verify the joint top-k equals the engine's bulk-built tree.
    let (engine, spec) = build();
    let objs: Vec<IndexedObject> = engine
        .objects
        .iter()
        .map(|o| IndexedObject {
            id: o.id,
            point: o.point,
            doc: engine.ctx.text.weigh(&o.doc),
        })
        .collect();
    let split = objs.len() * 9 / 10;
    let mut grown = StTree::build_with_fanout(&objs[..split], PostingMode::MaxMin, 8);
    for o in &objs[split..] {
        grown.insert(o);
    }
    assert_eq!(grown.num_objects(), objs.len());

    let io = IoStats::new();
    let su = engine.super_user();
    let out_bulk = joint_topk(&engine.mir, &su, spec.k, &engine.ctx, &io);
    let out_grown = joint_topk(&grown, &su, spec.k, &engine.ctx, &io);
    let res_bulk = individual_topk(&engine.users, &out_bulk, spec.k, &engine.ctx);
    let res_grown = individual_topk(&engine.users, &out_grown, spec.k, &engine.ctx);
    for (a, b) in res_bulk.iter().zip(&res_grown) {
        assert!(
            (a.rsk - b.rsk).abs() < 1e-9,
            "user {}: bulk {} vs grown {}",
            a.user,
            a.rsk,
            b.rsk
        );
    }
}

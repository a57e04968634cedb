//! Queries answered through a long-lived [`QueryArena`] (`query_reusing`)
//! are bit-identical to fresh-arena queries (`query`) across all six
//! methods and both codecs, with identical per-query I/O charges.
//! (`alloc_free.rs` runs as a single `#[test]` so nothing perturbs its
//! allocation counter; this claim lives beside it.)
//!
//! The arena keeps its candidate context's text half across queries with
//! the same engine state, `W`, `ox.d` and `ws`. The rest of the file holds
//! one arena across everything that must invalidate it — another engine
//! at the same epoch, a clone mutated apart, every kind of mutation, a
//! refresh, a new `W`, `ox.d` or `ws` — and across §7 queries interleaved
//! with Algorithm 3 ones, also as their number of locations grows and
//! shrinks. Every answer must equal a fresh-arena query's, and
//! `engine_select_context_total{how="reused"}` must say the half was kept
//! exactly when nothing it depends on moved. (A §7 query keeps only
//! the users whose expansion order did not move, and counts as reused
//! only when that is all of them — certain when it repeats the previous
//! §7 query's locations and `k`.)

use geo::Point;
use mbrstk_core::{
    Engine, Method, Mutation, ObjectData, QueryArena, QueryResult, QuerySpec, UserData,
};
use storage::CodecId;
use text::{Document, TermId, WeightModel};

fn t(i: u32) -> TermId {
    TermId(i)
}

fn engine(codec: CodecId) -> Engine {
    let objects: Vec<ObjectData> = (0..90)
        .map(|i| ObjectData {
            id: i,
            point: Point::new((i % 9) as f64, (i / 9) as f64),
            doc: Document::from_pairs([(t(i % 7), 1 + i % 3), (t(7), 1)]),
        })
        .collect();
    let users: Vec<UserData> = (0..18)
        .map(|i| UserData {
            id: i,
            point: Point::new((i % 8) as f64 + 0.3, (i % 6) as f64 + 0.5),
            doc: Document::from_terms([t(i % 7), t(7)]),
        })
        .collect();
    Engine::build_with_fanout_codec(objects, users, WeightModel::lm(), 0.5, 4, codec)
        .with_user_index()
}

fn specs() -> Vec<QuerySpec> {
    (0..8)
        .map(|i| QuerySpec {
            ox_doc: if i % 3 == 0 {
                Document::new()
            } else {
                Document::from_terms([t(7)])
            },
            locations: (0..1 + i % 3)
                .map(|j| Point::new((2 * j + i % 4) as f64 + 0.5, (i % 5) as f64 + 1.0))
                .collect(),
            keywords: vec![t(0), t(1), t(2), t(3), t(4), t(5), t(6)],
            ws: 1 + i % 3,
            k: 2 + i % 3,
        })
        .collect()
}

/// A long-lived arena answers a varied query stream bit-identically to
/// fresh-arena execution, with unchanged per-query I/O charges — six
/// methods, both codecs.
#[test]
fn arena_reuse_is_bit_identical_with_equal_io() {
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        // Two engines built from identical inputs: one serves fresh-arena
        // queries, one serves a reused arena. Separate I/O counters make
        // the per-query charges directly comparable.
        let fresh = engine(codec);
        let reused = engine(codec);
        let specs = specs();
        for m in Method::ALL {
            let mut arena = QueryArena::new();
            let mut out = QueryResult::default();
            for (i, spec) in specs.iter().enumerate() {
                let before_fresh = fresh.io.snapshot();
                let want = fresh.query(spec, m);
                let fresh_io = fresh.io.snapshot() - before_fresh;

                let before_reused = reused.io.snapshot();
                reused.query_reusing(spec, m, &mut arena, &mut out);
                let reused_io = reused.io.snapshot() - before_reused;

                assert_eq!(out, want, "{m:?}/{codec:?} spec {i}: result drifted");
                assert_eq!(
                    reused_io, fresh_io,
                    "{m:?}/{codec:?} spec {i}: I/O charges drifted"
                );
            }
        }
    }
}

/// Queries sharing `W`, `ox.d` and `ws` — the key of the arena's text
/// half — that differ in their locations and `k`.
fn same_text(n: usize) -> Vec<QuerySpec> {
    (0..n)
        .map(|i| QuerySpec {
            ox_doc: Document::from_terms([t(7)]),
            locations: (0..1 + i % 3)
                .map(|j| Point::new(((3 * j + i) % 8) as f64 + 0.5, (i % 5) as f64 + 1.0))
                .collect(),
            keywords: vec![t(0), t(1), t(2), t(3), t(4), t(5), t(6)],
            ws: 2,
            k: 2 + i % 3,
        })
        .collect()
}

/// True for the paths that push users in table order, so that a key hit
/// keeps every user's text columns whatever the locations.
fn table_order(m: Method) -> bool {
    !matches!(m, Method::UserIndexGreedy | Method::UserIndexExact)
}

/// Answers `spec` through `arena` and asserts the answer equals a
/// fresh-arena query's; returns whether the arena kept all of its text
/// half.
fn answer(eng: &Engine, spec: &QuerySpec, m: Method, arena: &mut QueryArena, at: &str) -> bool {
    let reused = || {
        eng.metrics()
            .counter("engine_select_context_total{how=\"reused\"}")
            .get()
    };
    let before = reused();
    let mut out = QueryResult::default();
    eng.query_reusing(spec, m, arena, &mut out);
    let kept = reused() > before;
    assert_eq!(
        out,
        eng.query(spec, m),
        "{m:?} {at}: the arena changed the answer"
    );
    kept
}

/// Two engines built from different data both sit at epoch 0; a clone
/// starts at its original's epoch and, mutated apart, reaches the same
/// epoch with other contents. None of them may read another's text half.
#[test]
fn one_arena_across_engines_and_clones_at_equal_epochs() {
    let a = engine(CodecId::Verbatim);
    let b = {
        let objects: Vec<ObjectData> = (0..70)
            .map(|i| ObjectData {
                id: i,
                point: Point::new((i % 7) as f64 + 0.2, (i / 7) as f64 * 0.8),
                doc: Document::from_pairs([(t(6 - i % 7), 2 + i % 2), (t(7), 1)]),
            })
            .collect();
        let users: Vec<UserData> = (0..18)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 5) as f64 + 1.1, (i % 7) as f64 + 0.2),
                doc: Document::from_terms([t((i + 3) % 7), t(7)]),
            })
            .collect();
        Engine::build_with_fanout_codec(
            objects,
            users,
            WeightModel::lm(),
            0.5,
            4,
            CodecId::Verbatim,
        )
        .with_user_index()
    };
    assert_eq!(a.epoch(), b.epoch());
    let specs = same_text(6);
    for m in [
        Method::JointGreedy,
        Method::UserIndexGreedy,
        Method::Baseline,
    ] {
        let mut arena = QueryArena::new();
        for (i, spec) in specs.iter().enumerate() {
            // Each switch of engine derives the text half afresh.
            assert!(!answer(&a, spec, m, &mut arena, &format!("a, spec {i}")));
            assert!(!answer(&b, spec, m, &mut arena, &format!("b, spec {i}")));
        }
        // A clone is another engine, at the same epoch.
        let mut clone = a.clone();
        assert_eq!(clone.epoch(), a.epoch());
        assert!(!answer(&clone, &specs[0], m, &mut arena, "clone"));
        assert!(answer(&clone, &specs[0], m, &mut arena, "clone again"));
        assert!(!answer(&a, &specs[1], m, &mut arena, "a after its clone"));

        // Mutated apart to one epoch: one gains an object, the other a user.
        let mut twin = a.clone();
        assert!(twin
            .insert_object(ObjectData {
                id: 500,
                point: Point::new(2.5, 3.5),
                doc: Document::from_pairs([(t(1), 3), (t(7), 1)]),
            })
            .is_some());
        assert!(clone
            .insert_user(UserData {
                id: 500,
                point: Point::new(2.5, 3.5),
                doc: Document::from_terms([t(1), t(7)]),
            })
            .is_some());
        assert_eq!(twin.epoch(), clone.epoch());
        for (i, spec) in specs.iter().enumerate() {
            let at = format!("mutated apart, spec {i}");
            assert!(!answer(&twin, spec, m, &mut arena, &at));
            assert!(!answer(&clone, spec, m, &mut arena, &at));
        }
    }
}

/// Every kind of mutation, and a refresh, invalidates the text half; the
/// queries after each, same text and new locations and `k`, keep it (a §7
/// query surely only when it repeats the one before).
#[test]
fn one_arena_across_mutations_and_a_refresh() {
    let built = engine(CodecId::Verbatim);
    let mut specs = same_text(3);
    specs.push(specs[2].clone());
    let mutations = [
        Mutation::InsertObject(ObjectData {
            id: 900,
            point: Point::new(3.3, 4.4),
            doc: Document::from_pairs([(t(2), 4), (t(7), 1)]),
        }),
        Mutation::RemoveObject(11),
        Mutation::InsertUser(UserData {
            id: 900,
            point: Point::new(1.5, 2.5),
            doc: Document::from_terms([t(2), t(5), t(7)]),
        }),
        Mutation::RemoveUser(0),
        Mutation::RemoveUser(9),
        Mutation::InsertObject(ObjectData {
            id: 901,
            point: Point::new(6.1, 0.4),
            doc: Document::from_pairs([(t(5), 1), (t(6), 2)]),
        }),
    ];
    for m in [
        Method::JointGreedy,
        Method::JointExact,
        Method::UserIndexGreedy,
    ] {
        let mut eng = built.clone();
        let mut arena = QueryArena::new();
        for step in mutations.iter().map(Some).chain([None]) {
            let at = match step {
                Some(mutation) => {
                    assert_eq!(eng.apply_batch([mutation.clone()]).applied, 1);
                    format!("after {mutation:?}")
                }
                None => {
                    eng.refresh();
                    "after the refresh".to_string()
                }
            };
            let kept: Vec<bool> = specs
                .iter()
                .map(|spec| answer(&eng, spec, m, &mut arena, &at))
                .collect();
            assert!(!kept[0] && kept[3], "{m:?} {at}: {kept:?}");
            assert!(!table_order(m) || kept[1] && kept[2], "{m:?} {at}");
        }
    }
}

/// A new `W`, `ox.d` or `ws` derives the text half afresh; coming back to
/// an earlier one does too (one half is kept), and repeating it keeps it —
/// with new locations and `k` on the table-order paths, and on every path
/// when nothing moves.
#[test]
fn one_arena_across_changes_of_w_ox_and_ws() {
    let eng = engine(CodecId::Verbatim);
    let base = same_text(1).remove(0);
    let mut variants = vec![base.clone()];
    let mut w = base.clone();
    w.keywords = vec![t(6), t(5), t(4), t(3), t(2), t(1), t(0)];
    variants.push(w);
    let mut fewer = base.clone();
    fewer.keywords.truncate(4);
    variants.push(fewer);
    let mut ox = base.clone();
    ox.ox_doc = Document::new();
    variants.push(ox);
    let mut ox_kw = base.clone();
    ox_kw.ox_doc = Document::from_terms([t(2), t(7)]);
    variants.push(ox_kw);
    let mut ws = base.clone();
    ws.ws = 3;
    variants.push(ws);
    for m in Method::ALL {
        let mut arena = QueryArena::new();
        for (i, spec) in variants.iter().enumerate() {
            let at = format!("variant {i}");
            assert!(!answer(&eng, spec, m, &mut arena, &at));
            let mut moved = spec.clone();
            moved.locations.reverse();
            moved.locations.push(Point::new(7.5, 0.5));
            moved.k += 1;
            let kept = answer(&eng, &moved, m, &mut arena, &at);
            assert!(kept || !table_order(m), "{m:?} {at}");
            assert!(answer(&eng, &moved, m, &mut arena, &at), "{m:?} {at}");
        }
        assert!(!answer(&eng, &base, m, &mut arena, "back to the base"));
    }
}

/// The §7 pipeline keeps its own text half, so alternating it with
/// Algorithm 3 on one arena leaves both kept. The Algorithm 3 queries move
/// their locations and `k`; the §7 ones repeat theirs, so their expansion
/// order, and with it every user's index, stays put.
#[test]
fn one_arena_across_user_index_and_joint_queries() {
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        let eng = engine(codec);
        let mut arena = QueryArena::new();
        let methods = [
            Method::JointGreedy,
            Method::UserIndexGreedy,
            Method::JointGreedyPlus,
            Method::UserIndexExact,
        ];
        let specs = same_text(12);
        for (i, spec) in specs.iter().enumerate() {
            let m = methods[i % methods.len()];
            let spec = if table_order(m) { spec } else { &specs[1] };
            let kept = answer(&eng, spec, m, &mut arena, &format!("{codec:?}, spec {i}"));
            // The first query of each path derives its half.
            assert_eq!(kept, i >= 2, "{m:?}/{codec:?} spec {i}");
        }
    }
}

/// `n` locations spread over the engine's users, shifted by `shift`.
fn spread_locations(n: usize, shift: f64) -> Vec<Point> {
    (0..n)
        .map(|j| Point::new((j % 8) as f64 + shift, ((j / 8) % 6) as f64 + 0.5))
        .collect()
}

/// The §7 pipeline pools its per-location lists, each with its user count
/// and where its groups sit, past a shorter query's locations. One arena
/// alternates §7 and Algorithm 3 queries on 30, then 1–3, then 30
/// locations again; every answer, `brstknn` order included, and every
/// per-query I/O charge (an uncached §7 query reads each MIUR node it
/// expands, once) equal a fresh arena's on a twin engine. The crate's
/// `incremental_frontier_matches_the_scan` holds `users_scored` over the
/// same shapes and asserts that queries end with groups left in their
/// lists.
#[test]
fn one_arena_across_user_index_query_shapes() {
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        let fresh = engine(codec);
        let reused = engine(codec);
        let mut arena = QueryArena::new();
        let mut out = QueryResult::default();
        let shapes = [30, 31, 1, 2, 3, 30, 32];
        let methods = [
            Method::UserIndexGreedy,
            Method::JointGreedy,
            Method::UserIndexExact,
            Method::JointExact,
        ];
        let mut nonempty = 0;
        for (i, &n) in shapes.iter().enumerate() {
            for (j, &m) in methods.iter().enumerate() {
                let spec = QuerySpec {
                    ox_doc: Document::from_terms([t(7)]),
                    locations: spread_locations(n, 0.1 * (i + j) as f64),
                    keywords: vec![t(0), t(1), t(2), t(3), t(4), t(5), t(6)],
                    ws: 2,
                    k: 2 + (i + j) % 3,
                };
                let before = fresh.io.snapshot();
                let want = fresh.query(&spec, m);
                let fresh_io = fresh.io.snapshot() - before;
                let before = reused.io.snapshot();
                reused.query_reusing(&spec, m, &mut arena, &mut out);
                let reused_io = reused.io.snapshot() - before;
                let at = format!("{m:?}/{codec:?}, {n} locations");
                assert_eq!(out, want, "{at}: result drifted");
                assert_eq!(reused_io, fresh_io, "{at}: I/O charges drifted");
                nonempty += usize::from(!want.brstknn.is_empty());
            }
        }
        assert!(nonempty > 20, "{codec:?}: {nonempty} non-empty answers");
    }
}

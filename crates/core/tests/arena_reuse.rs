//! Queries answered through a long-lived [`QueryArena`] (`query_reusing`)
//! are bit-identical to fresh-arena queries (`query`) across all six
//! methods and both codecs, with identical per-query I/O charges.
//! (`alloc_free.rs` runs as a single `#[test]` so nothing perturbs its
//! allocation counter; this claim lives beside it.)

use geo::Point;
use mbrstk_core::{Engine, Method, ObjectData, QueryArena, QueryResult, QuerySpec, UserData};
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

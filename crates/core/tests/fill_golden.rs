//! Golden pin of the engine's top-k fill: its reads and its threshold.
//!
//! `joint_topk_golden` pins the paper's pair (`joint_topk` +
//! `individual_topk`), and every answer test holds the fill's `RSk(u)` to
//! that pair. None of them notices a fill that reads more: answers do not
//! move when the threshold rises later. This test runs
//! `Engine::joint_thresholds` — the fused fill, with its checkpoint at the
//! production trigger — for `k ∈ {1, 10, 20}`, both codecs, on a fused
//! engine and on a cluster of two user slices, over two seeded corpora:
//! one where the trigger fires, and one too small for it to. It compares
//! the fill's node visits, its inverted-file blocks and the bits of the
//! threshold it pruned at against constants captured once. Each row also
//! asserts what the constants stand for: every `RSk(u)` is the paper
//! pair's, bit for bit; where the checkpoint fired, its `T` had reached its
//! final value, the lowest `RSk(u)`, and where it did not, the fill pruned
//! at the paper's `RSk(us)`; and the fill read no more nodes than the
//! paper's traversal. The constants change only when the fill's reads are
//! *meant* to change.

use geo::Point;
use mbrstk_core::topk::individual::individual_topk;
use mbrstk_core::topk::joint::joint_topk;
use mbrstk_core::{Engine, EngineCluster, ObjectData, UserData};
use storage::{CodecId, IoStats};
use text::{Document, TermId, WeightModel};

/// Xorshift stream (the fixture must not depend on another crate's
/// generator staying put).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D))
    }

    fn below(&mut self, m: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % m
    }

    fn coord(&mut self) -> f64 {
        self.below(10_000) as f64 / 100.0
    }
}

const VOCAB: u64 = 1_000;
const USERS: u32 = 200;
const FANOUT: usize = 8;

/// A local tag: one term per 10×10 cell of the dataspace.
fn tag(x: f64, y: f64) -> TermId {
    let cell = |c: f64| (c / 10.0).clamp(0.0, 9.0) as u32;
    TermId(cell(x) + 10 * cell(y))
}

/// Objects over a 100×100 space, each with up to three terms of a
/// background vocabulary and, one in two, its cell's tag; users in a 6×6
/// window of it, each with one to three tags of cells within 10 of it —
/// text that is local, as geotagged text is.
fn engine(objects: u32, codec: CodecId) -> Engine {
    let mut rng = Rng::new(50);
    let objects: Vec<ObjectData> = (0..objects)
        .map(|id| {
            let point = Point::new(rng.coord(), rng.coord());
            let mut terms: Vec<TermId> = (0..rng.below(4))
                .map(|_| {
                    let head = 1 + rng.below(VOCAB);
                    TermId(100 + rng.below(head) as u32)
                })
                .collect();
            if terms.is_empty() || rng.below(2) == 0 {
                terms.push(tag(point.x, point.y));
            }
            let pairs: Vec<(TermId, u32)> = terms
                .into_iter()
                .map(|t| (t, 1 + rng.below(3) as u32))
                .collect();
            ObjectData {
                id,
                point,
                doc: Document::from_pairs(pairs),
            }
        })
        .collect();
    let users: Vec<UserData> = (0..USERS)
        .map(|id| {
            let point = Point::new(40.0 + rng.coord() / 16.0, 40.0 + rng.coord() / 16.0);
            let n = 1 + rng.below(3);
            let mut tags: Vec<TermId> = (0..n)
                .map(|_| {
                    let (dx, dy) = (rng.below(21) as f64 - 10.0, rng.below(21) as f64 - 10.0);
                    tag(point.x + dx, point.y + dy)
                })
                .collect();
            if rng.below(2) == 0 {
                tags.push(TermId(100 + rng.below(8) as u32));
            }
            UserData {
                id,
                point,
                doc: Document::from_terms(tags),
            }
        })
        .collect();
    Engine::build_with_fanout_codec(objects, users, WeightModel::lm(), 0.5, FANOUT, codec)
}

/// `[node visits, inverted-file blocks, bits of the pruning threshold]`
/// per ⟨corpus, codec, slices, k⟩, in loop order (k fastest).
#[rustfmt::skip]
const GOLDEN: &[[u64; 3]] = &[
    [611, 781, 4603617355244730998],
    [638, 808, 4603508099692377772],
    [655, 825, 4603465539904555973],
    [611, 781, 4603617355244730998],
    [638, 808, 4603508099692377772],
    [655, 825, 4603465539904555973],
    [611, 614, 4603617355244730998],
    [638, 641, 4603508099692377772],
    [655, 658, 4603465539904555973],
    [611, 614, 4603617355244730998],
    [638, 641, 4603508099692377772],
    [655, 658, 4603465539904555973],
    [77, 90, 4602266765178112382],
    [77, 90, 4602017279902417500],
    [80, 93, 4601851917202179992],
    [77, 90, 4602266765178112382],
    [77, 90, 4602017279902417500],
    [80, 93, 4601851917202179992],
    [77, 78, 4602266765178112382],
    [77, 78, 4602017279902417500],
    [80, 81, 4601851917202179992],
    [77, 78, 4602266765178112382],
    [77, 78, 4602017279902417500],
    [80, 81, 4601851917202179992],
];

#[test]
fn the_fill_reads_match_golden() {
    let mut got: Vec<[u64; 3]> = Vec::new();
    // The trigger fires on 12,000 objects (after 180 of the traversal's
    // reads) and never on 1,000 (after 96, more than the traversal reads).
    for (objects, fires) in [(12_000, true), (1_000, false)] {
        for codec in CodecId::ALL {
            let fused = engine(objects, codec);
            let su = fused.super_user();
            for slices in [1, 2] {
                let engine = match slices {
                    1 => fused.clone(),
                    n => EngineCluster::from_engine(fused.clone(), n).head().clone(),
                };
                for k in [1, 10, 20] {
                    let what = format!("{objects} objects {codec:?} slices={slices} k={k}");
                    let paper_io = IoStats::new();
                    let paper = joint_topk(&engine.mir, &su, k, &engine.ctx, &paper_io);
                    let paper_io = paper_io.snapshot();
                    let want: Vec<u64> = individual_topk(&engine.users, &paper, k, &engine.ctx)
                        .iter()
                        .map(|t| t.rsk.to_bits())
                        .collect();

                    let before = engine.io.snapshot();
                    let fill = engine.joint_thresholds(k);
                    let after = engine.io.snapshot();
                    let (visits, blocks) = (
                        after.node_visits - before.node_visits,
                        after.invfile_blocks - before.invfile_blocks,
                    );
                    let rsk: Vec<u64> = fill.rsk.iter().map(|r| r.to_bits()).collect();
                    assert_eq!(rsk, want, "{what}: RSk(u)");
                    // Fired, the checkpoint lifted the threshold above the
                    // paper's RSk(us), to its final value, the lowest RSk(u).
                    // Not fired, the fill pruned at the paper's RSk(us).
                    let lowest = fill.rsk.iter().copied().fold(f64::INFINITY, f64::min);
                    if fires {
                        assert!(fill.out.rsk_us > paper.rsk_us, "{what}: no checkpoint");
                        assert_eq!(fill.out.rsk_us.to_bits(), lowest.to_bits(), "{what}: T");
                    } else {
                        assert_eq!(fill.out.rsk_us.to_bits(), paper.rsk_us.to_bits(), "{what}");
                    }
                    assert!(visits <= paper_io.node_visits, "{what}: {visits} reads");
                    got.push([visits, blocks, fill.out.rsk_us.to_bits()]);
                }
            }
        }
    }
    if got != GOLDEN {
        let first = got
            .iter()
            .zip(GOLDEN)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(GOLDEN.len()));
        panic!(
            "first mismatch at row {first} (corpus, codec, slices, k — k fastest)\n  got: &{got:?}"
        );
    }
}

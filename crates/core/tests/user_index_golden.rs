//! Golden pin of the §7 pipeline's expansion order.
//!
//! The differential tests around `select_with_user_index` compare
//! cardinalities or check `scored + pruned = |U|`; none would notice a
//! subtree expanded in a different order, a user scored that used to be
//! pruned, or a `brstknn` list emitted in another sequence. This test
//! replays seeded queries over a four-level MIUR-tree for all three
//! keyword selectors and compares `users_scored`, `users_pruned`, the
//! MIUR node reads of the seeded selection, and the answer (location,
//! keywords, order-sensitive hash of `brstknn`) against constants captured
//! once. The constants only change when the pipeline's observable
//! behaviour is *meant* to change.

use geo::Point;
use index::{IndexedObject, IndexedUser, MiurTree, PostingMode, StTree};
use mbrstk_core::select::location::KeywordSelector;
use mbrstk_core::user_index::{
    compute_user_index_seed, select_with_user_index, select_with_user_index_seeded,
};
use mbrstk_core::{QuerySpec, ScoreContext};
use storage::IoStats;
use text::{Document, TermId, TextScorer, WeightModel};

const VOCAB: u64 = 14;

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

    fn term(&mut self) -> TermId {
        TermId(self.below(VOCAB) as u32)
    }
}

struct Fix {
    ctx: ScoreContext,
    mir: StTree,
    miur: MiurTree,
}

fn fixture() -> Fix {
    let mut rng = Rng::new(7);
    let docs: Vec<Document> = (0..150)
        .map(|_| {
            let n = 2 + rng.below(4);
            Document::from_pairs((0..n).map(|_| (rng.term(), 1 + rng.below(3) as u32)))
        })
        .collect();
    let text = TextScorer::build(WeightModel::lm(), &docs);
    let objects: Vec<IndexedObject> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| IndexedObject {
            id: i as u32,
            point: Point::new(rng.coord(), rng.coord()),
            doc: text.weigh(d),
        })
        .collect();
    // Users in eight spatial clusters, so whole subtrees can be pruned.
    let users: Vec<IndexedUser> = (0..240)
        .map(|i| {
            let (cx, cy) = ((i % 4) as f64 * 25.0, ((i / 4) % 2) as f64 * 50.0);
            let n = 1 + rng.below(4);
            let doc = Document::from_terms((0..n).map(|_| rng.term()));
            IndexedUser {
                id: i as u32,
                point: Point::new(cx + rng.coord() / 5.0, cy + rng.coord() / 3.0),
                norm: text.normalizer(&doc),
                doc,
            }
        })
        .collect();
    let space = geo::Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
    let ctx = ScoreContext::new(0.8, geo::SpatialContext::from_dataspace(&space), text);
    Fix {
        ctx,
        mir: StTree::build_with_fanout(&objects, PostingMode::MaxMin, 8),
        miur: MiurTree::build_with_fanout(&users, 4),
    }
}

fn specs() -> Vec<QuerySpec> {
    let mut rng = Rng::new(11);
    (0..4)
        .map(|i| QuerySpec {
            ox_doc: if i % 2 == 0 {
                Document::from_terms([rng.term(), rng.term()])
            } else {
                Document::new()
            },
            // Jittered around three of the eight user clusters, so far
            // subtrees can go unexpanded.
            locations: (0..5)
                .map(|c| {
                    let (cx, cy) = ((c % 3) as f64 * 25.0, 0.0);
                    Point::new(cx + rng.coord() / 5.0, cy + rng.coord() / 3.0)
                })
                .collect(),
            // Duplicate-prone on purpose: combinations address keywords by
            // position.
            keywords: (0..8).map(|_| rng.term()).collect(),
            ws: [1, 3, 2, 5][i],
            k: [3, 8, 5, 2][i],
        })
        .collect()
}

fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `[users_scored, users_pruned, MIUR node visits and payload blocks of
/// the seeded selection, location, |keywords|, hash(keywords), |brstknn|,
/// hash(brstknn)]` per ⟨selector, spec⟩.
#[rustfmt::skip]
const GOLDEN: &[[u64; 9]] = &[
    [156, 84, 59, 59, 1, 1, 14394277620009763814, 6, 47713540940473212],
    [188, 52, 66, 66, 0, 3, 2887088257561963687, 20, 7843554104743574372],
    [164, 76, 60, 60, 2, 2, 9443098872864273226, 10, 5794423787633275893],
    [136, 104, 52, 52, 4, 5, 8746470344590807787, 8, 15406459387050182229],
    [156, 84, 59, 59, 1, 1, 14394277620009763814, 6, 47713540940473212],
    [188, 52, 66, 66, 0, 3, 2887088257561963687, 20, 7843554104743574372],
    [164, 76, 60, 60, 2, 2, 6650737815821409985, 14, 18084098823654063132],
    [136, 104, 52, 52, 4, 5, 14796185636716517993, 9, 6051533609348104076],
    [156, 84, 59, 59, 1, 1, 14394277620009763814, 6, 47713540940473212],
    [188, 52, 66, 66, 0, 3, 2887088257561963687, 20, 7843554104743574372],
    [164, 76, 60, 60, 2, 2, 3306198302036778831, 14, 18172733274354886757],
    [136, 104, 52, 52, 4, 5, 7094304123011659236, 9, 17784105064934706068],
];

#[test]
fn user_index_pipeline_matches_golden() {
    let f = fixture();
    let mut got: Vec<[u64; 9]> = Vec::new();
    for selector in [
        KeywordSelector::Greedy,
        KeywordSelector::GreedyPlus,
        KeywordSelector::Exact,
    ] {
        for spec in specs() {
            let io = IoStats::new();
            let cold = select_with_user_index(&f.miur, &f.mir, &spec, &f.ctx, selector, &io);

            let seed = compute_user_index_seed(&f.miur, &f.mir, spec.k, &f.ctx, &io);
            let before = io.snapshot();
            let warm = select_with_user_index_seeded(&f.miur, &spec, &f.ctx, selector, &io, &seed);
            let reads = io.snapshot() - before;
            assert_eq!(warm.result, cold.result);
            assert_eq!(warm.users_scored, cold.users_scored);

            let r = &warm.result;
            got.push([
                warm.users_scored as u64,
                warm.users_pruned as u64,
                reads.node_visits,
                reads.invfile_blocks,
                r.location as u64,
                r.keywords.len() as u64,
                fnv(r.keywords.iter().map(|t| u64::from(t.0))),
                r.brstknn.len() as u64,
                fnv(r.brstknn.iter().map(|&u| u64::from(u))),
            ]);
        }
    }
    assert!(
        got.iter().any(|row| row[1] > 0) && got.iter().any(|row| row[7] > 1),
        "fixture must prune some users and find non-trivial answers: {got:?}"
    );
    if got != GOLDEN {
        let first = got
            .iter()
            .zip(GOLDEN)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(GOLDEN.len()));
        panic!("first mismatch at row {first} (selector-major, spec-minor)\n  got: &{got:?}");
    }
}

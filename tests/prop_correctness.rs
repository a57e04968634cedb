//! Randomized cross-validation of the full pipeline against brute force on
//! random small instances.
//!
//! These are the strongest correctness tests in the repository: every
//! pruning rule in Algorithms 1–4 must survive arbitrary geometry, keyword
//! assignments and thresholds. Instances come from the workspace's own
//! seeded generator ([`datagen::rng`]) instead of `proptest` (the registry
//! is unavailable in the build environment), so failures reproduce exactly.
//! Every instance is checked under both record codecs: the oracle reads
//! the tables, never the block files, so each codec must agree with it.

use datagen::rng::{Rng, SeedableRng, StdRng};
use maxbrstknn::prelude::*;

const CASES: usize = 48;

#[derive(Debug, Clone)]
struct Instance {
    objects: Vec<ObjectData>,
    users: Vec<UserData>,
    locations: Vec<Point>,
    keywords: Vec<TermId>,
    ws: usize,
    k: usize,
    alpha: f64,
}

fn point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0))
}

fn doc(rng: &mut StdRng, max_term: u32) -> Document {
    let n = rng.gen_range(1..4usize);
    Document::from_terms((0..n).map(|_| TermId(rng.gen_range(0..max_term as usize) as u32)))
}

fn instance(rng: &mut StdRng) -> Instance {
    let objects = (0..rng.gen_range(6..40usize))
        .enumerate()
        .map(|(i, _)| ObjectData {
            id: i as u32,
            point: point(rng),
            doc: doc(rng, 6),
        })
        .collect();
    let users = (0..rng.gen_range(2..12usize))
        .enumerate()
        .map(|(i, _)| UserData {
            id: i as u32,
            point: point(rng),
            doc: doc(rng, 6),
        })
        .collect();
    let locations = (0..rng.gen_range(1..5usize)).map(|_| point(rng)).collect();
    let mut keywords: Vec<TermId> = (0..rng.gen_range(1..5usize))
        .map(|_| TermId(rng.gen_range(0..6usize) as u32))
        .collect();
    keywords.sort_unstable();
    keywords.dedup();
    Instance {
        objects,
        users,
        locations,
        keywords,
        ws: rng.gen_range(1..3usize),
        k: rng.gen_range(1..5usize),
        alpha: rng.gen_range(0.1..0.9),
    }
}

/// The instance's engine under each record codec, at fanout 4.
fn engines(inst: &Instance, model: WeightModel) -> impl Iterator<Item = (CodecId, Engine)> + '_ {
    CodecId::ALL.into_iter().map(move |codec| {
        let (objects, users) = (inst.objects.clone(), inst.users.clone());
        let engine = Engine::build_with_fanout_codec(objects, users, model, inst.alpha, 4, codec);
        (codec, engine)
    })
}

/// Brute-force per-user top-k threshold.
fn brute_rsk(engine: &Engine, k: usize) -> Vec<f64> {
    engine
        .users
        .iter()
        .map(|u| {
            let ctx = &engine.ctx;
            let mut scores: Vec<f64> = engine
                .objects
                .iter()
                .map(|o| {
                    ctx.combine(
                        ctx.spatial.ss_points(&o.point, &u.point),
                        ctx.text.ts(&o.doc, &u.doc),
                    )
                })
                .collect();
            scores.sort_by(|a, b| b.total_cmp(a));
            if scores.len() >= k {
                scores[k - 1]
            } else {
                f64::NEG_INFINITY
            }
        })
        .collect()
}

/// Brute-force optimum: every ⟨location, keyword subset ≤ ws⟩.
fn brute_optimum(engine: &Engine, spec: &QuerySpec, rsk: &[f64]) -> usize {
    let ref_len = spec.ref_len();
    let subsets = |kws: &[TermId], ws: usize| -> Vec<Vec<TermId>> {
        let mut out = vec![vec![]];
        for &w in kws {
            let mut extended = Vec::new();
            for s in &out {
                if s.len() < ws {
                    let mut t = s.clone();
                    t.push(w);
                    extended.push(t);
                }
            }
            out.extend(extended);
        }
        out
    };
    let mut best = 0;
    for loc in &spec.locations {
        for subset in subsets(&spec.keywords, spec.ws) {
            let cand = spec.ox_doc.with_terms(subset.iter().copied());
            let count = engine
                .users
                .iter()
                .zip(rsk)
                .filter(|(u, &r)| {
                    u.doc.overlaps(&cand) && engine.ctx.sts_candidate(loc, &cand, ref_len, u) >= r
                })
                .count();
            best = best.max(count);
        }
    }
    best
}

/// Joint top-k thresholds equal brute force on random instances.
#[test]
fn joint_topk_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(41);
    for case in 0..CASES {
        let inst = instance(&mut rng);
        for (codec, engine) in engines(&inst, WeightModel::lm()) {
            let want = brute_rsk(&engine, inst.k);
            let (got, _) = engine.joint_user_topk(inst.k);
            for (g, w) in got.iter().zip(&want) {
                if w.is_finite() {
                    assert!(
                        (g.rsk - w).abs() < 1e-9,
                        "case {case} {codec:?} user {}: {} vs {}",
                        g.user,
                        g.rsk,
                        w
                    );
                } else {
                    assert!(g.rsk == f64::NEG_INFINITY, "case {case} {codec:?}");
                }
            }
        }
    }
}

/// The exact pipeline finds the true optimum cardinality.
#[test]
fn exact_query_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(42);
    for case in 0..CASES {
        let inst = instance(&mut rng);
        let spec = QuerySpec {
            ox_doc: Document::new(),
            locations: inst.locations.clone(),
            keywords: inst.keywords.clone(),
            ws: inst.ws,
            k: inst.k,
        };
        for (codec, engine) in engines(&inst, WeightModel::lm()) {
            let engine = engine.with_user_index();
            let rsk = brute_rsk(&engine, inst.k);
            let want = brute_optimum(&engine, &spec, &rsk);
            let got = engine.query(&spec, Method::JointExact);
            assert_eq!(
                got.cardinality(),
                want,
                "case {case} {codec:?}: joint-exact vs brute force"
            );
            let got_ui = engine.query(&spec, Method::UserIndexExact);
            assert_eq!(
                got_ui.cardinality(),
                want,
                "case {case} {codec:?}: user-index-exact vs brute force"
            );
        }
    }
}

/// Greedy never exceeds exact and its result always verifies.
#[test]
fn greedy_result_is_sound() {
    let mut rng = StdRng::seed_from_u64(43);
    for case in 0..CASES {
        let inst = instance(&mut rng);
        let spec = QuerySpec {
            ox_doc: Document::new(),
            locations: inst.locations.clone(),
            keywords: inst.keywords.clone(),
            ws: inst.ws,
            k: inst.k,
        };
        for (codec, engine) in engines(&inst, WeightModel::KeywordOverlap) {
            let e = engine.query(&spec, Method::JointExact);
            let g = engine.query(&spec, Method::JointGreedy);
            assert!(g.cardinality() <= e.cardinality(), "case {case} {codec:?}");
            // Every reported user genuinely qualifies.
            let rsk = brute_rsk(&engine, inst.k);
            let loc = spec.locations[g.location];
            let cand = spec.ox_doc.with_terms(g.keywords.iter().copied());
            for &uid in &g.brstknn {
                let u = &engine.users[uid as usize];
                let sts = engine.ctx.sts_candidate(&loc, &cand, spec.ref_len(), u);
                assert!(sts >= rsk[uid as usize] - 1e-9, "case {case} {codec:?}");
                assert!(u.doc.overlaps(&cand), "case {case} {codec:?}");
            }
        }
    }
}

/// The engine's fused top-k fill (Algorithm 1 with Algorithm 2 run in two
/// parts around one checkpoint) equals the paper's Algorithms 1 + 2 bit
/// for bit: every `RSk(u)`, and every listing score of
/// `Engine::joint_user_topk` against `individual_topk` over `joint_topk`'s
/// outcome — under LM, TF-IDF and KO, both codecs, `k = 1..=30`, on a
/// fused engine and on one whose users are split in three slices.
#[test]
fn fused_thresholds_match_joint_plus_algorithm_2() {
    use maxbrstknn::mbrstk_core::topk::{individual::individual_topk, joint::joint_topk};
    use maxbrstknn::mbrstk_core::{EngineCluster, UserTopk};
    use maxbrstknn::storage::IoStats;
    let bits = |tks: &[UserTopk]| -> Vec<(u64, Vec<u64>)> {
        tks.iter()
            .map(|t| {
                (
                    t.rsk.to_bits(),
                    t.topk.iter().map(|s| s.1.to_bits()).collect(),
                )
            })
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(16);
    let (mut fills, mut lifted) = (0, 0);
    for case in 0..3 {
        let model = [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ][case % 3];
        let mut inst = instance(&mut rng);
        // Enough objects for the checkpoint to fall inside the traversal,
        // and users near the middle, so that it prunes.
        inst.objects = (0..rng.gen_range(200..400usize))
            .map(|id| ObjectData {
                id: id as u32,
                point: point(&mut rng),
                doc: doc(&mut rng, 12),
            })
            .collect();
        for u in &mut inst.users {
            u.point = Point::new(u.point.x / 4.0 + 8.0, u.point.y / 4.0 + 8.0);
        }
        for (codec, engine) in engines(&inst, model) {
            let su = engine.super_user();
            let cluster = EngineCluster::from_engine(engine.clone(), 3);
            for k in 1..=30 {
                let paper = joint_topk(&engine.mir, &su, k, &engine.ctx, &IoStats::new());
                let want = bits(&individual_topk(&engine.users, &paper, k, &engine.ctx));
                for (eng, sliced) in [(&engine, false), (cluster.head(), true)] {
                    let what = format!("case {case} {model:?} {codec:?} k={k} sliced={sliced}");
                    let jt = eng.joint_thresholds(k);
                    let rsk: Vec<u64> = jt.rsk.iter().map(|r| r.to_bits()).collect();
                    assert!(rsk.iter().eq(want.iter().map(|w| &w.0)), "{what}");
                    assert_eq!(bits(&eng.joint_user_topk(k).0), want, "{what}");
                    fills += 1;
                    lifted += usize::from(jt.out.rsk_us > paper.rsk_us);
                }
            }
        }
    }
    assert!(
        lifted > fills / 2,
        "coverage: {lifted} of {fills} fills lifted the threshold"
    );
}

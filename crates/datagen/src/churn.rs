//! Churn workload generation: mixed insert/delete/query streams.
//!
//! Real advert/POI inventories are never static — placements expire,
//! venues open and close, users appear and churn. This module generates
//! deterministic operation streams against an existing collection for the
//! dynamic-update subsystem ([`mbrstk_core::dynamic`]): a configurable
//! fraction of operations are mutations (split between inserts and
//! removes, objects and users), the rest are queries the driver answers
//! against the live engine. The benchmark's `core.dynamic.*` rows record
//! what the mutations cost.

use crate::rng::{Rng, SeedableRng, StdRng};
use geo::Rect;
use mbrstk_core::{Mutation, ObjectData, UserData};
use text::{Document, TermId};

/// Configuration of one generated churn stream.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total operations in the stream (queries + mutations).
    pub ops: usize,
    /// Fraction of operations that are mutations, in `[0, 1]`.
    pub update_ratio: f64,
    /// Among mutations, the fraction targeting users (the rest hit
    /// objects).
    pub user_fraction: f64,
    /// Among mutations, the fraction that insert (the rest remove).
    pub insert_fraction: f64,
    /// Distinct keywords per generated document (inserted objects and
    /// users), at least 1.
    pub doc_terms: usize,
    /// Probability that each keyword draw takes the *first* pool term
    /// instead of a uniform one, in `[0, 1]`. 0 (the default) reproduces
    /// the balanced uniform stream; values near 1 flood one term, walking
    /// the live corpus statistics (`cf/|C|`, `df`) away from any frozen
    /// scorer as fast as possible.
    pub term_skew: f64,
    /// Term frequency given to every keyword of an inserted document
    /// (minimum 1). Values above 1 shift the collection frequency harder
    /// per mutation — drift-heavy streams use this.
    pub term_repeats: u32,
    /// When true, object mutations are emitted as *replacement pairs*: a
    /// removal of a live object whose keywords all lie inside the pool,
    /// immediately followed by an insertion of a fresh object with the
    /// same total token count, drawn from the pool. Replacement keeps
    /// `|O|` and `|C|` exactly invariant, so under TF-IDF and LM only
    /// the pool terms' statistics (`df`, `cf`) move — the *term-local*
    /// drift regime the incremental refresh tier is built for. When no
    /// pool-confined object is live (possible with a pool disjoint from
    /// the seed corpus), the pair degrades to a random removal plus a
    /// default-length insert: populations stay constant but drift leaks
    /// into the removed document's terms.
    pub replace: bool,
    /// RNG seed; equal seeds give equal streams.
    pub seed: u64,
}

impl ChurnConfig {
    /// A balanced default: mutations split evenly between inserts and
    /// removes, a quarter of them on the user side.
    pub fn new(ops: usize, update_ratio: f64) -> Self {
        ChurnConfig {
            ops,
            update_ratio,
            user_fraction: 0.25,
            insert_fraction: 0.5,
            doc_terms: 3,
            term_skew: 0.0,
            term_repeats: 1,
            replace: false,
            seed: 77,
        }
    }

    /// A drift-heavy preset: mutation-only, insert-dominant churn whose
    /// inserted documents flood the first pool term with repeated
    /// occurrences. This is the adversarial workload for a frozen scorer
    /// — `cf/|C|` and `df` move with almost every mutation — and the one
    /// the corpus-refresh subsystem (`mbrstk_core::refresh`) exists to
    /// absorb.
    pub fn drift_heavy(ops: usize) -> Self {
        ChurnConfig {
            user_fraction: 0.05,
            insert_fraction: 0.85,
            doc_terms: 2,
            term_skew: 0.85,
            term_repeats: 4,
            ..ChurnConfig::new(ops, 1.0)
        }
    }

    /// A term-local preset: mutation-only replacement churn over the
    /// keyword pool. Every operation removes a pool-confined live object
    /// and inserts a same-length pool-confined replacement, so `|O|` and
    /// `|C|` never move and only the pool terms drift — the workload
    /// under which incremental refresh I/O is sublinear in the corpus
    /// size (pass a pool that is a small slice of the vocabulary).
    pub fn term_local(ops: usize) -> Self {
        ChurnConfig {
            user_fraction: 0.0,
            doc_terms: 2,
            replace: true,
            ..ChurnConfig::new(ops, 1.0)
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One operation of a churn stream.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Answer one query against the current engine state (the driver
    /// picks the spec).
    Query,
    /// Apply one mutation.
    Mutate(Mutation),
}

/// Generates a churn stream against the given initial collection.
///
/// The stream is *self-consistent*: removals always name an id that is
/// live at that point of the stream (initial ids or earlier inserts), and
/// inserted ids are fresh. The live populations never drop below 2, so
/// applying the stream can never empty an engine. Inserted objects and
/// users draw their locations uniformly from the initial objects' bounding
/// box and their keywords from `pool`.
///
/// With [`ChurnConfig::replace`] set, each object mutation becomes a
/// removal + insertion pair (one *operation*, two [`ChurnOp`]s) that
/// preserves `|O|` and the total token count `|C|` exactly — see the
/// field docs for the term-local drift rationale.
///
/// # Panics
/// Panics when `objects`, `users` or `pool` is empty.
pub fn generate_churn(
    objects: &[ObjectData],
    users: &[UserData],
    pool: &[TermId],
    cfg: &ChurnConfig,
) -> Vec<ChurnOp> {
    assert!(!objects.is_empty(), "churn needs an initial object set");
    assert!(!users.is_empty(), "churn needs an initial user set");
    assert!(!pool.is_empty(), "churn needs a keyword pool");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let space = Rect::bounding(objects.iter().map(|o| o.point)).unwrap();

    let mut live_objects: Vec<u32> = objects.iter().map(|o| o.id).collect();
    let mut live_users: Vec<u32> = users.iter().map(|u| u.id).collect();
    let mut next_object = live_objects.iter().max().unwrap() + 1;
    let mut next_user = live_users.iter().max().unwrap() + 1;
    // Replacement mode: live objects whose keywords all lie inside the
    // pool (with their token counts, so replacements can preserve |C|).
    let mut eligible: Vec<(u32, u64)> = if cfg.replace {
        objects
            .iter()
            .filter(|o| o.doc.terms().all(|t| pool.contains(&t)))
            .map(|o| (o.id, o.doc.len()))
            .collect()
    } else {
        Vec::new()
    };

    let doc = |rng: &mut StdRng| {
        let want = cfg.doc_terms.max(1).min(pool.len());
        let mut terms: Vec<TermId> = Vec::with_capacity(want);
        let mut guard = 0;
        while terms.len() < want && guard < 50 * want {
            guard += 1;
            let t = if cfg.term_skew > 0.0 && rng.gen::<f64>() < cfg.term_skew {
                pool[0]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let tf = cfg.term_repeats.max(1);
        Document::from_pairs(terms.into_iter().map(|t| (t, tf)).collect::<Vec<_>>())
    };
    /// A pool-confined document with exactly `len` tokens over at most
    /// `doc_terms` distinct terms (length preservation for replacement).
    fn doc_with_len(
        rng: &mut StdRng,
        pool: &[TermId],
        doc_terms: usize,
        skew: f64,
        len: u64,
    ) -> Document {
        let want = doc_terms.max(1).min(pool.len()).min(len.max(1) as usize);
        let mut terms: Vec<TermId> = Vec::with_capacity(want);
        let mut guard = 0;
        while terms.len() < want && guard < 50 * want {
            guard += 1;
            let t = if skew > 0.0 && rng.gen::<f64>() < skew {
                pool[0]
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let n = terms.len().max(1) as u64;
        let (base, extra) = (len / n, len % n);
        Document::from_pairs(
            terms
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, (base + u64::from((i as u64) < extra)) as u32))
                .collect::<Vec<_>>(),
        )
    }
    let point = |rng: &mut StdRng| {
        geo::Point::new(
            rng.gen_range(space.min.x..=space.max.x),
            rng.gen_range(space.min.y..=space.max.y),
        )
    };

    let mut out = Vec::with_capacity(cfg.ops);
    for _ in 0..cfg.ops {
        if rng.gen::<f64>() >= cfg.update_ratio {
            out.push(ChurnOp::Query);
            continue;
        }
        let on_users = rng.gen::<f64>() < cfg.user_fraction;

        // Replacement pairs keep the object population and token count
        // invariant; user mutations keep their regular shape.
        if cfg.replace && !on_users {
            let (victim, len) = if eligible.is_empty() {
                // Degraded pair: no pool-confined object is live.
                let pos = rng.gen_range(0..live_objects.len());
                let id = live_objects[pos];
                (
                    id,
                    (cfg.doc_terms.max(1) as u64) * u64::from(cfg.term_repeats.max(1)),
                )
            } else {
                eligible[rng.gen_range(0..eligible.len())]
            };
            let obj_pos = live_objects
                .iter()
                .position(|&id| id == victim)
                .expect("victim is live");
            live_objects.swap_remove(obj_pos);
            if let Some(pos) = eligible.iter().position(|&(id, _)| id == victim) {
                eligible.swap_remove(pos);
            }
            out.push(ChurnOp::Mutate(Mutation::RemoveObject(victim)));

            let id = next_object;
            next_object += 1;
            live_objects.push(id);
            let fresh = doc_with_len(&mut rng, pool, cfg.doc_terms, cfg.term_skew, len);
            eligible.push((id, fresh.len()));
            out.push(ChurnOp::Mutate(Mutation::InsertObject(ObjectData {
                id,
                point: point(&mut rng),
                doc: fresh,
            })));
            continue;
        }

        // Population floor: removals flip to inserts near emptiness.
        let live = if on_users {
            live_users.len()
        } else {
            live_objects.len()
        };
        let insert = rng.gen::<f64>() < cfg.insert_fraction || live <= 2;
        let m = match (on_users, insert) {
            (false, true) => {
                let id = next_object;
                next_object += 1;
                live_objects.push(id);
                Mutation::InsertObject(ObjectData {
                    id,
                    point: point(&mut rng),
                    doc: doc(&mut rng),
                })
            }
            // Unreachable in replace mode (the pair branch above handles
            // every object mutation), so `eligible` needs no upkeep here.
            (false, false) => {
                let pos = rng.gen_range(0..live_objects.len());
                Mutation::RemoveObject(live_objects.swap_remove(pos))
            }
            (true, true) => {
                let id = next_user;
                next_user += 1;
                live_users.push(id);
                Mutation::InsertUser(UserData {
                    id,
                    point: point(&mut rng),
                    doc: doc(&mut rng),
                })
            }
            (true, false) => {
                let pos = rng.gen_range(0..live_users.len());
                Mutation::RemoveUser(live_users.swap_remove(pos))
            }
        };
        out.push(ChurnOp::Mutate(m));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Point;
    use std::collections::HashSet;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn seed_collection() -> (Vec<ObjectData>, Vec<UserData>, Vec<TermId>) {
        let objects: Vec<ObjectData> = (0..30)
            .map(|i| ObjectData {
                id: i,
                point: Point::new((i % 6) as f64, (i / 6) as f64),
                doc: Document::from_terms([t(i % 4)]),
            })
            .collect();
        let users: Vec<UserData> = (0..10)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 5) as f64, 1.0),
                doc: Document::from_terms([t(i % 4)]),
            })
            .collect();
        (objects, users, (0..4).map(t).collect())
    }

    #[test]
    fn stream_is_deterministic() {
        let (o, u, pool) = seed_collection();
        let cfg = ChurnConfig::new(100, 0.4);
        let a = generate_churn(&o, &u, &pool, &cfg);
        let b = generate_churn(&o, &u, &pool, &cfg);
        assert_eq!(a.len(), 100);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    /// The stream is self-consistent: replaying it against id sets never
    /// removes an absent id, never inserts a duplicate, and respects the
    /// population floor.
    #[test]
    fn stream_replays_cleanly() {
        let (o, u, pool) = seed_collection();
        for ratio in [0.2, 0.8, 1.0] {
            let cfg = ChurnConfig {
                user_fraction: 0.5,
                ..ChurnConfig::new(400, ratio)
            };
            let stream = generate_churn(&o, &u, &pool, &cfg);
            let mut objs: HashSet<u32> = o.iter().map(|x| x.id).collect();
            let mut usrs: HashSet<u32> = u.iter().map(|x| x.id).collect();
            let mut mutations = 0usize;
            for op in &stream {
                let ChurnOp::Mutate(m) = op else { continue };
                mutations += 1;
                match m {
                    Mutation::InsertObject(x) => assert!(objs.insert(x.id), "dup object"),
                    Mutation::RemoveObject(id) => assert!(objs.remove(id), "ghost object"),
                    Mutation::InsertUser(x) => assert!(usrs.insert(x.id), "dup user"),
                    Mutation::RemoveUser(id) => assert!(usrs.remove(id), "ghost user"),
                }
                assert!(objs.len() >= 2 && usrs.len() >= 2, "population floor");
            }
            let got = mutations as f64 / stream.len() as f64;
            assert!(
                (got - ratio).abs() < 0.12,
                "update ratio {got} far from requested {ratio}"
            );
        }
    }

    #[test]
    fn zero_ratio_is_pure_queries() {
        let (o, u, pool) = seed_collection();
        let stream = generate_churn(&o, &u, &pool, &ChurnConfig::new(50, 0.0));
        assert!(stream.iter().all(|op| matches!(op, ChurnOp::Query)));
    }

    /// The drift-heavy preset floods the first pool term: most inserted
    /// objects carry it at the configured repeated term frequency, and
    /// the stream is insert-dominant — the adversarial shape for a
    /// frozen scorer.
    #[test]
    fn drift_heavy_stream_floods_the_first_term() {
        let (o, u, pool) = seed_collection();
        let cfg = ChurnConfig::drift_heavy(400).with_seed(9);
        let stream = generate_churn(&o, &u, &pool, &cfg);
        let (mut inserts, mut removes, mut flooded) = (0usize, 0usize, 0usize);
        for op in &stream {
            match op {
                ChurnOp::Mutate(Mutation::InsertObject(x)) => {
                    inserts += 1;
                    if let Some(tf) = x.doc.entries().iter().find(|&&(t, _)| t == pool[0]) {
                        flooded += 1;
                        assert_eq!(tf.1, cfg.term_repeats, "flooded term carries the heavy tf");
                    }
                }
                ChurnOp::Mutate(Mutation::RemoveObject(_)) => removes += 1,
                _ => {}
            }
        }
        assert!(
            inserts > removes * 2,
            "insert-dominant: {inserts} vs {removes}"
        );
        assert!(
            flooded * 10 >= inserts * 8,
            "skew 0.85 must put the flooded term in most inserts ({flooded}/{inserts})"
        );
        // Still deterministic and self-consistent.
        let again = generate_churn(&o, &u, &pool, &cfg);
        assert_eq!(format!("{stream:?}"), format!("{again:?}"));
    }

    /// Replacement churn: `|O|` and `|C|` are exactly invariant at every
    /// prefix of the stream, and every inserted document is confined to
    /// the pool — the term-local drift regime.
    #[test]
    fn term_local_stream_preserves_population_and_token_count() {
        let (o, u, _) = seed_collection();
        // Confine churn to half the vocabulary.
        let pool: Vec<TermId> = (0..2).map(t).collect();
        let cfg = ChurnConfig::term_local(120).with_seed(5);
        let stream = generate_churn(&o, &u, &pool, &cfg);
        assert_eq!(stream.len(), 240, "each op is a remove+insert pair");

        let mut docs: std::collections::HashMap<u32, Document> =
            o.iter().map(|x| (x.id, x.doc.clone())).collect();
        let total_len = |docs: &std::collections::HashMap<u32, Document>| -> u64 {
            docs.values().map(|d| d.len()).sum()
        };
        let (n0, c0) = (docs.len(), total_len(&docs));
        for pair in stream.chunks(2) {
            let [ChurnOp::Mutate(Mutation::RemoveObject(id)), ChurnOp::Mutate(Mutation::InsertObject(x))] =
                pair
            else {
                panic!("replacement stream must alternate remove/insert");
            };
            let removed = docs.remove(id).expect("removal names a live id");
            assert_eq!(x.doc.len(), removed.len(), "token count preserved");
            assert!(
                removed.terms().all(|term| pool.contains(&term)),
                "victims are pool-confined"
            );
            assert!(
                x.doc.terms().all(|term| pool.contains(&term)),
                "replacements are pool-confined"
            );
            assert!(docs.insert(x.id, x.doc.clone()).is_none(), "fresh id");
            assert_eq!(docs.len(), n0, "|O| invariant");
            assert_eq!(total_len(&docs), c0, "|C| invariant");
        }
        // Deterministic like every other stream.
        let again = generate_churn(&o, &u, &pool, &cfg);
        assert_eq!(format!("{stream:?}"), format!("{again:?}"));
    }

    /// With a pool disjoint from every live document, replacement
    /// degrades to random-victim pairs: populations stay constant, but
    /// token counts may move (documented leak).
    #[test]
    fn term_local_degrades_gracefully_without_eligible_victims() {
        let (o, u, _) = seed_collection();
        let pool = vec![t(40), t(41)]; // unseen terms
        let stream = generate_churn(&o, &u, &pool, &ChurnConfig::term_local(20));
        let mut live: std::collections::HashSet<u32> = o.iter().map(|x| x.id).collect();
        let n0 = live.len();
        for pair in stream.chunks(2) {
            let [ChurnOp::Mutate(Mutation::RemoveObject(id)), ChurnOp::Mutate(Mutation::InsertObject(x))] =
                pair
            else {
                panic!("still pairs");
            };
            assert!(live.remove(id));
            assert!(live.insert(x.id));
            assert_eq!(live.len(), n0);
            assert!(x.doc.terms().all(|term| pool.contains(&term)));
        }
    }

    #[test]
    fn inserted_docs_draw_from_the_pool() {
        let (o, u, pool) = seed_collection();
        let stream = generate_churn(&o, &u, &pool, &ChurnConfig::new(300, 1.0));
        for op in &stream {
            if let ChurnOp::Mutate(Mutation::InsertObject(x)) = op {
                assert!(x.doc.num_terms() >= 1);
                for term in x.doc.terms() {
                    assert!(pool.contains(&term));
                }
            }
        }
    }
}

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
    /// the balanced uniform stream; values near 1 flood one term, moving
    /// the corpus statistics (`cf/|C|`, `df`) as far as possible per
    /// mutation.
    pub term_skew: f64,
    /// Term frequency given to every keyword of an inserted document
    /// (minimum 1). Values above 1 shift the collection frequency harder
    /// per mutation — drift-heavy streams use this.
    pub term_repeats: u32,
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
            seed: 77,
        }
    }

    /// A drift-heavy preset: mutation-only, insert-dominant churn whose
    /// inserted documents flood the first pool term with repeated
    /// occurrences, so `cf/|C|`, `df` and one term's largest `tf` move
    /// with almost every mutation — the stream that most tests a scorer's
    /// live statistics.
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
    /// the stream is insert-dominant.
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

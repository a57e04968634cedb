//! Sharded scatter-gather serving: [`EngineCluster`].
//!
//! The MaxBRSTkNN objective is a *count* of qualifying users, and each
//! user's qualification (their `RSk` threshold and rank test) depends on
//! the object corpus and that user alone. The per-user half of the top-k
//! phase (Algorithm 2, or the §4 baseline's per-user traversals) reads the
//! shared `LO`/`RO` outcome — or the shared IR-tree — and one user at a
//! time, so a **shard is a contiguous slice of the engine's user table**:
//! N slices over the *one* object index, fanned out on scoped threads and
//! concatenated back in table order.
//!
//! # Bit-identity by construction
//!
//! A cluster is one [`Engine`] (the **head**: all users, all objects)
//! whose user slices are set. There is no second query path: the head's
//! own threshold fill ([`Engine::joint_thresholds`],
//! [`Engine::baseline_thresholds`]) runs its per-user kernels once per
//! slice instead of once over the table, and the head's unmodified
//! pipeline answers. Every slice scores with the head's own scorer,
//! dataspace and trees, and the per-user kernels (the joint fill's
//! checkpoint and continuation, whose threshold is the minimum over every
//! slice's users; [`crate::topk::baseline::all_users_topk_baseline`])
//! process users independently — so the concatenation *is* the fused
//! result, and a
//! scattered baseline fill charges the head's I/O counter exactly what
//! the fused fill would. The §7 user-index pipelines prune on the
//! MIUR-tree, not per user, and do not scatter.
//!
//! # Mutations, epochs, refresh
//!
//! There is nothing to keep in step: mutations, epochs and refreshes are
//! the head's ([`EngineCluster::apply`], [`EngineCluster::epoch`],
//! [`EngineCluster::refresh_synchronized`] delegate to it), every fill
//! slices whatever user table the head holds at that moment, and clones
//! and refreshes of the head carry its slices.

use crate::cache::ThresholdCache;
use crate::dynamic::{BatchReport, MaintenanceIo, Mutation};
use crate::refresh::RefreshReport;
use crate::{Engine, Method, QueryResult, QuerySpec};

/// One engine answering with its per-user top-k phase scattered over N
/// contiguous slices of its user table. See the module docs for the
/// merge argument.
#[derive(Debug)]
pub struct EngineCluster {
    pub(crate) head: Engine,
}

impl EngineCluster {
    /// Serves `head` through `nshards` user slices. O(1): nothing is
    /// copied or rebuilt — a threshold cache is attached to the head if
    /// missing and one `cluster_scatter_latency_us{shard="i"}` histogram
    /// per slice (the wall time of that slice's share of a fill) is
    /// registered in the head's swap-stable registry, so the serving
    /// layer's metrics export carries them.
    ///
    /// # Panics
    /// Panics when `nshards == 0`.
    pub fn from_engine(mut head: Engine, nshards: usize) -> EngineCluster {
        assert!(nshards >= 1, "a cluster needs at least one shard");
        if head.thresholds.is_none() {
            head.thresholds = Some(ThresholdCache::new());
        }
        let reg = head.metrics.registry();
        head.slices = (0..nshards)
            .map(|i| reg.histogram(&format!("cluster_scatter_latency_us{{shard=\"{i}\"}}")))
            .collect();
        EngineCluster { head }
    }

    /// Number of user slices.
    pub fn shard_count(&self) -> usize {
        self.head.slices.len()
    }

    /// The engine behind the cluster (answers are read from here).
    pub fn head(&self) -> &Engine {
        &self.head
    }

    /// The head engine's epoch.
    pub fn epoch(&self) -> u64 {
        self.head.epoch()
    }

    /// Answers one query on the head, whose top-k fill scatters across
    /// the slices (for the methods it helps) — bit-identical to a fused
    /// [`Engine::query`].
    ///
    /// # Panics
    /// Panics when a user-index method is requested and the head was
    /// built without [`Engine::with_user_index`].
    pub fn query(&self, spec: &QuerySpec, method: Method) -> QueryResult {
        self.head.query(spec, method)
    }

    /// Applies one mutation to the head, like [`Engine`]'s mutation
    /// methods (rejected mutations return `None`).
    pub fn apply(&mut self, mutation: Mutation) -> Option<MaintenanceIo> {
        self.head.apply(mutation)
    }

    /// [`Engine::apply_batch`] on the head.
    pub fn apply_batch(&mut self, mutations: impl IntoIterator<Item = Mutation>) -> BatchReport {
        self.head.apply_batch(mutations)
    }

    /// [`Engine::refresh`] on the head; the refreshed head keeps the
    /// slices.
    pub fn refresh_synchronized(&mut self) -> RefreshReport {
        self.head.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectData, ServingEngine, UserData};
    use geo::Point;
    use mbrstk_obs::MetricsRegistry;
    use std::sync::Arc;
    use text::{Document, TermId, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn obj(id: u32, x: f64, y: f64, term: u32) -> ObjectData {
        ObjectData {
            id,
            point: Point::new(x, y),
            doc: Document::from_pairs([(t(term), 1 + id % 2), (t(7), 1)]),
        }
    }

    fn user(id: u32, x: f64, y: f64, term: u32) -> UserData {
        UserData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(7)]),
        }
    }

    fn fused_with(users: u32) -> Engine {
        let objects: Vec<ObjectData> = (0..60)
            .map(|i| obj(i, (i % 10) as f64, (i / 10) as f64, i % 5))
            .collect();
        let users: Vec<UserData> = (0..users)
            .map(|i| user(i, (i % 8) as f64 + 0.4, (i % 5) as f64 + 0.7, i % 5))
            .collect();
        Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4).with_user_index()
    }

    fn specs() -> Vec<QuerySpec> {
        (0..6)
            .map(|i| QuerySpec {
                ox_doc: Document::from_terms([t(7)]),
                locations: vec![
                    Point::new((i % 3) as f64 + 0.5, 1.2),
                    Point::new(8.0 - (i % 4) as f64, 3.6),
                ],
                keywords: vec![t(0), t(1), t(2), t(3), t(4)],
                ws: 2,
                k: 2 + i % 3,
            })
            .collect()
    }

    fn assert_matches(cluster: &EngineCluster, reference: &Engine, ctx: &str) {
        for spec in &specs() {
            for m in Method::ALL {
                assert_eq!(
                    cluster.query(spec, m),
                    reference.query(spec, m),
                    "{ctx}: {m:?} × {} slices",
                    cluster.shard_count()
                );
            }
        }
    }

    /// Uneven slices, one slice, and more slices than users (2 × 8: six
    /// of the eight are empty ranges).
    #[test]
    fn cluster_matches_fused_for_every_method_and_shard_count() {
        for (users, nshards) in [(17, 1), (17, 2), (17, 3), (17, 5), (2, 8), (2, 1)] {
            let cluster = EngineCluster::from_engine(fused_with(users), nshards);
            assert_eq!(cluster.shard_count(), nshards);
            assert_matches(&cluster, &fused_with(users), &format!("{users} users"));
        }
    }

    #[test]
    fn identity_survives_churn() {
        let mut reference = fused_with(17);
        let mut cluster = EngineCluster::from_engine(fused_with(17), 4);
        let stream = vec![
            Mutation::InsertObject(obj(100, 2.3, 1.1, 0)),
            Mutation::InsertUser(user(40, 3.1, 2.2, 1)),
            Mutation::RemoveObject(3),
            Mutation::RemoveUser(5),
            Mutation::InsertObject(obj(101, 6.0, 4.2, 2)),
            Mutation::RemoveObject(999), // rejected: unknown id
            Mutation::InsertUser(user(40, 0.0, 0.0, 0)), // rejected: duplicate
            Mutation::RemoveUser(12),
        ];
        for m in stream {
            let fused_applied = reference.apply_batch([m.clone()]).applied == 1;
            let cluster_applied = cluster.apply(m).is_some();
            assert_eq!(fused_applied, cluster_applied, "head and fused twin agree");
        }
        assert_matches(&cluster, &reference, "post-churn");
        assert_eq!(cluster.epoch(), reference.epoch());

        // A cluster built from the churned engine (mutations since build,
        // no refresh) slices that engine's own context, so it matches too.
        let rewrapped = EngineCluster::from_engine(reference.clone(), 3);
        assert_matches(&rewrapped, &reference, "churned head");
    }

    #[test]
    fn synchronized_refresh_restores_bit_identity() {
        let mut reference = fused_with(17);
        let mut cluster = EngineCluster::from_engine(fused_with(17), 3);
        // One-sided churn: the LM statistics genuinely move.
        for i in 0..10u32 {
            let m = Mutation::InsertObject(ObjectData {
                id: 300 + i,
                point: Point::new((i % 5) as f64 + 0.2, 2.3),
                doc: Document::from_pairs([(t(0), 3), (t(7), 1)]),
            });
            assert!(cluster.apply(m.clone()).is_some());
            assert_eq!(reference.apply_batch([m]).applied, 1);
        }
        let report = cluster.refresh_synchronized();
        assert_eq!(report.replayed, 0);
        reference.refresh();
        assert_eq!(cluster.head().mutations_since_refresh(), 0);
        assert_matches(&cluster, &reference, "post-refresh");
    }

    /// With no page cache every access is charged, so the scattered
    /// baseline fill must cost the head's counter exactly the fused fill.
    #[test]
    fn scattered_baseline_fill_charges_the_head_io_like_the_fused_fill() {
        let reference = fused_with(17).with_threshold_cache();
        let cluster = EngineCluster::from_engine(fused_with(17), 4);
        assert!(cluster.head().io.cache().is_none());
        let spec = &specs()[0];
        for pass in ["fill", "warm"] {
            assert_eq!(
                cluster.query(spec, Method::Baseline),
                reference.query(spec, Method::Baseline)
            );
            assert!(reference.io.total() > 0);
            assert_eq!(cluster.head().io.total(), reference.io.total(), "{pass}");
        }
    }

    /// Each slice's sample count in `reg`.
    fn scatter_samples(reg: &MetricsRegistry, n: usize) -> Vec<u64> {
        let snap = reg.snapshot();
        (0..n)
            .map(|i| {
                let name = format!("cluster_scatter_latency_us{{shard=\"{i}\"}}");
                snap.histogram(&name).map_or(0, |h| h.count())
            })
            .collect()
    }

    /// No answer can tell a scattered fill from a fused one, so this
    /// counts samples: a cold fill records one in every slice's histogram
    /// on the cluster and on every copy of its head — a clone, a refresh,
    /// a serving engine's refresh and its copy-on-write fallback — and
    /// none on a fused engine that shares the registry.
    #[test]
    fn every_copy_of_the_head_keeps_scattering() {
        const N: usize = 3;
        let fused = fused_with(17);
        let mut cluster = EngineCluster::from_engine(fused.clone(), N);
        let reg = cluster.head().metrics();
        let spec = &specs()[0];
        let one_sample_each = |what: &str, fill: &dyn Fn()| {
            let before = scatter_samples(&reg, N);
            fill();
            let after = scatter_samples(&reg, N);
            let want: Vec<u64> = before.iter().map(|c| c + 1).collect();
            assert_eq!(after, want, "{what}");
        };

        one_sample_each("cluster, joint", &|| {
            cluster.query(spec, Method::JointGreedy);
        });
        one_sample_each("cluster, baseline", &|| {
            cluster.query(spec, Method::Baseline);
        });
        let copy = cluster.head().clone();
        one_sample_each("clone", &|| {
            copy.joint_thresholds(spec.k);
        });
        cluster.refresh_synchronized();
        assert_eq!(cluster.shard_count(), N);
        one_sample_each("refreshed cluster", &|| {
            cluster.head().baseline_thresholds(spec.k);
        });

        let serving = ServingEngine::new_cluster(cluster);
        assert_eq!(serving.shard_count(), N);
        serving.refresh_now();
        assert_eq!(serving.shard_count(), N);
        one_sample_each("serving refresh", &|| {
            serving.query(spec, Method::JointExact);
        });
        let held = serving.snapshot();
        assert!(serving
            .apply(Mutation::InsertUser(user(90, 2.5, 1.5, 2)))
            .is_some());
        assert!(!Arc::ptr_eq(&held, &serving.snapshot()), "copy-on-write");
        drop(held);
        assert_eq!(serving.shard_count(), N);
        one_sample_each("copy-on-write fallback", &|| {
            serving.query(spec, Method::JointGreedy);
        });

        let before = scatter_samples(&reg, N);
        fused.joint_thresholds(spec.k);
        fused.baseline_thresholds(spec.k);
        assert_eq!(scatter_samples(&reg, N), before, "a fused engine");
        assert_eq!(ServingEngine::new(fused).shard_count(), 0);
    }
}

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
//! The cluster never re-implements the selection pipeline. The one
//! [`Engine`] (the **head**: all users, all objects) answers every query;
//! the slices only compute the scattered top-k phase, and the per-user
//! thresholds are installed into the head's [`ThresholdCache`] *before*
//! the head runs its unmodified pipeline. Every slice scores with the
//! head's own scorer, dataspace and trees, and the per-user kernels
//! (`individual_rsk`, [`all_users_topk_baseline`]) process users
//! independently — so the concatenation *is* the fused result, and a
//! scattered baseline fill charges the head's I/O counter exactly what
//! the fused fill would.
//!
//! If the cache slot is evicted (or was never filled because the method
//! bypasses the scatter), the head simply recomputes the fused phase —
//! slower, never wrong.
//!
//! # Mutations, epochs, refresh
//!
//! There is nothing to keep in step: mutations, epochs and refreshes are
//! the head's ([`EngineCluster::apply`], [`EngineCluster::epoch`],
//! [`EngineCluster::refresh_synchronized`] delegate to it), and every
//! scatter slices whatever user table the head holds at that moment. The
//! only cluster state is the slice count.

use std::sync::Arc;
use std::time::Instant;

use mbrstk_obs::Histogram;

use crate::cache::{JointThresholds, ThresholdCache};
use crate::dynamic::{BatchReport, MaintenanceIo, Mutation};
use crate::refresh::RefreshReport;
use crate::topk::baseline::all_users_topk_baseline;
use crate::topk::fan_out_users;
use crate::topk::individual::individual_rsk;
use crate::topk::joint::joint_topk;
use crate::{Engine, Method, QueryArena, QueryResult, QuerySpec, UserData};

/// One engine answering with its per-user top-k phase scattered over N
/// contiguous slices of its user table. See the module docs for the
/// merge argument.
#[derive(Debug)]
pub struct EngineCluster {
    pub(crate) head: Engine,
    /// One `cluster_scatter_latency_us{shard="i"}` histogram per slice
    /// (wall time of that slice's share of a scattered top-k phase),
    /// registered in the head's swap-stable registry so the serving
    /// layer's metrics export carries them. The vector's length *is* the
    /// slice count.
    pub(crate) scatter_latency_us: Vec<Arc<Histogram>>,
}

impl EngineCluster {
    /// Serves `head` through `nshards` user slices. O(1): nothing is
    /// copied or rebuilt — a threshold cache is attached to the head if
    /// missing (the scatter path installs its thresholds through it) and
    /// the per-slice histograms are registered.
    ///
    /// # Panics
    /// Panics when `nshards == 0`.
    pub fn from_engine(mut head: Engine, nshards: usize) -> EngineCluster {
        assert!(nshards >= 1, "a cluster needs at least one shard");
        if head.thresholds.is_none() {
            head.thresholds = Some(ThresholdCache::new());
        }
        let reg = head.metrics.registry();
        let scatter_latency_us = (0..nshards)
            .map(|i| reg.histogram(&format!("cluster_scatter_latency_us{{shard=\"{i}\"}}")))
            .collect();
        EngineCluster {
            head,
            scatter_latency_us,
        }
    }

    /// Number of user slices.
    pub fn shard_count(&self) -> usize {
        self.scatter_latency_us.len()
    }

    /// The engine behind the cluster (answers are read from here).
    pub fn head(&self) -> &Engine {
        &self.head
    }

    /// The head engine's epoch.
    pub fn epoch(&self) -> u64 {
        self.head.epoch()
    }

    /// Answers one query: the per-user top-k phase scatters across the
    /// slices (for the methods it helps), the thresholds land in the
    /// head's cache, and the head's unmodified pipeline produces the
    /// answer — bit-identical to a fused [`Engine::query`].
    ///
    /// # Panics
    /// Panics when a user-index method is requested and the head was
    /// built without [`Engine::with_user_index`].
    pub fn query(&self, spec: &QuerySpec, method: Method) -> QueryResult {
        let (mut arena, mut out) = (QueryArena::new(), QueryResult::default());
        let shards = &self.scatter_latency_us;
        scatter_query(&self.head, shards, spec, method, &mut arena, &mut out);
        out
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

    /// [`Engine::refresh`] on the head; the next scatter slices the
    /// refreshed engine.
    pub fn refresh_synchronized(&mut self) -> RefreshReport {
        self.head.refresh()
    }
}

/// Runs `kernel` over one contiguous slice of `head.users` per histogram
/// in `latency_us`, recording each slice's wall time, and returns the
/// per-user results in table order.
fn scatter<T: Send>(
    head: &Engine,
    latency_us: &[Arc<Histogram>],
    kernel: impl Fn(&[UserData]) -> Vec<T> + Sync,
) -> Vec<T> {
    fan_out_users(&head.users, latency_us.len(), |i, slice| {
        let start = Instant::now();
        let tks = kernel(slice);
        latency_us[i].record_duration_us(start.elapsed());
        tks
    })
}

/// One scattered query: fill the head's threshold cache for `spec.k`
/// from per-slice top-k results (joint and baseline methods; the §7
/// user-index pipelines prune on the MIUR tree, not per user, and run on
/// the head outright), then let the head's unmodified pipeline answer into
/// `out` through the caller's `arena`.
pub(crate) fn scatter_query(
    head: &Engine,
    latency_us: &[Arc<Histogram>],
    spec: &QuerySpec,
    method: Method,
    arena: &mut QueryArena,
    out: &mut QueryResult,
) {
    let tc = head
        .thresholds
        .as_ref()
        .expect("a cluster head always carries a threshold cache");
    let k = spec.k;
    match method {
        Method::JointGreedy | Method::JointGreedyPlus | Method::JointExact => {
            // Mirrors Engine::joint_thresholds' compute closure, with the
            // per-user half scattered. On a warm slot the closure never
            // runs and no scatter happens.
            let _ = tc.joint(k, head.epoch, || {
                let su = head.super_user_shared();
                let out = joint_topk(&head.mir, &su, k, &head.ctx, &head.io);
                let rsk = scatter(head, latency_us, |slice| {
                    individual_rsk(slice, &out, k, &head.ctx)
                });
                JointThresholds { su, out, rsk }
            });
        }
        Method::Baseline => {
            let _ = tc.baseline(k, head.epoch, || {
                scatter(head, latency_us, |slice| {
                    all_users_topk_baseline(&head.ir, slice, k, &head.ctx, &head.io)
                })
            });
        }
        Method::UserIndexGreedy | Method::UserIndexExact => {}
    }
    head.query_reusing(spec, method, arena, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectData, UserData};
    use geo::Point;
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
}

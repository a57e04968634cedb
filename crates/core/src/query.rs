//! [`Engine`]: a convenience facade over the full query pipeline.
//!
//! Builds the scorer, the spatial context and the disk-resident indexes
//! from raw objects/users, then answers `MaxBRSTkNN` queries with any of
//! the paper's methods. The lower-level modules remain public for callers
//! (like the benchmark harness) that need to time pipeline stages
//! separately.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geo::{Rect, SpatialContext};
use index::{IndexedObject, IndexedUser, MiurTree, PostingMode, StTree};
use storage::{CodecId, IoStats};
use text::{TextScorer, WeightModel};

use mbrstk_obs::MetricsRegistry;

use crate::arena::QueryArena;
use crate::cache::{JointThresholds, ThresholdCache};
use crate::metrics::EngineMetrics;
use crate::topk::baseline::all_users_topk_baseline;
use crate::topk::individual::{individual_rsk, individual_topk};
use crate::topk::joint::joint_topk;
use crate::user_index::{compute_user_index_seed, UserIndexSeed};
use crate::{ObjectData, QueryResult, QuerySpec, ScoreContext, UserData, UserGroup, UserTopk};

/// Which of the paper's six end-to-end methods answers the query (a closed
/// set: §4 baseline, §5+§6 joint × three keyword selectors, §7 user index ×
/// two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// §4: per-user top-k on the IR-tree + exhaustive candidate scan.
    Baseline,
    /// §5+§6: joint top-k + Algorithm 3 with greedy keyword selection.
    JointGreedy,
    /// Extension: Algorithm 3 with realized-gain greedy keyword selection
    /// (see [`crate::select::greedy::greedy_plus_keywords`]).
    JointGreedyPlus,
    /// §5+§6: joint top-k + Algorithm 3 with exact keyword selection.
    JointExact,
    /// §7: MIUR-tree pipeline with greedy keyword selection.
    UserIndexGreedy,
    /// §7: MIUR-tree pipeline with exact keyword selection.
    UserIndexExact,
}

impl Method {
    /// Every built-in method, in presentation order.
    pub const ALL: [Method; 6] = [
        Method::Baseline,
        Method::JointGreedy,
        Method::JointGreedyPlus,
        Method::JointExact,
        Method::UserIndexGreedy,
        Method::UserIndexExact,
    ];

    /// Stable kebab-case name (used in logs, metric labels and reports).
    pub fn name(self) -> &'static str {
        match self {
            Method::Baseline => "baseline",
            Method::JointGreedy => "joint-greedy",
            Method::JointGreedyPlus => "joint-greedy-plus",
            Method::JointExact => "joint-exact",
            Method::UserIndexGreedy => "user-index-greedy",
            Method::UserIndexExact => "user-index-exact",
        }
    }

    /// Whether this method needs [`Engine::with_user_index`] (the §7
    /// MIUR-tree pipelines do).
    pub fn requires_user_index(self) -> bool {
        matches!(self, Method::UserIndexGreedy | Method::UserIndexExact)
    }
}

/// A ready-to-query MaxBRSTkNN system: scorer + indexes + data.
#[derive(Debug)]
pub struct Engine {
    /// Combined scoring context (α, `SS`, `TS`). Its text scorer is live:
    /// object mutations keep its counters and maxima exact (see
    /// [`crate::dynamic`]); the dataspace hull behind `SS` is the build's
    /// until a refresh.
    pub ctx: ScoreContext,
    /// The object table.
    pub objects: Vec<ObjectData>,
    /// The user table.
    pub users: Vec<UserData>,
    /// MIR-tree over the objects (max+min postings of the document-only
    /// halves [`TextScorer::weigh`] computes).
    pub mir: StTree,
    /// IR-tree over the objects (max-only postings, for the baseline).
    pub ir: StTree,
    /// Optional MIUR-tree over the users (§7). Its normalizer brackets
    /// depend on the live statistics, so a batch that mutates objects
    /// rebuilds it.
    pub miur: Option<MiurTree>,
    /// Simulated I/O counter shared by every index access. May carry a
    /// sharded page cache ([`Engine::with_page_cache`]).
    pub io: IoStats,
    /// Optional cross-query top-k threshold cache
    /// ([`Engine::with_threshold_cache`]).
    pub thresholds: Option<ThresholdCache>,
    /// Generation counter bumped by every mutation (see
    /// [`crate::dynamic`]); threshold-cache slots and the memoized
    /// super-user are stamped with it, so stale epochs are the
    /// invalidation signal. Crate-private: an external write could rewind
    /// the counter and resurrect stale cache slots — read it through
    /// [`Engine::epoch`] / [`Engine::epoch_guard`].
    pub(crate) epoch: u64,
    /// Process-unique id of this engine value, drawn at build and by
    /// every clone (a refresh is a build). With `epoch` it names the
    /// engine state a [`QueryArena`] derived its candidate-context text
    /// columns from: two builds both start at epoch 0, and a clone can
    /// diverge from its original at the same epoch.
    pub(crate) instance: u64,
    /// Mutations since build or the last refresh: the freed slots and
    /// insert-packed nodes a refresh reclaims and re-tiles, and what
    /// [`crate::RefreshConfig::max_mutations`] watches.
    pub(crate) muts_since_refresh: u64,
    /// 1 + the largest term id any object or user document has named
    /// since build; never decreases. Caps the term ids an insert may name
    /// (see [`Engine::insert_object`]), because corpus statistics are
    /// sized by the largest id.
    pub(crate) term_extent: u64,
    /// Always-on telemetry: per-method latency/I-O histograms plus cache
    /// hit-ratio gauges, with every handle resolved at build so the warm
    /// query path records through relaxed atomics only. Unlike the caches,
    /// the `Arc` is *shared* by clones and refreshes — serving history is
    /// continuous across copy-on-write fallbacks and engine swaps. Read it
    /// through [`Engine::metrics`].
    pub(crate) metrics: Arc<EngineMetrics>,
}

/// A deep copy: tables and disk-resident indexes are duplicated
/// record-for-record, and the epoch counters carry over so snapshots of
/// the original and the clone stay comparable. The simulated I/O counter
/// and both caches restart *cold* with the same configuration (page-cache
/// capacity and shard layout) — cached state is engine-local by design.
/// The metrics registry is the one exception: the clone *shares* it, so
/// telemetry stays continuous across the serving layer's copy-on-write
/// fallbacks. The concurrent serving layer ([`crate::refresh::ServingEngine`])
/// relies on this as its copy-on-write fallback when a mutation races a
/// long-lived reader snapshot.
impl Clone for Engine {
    fn clone(&self) -> Engine {
        Engine {
            ctx: self.ctx.clone(),
            objects: self.objects.clone(),
            users: self.users.clone(),
            mir: self.mir.clone(),
            ir: self.ir.clone(),
            miur: self.miur.clone(),
            io: self.io.fork(),
            thresholds: self.thresholds.as_ref().map(|_| ThresholdCache::new()),
            epoch: self.epoch,
            instance: next_instance(),
            muts_since_refresh: self.muts_since_refresh,
            term_extent: self.term_extent,
            metrics: Arc::clone(&self.metrics),
        }
    }
}

/// The next process-unique [`Engine::instance`].
fn next_instance() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Engine {
    /// `(instance, epoch)`: names this engine's current state for the
    /// candidate-context text columns a [`QueryArena`] keeps across
    /// queries (see [`crate::arena`]).
    #[inline]
    pub(crate) fn state_id(&self) -> (u64, u64) {
        (self.instance, self.epoch)
    }

    /// Builds scorer, spatial context and both object indexes with the
    /// default node fanout.
    ///
    /// # Panics
    /// Panics when `objects` or `users` is empty, two users share an id
    /// (an id names one user, as in [`Engine::insert_user`], which rejects
    /// a taken one), or every location coincides (no dataspace extent).
    pub fn build(
        objects: Vec<ObjectData>,
        users: Vec<UserData>,
        model: WeightModel,
        alpha: f64,
    ) -> Self {
        Self::build_with_fanout(objects, users, model, alpha, index::DEFAULT_MAX_ENTRIES)
    }

    /// [`Engine::build`] with an explicit index fanout, under the default
    /// record codec ([`CodecId::Verbatim`]), as the index crate's own
    /// constructors use.
    pub fn build_with_fanout(
        objects: Vec<ObjectData>,
        users: Vec<UserData>,
        model: WeightModel,
        alpha: f64,
        fanout: usize,
    ) -> Self {
        Self::build_with_fanout_codec(objects, users, model, alpha, fanout, CodecId::default())
    }

    /// [`Engine::build_with_fanout`] with an explicit record codec for
    /// every disk-resident index. The codec travels with the engine:
    /// mutations and corpus refreshes all re-encode with it.
    pub fn build_with_fanout_codec(
        objects: Vec<ObjectData>,
        users: Vec<UserData>,
        model: WeightModel,
        alpha: f64,
        fanout: usize,
        codec: CodecId,
    ) -> Self {
        assert!(!objects.is_empty(), "object set must not be empty");
        assert!(!users.is_empty(), "user set must not be empty");
        let mut ids: Vec<u32> = users.iter().map(|u| u.id).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "user ids must be unique"
        );

        let space = Rect::bounding(
            objects
                .iter()
                .map(|o| o.point)
                .chain(users.iter().map(|u| u.point)),
        )
        .expect("non-empty dataset");
        let spatial = SpatialContext::from_dataspace(&space);

        let text = TextScorer::build(model, objects.iter().map(|o| &o.doc));

        let indexed: Vec<IndexedObject> = objects
            .iter()
            .map(|o| IndexedObject {
                id: o.id,
                point: o.point,
                doc: text.weigh(&o.doc),
            })
            .collect();
        let [mir, ir] = StTree::build_modes(
            &indexed,
            [PostingMode::MaxMin, PostingMode::MaxOnly],
            fanout,
            codec,
        );
        let term_extent = objects
            .iter()
            .map(|o| &o.doc)
            .chain(users.iter().map(|u| &u.doc))
            .map(crate::dynamic::term_end)
            .max()
            .unwrap_or(0);

        Engine {
            ctx: ScoreContext::new(alpha, spatial, text),
            objects,
            users,
            mir,
            ir,
            miur: None,
            io: IoStats::new(),
            thresholds: None,
            epoch: 0,
            instance: next_instance(),
            muts_since_refresh: 0,
            term_extent,
            metrics: EngineMetrics::new(),
        }
    }

    /// Additionally builds the MIUR-tree over the users, enabling the
    /// [`Method::UserIndexGreedy`] / [`Method::UserIndexExact`] paths.
    pub fn with_user_index(mut self) -> Self {
        self.miur = Some(MiurTree::build_with_fanout_codec(
            &self.indexed_users(),
            self.mir.fanout(),
            self.codec(),
        ));
        self
    }

    /// The user table as the MIUR-tree indexes it, each user with its
    /// live normalizer.
    pub(crate) fn indexed_users(&self) -> Vec<IndexedUser> {
        self.users
            .iter()
            .map(|u| IndexedUser {
                id: u.id,
                point: u.point,
                doc: u.doc.clone(),
                norm: self.ctx.text.normalizer(&u.doc),
            })
            .collect()
    }

    /// The record codec every index of this engine is encoded with.
    #[inline]
    pub fn codec(&self) -> CodecId {
        self.mir.codec()
    }

    /// The engine's always-on metrics registry: per-method and per-phase
    /// latency/I-O histograms, cache hit/miss counters and hit-ratio
    /// gauges, recorded by every query since build. Snapshot it
    /// ([`MetricsRegistry::snapshot`]) for JSON export or render the
    /// Prometheus text format directly
    /// ([`MetricsRegistry::render_prometheus`]). The registry is shared
    /// (not forked) by [`Engine::clone`] and carried through corpus
    /// refreshes, so a [`crate::ServingEngine`]'s history is continuous
    /// across swaps.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.metrics.registry())
    }

    /// Byte footprint of every live index record as encoded on disk
    /// (compressed bytes under a compressing codec).
    pub fn physical_index_bytes(&self) -> u64 {
        self.mir.node_bytes()
            + self.mir.invfile_bytes()
            + self.ir.node_bytes()
            + self.ir.invfile_bytes()
            + self
                .miur
                .as_ref()
                .map_or(0, |m| m.node_bytes() + m.intuni_bytes())
    }

    /// Byte footprint the same records would occupy under the
    /// [`CodecId::Verbatim`] codec — the logical (uncompressed) size the
    /// compression ratio is measured against. Equals
    /// [`Engine::physical_index_bytes`] on a Verbatim engine.
    pub fn logical_index_bytes(&self) -> u64 {
        self.mir.logical_bytes()
            + self.ir.logical_bytes()
            + self.miur.as_ref().map_or(0, |m| m.logical_bytes())
    }

    /// Attaches a cross-query top-k threshold cache: per-user `RSk`
    /// thresholds depend only on `(engine, k)`, so with the cache enabled
    /// a batch of same-`k` queries pays the top-k phase (and its simulated
    /// I/O) exactly once. Opt-in because it changes what the paper's
    /// *cold* experiments measure — see [`ThresholdCache`].
    pub fn with_threshold_cache(mut self) -> Self {
        self.thresholds = Some(ThresholdCache::new());
        self
    }

    /// Attaches a sharded LRU page cache of `capacity_blocks` 4 KB blocks
    /// to the simulated I/O counter (warm-cache serving model; keyed index
    /// accesses that hit it are free). Replaces the engine's counter, so
    /// attach it before serving queries.
    pub fn with_page_cache(mut self, capacity_blocks: u64) -> Self {
        self.io = IoStats::with_cache(capacity_blocks);
        self
    }

    /// The super-user over the whole user table.
    pub fn super_user(&self) -> UserGroup {
        UserGroup::from_users(&self.users, &self.ctx.text)
    }

    /// [`Engine::super_user`] behind the threshold cache: computed once
    /// per epoch when the cache is enabled, fresh otherwise. Its
    /// normalizer brackets read the live statistics, so object mutations
    /// move it too; the memo is stamped with the epoch, so a stale group
    /// can never be served even without an eager clear.
    pub fn super_user_shared(&self) -> Arc<UserGroup> {
        match &self.thresholds {
            Some(tc) => tc.super_user(self.epoch, || self.super_user()),
            None => Arc::new(self.super_user()),
        }
    }

    /// The joint top-k phase (Algorithms 1+2) for `k`, served from the
    /// threshold cache when one is attached (only the filling query
    /// charges simulated I/O) and computed fresh otherwise. The result
    /// carries the super-user it ran for, so consumers need no second
    /// `O(users)` group computation.
    pub fn joint_thresholds(&self, k: usize) -> Arc<JointThresholds> {
        let compute = || {
            let su = self.super_user_shared();
            let out = joint_topk(&self.mir, &su, k, &self.ctx, &self.io);
            let rsk = individual_rsk(&self.users, &out, k, &self.ctx);
            JointThresholds { su, out, rsk }
        };
        match &self.thresholds {
            Some(tc) => tc.joint(k, self.epoch, compute),
            None => Arc::new(compute()),
        }
    }

    /// The §4 baseline top-k phase for `k`, served from the threshold
    /// cache when one is attached and computed fresh otherwise.
    pub fn baseline_thresholds(&self, k: usize) -> Arc<Vec<UserTopk>> {
        let compute = || all_users_topk_baseline(&self.ir, &self.users, k, &self.ctx, &self.io);
        match &self.thresholds {
            Some(tc) => tc.baseline(k, self.epoch, compute),
            None => Arc::new(compute()),
        }
    }

    /// The `k`-dependent prefix of the §7 pipeline (MIUR root as
    /// super-user + joint MIR traversal), served from the threshold cache
    /// when one is attached and computed fresh otherwise.
    ///
    /// # Panics
    /// Panics when [`Engine::with_user_index`] was not called.
    pub fn user_index_seed(&self, k: usize) -> Arc<UserIndexSeed> {
        let miur = self
            .miur
            .as_ref()
            .expect("call with_user_index() before querying with a user-index method");
        let compute = || compute_user_index_seed(miur, &self.mir, k, &self.ctx, &self.io);
        match &self.thresholds {
            Some(tc) => tc.user_index(k, self.epoch, compute),
            None => Arc::new(compute()),
        }
    }

    /// Computes every user's top-k with the joint algorithm (§5),
    /// returning the per-user results (including each `RSk(u)`).
    pub fn joint_user_topk(&self, k: usize) -> (Vec<UserTopk>, f64) {
        let jt = self.joint_thresholds(k);
        let tks = individual_topk(&self.users, &jt.out, k, &self.ctx);
        (tks, jt.out.rsk_us)
    }

    /// Computes every user's top-k with the §4 baseline.
    pub fn baseline_user_topk(&self, k: usize) -> Vec<UserTopk> {
        Arc::unwrap_or_clone(self.baseline_thresholds(k))
    }

    /// Answers a `MaxBRSTkNN` query with the chosen method.
    ///
    /// Batch workloads should prefer [`Engine::query_batch`], which fans
    /// specs out across threads and reports per-query costs.
    ///
    /// # Panics
    /// Panics when a user-index method is requested without
    /// [`Engine::with_user_index`].
    pub fn query(&self, spec: &QuerySpec, method: Method) -> QueryResult {
        let mut out = QueryResult::default();
        self.query_reusing(spec, method, &mut QueryArena::new(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Point;
    use text::{Document, TermId};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn engine(model: WeightModel, alpha: f64) -> Engine {
        let objects: Vec<ObjectData> = (0..60)
            .map(|i| ObjectData {
                id: i,
                point: Point::new((i % 10) as f64, (i / 10) as f64),
                doc: Document::from_pairs([(t(i % 6), 1 + i % 2), (t(6), 1)]),
            })
            .collect();
        let users: Vec<UserData> = (0..15)
            .map(|i| UserData {
                id: i,
                point: Point::new((i % 8) as f64 + 0.3, (i % 5) as f64 + 0.6),
                doc: Document::from_terms([t(i % 6), t(6)]),
            })
            .collect();
        Engine::build_with_fanout(objects, users, model, alpha, 4)
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            ox_doc: Document::from_terms([t(6)]),
            locations: vec![
                Point::new(4.0, 2.0),
                Point::new(0.5, 0.5),
                Point::new(9.0, 5.0),
            ],
            keywords: vec![t(0), t(1), t(2), t(3), t(4), t(5)],
            ws: 2,
            k: 4,
        }
    }

    /// All exact methods must agree on the optimum cardinality.
    #[test]
    fn exact_methods_agree() {
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            for alpha in [0.3, 0.7] {
                let eng = engine(model, alpha).with_user_index();
                let s = spec();
                let b = eng.query(&s, Method::Baseline);
                let e = eng.query(&s, Method::JointExact);
                let u = eng.query(&s, Method::UserIndexExact);
                assert_eq!(b.cardinality(), e.cardinality(), "{model:?} α={alpha}");
                assert_eq!(e.cardinality(), u.cardinality(), "{model:?} α={alpha}");
            }
        }
    }

    /// Greedy results never exceed exact and respect the budget.
    #[test]
    fn greedy_methods_bounded() {
        let eng = engine(WeightModel::lm(), 0.5).with_user_index();
        let s = spec();
        let e = eng.query(&s, Method::JointExact);
        for m in [Method::JointGreedy, Method::UserIndexGreedy] {
            let g = eng.query(&s, m);
            assert!(g.cardinality() <= e.cardinality());
            assert!(g.keywords.len() <= s.ws);
        }
    }

    /// Joint and baseline top-k produce identical thresholds.
    #[test]
    fn joint_and_baseline_topk_agree() {
        let eng = engine(WeightModel::lm(), 0.5);
        let (joint, _) = eng.joint_user_topk(3);
        let base = eng.baseline_user_topk(3);
        for (j, b) in joint.iter().zip(&base) {
            assert_eq!(j.user, b.user);
            assert!((j.rsk - b.rsk).abs() < 1e-9, "user {}", j.user);
        }
    }

    /// The realized-gain greedy sits between coverage greedy and exact.
    #[test]
    fn greedy_plus_is_sound_and_competitive() {
        let eng = engine(WeightModel::lm(), 0.5);
        let s = spec();
        let e = eng.query(&s, Method::JointExact);
        let gp = eng.query(&s, Method::JointGreedyPlus);
        assert!(gp.cardinality() <= e.cardinality());
        assert!(gp.keywords.len() <= s.ws);
        // Its reported users genuinely qualify (same invariant as greedy).
        let g = eng.query(&s, Method::JointGreedy);
        assert!(gp.cardinality() >= g.cardinality().saturating_sub(1) || gp.cardinality() > 0);
    }

    #[test]
    #[should_panic(expected = "with_user_index")]
    fn user_index_method_requires_index() {
        let eng = engine(WeightModel::lm(), 0.5);
        eng.query(&spec(), Method::UserIndexExact);
    }

    /// α = 1 is the NP-hardness special case of Lemma 1: score is purely
    /// spatial but the overlap precondition still gates membership.
    #[test]
    fn alpha_one_special_case() {
        let eng = engine(WeightModel::lm(), 1.0).with_user_index();
        let s = spec();
        let b = eng.query(&s, Method::Baseline);
        let e = eng.query(&s, Method::JointExact);
        let u = eng.query(&s, Method::UserIndexExact);
        assert_eq!(b.cardinality(), e.cardinality());
        assert_eq!(e.cardinality(), u.cardinality());
    }

    /// α = 0: purely textual ranking.
    #[test]
    fn alpha_zero_pure_text() {
        let eng = engine(WeightModel::KeywordOverlap, 0.0);
        let s = spec();
        let b = eng.query(&s, Method::Baseline);
        let e = eng.query(&s, Method::JointExact);
        assert_eq!(b.cardinality(), e.cardinality());
    }

    /// An id names one user: answers are id sets, removes go by id, and a
    /// [`QueryArena`] matches kept per-user columns by id.
    #[test]
    #[should_panic(expected = "user ids must be unique")]
    fn build_rejects_duplicate_user_ids() {
        let objects = vec![ObjectData {
            id: 0,
            point: Point::new(0.0, 0.0),
            doc: Document::from_terms([t(0)]),
        }];
        let users: Vec<UserData> = [(4, 1.0), (2, 2.0), (4, 3.0)]
            .into_iter()
            .map(|(id, x)| UserData {
                id,
                point: Point::new(x, x),
                doc: Document::from_terms([t(0)]),
            })
            .collect();
        Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4);
    }

    /// Users stacked on identical locations (the generator samples user
    /// locations with replacement) must not break anything.
    #[test]
    fn duplicate_user_locations() {
        let objects: Vec<ObjectData> = (0..30)
            .map(|i| ObjectData {
                id: i,
                point: Point::new((i % 6) as f64, (i / 6) as f64),
                doc: Document::from_terms([t(i % 3), t(3)]),
            })
            .collect();
        let users: Vec<UserData> = (0..10)
            .map(|i| UserData {
                id: i,
                point: Point::new(2.0, 2.0), // everyone in one spot
                doc: Document::from_terms([t(i % 3), t(3)]),
            })
            .collect();
        let eng =
            Engine::build_with_fanout(objects, users, WeightModel::lm(), 0.5, 4).with_user_index();
        let s = QuerySpec {
            ox_doc: Document::new(),
            locations: vec![Point::new(2.0, 2.0), Point::new(5.0, 4.0)],
            keywords: vec![t(0), t(1), t(2), t(3)],
            ws: 2,
            k: 3,
        };
        let b = eng.query(&s, Method::Baseline);
        let e = eng.query(&s, Method::JointExact);
        let u = eng.query(&s, Method::UserIndexExact);
        assert_eq!(b.cardinality(), e.cardinality());
        assert_eq!(e.cardinality(), u.cardinality());
        assert!(e.cardinality() > 0);
    }

    /// The joint method costs (much) less I/O than the baseline for the
    /// same top-k work — the paper's central claim.
    #[test]
    fn joint_topk_uses_less_io_than_baseline() {
        let eng = engine(WeightModel::lm(), 0.5);
        eng.io.reset();
        let _ = eng.joint_user_topk(4);
        let joint_io = eng.io.total();
        eng.io.reset();
        let _ = eng.baseline_user_topk(4);
        let base_io = eng.io.total();
        assert!(
            joint_io < base_io,
            "joint {joint_io} should be below baseline {base_io}"
        );
    }
}

//! Dynamic updates: epoch-versioned mutations with incremental index
//! maintenance and cache invalidation.
//!
//! The paper evaluates static object/user sets; a serving system must
//! absorb inserts and deletes without a full rebuild. This module makes
//! [`Engine`] updatable:
//!
//! * **Mutation API** — [`Engine::insert_object`] /
//!   [`Engine::remove_object`] / [`Engine::insert_user`] /
//!   [`Engine::remove_user`], plus [`Engine::apply_batch`] over
//!   [`Mutation`] streams (an object method is a batch of one). Object
//!   mutations maintain both disk-resident object trees (MIR + IR)
//!   incrementally and the scorer's counters in O(|d|); user mutations
//!   maintain the MIUR-tree, repairing the IntUni vectors, user counts and
//!   normalizer brackets along the affected root-to-leaf path.
//! * **Epoch versioning** — every mutation bumps the engine's generation
//!   counter. Rust's borrow rules already guarantee snapshot consistency
//!   (mutations take `&mut Engine`, so no query can run concurrently with
//!   one, and an entire `query_batch` sees one frozen engine); the epoch
//!   makes the generation *observable*: an [`EpochGuard`] taken before a
//!   batch tells a serving layer, after releasing the borrow, whether its
//!   results — or any derived state it kept — came from a stale snapshot.
//!   Threshold-cache slots are stamped with the epoch, so stale epochs are
//!   the invalidation signal even if an eager clear were ever missed.
//! * **Invalidation wiring** — every mutation flushes the page-cache keys
//!   of the records it rewrote (see [`index::TreeEdit`]) from the engine's
//!   [`storage::ShardedLru`], and clears the
//!   [`ThresholdCache`](crate::ThresholdCache) — every per-`k` map and the
//!   memoized super-user, whose normalizer brackets read the live
//!   statistics.
//!
//! # Live statistics
//!
//! The trees store the document-only half `x` of every weight (see the
//! `text` crate), which no other document's arrival or departure changes.
//! An object mutation updates `df`, `cf`, `|O|` and `|C|` and the touched
//! terms' maxima of `x` — an insert raises them, a remove reads them back
//! from the MIR root's entry aggregates, which the tree edit just made
//! exact. The MIUR-tree's stored `N(u)` brackets all move with the
//! statistics, so a batch that mutated objects ends with a rebuild of
//! that tree — once per batch: no query sees a batch half applied. Weights are
//! applied at read time, so after any mutation every answer is the one a
//! cold [`Engine::build`] over the surviving objects and users gives, as
//! long as the dataspace hull (the spatial normalizer, kept from the build
//! until a refresh) is the same — the mutation-equivalence suite pins this
//! under all three models.
//!
//! # Term extent
//!
//! Corpus statistics are dense arrays sized by the largest term id, so
//! one inserted document naming a huge id would make the statistics, and
//! the next refresh, allocate by that id's value. An insert is therefore
//! rejected when it names an id at or past the engine's term extent plus
//! the document's own term count: the extent grows at most by what a
//! client sends, never by the value of one id. An insert whose location
//! has a NaN or infinite coordinate is rejected as well.
//!
//! # Cost model
//!
//! Maintenance I/O follows the paper's accounting (1 simulated I/O per
//! node record, ⌈bytes/4096⌉ per textual payload) but lands in the
//! returned [`MaintenanceIo`], not the engine's query-side counter —
//! mutating must not pollute the query metrics. The benchmark's
//! `core.dynamic.maint_io_per_mutation` row records this incremental cost;
//! [`Engine::rebuild_io_cost`] is the rebuild it is measured against.

use geo::Point;
use index::{IndexedObject, IndexedUser, NodeScratch, PostingsScratch, StTree, TreeEdit};
use storage::IoStats;
use text::{Document, TermId};

use crate::{Engine, ObjectData, UserData};

/// One engine mutation, for batch application and generated churn
/// streams.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Add an object (id must be unused).
    InsertObject(ObjectData),
    /// Remove the object with this id.
    RemoveObject(u32),
    /// Add a user (id must be unused).
    InsertUser(UserData),
    /// Remove the user with this id.
    RemoveUser(u32),
}

/// Simulated I/O one mutation (or batch) spent maintaining the indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceIo {
    /// Reads while locating and repairing affected paths.
    pub reads: u64,
    /// Node records written.
    pub node_writes: u64,
    /// 4 KB blocks of textual payload written.
    pub payload_blocks: u64,
}

impl MaintenanceIo {
    /// Total simulated maintenance I/O.
    pub fn total(&self) -> u64 {
        self.reads + self.node_writes + self.payload_blocks
    }
}

impl std::ops::AddAssign for MaintenanceIo {
    fn add_assign(&mut self, rhs: MaintenanceIo) {
        self.reads += rhs.reads;
        self.node_writes += rhs.node_writes;
        self.payload_blocks += rhs.payload_blocks;
    }
}

/// Outcome of [`Engine::apply_batch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchReport {
    /// Mutations applied.
    pub applied: usize,
    /// Mutations rejected (duplicate insert id, unknown remove id).
    pub rejected: usize,
    /// Total maintenance I/O of the applied mutations.
    pub io: MaintenanceIo,
}

/// A snapshot of the engine's generation counter.
///
/// Take one before running queries whose results (or derived state) will
/// outlive the `&Engine` borrow; once the borrow is released and mutations
/// may have run, [`EpochGuard::is_current`] says whether those results
/// still describe the live engine. In-flight queries never see a torn
/// state — `&mut` exclusivity guarantees mutations wait for them — so a
/// stale guard means "computed against a consistent but older snapshot".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochGuard {
    epoch: u64,
}

impl EpochGuard {
    /// The generation this guard was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when no mutation has run since the guard was taken.
    pub fn is_current(&self, engine: &Engine) -> bool {
        self.epoch == engine.epoch()
    }
}

/// 1 + the largest term id `doc` names (0 for an empty document).
pub(crate) fn term_end(doc: &Document) -> u64 {
    doc.entries().last().map_or(0, |&(t, _)| u64::from(t.0) + 1)
}

/// The largest stored value of each of `terms` (ascending) under `tree`:
/// the max over the root's entry aggregates, 0 for a term no object holds.
/// Maintenance bookkeeping, so no query I/O is charged.
fn root_maxima(tree: &StTree, terms: &[TermId]) -> Vec<f64> {
    let (io, mut node, mut postings) = (
        IoStats::new(),
        NodeScratch::default(),
        PostingsScratch::default(),
    );
    let root = tree.read_node_ref(tree.root(), &io, &mut node);
    let rows = tree.read_postings_ref(&root, terms, &io, &mut postings);
    let mut maxima = vec![0.0f64; terms.len()];
    for i in 0..rows.len() {
        for &(t, max, _) in rows.entry(i) {
            let slot = &mut maxima[terms.binary_search(&t).expect("rows hold wanted terms")];
            *slot = slot.max(max);
        }
    }
    maxima
}

impl Engine {
    /// The engine's generation counter (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Captures the current generation (see [`EpochGuard`]).
    pub fn epoch_guard(&self) -> EpochGuard {
        EpochGuard { epoch: self.epoch }
    }

    /// Inserts an object into the table, both object indexes (MIR and
    /// IR) and the live statistics, and rebuilds the MIUR-tree (see the
    /// module docs). Returns `None` without touching anything when the id
    /// is already in use, when a coordinate is not finite, or when the
    /// document names a term id at or past the term extent plus its own
    /// term count.
    pub fn insert_object(&mut self, obj: ObjectData) -> Option<MaintenanceIo> {
        self.apply(Mutation::InsertObject(obj))
    }

    /// Removes the object with `id` from the table, both object indexes
    /// and the live statistics, and rebuilds the MIUR-tree. Returns `None`
    /// when the id is unknown, or when it names the last object — an
    /// engine over an empty object set is not queryable, and a client must
    /// not be able to make it so.
    pub fn remove_object(&mut self, id: u32) -> Option<MaintenanceIo> {
        self.apply(Mutation::RemoveObject(id))
    }

    /// [`Engine::insert_object`] without the MIUR rebuild.
    fn put_object(&mut self, obj: ObjectData) -> Option<MaintenanceIo> {
        if !self.admits(&obj.point, &obj.doc) || self.objects.iter().any(|o| o.id == obj.id) {
            return None;
        }
        let indexed = IndexedObject {
            id: obj.id,
            point: obj.point,
            doc: self.ctx.text.weigh(&obj.doc),
        };
        let mut io = MaintenanceIo::default();
        let edit = self.mir.insert(&indexed);
        self.flush_edit(edit, &mut io);
        let edit = self.ir.insert(&indexed);
        self.flush_edit(edit, &mut io);
        self.ctx.text.add_doc(&obj.doc);
        self.term_extent = self.term_extent.max(term_end(&obj.doc));
        self.objects.push(obj);
        self.finish_mutation();
        Some(io)
    }

    /// [`Engine::remove_object`] without the MIUR rebuild.
    fn take_object(&mut self, id: u32) -> Option<MaintenanceIo> {
        let pos = self.objects.iter().position(|o| o.id == id)?;
        if self.objects.len() == 1 {
            return None;
        }
        let point = self.objects[pos].point;
        let mut io = MaintenanceIo::default();
        let edit = self.mir.remove(id, point).expect("object indexed in MIR");
        self.flush_edit(edit, &mut io);
        let edit = self.ir.remove(id, point).expect("object indexed in IR");
        self.flush_edit(edit, &mut io);
        let gone = self.objects.remove(pos);
        let terms: Vec<TermId> = gone.doc.terms().collect();
        let live_max = root_maxima(&self.mir, &terms);
        self.ctx.text.remove_doc(&gone.doc, &live_max);
        self.finish_mutation();
        Some(io)
    }

    /// Inserts a user into the table and, when built, the MIUR-tree (with
    /// its live normalizer). Returns `None` when the id is already in use,
    /// a coordinate is not finite or the document names too large a term
    /// id (as for [`Engine::insert_object`]).
    pub fn insert_user(&mut self, user: UserData) -> Option<MaintenanceIo> {
        if !self.admits(&user.point, &user.doc) || self.users.iter().any(|u| u.id == user.id) {
            return None;
        }
        let mut io = MaintenanceIo::default();
        let indexed = IndexedUser {
            id: user.id,
            point: user.point,
            doc: user.doc.clone(),
            norm: self.ctx.text.normalizer(&user.doc),
        };
        let edit = self.miur.as_mut().map(|miur| miur.insert(&indexed));
        if let Some(edit) = edit {
            self.flush_edit(edit, &mut io);
        }
        self.term_extent = self.term_extent.max(term_end(&user.doc));
        self.users.push(user);
        self.finish_mutation();
        Some(io)
    }

    /// Removes the user with `id` from the table and the MIUR-tree.
    /// Returns `None` when the id is unknown, or when it names the last
    /// user (see [`Engine::remove_object`]).
    pub fn remove_user(&mut self, id: u32) -> Option<MaintenanceIo> {
        let pos = self.users.iter().position(|u| u.id == id)?;
        if self.users.len() == 1 {
            return None;
        }
        let point = self.users[pos].point;
        let mut io = MaintenanceIo::default();
        if let Some(miur) = self.miur.as_mut() {
            let edit = miur.remove(id, point).expect("user indexed in MIUR");
            self.flush_edit(edit, &mut io);
        }
        self.users.remove(pos);
        self.finish_mutation();
        Some(io)
    }

    /// Applies one mutation as a batch of one (`None` when it is
    /// rejected).
    pub(crate) fn apply(&mut self, mutation: Mutation) -> Option<MaintenanceIo> {
        let report = self.apply_batch([mutation]);
        (report.applied == 1).then_some(report.io)
    }

    /// Applies a stream of mutations in order, aggregating what happened.
    /// Rejected mutations (duplicate insert ids, unknown remove ids) are
    /// counted and skipped; the rest of the batch still applies. When an
    /// object mutation applied, the batch ends with a rebuild of the
    /// MIUR-tree (its I/O is in the report).
    pub fn apply_batch(&mut self, mutations: impl IntoIterator<Item = Mutation>) -> BatchReport {
        let mut report = BatchReport::default();
        let mut stats_moved = false;
        for m in mutations {
            let on_objects = matches!(m, Mutation::InsertObject(_) | Mutation::RemoveObject(_));
            let applied = match m {
                Mutation::InsertObject(o) => self.put_object(o),
                Mutation::RemoveObject(id) => self.take_object(id),
                Mutation::InsertUser(u) => self.insert_user(u),
                Mutation::RemoveUser(id) => self.remove_user(id),
            };
            match applied {
                Some(io) => {
                    report.applied += 1;
                    report.io += io;
                    stats_moved |= on_objects;
                }
                None => report.rejected += 1,
            }
        }
        if stats_moved {
            self.rebracket_users(&mut report.io);
        }
        report
    }

    /// Simulated I/O a full index rebuild would cost right now: writing
    /// every live node record and textual payload of the MIR, IR and (when
    /// built) MIUR trees. The yardstick incremental maintenance is
    /// measured against — see the `tests/dynamic_updates.rs` acceptance
    /// bound.
    pub fn rebuild_io_cost(&self) -> u64 {
        self.mir.footprint_io()
            + self.ir.footprint_io()
            + self.miur.as_ref().map_or(0, |m| m.footprint_io())
    }

    /// The insert-boundary rule: the location is finite (a NaN or
    /// infinite coordinate breaks every distance, and the trees could not
    /// find the entry again to remove it), and the document names ids up
    /// to the term extent plus its own term count, so each insert can
    /// extend the vocabulary by at most the terms it carries.
    fn admits(&self, point: &Point, doc: &Document) -> bool {
        point.is_finite() && term_end(doc) <= self.term_extent + doc.num_terms() as u64
    }

    /// Folds a tree edit into the running maintenance tally and flushes
    /// its stale pages from the attached page cache (if any).
    fn flush_edit(&self, edit: TreeEdit, io: &mut MaintenanceIo) {
        self.io.evict_keys(edit.stale_keys.iter().copied());
        io.reads += edit.read_ios;
        io.node_writes += edit.node_writes;
        io.payload_blocks += edit.payload_blocks;
    }

    /// Re-brackets every user normalizer after the statistics moved: the
    /// MIUR-tree (when built) is bulk loaded again over the live table.
    fn rebracket_users(&mut self, io: &mut MaintenanceIo) {
        if self.miur.is_none() {
            return;
        }
        let users = self.indexed_users();
        let edit = self.miur.as_mut().map(|miur| miur.rebuild(&users));
        if let Some(edit) = edit {
            self.flush_edit(edit, io);
        }
    }

    /// Post-mutation bookkeeping: bump the epoch and the refresh counter
    /// and drop every threshold-cache entry, the memoized super-user
    /// included.
    fn finish_mutation(&mut self) {
        self.epoch += 1;
        self.muts_since_refresh += 1;
        if let Some(tc) = &self.thresholds {
            tc.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, QuerySpec};
    use text::{Document, TermId, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn obj(id: u32, x: f64, y: f64, term: u32) -> ObjectData {
        ObjectData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn user(id: u32, x: f64, y: f64, term: u32) -> UserData {
        UserData {
            id,
            point: Point::new(x, y),
            doc: Document::from_terms([t(term), t(9)]),
        }
    }

    fn engine() -> Engine {
        let objects: Vec<ObjectData> = (0..40)
            .map(|i| obj(i, (i % 8) as f64, (i / 8) as f64, i % 4))
            .collect();
        let users: Vec<UserData> = (0..10)
            .map(|i| user(i, (i % 6) as f64 + 0.4, (i % 4) as f64 + 0.3, i % 4))
            .collect();
        Engine::build_with_fanout(objects, users, WeightModel::KeywordOverlap, 0.5, 4)
            .with_user_index()
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            ox_doc: Document::from_terms([t(9)]),
            locations: vec![Point::new(2.0, 1.5), Point::new(6.0, 3.0)],
            keywords: vec![t(0), t(1), t(2), t(3)],
            ws: 2,
            k: 3,
        }
    }

    #[test]
    fn mutations_bump_the_epoch_and_guards_notice() {
        let mut eng = engine();
        let guard = eng.epoch_guard();
        assert!(guard.is_current(&eng));
        eng.insert_object(obj(100, 3.5, 3.5, 1)).unwrap();
        assert!(!guard.is_current(&eng));
        assert_eq!(eng.epoch(), guard.epoch() + 1);
        eng.remove_user(0).unwrap();
        assert_eq!(eng.epoch(), guard.epoch() + 2);
    }

    #[test]
    fn duplicate_insert_and_unknown_remove_are_rejected() {
        let mut eng = engine();
        let before = eng.epoch();
        assert!(eng.insert_object(obj(0, 1.0, 1.0, 0)).is_none());
        assert!(eng.remove_object(999).is_none());
        assert!(eng.insert_user(user(0, 1.0, 1.0, 0)).is_none());
        assert!(eng.remove_user(999).is_none());
        assert_eq!(eng.epoch(), before, "rejected mutations must not bump");
        assert_eq!(eng.objects.len(), 40);
        assert_eq!(eng.users.len(), 10);
    }

    /// One huge term id is rejected with nothing changed (the statistics
    /// would size themselves by that id's value); an insert that adds
    /// exactly `num_terms` new dense ids is accepted and raises the
    /// extent.
    #[test]
    fn inserts_past_the_term_extent_are_rejected() {
        let mut eng = engine();
        assert_eq!(eng.term_extent, 10, "build-time terms are 0..=3 and 9");
        let counters = |e: &Engine| (e.epoch(), e.mutations_since_refresh(), e.objects.len());
        let before = counters(&eng);
        let at = |doc: Document| ObjectData {
            id: 100,
            point: Point::new(1.0, 1.0),
            doc,
        };
        let huge = Document::from_terms([t(u32::MAX - 1)]);
        assert!(eng.insert_object(at(huge.clone())).is_none());
        assert!(eng
            .insert_user(UserData {
                id: 100,
                point: Point::new(1.0, 1.0),
                doc: huge,
            })
            .is_none());
        // Two terms may reach id 11; naming 12 is one past.
        assert!(eng
            .insert_object(at(Document::from_terms([t(10), t(12)])))
            .is_none());
        assert_eq!(counters(&eng), before, "rejected inserts change nothing");
        assert_eq!(eng.users.len(), 10);
        assert_eq!(eng.term_extent, 10);

        assert!(eng
            .insert_object(at(Document::from_terms([t(10), t(11)])))
            .is_some());
        assert_eq!(eng.term_extent, 12);
        assert_eq!(eng.ctx.text.stats().vocab_len(), 12);
    }

    /// A NaN or infinite coordinate is rejected with nothing changed: the
    /// trees could not find such an entry again to remove it, and every
    /// later query would score against it.
    #[test]
    fn inserts_at_non_finite_coordinates_are_rejected() {
        let mut eng = engine();
        let before = (eng.epoch(), eng.mutations_since_refresh());
        let answer = eng.query(&spec(), Method::JointGreedy);
        for (x, y) in [
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
        ] {
            assert!(eng.insert_object(obj(100, x, y, 1)).is_none(), "({x}, {y})");
            assert!(eng.insert_user(user(100, x, y, 1)).is_none(), "({x}, {y})");
            let m = [Mutation::InsertObject(obj(101, x, y, 1))];
            assert_eq!(eng.apply_batch(m).rejected, 1);
        }
        assert_eq!((eng.epoch(), eng.mutations_since_refresh()), before);
        assert_eq!((eng.objects.len(), eng.users.len()), (40, 10));
        assert_eq!(eng.query(&spec(), Method::JointGreedy), answer);
    }

    #[test]
    fn apply_batch_counts_and_aggregates() {
        let mut eng = engine();
        let report = eng.apply_batch(vec![
            Mutation::InsertObject(obj(100, 2.2, 2.2, 1)),
            Mutation::RemoveObject(3),
            Mutation::InsertUser(user(50, 3.0, 1.0, 2)),
            Mutation::RemoveUser(999),                     // unknown
            Mutation::InsertObject(obj(100, 0.0, 0.0, 0)), // duplicate
        ]);
        assert_eq!(report.applied, 3);
        assert_eq!(report.rejected, 2);
        assert!(report.io.total() > 0);
        assert_eq!(eng.objects.len(), 40);
        assert_eq!(eng.users.len(), 11);
        assert_eq!(eng.mir.num_objects(), 40);
        assert_eq!(eng.miur.as_ref().unwrap().num_users(), 11);
    }

    /// Either mutation kind drops every per-`k` slot and the memoized
    /// super-user: the next same-`k` query is a miss, and an object
    /// mutation moves the super-user's normalizer brackets under LM.
    #[test]
    fn threshold_cache_is_invalidated_by_every_mutation() {
        let objects = (0..40).map(|i| obj(i, (i % 8) as f64, (i / 8) as f64, i % 4));
        let users = (0..10).map(|i| user(i, (i % 6) as f64 + 0.4, (i % 4) as f64 + 0.3, i % 4));
        let mut eng = Engine::build_with_fanout(
            objects.collect(),
            users.collect(),
            WeightModel::lm(),
            0.5,
            4,
        )
        .with_threshold_cache();
        let s = spec();
        let _ = eng.query(&s, Method::JointExact);
        let su_before = eng.super_user_shared();
        let misses_before = eng.thresholds.as_ref().unwrap().misses();

        eng.insert_object(obj(100, 3.3, 1.1, 2)).unwrap();
        let su_after = eng.super_user_shared();
        assert!(!std::sync::Arc::ptr_eq(&su_before, &su_after));
        assert_ne!(su_before.n_max, su_after.n_max, "|C| moved every bracket");
        let _ = eng.query(&s, Method::JointExact);
        assert!(
            eng.thresholds.as_ref().unwrap().misses() > misses_before,
            "same-k query after an object mutation must recompute"
        );

        eng.insert_user(user(50, 2.0, 2.0, 1)).unwrap();
        let su_fresh = eng.super_user_shared();
        assert!(
            !std::sync::Arc::ptr_eq(&su_after, &su_fresh),
            "user mutation must drop the super-user memo"
        );
        assert_eq!(su_fresh.count, 11);
    }

    /// After every object mutation the live scorer and the MIUR brackets
    /// equal a cold build's, bit for bit, under every model — including a
    /// TF-IDF insert heavier than anything the build saw, and the remove
    /// that takes its maximum away again.
    #[test]
    fn object_mutations_keep_the_scorer_and_brackets_cold_exact() {
        for model in [
            WeightModel::TfIdf,
            WeightModel::lm(),
            WeightModel::KeywordOverlap,
        ] {
            let base = engine();
            let mut eng = Engine::build_with_fanout(base.objects, base.users, model, 0.5, 4)
                .with_user_index();
            let heavy = ObjectData {
                id: 100,
                point: Point::new(2.5, 2.5),
                doc: Document::from_pairs([(t(1), 7), (t(9), 1)]),
            };
            for step in [
                Mutation::InsertObject(heavy),
                Mutation::RemoveObject(5),
                Mutation::RemoveObject(100),
            ] {
                eng.apply(step).unwrap();
                let cold = Engine::build_with_fanout(
                    eng.objects.clone(),
                    eng.users.clone(),
                    model,
                    0.5,
                    4,
                )
                .with_user_index();
                for i in 0..12 {
                    let (live, want) = (&eng.ctx.text, &cold.ctx.text);
                    assert_eq!(
                        live.max_weight(t(i)).to_bits(),
                        want.max_weight(t(i)).to_bits(),
                        "{model:?} wmax(t{i})"
                    );
                    let at_one = |s: &text::TextScorer| s.weights().weight(t(i), 1.0);
                    assert_eq!(at_one(live).to_bits(), at_one(want).to_bits());
                }
                assert_eq!(
                    eng.super_user().n_max.to_bits(),
                    cold.super_user().n_max.to_bits()
                );
                let root = |e: &Engine| {
                    let miur = e.miur.as_ref().unwrap();
                    let io = storage::IoStats::new();
                    let mut scratch = index::MiurScratch::default();
                    let node = miur.read_node_ref(miur.root(), &io, &mut scratch);
                    node.entries
                        .iter()
                        .map(|e| (e.norm_min.to_bits(), e.norm_max.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(root(&eng), root(&cold), "{model:?} MIUR brackets");
            }
        }
    }

    /// The epoch stamp alone invalidates: even bypassing the eager clear
    /// (simulated by stamping a slot under an old epoch), a lookup with
    /// the current epoch recomputes.
    #[test]
    fn stale_epoch_is_a_sufficient_invalidation_signal() {
        let mut eng = engine().with_threshold_cache();
        let s = spec();
        let _ = eng.query(&s, Method::Baseline);
        // Bump the epoch without touching the cache (not a real mutation
        // path; isolates the stamp mechanism).
        eng.epoch += 1;
        let before = eng.thresholds.as_ref().unwrap().misses();
        let _ = eng.query(&s, Method::Baseline);
        assert_eq!(
            eng.thresholds.as_ref().unwrap().misses(),
            before + 1,
            "stale stamp must force a recompute"
        );
    }

    /// Mutations flush rewritten pages from an attached page cache: a
    /// post-mutation query must never be satisfied by a stale page. (The
    /// record ids are fresh, so the direct symptom of a missing flush is
    /// unbounded cache growth; the eviction keeps held blocks tied to
    /// live records.)
    #[test]
    fn page_cache_sheds_rewritten_pages() {
        let mut eng = engine().with_page_cache(1 << 12);
        let s = spec();
        let _ = eng.query(&s, Method::JointExact); // warm the page cache
        let held_before = eng.io.cache().unwrap().held_blocks();
        assert!(held_before > 0);
        // Churn enough that many nodes are rewritten.
        for i in 0..20 {
            eng.insert_object(obj(200 + i, (i % 5) as f64 + 0.1, 2.0, i % 4))
                .unwrap();
            eng.remove_object(i).unwrap();
        }
        // Warm pages for retired records were evicted; the cache only
        // retains pages that can still be read.
        let _ = eng.query(&s, Method::JointExact);
        assert!(eng.io.cache().unwrap().held_blocks() > 0);
    }

    #[test]
    fn rebuild_cost_reflects_live_footprint() {
        let mut eng = engine();
        let before = eng.rebuild_io_cost();
        assert!(before > 0);
        for i in 0..30 {
            eng.remove_object(i).unwrap();
        }
        assert!(
            eng.rebuild_io_cost() < before,
            "three quarters of the objects gone, rebuild must be cheaper"
        );
    }

    #[test]
    fn removing_the_last_user_is_rejected() {
        let objects = vec![obj(0, 0.0, 0.0, 0), obj(1, 1.0, 1.0, 1)];
        let users = vec![user(0, 0.5, 0.5, 0)];
        let mut eng =
            Engine::build_with_fanout(objects, users, WeightModel::KeywordOverlap, 0.5, 4);
        assert!(eng.remove_user(0).is_none());
        assert_eq!((eng.users.len(), eng.epoch()), (1, 0), "nothing changed");
    }

    #[test]
    fn removing_the_last_object_is_rejected() {
        let objects = vec![obj(0, 0.0, 0.0, 0)];
        let users = vec![user(0, 0.5, 0.5, 0), user(1, 1.5, 0.5, 0)];
        let mut eng =
            Engine::build_with_fanout(objects, users, WeightModel::KeywordOverlap, 0.5, 4);
        assert!(eng.remove_object(0).is_none());
        assert_eq!((eng.objects.len(), eng.epoch()), (1, 0), "nothing changed");
    }
}

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
//!   [`Mutation`] streams. Object mutations maintain both disk-resident
//!   object trees (MIR + IR) incrementally; user mutations maintain the
//!   MIUR-tree, repairing the IntUni vectors, user counts and normalizer
//!   brackets along the affected root-to-leaf path.
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
//!   [`storage::ShardedLru`], and invalidates the
//!   [`ThresholdCache`](crate::ThresholdCache): object mutations drop the
//!   per-`k` maps but keep the memoized super-user (it depends on users
//!   only); user mutations drop everything.
//!
//! # Frozen scoring model
//!
//! The text scorer (corpus statistics, per-term maxima) and the spatial
//! normalization context are frozen at [`Engine::build`] time; inserted
//! objects are weighed under that build-time model. For corpus-independent
//! relevance (`WeightModel::KeywordOverlap`) a mutated engine is
//! *exactly* equivalent to a fresh build over the surviving sets — the
//! mutation-equivalence suite pins this bit-for-bit. For corpus-dependent
//! models (LM, TF-IDF) the global statistics drift as the corpus churns,
//! exactly as IDF drifts in production search engines; the refresh
//! subsystem ([`crate::refresh`]) re-weighs them in the background with
//! a cold rebuild. Soundness is never at stake: inserted weights are
//! clamped to the frozen `wmax(t)` (see [`Engine::insert_object`]), so
//! every pruning bound keeps dominating every indexed score and the
//! answers stay exact *under the frozen model* — only the model itself
//! ages.
//!
//! # Term extent
//!
//! Corpus statistics are dense arrays sized by the largest term id, so
//! one inserted document naming a huge id would make the next drift scan
//! or refresh allocate by that id's value. An insert is therefore
//! rejected when it names an id at or past the engine's term extent plus
//! the document's own term count: the extent grows at most by what a
//! client sends, never by the value of one id.
//!
//! # Cost model
//!
//! Maintenance I/O follows the paper's accounting (1 simulated I/O per
//! node record, ⌈bytes/4096⌉ per textual payload) but lands in the
//! returned [`MaintenanceIo`], not the engine's query-side counter —
//! mutating must not pollute the query metrics. The benchmark's
//! `core.dynamic.maint_io_per_mutation` row records this incremental cost;
//! [`Engine::rebuild_io_cost`] is the rebuild it is measured against.

use index::{IndexedObject, IndexedUser, TreeEdit};
use text::Document;

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

impl Engine {
    /// The engine's generation counter (bumped by every mutation).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Captures the current generation (see [`EpochGuard`]).
    pub fn epoch_guard(&self) -> EpochGuard {
        EpochGuard { epoch: self.epoch }
    }

    /// Inserts an object into the table and both object indexes (MIR and
    /// IR), weighing its document under the frozen build-time model.
    /// Returns `None` without touching anything when the id is already in
    /// use, or when the document names a term id at or past the term
    /// extent plus its own term count (see the module docs).
    ///
    /// Weights are clamped to the frozen per-term maxima `wmax(t)`: every
    /// pruning bound in the engine (group `TS` caps, baseline upper
    /// bounds, Lemma 3) assumes no indexed weight exceeds `wmax`. Under
    /// LM and KeywordOverlap the clamp never fires — any document's
    /// weight is bounded by the keyword-unit ceiling already folded into
    /// `wmax` — but TF-IDF's `tf · idf` is unbounded in `tf`, and an
    /// unclamped outlier would make exact methods silently unsound.
    pub fn insert_object(&mut self, obj: ObjectData) -> Option<MaintenanceIo> {
        if !self.admits_terms(&obj.doc) || self.objects.iter().any(|o| o.id == obj.id) {
            return None;
        }
        let weighed = self.ctx.text.weigh(&obj.doc);
        let indexed = IndexedObject {
            id: obj.id,
            point: obj.point,
            doc: text::WeightedDoc::from_pairs(
                weighed
                    .entries
                    .iter()
                    .map(|&(t, w)| (t, w.min(self.ctx.text.max_weight(t))))
                    .collect(),
            ),
        };
        let mut io = MaintenanceIo::default();
        let edit = self.mir.insert(&indexed);
        self.flush_edit(edit, &mut io);
        let edit = self.ir.insert(&indexed);
        self.flush_edit(edit, &mut io);
        self.term_extent = self.term_extent.max(term_end(&obj.doc));
        self.objects.push(obj);
        self.finish_object_mutation();
        Some(io)
    }

    /// Removes the object with `id` from the table and both object
    /// indexes. Returns `None` when the id is unknown, or when it names
    /// the last object — an engine over an empty object set is not
    /// queryable, and a client must not be able to make it so.
    pub fn remove_object(&mut self, id: u32) -> Option<MaintenanceIo> {
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
        self.objects.remove(pos);
        self.finish_object_mutation();
        Some(io)
    }

    /// Inserts a user into the table and, when built, the MIUR-tree (with
    /// its normalizer computed under the frozen model). Returns `None`
    /// when the id is already in use or the document names too large a
    /// term id (as for [`Engine::insert_object`]).
    pub fn insert_user(&mut self, user: UserData) -> Option<MaintenanceIo> {
        if !self.admits_terms(&user.doc) || self.users.iter().any(|u| u.id == user.id) {
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
        self.finish_user_mutation();
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
        self.finish_user_mutation();
        Some(io)
    }

    /// Applies one mutation through the matching method above (`None`
    /// when it is rejected).
    pub(crate) fn apply(&mut self, mutation: Mutation) -> Option<MaintenanceIo> {
        match mutation {
            Mutation::InsertObject(o) => self.insert_object(o),
            Mutation::RemoveObject(id) => self.remove_object(id),
            Mutation::InsertUser(u) => self.insert_user(u),
            Mutation::RemoveUser(id) => self.remove_user(id),
        }
    }

    /// Applies a stream of mutations in order, aggregating what happened.
    /// Rejected mutations (duplicate insert ids, unknown remove ids) are
    /// counted and skipped; the rest of the batch still applies.
    pub fn apply_batch(&mut self, mutations: impl IntoIterator<Item = Mutation>) -> BatchReport {
        let mut report = BatchReport::default();
        for m in mutations {
            match self.apply(m) {
                Some(io) => {
                    report.applied += 1;
                    report.io += io;
                }
                None => report.rejected += 1,
            }
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

    /// The insert-boundary rule: a document may name ids up to the term
    /// extent plus its own term count, so each insert can extend the
    /// vocabulary by at most the terms it carries.
    fn admits_terms(&self, doc: &Document) -> bool {
        term_end(doc) <= self.term_extent + doc.num_terms() as u64
    }

    /// Folds a tree edit into the running maintenance tally and flushes
    /// its stale pages from the attached page cache (if any).
    fn flush_edit(&self, edit: TreeEdit, io: &mut MaintenanceIo) {
        self.io.evict_keys(edit.stale_keys.iter().copied());
        io.reads += edit.read_ios;
        io.node_writes += edit.node_writes;
        io.payload_blocks += edit.payload_blocks;
    }

    /// Post-mutation bookkeeping for object changes: bump the epoch and
    /// eagerly drop the object-dependent threshold-cache entries (the
    /// memoized super-user depends on users only and survives).
    fn finish_object_mutation(&mut self) {
        self.epoch += 1;
        self.obj_muts_since_refresh += 1;
        if let Some(tc) = &self.thresholds {
            tc.invalidate_objects();
        }
    }

    /// Post-mutation bookkeeping for user changes: bump both generation
    /// counters and drop every threshold-cache entry including the
    /// memoized super-user.
    fn finish_user_mutation(&mut self) {
        self.epoch += 1;
        self.user_epoch += 1;
        self.user_muts_since_refresh += 1;
        if let Some(tc) = &self.thresholds {
            tc.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, QuerySpec};
    use geo::Point;
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

    /// One huge term id is rejected with nothing changed (the next drift
    /// scan would size its statistics by that id's value); an insert that
    /// adds exactly `num_terms` new dense ids is accepted and raises the
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
        assert!(eng.drift().terms_compared <= 12);
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

    /// Object mutations keep the memoized super-user (users unchanged)
    /// but drop every per-`k` slot; user mutations drop the super-user
    /// too. Either way the next same-`k` query is a miss.
    #[test]
    fn threshold_cache_is_invalidated_per_mutation_kind() {
        let mut eng = engine().with_threshold_cache();
        let s = spec();
        let _ = eng.query(&s, Method::JointExact);
        let su_before = eng.super_user_shared();
        let misses_before = eng.thresholds.as_ref().unwrap().misses();

        eng.insert_object(obj(100, 3.3, 1.1, 2)).unwrap();
        let su_after = eng.super_user_shared();
        assert!(
            std::sync::Arc::ptr_eq(&su_before, &su_after),
            "object mutation must keep the user-only super-user memo"
        );
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

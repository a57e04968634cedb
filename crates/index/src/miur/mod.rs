//! The MIUR-tree (§7): a disk-resident user index.
//!
//! An MIUR-tree is an R-tree over user locations where every node entry is
//! augmented with the *union* and the *intersection* of the keyword sets in
//! its subtree (the `IntUni` vectors of Fig. 4) plus the number of users
//! stored below it. It lets the candidate-selection algorithm bound the
//! relevance of a whole group of users at once, and skip computing top-k
//! results for user subtrees that can never contain a BRSTkNN.

use geo::{Point, Rect};
use storage::{CodecId, RecordId};
use text::{Document, TermId};

use crate::rtree::{point_items, BuildTree};
use crate::tree::{tree_api, PagedTree};
use crate::TreeEdit;

mod payload;
mod read;

use payload::Miur;
pub use read::{MiurNodeRef, MiurScratch};

/// A user ready for indexing.
#[derive(Debug, Clone)]
pub struct IndexedUser {
    /// Application user id (dense).
    pub id: u32,
    /// Location `u.l`.
    pub point: Point,
    /// Keyword set `u.d`.
    pub doc: Document,
    /// The user's text normalizer `N(u)` under the query's weight model
    /// (see [`text::TextScorer::normalizer`]). Stored in the tree so node
    /// entries can carry sound `N(u)` brackets for whole subtrees — the
    /// group upper/lower bound estimations of §7 need them.
    pub norm: f64,
}

/// What an MIUR entry points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserRef {
    /// Inner entry: child node record.
    Node(RecordId),
    /// Leaf entry: a user id.
    User(u32),
}

/// One deserialized MIUR node entry.
#[derive(Debug, Clone)]
pub struct MiurEntryView {
    /// MBR of the subtree (degenerate for leaf entries).
    pub rect: Rect,
    /// Target of the entry.
    pub child: UserRef,
    /// Number of users in the subtree (1 for leaf entries).
    pub count: u32,
    /// Union of the subtree's keyword sets, ascending.
    pub uni: Vec<TermId>,
    /// Intersection of the subtree's keyword sets, ascending.
    pub int: Vec<TermId>,
    /// Minimum `N(u)` over the subtree's users.
    pub norm_min: f64,
    /// Maximum `N(u)` over the subtree's users.
    pub norm_max: f64,
}

/// The disk-resident MIUR-tree: the paged R-tree core (`tree.rs`)
/// under the IntUni payload.
///
/// `Clone` duplicates the tree record-for-record (see
/// [`crate::StTree`]'s note on the copy-on-write serving path).
#[derive(Debug, Clone)]
pub struct MiurTree {
    core: PagedTree<Miur>,
}

tree_api!(MiurTree);

impl MiurTree {
    /// Bulk loads with an explicit node capacity and the default
    /// ([`CodecId::Verbatim`]) record codec.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    pub fn build_with_fanout(users: &[IndexedUser], fanout: usize) -> Self {
        Self::build_with_fanout_codec(users, fanout, CodecId::default())
    }

    /// Bulk loads with an explicit node capacity and record codec (see
    /// [`crate::StTree::build_with_fanout_codec`]).
    pub fn build_with_fanout_codec(users: &[IndexedUser], fanout: usize, codec: CodecId) -> Self {
        let items = point_items(users.iter().map(|u| u.point));
        let tree = BuildTree::bulk_load(&items, fanout);
        let [core] = PagedTree::from_build_tree([Miur], &tree, &items, users, fanout, codec);
        MiurTree { core }
    }

    /// Inserts one user into the disk-resident tree: least-enlargement
    /// descent to a leaf, quadratic splits on overflow, and repair of
    /// every IntUni vector, user count and normalizer bracket along the
    /// affected root-to-leaf path. Copy-on-write like [`crate::StTree`]:
    /// superseded records are freed and their page-cache keys reported in
    /// the returned [`TreeEdit`]. User counts live in the *node* record,
    /// so an ancestor whose IntUni bytes come out identical (a pure
    /// count/child repair) splices its summary payload and is charged no
    /// payload I/O for it.
    pub fn insert(&mut self, user: &IndexedUser) -> TreeEdit {
        self.core.insert(user)
    }

    /// Bulk loads `users` in place of the whole tree, with the same fanout
    /// and codec — how every stored `N(u)` and normalizer bracket is
    /// brought up to date at once. Charged as a write of the new tree;
    /// every record of the old one is reported stale.
    pub fn rebuild(&mut self, users: &[IndexedUser]) -> TreeEdit {
        let fresh = Self::build_with_fanout_codec(users, self.fanout(), self.codec());
        self.core.supersede(fresh.core)
    }

    /// Removes a user from the tree (CondenseTree, mirroring
    /// [`crate::StTree::remove`]): underflowing nodes dissolve and their
    /// surviving users are reinserted; a root with a single inner child
    /// collapses. Returns `None` when no entry with that id exists at that
    /// location.
    pub fn remove(&mut self, id: u32, point: Point) -> Option<TreeEdit> {
        self.core.remove(id, point)
    }

    /// Number of indexed users.
    #[inline]
    pub fn num_users(&self) -> usize {
        self.core.len()
    }

    /// Total bytes of live IntUni records.
    pub fn intuni_bytes(&self) -> u64 {
        self.core.side_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::IoStats;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// 12 users; everyone has term 0, user i also has term 1 + i % 3.
    fn users() -> Vec<IndexedUser> {
        (0..12)
            .map(|i| IndexedUser {
                id: i,
                point: Point::new(f64::from(i), f64::from(i % 4)),
                doc: Document::from_terms([t(0), t(1 + i % 3)]),
                norm: 2.0,
            })
            .collect()
    }

    /// Depth-first walk over every node of `tree`, charging `io`.
    fn walk(tree: &MiurTree, io: &IoStats, mut visit: impl FnMut(&MiurNodeRef<'_>)) {
        let mut scratch = MiurScratch::default();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.read_node_ref(id, io, &mut scratch);
            for e in node.entries {
                if let UserRef::Node(c) = e.child {
                    stack.push(c);
                }
            }
            visit(&node);
        }
    }

    fn gather_users(tree: &MiurTree, io: &IoStats) -> Vec<u32> {
        let mut out = Vec::new();
        walk(tree, io, |node| {
            for e in node.entries {
                if let UserRef::User(u) = e.child {
                    out.push(u);
                }
            }
        });
        out.sort_unstable();
        out
    }

    /// User ids below node `id` (a scratch per level: the parent's view
    /// stays borrowed while its children are read).
    fn descendants(tree: &MiurTree, id: RecordId, io: &IoStats) -> Vec<u32> {
        let mut scratch = MiurScratch::default();
        let node = tree.read_node_ref(id, io, &mut scratch);
        let mut out = Vec::new();
        for e in node.entries {
            match e.child {
                UserRef::User(u) => out.push(u),
                UserRef::Node(c) => out.extend(descendants(tree, c, io)),
            }
        }
        out
    }

    #[test]
    fn all_users_present() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let io = IoStats::new();
        assert_eq!(gather_users(&tree, &io), (0..12).collect::<Vec<_>>());
        assert_eq!(tree.num_users(), 12);
    }

    #[test]
    fn counts_sum_to_subtree_sizes() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let io = IoStats::new();
        let mut scratch = MiurScratch::default();
        let root = tree.read_node_ref(tree.root(), &io, &mut scratch);
        let total: u32 = root.entries.iter().map(|e| e.count).sum();
        assert_eq!(total, 12);
    }

    /// The IntUni invariant: a node entry's union ⊇ every descendant's
    /// keywords and its intersection ⊆ every descendant's keywords.
    #[test]
    fn intuni_vectors_bound_descendants() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let io = IoStats::new();
        walk(&tree, &io, |node| {
            for e in node.entries {
                let descs = match e.child {
                    UserRef::User(u) => vec![u],
                    UserRef::Node(c) => descendants(&tree, c, &io),
                };
                assert_eq!(descs.len(), e.count as usize);
                for d in descs {
                    let doc = &us[d as usize].doc;
                    for term in doc.terms() {
                        assert!(e.uni.contains(&term), "union misses a descendant term");
                    }
                    for &term in &e.int {
                        assert!(doc.contains(term), "intersection has a non-shared term");
                    }
                }
            }
        });
    }

    #[test]
    fn shared_term_survives_to_root() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let io = IoStats::new();
        // Everyone has t0, so every entry's intersection contains it.
        let mut scratch = MiurScratch::default();
        let root = tree.read_node_ref(tree.root(), &io, &mut scratch);
        for e in root.entries {
            assert!(e.int.contains(&t(0)));
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let dir = std::env::temp_dir().join(format!("mbrstk-miur-{}", std::process::id()));
        tree.save(&dir).unwrap();
        let loaded = MiurTree::load(&dir).unwrap();
        assert_eq!(loaded.root(), tree.root());
        assert_eq!(loaded.num_users(), tree.num_users());
        let io = IoStats::new();
        assert_eq!(gather_users(&loaded, &io), (0..12).collect::<Vec<_>>());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn io_charged_per_node() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let io = IoStats::new();
        tree.read_node_ref(tree.root(), &io, &mut MiurScratch::default());
        let snap = io.snapshot();
        assert_eq!(snap.node_visits, 1);
        assert!(snap.invfile_blocks >= 1);
    }

    /// Shared invariant check: every entry's IntUni vectors, count and
    /// normalizer bracket must bound its descendants.
    fn check_intuni_invariants(tree: &MiurTree, us: &[IndexedUser]) {
        let io = IoStats::new();
        let by_id = |id: u32| us.iter().find(|u| u.id == id).expect("known user");
        walk(tree, &io, |node| {
            for e in node.entries {
                let descs = match e.child {
                    UserRef::User(u) => vec![u],
                    UserRef::Node(c) => descendants(tree, c, &io),
                };
                assert_eq!(descs.len(), e.count as usize, "count repair failed");
                for d in descs {
                    let u = by_id(d);
                    for term in u.doc.terms() {
                        assert!(e.uni.contains(&term), "union misses descendant term");
                    }
                    for &term in &e.int {
                        assert!(u.doc.contains(term), "intersection has non-shared term");
                    }
                    assert!(e.rect.contains_point(&u.point), "MBR containment");
                    assert!(e.norm_min <= u.norm + 1e-12 && u.norm <= e.norm_max + 1e-12);
                }
            }
        });
    }

    /// Incremental insertion repairs counts, IntUni vectors and norm
    /// brackets along every affected path.
    #[test]
    fn dynamic_insert_preserves_invariants() {
        let us = users();
        let mut tree = MiurTree::build_with_fanout(&us[..3], 4);
        for u in &us[3..] {
            let edit = tree.insert(u);
            assert!(edit.io_total() > 0);
            assert!(!edit.stale_keys.is_empty());
        }
        assert_eq!(tree.num_users(), 12);
        let io = IoStats::new();
        assert_eq!(gather_users(&tree, &io), (0..12).collect::<Vec<_>>());
        check_intuni_invariants(&tree, &us);
    }

    /// Removal dissolves underflowing nodes and repairs the summaries; the
    /// survivors stay exactly queryable.
    #[test]
    fn dynamic_remove_preserves_invariants() {
        let us = users();
        let mut tree = MiurTree::build_with_fanout(&us, 4);
        for u in us.iter().filter(|u| u.id % 3 == 0) {
            assert!(tree.remove(u.id, u.point).is_some());
        }
        assert!(tree.remove(0, us[0].point).is_none(), "already gone");
        let survivors: Vec<IndexedUser> = us.iter().filter(|u| u.id % 3 != 0).cloned().collect();
        assert_eq!(tree.num_users(), survivors.len());
        let io = IoStats::new();
        let got = gather_users(&tree, &io);
        assert_eq!(
            got,
            survivors.iter().map(|u| u.id).collect::<Vec<_>>(),
            "surviving user set"
        );
        check_intuni_invariants(&tree, &survivors);
    }

    /// Byte accounting stays live across churn (no append-only drift),
    /// and the height grows and shrinks with the population.
    #[test]
    fn churn_keeps_accounting_live() {
        let us = users();
        let mut tree = MiurTree::build_with_fanout(&us, 4);
        let fresh_bytes = tree.node_bytes() + tree.intuni_bytes();
        for u in &us {
            tree.insert(&IndexedUser {
                id: u.id + 100,
                ..u.clone()
            });
        }
        for u in &us {
            tree.remove(u.id + 100, u.point).unwrap();
        }
        assert_eq!(tree.num_users(), 12);
        let churned = tree.node_bytes() + tree.intuni_bytes();
        assert!(
            churned <= fresh_bytes * 3,
            "churned {churned} vs fresh {fresh_bytes}: accounting drifted"
        );
        assert!(tree.footprint_io() > 0);
    }

    #[test]
    fn save_load_keeps_fanout() {
        let us = users();
        let tree = MiurTree::build_with_fanout(&us, 4);
        let dir = std::env::temp_dir().join(format!("mbrstk-miur-fan-{}", std::process::id()));
        tree.save(&dir).unwrap();
        let mut loaded = MiurTree::load(&dir).unwrap();
        assert_eq!(loaded.fanout(), 4);
        // A reopened tree keeps accepting mutations.
        loaded.insert(&IndexedUser {
            id: 99,
            point: Point::new(3.3, 1.1),
            doc: Document::from_terms([t(0)]),
            norm: 2.0,
        });
        assert_eq!(loaded.num_users(), 13);
        std::fs::remove_dir_all(dir).ok();
    }

    /// One comparable entry row: rect, count, uni/int terms, norm bracket.
    type EntryRow = (Rect, u32, Vec<TermId>, Vec<TermId>, f64, f64);

    /// Flattens a tree into comparable rows (summaries only — record ids
    /// differ across codecs because varint payloads change nothing about
    /// allocation order, but the assert stays id-free for robustness).
    fn rows(tree: &MiurTree) -> Vec<(bool, Vec<EntryRow>)> {
        let io = IoStats::new();
        let mut out = Vec::new();
        walk(tree, &io, |node| {
            let summary = node
                .entries
                .iter()
                .map(|e| {
                    (
                        e.rect,
                        e.count,
                        e.uni.clone(),
                        e.int.clone(),
                        e.norm_min,
                        e.norm_max,
                    )
                })
                .collect();
            out.push((node.is_leaf, summary));
        });
        out
    }

    /// Both codecs decode to identical trees (bit-exact summaries) and the
    /// columnar encoding is strictly smaller, through builds and churn.
    #[test]
    fn columnar_codec_is_lossless_and_smaller() {
        let us = users();
        let mut v = MiurTree::build_with_fanout_codec(&us[..8], 4, CodecId::Verbatim);
        let mut c = MiurTree::build_with_fanout_codec(&us[..8], 4, CodecId::Columnar);
        assert_eq!(rows(&v), rows(&c), "fresh build");
        assert!(c.node_bytes() < v.node_bytes());
        assert!(c.intuni_bytes() < v.intuni_bytes());

        for u in &us[8..] {
            v.insert(u);
            c.insert(u);
        }
        for u in &us[..3] {
            assert!(v.remove(u.id, u.point).is_some());
            assert!(c.remove(u.id, u.point).is_some());
        }
        assert_eq!(rows(&v), rows(&c), "after churn");
        assert_eq!(c.codec(), CodecId::Columnar);
    }

    /// A rebuild re-brackets every norm, reports every record it replaced
    /// stale and charges exactly what a cold build writes.
    #[test]
    fn rebuild_rebrackets_and_reports_the_old_tree_stale() {
        let us = users();
        let mut tree = MiurTree::build_with_fanout(&us[..6], 4);
        for u in &us[6..] {
            tree.insert(u);
        }
        let old_keys = tree.core.nodes.live_records() + tree.core.side.live_records();
        let heavier: Vec<IndexedUser> = us
            .iter()
            .map(|u| IndexedUser {
                norm: 3.0 + f64::from(u.id),
                ..u.clone()
            })
            .collect();
        let edit = tree.rebuild(&heavier);
        let cold = MiurTree::build_with_fanout(&heavier, 4);
        assert_eq!(rows(&tree), rows(&cold));
        assert_eq!(tree.freed_records(), 0);
        assert_eq!(edit.stale_keys.len(), old_keys);
        assert_eq!(edit.read_ios, 0);
        assert_eq!(edit.node_writes + edit.payload_blocks, cold.footprint_io());
        check_intuni_invariants(&tree, &heavier);
    }

    /// The count/summary split: user counts live in the *node* record, so
    /// an insert that leaves an ancestor's union, intersection and norm
    /// bracket unchanged splices that ancestor's IntUni record for free —
    /// only the touched leaf's summary payload is charged.
    #[test]
    fn insert_reuses_ancestor_intuni_when_summary_unchanged() {
        for codec in CodecId::ALL {
            let us = users();
            let mut tree = MiurTree::build_with_fanout_codec(&us, 8, codec);
            assert!(tree.height() >= 2);

            // A clone of user 0 (fresh id): every ancestor's uni/int/norm
            // summary is already saturated, only counts move.
            let clone = IndexedUser {
                id: 100,
                ..us[0].clone()
            };
            let edit = tree.insert(&clone);
            assert_eq!(
                edit.payload_blocks, 1,
                "{codec:?}: only the leaf summary is rewritten"
            );

            // A novel term dirties the union along the whole path: every
            // level pays its summary write.
            let novel = IndexedUser {
                id: 101,
                point: us[0].point,
                doc: Document::from_terms([t(0), t(77)]),
                norm: 2.0,
            };
            let edit = tree.insert(&novel);
            assert_eq!(
                edit.payload_blocks,
                u64::from(tree.height()),
                "{codec:?}: union change repairs each level"
            );
            check_intuni_invariants(
                &tree,
                &[us.as_slice(), &[clone.clone(), novel.clone()]].concat(),
            );
        }
    }
}

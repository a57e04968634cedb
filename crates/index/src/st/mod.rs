//! The disk-resident spatial-textual tree: IR-tree and MIR-tree layouts.
//!
//! Both trees share one physical organization (§5.1): an R-tree whose every
//! node carries an inverted file over the node's *entries*. A posting for
//! term `t` under entry `e` stores the maximum — and, in the MIR-tree, also
//! the minimum — weight of `t` across all documents in the subtree below
//! `e`. The minimum is taken over the subtree *intersection*: it is 0 when
//! any document below `e` lacks `t` (Fig. 3 / Table 2 of the paper).
//!
//! What is stored is each weight's document-only half
//! ([`text::TextScorer::weigh`]); the scorer maps it to the weight where it
//! is read. The map is non-decreasing per term, so the stored maxima and
//! minima are the weights' maxima and minima, and no corpus statistic is
//! baked into a record.
//!
//! [`PostingMode::MaxOnly`] reproduces the original IR-tree of Cong et al.
//! (used by the paper's baseline); [`PostingMode::MaxMin`] is the paper's
//! MIR-tree. The only physical difference is posting width, which is why
//! the paper reports identical construction/update costs — and why the
//! MIR-tree's inverted files are slightly larger, which our block
//! accounting faithfully reflects.

use geo::Point;
use storage::{CodecId, RecordId};
use text::{TextScorer, WeightedDoc};

use crate::rtree::{point_items, BuildTree};
use crate::tree::{tree_api, PagedTree};
use crate::TreeEdit;

mod payload;
mod read;

use payload::St;
pub use read::{NodeRef, NodeScratch, PostingsRef, PostingsScratch};

/// Whether postings carry only maxima (IR-tree) or maxima and minima
/// (MIR-tree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostingMode {
    /// Original IR-tree postings: `⟨entry, maxw⟩`.
    MaxOnly,
    /// MIR-tree postings: `⟨entry, maxw, minw⟩`.
    MaxMin,
}

/// An object ready for indexing: id, location, precomputed term weights.
#[derive(Debug, Clone)]
pub struct IndexedObject {
    /// Application object id (dense, used to index object tables).
    pub id: u32,
    /// Location `o.l`.
    pub point: Point,
    /// The document-only halves of `o.d`'s weights (see
    /// [`text::TextScorer::weigh`]); every aggregate above a leaf is a
    /// per-term max or min of them.
    pub doc: WeightedDoc,
}

/// What an entry of a node points to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildRef {
    /// An inner entry: the record id of a child node.
    Node(RecordId),
    /// A leaf entry: an object id.
    Object(u32),
}

/// A disk-resident IR-tree / MIR-tree: the paged R-tree core
/// (`tree.rs`) under the inverted-file payload.
///
/// `Clone` duplicates the tree record-for-record (the block files are
/// plain in-memory stores); the copy-on-write serving path uses it when a
/// mutation races a long-lived engine snapshot.
#[derive(Debug, Clone)]
pub struct StTree {
    core: PagedTree<St>,
}

tree_api!(StTree);

impl StTree {
    /// Bulk loads with an explicit node capacity and the default
    /// ([`CodecId::Verbatim`]) record codec.
    ///
    /// # Panics
    /// Panics when `objects` is empty.
    pub fn build_with_fanout(objects: &[IndexedObject], mode: PostingMode, fanout: usize) -> Self {
        Self::build_with_fanout_codec(objects, mode, fanout, CodecId::default())
    }

    /// Bulk loads with an explicit node capacity and record codec. The
    /// codec is fixed at build time and travels with the tree: every
    /// mutation and compaction re-encodes with the same codec.
    pub fn build_with_fanout_codec(
        objects: &[IndexedObject],
        mode: PostingMode,
        fanout: usize,
        codec: CodecId,
    ) -> Self {
        let [tree] = Self::build_modes(objects, [mode], fanout, codec);
        tree
    }

    /// Bulk loads one tree per posting mode from a single STR pass: §5.1
    /// builds the MIR-tree "in the same manner" as the IR-tree, so the
    /// trees share their layout, node records and aggregates, and an
    /// IR-tree's inverted files are the MIR-tree's without minima. Each
    /// node is aggregated once and written once per mode.
    ///
    /// # Panics
    /// Panics when `objects` is empty.
    pub fn build_modes<const N: usize>(
        objects: &[IndexedObject],
        modes: [PostingMode; N],
        fanout: usize,
        codec: CodecId,
    ) -> [Self; N] {
        let items = point_items(objects.iter().map(|o| o.point));
        let tree = BuildTree::bulk_load(&items, fanout);
        let payloads = modes.map(|mode| St { mode });
        PagedTree::from_build_tree(payloads, &tree, &items, objects, fanout, codec)
            .map(|core| StTree { core })
    }

    /// Bulk loads with *text-first* leaf clustering (CIR/DIR-inspired).
    ///
    /// §5.1 notes the MIR-tree "can be constructed in the same manner as
    /// the DIR-tree", i.e. with nodes grouped by textual as well as
    /// spatial criteria. This variant packs leaves primarily by each
    /// object's dominant (highest-weight under `scorer`) term and only
    /// secondarily by location, then builds the upper levels spatially
    /// (STR on leaf centers). Leaves get coherent vocabularies — smaller
    /// per-node inverted files and sharper `MaxTS` bounds — at the cost of
    /// looser MBRs. The `figures -- ablation` harness quantifies the
    /// trade-off.
    pub fn build_text_first(
        objects: &[IndexedObject],
        mode: PostingMode,
        fanout: usize,
        scorer: &TextScorer,
    ) -> Self {
        assert!(!objects.is_empty(), "cannot index an empty object set");
        assert!(fanout >= 2, "fanout must be at least 2");
        let items = point_items(objects.iter().map(|o| o.point));

        // Order: dominant term, then x, then y.
        let weights = scorer.weights();
        let dominant = |o: &IndexedObject| -> u32 {
            o.doc
                .entries
                .iter()
                .map(|&(t, x)| (t, weights.weight(t, x)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(t, _)| t.0)
                .unwrap_or(u32::MAX)
        };
        let mut order: Vec<usize> = (0..objects.len()).collect();
        order.sort_by(|&a, &b| {
            dominant(&objects[a])
                .cmp(&dominant(&objects[b]))
                .then(objects[a].point.x.total_cmp(&objects[b].point.x))
                .then(objects[a].point.y.total_cmp(&objects[b].point.y))
        });

        // Sequential leaf packing in that order, plain spatial STR above.
        let leaves = order.chunks(fanout).map(<[usize]>::to_vec).collect();
        let tree = BuildTree::from_leaves(&items, leaves, fanout);
        let codec = CodecId::default();
        let [core] =
            PagedTree::from_build_tree([St { mode }], &tree, &items, objects, fanout, codec);
        StTree { core }
    }

    /// Inserts one object into the disk-resident tree — the §5.1 update
    /// path ("the splitting and merging of the nodes are executed in the
    /// same manner as the IR-tree"; min weights are maintained in the same
    /// pass as max weights, which is the paper's cost argument).
    ///
    /// Follows the classic least-enlargement descent with quadratic node
    /// splits. The affected root-to-leaf path is re-serialized as fresh
    /// records (copy-on-write, like a disk page allocator) and the
    /// superseded records are freed, so [`StTree::node_bytes`] /
    /// [`StTree::invfile_bytes`] keep reporting the live footprint. Once
    /// the rewritten child's summary (MBR + term aggregate) matches what
    /// its parent already stores, ancestors only get the fresh child
    /// record id spliced in — their inverted files are bit-identical and
    /// are reused untouched, never read. The returned [`TreeEdit`] carries
    /// the maintenance I/O and the page-cache keys the caller must flush;
    /// the query-side [`storage::IoStats`] is deliberately not charged
    /// (the paper's metrics measure query I/O, not maintenance).
    pub fn insert(&mut self, obj: &IndexedObject) -> TreeEdit {
        self.core.insert(obj)
    }

    /// Removes an object from the disk-resident tree — the delete side of
    /// §5.1's update path. Returns `None` when no entry with that id is
    /// found at that location, otherwise the mutation's [`TreeEdit`].
    ///
    /// Classic R-tree CondenseTree: find the leaf holding the entry,
    /// remove it, and when a node underflows (below ⌈fanout/4⌉ entries —
    /// deliberately below the split fill of ⌈fanout/2⌉, so a split
    /// followed by a delete doesn't immediately dissolve the fresh node)
    /// dissolve it and re-[`StTree::insert`] the orphaned objects. A root
    /// with a single inner child is collapsed (height shrinks). Superseded
    /// records — including inverted files whose posting lists emptied —
    /// are freed, keeping the byte accounting live.
    pub fn remove(&mut self, id: u32, point: Point) -> Option<TreeEdit> {
        self.core.remove(id, point)
    }

    /// Number of indexed objects.
    #[inline]
    pub fn num_objects(&self) -> usize {
        self.core.len()
    }

    /// Posting layout in use.
    #[inline]
    pub fn mode(&self) -> PostingMode {
        self.core.payload.mode
    }

    /// Total bytes of all live inverted files.
    pub fn invfile_bytes(&self) -> u64 {
        self.core.side_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_MAX_ENTRIES;
    use storage::IoStats;
    use text::{Document, TermId, TextScorer, WeightModel};

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    /// A small corpus: 20 objects on a line, term i%3 plus term 3 in all.
    fn corpus() -> (Vec<IndexedObject>, TextScorer, Vec<Document>) {
        let docs: Vec<Document> = (0..20)
            .map(|i| Document::from_terms([t(i % 3), t(3)]))
            .collect();
        let scorer = TextScorer::build(WeightModel::KeywordOverlap, &docs);
        let objects = docs
            .iter()
            .enumerate()
            .map(|(i, d)| IndexedObject {
                id: i as u32,
                point: Point::new(i as f64, (i % 5) as f64),
                doc: scorer.weigh(d),
            })
            .collect();
        (objects, scorer, docs)
    }

    /// Depth-first walk over every node of `tree`, charging `io`.
    fn walk(tree: &StTree, io: &IoStats, mut visit: impl FnMut(&NodeRef<'_>)) {
        let mut scratch = NodeScratch::default();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.read_node_ref(id, io, &mut scratch);
            for i in 0..node.len() {
                if let ChildRef::Node(c) = node.child(i) {
                    stack.push(c);
                }
            }
            visit(&node);
        }
    }

    fn collect_objects(tree: &StTree, io: &IoStats) -> Vec<(u32, Point)> {
        let mut out = Vec::new();
        walk(tree, io, |node| {
            for i in 0..node.len() {
                if let ChildRef::Object(o) = node.child(i) {
                    out.push((o, node.point(i)));
                }
            }
        });
        out.sort_by_key(|&(o, _)| o);
        out
    }

    /// Object ids below node `id` (a scratch per level: the parent's view
    /// stays borrowed while its children are read).
    fn descendants(tree: &StTree, id: RecordId, io: &IoStats) -> Vec<u32> {
        let mut scratch = NodeScratch::default();
        let node = tree.read_node_ref(id, io, &mut scratch);
        let mut out = Vec::new();
        for i in 0..node.len() {
            match node.child(i) {
                ChildRef::Object(o) => out.push(o),
                ChildRef::Node(c) => out.extend(descendants(tree, c, io)),
            }
        }
        out
    }

    /// Walks two trees in lockstep and asserts they decode to the same
    /// content: structure, rectangles (bit-exact), targets and the postings
    /// of `terms`.
    fn assert_same_content(a: &StTree, b: &StTree, terms: &[TermId]) {
        let io = IoStats::new();
        let (mut sa, mut sb) = (NodeScratch::default(), NodeScratch::default());
        let (mut pa, mut pb) = (PostingsScratch::default(), PostingsScratch::default());
        let mut stack = vec![(a.root(), b.root())];
        while let Some((ia, ib)) = stack.pop() {
            let na = a.read_node_ref(ia, &io, &mut sa);
            let nb = b.read_node_ref(ib, &io, &mut sb);
            assert_eq!(na.is_leaf(), nb.is_leaf(), "node {ia:?}");
            assert_eq!(na.len(), nb.len(), "node {ia:?}");
            let ra = a.read_postings_ref(&na, terms, &io, &mut pa);
            let rb = b.read_postings_ref(&nb, terms, &io, &mut pb);
            for i in 0..na.len() {
                assert_eq!(na.rect(i), nb.rect(i), "node {ia:?} entry {i}: MBR");
                assert_eq!(na.child(i), nb.child(i), "node {ia:?} entry {i}: target");
                assert_eq!(ra.entry(i), rb.entry(i), "node {ia:?} entry {i}: postings");
                if let (ChildRef::Node(x), ChildRef::Node(y)) = (na.child(i), nb.child(i)) {
                    stack.push((x, y));
                }
            }
        }
    }

    #[test]
    fn roundtrip_all_objects_present() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let got = collect_objects(&tree, &io);
        assert_eq!(got.len(), 20);
        for (i, &(oid, pt)) in got.iter().enumerate() {
            assert_eq!(oid, i as u32);
            assert_eq!(pt, objects[i].point);
        }
        // Every node visit was charged.
        assert!(io.snapshot().node_visits >= 1);
    }

    #[test]
    fn leaf_postings_equal_object_weights() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let all_terms: Vec<TermId> = (0..4).map(t).collect();
        let mut ps = PostingsScratch::default();
        walk(&tree, &io, |node| {
            if !node.is_leaf() {
                return;
            }
            let p = tree.read_postings_ref(node, &all_terms, &io, &mut ps);
            for i in 0..node.len() {
                let ChildRef::Object(oid) = node.child(i) else {
                    panic!()
                };
                let doc = &objects[oid as usize].doc;
                let got: Vec<(TermId, f64)> =
                    p.entry(i).iter().map(|&(t, mx, _)| (t, mx)).collect();
                assert_eq!(got, doc.entries);
                // Leaf min == max.
                for &(_, mx, mn) in p.entry(i) {
                    assert_eq!(mx, mn);
                }
            }
        });
    }

    /// The core MIR-tree invariant: for every node entry and term, max is
    /// ≥ every descendant weight, and min is a positive lower bound iff the
    /// term is in the subtree intersection.
    #[test]
    fn posting_bounds_dominate_descendants() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let all_terms: Vec<TermId> = (0..4).map(t).collect();
        let mut ps = PostingsScratch::default();
        walk(&tree, &io, |node| {
            if node.is_leaf() {
                return;
            }
            let p = tree.read_postings_ref(node, &all_terms, &io, &mut ps);
            for i in 0..node.len() {
                let ChildRef::Node(c) = node.child(i) else {
                    panic!()
                };
                let descs = descendants(&tree, c, &io);
                for &(term, mx, mn) in p.entry(i) {
                    let weights: Vec<f64> = descs
                        .iter()
                        .map(|&o| objects[o as usize].doc.weight(term))
                        .collect();
                    let best = weights.iter().cloned().fold(0.0, f64::max);
                    assert!((mx - best).abs() < 1e-12, "max must equal subtree max");
                    if mn > 0.0 {
                        let worst = weights.iter().cloned().fold(f64::INFINITY, f64::min);
                        assert!((mn - worst).abs() < 1e-12, "min must equal subtree min");
                    } else {
                        assert!(
                            weights.contains(&0.0),
                            "min=0 requires a missing term below"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn max_only_mode_has_smaller_invfiles() {
        let (objects, _, _) = corpus();
        let ir = StTree::build_with_fanout(&objects, PostingMode::MaxOnly, 4);
        let mir = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        assert!(ir.invfile_bytes() < mir.invfile_bytes());
        assert_eq!(ir.node_bytes(), mir.node_bytes());
    }

    /// The tentpole contract: both codecs decode to identical trees — same
    /// structure, same rectangles (bit-exact), same postings — while the
    /// columnar encoding is strictly smaller on disk.
    #[test]
    fn columnar_codec_is_lossless_and_smaller() {
        let (objects, _, _) = corpus();
        let all_terms: Vec<TermId> = (0..4).map(t).collect();
        for mode in [PostingMode::MaxOnly, PostingMode::MaxMin] {
            let v = StTree::build_with_fanout_codec(&objects, mode, 4, CodecId::Verbatim);
            let c = StTree::build_with_fanout_codec(&objects, mode, 4, CodecId::Columnar);
            assert_eq!(v.codec(), CodecId::Verbatim);
            assert_eq!(c.codec(), CodecId::Columnar);

            assert_eq!(v.root(), c.root(), "{mode:?}");
            assert_same_content(&v, &c, &all_terms);

            assert!(
                c.node_bytes() < v.node_bytes(),
                "{mode:?}: columnar nodes {} !< verbatim {}",
                c.node_bytes(),
                v.node_bytes()
            );
            assert!(
                c.invfile_bytes() < v.invfile_bytes(),
                "{mode:?}: columnar invfiles {} !< verbatim {}",
                c.invfile_bytes(),
                v.invfile_bytes()
            );
        }
    }

    /// Mutations re-encode with the tree's own codec and stay equivalent.
    #[test]
    fn columnar_codec_survives_mutations() {
        let (objects, _, _) = corpus();
        let all_terms: Vec<TermId> = (0..4).map(t).collect();
        let mut v = StTree::build_with_fanout_codec(
            &objects[..12],
            PostingMode::MaxMin,
            4,
            CodecId::Verbatim,
        );
        let mut c = StTree::build_with_fanout_codec(
            &objects[..12],
            PostingMode::MaxMin,
            4,
            CodecId::Columnar,
        );
        for obj in &objects[12..] {
            v.insert(obj);
            c.insert(obj);
        }
        for obj in &objects[..4] {
            assert!(v.remove(obj.id, obj.point).is_some());
            assert!(c.remove(obj.id, obj.point).is_some());
        }
        assert_same_content(&v, &c, &all_terms);
        assert_eq!(c.codec(), CodecId::Columnar, "codec survives mutations");
    }

    #[test]
    fn io_accounting_per_access() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let mut ns = NodeScratch::default();
        let root = tree.read_node_ref(tree.root(), &io, &mut ns);
        assert_eq!(io.snapshot().node_visits, 1);
        let before = io.snapshot();
        tree.read_postings_ref(&root, &[t(0)], &io, &mut PostingsScratch::default());
        let delta = io.snapshot() - before;
        assert_eq!(delta.node_visits, 0);
        assert!(delta.invfile_blocks >= 1);
    }

    #[test]
    fn postings_filter_terms() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let io = IoStats::new();
        let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
        let root = tree.read_node_ref(tree.root(), &io, &mut ns);
        let p = tree.read_postings_ref(&root, &[t(1)], &io, &mut ps);
        for i in 0..p.len() {
            for &(term, _, _) in p.entry(i) {
                assert_eq!(term, t(1));
            }
        }
    }

    #[test]
    fn text_first_roundtrip_and_bounds() {
        let (objects, scorer, _) = corpus();
        let tree = StTree::build_text_first(&objects, PostingMode::MaxMin, 4, &scorer);
        let io = IoStats::new();
        let got = collect_objects(&tree, &io);
        assert_eq!(got.len(), 20);
        for (i, &(oid, pt)) in got.iter().enumerate() {
            assert_eq!(oid, i as u32);
            assert_eq!(pt, objects[i].point);
        }
    }

    #[test]
    fn text_first_groups_by_dominant_term() {
        // Objects with rotating dominant terms: text-first leaves should
        // have fewer distinct terms per node invfile than STR leaves on
        // average (coherent vocabularies).
        let (objects, scorer, _) = corpus();
        let count_leaf_terms = |tree: &StTree| -> usize {
            let io = IoStats::new();
            let all_terms: Vec<TermId> = (0..4).map(t).collect();
            let mut total = 0;
            let mut ps = PostingsScratch::default();
            walk(tree, &io, |node| {
                if !node.is_leaf() {
                    return;
                }
                let p = tree.read_postings_ref(node, &all_terms, &io, &mut ps);
                let mut terms = std::collections::HashSet::new();
                for i in 0..p.len() {
                    for &(term, _, _) in p.entry(i) {
                        terms.insert(term);
                    }
                }
                total += terms.len();
            });
            total
        };
        let str_tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let txt_tree = StTree::build_text_first(&objects, PostingMode::MaxMin, 4, &scorer);
        assert!(
            count_leaf_terms(&txt_tree) <= count_leaf_terms(&str_tree),
            "text-first leaves should not have broader vocabularies"
        );
    }

    /// Insertion into the disk-resident tree preserves every invariant:
    /// all objects findable, posting bounds still dominate, splits legal.
    #[test]
    fn dynamic_insert_matches_bulk_build() {
        let (objects, _, _) = corpus();
        // Build from the first 8, insert the remaining 12 one by one.
        let mut tree = StTree::build_with_fanout(&objects[..8], PostingMode::MaxMin, 4);
        for obj in &objects[8..] {
            tree.insert(obj);
        }
        assert_eq!(tree.num_objects(), 20);

        let io = IoStats::new();
        let got = collect_objects(&tree, &io);
        assert_eq!(got.len(), 20);
        for (i, &(oid, pt)) in got.iter().enumerate() {
            assert_eq!(oid, i as u32);
            assert_eq!(pt, objects[i].point);
        }

        // Bound invariant: every node entry's max posting dominates every
        // descendant weight (same check as the bulk-built tree).
        let all_terms: Vec<TermId> = (0..4).map(t).collect();
        let mut ps = PostingsScratch::default();
        walk(&tree, &io, |node| {
            assert!(node.len() <= tree.fanout());
            if node.is_leaf() {
                return;
            }
            let p = tree.read_postings_ref(node, &all_terms, &io, &mut ps);
            for i in 0..node.len() {
                let ChildRef::Node(c) = node.child(i) else {
                    panic!()
                };
                for oid in descendants(&tree, c, &io) {
                    let obj = &objects[oid as usize];
                    assert!(node.rect(i).contains_point(&obj.point), "MBR containment");
                    for &(term, w) in &obj.doc.entries {
                        let posted = p
                            .entry(i)
                            .iter()
                            .find(|&&(pt2, _, _)| pt2 == term)
                            .map(|&(_, mx, _)| mx)
                            .unwrap_or(0.0);
                        assert!(posted >= w - 1e-12, "posting max dominates");
                    }
                }
            }
        });
    }

    #[test]
    fn insert_grows_height_when_root_splits() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects[..4], PostingMode::MaxMin, 4);
        let h0 = tree.height();
        for obj in &objects[4..] {
            tree.insert(obj);
        }
        assert!(
            tree.height() > h0,
            "20 objects at fanout 4 need more levels"
        );
        let io = IoStats::new();
        assert_eq!(collect_objects(&tree, &io).len(), 20);
    }

    #[test]
    fn remove_then_query_is_consistent() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        // Remove every even object.
        for obj in objects.iter().filter(|o| o.id % 2 == 0) {
            assert!(
                tree.remove(obj.id, obj.point).is_some(),
                "object {} present",
                obj.id
            );
        }
        assert_eq!(tree.num_objects(), 10);
        let io = IoStats::new();
        let got = collect_objects(&tree, &io);
        let ids: Vec<u32> = got.iter().map(|&(o, _)| o).collect();
        assert_eq!(ids, (0..20).filter(|i| i % 2 == 1).collect::<Vec<_>>());
        // Removing again reports absence.
        assert!(tree.remove(0, objects[0].point).is_none());
    }

    #[test]
    fn remove_everything_then_reinsert() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects[..6], PostingMode::MaxMin, 4);
        for obj in &objects[..6] {
            assert!(tree.remove(obj.id, obj.point).is_some());
        }
        assert_eq!(tree.num_objects(), 0);
        // Byte accounting stays live: the empty tree holds exactly one
        // empty leaf root (9-byte node record, 4-byte empty invfile), not
        // the garbage of every superseded record.
        assert_eq!(tree.node_bytes(), 9);
        assert_eq!(tree.invfile_bytes(), 4);
        // The empty tree accepts fresh inserts.
        for obj in &objects {
            tree.insert(obj);
        }
        assert_eq!(tree.num_objects(), 20);
        let io = IoStats::new();
        assert_eq!(collect_objects(&tree, &io).len(), 20);
    }

    #[test]
    fn remove_missing_object_is_noop() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        assert!(tree.remove(999, Point::new(0.0, 0.0)).is_none());
        assert_eq!(tree.num_objects(), 20);
    }

    /// Satellite regression: build → insert → remove must keep the byte
    /// accounting live. Before records were freed, `invfile_bytes()` /
    /// `node_bytes()` grew monotonically with every mutation (superseded
    /// records were still counted); now an insert+remove churn cycle stays
    /// within a small factor of a fresh bulk load over the survivors.
    #[test]
    fn mutation_byte_accounting_does_not_drift() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects[..10], PostingMode::MaxMin, 4);
        for obj in &objects[10..] {
            tree.insert(obj);
        }
        for obj in &objects[..10] {
            assert!(tree.remove(obj.id, obj.point).is_some());
        }
        let fresh = StTree::build_with_fanout(&objects[10..], PostingMode::MaxMin, 4);
        // Same live object set; incremental tree shape may differ (deeper
        // or sparser nodes), but the accounting must track live records,
        // not the append-only history.
        assert!(
            tree.invfile_bytes() <= fresh.invfile_bytes() * 3,
            "incremental {} vs fresh {}: accounting drifted",
            tree.invfile_bytes(),
            fresh.invfile_bytes()
        );
        assert!(tree.node_bytes() <= fresh.node_bytes() * 3);
        // The edits carried maintenance I/O and stale keys.
        let edit = tree.insert(&objects[0]);
        assert!(edit.io_total() > 0);
        assert!(!edit.stale_keys.is_empty());
        let edit = tree.remove(objects[0].id, objects[0].point).unwrap();
        assert!(edit.io_total() > 0);
        assert!(!edit.stale_keys.is_empty());
    }

    /// The rebuild cost of the live tree (`footprint_io`) tracks live
    /// records only.
    #[test]
    fn footprint_io_counts_live_records() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let before = tree.footprint_io();
        assert!(before > 0);
        for obj in objects.iter().take(10) {
            tree.remove(obj.id, obj.point).unwrap();
        }
        assert!(
            tree.footprint_io() < before,
            "half the objects gone, footprint must shrink"
        );
    }

    /// Compaction preserves every object, the live byte footprint and the
    /// posting payloads, while dropping all freed placeholder slots — so a
    /// compacted save reclaims them on disk.
    #[test]
    fn compacted_drops_placeholders_and_preserves_content() {
        let (objects, _, _) = corpus();
        let mut tree = StTree::build_with_fanout(&objects[..10], PostingMode::MaxMin, 4);
        for obj in &objects[10..] {
            tree.insert(obj);
        }
        for obj in &objects[..6] {
            tree.remove(obj.id, obj.point).unwrap();
        }
        assert!(tree.freed_records() > 0, "churn leaves placeholders");

        let compact = tree.compacted();
        assert_eq!(compact.freed_records(), 0);
        assert_eq!(compact.num_objects(), tree.num_objects());
        assert_eq!(compact.height(), tree.height());
        assert_eq!(compact.node_bytes(), tree.node_bytes());
        assert_eq!(compact.invfile_bytes(), tree.invfile_bytes());
        assert_eq!(compact.footprint_io(), tree.footprint_io());

        let io = IoStats::new();
        assert_eq!(collect_objects(&compact, &io), collect_objects(&tree, &io));

        // The compacted save writes only live records; the plain save
        // keeps one (empty) slot per freed record.
        let base = std::env::temp_dir().join(format!("mbrstk-compact-{}", std::process::id()));
        let plain_dir = base.join("plain");
        let compact_dir = base.join("compact");
        tree.save(&plain_dir).unwrap();
        tree.compacted().save(&compact_dir).unwrap();
        let plain = StTree::load(&plain_dir).unwrap();
        let reopened = StTree::load(&compact_dir).unwrap();
        assert!(
            reopened.core.nodes.len() < plain.core.nodes.len(),
            "compacted save must shed placeholder slots"
        );
        assert_eq!(
            reopened.core.nodes.len(),
            reopened.core.nodes.live_records()
        );
        assert_eq!(collect_objects(&reopened, &io), collect_objects(&tree, &io));
        std::fs::remove_dir_all(base).ok();
    }

    #[test]
    fn save_load_roundtrip() {
        let (objects, _, _) = corpus();
        let tree = StTree::build_with_fanout(&objects, PostingMode::MaxMin, 4);
        let dir = std::env::temp_dir().join(format!("mbrstk-sttree-{}", std::process::id()));
        tree.save(&dir).unwrap();
        let loaded = StTree::load(&dir).unwrap();
        assert_eq!(loaded.mode(), tree.mode());
        assert_eq!(loaded.root(), tree.root());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.num_objects(), tree.num_objects());
        assert_eq!(loaded.invfile_bytes(), tree.invfile_bytes());
        // Query the reopened tree.
        let io = IoStats::new();
        let got = collect_objects(&loaded, &io);
        assert_eq!(got.len(), 20);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn single_object_tree() {
        let (objects, _, _) = corpus();
        let one = &objects[..1];
        let tree = StTree::build_with_fanout(one, PostingMode::MaxMin, DEFAULT_MAX_ENTRIES);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.num_objects(), 1);
        let io = IoStats::new();
        let mut scratch = NodeScratch::default();
        let root = tree.read_node_ref(tree.root(), &io, &mut scratch);
        assert!(root.is_leaf());
        assert_eq!(root.len(), 1);
    }
}

//! The paged R-tree core both disk-resident trees are built on.
//!
//! §5.1: MIR-tree "splitting and merging of the nodes are executed in the
//! same manner as the IR-tree"; §7's MIUR-tree is the same R-tree again
//! with a different per-entry summary. So there is one tree here —
//! [`PagedTree`]: a `nodes` block file of node records, a *side* block
//! file holding each node's textual summary (inverted file / IntUni
//! vectors), and `root`/`height`/`len`/`fanout`/`codec` — and everything
//! that is about the R-tree rather than about the summary lives in this
//! module exactly once: bottom-up serialization of a bulk-loaded
//! [`BuildTree`], Guttman insertion (least-enlargement descent, quadratic
//! split, walk-up, root growth), CondenseTree removal (`find_leaf`,
//! underflow dissolve + orphan reinsertion, root collapse), persistence
//! and the footprint accessors, together with every maintenance-I/O
//! charge they make.
//!
//! What differs per tree is a [`Payload`]: the entry type with its
//! summary, the two record codecs, how a leaf entry is made from an
//! application item, and how summaries aggregate upwards.
//! The two trees also differ in *when* the side record is read and in
//! what an unchanged summary buys; both are hooks, not branches:
//!
//! * [`Payload::read`] may leave [`Node::summarized`] false (ST: the
//!   inverted file is only fetched — and charged — by
//!   [`Payload::load_summaries`] when a rewrite needs the aggregates) or
//!   decode the side record at once (MIUR: IntUni vectors are part of
//!   every node visit).
//! * [`Payload::SETTLES`] opts into the *settled-ancestor splice*: once a
//!   rewritten node's parent entry equals the one its parent already
//!   stores, ancestors are repaired by [`PagedTree::repoint`] (fresh child
//!   id, side record kept in place, never read). [`Payload::SIDE_SPLICE`]
//!   opts into the *payload splice*: an ancestor whose re-encoded side
//!   bytes equal the retired record's is re-put but charged no payload
//!   I/O.
//!
//! A new asymmetry between payloads belongs in that list as another hook
//! with a default-free implementation on each side.
//!
//! Every build and edit runs in an [`Op`] it owns and drops: the payload's
//! pool (where entries may keep their summaries) and one record buffer.
//! A node is aggregated once per write ([`Payload::summarize`]), and a bulk
//! build writes the same nodes to several trees at once
//! ([`PagedTree::from_build_tree`]).

use std::io;
use std::path::Path;

use geo::{Point, Rect};
use storage::codec::{Reader, Writer};
use storage::{blocks_for, BlockFile, CodecId, RecordId};

use crate::rtree::{quadratic_partition, BuildItem, BuildTree};
use crate::TreeEdit;

/// What the core needs to see of a node entry.
pub(crate) trait Entry: Clone {
    /// The entry's MBR (degenerate for leaf entries).
    fn rect(&self) -> Rect;
    /// The raw target as the node record stores it: a child record id in
    /// an inner node, the application id in a leaf.
    fn target(&self) -> u32;
    /// Points an inner entry at a (rewritten) child record.
    fn point_at(&mut self, child: RecordId);
}

/// One decoded node on a maintenance path.
#[derive(Debug)]
pub(crate) struct Node<E> {
    pub id: RecordId,
    /// The node's record in the side file.
    pub side: RecordId,
    pub is_leaf: bool,
    pub entries: Vec<E>,
    /// False while `entries` carry structure only (MBR + target) and the
    /// side record has not been read.
    pub summarized: bool,
}

/// The per-tree half: entry summary, record codecs, item conversions.
///
/// Entries may keep their summaries in the [`Payload::Pool`] of the build
/// or edit that made them, so every hook that reads or makes a summary
/// is handed that pool.
pub(crate) trait Payload: Clone {
    type Entry: Entry;
    /// The application item a leaf entry indexes.
    type Item;
    /// Scratch one build or edit owns and drops (see [`Op`]).
    type Pool: Default;
    /// File name of the side block file.
    const SIDE_FILE: &'static str;
    /// True when an insert or remove can leave a node's parent entry
    /// unchanged: opts into the settled-ancestor splice (and into
    /// aggregating each edited node before its edit).
    const SETTLES: bool;
    /// True when re-putting an ancestor's side record with the bytes of
    /// the retired one is an extent splice charged no payload I/O.
    const SIDE_SPLICE: bool;

    /// Payload bytes leading `meta.mbrs`.
    fn meta(&self) -> &'static [u8];
    /// Inverse of [`Payload::meta`]; `None` for any other byte string.
    fn from_meta(bytes: &[u8]) -> Option<Self>;
    /// Page-cache key of a node record.
    fn node_key(&self, id: RecordId) -> u64;
    /// Page-cache key of a side record.
    fn side_key(&self, id: RecordId) -> u64;

    /// The leaf entry of `item`; payloads built side by side by
    /// [`PagedTree::from_build_tree`] must agree on it.
    fn leaf_entry(&self, item: &Self::Item, pool: &mut Self::Pool) -> Self::Entry;
    /// Reconstructs the item of a leaf entry (orphan reinsertion).
    fn leaf_item(entry: &Self::Entry, pool: &Self::Pool) -> Self::Item;
    /// The entry a parent stores for a node holding `entries` (which must
    /// be non-empty); the caller points it at the node. Aggregates the
    /// entries once: [`Payload::encode_side`] of the same entries reads
    /// what this leaves in the pool.
    fn summarize(entries: &[Self::Entry], pool: &mut Self::Pool) -> Self::Entry;
    /// True when two parent entries agree on everything but the child id.
    fn same_summary(a: &Self::Entry, b: &Self::Entry, pool: &Self::Pool) -> bool;

    /// Appends the node record of `entries` to `op.out`.
    fn encode_node(is_leaf: bool, side: RecordId, entries: &[Self::Entry], op: &mut Op<Self>);
    /// Appends the side record of `entries` to `op.out`; they are empty or
    /// the ones [`Payload::summarize`] aggregated last.
    fn encode_side(&self, entries: &[Self::Entry], op: &mut Op<Self>);
    /// Decodes node `id`, with or without its summaries.
    fn read(tree: &PagedTree<Self>, id: RecordId, pool: &mut Self::Pool) -> Node<Self::Entry>;
    /// Decodes the side record into the entries of a node read without.
    fn load_summaries(tree: &PagedTree<Self>, node: &mut Node<Self::Entry>, pool: &mut Self::Pool);
}

/// One build or edit in progress — what it owns and drops: the
/// maintenance I/O it charges, the payload's pool, and the buffer every
/// record is encoded into before [`BlockFile::put`] copies it out.
pub(crate) struct Op<P: Payload> {
    pub edit: TreeEdit,
    pub pool: P::Pool,
    pub codec: CodecId,
    pub out: Writer,
}

impl<P: Payload> Op<P> {
    pub fn new(codec: CodecId) -> Self {
        let (edit, pool) = Default::default();
        // Most records fit in a page.
        let out = Writer::with_capacity(storage::PAGE_SIZE);
        Op {
            edit,
            pool,
            codec,
            out,
        }
    }

    /// The node record of `entries`.
    fn node_record(&mut self, leaf: bool, side: RecordId, entries: &[P::Entry]) -> &[u8] {
        self.out.clear();
        P::encode_node(leaf, side, entries, self);
        self.out.as_bytes()
    }

    /// The side record of `entries` (see [`Payload::encode_side`]).
    fn side_record(&mut self, payload: &P, entries: &[P::Entry]) -> &[u8] {
        self.out.clear();
        payload.encode_side(entries, self);
        self.out.as_bytes()
    }
}

/// Bytes of `meta.mbrs` after the payload's own: root, height, len, fanout.
const META_TAIL: usize = 4 + 4 + 8 + 4;

/// A disk-resident R-tree with per-node side records.
#[derive(Debug, Clone)]
pub(crate) struct PagedTree<P> {
    pub payload: P,
    pub codec: CodecId,
    pub nodes: BlockFile,
    pub side: BlockFile,
    root: RecordId,
    height: u32,
    len: usize,
    fanout: usize,
}

impl<P: Payload> PagedTree<P> {
    /// An empty pair of block files around the given shape.
    fn fresh(payload: P, codec: CodecId, fanout: usize, height: u32, len: usize) -> Self {
        PagedTree {
            payload,
            codec,
            nodes: BlockFile::with_codec(codec),
            side: BlockFile::with_codec(codec),
            root: RecordId(0),
            height,
            len,
            fanout,
        }
    }

    /// Serializes a finished [`BuildTree`] over `data` (`items[i].id`
    /// indexes it) bottom-up, so child records exist before parents —
    /// once for every payload, from one aggregation per node: the trees
    /// share the layout, the node records and the summaries, and differ
    /// in the side records their payloads encode.
    pub fn from_build_tree<const N: usize>(
        payloads: [P; N],
        tree: &BuildTree,
        items: &[BuildItem],
        data: &[P::Item],
        fanout: usize,
        codec: CodecId,
    ) -> [Self; N] {
        let mut outs = payloads.map(|p| Self::fresh(p, codec, fanout, tree.height, data.len()));
        let mut order: Vec<usize> = (0..tree.nodes.len()).collect();
        order.sort_by_key(|&n| tree.nodes[n].level);
        // build index -> the entry the parent stores for that node.
        let mut done: Vec<Option<P::Entry>> = vec![None; tree.nodes.len()];
        let (mut op, mut entries) = (Op::new(codec), Vec::new());
        for n in order {
            let node = &tree.nodes[n];
            entries.clear();
            if node.is_leaf() {
                let item = |&pos: &usize| &data[items[pos].id as usize];
                let leaf = |pos| outs[0].payload.leaf_entry(item(pos), &mut op.pool);
                entries.extend(node.items.iter().map(leaf));
            } else {
                let child = |&c: &usize| done[c].take().expect("children serialize first");
                entries.extend(node.children.iter().map(child));
            }
            let mut summary = P::summarize(&entries, &mut op.pool);
            for out in &mut outs {
                summary.point_at(out.put_node(node.is_leaf(), &entries, None, &mut op));
            }
            done[n] = Some(summary);
        }
        let root = RecordId(done[tree.root].take().expect("root serialized").target());
        for out in &mut outs {
            out.root = root;
        }
        outs
    }

    /// Inserts one item (see [`crate::StTree::insert`]).
    pub fn insert(&mut self, item: &P::Item) -> TreeEdit {
        let mut op = Op::new(self.codec);
        let entry = self.payload.leaf_entry(item, &mut op.pool);
        let rect = entry.rect();
        let mut path: Vec<(Node<P::Entry>, usize)> = Vec::new(); // (node, chosen child)
        let mut current = self.read_node(self.root, &mut op);
        while !current.is_leaf {
            let best = current
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let (a, b) = (a.rect(), b.rect());
                    a.enlargement(&rect)
                        .total_cmp(&b.enlargement(&rect))
                        .then(a.area().total_cmp(&b.area()))
                })
                .map(|(i, _)| i)
                .expect("inner node with no entries");
            let next = RecordId(current.entries[best].target());
            path.push((current, best));
            current = self.read_node(next, &mut op);
        }

        let mut leaf = self.summarized(current, &mut op);
        let before = Self::before_edit(&leaf.entries, &mut op);
        leaf.entries.push(entry);
        self.len += 1;

        // Write the (possibly split) leaf, then walk back up. Once a
        // rewritten node's summary matches what its parent already stores
        // (the common case for a payload that opts in: a typical insert
        // shifts no upper-level maxima), ancestors only need the fresh
        // child id — which keeps incremental maintenance an order of
        // magnitude below a rebuild.
        let (mut carry, mut settled) = self.replace(leaf, before, &mut op);
        for (node, child_idx) in path.into_iter().rev() {
            if settled {
                let child = RecordId(carry[0].target());
                carry[0].point_at(self.repoint(node, child_idx, child, &mut op));
                continue;
            }
            let mut node = self.summarized(node, &mut op);
            let before = Self::before_edit(&node.entries, &mut op);
            // The descended child becomes the rewritten one (and its
            // split sibling when present).
            let mut rewritten = carry.into_iter();
            node.entries[child_idx] = rewritten.next().expect("at least one child");
            node.entries.extend(rewritten);
            (carry, settled) = self.replace(node, before, &mut op);
        }

        // Grow a new root when the old one split.
        if carry.len() > 1 {
            carry = self.write_level(false, carry, None, &mut op);
            assert_eq!(carry.len(), 1, "root split produces one new root");
            self.height += 1;
        }
        self.root = RecordId(carry[0].target());
        op.edit
    }

    /// Removes the item `id` stored at `point` (see
    /// [`crate::StTree::remove`]); `None` when there is no such entry.
    pub fn remove(&mut self, id: u32, point: Point) -> Option<TreeEdit> {
        let mut op = Op::new(self.codec);
        let rect = Rect::from_point(point);
        let mut path: Vec<(Node<P::Entry>, usize)> = Vec::new();
        let leaf = self.find_leaf(self.root, id, &rect, &mut path, &mut op)?;

        let mut leaf = self.summarized(leaf, &mut op);
        let before = Self::before_edit(&leaf.entries, &mut op);
        let pos = leaf.entries.iter().position(|e| e.target() == id);
        leaf.entries
            .remove(pos.expect("find_leaf verified membership"));
        self.len -= 1;

        let min_fill = (self.fanout / 4).max(1);
        // Items of dissolved leaves, reinserted at the end.
        let mut orphans: Vec<P::Item> = Vec::new();
        // The rewritten child to splice into the parent (None = dissolved)
        // and whether its summary is unchanged (see `insert`).
        let (mut carry, mut settled) = (None, false);
        if leaf.entries.len() >= min_fill || path.is_empty() {
            if leaf.entries.is_empty() {
                // The last item is gone — keep a valid empty leaf root.
                self.retire(leaf.id, leaf.side, &mut op.edit);
                self.install_empty_root(&mut op);
                return Some(op.edit);
            }
            let (written, unchanged) = self.replace(leaf, before, &mut op);
            (carry, settled) = (written.into_iter().next(), unchanged); // no split on delete
        } else {
            // Leaf entries carry the exact per-item summary, so the
            // orphans reconstruct losslessly.
            orphans.extend(leaf.entries.iter().map(|e| P::leaf_item(e, &op.pool)));
            self.retire(leaf.id, leaf.side, &mut op.edit);
        }

        // Walk back up, splicing or dropping the rewritten child.
        for (node, child_idx) in path.into_iter().rev() {
            if settled {
                let child = carry.as_mut().expect("settled implies a rewritten child");
                let target = RecordId(child.target());
                child.point_at(self.repoint(node, child_idx, target, &mut op));
                continue;
            }
            let mut node = self.summarized(node, &mut op);
            let before = Self::before_edit(&node.entries, &mut op);
            match carry.take() {
                Some(entry) => node.entries[child_idx] = entry,
                None => drop(node.entries.remove(child_idx)),
            }
            if node.entries.is_empty() {
                self.retire(node.id, node.side, &mut op.edit); // dissolve this node too
                continue;
            }
            let (written, unchanged) = self.replace(node, before, &mut op);
            (carry, settled) = (written.into_iter().next(), unchanged);
        }

        match carry {
            Some(entry) => {
                self.root = RecordId(entry.target());
                // Collapse a root with one inner child.
                loop {
                    let root = self.read_node(self.root, &mut op);
                    if root.is_leaf || root.entries.len() > 1 {
                        break;
                    }
                    self.retire(root.id, root.side, &mut op.edit);
                    self.root = RecordId(root.entries[0].target());
                    self.height -= 1;
                }
            }
            // Everything dissolved: start over from an empty leaf.
            None => self.install_empty_root(&mut op),
        }

        self.len -= orphans.len();
        for item in &orphans {
            op.edit.absorb(self.insert(item));
        }
        Some(op.edit)
    }

    /// Depth-first search for the leaf holding `(id, rect)`; on success
    /// `path` holds the descent (nodes with the child index taken).
    fn find_leaf(
        &self,
        rec: RecordId,
        id: u32,
        rect: &Rect,
        path: &mut Vec<(Node<P::Entry>, usize)>,
        op: &mut Op<P>,
    ) -> Option<Node<P::Entry>> {
        let node = self.read_node(rec, op);
        if node.is_leaf {
            return node
                .entries
                .iter()
                .any(|e| e.target() == id)
                .then_some(node);
        }
        // The node is pushed once; backtracking only advances its index.
        let depth = path.len();
        path.push((node, 0));
        loop {
            let (node, from) = &path[depth];
            let hit =
                (*from..node.entries.len()).find(|&i| node.entries[i].rect().intersects(rect));
            let Some(i) = hit else {
                path.pop();
                return None;
            };
            let child = RecordId(node.entries[i].target());
            path[depth].1 = i;
            if let Some(found) = self.find_leaf(child, id, rect, path, op) {
                return Some(found);
            }
            path[depth].1 = i + 1;
        }
    }

    /// The parent entry of a node about to be edited, when the payload
    /// [settles](Payload::SETTLES) (an empty node has none).
    fn before_edit(entries: &[P::Entry], op: &mut Op<P>) -> Option<P::Entry> {
        (P::SETTLES && !entries.is_empty()).then(|| P::summarize(entries, &mut op.pool))
    }

    /// Writes `node`'s edited entries as its (possibly split) replacement
    /// and retires the old records. Returns the parent entries of the
    /// written node(s) and whether the summary the parent sees is
    /// unchanged from `before`.
    fn replace(
        &mut self,
        node: Node<P::Entry>,
        before: Option<P::Entry>,
        op: &mut Op<P>,
    ) -> (Vec<P::Entry>, bool) {
        // A leaf's entry set just changed, so only ancestors can splice
        // their side payload (compared before the old record is freed).
        let prior_side = (!node.is_leaf).then_some(node.side);
        let written = self.write_level(node.is_leaf, node.entries, prior_side, op);
        self.retire(node.id, node.side, &mut op.edit);
        let same = |b: P::Entry| P::same_summary(&b, &written[0], &op.pool);
        let settled = written.len() == 1 && before.is_some_and(same);
        (written, settled)
    }

    /// Settled-ancestor repair: rewrites only the node record, with the
    /// fresh child id at `child_idx`; every rect and the whole side record
    /// stay untouched (the old side record is reused, not freed). Only
    /// sound when the child's summary is unchanged. The node record is
    /// appended alone, so later node ids run ahead of their side ids (see
    /// `put_node`).
    fn repoint(
        &mut self,
        mut node: Node<P::Entry>,
        child_idx: usize,
        child: RecordId,
        op: &mut Op<P>,
    ) -> RecordId {
        node.entries[child_idx].point_at(child);
        op.edit.stale_keys.push(self.payload.node_key(node.id));
        self.nodes.free(node.id);
        op.edit.node_writes += 1;
        self.nodes
            .put(op.node_record(false, node.side, &node.entries))
    }

    /// Frees a superseded node and its side record, remembering their
    /// page-cache keys.
    fn retire(&mut self, id: RecordId, side: RecordId, edit: &mut TreeEdit) {
        edit.stale_keys.push(self.payload.node_key(id));
        edit.stale_keys.push(self.payload.side_key(side));
        self.nodes.free(id);
        self.side.free(side);
    }

    /// Installs an empty leaf root (the tree just lost its last item).
    fn install_empty_root(&mut self, op: &mut Op<P>) {
        self.root = self.put_node(true, &[], None, op);
        self.height = 1;
    }

    /// Serializes one (possibly overfull) node, splitting when needed.
    /// Returns the parent entries of the written node(s). `prior_side`
    /// (the side record being replaced) only applies when nothing splits.
    fn write_level(
        &mut self,
        is_leaf: bool,
        entries: Vec<P::Entry>,
        prior_side: Option<RecordId>,
        op: &mut Op<P>,
    ) -> Vec<P::Entry> {
        if entries.len() <= self.fanout {
            return vec![self.write_node(is_leaf, &entries, prior_side, op)];
        }
        let rects: Vec<Rect> = entries.iter().map(Entry::rect).collect();
        let (a, b) = quadratic_partition(&rects, self.fanout / 2);
        let mut write_half = |group: Vec<usize>| {
            let half: Vec<P::Entry> = group.iter().map(|&i| entries[i].clone()).collect();
            self.write_node(is_leaf, &half, None, op)
        };
        vec![write_half(a), write_half(b)]
    }

    /// Aggregates and serializes one node; returns the entry its parent
    /// stores.
    fn write_node(
        &mut self,
        is_leaf: bool,
        entries: &[P::Entry],
        prior_side: Option<RecordId>,
        op: &mut Op<P>,
    ) -> P::Entry {
        let mut summary = P::summarize(entries, &mut op.pool);
        summary.point_at(self.put_node(is_leaf, entries, prior_side, op));
        summary
    }

    /// Serializes a node [`Payload::summarize`] just aggregated (or an
    /// empty one): side record first, then the node record. Charges one
    /// node write plus the side payload's blocks — unless the payload
    /// declares the write a splice of `prior_side`'s bytes.
    fn put_node(
        &mut self,
        is_leaf: bool,
        entries: &[P::Entry],
        prior_side: Option<RecordId>,
        op: &mut Op<P>,
    ) -> RecordId {
        let payload = op.side_record(&self.payload, entries);
        let spliced = P::SIDE_SPLICE && prior_side.is_some_and(|old| self.side.get(old) == payload);
        let (blocks, side) = (blocks_for(payload.len()), self.side.put(payload));
        if !spliced {
            op.edit.payload_blocks += blocks;
        }
        op.edit.node_writes += 1;
        let node = self.nodes.put(op.node_record(is_leaf, side, entries));
        // Node record `i`'s side record is record `i` (`StTree::prefetch`
        // counts on it): this is the one writer of side records, and it
        // appends one to each file. Only a settled-ancestor repoint
        // appends a node record alone, after which this tree's later
        // nodes lie ahead of their side records until the next build.
        debug_assert!(
            node == side || P::SETTLES && node > side,
            "node record {node:?} written with side record {side:?}"
        );
        node
    }

    /// Reads a node on the maintenance path: the query-side
    /// [`storage::IoStats`] is not charged, the cost lands in the edit's
    /// counters — one I/O for the node record plus the side record's
    /// blocks when the payload decoded it.
    fn read_node(&self, id: RecordId, op: &mut Op<P>) -> Node<P::Entry> {
        let node = P::read(self, id, &mut op.pool);
        op.edit.read_ios += 1;
        if node.summarized {
            op.edit.read_ios += blocks_for(self.side.get(node.side).len());
        }
        node
    }

    /// Completes a node's summaries, charging the side record's blocks if
    /// it had not been read yet.
    fn summarized(&self, node: Node<P::Entry>, op: &mut Op<P>) -> Node<P::Entry> {
        if !node.summarized {
            op.edit.read_ios += blocks_for(self.side.get(node.side).len());
        }
        self.with_summaries(node, &mut op.pool)
    }

    /// Completes a node's summaries, uncharged.
    fn with_summaries(&self, mut node: Node<P::Entry>, pool: &mut P::Pool) -> Node<P::Entry> {
        if !node.summarized {
            P::load_summaries(self, &mut node, pool);
            node.summarized = true;
        }
        node
    }

    /// Replaces this tree by `fresh`, a bulk load of the same payload. The
    /// edit writes every record of `fresh` and makes every live record of
    /// the replaced files stale.
    pub fn supersede(&mut self, fresh: Self) -> TreeEdit {
        let live = |file: &BlockFile| {
            (0..file.len() as u32)
                .map(RecordId)
                .filter(|&id| !file.is_freed(id))
                .collect::<Vec<_>>()
        };
        let mut stale_keys: Vec<u64> = live(&self.nodes)
            .into_iter()
            .map(|id| self.payload.node_key(id))
            .collect();
        stale_keys.extend(
            live(&self.side)
                .into_iter()
                .map(|id| self.payload.side_key(id)),
        );
        let edit = TreeEdit {
            stale_keys,
            read_ios: 0,
            node_writes: fresh.nodes.live_records() as u64,
            payload_blocks: fresh.side.live_payload_blocks(),
        };
        *self = fresh;
        edit
    }

    /// Persists the tree to `dir` (`nodes.mbrs`, the side file,
    /// `meta.mbrs`), creating the directory when missing.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        storage::save_blockfile(&self.nodes, &dir.join("nodes.mbrs"))?;
        storage::save_blockfile(&self.side, &dir.join(P::SIDE_FILE))?;
        let mut w = Writer::new();
        w.put_bytes(self.payload.meta());
        w.put_u32(self.root.0);
        w.put_u32(self.height);
        w.put_u64(self.len as u64);
        w.put_u32(self.fanout as u32);
        std::fs::write(dir.join("meta.mbrs"), w.into_bytes())
    }

    /// Reopens a tree saved by [`PagedTree::save`]. A damaged `meta.mbrs`
    /// is [`io::ErrorKind::InvalidData`], never a panic or a tree whose
    /// first access would be one.
    pub fn load(dir: &Path) -> io::Result<Self> {
        let bad =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("meta.mbrs: {what}"));
        let nodes = storage::load_blockfile(&dir.join("nodes.mbrs"))?;
        let side = storage::load_blockfile(&dir.join(P::SIDE_FILE))?;
        let meta = std::fs::read(dir.join("meta.mbrs"))?;
        let split = meta
            .len()
            .checked_sub(META_TAIL)
            .ok_or_else(|| bad("truncated"))?;
        let payload = P::from_meta(&meta[..split]).ok_or_else(|| bad("unknown payload header"))?;
        let mut r = Reader::new(&meta[split..]);
        let root = RecordId(r.get_u32());
        let height = r.get_u32();
        let len = r.get_u64() as usize;
        let fanout = r.get_u32() as usize;
        if fanout < 2 {
            return Err(bad("fanout below 2"));
        }
        if height == 0 {
            return Err(bad("zero height"));
        }
        if root.0 as usize >= nodes.len() || nodes.is_freed(root) {
            return Err(bad("root is not a live node record"));
        }
        // The record codec travels in the block-file headers.
        let codec = nodes.codec();
        if side.codec() != codec {
            return Err(bad("node and side files disagree on the codec"));
        }
        Ok(PagedTree {
            nodes,
            side,
            root,
            ..Self::fresh(payload, codec, fanout, height, len)
        })
    }

    pub fn root(&self) -> RecordId {
        self.root
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn fanout(&self) -> usize {
        self.fanout
    }

    pub fn node_bytes(&self) -> u64 {
        self.nodes.bytes()
    }

    pub fn side_bytes(&self) -> u64 {
        self.side.bytes()
    }

    /// Byte footprint the live tree would occupy under
    /// [`CodecId::Verbatim`].
    pub fn logical_bytes(&self) -> u64 {
        if self.codec == CodecId::Verbatim {
            return self.node_bytes() + self.side_bytes();
        }
        let mut total = 0u64;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            // An op per node: nothing read here outlives its node.
            let op = &mut Op::new(CodecId::Verbatim);
            let node = self.with_summaries(P::read(self, id, &mut op.pool), &mut op.pool);
            if !node.entries.is_empty() {
                P::summarize(&node.entries, &mut op.pool);
            }
            total += op.node_record(node.is_leaf, node.side, &node.entries).len() as u64;
            total += op.side_record(&self.payload, &node.entries).len() as u64;
            if !node.is_leaf {
                stack.extend(node.entries.iter().map(|e| RecordId(e.target())));
            }
        }
        total
    }

    /// `(node record, side record)` of every live node, in id order.
    #[cfg(test)]
    pub fn side_ids(&self) -> Vec<(RecordId, RecordId)> {
        let mut pool = P::Pool::default();
        (0..self.nodes.len() as u32)
            .map(RecordId)
            .filter(|&id| !self.nodes.is_freed(id))
            .map(|id| (id, P::read(self, id, &mut pool).side))
            .collect()
    }

    /// One I/O per live node record plus ⌈bytes / 4096⌉ per side record.
    pub fn footprint_io(&self) -> u64 {
        self.nodes.live_records() as u64 + self.side.live_payload_blocks()
    }

    pub fn freed_records(&self) -> u64 {
        (self.nodes.freed_records() + self.side.freed_records()) as u64
    }
}

/// The part of a tree's public surface that is the same under either
/// payload, generated once so [`crate::StTree`] and [`crate::MiurTree`]
/// cannot drift apart. `$tree` is a struct with a `core: PagedTree<_>`
/// field.
macro_rules! tree_api {
    ($tree:ident) => {
        impl $tree {
            /// Persists the tree to `dir` (`nodes.mbrs`, the side block
            /// file, `meta.mbrs`). The directory is created when missing.
            /// Records freed by earlier mutations persist as empty
            /// placeholders (record ids must stay stable); a reopened tree
            /// therefore reports the same byte footprint but keeps the
            /// placeholder slots until the next rebuild.
            pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
                self.core.save(dir)
            }

            /// Reopens a tree saved by [`Self::save`]. A truncated or
            /// inconsistent `meta.mbrs` is reported as
            /// [`std::io::ErrorKind::InvalidData`].
            pub fn load(dir: &std::path::Path) -> std::io::Result<Self> {
                $crate::tree::PagedTree::load(dir).map(|core| $tree { core })
            }

            /// `(node record, side record)` of every live node.
            #[cfg(test)]
            pub(crate) fn side_ids(&self) -> Vec<(storage::RecordId, storage::RecordId)> {
                self.core.side_ids()
            }

            /// Record id of the root node.
            #[inline]
            pub fn root(&self) -> storage::RecordId {
                self.core.root()
            }

            /// Tree height (1 = the root is a leaf).
            #[inline]
            pub fn height(&self) -> u32 {
                self.core.height()
            }

            /// Record codec in use. It is fixed at build time and travels
            /// with the tree: every mutation and rebuild re-encodes with
            /// the same codec.
            #[inline]
            pub fn codec(&self) -> storage::CodecId {
                self.core.codec
            }

            /// Node capacity used during construction.
            #[inline]
            pub fn fanout(&self) -> usize {
                self.core.fanout()
            }

            /// Total bytes of all *live* node records (index footprint
            /// reporting; records superseded by [`Self::insert`] /
            /// [`Self::remove`] are freed and no longer counted).
            pub fn node_bytes(&self) -> u64 {
                self.core.node_bytes()
            }

            /// Byte footprint the live tree would occupy under the
            /// [`storage::CodecId::Verbatim`] codec — the logical
            /// (uncompressed) size a compressing codec's ratio is measured
            /// against. Equals the live node plus side bytes when the tree
            /// already is Verbatim.
            pub fn logical_bytes(&self) -> u64 {
                self.core.logical_bytes()
            }

            /// Simulated I/O to write the whole live tree from scratch:
            /// one I/O per node record plus ⌈bytes / 4096⌉ per side record
            /// — the full rebuild cost an incremental update avoids.
            pub fn footprint_io(&self) -> u64 {
                self.core.footprint_io()
            }

            /// Freed placeholder record slots across both block files.
            /// Mutations retire superseded records but must keep ids
            /// stable, so the slots linger until a full rebuild reclaims
            /// them.
            pub fn freed_records(&self) -> u64 {
                self.core.freed_records()
            }
        }
    };
}
pub(crate) use tree_api;

#[cfg(test)]
mod tests {
    use std::io::ErrorKind;

    use geo::Point;
    use text::{Document, TermId, WeightedDoc};

    use super::*;
    use crate::{IndexedObject, IndexedUser, MiurTree, PostingMode, StTree};

    /// What the damaged-image checks need from either tree.
    struct Saved<T> {
        /// Bytes of `meta.mbrs` before the shared tail.
        header: usize,
        side_file: &'static str,
        load: fn(&Path) -> io::Result<T>,
        /// Saves a churned tree under `codec`; returns a freed node id.
        save: fn(&Path, CodecId) -> RecordId,
    }

    fn save_st(dir: &Path, codec: CodecId) -> RecordId {
        let objects: Vec<IndexedObject> = (0..20)
            .map(|i| IndexedObject {
                id: i,
                point: Point::new(f64::from(i), f64::from(i % 5)),
                doc: WeightedDoc::from_pairs(vec![(TermId(i % 3), 0.5), (TermId(3), 1.0)]),
            })
            .collect();
        let mut tree =
            StTree::build_with_fanout_codec(&objects[1..], PostingMode::MaxMin, 4, codec);
        let old_root = tree.root();
        tree.insert(&objects[0]);
        tree.save(dir).unwrap();
        old_root
    }

    fn save_miur(dir: &Path, codec: CodecId) -> RecordId {
        let users: Vec<IndexedUser> = (0..20)
            .map(|i| IndexedUser {
                id: i,
                point: Point::new(f64::from(i), f64::from(i % 5)),
                doc: Document::from_terms([TermId(0), TermId(1 + i % 3)]),
                norm: 2.0,
            })
            .collect();
        let mut tree = MiurTree::build_with_fanout_codec(&users[1..], 4, codec);
        let old_root = tree.root();
        tree.insert(&users[0]);
        tree.save(dir).unwrap();
        old_root
    }

    /// Every damaged `meta.mbrs` — truncated at any offset, a byte too
    /// long, or with one checked field out of range — a side file of the
    /// other codec and a block file stamped with the previous format
    /// version are `InvalidData`, never a panic or a loaded tree; the
    /// untouched image still loads.
    fn damaged_images_are_rejected<T>(name: &str, saved: Saved<T>) {
        let base =
            std::env::temp_dir().join(format!("mbrstk-damaged-{name}-{}", std::process::id()));
        let (dir, other) = (base.join("verbatim"), base.join("columnar"));
        let freed_root = (saved.save)(&dir, CodecId::Verbatim);
        (saved.save)(&other, CodecId::Columnar);
        let meta_path = dir.join("meta.mbrs");
        let good = std::fs::read(&meta_path).unwrap();
        assert_eq!(good.len(), saved.header + META_TAIL);

        let rejected = |what: &str| match (saved.load)(&dir) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{name}: {what}: {e}"),
            Ok(_) => panic!("{name}: {what}: loaded"),
        };
        let with_meta = |bytes: &[u8], what: &str| {
            std::fs::write(&meta_path, bytes).unwrap();
            rejected(what);
        };
        for cut in 0..good.len() {
            with_meta(&good[..cut], &format!("meta truncated at {cut}"));
        }
        with_meta(&[good.as_slice(), &[0]].concat(), "meta one byte long");
        let patched = |offset: usize, field: &[u8], what: &str| {
            let mut meta = good.clone();
            meta[offset..offset + field.len()].copy_from_slice(field);
            with_meta(&meta, what);
        };
        for mode in (2..=255u8).filter(|_| saved.header == 1) {
            patched(0, &[mode], "unknown mode byte");
        }
        let h = saved.header;
        patched(h, &u32::MAX.to_le_bytes(), "root past the file");
        patched(h, &freed_root.0.to_le_bytes(), "freed root");
        patched(h + 4, &0u32.to_le_bytes(), "zero height");
        patched(h + 16, &0u32.to_le_bytes(), "fanout 0");
        patched(h + 16, &1u32.to_le_bytes(), "fanout 1");

        std::fs::write(&meta_path, &good).unwrap();
        let side = dir.join(saved.side_file);
        let good_side = std::fs::read(&side).unwrap();
        std::fs::copy(other.join(saved.side_file), &side).unwrap();
        rejected("side file of another codec");
        std::fs::write(&side, good_side).unwrap();
        let nodes = dir.join("nodes.mbrs");
        let good_nodes = std::fs::read(&nodes).unwrap();
        let mut v3 = good_nodes.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&nodes, v3).unwrap();
        rejected("nodes file of format version 3");
        std::fs::write(&nodes, good_nodes).unwrap();
        assert!(
            (saved.load)(&dir).is_ok(),
            "{name}: the untouched image loads"
        );
        std::fs::remove_dir_all(base).ok();
    }

    /// `(node record, side record)` pairs.
    type Pairs = Vec<(RecordId, RecordId)>;

    /// How the two files of a tree pair up: `(node record, side record)`
    /// of every live node as built, after edits, and after a save and
    /// load of the edited tree (which must not move them).
    fn side_ids_through_edits<T>(
        build: impl Fn(CodecId) -> T,
        edit: impl Fn(&mut T, &mut splitmix::SplitMix64),
        side_ids: impl Fn(&T) -> Pairs,
        save: impl Fn(&T, &Path),
        load: impl Fn(&Path) -> T,
        name: &str,
    ) -> [(CodecId, Pairs, Pairs); 2] {
        CodecId::ALL.map(|codec| {
            let mut tree = build(codec);
            let built = side_ids(&tree);
            let dir = std::env::temp_dir().join(format!(
                "mbrstk-side-ids-{name}-{codec:?}-{}",
                std::process::id()
            ));
            save(&tree, &dir);
            assert_eq!(side_ids(&load(&dir)), built, "{name} {codec:?}: loaded");
            edit(&mut tree, &mut splitmix::SplitMix64(7));
            let edited = side_ids(&tree);
            save(&tree, &dir);
            assert_eq!(
                side_ids(&load(&dir)),
                edited,
                "{name} {codec:?}: edited, loaded"
            );
            std::fs::remove_dir_all(dir).ok();
            (codec, built, edited)
        })
    }

    /// Node record `i`'s side record is record `i` — what
    /// `StTree::prefetch` counts on — in every tree a build wrote (MIR, IR
    /// and MIUR, both codecs, reopened from a save too) and in an edited
    /// MIUR tree. An MIR or IR edit's settled-ancestor repoint appends a
    /// node record alone, so in an edited tree a node may lie ahead of its
    /// side record, never behind it.
    #[test]
    fn node_records_share_their_side_record_ids() {
        let point = |g: &mut splitmix::SplitMix64| {
            let mut c = || (g.next_u64() % 1_000) as f64 / 10.0;
            Point::new(c(), c())
        };
        let object = |g: &mut splitmix::SplitMix64, id: u32| IndexedObject {
            id,
            point: point(g),
            doc: WeightedDoc::from_pairs(vec![
                (TermId((g.next_u64() % 8) as u32), 0.5),
                (TermId(8 + (g.next_u64() % 8) as u32), 1.0),
            ]),
        };
        let user = |g: &mut splitmix::SplitMix64, id: u32| IndexedUser {
            id,
            point: point(g),
            doc: Document::from_terms([TermId((g.next_u64() % 8) as u32)]),
            norm: 1.0,
        };
        let mut g = splitmix::SplitMix64(3);
        let objects: Vec<IndexedObject> = (0..300).map(|id| object(&mut g, id)).collect();
        let users: Vec<IndexedUser> = (0..300).map(|id| user(&mut g, id)).collect();
        let (mut diverged, mut pairs) = (0, 0);
        for mode in [PostingMode::MaxMin, PostingMode::MaxOnly] {
            let runs = side_ids_through_edits(
                |codec| StTree::build_with_fanout_codec(&objects, mode, 4, codec),
                |tree, g| {
                    for id in 300..400 {
                        tree.insert(&object(g, id));
                    }
                    for o in &objects[..100] {
                        tree.remove(o.id, o.point).expect("indexed");
                    }
                },
                StTree::side_ids,
                |tree, dir| tree.save(dir).unwrap(),
                |dir| StTree::load(dir).unwrap(),
                &format!("{mode:?}"),
            );
            for (codec, built, edited) in runs {
                assert!(
                    built.iter().all(|(n, s)| n == s),
                    "{mode:?} {codec:?}: built"
                );
                assert!(
                    edited.iter().all(|(n, s)| n >= s),
                    "{mode:?} {codec:?}: edited"
                );
                diverged += edited.iter().filter(|(n, s)| n != s).count();
                pairs += built.len() + edited.len();
            }
        }
        let runs = side_ids_through_edits(
            |codec| MiurTree::build_with_fanout_codec(&users, 4, codec),
            |tree, g| {
                for id in 300..400 {
                    tree.insert(&user(g, id));
                }
                for u in &users[..100] {
                    tree.remove(u.id, u.point).expect("indexed");
                }
            },
            MiurTree::side_ids,
            |tree, dir| tree.save(dir).unwrap(),
            |dir| MiurTree::load(dir).unwrap(),
            "miur",
        );
        for (codec, built, edited) in runs {
            assert!(built.iter().all(|(n, s)| n == s), "MIUR {codec:?}: built");
            assert!(edited.iter().all(|(n, s)| n == s), "MIUR {codec:?}: edited");
            pairs += built.len() + edited.len();
        }
        assert!(
            pairs > 1_000 && diverged > 0,
            "coverage: {pairs} nodes, {diverged} edited MIR/IR nodes ahead of their side record"
        );
    }

    #[test]
    fn load_rejects_damaged_images() {
        damaged_images_are_rejected(
            "st",
            Saved {
                header: 1,
                side_file: "invfiles.mbrs",
                load: StTree::load,
                save: save_st,
            },
        );
        damaged_images_are_rejected(
            "miur",
            Saved {
                header: 0,
                side_file: "intuni.mbrs",
                load: MiurTree::load,
                save: save_miur,
            },
        );
    }
}

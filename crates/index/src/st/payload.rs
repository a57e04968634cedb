//! The inverted-file payload of the paged R-tree core: the entry summary
//! ([`TermAgg`]), the node and inverted-file record codecs, and the
//! [`Payload`] hooks that make [`crate::StTree`] an IR-tree / MIR-tree.

use std::collections::HashMap;

use geo::Rect;
use storage::codec::{Reader, Writer};
use storage::{CodecId, RecordId};
use text::{TermId, WeightedDoc};

use super::read::{
    decode_columnar_list_into, invfile_cache_key, node_cache_key, NodeRef, NodeScratch,
};
use super::{ChildRef, IndexedObject, PostingMode};
use crate::tree::{Entry, Node, PagedTree, Payload};

/// The ST payload: all that distinguishes an IR-tree from a MIR-tree is
/// the posting width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct St {
    pub mode: PostingMode,
}

/// One node entry on a maintenance path. `agg` stays empty until the
/// node's inverted file is read ([`Payload::load_summaries`]).
#[derive(Debug, Clone)]
pub(crate) struct StEntry {
    child: ChildRef,
    rect: Rect,
    agg: TermAgg,
}

impl Entry for StEntry {
    fn rect(&self) -> Rect {
        self.rect
    }

    fn target(&self) -> u32 {
        match self.child {
            ChildRef::Node(rid) => rid.0,
            ChildRef::Object(oid) => oid,
        }
    }

    fn point_at(&mut self, child: RecordId) {
        self.child = ChildRef::Node(child);
    }
}

impl Payload for St {
    type Entry = StEntry;
    type Item = IndexedObject;
    type Reweigh = WeightedDoc;
    const SIDE_FILE: &'static str = "invfiles.mbrs";

    fn meta(&self) -> &'static [u8] {
        match self.mode {
            PostingMode::MaxOnly => &[0],
            PostingMode::MaxMin => &[1],
        }
    }

    fn from_meta(bytes: &[u8]) -> Option<Self> {
        let mode = match bytes {
            [0] => PostingMode::MaxOnly,
            [1] => PostingMode::MaxMin,
            _ => return None,
        };
        Some(St { mode })
    }

    fn node_key(&self, id: RecordId) -> u64 {
        node_cache_key(self.mode, id)
    }

    fn side_key(&self, id: RecordId) -> u64 {
        invfile_cache_key(self.mode, id)
    }

    fn leaf_entry(&self, obj: &IndexedObject) -> StEntry {
        StEntry {
            child: ChildRef::Object(obj.id),
            rect: Rect::from_point(obj.point),
            agg: TermAgg::from_doc(&obj.doc),
        }
    }

    fn leaf_item(entry: &StEntry) -> IndexedObject {
        let weights = entry.agg.terms.iter().map(|&(t, mx, _)| (t, mx));
        IndexedObject {
            id: entry.target(),
            point: entry.rect.min,
            doc: WeightedDoc::from_pairs(weights.collect()),
        }
    }

    fn reweigh(&self, entry: &mut StEntry, to: &WeightedDoc) {
        entry.agg = TermAgg::from_doc(to);
        if self.mode == PostingMode::MaxOnly {
            // The IR-tree stores no minima; deserialized rows report 0, so
            // recomputed rows must too for the changed-summary comparison
            // to stay meaningful.
            for row in &mut entry.agg.terms {
                row.2 = 0.0;
            }
        }
    }

    fn summarize(entries: &[StEntry], rec: RecordId) -> StEntry {
        StEntry {
            child: ChildRef::Node(rec),
            rect: Rect::bounding_rects(entries.iter().map(|e| e.rect)).expect("non-empty"),
            agg: TermAgg::merge_entries(entries),
        }
    }

    fn same_summary(a: &StEntry, b: &StEntry) -> bool {
        a.rect == b.rect && a.agg == b.agg
    }

    /// A typical insert shifts no upper-level maxima (and minima are
    /// already poisoned to 0 up there), so the settled-ancestor splice
    /// pays for the aggregate many times over. An empty node (the empty
    /// leaf root) has no summary to keep.
    fn summary_before_edit(entries: &[StEntry]) -> Option<StEntry> {
        (!entries.is_empty()).then(|| Self::summarize(entries, RecordId(0)))
    }

    /// Ancestors that do get rewritten pay their inverted file in full.
    fn side_write_is_free(_old: &[u8], _new: &[u8]) -> bool {
        false
    }

    fn encode_node(is_leaf: bool, side: RecordId, entries: &[StEntry], codec: CodecId) -> Vec<u8> {
        serialize_node(is_leaf, side, entries, codec)
    }

    fn encode_side(&self, entries: &[StEntry], codec: CodecId) -> Vec<u8> {
        serialize_invfile(entries, self.mode, codec)
    }

    /// Structure only: the inverted file is fetched when a rewrite needs
    /// the aggregates, which descent-only and settled ancestors never do.
    fn read(tree: &PagedTree<St>, id: RecordId) -> Node<StEntry> {
        let mut scratch = NodeScratch::default();
        let view = NodeRef::decode(id, tree.nodes.get(id), tree.codec, &mut scratch);
        let entry = |i| StEntry {
            child: view.child(i),
            rect: view.rect(i),
            agg: TermAgg::default(),
        };
        Node {
            id,
            side: view.invfile(),
            is_leaf: view.is_leaf(),
            entries: (0..view.len()).map(entry).collect(),
            summarized: false,
        }
    }

    fn load_summaries(tree: &PagedTree<St>, node: &mut Node<StEntry>) {
        let payload = tree.side.get(node.side);
        let rows =
            deserialize_all_postings(payload, tree.payload.mode, node.entries.len(), tree.codec);
        for (entry, terms) in node.entries.iter_mut().zip(rows) {
            entry.agg = TermAgg { terms };
        }
    }
}

/// Subtree term aggregate carried during construction: per term, the max
/// weight anywhere below, and the min weight when the term is in the
/// subtree intersection (0 otherwise).
///
/// `PartialEq` compares the sorted term rows exactly; mutation paths use
/// it to detect that a rewritten child's summary is unchanged and switch
/// to the settled-ancestor splice (see [`crate::StTree::insert`]).
#[derive(Debug, Clone, Default, PartialEq)]
struct TermAgg {
    /// `(term, max, min)` sorted by term; `min == 0` ⇔ not in intersection.
    terms: Vec<(TermId, f64, f64)>,
}

impl TermAgg {
    fn from_doc(doc: &WeightedDoc) -> Self {
        TermAgg {
            terms: doc.entries.iter().map(|&(t, w)| (t, w, w)).collect(),
        }
    }

    /// Merges sibling aggregates into the parent-entry aggregate.
    fn merge_entries(entries: &[StEntry]) -> Self {
        let mut map: HashMap<TermId, (f64, f64, usize)> = HashMap::new();
        for entry in entries {
            for &(t, max, min) in &entry.agg.terms {
                let slot = map.entry(t).or_insert((0.0, f64::INFINITY, 0));
                slot.0 = slot.0.max(max);
                // min == 0 means "not in this entry's intersection"; it
                // poisons the parent's intersection too.
                slot.1 = slot.1.min(if min > 0.0 { min } else { 0.0 });
                slot.2 += 1;
            }
        }
        let total = entries.len();
        let mut terms: Vec<(TermId, f64, f64)> = map
            .into_iter()
            .map(|(t, (max, min, seen))| {
                let min = if seen == total && min > 0.0 { min } else { 0.0 };
                (t, max, min)
            })
            .collect();
        terms.sort_unstable_by_key(|&(t, _, _)| t);
        TermAgg { terms }
    }
}

// ---------------------------------------------------------------------
// On-disk layouts.
//
// Verbatim node record, v2 (fixed-stride structure-of-arrays; same byte
// count as the interleaved v1 — 9 + 36·n — so every block/byte accounting
// formula is unchanged, but each column is addressable by offset and a
// [`NodeRef`] can read fields in place without decoding the record):
//   u8  is_leaf
//   u32 invfile record id
//   u32 n entries
//   n × u32 child refs
//   n × f64 min.x   n × f64 min.y   n × f64 max.x   n × f64 max.y
//
// Verbatim inverted-file record, v2 (directory + per-term SoA blocks,
// lists ascending by term; block bytes = list_len × 12 (MaxOnly) / 20
// (MaxMin), identical to v1):
//   u32 n_terms
//   n_terms × { u32 term, u32 list_len }
//   per-term blocks: list_len × u32 entry_idx,
//                    list_len × f64 max [, list_len × f64 min]
//
// Columnar node record — every field becomes a column encoded through the
// Columnar codec primitives:
//   u8 is_leaf, varint invfile id, varint n
//   clustered column: n child refs (zigzag'd deltas)
//   f64 column: n × min.x (XOR previous)
//   f64 column: n × min.y (XOR previous)
//   f64 column vs min.x: n × max.x (degenerate leaf rects → 1 byte in all)
//   f64 column vs min.y: n × max.y
//
// Columnar inverted-file record — directory plus a skip table of encoded
// list sizes (varint lists have no fixed stride, so partial reads need
// explicit extents):
//   varint n_terms
//   ascending column: n_terms term ids
//   n_terms × varint list_len
//   n_terms × varint list_bytes        (the skip table)
//   per-term list blocks, ascending by term:
//     ascending column: list_len entry indexes
//     f64 column: list_len maxima (XOR previous)
//     [f64 column vs maxima: list_len minima]   (MaxMin only)
// ---------------------------------------------------------------------

fn serialize_node(
    is_leaf: bool,
    invfile: RecordId,
    entries: &[StEntry],
    codec: CodecId,
) -> Vec<u8> {
    match codec {
        CodecId::Verbatim => {
            let mut w = Writer::with_capacity(9 + entries.len() * 36);
            w.put_u8(u8::from(is_leaf));
            w.put_u32(invfile.0);
            w.put_u32(entries.len() as u32);
            for e in entries {
                w.put_u32(e.target());
            }
            for e in entries {
                w.put_f64(e.rect.min.x);
            }
            for e in entries {
                w.put_f64(e.rect.min.y);
            }
            for e in entries {
                w.put_f64(e.rect.max.x);
            }
            for e in entries {
                w.put_f64(e.rect.max.y);
            }
            w.into_bytes()
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            let mut w = Writer::with_capacity(3 + entries.len() * 12);
            w.put_u8(u8::from(is_leaf));
            w.put_varint_u32(invfile.0);
            w.put_varint_u32(entries.len() as u32);
            let ids: Vec<u32> = entries.iter().map(Entry::target).collect();
            c.put_clustered_u32s(&mut w, &ids);
            let col =
                |f: fn(&Rect) -> f64| entries.iter().map(|e| f(&e.rect)).collect::<Vec<f64>>();
            let (min_x, min_y) = (col(|r| r.min.x), col(|r| r.min.y));
            c.put_f64s(&mut w, &min_x);
            c.put_f64s(&mut w, &min_y);
            c.put_f64s_vs(&mut w, &col(|r| r.max.x), &min_x);
            c.put_f64s_vs(&mut w, &col(|r| r.max.y), &min_y);
            w.into_bytes()
        }
    }
}

/// `term -> [(entry_idx, max, min)]` lists plus the ascending term order.
type TermLists = (Vec<TermId>, HashMap<TermId, Vec<(u32, f64, f64)>>);

/// Gathers per-entry aggregates into `term -> [(entry_idx, max, min)]`
/// lists, ascending by term (entry indexes ascend within each list by
/// construction).
fn gather_lists(entries: &[StEntry]) -> TermLists {
    let mut lists: HashMap<TermId, Vec<(u32, f64, f64)>> = HashMap::new();
    for (i, entry) in entries.iter().enumerate() {
        for &(t, max, min) in &entry.agg.terms {
            lists.entry(t).or_default().push((i as u32, max, min));
        }
    }
    let mut terms: Vec<TermId> = lists.keys().copied().collect();
    terms.sort_unstable();
    (terms, lists)
}

fn serialize_invfile(entries: &[StEntry], mode: PostingMode, codec: CodecId) -> Vec<u8> {
    let (terms, lists) = gather_lists(entries);
    match codec {
        CodecId::Verbatim => {
            let mut w = Writer::new();
            w.put_u32(terms.len() as u32);
            for &t in &terms {
                w.put_u32(t.0);
                w.put_u32(lists[&t].len() as u32);
            }
            for &t in &terms {
                let list = &lists[&t];
                for &(idx, _, _) in list {
                    w.put_u32(idx);
                }
                for &(_, max, _) in list {
                    w.put_f64(max);
                }
                if mode == PostingMode::MaxMin {
                    for &(_, _, min) in list {
                        w.put_f64(min);
                    }
                }
            }
            w.into_bytes()
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            // Encode each term's list block first so the directory can
            // carry the skip table of encoded sizes.
            let blocks: Vec<Vec<u8>> = terms
                .iter()
                .map(|t| {
                    let list = &lists[t];
                    let mut b = Writer::new();
                    let idxs: Vec<u32> = list.iter().map(|&(i, _, _)| i).collect();
                    c.put_ascending_u32s(&mut b, &idxs);
                    let maxs: Vec<f64> = list.iter().map(|&(_, m, _)| m).collect();
                    c.put_f64s(&mut b, &maxs);
                    if mode == PostingMode::MaxMin {
                        let mins: Vec<f64> = list.iter().map(|&(_, _, m)| m).collect();
                        c.put_f64s_vs(&mut b, &mins, &maxs);
                    }
                    b.into_bytes()
                })
                .collect();
            let mut w = Writer::new();
            w.put_varint_u32(terms.len() as u32);
            let term_ids: Vec<u32> = terms.iter().map(|t| t.0).collect();
            c.put_ascending_u32s(&mut w, &term_ids);
            for &t in &terms {
                w.put_varint_u32(lists[&t].len() as u32);
            }
            for b in &blocks {
                w.put_varint_u32(b.len() as u32);
            }
            for b in &blocks {
                w.put_bytes(b);
            }
            w.into_bytes()
        }
    }
}

/// Decoded columnar inverted-file directory: per term, `(term, list_len,
/// block_start, block_end)` absolute byte extents, plus the directory's
/// own end offset.
fn columnar_directory(r: &mut Reader) -> (Vec<(TermId, usize, usize, usize)>, usize) {
    let c = storage::codec(CodecId::Columnar);
    let n_terms = r.get_varint_u32() as usize;
    let mut term_ids = Vec::new();
    c.get_ascending_u32s(r, n_terms, &mut term_ids);
    let lens: Vec<usize> = (0..n_terms).map(|_| r.get_varint_u32() as usize).collect();
    let bytes: Vec<usize> = (0..n_terms).map(|_| r.get_varint_u32() as usize).collect();
    let dir_end = r.position();
    let mut dir = Vec::with_capacity(n_terms);
    let mut offset = dir_end;
    for i in 0..n_terms {
        dir.push((TermId(term_ids[i]), lens[i], offset, offset + bytes[i]));
        offset += bytes[i];
    }
    (dir, dir_end)
}

/// Decodes the entire inverted file into per-entry `(term, max, min)`
/// rows (maintenance path — query reads decode only the wanted lists,
/// see `read.rs`).
fn deserialize_all_postings(
    payload: &[u8],
    mode: PostingMode,
    num_entries: usize,
    codec: CodecId,
) -> Vec<Vec<(TermId, f64, f64)>> {
    let mut r = Reader::new(payload);
    let mut per_entry: Vec<Vec<(TermId, f64, f64)>> = vec![Vec::new(); num_entries];
    match codec {
        CodecId::Verbatim => {
            let n_terms = r.get_u32() as usize;
            let mut dir = Vec::with_capacity(n_terms);
            for _ in 0..n_terms {
                let t = TermId(r.get_u32());
                let len = r.get_u32() as usize;
                dir.push((t, len));
            }
            let mut idxs = Vec::new();
            let mut maxs = Vec::new();
            for (t, len) in dir {
                // SoA block: indexes, then maxima, then minima.
                idxs.clear();
                maxs.clear();
                for _ in 0..len {
                    idxs.push(r.get_u32() as usize);
                }
                for _ in 0..len {
                    maxs.push(r.get_f64());
                }
                for i in 0..len {
                    let min = if mode == PostingMode::MaxMin {
                        r.get_f64()
                    } else {
                        0.0
                    };
                    per_entry[idxs[i]].push((t, maxs[i], min));
                }
            }
        }
        CodecId::Columnar => {
            let (dir, _) = columnar_directory(&mut r);
            let (mut idxs, mut maxs, mut mins) = (Vec::new(), Vec::new(), Vec::new());
            for (t, len, start, _) in dir {
                debug_assert_eq!(r.position(), start);
                let (i, mx, mn) = (&mut idxs, &mut maxs, &mut mins);
                decode_columnar_list_into(&mut r, t, len, mode, i, mx, mn, &mut per_entry);
            }
        }
    }
    debug_assert!(r.is_exhausted());
    // Directory ascends by term, so each row is already sorted.
    per_entry
}

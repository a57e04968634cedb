//! The inverted-file payload of the paged R-tree core: the entry summary,
//! the node and inverted-file record codecs, and the [`Payload`] hooks
//! that make [`crate::StTree`] an IR-tree / MIR-tree.
//!
//! How a node is aggregated. An entry's summary is a span of `(term, max,
//! min)` rows, ascending by term, in the [`Pool`] of the build or edit that
//! holds it (a leaf entry's rows are its object's weights with `min ==
//! max`). [`Payload::summarize`] collects the node's entries' rows, entry
//! by entry, as postings and sorts them by term — a stable sort, which
//! finds each entry's rows as a sorted run and merges the runs, so within
//! a term the entries stay ascending. Each run of one term is then that
//! term's posting list, in the order the inverted file stores it, and
//! folds into one summary row: the max of the maxima, and the min of the
//! minima when every entry holds the term with a positive minimum (0
//! otherwise). [`Payload::encode_side`] writes the same runs, so a node
//! is aggregated once however many trees it is written to. Reading a
//! node's inverted file back decodes the runs and scatters them into one
//! span per entry (an O(postings) counting pass). No step keeps a map or a
//! collection per term.

use geo::Rect;
use storage::codec::{Reader, Writer};
use storage::{CodecId, RecordId};
use text::{TermId, WeightedDoc};

use super::read::{invfile_cache_key, node_cache_key, NodeRef, NodeScratch};
use super::{ChildRef, IndexedObject, PostingMode};
use crate::tree::{Entry, Node, Op, PagedTree, Payload};

/// The ST payload: all that distinguishes an IR-tree from a MIR-tree is
/// the posting width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct St {
    pub mode: PostingMode,
}

/// One node entry on a maintenance path. `rows` is empty until the node's
/// inverted file is read ([`Payload::load_summaries`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StEntry {
    child: ChildRef,
    rect: Rect,
    /// The entry's summary: `pool.rows[rows.0..rows.1]`.
    rows: (u32, u32),
}

/// `(term, max, min)`: a term's max weight below an entry, and its min
/// weight when the term is in the entry's subtree intersection (0
/// otherwise).
type Row = (TermId, f64, f64);

/// One posting of the node being aggregated, encoded or decoded: the
/// `row` of one term under the node's entry `entry`.
#[derive(Debug, Clone, Copy)]
struct Posting {
    entry: u32,
    row: Row,
}

/// The scratch of one build or edit: every entry summary it holds, the
/// postings of the node last aggregated, and the buffers the codecs fill.
#[derive(Debug, Default)]
pub(crate) struct Pool {
    rows: Vec<Row>,
    /// Ascending by term, then by entry.
    runs: Vec<Posting>,
    node: NodeScratch,
    u32s: [Vec<u32>; 2],
    f64s: [Vec<f64>; 3],
    /// Columnar list blocks, encoded ahead of the directory that sizes
    /// them.
    blocks: Writer,
}

impl Pool {
    /// Appends a summary and returns its span.
    fn push(&mut self, rows: impl Iterator<Item = Row>) -> (u32, u32) {
        let start = self.rows.len() as u32;
        self.rows.extend(rows);
        (start, self.rows.len() as u32)
    }
}

impl StEntry {
    fn span(&self) -> std::ops::Range<usize> {
        self.rows.0 as usize..self.rows.1 as usize
    }
}

impl Posting {
    fn term(&self) -> TermId {
        self.row.0
    }
}

/// `vals` collected into `buf`, which is cleared first.
fn column<T: Copy>(buf: &mut Vec<T>, vals: impl Iterator<Item = T>) -> &[T] {
    buf.clear();
    buf.extend(vals);
    buf
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
    type Pool = Pool;
    const SIDE_FILE: &'static str = "invfiles.mbrs";
    /// A typical insert shifts no upper-level maxima (and minima are
    /// already poisoned to 0 up there), so the settled-ancestor splice
    /// pays for the aggregate many times over.
    const SETTLES: bool = true;
    /// Ancestors that do get rewritten pay their inverted file in full.
    const SIDE_SPLICE: bool = false;

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

    fn leaf_entry(&self, obj: &IndexedObject, pool: &mut Pool) -> StEntry {
        StEntry {
            child: ChildRef::Object(obj.id),
            rect: Rect::from_point(obj.point),
            rows: pool.push(obj.doc.entries.iter().map(|&(t, w)| (t, w, w))),
        }
    }

    fn leaf_item(entry: &StEntry, pool: &Pool) -> IndexedObject {
        let weights = pool.rows[entry.span()].iter().map(|&(t, mx, _)| (t, mx));
        IndexedObject {
            id: entry.target(),
            point: entry.rect.min,
            doc: WeightedDoc::from_pairs(weights.collect()),
        }
    }

    fn summarize(entries: &[StEntry], pool: &mut Pool) -> StEntry {
        let Pool { rows, runs, .. } = pool;
        runs.clear();
        for (i, e) in entries.iter().enumerate() {
            let entry = i as u32;
            runs.extend(rows[e.span()].iter().map(|&row| Posting { entry, row }));
        }
        runs.sort_by_key(|p| p.term());
        let start = rows.len() as u32;
        for run in runs.chunk_by(|a, b| a.term() == b.term()) {
            let max = run.iter().fold(0.0, |m: f64, p| m.max(p.row.1));
            // A min of 0 means "not in this entry's intersection"; it
            // poisons the parent's intersection, as a missing entry does.
            let min = run.iter().fold(f64::INFINITY, |m, p| m.min(p.row.2));
            let shared = run.len() == entries.len() && min > 0.0;
            rows.push((run[0].term(), max, if shared { min } else { 0.0 }));
        }
        StEntry {
            child: ChildRef::Node(RecordId(0)),
            rect: Rect::bounding_rects(entries.iter().map(|e| e.rect)).expect("non-empty"),
            rows: (start, rows.len() as u32),
        }
    }

    fn same_summary(a: &StEntry, b: &StEntry, pool: &Pool) -> bool {
        a.rect == b.rect && pool.rows[a.span()] == pool.rows[b.span()]
    }

    fn encode_node(is_leaf: bool, side: RecordId, entries: &[StEntry], op: &mut Op<St>) {
        serialize_node(is_leaf, side, entries, op.codec, &mut op.pool, &mut op.out);
    }

    fn encode_side(&self, entries: &[StEntry], op: &mut Op<St>) {
        if entries.is_empty() {
            op.pool.runs.clear();
        }
        serialize_invfile(self.mode, op.codec, &mut op.pool, &mut op.out);
    }

    /// Structure only: the inverted file is fetched when a rewrite needs
    /// the aggregates, which descent-only and settled ancestors never do.
    fn read(tree: &PagedTree<St>, id: RecordId, pool: &mut Pool) -> Node<StEntry> {
        let view = NodeRef::decode(id, tree.nodes.get(id), tree.codec, &mut pool.node);
        let entry = |i| StEntry {
            child: view.child(i),
            rect: view.rect(i),
            rows: (0, 0),
        };
        Node {
            id,
            side: view.invfile(),
            is_leaf: view.is_leaf(),
            entries: (0..view.len()).map(entry).collect(),
            summarized: false,
        }
    }

    fn load_summaries(tree: &PagedTree<St>, node: &mut Node<StEntry>, pool: &mut Pool) {
        deserialize_runs(tree, node.side, pool);
        // Count each entry's postings, give it a span of that many rows,
        // then scatter the term-major runs into the spans: each comes out
        // ascending by term.
        let (rows, runs, [at, _]) = (&mut pool.rows, &pool.runs, &mut pool.u32s);
        column(at, std::iter::repeat_n(0, node.entries.len()));
        for p in runs.iter() {
            at[p.entry as usize] += 1;
        }
        let mut end = rows.len() as u32;
        for (e, at) in node.entries.iter_mut().zip(at.iter_mut()) {
            e.rows = (end, end + *at);
            (*at, end) = (end, end + *at);
        }
        rows.resize(end as usize, (TermId(0), 0.0, 0.0));
        for p in runs.iter() {
            let at = &mut at[p.entry as usize];
            rows[*at as usize] = p.row;
            *at += 1;
        }
    }
}

// ---------------------------------------------------------------------
// On-disk layouts. Both codecs write a node's postings term by term, in
// the order `summarize` leaves them in `pool.runs`.
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
// Columnar inverted-file record — a directory of one varint triple per
// term, carrying each list's encoded size (varint lists have no fixed
// stride, so partial reads need explicit extents), then the lists. The
// list blocks and the triples are built first, into pooled buffers, so
// the sizes can be written ahead of the blocks and the directory's byte
// length, summed from its varints' lengths, ahead of the triples:
//   varint dir_bytes                   (the byte length of the triples)
//   n_terms × { varint term delta, varint list_len, varint list_bytes }
//                                      (the first delta is from term 0)
//   per-term list blocks, ascending by term:
//     ascending column: list_len entry indexes
//     f64 column: list_len maxima (XOR previous)
//     [f64 column vs maxima: list_len minima]   (MaxMin only)
// ---------------------------------------------------------------------

/// The MBR columns of a node record, in record order.
const MBR: [fn(&Rect) -> f64; 4] = [|r| r.min.x, |r| r.min.y, |r| r.max.x, |r| r.max.y];

fn serialize_node(
    is_leaf: bool,
    invfile: RecordId,
    entries: &[StEntry],
    codec: CodecId,
    pool: &mut Pool,
    w: &mut Writer,
) {
    match codec {
        CodecId::Verbatim => {
            w.put_u8(u8::from(is_leaf));
            w.put_u32(invfile.0);
            w.put_u32(entries.len() as u32);
            for e in entries {
                w.put_u32(e.target());
            }
            for coord in MBR {
                for e in entries {
                    w.put_f64(coord(&e.rect));
                }
            }
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            w.put_u8(u8::from(is_leaf));
            w.put_varint_u32(invfile.0);
            w.put_varint_u32(entries.len() as u32);
            let ([ids, _], [min_x, min_y, max]) = (&mut pool.u32s, &mut pool.f64s);
            c.put_clustered_u32s(w, column(ids, entries.iter().map(Entry::target)));
            let coord = |i: usize| entries.iter().map(move |e| MBR[i](&e.rect));
            c.put_f64s(w, column(min_x, coord(0)));
            c.put_f64s(w, column(min_y, coord(1)));
            c.put_f64s_vs(w, column(max, coord(2)), min_x);
            c.put_f64s_vs(w, column(max, coord(3)), min_y);
        }
    }
}

/// Writes the inverted file of the runs in `pool`.
fn serialize_invfile(mode: PostingMode, codec: CodecId, pool: &mut Pool, w: &mut Writer) {
    let (runs, blocks) = (&pool.runs, &mut pool.blocks);
    let ([ids, dir], [maxs, mins, _]) = (&mut pool.u32s, &mut pool.f64s);
    let lists = || runs.chunk_by(|a, b| a.term() == b.term());
    let with_min = mode == PostingMode::MaxMin;
    match codec {
        CodecId::Verbatim => {
            w.put_u32(lists().count() as u32);
            for list in lists() {
                w.put_u32(list[0].term().0);
                w.put_u32(list.len() as u32);
            }
            for list in lists() {
                for p in list {
                    w.put_u32(p.entry);
                }
                for p in list {
                    w.put_f64(p.row.1);
                }
                for p in list.iter().filter(|_| with_min) {
                    w.put_f64(p.row.2);
                }
            }
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            blocks.clear();
            dir.clear();
            let mut prev = 0;
            for list in lists() {
                let start = blocks.len();
                c.put_ascending_u32s(blocks, column(ids, list.iter().map(|p| p.entry)));
                c.put_f64s(blocks, column(maxs, list.iter().map(|p| p.row.1)));
                if with_min {
                    c.put_f64s_vs(blocks, column(mins, list.iter().map(|p| p.row.2)), maxs);
                }
                let (term, size) = (list[0].term().0, blocks.len() - start);
                dir.extend([term - prev, list.len() as u32, size as u32]);
                prev = term;
            }
            let dir_bytes: usize = dir.iter().map(|&v| varint_len(v)).sum();
            w.put_varint_u32(dir_bytes as u32);
            for &v in dir.iter() {
                w.put_varint_u32(v);
            }
            w.put_bytes(blocks.as_bytes());
        }
    }
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u32) -> usize {
    (32 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Opens a Columnar inverted file: a reader over its directory's triples
/// alone, and the byte offset of its first list block.
///
/// # Panics
/// Panics when the stored directory length runs past the record.
pub(super) fn columnar_directory(payload: &[u8]) -> (Reader<'_>, usize) {
    let mut r = Reader::new(payload);
    let dir_bytes = r.get_varint_u32() as usize;
    let start = r.position();
    r.skip(dir_bytes);
    (Reader::new(&payload[start..r.position()]), r.position())
}

/// Decodes a whole inverted file into `pool.runs`, term by term (the
/// maintenance read; queries decode the wanted lists only, see
/// `read.rs`).
fn deserialize_runs(tree: &PagedTree<St>, side: RecordId, pool: &mut Pool) {
    let runs = &mut pool.runs;
    let ([idxs, _], [maxs, mins, _]) = (&mut pool.u32s, &mut pool.f64s);
    runs.clear();
    let payload = tree.side.get(side);
    let mut r = Reader::new(payload);
    let with_min = tree.payload.mode == PostingMode::MaxMin;
    match tree.codec {
        CodecId::Verbatim => {
            let n_terms = r.get_u32() as usize;
            let mut dir = Reader::new(&payload[4..]);
            r.skip(8 * n_terms);
            for _ in 0..n_terms {
                let (term, len) = (TermId(dir.get_u32()), dir.get_u32() as usize);
                // SoA block: indexes, then maxima, then minima.
                let (list, row) = (runs.len(), (term, 0.0, 0.0));
                runs.extend((0..len).map(|_| Posting {
                    entry: r.get_u32(),
                    row,
                }));
                for p in &mut runs[list..] {
                    p.row.1 = r.get_f64();
                }
                for p in runs[list..].iter_mut().filter(|_| with_min) {
                    p.row.2 = r.get_f64();
                }
            }
        }
        CodecId::Columnar => {
            let c = storage::codec(CodecId::Columnar);
            let (mut dir, dir_end) = columnar_directory(payload);
            r.seek(dir_end);
            let mut term = 0;
            while !dir.is_exhausted() {
                term += dir.get_varint_u32();
                let len = dir.get_varint_u32() as usize;
                dir.get_varint_u32(); // the list's size: every list is read
                idxs.clear();
                maxs.clear();
                mins.clear();
                c.get_ascending_u32s(&mut r, len, idxs);
                c.get_f64s(&mut r, len, maxs);
                if with_min {
                    c.get_f64s_vs(&mut r, len, maxs, mins);
                } else {
                    mins.resize(len, 0.0);
                }
                for ((&entry, &max), &min) in idxs.iter().zip(maxs.iter()).zip(mins.iter()) {
                    runs.push(Posting {
                        entry,
                        row: (TermId(term), max, min),
                    });
                }
            }
        }
    }
    debug_assert!(r.is_exhausted());
}

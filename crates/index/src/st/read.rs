//! The query-side read path of [`StTree`]: zero-copy node and postings
//! views over the record payloads, their reusable scratch buffers, and
//! the owned convenience views beside them. Every access here charges
//! the paper's simulated I/O ([`IoStats`]); maintenance reads go through
//! the core instead ([`crate::tree`]).

use geo::{Point, Rect};
use storage::codec::Reader;
use storage::{CodecId, IoStats, RecordId};
use text::TermId;

use super::{ChildRef, PostingMode, StTree};

/// Cache key for a node record (distinct per posting mode so IR and MIR
/// trees sharing one counter never alias).
pub(super) fn node_cache_key(mode: PostingMode, id: RecordId) -> u64 {
    let kind = match mode {
        PostingMode::MaxOnly => 0u64,
        PostingMode::MaxMin => 1,
    };
    (kind << 33) | u64::from(id.0)
}

/// Cache key for an inverted-file record.
pub(super) fn invfile_cache_key(mode: PostingMode, id: RecordId) -> u64 {
    node_cache_key(mode, id) | (1 << 32)
}

/// One deserialized entry of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryView {
    /// The entry's MBR (degenerate for leaf entries — the object location).
    pub rect: Rect,
    /// Target of the entry.
    pub child: ChildRef,
}

/// A deserialized tree node.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Record id of this node.
    pub id: RecordId,
    /// True for leaves (entries are objects).
    pub is_leaf: bool,
    /// The node's entries.
    pub entries: Vec<EntryView>,
    invfile: RecordId,
}

impl NodeView {
    /// Location of leaf entry `i` (its degenerate MBR corner).
    pub fn entry_point(&self, i: usize) -> Point {
        self.entries[i].rect.min
    }
}

/// Postings of one node restricted to a set of query terms.
///
/// `per_entry[i]` lists `(term, maxw, minw)` ascending by term for entry
/// `i`; in [`PostingMode::MaxOnly`] the minimum mirrors the maximum at the
/// leaf level and is unavailable above it (the IR-tree stores no minima),
/// so it is reported as 0.
#[derive(Debug, Clone)]
pub struct Postings {
    /// Per-entry `(term, maxw, minw)` triples, ascending by term.
    pub per_entry: Vec<Vec<(TermId, f64, f64)>>,
}

/// Reusable decode buffers for [`StTree::read_node_ref`].
///
/// Verbatim records are read in place and leave the scratch untouched;
/// Columnar records decode their columns here. Buffers are cleared (not
/// freed) per read, so a scratch that has seen a node of each size again
/// never allocates.
#[derive(Debug, Default)]
pub struct NodeScratch {
    ids: Vec<u32>,
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
}

/// A zero-copy view of one tree node.
///
/// Under [`CodecId::Verbatim`] the view borrows the record payload
/// directly (the v2 structure-of-arrays layout makes every column
/// addressable by offset); under [`CodecId::Columnar`] it borrows the
/// columns decoded into the caller's [`NodeScratch`]. Either way no
/// per-entry allocation happens on the read path. Callers that need an
/// owned node use [`NodeRef::to_owned_view`].
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'a> {
    id: RecordId,
    is_leaf: bool,
    invfile: RecordId,
    n: usize,
    repr: NodeRepr<'a>,
}

#[derive(Debug, Clone, Copy)]
enum NodeRepr<'a> {
    /// Full Verbatim payload; entry columns start at byte 9.
    Verbatim(&'a [u8]),
    /// Columnar payload decoded into caller scratch.
    Columns(&'a NodeScratch),
}

#[inline]
fn raw_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

#[inline]
fn raw_f64(bytes: &[u8], off: usize) -> f64 {
    f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

impl<'a> NodeRef<'a> {
    pub(super) fn decode(
        id: RecordId,
        payload: &'a [u8],
        codec: CodecId,
        scratch: &'a mut NodeScratch,
    ) -> Self {
        let mut r = Reader::new(payload);
        match codec {
            CodecId::Verbatim => {
                let is_leaf = r.get_u8() != 0;
                let invfile = RecordId(r.get_u32());
                let n = r.get_u32() as usize;
                debug_assert_eq!(payload.len(), 9 + 36 * n);
                NodeRef {
                    id,
                    is_leaf,
                    invfile,
                    n,
                    repr: NodeRepr::Verbatim(payload),
                }
            }
            CodecId::Columnar => {
                let c = storage::codec(codec);
                let is_leaf = r.get_u8() != 0;
                let invfile = RecordId(r.get_varint_u32());
                let n = r.get_varint_u32() as usize;
                let NodeScratch {
                    ids,
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                } = &mut *scratch;
                ids.clear();
                min_x.clear();
                min_y.clear();
                max_x.clear();
                max_y.clear();
                c.get_clustered_u32s(&mut r, n, ids);
                c.get_f64s(&mut r, n, min_x);
                c.get_f64s(&mut r, n, min_y);
                c.get_f64s_vs(&mut r, n, min_x, max_x);
                c.get_f64s_vs(&mut r, n, min_y, max_y);
                debug_assert!(r.is_exhausted());
                NodeRef {
                    id,
                    is_leaf,
                    invfile,
                    n,
                    repr: NodeRepr::Columns(scratch),
                }
            }
        }
    }

    /// Record id of this node.
    #[inline]
    pub fn id(&self) -> RecordId {
        self.id
    }

    /// Record id of the node's inverted file.
    #[inline]
    pub(super) fn invfile(&self) -> RecordId {
        self.invfile
    }

    /// True for leaves (entries are objects).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the node has no entries (empty root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn raw_id(&self, i: usize) -> u32 {
        debug_assert!(i < self.n);
        match self.repr {
            NodeRepr::Verbatim(b) => raw_u32(b, 9 + 4 * i),
            NodeRepr::Columns(s) => s.ids[i],
        }
    }

    /// Target of entry `i`.
    #[inline]
    pub fn child(&self, i: usize) -> ChildRef {
        let raw = self.raw_id(i);
        if self.is_leaf {
            ChildRef::Object(raw)
        } else {
            ChildRef::Node(RecordId(raw))
        }
    }

    /// MBR of entry `i` (degenerate for leaf entries).
    #[inline]
    pub fn rect(&self, i: usize) -> Rect {
        debug_assert!(i < self.n);
        match self.repr {
            NodeRepr::Verbatim(b) => {
                let n = self.n;
                Rect::new(
                    Point::new(
                        raw_f64(b, 9 + 4 * n + 8 * i),
                        raw_f64(b, 9 + 12 * n + 8 * i),
                    ),
                    Point::new(
                        raw_f64(b, 9 + 20 * n + 8 * i),
                        raw_f64(b, 9 + 28 * n + 8 * i),
                    ),
                )
            }
            NodeRepr::Columns(s) => Rect::new(
                Point::new(s.min_x[i], s.min_y[i]),
                Point::new(s.max_x[i], s.max_y[i]),
            ),
        }
    }

    /// Location of leaf entry `i` (its degenerate MBR corner).
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.rect(i).min
    }

    /// Entry `i` as an owned [`EntryView`].
    #[inline]
    pub fn entry(&self, i: usize) -> EntryView {
        EntryView {
            rect: self.rect(i),
            child: self.child(i),
        }
    }

    /// Materializes an owned [`NodeView`] — the escape hatch for callers
    /// that outlive the borrow.
    pub fn to_owned_view(&self) -> NodeView {
        NodeView {
            id: self.id,
            is_leaf: self.is_leaf,
            entries: (0..self.n).map(|i| self.entry(i)).collect(),
            invfile: self.invfile,
        }
    }
}

/// Reusable decode buffers for [`StTree::read_postings_ref`].
///
/// Rows are cleared, never dropped, between reads; columnar list columns
/// decode into the column buffers. After one read per distinct node shape
/// the scratch stops allocating.
#[derive(Debug, Default)]
pub struct PostingsScratch {
    rows: Vec<Vec<(TermId, f64, f64)>>,
    touched: Vec<(usize, usize)>,
    idxs: Vec<u32>,
    maxs: Vec<f64>,
    mins: Vec<f64>,
    term_ids: Vec<u32>,
    lens: Vec<u32>,
    sizes: Vec<u32>,
}

impl PostingsScratch {
    /// Clears and exposes the first `n` rows.
    fn reset_rows(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        for row in &mut self.rows[..n] {
            row.clear();
        }
    }
}

/// Borrowed postings of one node restricted to a set of query terms —
/// the zero-copy twin of [`Postings`], living in a [`PostingsScratch`].
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    rows: &'a [Vec<(TermId, f64, f64)>],
}

impl PostingsRef<'_> {
    /// `(term, maxw, minw)` rows for entry `i`, ascending by term.
    #[inline]
    pub fn entry(&self, i: usize) -> &[(TermId, f64, f64)] {
        &self.rows[i]
    }

    /// Number of entries covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the node had no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Materializes owned [`Postings`].
    pub fn to_owned_postings(&self) -> Postings {
        Postings {
            per_entry: self.rows.to_vec(),
        }
    }
}

impl StTree {
    /// Reads (visits) a node, charging one simulated I/O (free on a warm
    /// cache hit when the counter carries one). Owned-view convenience
    /// over [`StTree::read_node_ref`] for tooling and tests.
    pub fn read_node(&self, id: RecordId, io: &IoStats) -> NodeView {
        let mut scratch = NodeScratch::default();
        self.read_node_ref(id, io, &mut scratch).to_owned_view()
    }

    /// Reads (visits) a node zero-copy: Verbatim payloads are viewed in
    /// place, Columnar payloads decode into `scratch`. Charges exactly
    /// like [`StTree::read_node`] (one node visit, free on warm cache
    /// hit).
    pub fn read_node_ref<'a>(
        &'a self,
        id: RecordId,
        io: &IoStats,
        scratch: &'a mut NodeScratch,
    ) -> NodeRef<'a> {
        io.charge_node_visit_keyed(node_cache_key(self.mode(), id));
        NodeRef::decode(
            id,
            self.core.nodes.record_bytes(id),
            self.core.codec,
            scratch,
        )
    }

    /// Loads the node's inverted file and extracts postings for `terms`
    /// (which must be sorted ascending). Owned convenience over
    /// [`StTree::read_postings_ref`] — identical I/O charges.
    pub fn read_postings(&self, node: &NodeView, terms: &[TermId], io: &IoStats) -> Postings {
        let mut scratch = PostingsScratch::default();
        self.postings_impl(node.invfile, node.entries.len(), terms, io, &mut scratch)
            .to_owned_postings()
    }

    /// Zero-copy postings read for a [`NodeRef`].
    ///
    /// Under [`CodecId::Verbatim`] the whole file is loaded and charged
    /// ⌈file bytes / 4096⌉ simulated I/Os — the paper's inverted-file
    /// rule. Under [`CodecId::Columnar`] the skip table lets the read
    /// touch only the directory and the wanted term lists, so the charge
    /// is the number of *distinct 4 KB pages those extents overlap* — a
    /// partial-column read of a cold record. The record keeps one cache
    /// key either way; a warm hit is free. Rows decode into `scratch`,
    /// which is cleared, not freed, between reads.
    pub fn read_postings_ref<'a>(
        &self,
        node: &NodeRef<'_>,
        terms: &[TermId],
        io: &IoStats,
        scratch: &'a mut PostingsScratch,
    ) -> PostingsRef<'a> {
        self.postings_impl(node.invfile, node.len(), terms, io, scratch)
    }

    fn postings_impl<'a>(
        &self,
        invfile: RecordId,
        num_entries: usize,
        terms: &[TermId],
        io: &IoStats,
        scratch: &'a mut PostingsScratch,
    ) -> PostingsRef<'a> {
        debug_assert!(
            terms.windows(2).all(|w| w[0] < w[1]),
            "terms must be sorted"
        );
        let mode = self.mode();
        let payload = self.core.side.record_bytes(invfile);
        let key = invfile_cache_key(mode, invfile);
        match self.core.codec {
            CodecId::Verbatim => {
                io.charge_invfile_keyed(key, payload.len());
                deserialize_postings_into(payload, mode, terms, num_entries, scratch);
            }
            CodecId::Columnar => {
                deserialize_postings_columnar_into(payload, mode, terms, num_entries, scratch);
                io.charge_invfile_blocks_keyed(key, storage::pages_for_ranges(&scratch.touched));
            }
        }
        PostingsRef {
            rows: &scratch.rows[..num_entries],
        }
    }
}

/// Decodes one columnar list block (positioned at its start): columns
/// decode into the caller's reusable buffers before scattering into
/// `per_entry` rows.
#[allow(clippy::too_many_arguments)]
pub(super) fn decode_columnar_list_into(
    r: &mut Reader,
    t: TermId,
    len: usize,
    mode: PostingMode,
    idxs: &mut Vec<u32>,
    maxs: &mut Vec<f64>,
    mins: &mut Vec<f64>,
    per_entry: &mut [Vec<(TermId, f64, f64)>],
) {
    let c = storage::codec(CodecId::Columnar);
    idxs.clear();
    maxs.clear();
    mins.clear();
    c.get_ascending_u32s(r, len, idxs);
    c.get_f64s(r, len, maxs);
    if mode == PostingMode::MaxMin {
        c.get_f64s_vs(r, len, maxs, mins);
    } else {
        mins.resize(len, 0.0);
    }
    for i in 0..len {
        per_entry[idxs[i] as usize].push((t, maxs[i], mins[i]));
    }
}

/// Decodes the wanted term lists of a Verbatim (v2 SoA) inverted file
/// into `scratch.rows` — fully in place: the fixed-stride directory and
/// the per-term column blocks are addressed by offset, so nothing but the
/// output rows is written.
fn deserialize_postings_into(
    payload: &[u8],
    mode: PostingMode,
    wanted: &[TermId],
    num_entries: usize,
    scratch: &mut PostingsScratch,
) {
    scratch.reset_rows(num_entries);
    let n_terms = raw_u32(payload, 0) as usize;
    let posting_width = match mode {
        PostingMode::MaxOnly => 12,
        PostingMode::MaxMin => 20,
    };
    let mut offset = 4 + n_terms * 8;
    let mut w = 0usize;
    for j in 0..n_terms {
        // Directory entry j: (term, list_len) at fixed stride 8.
        let t = TermId(raw_u32(payload, 4 + 8 * j));
        let len = raw_u32(payload, 8 + 8 * j) as usize;
        // Advance the wanted cursor (both sides ascend).
        while w < wanted.len() && wanted[w] < t {
            w += 1;
        }
        if w < wanted.len() && wanted[w] == t {
            let max_base = offset + 4 * len;
            let min_base = max_base + 8 * len;
            for i in 0..len {
                let idx = raw_u32(payload, offset + 4 * i) as usize;
                let max = raw_f64(payload, max_base + 8 * i);
                let min = if mode == PostingMode::MaxMin {
                    raw_f64(payload, min_base + 8 * i)
                } else {
                    0.0
                };
                scratch.rows[idx].push((t, max, min));
            }
        }
        offset += len * posting_width;
    }
    debug_assert_eq!(offset, payload.len());
}

/// Columnar twin of [`deserialize_postings_into`]: decodes only the
/// directory and the wanted lists into `scratch`, recording the byte
/// extents it touched in `scratch.touched` (ascending — the caller
/// charges partial pages from them).
fn deserialize_postings_columnar_into(
    payload: &[u8],
    mode: PostingMode,
    wanted: &[TermId],
    num_entries: usize,
    scratch: &mut PostingsScratch,
) {
    scratch.reset_rows(num_entries);
    let PostingsScratch {
        rows,
        touched,
        idxs,
        maxs,
        mins,
        term_ids,
        lens,
        sizes,
    } = scratch;
    touched.clear();
    term_ids.clear();
    lens.clear();
    sizes.clear();
    let c = storage::codec(CodecId::Columnar);
    let mut r = Reader::new(payload);
    let n_terms = r.get_varint_u32() as usize;
    c.get_ascending_u32s(&mut r, n_terms, term_ids);
    for _ in 0..n_terms {
        lens.push(r.get_varint_u32());
    }
    for _ in 0..n_terms {
        sizes.push(r.get_varint_u32());
    }
    let dir_end = r.position();
    touched.push((0, dir_end));
    let mut offset = dir_end;
    let mut w = 0usize;
    for j in 0..n_terms {
        let t = TermId(term_ids[j]);
        let len = lens[j] as usize;
        let end = offset + sizes[j] as usize;
        while w < wanted.len() && wanted[w] < t {
            w += 1;
        }
        if w < wanted.len() && wanted[w] == t {
            r.seek(offset);
            decode_columnar_list_into(&mut r, t, len, mode, idxs, maxs, mins, rows);
            debug_assert_eq!(r.position(), end);
            touched.push((offset, end));
        }
        offset = end;
    }
}

//! The query-side read path of [`StTree`]: zero-copy node and postings
//! views over the record payloads and their reusable scratch buffers.
//! Every access here charges
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
/// per-entry allocation happens on the read path.
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

    /// Location of leaf entry `i` (its degenerate MBR corner). Reads the
    /// two `min` columns only.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        debug_assert!(i < self.n);
        match self.repr {
            NodeRepr::Verbatim(b) => Point::new(
                raw_f64(b, 9 + 4 * self.n + 8 * i),
                raw_f64(b, 9 + 12 * self.n + 8 * i),
            ),
            NodeRepr::Columns(s) => Point::new(s.min_x[i], s.min_y[i]),
        }
    }
}

/// Reusable decode buffers for [`StTree::read_postings_ref`]: one flat
/// layout per node, whatever the codec.
///
/// The wanted lists decode term-major into one set of columns, one list
/// after another; one stable counting pass then lays the same postings out
/// per entry (a CSR: an offset column over one run of rows), so no entry
/// owns a buffer. `touched` keeps the byte extents a Columnar read is
/// charged for; the Columnar directory itself is never materialised — it
/// is walked in place, see `deserialize_postings_columnar_into`. Every
/// buffer is cleared, never dropped, between reads, so after one read per
/// distinct node shape the scratch stops allocating.
#[derive(Debug, Default)]
pub struct PostingsScratch {
    lists: ListColumns,
    /// Entry `i`'s postings are `rows[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    rows: Vec<(TermId, f64, f64)>,
    touched: Vec<(usize, usize)>,
}

/// The wanted lists of one inverted file, term-major: each posting's entry
/// index, maximum and minimum, list after list in ascending term order.
#[derive(Debug, Default)]
struct ListColumns {
    idxs: Vec<u32>,
    maxs: Vec<f64>,
    mins: Vec<f64>,
    /// `(term, end of its postings in the columns)` per list.
    ends: Vec<(TermId, u32)>,
}

impl ListColumns {
    fn clear(&mut self) {
        self.idxs.clear();
        self.maxs.clear();
        self.mins.clear();
        self.ends.clear();
    }

    /// Appends the list of term `t` — `len` postings, `r` positioned at its
    /// block — to the columns. Both codecs store a block as the same three
    /// columns (entry indexes, maxima, then in [`PostingMode::MaxMin`]
    /// minima against the maxima); only their encodings differ.
    fn push(&mut self, r: &mut Reader, codec: CodecId, t: TermId, len: usize, mode: PostingMode) {
        let c = storage::codec(codec);
        let start = self.maxs.len();
        c.get_ascending_u32s(r, len, &mut self.idxs);
        c.get_f64s(r, len, &mut self.maxs);
        if mode == PostingMode::MaxMin {
            c.get_f64s_vs(r, len, &self.maxs[start..], &mut self.mins);
        } else {
            self.mins.resize(start + len, 0.0);
        }
        self.ends.push((t, self.idxs.len() as u32));
    }
}

impl PostingsScratch {
    fn view(&self) -> PostingsRef<'_> {
        PostingsRef {
            lists: &self.lists,
            offsets: &self.offsets,
            rows: &self.rows,
        }
    }

    /// Lays the decoded lists out per entry: counts per entry, a prefix
    /// sum, then one scatter in column order. Lists ascend by term and the
    /// scatter is stable, so every entry's postings ascend by term too.
    fn lay_out(&mut self, num_entries: usize) {
        let PostingsScratch {
            lists,
            offsets,
            rows,
            ..
        } = self;
        // Entry i's count lands at i + 2, so after the prefix sum
        // `offsets[i + 1]` is where entry i starts; the scatter advances it
        // to where entry i ends, which is where entry i + 1 starts.
        offsets.clear();
        offsets.resize(num_entries + 2, 0);
        for &i in &lists.idxs {
            offsets[i as usize + 2] += 1;
        }
        let mut total = 0;
        for slot in &mut offsets[2..] {
            total += *slot;
            *slot = total;
        }
        rows.clear();
        rows.resize(lists.idxs.len(), (TermId(0), 0.0, 0.0));
        let mut start = 0;
        for &(t, end) in &lists.ends {
            let list = start..end as usize;
            let postings = lists.idxs[list.clone()]
                .iter()
                .zip(&lists.maxs[list.clone()])
                .zip(&lists.mins[list]);
            for ((&i, &max), &min) in postings {
                let at = &mut offsets[i as usize + 1];
                rows[*at as usize] = (t, max, min);
                *at += 1;
            }
            start = end as usize;
        }
        offsets.pop();
    }
}

/// Borrowed postings of one node restricted to a set of query terms,
/// living in a [`PostingsScratch`], readable both ways its layout holds
/// them: per entry ([`PostingsRef::entry`]) and per term
/// ([`PostingsRef::lists`]).
///
/// Row `i` lists `(term, maxw, minw)` ascending by term for entry `i`; in
/// [`PostingMode::MaxOnly`] the tree stores no minima, so the minimum is
/// reported as 0.
#[derive(Debug, Clone, Copy)]
pub struct PostingsRef<'a> {
    lists: &'a ListColumns,
    offsets: &'a [u32],
    rows: &'a [(TermId, f64, f64)],
}

impl<'a> PostingsRef<'a> {
    /// The same postings term-major: for each wanted term the file holds,
    /// ascending, `(term, entry indexes, maxima)`, the indexes ascending.
    /// Summing a column per entry list by list adds each entry's terms in
    /// the order its row lists them.
    pub fn lists(&self) -> impl Iterator<Item = (TermId, &'a [u32], &'a [f64])> {
        let ListColumns {
            idxs, maxs, ends, ..
        } = self.lists;
        let starts = std::iter::once(0).chain(ends.iter().map(|&(_, end)| end as usize));
        ends.iter().zip(starts).map(|(&(t, end), start)| {
            let list = start..end as usize;
            (t, &idxs[list.clone()], &maxs[list])
        })
    }

    /// `(term, maxw, minw)` rows for entry `i`, ascending by term.
    #[inline]
    pub fn entry(&self, i: usize) -> &[(TermId, f64, f64)] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of entries covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the node had no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How much of each record [`StTree::prefetch`] asks for: most of a
/// Verbatim node record of fanout 32, and the directory and first lists of
/// its inverted file. Measured once on the benchmark's cold traversal
/// against this length: 512 B ran 3.5% slower under Verbatim (2% faster
/// under Columnar, whose records are smaller), 1–2 KB about 2% slower,
/// 4 KB about 5% slower.
const PREFETCH_BYTES: usize = 768;

impl StTree {
    /// Asks the CPU to start loading the heads of node record `id` and of
    /// side record `id`, the node's inverted file in every tree a build
    /// wrote (see `PagedTree::put_node`), so that reading the node soon
    /// after waits on memory less. Charges nothing; a side record that
    /// belongs to another node costs a useless hint, never an answer.
    #[inline]
    pub fn prefetch(&self, id: RecordId) {
        self.core.nodes.prefetch(id, PREFETCH_BYTES);
        self.core.side.prefetch(id, PREFETCH_BYTES);
    }

    /// Reads (visits) a node zero-copy: Verbatim payloads are viewed in
    /// place, Columnar payloads decode into `scratch`. Charges one
    /// simulated I/O (free on a warm cache hit when the counter carries
    /// one).
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

    /// Loads the node's inverted file and extracts postings for `terms`,
    /// zero-copy. `terms` must ascend and may be any set: the joint
    /// traversal passes the union terms the node's parent row names, a
    /// subset of the query's, and the directory walk stops at the last of
    /// them.
    ///
    /// Under [`CodecId::Verbatim`] the whole file is loaded and charged
    /// ⌈file bytes / 4096⌉ simulated I/Os — the paper's inverted-file
    /// rule — whatever `terms` holds. Under [`CodecId::Columnar`] the skip
    /// table lets the read touch only the directory and the lists of the
    /// terms of `terms` the file holds, so the charge is the number of
    /// *distinct 4 KB pages those extents overlap* — a partial-column read
    /// of a cold record. Two term sets that agree on the file's terms are
    /// charged alike, and an empty one still pays for the directory. The
    /// record keeps one cache key either way; a warm hit is free. Both
    /// codecs decode the wanted lists into the one flat layout of
    /// `scratch` (term-major columns, then per-entry rows; see
    /// [`PostingsScratch`]), which is cleared, not freed, between reads.
    pub fn read_postings_ref<'a>(
        &self,
        node: &NodeRef<'_>,
        terms: &[TermId],
        io: &IoStats,
        scratch: &'a mut PostingsScratch,
    ) -> PostingsRef<'a> {
        let (invfile, num_entries) = (node.invfile, node.len());
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
        scratch.view()
    }
}

/// Width in bytes of one Verbatim posting: entry index, max, and (in
/// [`PostingMode::MaxMin`]) min.
fn verbatim_posting_width(mode: PostingMode) -> usize {
    match mode {
        PostingMode::MaxOnly => 12,
        PostingMode::MaxMin => 20,
    }
}

/// Decodes the wanted term lists of a Verbatim (v2 SoA) inverted file
/// into `scratch`'s flat layout. The fixed-stride directory and the
/// per-term column blocks are addressed by offset, and the directory walk
/// stops at the last wanted term, as the Columnar walker's does.
fn deserialize_postings_into(
    payload: &[u8],
    mode: PostingMode,
    wanted: &[TermId],
    num_entries: usize,
    scratch: &mut PostingsScratch,
) {
    scratch.lists.clear();
    let n_terms = raw_u32(payload, 0) as usize;
    let width = verbatim_posting_width(mode);
    let mut r = Reader::new(payload);
    let mut offset = 4 + n_terms * 8;
    // `wanted[w]` is the next term to look for; a directory term below it
    // costs one compare.
    let mut w = 0;
    if let Some(&first) = wanted.first() {
        let mut next = first;
        'walk: for entry in payload[4..offset].chunks_exact(8) {
            // Directory entry: (term, list_len).
            let t = TermId(u32::from_le_bytes(entry[..4].try_into().unwrap()));
            let len = u32::from_le_bytes(entry[4..].try_into().unwrap()) as usize;
            if t >= next {
                // Wanted terms below `t` are absent from the file.
                while next < t {
                    w += 1;
                    let Some(&after) = wanted.get(w) else {
                        break 'walk;
                    };
                    next = after;
                }
                if next == t {
                    r.seek(offset);
                    scratch.lists.push(&mut r, CodecId::Verbatim, t, len, mode);
                    w += 1;
                    let Some(&after) = wanted.get(w) else { break };
                    next = after;
                }
            }
            offset += len * width;
        }
    }
    scratch.lay_out(num_entries);
}

/// Columnar twin of [`deserialize_postings_into`]: decodes only the
/// wanted lists into `scratch`'s flat layout, recording the byte extents
/// it touched — the directory, then each wanted list — in
/// `scratch.touched` (ascending; the caller charges partial pages from
/// them).
///
/// The directory is selected on as stored, never materialised: one cursor
/// walks its `(term delta, list length, list size)` triples, merged
/// against `wanted` (both ascend), and stops after the last wanted term.
/// The list sizes it passes sum into a running byte offset, so a hit
/// seeks straight to its list block. The directory's end comes from its
/// stored length, so the walk never reads the triples it does not need.
///
/// Kept out of line: inlined into [`StTree::read_postings_ref`] it moved
/// the code of the Verbatim branch beside it, and the Verbatim cold
/// workload lost 1.5–4.5% of its queries per second in paired benchmark
/// runs on 2 vCPUs.
#[inline(never)]
fn deserialize_postings_columnar_into(
    payload: &[u8],
    mode: PostingMode,
    wanted: &[TermId],
    num_entries: usize,
    scratch: &mut PostingsScratch,
) {
    let PostingsScratch { lists, touched, .. } = &mut *scratch;
    lists.clear();
    touched.clear();
    let (mut dir, dir_end) = super::payload::columnar_directory(payload);
    touched.push((0, dir_end));
    let mut r = Reader::new(payload);
    // The list of the next triple starts at byte `offset`.
    let (mut t, mut w, mut offset) = (0u32, 0usize, dir_end);
    while w < wanted.len() && !dir.is_exhausted() {
        t += dir.get_varint_u32();
        let len = dir.get_varint_u32() as usize;
        let end = offset + dir.get_varint_u32() as usize;
        while w < wanted.len() && wanted[w].0 < t {
            w += 1;
        }
        if w < wanted.len() && wanted[w].0 == t {
            r.seek(offset);
            lists.push(&mut r, CodecId::Columnar, wanted[w], len, mode);
            debug_assert_eq!(r.position(), end);
            touched.push((offset, end));
            w += 1;
        }
        offset = end;
    }
    r.seek(offset); // every list the walk passed ends inside the record
    scratch.lay_out(num_entries);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use splitmix::SplitMix64;
    use storage::codec::Writer;
    use text::WeightedDoc;

    use super::super::payload::St;
    use super::super::IndexedObject;
    use super::*;
    use crate::tree::{Op, Payload};

    /// One owned row per entry: the layout the flat one replaced.
    type Rows = Vec<Vec<(TermId, f64, f64)>>;

    /// Pushes the Verbatim list of term `t` (`len` postings from byte
    /// `offset`) into `rows`, one posting at a time.
    fn reference_verbatim_list_into(
        payload: &[u8],
        mode: PostingMode,
        t: TermId,
        len: usize,
        offset: usize,
        rows: &mut Rows,
    ) {
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
            rows[idx].push((t, max, min));
        }
    }

    /// Decodes one Columnar list block (positioned at its start) and
    /// scatters it into `rows`.
    fn reference_columnar_list_into(
        r: &mut Reader,
        t: TermId,
        len: usize,
        mode: PostingMode,
        rows: &mut Rows,
    ) {
        let c = storage::codec(CodecId::Columnar);
        let (mut idxs, mut maxs, mut mins) = (Vec::new(), Vec::new(), Vec::new());
        c.get_ascending_u32s(r, len, &mut idxs);
        c.get_f64s(r, len, &mut maxs);
        if mode == PostingMode::MaxMin {
            c.get_f64s_vs(r, len, &maxs, &mut mins);
        } else {
            mins.resize(len, 0.0);
        }
        for i in 0..len {
            rows[idxs[i] as usize].push((t, maxs[i], mins[i]));
        }
    }

    /// The full Verbatim directory walk the early stop replaced, kept as
    /// its reference: every slot is visited, the lists end exactly at the
    /// end of the payload, and every posting goes straight into its entry's
    /// own row.
    fn reference_postings_verbatim(
        payload: &[u8],
        mode: PostingMode,
        wanted: &[TermId],
        num_entries: usize,
    ) -> Rows {
        let mut rows = vec![Vec::new(); num_entries];
        let n_terms = raw_u32(payload, 0) as usize;
        let mut offset = 4 + n_terms * 8;
        for j in 0..n_terms {
            let t = TermId(raw_u32(payload, 4 + 8 * j));
            let len = raw_u32(payload, 8 + 8 * j) as usize;
            if wanted.binary_search(&t).is_ok() {
                reference_verbatim_list_into(payload, mode, t, len, offset, &mut rows);
            }
            offset += len * verbatim_posting_width(mode);
        }
        assert_eq!(offset, payload.len());
        rows
    }

    /// A Columnar directory decoded whole: `(term, list length, list
    /// size)` per slot, and the byte offset of the first list block.
    fn columnar_triples(payload: &[u8]) -> (Vec<(TermId, usize, usize)>, usize) {
        let mut r = Reader::new(payload);
        let dir_bytes = r.get_varint_u32() as usize;
        let dir_end = r.position() + dir_bytes;
        let (mut triples, mut t) = (Vec::new(), 0);
        while r.position() < dir_end {
            t += r.get_varint_u32();
            let len = r.get_varint_u32() as usize;
            triples.push((TermId(t), len, r.get_varint_u32() as usize));
        }
        assert_eq!(r.position(), dir_end, "the triples fill the directory");
        (triples, dir_end)
    }

    /// The full-decode directory loop the walker replaced, kept as its
    /// reference: materialise every triple of the directory, then pick
    /// the wanted slots out of them. Returns the per-entry rows and the
    /// extents touched.
    fn reference_postings_columnar(
        payload: &[u8],
        mode: PostingMode,
        wanted: &[TermId],
        num_entries: usize,
    ) -> (Rows, Vec<(usize, usize)>) {
        let (triples, dir_end) = columnar_triples(payload);
        let (mut rows, mut touched) = (vec![Vec::new(); num_entries], vec![(0, dir_end)]);
        let (mut r, mut offset) = (Reader::new(payload), dir_end);
        for (t, len, size) in triples {
            if wanted.binary_search(&t).is_ok() {
                r.seek(offset);
                reference_columnar_list_into(&mut r, t, len, mode, &mut rows);
                assert_eq!(r.position(), offset + size);
                touched.push((offset, offset + size));
            }
            offset += size;
        }
        assert_eq!(offset, payload.len());
        (rows, touched)
    }

    /// The flat layout read back per entry equals the owned rows, bit for
    /// bit.
    fn assert_rows(scratch: &PostingsScratch, want: &Rows, label: &str) {
        let bits = |row: &[(TermId, f64, f64)]| {
            row.iter()
                .map(|&(t, max, min)| (t, max.to_bits(), min.to_bits()))
                .collect::<Vec<_>>()
        };
        let got = scratch.view();
        assert_eq!(got.len(), want.len(), "{label}");
        for (i, row) in want.iter().enumerate() {
            assert_eq!(bits(got.entry(i)), bits(row), "{label}, entry {i}");
        }
    }

    const ENTRIES: usize = 24;

    /// The inverted file of an inner node of [`ENTRIES`] entries over a
    /// directory of exactly `n_terms` terms — Columnar, then Verbatim —
    /// and those terms.
    ///
    /// A quarter of the term gaps need a multi-byte delta; a quarter of
    /// the terms sit in every entry, so their list needs a multi-byte
    /// size. Each entry summarises two leaves, so minima differ from
    /// maxima and drop to 0 outside the intersection.
    fn seeded_invfile(
        g: &mut SplitMix64,
        mode: PostingMode,
        n_terms: usize,
    ) -> ([Vec<u8>; 2], Vec<TermId>) {
        let mut terms = Vec::with_capacity(n_terms);
        let mut next = g.below(300) as u32;
        for _ in 0..n_terms {
            terms.push(TermId(next));
            next += 1 + match g.below(4) {
                0 => 128 + g.below(40_000) as u32,
                _ => g.below(100) as u32,
            };
        }
        let mut docs: Vec<Vec<(TermId, f64)>> = vec![Vec::new(); 2 * ENTRIES];
        for &t in &terms {
            if g.below(4) == 0 {
                for doc in &mut docs {
                    doc.push((t, 1.0 - g.unit()));
                }
            } else {
                let holders = 1 + g.below(2);
                for _ in 0..holders {
                    let doc = &mut docs[g.below(2 * ENTRIES as u64) as usize];
                    if doc.last().is_none_or(|&(last, _)| last != t) {
                        doc.push((t, 1.0 - g.unit()));
                    }
                }
            }
        }
        let (st, mut op) = (St { mode }, Op::new(CodecId::Columnar));
        let leaves: Vec<_> = docs
            .into_iter()
            .enumerate()
            .map(|(i, pairs)| {
                let doc = WeightedDoc::from_pairs(pairs);
                let point = Point::new(g.unit(), g.unit());
                let id = i as u32;
                st.leaf_entry(&IndexedObject { id, point, doc }, &mut op.pool)
            })
            .collect();
        let entries: Vec<_> = leaves
            .chunks(2)
            .map(|pair| St::summarize(pair, &mut op.pool))
            .collect();
        St::summarize(&entries, &mut op.pool);
        st.encode_side(&entries, &mut op);
        let columnar = std::mem::take(&mut op.out).into_bytes();
        op.codec = CodecId::Verbatim;
        st.encode_side(&entries, &mut op);
        ([columnar, op.out.into_bytes()], terms)
    }

    /// The `wanted` sets the walker must agree with the reference on.
    fn wanted_sets(g: &mut SplitMix64, terms: &[TermId]) -> Vec<Vec<TermId>> {
        let held: BTreeSet<TermId> = terms.iter().copied().collect();
        let last = terms.last().map_or(7, |t| t.0);
        let misses: BTreeSet<TermId> = std::iter::once(TermId(0))
            .chain(terms.iter().map(|t| TermId(t.0 + 1)))
            .filter(|t| !held.contains(t))
            .collect();
        let sorted = |set: BTreeSet<TermId>| set.into_iter().collect::<Vec<_>>();
        let mut sets = vec![
            Vec::new(),                                     // empty
            sorted(misses.clone()),                         // disjoint
            sorted(held.union(&misses).copied().collect()), // superset
            sorted(held.clone()),                           // the directory itself
            terms.first().copied().into_iter().collect(),   // first slot only
            terms.last().copied().into_iter().collect(),    // last slot only
            vec![TermId(last + 1_000)],                     // past the directory
            // Ends before the last directory term, hits and misses mixed.
            sorted(
                held.union(&misses)
                    .copied()
                    .filter(|t| t.0 < last && t.0 % 3 != 0)
                    .collect(),
            ),
            // Ends after it.
            sorted(
                held.iter()
                    .copied()
                    .filter(|t| t.0 % 2 == 0)
                    .chain([TermId(last), TermId(last + 1), TermId(last + 1_000)])
                    .collect(),
            ),
        ];
        // Query-sized draws: a few held terms among as many misses.
        for _ in 0..6 {
            let pick = |g: &mut SplitMix64, from: &BTreeSet<TermId>| {
                let odds = (from.len() as u64 / 8).max(1);
                from.iter()
                    .copied()
                    .filter(|_| g.below(odds) == 0)
                    .collect::<BTreeSet<_>>()
            };
            let (hits, miss) = (pick(g, &held), pick(g, &misses));
            sets.push(sorted(hits.union(&miss).copied().collect()));
        }
        sets
    }

    /// Marks `offset mod 8` of every multi-byte varint among the term
    /// deltas and among the list sizes of a Columnar directory.
    fn multi_byte_offsets(payload: &[u8], terms: &mut [bool; 8], sizes: &mut [bool; 8]) {
        let mut r = Reader::new(payload);
        let dir_end = r.get_varint_u32() as usize + r.position();
        while r.position() < dir_end {
            for seen in [&mut *terms, &mut [false; 8], &mut *sizes] {
                let at = r.position();
                r.get_varint_u32();
                seen[at % 8] |= r.position() > at + 1;
            }
        }
    }

    #[test]
    fn directory_walk_matches_full_decode_reference() {
        let mut g = SplitMix64(0xD1EC_7041);
        // One scratch across every read: a layout left by a larger read
        // must not leak into a smaller one.
        let mut walked = PostingsScratch::default();
        let (mut term_offsets, mut size_offsets) = ([false; 8], [false; 8]);
        let mut hits = 0usize;
        for mode in [PostingMode::MaxOnly, PostingMode::MaxMin] {
            for n_terms in [0usize, 1, 7, 8, 9, 300, 300, 300] {
                let ([payload, verbatim], terms) = seeded_invfile(&mut g, mode, n_terms);
                assert_eq!(terms.len(), n_terms);
                multi_byte_offsets(&payload, &mut term_offsets, &mut size_offsets);
                for wanted in wanted_sets(&mut g, &terms) {
                    let label = format!("{mode:?}, {n_terms} terms, wanted {wanted:?}");
                    deserialize_postings_columnar_into(
                        &payload,
                        mode,
                        &wanted,
                        ENTRIES,
                        &mut walked,
                    );
                    let (rows, touched) =
                        reference_postings_columnar(&payload, mode, &wanted, ENTRIES);
                    assert_eq!(walked.touched, touched, "{label}");
                    hits += walked.touched.len() - 1;
                    assert_rows(&walked, &rows, &label);
                    // The Verbatim walk stops at the last wanted term; the
                    // full walk reads the same rows.
                    deserialize_postings_into(&verbatim, mode, &wanted, ENTRIES, &mut walked);
                    let rows = reference_postings_verbatim(&verbatim, mode, &wanted, ENTRIES);
                    assert_rows(&walked, &rows, &format!("Verbatim {label}"));
                }
            }
        }
        assert!(hits > 1_000, "the wanted sets must hit lists: {hits}");
        assert_eq!(term_offsets, [true; 8], "multi-byte term deltas");
        assert_eq!(size_offsets, [true; 8], "multi-byte list sizes");
    }

    /// The directory bytes of `triples`, as the encoder lays them out.
    fn directory_bytes(triples: &[(TermId, usize, usize)]) -> Vec<u8> {
        let (mut w, mut prev) = (Writer::new(), 0);
        for &(t, len, size) in triples {
            for v in [t.0 - prev, len as u32, size as u32] {
                w.put_varint_u32(v);
            }
            prev = t.0;
        }
        w.into_bytes()
    }

    /// The message of the panic a walk over `record` for `wanted` raises,
    /// or `None` when it returns.
    fn walk_panic(record: &[u8], mode: PostingMode, wanted: &[TermId]) -> Option<String> {
        let err = std::panic::catch_unwind(|| {
            let mut scratch = PostingsScratch::default();
            deserialize_postings_columnar_into(record, mode, wanted, ENTRIES, &mut scratch);
        })
        .err()?;
        Some(match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(err) => err.downcast_ref::<&str>().map_or("", |m| m).to_string(),
        })
    }

    /// A damaged Columnar inverted file panics in the reader's own bounds
    /// checks: a directory length past the record, a triple cut
    /// mid-varint by the stored length (the walk does not read on into
    /// the list blocks), a list size past the record. The walks here never
    /// hit the damaged slot, so nothing of it is decoded as a list.
    #[test]
    fn damaged_columnar_invfiles_panic_in_the_reader() {
        let mut g = SplitMix64(0x0DA3_A6ED);
        for mode in [PostingMode::MaxOnly, PostingMode::MaxMin] {
            let ([payload, _], terms) = seeded_invfile(&mut g, mode, 300);
            let (triples, dir_end) = columnar_triples(&payload);
            let blocks = &payload[dir_end..];
            // The record of `triples` over the same blocks, its directory
            // length stored as `stored(true length)`.
            let relay = |triples: &[(TermId, usize, usize)], stored: &dyn Fn(usize) -> usize| {
                let dir = directory_bytes(triples);
                let mut w = Writer::new();
                w.put_varint_u32(stored(dir.len()) as u32);
                w.put_bytes(&dir);
                w.put_bytes(blocks);
                w.into_bytes()
            };
            assert_eq!(relay(&triples, &|n| n), payload, "the re-layout is exact");
            let past = TermId(terms[299].0 + 1_000);
            let expect = |record: &[u8], wanted: &[TermId], msg: &str| {
                let got = walk_panic(record, mode, wanted);
                assert!(
                    got.as_deref().is_some_and(|m| m.contains(msg)),
                    "{mode:?}, wanted {wanted:?}: want a panic with {msg:?}, got {got:?}"
                );
            };

            let long = relay(&triples, &|n| n + blocks.len() + 1);
            for wanted in [&[][..], &[terms[0]], &[past]] {
                expect(&long, wanted, "skip past end of record");
            }

            // The stored length ends the directory one byte into the
            // first multi-byte list size.
            let slot = triples.iter().position(|&(_, _, size)| size > 127).unwrap();
            let size_bytes = directory_bytes(&[(TermId(0), 0, triples[slot].2)]).len() - 2;
            let cut = directory_bytes(&triples[..=slot]).len() - size_bytes + 1;
            let cut_mid = relay(&triples, &|_| cut);
            for wanted in [&[triples[slot].0][..], &[past]] {
                expect(&cut_mid, wanted, "corrupt varint u32");
            }

            let mut far = triples.clone();
            far[0].2 = payload.len();
            let far = relay(&far, &|n| n);
            for wanted in [&[terms[1]][..], &[past]] {
                expect(&far, wanted, "seek past end of record");
            }
        }
    }
}

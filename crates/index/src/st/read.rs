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

    /// Location of leaf entry `i` (its degenerate MBR corner).
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.rect(i).min
    }
}

/// Reusable decode buffers for [`StTree::read_postings_ref`].
///
/// Rows are cleared, never dropped, between reads; the columns of each
/// *wanted* columnar list decode into the column buffers, and `touched`
/// keeps the byte extents the read is charged for. The columnar directory
/// itself is never materialised — it is walked in place, see
/// `deserialize_postings_columnar_into`. After one read per distinct node
/// shape the scratch stops allocating.
#[derive(Debug, Default)]
pub struct PostingsScratch {
    rows: Vec<Vec<(TermId, f64, f64)>>,
    touched: Vec<(usize, usize)>,
    idxs: Vec<u32>,
    maxs: Vec<f64>,
    mins: Vec<f64>,
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

/// Borrowed postings of one node restricted to a set of query terms,
/// living in a [`PostingsScratch`].
///
/// Row `i` lists `(term, maxw, minw)` ascending by term for entry `i`; in
/// [`PostingMode::MaxOnly`] the minimum mirrors the maximum at the leaf
/// level and is unavailable above it (the IR-tree stores no minima), so it
/// is reported as 0.
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
}

impl StTree {
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

    /// Loads the node's inverted file and extracts postings for `terms`
    /// (which must be sorted ascending), zero-copy.
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
        PostingsRef {
            rows: &scratch.rows[..num_entries],
        }
    }
}

/// Decodes one columnar list block (positioned at its start): columns
/// decode into the caller's reusable buffers before scattering into
/// `per_entry` rows.
#[allow(clippy::too_many_arguments)]
fn decode_columnar_list_into(
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

/// Width in bytes of one Verbatim posting: entry index, max, and (in
/// [`PostingMode::MaxMin`]) min.
fn verbatim_posting_width(mode: PostingMode) -> usize {
    match mode {
        PostingMode::MaxOnly => 12,
        PostingMode::MaxMin => 20,
    }
}

/// Pushes the Verbatim list of term `t` (`len` postings from byte
/// `offset`) into `rows`.
fn decode_verbatim_list_into(
    payload: &[u8],
    mode: PostingMode,
    t: TermId,
    len: usize,
    offset: usize,
    rows: &mut [Vec<(TermId, f64, f64)>],
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

/// Decodes the wanted term lists of a Verbatim (v2 SoA) inverted file
/// into `scratch.rows` — fully in place: the fixed-stride directory and
/// the per-term column blocks are addressed by offset, so nothing but the
/// output rows is written. The directory walk stops at the last wanted
/// term, as the Columnar walker's does.
fn deserialize_postings_into(
    payload: &[u8],
    mode: PostingMode,
    wanted: &[TermId],
    num_entries: usize,
    scratch: &mut PostingsScratch,
) {
    scratch.reset_rows(num_entries);
    let n_terms = raw_u32(payload, 0) as usize;
    let width = verbatim_posting_width(mode);
    let mut offset = 4 + n_terms * 8;
    let (mut w, mut j) = (0usize, 0usize);
    while j < n_terms && w < wanted.len() {
        // Directory entry j: (term, list_len) at fixed stride 8.
        let t = TermId(raw_u32(payload, 4 + 8 * j));
        let len = raw_u32(payload, 8 + 8 * j) as usize;
        // Advance the wanted cursor (both sides ascend).
        while w < wanted.len() && wanted[w] < t {
            w += 1;
        }
        if w < wanted.len() && wanted[w] == t {
            decode_verbatim_list_into(payload, mode, t, len, offset, &mut scratch.rows);
            w += 1;
        }
        offset += len * width;
        j += 1;
    }
}

/// Columnar twin of [`deserialize_postings_into`]: decodes only the
/// wanted lists into `scratch`, recording the byte extents it touched —
/// the directory, then each wanted list — in `scratch.touched` (ascending;
/// the caller charges partial pages from them).
///
/// The directory is selected on as stored, never materialised. The term
/// column is merge-walked against `wanted` (both ascend) and its decode
/// stops once `wanted` is exhausted. The other two columns are delimited
/// by skipping them, then passed over in lock step from hit to hit — list
/// lengths skipped, list sizes summed into the byte offset of the next
/// hit — and a value is decoded at a hit alone. `touched` doubles as the
/// work list: a hit is pushed as `(directory slot, index into wanted)`
/// and overwritten with its list's extent once that is known.
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
    } = scratch;
    touched.clear();
    let mut r = Reader::new(payload);
    let n_terms = r.get_varint_u32() as usize;
    touched.push((0, 0)); // the directory; its end is patched in below
    let (mut t, mut w, mut slot) = (0u32, 0usize, 0usize);
    while slot < n_terms && w < wanted.len() {
        t += r.get_varint_u32();
        while w < wanted.len() && wanted[w].0 < t {
            w += 1;
        }
        if w < wanted.len() && wanted[w].0 == t {
            touched.push((slot, w));
            w += 1;
        }
        slot += 1;
    }
    r.skip_varints(n_terms - slot);
    let mut lens = Reader::new(&payload[r.position()..]);
    r.skip_varints(n_terms);
    let mut sizes = Reader::new(&payload[r.position()..]);
    r.skip_varints(n_terms);
    let dir_end = r.position();
    touched[0] = (0, dir_end);
    // `passed` directory slots lie behind the two column cursors; their
    // lists end at byte `offset`.
    let (mut passed, mut offset) = (0usize, dir_end);
    for hit in &mut touched[1..] {
        let (slot, w) = *hit;
        lens.skip_varints(slot - passed);
        let len = lens.get_varint_u32() as usize;
        offset += sizes.sum_varint_u32s(slot - passed) as usize;
        let end = offset + sizes.get_varint_u32() as usize;
        r.seek(offset);
        decode_columnar_list_into(&mut r, wanted[w], len, mode, idxs, maxs, mins, rows);
        debug_assert_eq!(r.position(), end);
        *hit = (offset, end);
        (passed, offset) = (slot + 1, end);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use splitmix::SplitMix64;
    use text::WeightedDoc;

    use super::super::payload::St;
    use super::super::IndexedObject;
    use super::*;
    use crate::tree::{Op, Payload};

    /// The full Verbatim directory walk the early stop replaced, kept as
    /// its reference: every slot is visited, and the lists end exactly at
    /// the end of the payload.
    fn reference_postings_verbatim_into(
        payload: &[u8],
        mode: PostingMode,
        wanted: &[TermId],
        num_entries: usize,
        scratch: &mut PostingsScratch,
    ) {
        scratch.reset_rows(num_entries);
        let n_terms = raw_u32(payload, 0) as usize;
        let mut offset = 4 + n_terms * 8;
        for j in 0..n_terms {
            let t = TermId(raw_u32(payload, 4 + 8 * j));
            let len = raw_u32(payload, 8 + 8 * j) as usize;
            if wanted.binary_search(&t).is_ok() {
                decode_verbatim_list_into(payload, mode, t, len, offset, &mut scratch.rows);
            }
            offset += len * verbatim_posting_width(mode);
        }
        assert_eq!(offset, payload.len());
    }

    /// The full-decode directory loop the walker replaced, kept as its
    /// reference: materialise all three directory columns, then pick the
    /// wanted slots out of them.
    fn reference_postings_columnar_into(
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
        } = scratch;
        touched.clear();
        let c = storage::codec(CodecId::Columnar);
        let mut r = Reader::new(payload);
        let n_terms = r.get_varint_u32() as usize;
        let mut term_ids = Vec::new();
        c.get_ascending_u32s(&mut r, n_terms, &mut term_ids);
        let lens: Vec<u32> = (0..n_terms).map(|_| r.get_varint_u32()).collect();
        let sizes: Vec<u32> = (0..n_terms).map(|_| r.get_varint_u32()).collect();
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
                assert_eq!(r.position(), end);
                touched.push((offset, end));
            }
            offset = end;
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

    /// Marks `offset mod 8` of every multi-byte varint of the term-delta
    /// and list-size columns of a columnar directory.
    fn multi_byte_offsets(payload: &[u8], terms: &mut [bool; 8], sizes: &mut [bool; 8]) {
        let mut r = Reader::new(payload);
        let n_terms = r.get_varint_u32() as usize;
        for seen in [terms, &mut [false; 8], sizes] {
            for _ in 0..n_terms {
                let at = r.position();
                r.get_varint_u32();
                seen[at % 8] |= r.position() > at + 1;
            }
        }
    }

    #[test]
    fn directory_walk_matches_full_decode_reference() {
        let mut g = SplitMix64(0xD1EC_7041);
        let (mut walked, mut reference) = (PostingsScratch::default(), PostingsScratch::default());
        let (mut term_offsets, mut size_offsets) = ([false; 8], [false; 8]);
        let mut hits = 0usize;
        let bits = |row: &[(TermId, f64, f64)]| {
            row.iter()
                .map(|&(t, max, min)| (t, max.to_bits(), min.to_bits()))
                .collect::<Vec<_>>()
        };
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
                    reference_postings_columnar_into(
                        &payload,
                        mode,
                        &wanted,
                        ENTRIES,
                        &mut reference,
                    );
                    assert_eq!(walked.touched, reference.touched, "{label}");
                    hits += walked.touched.len() - 1;
                    for (got, want) in walked.rows[..ENTRIES].iter().zip(&reference.rows) {
                        assert_eq!(bits(got), bits(want), "{label}");
                    }
                    // The Verbatim walk stops at the last wanted term; the
                    // full walk reads the same rows.
                    deserialize_postings_into(&verbatim, mode, &wanted, ENTRIES, &mut walked);
                    reference_postings_verbatim_into(
                        &verbatim,
                        mode,
                        &wanted,
                        ENTRIES,
                        &mut reference,
                    );
                    for (got, want) in walked.rows[..ENTRIES].iter().zip(&reference.rows) {
                        assert_eq!(bits(got), bits(want), "Verbatim {label}");
                    }
                }
            }
        }
        assert!(hits > 1_000, "the wanted sets must hit lists: {hits}");
        assert_eq!(term_offsets, [true; 8], "multi-byte term deltas");
        assert_eq!(size_offsets, [true; 8], "multi-byte list sizes");
    }
}

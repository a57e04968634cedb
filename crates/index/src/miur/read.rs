//! The query-side read path of [`MiurTree`]: node decoding into reusable
//! scratch slots and the zero-copy view over them.
//! [`PagedTree::parse_node_into`] also backs the core's maintenance
//! reads ([`crate::tree::Payload::read`]).

use geo::{Point, Rect};
use storage::codec::Reader;
use storage::{CodecId, IoStats, RecordId};
use text::TermId;

use super::payload::Miur;
use super::{MiurEntryView, MiurTree, UserRef};
use crate::tree::PagedTree;

/// Page-cache key of an MIUR node record (the `2 <<33` tag keeps the key
/// space disjoint from the IR/MIR trees sharing one
/// [`storage::IoStats`] cache).
pub(super) fn miur_node_key(id: RecordId) -> u64 {
    (2 << 33) | u64::from(id.0)
}

/// Page-cache key of an MIUR IntUni record.
pub(super) fn miur_intuni_key(id: RecordId) -> u64 {
    (3 << 33) | u64::from(id.0)
}

/// Reusable decode buffers for [`MiurTree::read_node_ref`].
///
/// Entry slots (and the `uni`/`int` vectors inside them) are cleared and
/// refilled, never dropped, so repeated reads of same-shaped nodes stop
/// allocating after the first pass.
#[derive(Debug, Default)]
pub struct MiurScratch {
    entries: Vec<MiurEntryView>,
    live: usize,
    is_leaf: bool,
    // Columnar column buffers.
    ids: Vec<u32>,
    min_x: Vec<f64>,
    min_y: Vec<f64>,
    max_x: Vec<f64>,
    max_y: Vec<f64>,
    counts: Vec<u32>,
    uni_lens: Vec<u32>,
    int_lens: Vec<u32>,
    uni_terms: Vec<u32>,
    int_terms: Vec<u32>,
    norm_min: Vec<f64>,
    norm_max: Vec<f64>,
}

/// An unused entry slot awaiting its first overwrite.
fn blank_entry() -> MiurEntryView {
    MiurEntryView {
        rect: Rect::from_point(Point::new(0.0, 0.0)),
        child: UserRef::User(0),
        count: 0,
        uni: Vec::new(),
        int: Vec::new(),
        norm_min: 0.0,
        norm_max: 0.0,
    }
}

impl MiurScratch {
    /// Grows the slot pool to `n` live entries, clearing the term vectors
    /// of each reused slot.
    fn reset_entries(&mut self, n: usize) {
        while self.entries.len() < n {
            self.entries.push(blank_entry());
        }
        for e in &mut self.entries[..n] {
            e.uni.clear();
            e.int.clear();
        }
        self.live = n;
    }

    /// The decoded node as owned `(is_leaf, entries)`.
    pub(super) fn into_entries(mut self) -> (bool, Vec<MiurEntryView>) {
        self.entries.truncate(self.live);
        (self.is_leaf, self.entries)
    }
}

/// A zero-copy view of one MIUR node, borrowing the entries decoded into
/// a [`MiurScratch`].
#[derive(Debug, Clone, Copy)]
pub struct MiurNodeRef<'a> {
    /// Record id of the node.
    pub id: RecordId,
    /// True when entries are users.
    pub is_leaf: bool,
    /// The node's entries with their `IntUni` vectors.
    pub entries: &'a [MiurEntryView],
}

impl MiurTree {
    /// Reads a node with its IntUni vectors into `scratch`, charging one
    /// node visit plus the IntUni file's blocks (the paper's inverted-file
    /// rule applies to the textual payload of the node). The returned view
    /// borrows the scratch entries; slots are cleared, not freed, between
    /// reads.
    pub fn read_node_ref<'a>(
        &self,
        id: RecordId,
        io: &IoStats,
        scratch: &'a mut MiurScratch,
    ) -> MiurNodeRef<'a> {
        io.charge_node_visit_keyed(miur_node_key(id));
        let (iu_rec, iu_bytes) = self.core.parse_node_into(id, scratch);
        io.charge_invfile_keyed(miur_intuni_key(iu_rec), iu_bytes);
        MiurNodeRef {
            id,
            is_leaf: scratch.is_leaf,
            entries: &scratch.entries[..scratch.live],
        }
    }
}

impl PagedTree<Miur> {
    /// Deserializes a node and its IntUni payload into `scratch` slots.
    ///
    /// Verbatim interleaves the two readers row by row; Columnar decodes
    /// each column in full (ids, rect coordinate columns, counts, then the
    /// IntUni columns) and zips the rows together at the end.
    pub(super) fn parse_node_into(
        &self,
        id: RecordId,
        scratch: &mut MiurScratch,
    ) -> (RecordId, usize) {
        let payload = self.nodes.record_bytes(id);
        let mut r = Reader::new(payload);
        let is_leaf = r.get_u8() != 0;
        scratch.is_leaf = is_leaf;
        let (iu_rec, iu_bytes);
        match self.codec {
            CodecId::Verbatim => {
                iu_rec = RecordId(r.get_u32());
                let n = r.get_u32() as usize;
                scratch.reset_entries(n);

                let iu_payload = self.side.record_bytes(iu_rec);
                iu_bytes = iu_payload.len();
                let mut iu = Reader::new(iu_payload);

                for e in &mut scratch.entries[..n] {
                    let raw = r.get_u32();
                    e.rect = Rect::new(
                        Point::new(r.get_f64(), r.get_f64()),
                        Point::new(r.get_f64(), r.get_f64()),
                    );
                    e.count = r.get_u32();
                    e.child = if is_leaf {
                        UserRef::User(raw)
                    } else {
                        UserRef::Node(RecordId(raw))
                    };
                    let n_uni = iu.get_u32() as usize;
                    e.uni.extend((0..n_uni).map(|_| TermId(iu.get_u32())));
                    let n_int = iu.get_u32() as usize;
                    e.int.extend((0..n_int).map(|_| TermId(iu.get_u32())));
                    e.norm_min = iu.get_f64();
                    e.norm_max = iu.get_f64();
                }
                debug_assert!(r.is_exhausted() && iu.is_exhausted());
            }
            CodecId::Columnar => {
                let c = storage::codec(self.codec);
                iu_rec = RecordId(r.get_varint_u32());
                let n = r.get_varint_u32() as usize;
                scratch.reset_entries(n);
                let MiurScratch {
                    entries,
                    ids,
                    min_x,
                    min_y,
                    max_x,
                    max_y,
                    counts,
                    uni_lens,
                    int_lens,
                    uni_terms,
                    int_terms,
                    norm_min,
                    norm_max,
                    ..
                } = scratch;
                ids.clear();
                min_x.clear();
                min_y.clear();
                max_x.clear();
                max_y.clear();
                counts.clear();
                uni_lens.clear();
                int_lens.clear();
                uni_terms.clear();
                int_terms.clear();
                norm_min.clear();
                norm_max.clear();
                c.get_clustered_u32s(&mut r, n, ids);
                c.get_f64s(&mut r, n, min_x);
                c.get_f64s(&mut r, n, min_y);
                c.get_f64s_vs(&mut r, n, min_x, max_x);
                c.get_f64s_vs(&mut r, n, min_y, max_y);
                c.get_packed_u32s(&mut r, n, counts);

                let iu_payload = self.side.record_bytes(iu_rec);
                iu_bytes = iu_payload.len();
                let mut iu = Reader::new(iu_payload);
                c.get_packed_u32s(&mut iu, n, uni_lens);
                c.get_packed_u32s(&mut iu, n, int_lens);
                c.get_clustered_u32s(
                    &mut iu,
                    uni_lens.iter().map(|&l| l as usize).sum(),
                    uni_terms,
                );
                c.get_clustered_u32s(
                    &mut iu,
                    int_lens.iter().map(|&l| l as usize).sum(),
                    int_terms,
                );
                c.get_f64s(&mut iu, n, norm_min);
                c.get_f64s_vs(&mut iu, n, norm_min, norm_max);

                let (mut u_off, mut i_off) = (0usize, 0usize);
                for (i, e) in entries[..n].iter_mut().enumerate() {
                    let (lu, li) = (uni_lens[i] as usize, int_lens[i] as usize);
                    e.rect = Rect::new(
                        Point::new(min_x[i], min_y[i]),
                        Point::new(max_x[i], max_y[i]),
                    );
                    e.child = if is_leaf {
                        UserRef::User(ids[i])
                    } else {
                        UserRef::Node(RecordId(ids[i]))
                    };
                    e.count = counts[i];
                    e.uni
                        .extend(uni_terms[u_off..u_off + lu].iter().map(|&t| TermId(t)));
                    e.int
                        .extend(int_terms[i_off..i_off + li].iter().map(|&t| TermId(t)));
                    e.norm_min = norm_min[i];
                    e.norm_max = norm_max[i];
                    u_off += lu;
                    i_off += li;
                }
                debug_assert!(r.is_exhausted() && iu.is_exhausted());
            }
        }
        (iu_rec, iu_bytes)
    }
}

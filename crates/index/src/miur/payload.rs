//! The IntUni payload of the paged R-tree core: how [`MiurEntryView`]
//! summaries aggregate upwards, the node and IntUni record codecs, and the
//! [`Payload`] hooks that make [`crate::MiurTree`] an MIUR-tree.

use geo::Rect;
use storage::codec::Writer;
use storage::{CodecId, RecordId};
use text::{Document, TermId};

use super::read::{miur_intuni_key, miur_node_key, MiurScratch};
use super::{IndexedUser, MiurEntryView, UserRef};
use crate::tree::{Entry, Node, Op, PagedTree, Payload};

/// The MIUR payload; it carries no per-tree state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miur;

impl Entry for MiurEntryView {
    fn rect(&self) -> Rect {
        self.rect
    }

    fn target(&self) -> u32 {
        match self.child {
            UserRef::Node(rid) => rid.0,
            UserRef::User(uid) => uid,
        }
    }

    fn point_at(&mut self, child: RecordId) {
        self.child = UserRef::Node(child);
    }
}

impl Payload for Miur {
    type Entry = MiurEntryView;
    type Item = IndexedUser;
    type Pool = ();
    const SIDE_FILE: &'static str = "intuni.mbrs";
    /// Every insert or remove moves the user count of every ancestor, so
    /// no ancestor's parent entry can settle.
    const SETTLES: bool = false;
    /// User counts live in the *node* record, so a pure count/child repair
    /// leaves an ancestor's IntUni bytes identical: the payload write is
    /// an extent splice.
    const SIDE_SPLICE: bool = true;

    fn meta(&self) -> &'static [u8] {
        &[]
    }

    fn from_meta(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(Miur)
    }

    fn node_key(&self, id: RecordId) -> u64 {
        miur_node_key(id)
    }

    fn side_key(&self, id: RecordId) -> u64 {
        miur_intuni_key(id)
    }

    fn leaf_entry(&self, user: &IndexedUser, _: &mut ()) -> MiurEntryView {
        let terms: Vec<TermId> = user.doc.terms().collect();
        MiurEntryView {
            rect: Rect::from_point(user.point),
            child: UserRef::User(user.id),
            count: 1,
            uni: terms.clone(),
            int: terms,
            norm_min: user.norm,
            norm_max: user.norm,
        }
    }

    /// Leaf entries carry the exact per-user summary (uni == the user's
    /// keyword set, norm_min == norm_max == N(u)).
    fn leaf_item(entry: &MiurEntryView, _: &()) -> IndexedUser {
        IndexedUser {
            id: entry.target(),
            point: entry.rect.min,
            doc: Document::from_terms(entry.uni.iter().copied()),
            norm: entry.norm_min,
        }
    }

    /// Bounding MBR, union/intersection of the IntUni vectors, user count
    /// and the normalizer bracket — the §7 summary repair that must run
    /// along the whole affected root-to-leaf path on every mutation.
    fn summarize(entries: &[MiurEntryView], _: &mut ()) -> MiurEntryView {
        MiurEntryView {
            rect: Rect::bounding_rects(entries.iter().map(|e| e.rect)).expect("non-empty"),
            child: UserRef::Node(RecordId(0)),
            count: entries.iter().map(|e| e.count).sum(),
            uni: union_sorted(entries.iter().map(|e| e.uni.as_slice())),
            int: intersect_sorted(entries.iter().map(|e| e.int.as_slice())),
            norm_min: entries
                .iter()
                .map(|e| e.norm_min)
                .fold(f64::INFINITY, f64::min),
            norm_max: entries.iter().map(|e| e.norm_max).fold(0.0f64, f64::max),
        }
    }

    /// Everything a parent stores *about* the child (MBR, count, IntUni
    /// vectors, norm bracket) — the child record id is expected to differ
    /// across a splice and is deliberately not compared.
    fn same_summary(a: &MiurEntryView, b: &MiurEntryView, _: &()) -> bool {
        a.rect == b.rect
            && a.count == b.count
            && a.uni == b.uni
            && a.int == b.int
            && a.norm_min == b.norm_min
            && a.norm_max == b.norm_max
    }

    fn encode_node(is_leaf: bool, side: RecordId, entries: &[MiurEntryView], op: &mut Op<Miur>) {
        serialize_miur_node(is_leaf, side, entries, op.codec, &mut op.out);
    }

    fn encode_side(&self, entries: &[MiurEntryView], op: &mut Op<Miur>) {
        serialize_intuni(entries, op.codec, &mut op.out);
    }

    /// IntUni vectors are part of every node visit, so the side record is
    /// decoded (and charged by the core) at once.
    fn read(tree: &PagedTree<Miur>, id: RecordId, _: &mut ()) -> Node<MiurEntryView> {
        let mut scratch = MiurScratch::default();
        let (side, _) = tree.parse_node_into(id, &mut scratch);
        let (is_leaf, entries) = scratch.into_entries();
        Node {
            id,
            side,
            is_leaf,
            entries,
            summarized: true,
        }
    }

    fn load_summaries(_: &PagedTree<Miur>, _: &mut Node<MiurEntryView>, _: &mut ()) {}
}

/// Serializes the node half of one node record (the spatial/count columns;
/// the summary vectors live in the IntUni record under `iu_rec`).
fn serialize_miur_node(
    is_leaf: bool,
    iu_rec: RecordId,
    entries: &[MiurEntryView],
    codec: CodecId,
    w: &mut Writer,
) {
    let ref_id = |e: &MiurEntryView| match e.child {
        UserRef::Node(rid) => rid.0,
        UserRef::User(uid) => uid,
    };
    match codec {
        CodecId::Verbatim => {
            w.put_u8(u8::from(is_leaf));
            w.put_u32(iu_rec.0);
            w.put_u32(entries.len() as u32);
            for e in entries {
                w.put_u32(ref_id(e));
                w.put_f64(e.rect.min.x);
                w.put_f64(e.rect.min.y);
                w.put_f64(e.rect.max.x);
                w.put_f64(e.rect.max.y);
                w.put_u32(e.count);
            }
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            w.put_u8(u8::from(is_leaf));
            w.put_varint_u32(iu_rec.0);
            w.put_varint_u32(entries.len() as u32);
            let ids: Vec<u32> = entries.iter().map(ref_id).collect();
            c.put_clustered_u32s(w, &ids);
            let col =
                |f: fn(&Rect) -> f64| entries.iter().map(|e| f(&e.rect)).collect::<Vec<f64>>();
            let (min_x, min_y) = (col(|r| r.min.x), col(|r| r.min.y));
            c.put_f64s(w, &min_x);
            c.put_f64s(w, &min_y);
            c.put_f64s_vs(w, &col(|r| r.max.x), &min_x);
            c.put_f64s_vs(w, &col(|r| r.max.y), &min_y);
            let counts: Vec<u32> = entries.iter().map(|e| e.count).collect();
            c.put_packed_u32s(w, &counts);
        }
    }
}

/// Serializes the IntUni half of one node (layout deterministic in the
/// entries, so re-serializing a parsed node reproduces its bytes exactly).
///
/// The Columnar layout stores the vector lengths bit-packed, both term
/// columns as one zigzag-delta run each (terms ascend within an entry, so
/// only entry boundaries cost a sign flip), and the norm bracket as an
/// XOR-prev column plus an XOR-vs-min column — leaf brackets have
/// `norm_min == norm_max` and collapse to one byte per node.
fn serialize_intuni(entries: &[MiurEntryView], codec: CodecId, w: &mut Writer) {
    match codec {
        CodecId::Verbatim => {
            for e in entries {
                w.put_u32(e.uni.len() as u32);
                for &t in &e.uni {
                    w.put_u32(t.0);
                }
                w.put_u32(e.int.len() as u32);
                for &t in &e.int {
                    w.put_u32(t.0);
                }
                w.put_f64(e.norm_min);
                w.put_f64(e.norm_max);
            }
        }
        CodecId::Columnar => {
            let c = storage::codec(codec);
            let uni_lens: Vec<u32> = entries.iter().map(|e| e.uni.len() as u32).collect();
            let int_lens: Vec<u32> = entries.iter().map(|e| e.int.len() as u32).collect();
            c.put_packed_u32s(w, &uni_lens);
            c.put_packed_u32s(w, &int_lens);
            let uni_terms: Vec<u32> = entries
                .iter()
                .flat_map(|e| e.uni.iter().map(|t| t.0))
                .collect();
            c.put_clustered_u32s(w, &uni_terms);
            let int_terms: Vec<u32> = entries
                .iter()
                .flat_map(|e| e.int.iter().map(|t| t.0))
                .collect();
            c.put_clustered_u32s(w, &int_terms);
            let norm_min: Vec<f64> = entries.iter().map(|e| e.norm_min).collect();
            c.put_f64s(w, &norm_min);
            let norm_max: Vec<f64> = entries.iter().map(|e| e.norm_max).collect();
            c.put_f64s_vs(w, &norm_max, &norm_min);
        }
    }
}

/// Union of ascending term slices, ascending output.
fn union_sorted<'a>(lists: impl Iterator<Item = &'a [TermId]>) -> Vec<TermId> {
    let mut all: Vec<TermId> = lists.flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    all
}

/// Intersection of ascending term slices, ascending output.
fn intersect_sorted<'a>(mut lists: impl Iterator<Item = &'a [TermId]>) -> Vec<TermId> {
    let Some(first) = lists.next() else {
        return Vec::new();
    };
    let mut acc: Vec<TermId> = first.to_vec();
    for list in lists {
        let mut next = Vec::with_capacity(acc.len().min(list.len()));
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < list.len() {
            match acc[i].cmp(&list[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    next.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = next;
        if acc.is_empty() {
            break;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn sorted_set_helpers() {
        let a = [t(1), t(3), t(5)];
        let b = [t(3), t(4), t(5)];
        assert_eq!(
            union_sorted([a.as_slice(), b.as_slice()].into_iter()),
            vec![t(1), t(3), t(4), t(5)]
        );
        assert_eq!(
            intersect_sorted([a.as_slice(), b.as_slice()].into_iter()),
            vec![t(3), t(5)]
        );
        assert_eq!(intersect_sorted(std::iter::empty()), Vec::<TermId>::new());
    }
}

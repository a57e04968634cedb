//! Golden pin of the disk-resident trees' mutation paths.
//!
//! Every other maintenance test asserts an inequality ("incremental is
//! cheaper than a rebuild") or a semantic invariant; none would notice a
//! changed record `put` order, a moved I/O charge or a reordered
//! `stale_keys` list. This test replays one seeded script per tree kind ×
//! codec × fanout — bulk build, ~300 interleaved inserts/removes
//! (including remove-to-empty, a root split and a root collapse),
//! `save` → `load` — and compares every exact counter, an order-sensitive
//! hash of all stale keys, a hash of everything a BFS over the zero-copy
//! read path decodes, and a hash of the saved file images against
//! constants captured once.
//! The constants only change when the on-disk behaviour changes.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use geo::Point;
use index::{
    ChildRef, IndexedObject, IndexedUser, MiurScratch, MiurTree, NodeScratch, PostingMode,
    PostingsScratch, StTree, TreeEdit, UserRef,
};
use splitmix::SplitMix64;
use storage::{CodecId, IoStats};
use text::{Document, TermId, WeightedDoc};

const VOCAB: u32 = 40;
const POOL: usize = 120;
const INITIAL: usize = 60;

/// Order-sensitive FNV-1a accumulator.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn point(&mut self, p: Point) {
        self.f64(p.x);
        self.f64(p.y);
    }
}

/// Named measurements, compared positionally against the golden row.
#[derive(Default)]
struct Record(Vec<(String, u64)>);

impl Record {
    fn push(&mut self, name: impl Into<String>, v: u64) {
        self.0.push((name.into(), v));
    }

    fn check(&self, label: &str, want: &[u64]) {
        let got: Vec<u64> = self.0.iter().map(|&(_, v)| v).collect();
        if got == want {
            return;
        }
        let first = got
            .iter()
            .zip(want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        let name = self.0.get(first).map_or("<length>", |(n, _)| n.as_str());
        panic!("{label}: first mismatch at #{first} `{name}`\n  got:  &{got:?}\n  want: &{want:?}");
    }
}

/// Sums the exact counters of every mutation of the churn script.
#[derive(Default)]
struct EditSum {
    read_ios: u64,
    node_writes: u64,
    payload_blocks: u64,
    stale_count: u64,
    stale_hash: Fnv,
}

impl EditSum {
    fn add(&mut self, edit: &TreeEdit) {
        self.read_ios += edit.read_ios;
        self.node_writes += edit.node_writes;
        self.payload_blocks += edit.payload_blocks;
        self.stale_count += edit.stale_keys.len() as u64;
        for &k in &edit.stale_keys {
            self.stale_hash.u64(k);
        }
    }

    fn record(&self, rec: &mut Record) {
        rec.push("churn.read_ios", self.read_ios);
        rec.push("churn.node_writes", self.node_writes);
        rec.push("churn.payload_blocks", self.payload_blocks);
        rec.push("churn.stale_count", self.stale_count);
        rec.push("churn.stale_hash", self.stale_hash.0);
    }
}

/// The operations the script needs from either tree.
trait Tree: Sized {
    type Item;
    const SIDE_FILE: &'static str;

    fn build(items: &[Self::Item], fanout: usize, codec: CodecId) -> Self;
    fn item(g: &mut SplitMix64, id: u32) -> Self::Item;
    fn key(item: &Self::Item) -> (u32, Point);
    fn insert_item(&mut self, item: &Self::Item) -> TreeEdit;
    fn remove_item(&mut self, id: u32, point: Point) -> Option<TreeEdit>;
    fn store(&self, dir: &Path);
    fn reopen(dir: &Path) -> Self;
    /// `[root, height, len, node_bytes, side_bytes, freed, footprint_io]`.
    fn shape(&self) -> [u64; 7];
    /// Hash of everything a BFS over the zero-copy read path decodes.
    fn content_hash(&self) -> u64;
}

/// A random object document over `VOCAB` terms.
fn weighted_doc(g: &mut SplitMix64) -> WeightedDoc {
    let k = 1 + g.below(8);
    let mut pairs: Vec<(TermId, f64)> = Vec::new();
    for _ in 0..k {
        let t = TermId(g.below(u64::from(VOCAB)) as u32);
        // Coarse weights so distinct objects often tie on a maximum
        // (exercises the unchanged-summary ancestor splice).
        let w = (1 + g.below(8)) as f64 / 8.0;
        if pairs.iter().all(|&(seen, _)| seen != t) {
            pairs.push((t, w));
        }
    }
    WeightedDoc::from_pairs(pairs)
}

struct St<const MAX_MIN: bool>(StTree);

impl<const MAX_MIN: bool> Tree for St<MAX_MIN> {
    type Item = IndexedObject;
    const SIDE_FILE: &'static str = "invfiles.mbrs";

    fn build(items: &[IndexedObject], fanout: usize, codec: CodecId) -> Self {
        let mode = if MAX_MIN {
            PostingMode::MaxMin
        } else {
            PostingMode::MaxOnly
        };
        St(StTree::build_with_fanout_codec(items, mode, fanout, codec))
    }

    fn item(g: &mut SplitMix64, id: u32) -> IndexedObject {
        IndexedObject {
            id,
            point: Point::new(g.range(-50.0, 50.0), g.range(-50.0, 50.0)),
            doc: weighted_doc(g),
        }
    }

    fn key(item: &IndexedObject) -> (u32, Point) {
        (item.id, item.point)
    }

    fn insert_item(&mut self, item: &IndexedObject) -> TreeEdit {
        self.0.insert(item)
    }

    fn remove_item(&mut self, id: u32, point: Point) -> Option<TreeEdit> {
        self.0.remove(id, point)
    }

    fn store(&self, dir: &Path) {
        self.0.save(dir).unwrap();
    }

    fn reopen(dir: &Path) -> Self {
        St(StTree::load(dir).unwrap())
    }

    fn shape(&self) -> [u64; 7] {
        let t = &self.0;
        [
            u64::from(t.root().0),
            u64::from(t.height()),
            t.num_objects() as u64,
            t.node_bytes(),
            t.invfile_bytes(),
            t.freed_records(),
            t.footprint_io(),
        ]
    }

    fn content_hash(&self) -> u64 {
        let tree = &self.0;
        let io = IoStats::new();
        let terms: Vec<TermId> = (0..VOCAB).map(TermId).collect();
        let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
        let mut h = Fnv::default();
        let mut queue = VecDeque::from([tree.root()]);
        while let Some(id) = queue.pop_front() {
            let node = tree.read_node_ref(id, &io, &mut ns);
            h.u64(u64::from(node.id().0));
            h.u64(u64::from(node.is_leaf()));
            h.u64(node.len() as u64);
            let postings = tree.read_postings_ref(&node, &terms, &io, &mut ps);
            for i in 0..node.len() {
                match node.child(i) {
                    ChildRef::Node(c) => {
                        h.u64(u64::from(c.0));
                        queue.push_back(c);
                    }
                    ChildRef::Object(o) => h.u64(u64::from(o)),
                }
                let rect = node.rect(i);
                h.point(rect.min);
                h.point(rect.max);
                for &(t, max, min) in postings.entry(i) {
                    h.u64(u64::from(t.0));
                    h.f64(max);
                    h.f64(min);
                }
            }
        }
        h.0
    }
}

struct Miur(MiurTree);

impl Tree for Miur {
    type Item = IndexedUser;
    const SIDE_FILE: &'static str = "intuni.mbrs";

    fn build(items: &[IndexedUser], fanout: usize, codec: CodecId) -> Self {
        Miur(MiurTree::build_with_fanout_codec(items, fanout, codec))
    }

    fn item(g: &mut SplitMix64, id: u32) -> IndexedUser {
        let point = Point::new(g.range(-50.0, 50.0), g.range(-50.0, 50.0));
        let k = 1 + g.below(6);
        // Term 0 is shared by everyone so intersections stay non-trivial.
        let terms: Vec<TermId> = std::iter::once(TermId(0))
            .chain((0..k).map(|_| TermId(1 + g.below(u64::from(VOCAB) - 1) as u32)))
            .collect();
        IndexedUser {
            id,
            point,
            doc: Document::from_terms(terms),
            // Coarse norms: many users share a norm bracket.
            norm: (1 + g.below(6)) as f64 / 2.0,
        }
    }

    fn key(item: &IndexedUser) -> (u32, Point) {
        (item.id, item.point)
    }

    fn insert_item(&mut self, item: &IndexedUser) -> TreeEdit {
        self.0.insert(item)
    }

    fn remove_item(&mut self, id: u32, point: Point) -> Option<TreeEdit> {
        self.0.remove(id, point)
    }

    fn store(&self, dir: &Path) {
        self.0.save(dir).unwrap();
    }

    fn reopen(dir: &Path) -> Self {
        Miur(MiurTree::load(dir).unwrap())
    }

    fn shape(&self) -> [u64; 7] {
        let t = &self.0;
        [
            u64::from(t.root().0),
            u64::from(t.height()),
            t.num_users() as u64,
            t.node_bytes(),
            t.intuni_bytes(),
            t.freed_records(),
            t.footprint_io(),
        ]
    }

    fn content_hash(&self) -> u64 {
        let tree = &self.0;
        let io = IoStats::new();
        let mut scratch = MiurScratch::default();
        let mut h = Fnv::default();
        let mut queue = VecDeque::from([tree.root()]);
        while let Some(id) = queue.pop_front() {
            let node = tree.read_node_ref(id, &io, &mut scratch);
            h.u64(u64::from(node.id.0));
            h.u64(u64::from(node.is_leaf));
            h.u64(node.entries.len() as u64);
            for e in node.entries {
                match e.child {
                    UserRef::Node(c) => {
                        h.u64(u64::from(c.0));
                        queue.push_back(c);
                    }
                    UserRef::User(u) => h.u64(u64::from(u)),
                }
                h.point(e.rect.min);
                h.point(e.rect.max);
                h.u64(u64::from(e.count));
                h.u64(e.uni.len() as u64);
                for t in e.uni.iter().chain(&e.int) {
                    h.u64(u64::from(t.0));
                }
                h.f64(e.norm_min);
                h.f64(e.norm_max);
            }
        }
        h.0
    }
}

const SHAPE_FIELDS: [&str; 7] = [
    "root",
    "height",
    "len",
    "node_bytes",
    "side_bytes",
    "freed_records",
    "footprint_io",
];

fn record_tree<T: Tree>(rec: &mut Record, stage: &str, tree: &T) {
    for (name, v) in SHAPE_FIELDS.iter().zip(tree.shape()) {
        rec.push(format!("{stage}.{name}"), v);
    }
    rec.push(format!("{stage}.content"), tree.content_hash());
}

fn file_hash(path: PathBuf) -> u64 {
    let mut h = Fnv::default();
    h.bytes(&std::fs::read(path).unwrap());
    h.0
}

/// Replays the whole script for one configuration.
fn run<T: Tree>(label: &str, fanout: usize, codec: CodecId) -> Record {
    let mut g = SplitMix64(0x5eed_0000 + fanout as u64);
    let pool: Vec<T::Item> = (0..POOL as u32).map(|id| T::item(&mut g, id)).collect();
    let mut rec = Record::default();

    let mut tree = T::build(&pool[..INITIAL], fanout, codec);
    record_tree(&mut rec, "built", &tree);

    let mut live: Vec<usize> = (0..INITIAL).collect();
    let mut idle: Vec<usize> = (INITIAL..POOL).collect();
    let mut sum = EditSum::default();
    let (mut grew, mut shrank) = (false, false);
    let mut mutate =
        |tree: &mut T, live: &mut Vec<usize>, idle: &mut Vec<usize>, insert: bool, pick: u64| {
            let before = tree.shape()[1];
            if insert {
                let item = idle.swap_remove((pick % idle.len() as u64) as usize);
                sum.add(&tree.insert_item(&pool[item]));
                live.push(item);
            } else {
                let item = live.swap_remove((pick % live.len() as u64) as usize);
                let (id, point) = T::key(&pool[item]);
                sum.add(&tree.remove_item(id, point).expect("live item"));
                idle.push(item);
            }
            let after = tree.shape()[1];
            grew |= after > before;
            shrank |= after < before;
        };

    // Phase 1: 140 interleaved mutations, biased towards growth.
    for _ in 0..140 {
        let insert = live.is_empty() || (!idle.is_empty() && g.below(5) < 3);
        let pick = g.next_u64();
        mutate(&mut tree, &mut live, &mut idle, insert, pick);
    }
    // A miss costs reads but reports nothing.
    assert!(tree.remove_item(9_999, Point::new(0.0, 0.0)).is_none());
    // Phase 2: remove down to the empty tree.
    while !live.is_empty() {
        let pick = g.next_u64();
        mutate(&mut tree, &mut live, &mut idle, false, pick);
    }
    record_tree(&mut rec, "emptied", &tree);
    // Phase 3: regrow (splits the leaf root), then churn again.
    for _ in 0..70 {
        let pick = g.next_u64();
        mutate(&mut tree, &mut live, &mut idle, true, pick);
    }
    for _ in 0..60 {
        let insert = !idle.is_empty() && g.below(2) == 0;
        let pick = g.next_u64();
        mutate(&mut tree, &mut live, &mut idle, insert, pick);
    }
    assert!(
        grew && shrank,
        "{label}: script must split and collapse a root"
    );
    sum.record(&mut rec);
    record_tree(&mut rec, "churned", &tree);

    live.sort_unstable();

    // The churned tree (freed placeholders and all) round-trips.
    let dir = std::env::temp_dir().join(format!("mbrstk-golden-{}-{label}", std::process::id()));
    tree.store(&dir);
    for file in ["nodes.mbrs", T::SIDE_FILE, "meta.mbrs"] {
        rec.push(format!("saved.{file}"), file_hash(dir.join(file)));
    }
    let mut loaded = T::reopen(&dir);
    std::fs::remove_dir_all(&dir).ok();
    record_tree(&mut rec, "loaded", &loaded);
    // A reopened tree keeps mutating exactly like the original.
    let mut tail = EditSum::default();
    let item = &pool[live[0]];
    let (id, point) = T::key(item);
    tail.add(&loaded.remove_item(id, point).expect("live item"));
    tail.add(&loaded.insert_item(item));
    rec.push(
        "loaded.tail_io",
        tail.read_ios + tail.node_writes + tail.payload_blocks,
    );
    rec.push("loaded.tail_stale", tail.stale_hash.0);
    record_tree(&mut rec, "loaded_mutated", &loaded);
    rec
}

/// One `#[test]` per configuration; the row is [`Record`]'s values in
/// push order (a mismatch names the first differing field).
macro_rules! golden {
    ($name:ident, $tree:ty, $fanout:literal, $codec:ident, $want:expr) => {
        #[test]
        fn $name() {
            let label = stringify!($name);
            run::<$tree>(label, $fanout, CodecId::$codec).check(label, &$want);
        }
    };
}

#[rustfmt::skip]
golden!(ir_verbatim_f4, St<false>, 4, Verbatim, [/*ir_verbatim_f4*/ 20, 3, 60, 3_069, 10_440, 0, 42, 9_272_740_184_412_039_839, 927, 1, 0, 9, 4, 1_802, 2, 4_135_767_817_646_007_198, 2_872, 1_414, 1_325, 2_697, 1_999_706_159_080_554_094, 1_434, 4, 84, 4_878, 17_760, 2_697, 84, 15_860_092_064_403_576_080, 4_583_602_474_657_189_169, 8_921_070_704_421_893_975, 16_155_921_926_092_773_482, 1_434, 4, 84, 4_878, 17_760, 2_697, 84, 15_860_092_064_403_576_080, 33, 5_772_712_163_567_182_574, 1_442, 4, 84, 4_878, 17_760, 2_713, 84, 12_390_636_679_268_835_796]);
#[rustfmt::skip]
golden!(ir_verbatim_f32, St<false>, 32, Verbatim, [/*ir_verbatim_f32*/ 2, 2, 60, 2_259, 5_268, 0, 6, 16_159_065_223_883_304_736, 520, 1, 0, 9, 4, 992, 2, 8_505_195_344_553_720_470, 1_653, 749, 679, 1_424, 4_847_067_076_993_943_514, 751, 2, 72, 2_781, 6_772, 1_424, 10, 4_545_903_996_458_731_561, 14_955_457_896_097_772_922, 13_543_679_848_778_415_392, 6_640_691_833_852_881_900, 751, 2, 72, 2_781, 6_772, 1_424, 10, 4_545_903_996_458_731_561, 17, 3_969_501_510_650_135_096, 755, 2, 72, 2_781, 6_812, 1_432, 10, 4_713_753_928_694_223_594]);
#[rustfmt::skip]
golden!(ir_columnar_f4, St<false>, 4, Columnar, [/*ir_columnar_f4*/ 20, 3, 60, 1_729, 6_438, 0, 42, 9_272_740_184_412_039_839, 927, 1, 0, 4, 1, 1_802, 2, 4_135_767_817_646_007_198, 2_872, 1_414, 1_325, 2_697, 1_999_706_159_080_554_094, 1_434, 4, 84, 2_974, 10_809, 2_697, 84, 15_860_092_064_403_576_080, 7_995_406_925_895_148, 8_183_585_727_113_966_474, 16_155_921_926_092_773_482, 1_434, 4, 84, 2_974, 10_809, 2_697, 84, 15_860_092_064_403_576_080, 33, 5_772_712_163_567_182_574, 1_442, 4, 84, 2_972, 10_809, 2_713, 84, 12_390_636_679_268_835_796]);
#[rustfmt::skip]
golden!(ir_columnar_f32, St<false>, 32, Columnar, [/*ir_columnar_f32*/ 2, 2, 60, 1_075, 3_360, 0, 6, 16_159_065_223_883_304_736, 520, 1, 0, 4, 1, 992, 2, 8_505_195_344_553_720_470, 1_653, 749, 679, 1_424, 4_847_067_076_993_943_514, 751, 2, 72, 1_392, 4_335, 1_424, 10, 4_545_903_996_458_731_561, 4_782_395_880_270_046_526, 15_105_090_620_898_339_178, 6_640_691_833_852_881_900, 751, 2, 72, 1_392, 4_335, 1_424, 10, 4_545_903_996_458_731_561, 17, 3_969_501_510_650_135_096, 755, 2, 72, 1_392, 4_342, 1_432, 10, 4_713_753_928_694_223_594]);
#[rustfmt::skip]
golden!(mir_verbatim_f4, St<true>, 4, Verbatim, [/*mir_verbatim_f4*/ 20, 3, 60, 3_069, 15_264, 0, 42, 17_261_030_135_648_117_187, 927, 1, 0, 9, 4, 1_802, 2, 4_135_767_817_646_007_198, 2_872, 1_414, 1_325, 2_697, 17_495_355_848_963_387_908, 1_434, 4, 84, 4_878, 25_792, 2_697, 84, 3_625_748_692_734_961_909, 4_583_602_474_657_189_169, 7_487_927_511_705_801_621, 10_163_497_325_982_042_585, 1_434, 4, 84, 4_878, 25_792, 2_697, 84, 3_625_748_692_734_961_909, 33, 11_182_694_052_485_807_442, 1_442, 4, 84, 4_878, 25_792, 2_713, 84, 13_580_800_474_607_242_777]);
#[rustfmt::skip]
golden!(mir_verbatim_f32, St<true>, 32, Verbatim, [/*mir_verbatim_f32*/ 2, 2, 60, 2_259, 8_148, 0, 6, 7_029_746_285_327_353_805, 520, 1, 0, 9, 4, 992, 2, 8_505_195_344_553_720_470, 1_653, 749, 679, 1_424, 10_624_514_663_741_277_702, 751, 2, 72, 2_781, 10_340, 1_424, 10, 11_683_928_049_873_729_712, 14_955_457_896_097_772_922, 2_129_716_828_023_357_914, 13_791_085_121_320_112_355, 751, 2, 72, 2_781, 10_340, 1_424, 10, 11_683_928_049_873_729_712, 17, 1_966_117_004_749_286_256, 755, 2, 72, 2_781, 10_396, 1_432, 10, 3_890_135_785_621_218_711]);
#[rustfmt::skip]
golden!(mir_columnar_f4, St<true>, 4, Columnar, [/*mir_columnar_f4*/ 20, 3, 60, 1_729, 9_628, 0, 42, 17_261_030_135_648_117_187, 927, 1, 0, 4, 1, 1_802, 2, 4_135_767_817_646_007_198, 2_872, 1_414, 1_325, 2_697, 17_495_355_848_963_387_908, 1_434, 4, 84, 2_974, 16_708, 2_697, 84, 3_625_748_692_734_961_909, 7_995_406_925_895_148, 11_777_040_760_410_481_045, 10_163_497_325_982_042_585, 1_434, 4, 84, 2_974, 16_708, 2_697, 84, 3_625_748_692_734_961_909, 33, 11_182_694_052_485_807_442, 1_442, 4, 84, 2_972, 16_708, 2_713, 84, 13_580_800_474_607_242_777]);
#[rustfmt::skip]
golden!(mir_columnar_f32, St<true>, 32, Columnar, [/*mir_columnar_f32*/ 2, 2, 60, 1_075, 4_093, 0, 6, 7_029_746_285_327_353_805, 520, 1, 0, 4, 1, 992, 2, 8_505_195_344_553_720_470, 1_653, 749, 679, 1_424, 10_624_514_663_741_277_702, 751, 2, 72, 1_392, 5_590, 1_424, 10, 11_683_928_049_873_729_712, 4_782_395_880_270_046_526, 17_327_610_867_239_987_591, 13_791_085_121_320_112_355, 751, 2, 72, 1_392, 5_590, 1_424, 10, 11_683_928_049_873_729_712, 17, 1_966_117_004_749_286_256, 755, 2, 72, 1_392, 5_615, 1_432, 10, 3_890_135_785_621_218_711]);
#[rustfmt::skip]
golden!(miur_verbatim_f4, Miur, 4, Verbatim, [/*miur_verbatim_f4*/ 20, 3, 60, 3_389, 5_352, 0, 42, 16_887_787_491_925_888_050, 855, 1, 0, 9, 0, 1_710, 1, 6_502_522_889_399_334_998, 3_005, 1_339, 1_109, 2_640, 1_263_327_836_850_628_865, 1_359, 4, 70, 4_720, 7_252, 2_640, 80, 4_507_183_033_229_168_706, 15_250_444_192_413_157_490, 18_393_051_245_799_961_378, 17_068_415_966_147_459_823, 1_359, 4, 70, 4_720, 7_252, 2_640, 80, 4_507_183_033_229_168_706, 32, 10_476_031_576_440_452_837, 1_367, 4, 70, 4_720, 7_252, 2_656, 80, 4_101_762_708_734_492_202]);
#[rustfmt::skip]
golden!(miur_verbatim_f32, Miur, 32, Verbatim, [/*miur_verbatim_f32*/ 2, 2, 60, 2_507, 4_092, 0, 6, 12_227_968_629_466_509_518, 459, 1, 0, 9, 0, 918, 1, 395_332_566_138_495_624, 1_725, 688, 547, 1_372, 12_564_851_557_716_995_257, 690, 2, 72, 3_085, 5_064, 1_372, 10, 7_794_993_971_106_128_760, 5_017_948_374_144_181_395, 5_157_420_759_007_477_792, 17_262_571_262_229_538_231, 690, 2, 72, 3_085, 5_064, 1_372, 10, 7_794_993_971_106_128_760, 16, 16_382_177_511_513_326_685, 694, 2, 72, 3_085, 5_064, 1_380, 10, 6_538_402_342_026_428_108]);
#[rustfmt::skip]
golden!(miur_columnar_f4, Miur, 4, Columnar, [/*miur_columnar_f4*/ 20, 3, 60, 1_776, 1_767, 0, 42, 16_887_787_491_925_888_050, 855, 1, 0, 5, 2, 1_710, 2, 6_502_522_889_399_334_998, 3_006, 1_339, 1_110, 2_640, 1_263_327_836_850_628_865, 1_359, 4, 70, 2_776, 2_537, 2_640, 80, 4_507_183_033_229_168_706, 10_988_303_120_741_610_754, 13_890_065_611_319_842_078, 17_068_415_966_147_459_823, 1_359, 4, 70, 2_776, 2_537, 2_640, 80, 4_507_183_033_229_168_706, 32, 10_476_031_576_440_452_837, 1_367, 4, 70, 2_775, 2_537, 2_656, 80, 4_101_762_708_734_492_202]);
#[rustfmt::skip]
golden!(miur_columnar_f32, Miur, 32, Columnar, [/*miur_columnar_f32*/ 2, 2, 60, 1_088, 1_218, 0, 6, 12_227_968_629_466_509_518, 459, 1, 0, 5, 2, 918, 2, 395_332_566_138_495_624, 1_726, 688, 548, 1_372, 12_564_851_557_716_995_257, 690, 2, 72, 1_391, 1_510, 1_372, 10, 7_794_993_971_106_128_760, 2_337_279_920_868_903_756, 11_325_198_550_324_188_120, 17_262_571_262_229_538_231, 690, 2, 72, 1_391, 1_510, 1_372, 10, 7_794_993_971_106_128_760, 16, 16_382_177_511_513_326_685, 694, 2, 72, 1_392, 1_510, 1_380, 10, 6_538_402_342_026_428_108]);

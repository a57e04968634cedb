//! Golden pin of bulk build: the saved images of an engine's three trees.
//!
//! `edit_golden` pins the edit paths over a 40-term vocabulary, so none of
//! its inner inverted files needs a multi-byte term delta or list size.
//! This test builds the MIR-, IR- and MIUR-tree of an engine over a
//! Flickr-like corpus — the construction `Engine::build_with_fanout_codec`
//! and `with_user_index` run — then inserts 20 and removes 10 items in
//! each tree, and compares a hash of every saved file against constants
//! captured once. The constants only change when the bytes a build or an
//! edit writes change.

use std::path::Path;

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use index::{IndexedObject, IndexedUser};
use mbrstk_core::Engine;
use storage::codec::Reader;
use storage::CodecId;
use text::WeightModel;

const OBJECTS: usize = 3_000;
const USERS: usize = 200;
const INSERTS: usize = 20;
const REMOVES: usize = 10;

/// FNV-1a over a file's bytes.
fn file_hash(path: &Path) -> u64 {
    std::fs::read(path)
        .unwrap()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Saves a tree with `save` and records `[bytes, hash]` of each file.
fn record(row: &mut Vec<u64>, dir: &Path, side_file: &str, save: impl FnOnce(&Path)) {
    save(dir);
    for file in ["nodes.mbrs", side_file, "meta.mbrs"] {
        let path = dir.join(file);
        row.push(std::fs::metadata(&path).unwrap().len());
        row.push(file_hash(&path));
    }
}

/// `(multi-byte term delta, multi-byte list size)` seen in the directory
/// of some inner node's inverted file of a saved Columnar tree.
fn inner_multi_byte_varints(dir: &Path) -> (bool, bool) {
    let nodes = storage::load_blockfile(&dir.join("nodes.mbrs")).unwrap();
    let invfiles = storage::load_blockfile(&dir.join("invfiles.mbrs")).unwrap();
    let (mut delta, mut size) = (false, false);
    for id in (0..nodes.len() as u32).map(storage::RecordId) {
        if nodes.is_freed(id) {
            continue;
        }
        let mut node = Reader::new(nodes.get(id));
        if node.get_u8() != 0 {
            continue; // a leaf
        }
        let invfile = storage::RecordId(node.get_varint_u32());
        // The directory: its byte length, then one (term delta, list
        // length, list size) triple per term.
        let mut r = Reader::new(invfiles.get(invfile));
        let dir_end = r.get_varint_u32() as usize + r.position();
        while r.position() < dir_end {
            delta |= r.get_varint_u32() > 127;
            r.get_varint_u32();
            size |= r.get_varint_u32() > 127;
        }
    }
    (delta, size)
}

/// Builds, records, edits and records again one configuration.
fn run(label: &str, fanout: usize, codec: CodecId) -> Vec<u64> {
    let all = generate_objects(&CorpusConfig::flickr_like(OBJECTS + INSERTS));
    let (base, extra) = all.split_at(OBJECTS);
    let mut users_cfg = UserGenConfig::paper_default();
    users_cfg.num_users = USERS;
    let users = generate_workload(base, &users_cfg).users;
    let mut engine = Engine::build_with_fanout_codec(
        base.to_vec(),
        users.clone(),
        WeightModel::lm(),
        0.5,
        fanout,
        codec,
    )
    .with_user_index();

    let root = std::env::temp_dir().join(format!("mbrstk-build-{}-{label}", std::process::id()));
    let mut row = Vec::new();
    let record_all = |engine: &Engine, stage: &str, row: &mut Vec<u64>| {
        let dir = root.join(stage);
        for (name, tree) in [("mir", &engine.mir), ("ir", &engine.ir)] {
            record(row, &dir.join(name), "invfiles.mbrs", |d| {
                tree.save(d).unwrap()
            });
        }
        let miur = engine.miur.as_ref().expect("built with the user index");
        record(row, &dir.join("miur"), "intuni.mbrs", |d| {
            miur.save(d).unwrap()
        });
    };
    record_all(&engine, "built", &mut row);
    if codec == CodecId::Columnar {
        // Fanout 4 spreads an inner node's 16 documents thinly over the
        // vocabulary; fanout 32 puts a common term in all its entries.
        let (delta, size) = inner_multi_byte_varints(&root.join("built/mir"));
        let (wide, what) = if fanout == 4 {
            (delta, "term delta")
        } else {
            (size, "list size")
        };
        assert!(
            wide,
            "{label}: no inner inverted file holds a multi-byte {what}; \
             edit_golden's 40-term vocabulary never writes one"
        );
    }

    let text = &engine.ctx.text;
    let objects: Vec<IndexedObject> = extra
        .iter()
        .map(|o| IndexedObject {
            id: o.id,
            point: o.point,
            doc: text.weigh(&o.doc),
        })
        .collect();
    let new_users: Vec<IndexedUser> = extra
        .iter()
        .zip(&users)
        .map(|(o, u)| IndexedUser {
            id: (USERS + INSERTS) as u32 + o.id,
            point: o.point,
            doc: u.doc.clone(),
            norm: text.normalizer(&u.doc),
        })
        .collect();
    let Engine { mir, ir, miur, .. } = &mut engine;
    let miur = miur.as_mut().unwrap();
    for (o, u) in objects.iter().zip(&new_users) {
        mir.insert(o);
        ir.insert(o);
        miur.insert(u);
    }
    for o in base.iter().step_by(OBJECTS / REMOVES) {
        for tree in [&mut *mir, &mut *ir] {
            assert!(tree.remove(o.id, o.point).is_some(), "object {}", o.id);
        }
    }
    for u in users.iter().step_by(USERS / REMOVES) {
        assert!(miur.remove(u.id, u.point).is_some(), "user {}", u.id);
    }
    record_all(&engine, "edited", &mut row);
    std::fs::remove_dir_all(&root).ok();
    row
}

fn check(label: &str, got: &[u64], want: &[u64]) {
    assert!(
        got == want,
        "{label}: saved images differ\n  got:  &{got:?}\n  want: &{want:?}"
    );
}

/// One `#[test]` per configuration. A row is, per stage (built, edited)
/// and tree (MIR, IR, MIUR), `[bytes, hash]` of the node, side and meta
/// files.
macro_rules! golden {
    ($name:ident, $fanout:literal, $codec:ident, $want:expr) => {
        #[test]
        fn $name() {
            let label = stringify!($name);
            check(label, &run(label, $fanout, CodecId::$codec), &$want);
        }
    };
}

#[rustfmt::skip]
golden!(verbatim_f4, 4, Verbatim, [161_793, 962_656_532_627_495_629, 1_849_932, 7_869_496_931_778_534_570, 21, 4_513_668_193_438_266_350, 161_793, 962_656_532_627_495_629, 1_279_380, 17_020_074_426_266_237_819, 21, 6_834_014_609_952_487_749, 12_372, 8_083_223_744_801_474_579, 14_531, 4_836_551_222_782_401_862, 20, 2_429_327_819_670_046_001, 167_517, 10_248_568_664_194_281_794, 2_017_908, 8_841_862_398_522_834_673, 21, 16_536_039_587_448_952_389, 167_517, 10_248_568_664_194_281_794, 1_399_924, 2_783_093_125_016_639_950, 21, 10_112_951_156_275_870_282, 15_044, 17_336_533_484_284_881_522, 17_448, 4_222_786_112_673_491_034, 20, 858_272_795_929_352_647]);
#[rustfmt::skip]
golden!(verbatim_f32, 32, Verbatim, [113_556, 9_715_761_093_105_266_149, 843_439, 5_175_902_427_664_753_301, 21, 3_112_143_261_615_329_970, 113_556, 9_715_761_093_105_266_149, 557_311, 9_418_336_292_471_534_193, 21, 2_317_627_673_667_487_285, 8_545, 8_768_969_644_901_638_248, 10_355, 8_812_500_295_286_527_706, 20, 2_184_797_225_607_286_598, 115_603, 16_056_946_138_471_913_336, 884_339, 12_498_431_977_093_992_896, 21, 16_510_744_322_786_648_832, 115_603, 16_056_946_138_471_913_336, 586_675, 7_906_437_337_884_371_512, 21, 4_693_884_526_950_798_359, 9_661, 10_781_773_610_059_507_079, 11_595, 9_283_852_075_621_001_974, 20, 11_714_898_758_826_257_468]);
#[rustfmt::skip]
golden!(columnar_f4, 4, Columnar, [94_204, 16_295_599_257_496_863_678, 1_244_387, 780_705_120_404_228_589, 21, 4_513_668_193_438_266_350, 94_204, 16_295_599_257_496_863_678, 789_588, 12_091_198_625_833_565_106, 21, 6_834_014_609_952_487_749, 6_563, 9_855_430_717_008_075_532, 5_556, 10_139_131_186_949_491_583, 20, 2_429_327_819_670_046_001, 99_395, 18_167_565_080_427_319_588, 1_369_096, 17_254_932_908_344_494_968, 21, 16_536_039_587_448_952_389, 99_395, 18_167_565_080_427_319_588, 861_371, 4_000_015_005_206_837_841, 21, 10_112_951_156_275_870_282, 8_998, 7_670_284_318_498_322_008, 7_624, 16_287_190_354_063_320_689, 20, 858_272_795_929_352_647]);
#[rustfmt::skip]
golden!(columnar_f32, 32, Columnar, [53_371, 11_241_691_722_622_317_725, 488_246, 13_158_038_464_664_904_459, 21, 3_112_143_261_615_329_970, 53_371, 11_241_691_722_622_317_725, 353_190, 11_522_708_771_367_880_342, 21, 2_317_627_673_667_487_285, 3_584, 8_806_118_746_717_549_870, 3_277, 4_456_338_255_481_592_072, 20, 2_184_797_225_607_286_598, 55_011, 1_816_712_392_710_121_929, 519_337, 6_746_247_363_531_600_832, 21, 16_510_744_322_786_648_832, 55_011, 1_816_712_392_710_121_929, 371_728, 6_094_683_616_408_360_616, 21, 4_693_884_526_950_798_359, 4_506, 9_223_970_486_556_535_749, 4_058, 2_709_305_043_985_250_658, 20, 11_714_898_758_826_257_468]);

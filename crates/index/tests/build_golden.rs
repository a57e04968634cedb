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
        let mut r = Reader::new(invfiles.get(invfile));
        let n_terms = r.get_varint_u32() as usize;
        for column in 0..3 {
            for _ in 0..n_terms {
                let wide = r.get_varint_u32() > 127;
                delta |= column == 0 && wide;
                size |= column == 2 && wide;
            }
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
golden!(verbatim_f4, 4, Verbatim, [161_793, 11_395_635_000_427_966_666, 1_849_932, 4_987_900_354_346_739_575, 21, 4_513_668_193_438_266_350, 161_793, 11_395_635_000_427_966_666, 1_279_380, 11_594_983_326_139_616_030, 21, 6_834_014_609_952_487_749, 12_372, 8_471_485_737_985_787_930, 14_531, 5_715_207_511_241_240_569, 20, 2_429_327_819_670_046_001, 167_517, 12_553_434_477_002_983_753, 2_017_908, 4_815_135_957_237_396_716, 21, 16_536_039_587_448_952_389, 167_517, 12_553_434_477_002_983_753, 1_399_924, 4_593_015_842_144_870_795, 21, 10_112_951_156_275_870_282, 15_044, 9_238_352_674_108_903_335, 17_448, 8_585_379_994_286_416_991, 20, 858_272_795_929_352_647]);
#[rustfmt::skip]
golden!(verbatim_f32, 32, Verbatim, [113_556, 16_140_024_800_375_563_448, 843_439, 10_948_169_297_471_188_174, 21, 3_112_143_261_615_329_970, 113_556, 16_140_024_800_375_563_448, 557_311, 8_009_360_519_583_045_910, 21, 2_317_627_673_667_487_285, 8_545, 7_824_089_271_998_671_647, 10_355, 16_345_474_683_764_875_517, 20, 2_184_797_225_607_286_598, 115_603, 15_097_393_554_322_304_463, 884_339, 3_762_864_507_402_977_743, 21, 16_510_744_322_786_648_832, 115_603, 15_097_393_554_322_304_463, 586_675, 16_910_399_054_941_662_667, 21, 4_693_884_526_950_798_359, 9_661, 16_605_048_943_961_929_084, 11_595, 8_266_883_687_375_253_513, 20, 11_714_898_758_826_257_468]);
#[rustfmt::skip]
golden!(columnar_f4, 4, Columnar, [94_204, 15_841_903_828_585_730_935, 1_244_198, 15_722_349_347_130_210_484, 21, 4_513_668_193_438_266_350, 94_204, 15_841_903_828_585_730_935, 789_399, 17_138_373_540_239_348_047, 21, 6_834_014_609_952_487_749, 6_563, 2_501_509_033_585_169_675, 5_556, 6_379_153_700_847_932_062, 20, 2_429_327_819_670_046_001, 99_395, 7_101_261_416_527_487_759, 1_368_890, 15_916_613_062_472_760_216, 21, 16_536_039_587_448_952_389, 99_395, 7_101_261_416_527_487_759, 861_165, 16_591_329_074_945_839_059, 21, 10_112_951_156_275_870_282, 8_998, 10_452_740_030_157_177_149, 7_624, 1_376_839_440_320_600_672, 20, 858_272_795_929_352_647]);
#[rustfmt::skip]
golden!(columnar_f32, 32, Columnar, [53_371, 2_547_901_146_231_156_406, 488_183, 14_262_449_600_791_895_070, 21, 3_112_143_261_615_329_970, 53_371, 2_547_901_146_231_156_406, 353_127, 14_529_966_166_122_642_874, 21, 2_317_627_673_667_487_285, 3_584, 9_263_075_113_051_451_271, 3_277, 4_550_148_788_890_949_323, 20, 2_184_797_225_607_286_598, 55_011, 71_534_570_249_448_174, 519_253, 4_561_731_083_474_627_679, 21, 16_510_744_322_786_648_832, 55_011, 71_534_570_249_448_174, 371_644, 2_321_450_853_821_168_802, 21, 4_693_884_526_950_798_359, 4_506, 11_306_766_546_954_987_232, 4_058, 11_886_528_768_326_117_711, 20, 11_714_898_758_826_257_468]);

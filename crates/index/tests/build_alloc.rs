//! Allocation guard of the maintenance paths: a bulk build and an insert
//! cost what they write.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A bulk
//! build may allocate a small constant per record it writes (the record's
//! own copy in its block file, the STR node it was laid out from, buffer
//! doublings), and an insert a small constant per tree level — however
//! many terms a node's inverted file holds. Aggregating a node through a
//! hash map of per-term lists fails both: a leaf inverted file alone cost
//! the map plus one `Vec` per distinct term (119 on average at fanout 32
//! here).
//!
//! Everything runs inside a single `#[test]` so no concurrently running
//! test can perturb the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use datagen::{generate_objects, CorpusConfig};
use index::{ChildRef, IndexedObject, NodeScratch, PostingMode, StTree};
use storage::{CodecId, IoStats};
use text::{TextScorer, WeightModel};

/// System allocator with an allocation counter (frees are not counted).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const OBJECTS: usize = 3_000;
const INSERTS: usize = 20;

/// Allocations a bulk build may make per record it writes: 1.6-2.5 here,
/// 39-558 when every node was aggregated through a hash map.
const PER_RECORD: u64 = 3;
/// Allocations an insert may make per tree level: 10-42 here (buffer
/// growth of the insert's own pool and the merge's sort buffer included),
/// 450 and more when every rewritten inverted file was aggregated through
/// a hash map.
const PER_LEVEL: u64 = 48;

/// Node records of `tree` (each has one inverted file).
fn nodes(tree: &StTree) -> u64 {
    let (io, mut scratch) = (IoStats::new(), NodeScratch::default());
    let (mut stack, mut count) = (vec![tree.root()], 0);
    while let Some(id) = stack.pop() {
        let node = tree.read_node_ref(id, &io, &mut scratch);
        for i in 0..node.len() {
            if let ChildRef::Node(child) = node.child(i) {
                stack.push(child);
            }
        }
        count += 1;
    }
    count
}

#[test]
fn build_and_insert_allocate_per_record_not_per_term() {
    let corpus = generate_objects(&CorpusConfig::flickr_like(OBJECTS + INSERTS));
    let docs: Vec<_> = corpus.iter().map(|o| o.doc.clone()).collect();
    let scorer = TextScorer::build(WeightModel::lm(), &docs);
    let objects: Vec<IndexedObject> = corpus
        .iter()
        .map(|o| IndexedObject {
            id: o.id,
            point: o.point,
            doc: scorer.weigh(&o.doc),
        })
        .collect();
    let (base, extra) = objects.split_at(OBJECTS);
    for codec in [CodecId::Verbatim, CodecId::Columnar] {
        for fanout in [4, 32] {
            let label = format!("{codec:?}, fanout {fanout}");
            let build =
                || StTree::build_with_fanout_codec(base, PostingMode::MaxMin, fanout, codec);
            let (mut tree, built) = allocs(build);
            let records = 2 * nodes(&tree);
            assert!(
                built <= PER_RECORD * records,
                "{label}: the build allocated {built} times for {records} records"
            );
            for o in extra {
                let height = u64::from(tree.height());
                let ((), inserted) = allocs(|| drop(tree.insert(o)));
                assert!(
                    inserted <= PER_LEVEL * height,
                    "{label}: an insert allocated {inserted} times at height {height}"
                );
            }
        }
    }
}

//! Randomized-property tests of the index family on random data.
//!
//! Cases come from a seeded SplitMix64 stream (no `proptest` dependency —
//! the registry is unavailable in the build environment), so runs are
//! deterministic and failures reproduce exactly.

use geo::{Point, Rect};
use index::{
    BuildItem, BuildTree, ChildRef, IndexedObject, IndexedUser, MiurScratch, MiurTree, NodeScratch,
    PostingMode, PostingsScratch, StTree, UserRef,
};
use storage::IoStats;
use text::{Document, TermId, TextScorer, WeightModel, WeightedDoc};

const CASES: usize = 32;

use splitmix::SplitMix64 as Gen;

/// Domain-specific case generators on the shared SplitMix64 core.
trait GenExt {
    fn point(&mut self) -> Point;
    /// 1–79 objects: a point plus 1–4 terms from an 8-term vocabulary.
    fn objects(&mut self) -> Vec<(Point, Vec<TermId>)>;
}

impl GenExt for Gen {
    fn point(&mut self) -> Point {
        Point::new(self.unit() * 100.0 - 50.0, self.unit() * 100.0 - 50.0)
    }

    fn objects(&mut self) -> Vec<(Point, Vec<TermId>)> {
        let n = 1 + self.below(79) as usize;
        (0..n)
            .map(|_| {
                let p = self.point();
                let k = 1 + self.below(4) as usize;
                let ts = (0..k).map(|_| TermId(self.below(8) as u32)).collect();
                (p, ts)
            })
            .collect()
    }
}

fn build_indexed(data: &[(Point, Vec<TermId>)]) -> (Vec<IndexedObject>, TextScorer) {
    let docs: Vec<Document> = data
        .iter()
        .map(|(_, ts)| Document::from_terms(ts.iter().copied()))
        .collect();
    let scorer = TextScorer::build(WeightModel::lm(), &docs);
    let objs = data
        .iter()
        .zip(&docs)
        .enumerate()
        .map(|(i, ((p, _), d))| IndexedObject {
            id: i as u32,
            point: *p,
            doc: scorer.weigh(d),
        })
        .collect();
    (objs, scorer)
}

/// Walks the tree gathering every object with its leaf-stored weights.
fn collect_all(tree: &StTree, io: &IoStats) -> Vec<(u32, Point, WeightedDoc)> {
    let all_terms: Vec<TermId> = (0..16).map(TermId).collect();
    let mut out = Vec::new();
    let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
    let mut stack = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let node = tree.read_node_ref(id, io, &mut ns);
        let postings = tree.read_postings_ref(&node, &all_terms, io, &mut ps);
        for i in 0..node.len() {
            match node.child(i) {
                ChildRef::Node(c) => stack.push(c),
                ChildRef::Object(oid) => {
                    let w = WeightedDoc::from_pairs(
                        postings
                            .entry(i)
                            .iter()
                            .map(|&(t, mx, _)| (t, mx))
                            .collect(),
                    );
                    out.push((oid, node.point(i), w));
                }
            }
        }
    }
    out.sort_by_key(|&(id, _, _)| id);
    out
}

/// Every object written is read back bit-exactly (location + weights).
#[test]
fn sttree_roundtrip() {
    let mut g = Gen(31);
    for _ in 0..CASES {
        let data = g.objects();
        let fanout = (2 + g.below(8) as usize).max(2);
        let (objs, _) = build_indexed(&data);
        let tree = StTree::build_with_fanout(&objs, PostingMode::MaxMin, fanout);
        let io = IoStats::new();
        let got = collect_all(&tree, &io);
        assert_eq!(got.len(), objs.len());
        for (g, o) in got.iter().zip(&objs) {
            assert_eq!(g.0, o.id);
            assert_eq!(g.1, o.point);
            assert_eq!(&g.2, &o.doc);
        }
    }
}

/// Inner-node posting maxima dominate every leaf weight below them and
/// MBRs contain every descendant point.
#[test]
fn sttree_bounds_dominate() {
    fn check(
        tree: &StTree,
        node_rec: storage::RecordId,
        objs: &[IndexedObject],
        all_terms: &[TermId],
        io: &IoStats,
    ) {
        // One scratch pair per level of the recursion: this node's views
        // stay borrowed while its descendants are read.
        let (mut ns, mut ps) = (NodeScratch::default(), PostingsScratch::default());
        let mut below = NodeScratch::default();
        let node = tree.read_node_ref(node_rec, io, &mut ns);
        let postings = tree.read_postings_ref(&node, all_terms, io, &mut ps);
        for i in 0..node.len() {
            if let ChildRef::Node(c) = node.child(i) {
                // Gather descendant objects of c.
                let mut descs = Vec::new();
                let mut stack = vec![c];
                while let Some(id) = stack.pop() {
                    let nv = tree.read_node_ref(id, io, &mut below);
                    for j in 0..nv.len() {
                        match nv.child(j) {
                            ChildRef::Node(cc) => stack.push(cc),
                            ChildRef::Object(o) => descs.push(o),
                        }
                    }
                }
                for &oid in &descs {
                    let obj = &objs[oid as usize];
                    assert!(node.rect(i).contains_point(&obj.point));
                    for &(t, w) in &obj.doc.entries {
                        let posted = postings
                            .entry(i)
                            .iter()
                            .find(|&&(pt, _, _)| pt == t)
                            .map(|&(_, mx, _)| mx)
                            .unwrap_or(0.0);
                        assert!(
                            posted >= w - 1e-12,
                            "max posting must dominate descendant weight"
                        );
                    }
                }
                check(tree, c, objs, all_terms, io);
            }
        }
    }

    let mut g = Gen(32);
    for _ in 0..CASES {
        let data = g.objects();
        let fanout = 3 + g.below(5) as usize;
        let (objs, _) = build_indexed(&data);
        let tree = StTree::build_with_fanout(&objs, PostingMode::MaxMin, fanout);
        let io = IoStats::new();
        let all_terms: Vec<TermId> = (0..16).map(TermId).collect();
        check(&tree, tree.root(), &objs, &all_terms, &io);
    }
}

/// Dynamic insertion yields a complete, bit-exact object set no matter how
/// the build is split between bulk load and inserts.
#[test]
fn dynamic_insert_completeness() {
    let mut g = Gen(34);
    for _ in 0..CASES {
        let data = g.objects();
        let split_pct = 10 + g.below(80) as usize;
        let fanout = 4 + g.below(6) as usize;
        let (objs, _) = build_indexed(&data);
        let split = (objs.len() * split_pct / 100).max(1);
        let mut tree = StTree::build_with_fanout(&objs[..split], PostingMode::MaxMin, fanout);
        for o in &objs[split..] {
            tree.insert(o);
        }
        let io = IoStats::new();
        let got = collect_all(&tree, &io);
        assert_eq!(got.len(), objs.len());
        for (g, o) in got.iter().zip(&objs) {
            assert_eq!(g.0, o.id);
            assert_eq!(g.1, o.point);
            assert_eq!(&g.2, &o.doc);
        }
    }
}

/// Random deletions leave exactly the surviving objects, queryable.
#[test]
fn dynamic_remove_completeness() {
    let mut g = Gen(35);
    for _ in 0..CASES {
        let data = g.objects();
        let kill_pct = 10 + g.below(80) as usize;
        let fanout = 4 + g.below(6) as usize;
        let (objs, _) = build_indexed(&data);
        let mut tree = StTree::build_with_fanout(&objs, PostingMode::MaxMin, fanout);
        let kill = (objs.len() * kill_pct / 100).min(objs.len());
        for o in &objs[..kill] {
            assert!(tree.remove(o.id, o.point).is_some());
        }
        let io = IoStats::new();
        let got = collect_all(&tree, &io);
        assert_eq!(got.len(), objs.len() - kill);
        for (g, o) in got.iter().zip(&objs[kill..]) {
            assert_eq!(g.0, o.id);
            assert_eq!(g.1, o.point);
            assert_eq!(&g.2, &o.doc);
        }
    }
}

/// Bulk-loaded trees hold the invariants for any fanout.
#[test]
fn bulk_load_invariants() {
    let mut g = Gen(36);
    for _ in 0..CASES {
        let data = g.objects();
        let fanout = (2 + g.below(10) as usize).max(2);
        let items: Vec<BuildItem> = data
            .iter()
            .enumerate()
            .map(|(i, (p, _))| BuildItem {
                id: i as u32,
                rect: Rect::from_point(*p),
            })
            .collect();
        let tree = BuildTree::bulk_load(&items, fanout);
        tree.check_invariants(&items).unwrap();
    }
}

/// MIUR IntUni vectors bound every descendant's keyword set.
#[test]
fn miur_intuni_sound() {
    let mut g = Gen(37);
    for _ in 0..CASES {
        let data = g.objects();
        let fanout = 3 + g.below(5) as usize;
        let users: Vec<IndexedUser> = data
            .iter()
            .enumerate()
            .map(|(i, (p, ts))| IndexedUser {
                id: i as u32,
                point: *p,
                doc: Document::from_terms(ts.iter().copied()),
                norm: ts.len() as f64,
            })
            .collect();
        let tree = MiurTree::build_with_fanout(&users, fanout);
        let io = IoStats::new();

        let (mut scratch, mut below) = (MiurScratch::default(), MiurScratch::default());
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.read_node_ref(id, &io, &mut scratch);
            for e in node.entries {
                let descs: Vec<u32> = match e.child {
                    UserRef::User(u) => vec![u],
                    UserRef::Node(c) => {
                        stack.push(c);
                        let mut out = Vec::new();
                        let mut s2 = vec![c];
                        while let Some(x) = s2.pop() {
                            let nv = tree.read_node_ref(x, &io, &mut below);
                            for ee in nv.entries {
                                match ee.child {
                                    UserRef::Node(cc) => s2.push(cc),
                                    UserRef::User(u) => out.push(u),
                                }
                            }
                        }
                        out
                    }
                };
                assert_eq!(descs.len(), e.count as usize);
                for d in descs {
                    let doc = &users[d as usize].doc;
                    for t in doc.terms() {
                        assert!(e.uni.contains(&t));
                    }
                    for &t in &e.int {
                        assert!(doc.contains(t));
                    }
                }
            }
        }
    }
}

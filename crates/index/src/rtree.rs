//! The in-memory R-tree skeleton: STR bulk loading and the quadratic
//! split partition.
//!
//! This is the *build* structure. The disk layouts ([`crate::StTree`],
//! [`crate::MiurTree`]) are produced by serializing a finished
//! [`BuildTree`] ([`crate::tree`]); queries never touch this module.

use geo::{Point, Rect};

/// Default maximum entries per node.
///
/// A node record stores ~40 bytes per entry (id + MBR + per-entry metadata),
/// so 64 entries keep node records comfortably inside one 4 KB page, the
/// configuration the paper's simulated I/O model assumes.
pub const DEFAULT_MAX_ENTRIES: usize = 64;

/// One item to index: an application id plus its (possibly degenerate) MBR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildItem {
    /// Application identifier (object id or user id).
    pub id: u32,
    /// Bounding rectangle; a point for the paper's datasets.
    pub rect: Rect,
}

/// One degenerate-MBR item per point, ids in iteration order.
pub(crate) fn point_items(points: impl Iterator<Item = Point>) -> Vec<BuildItem> {
    points
        .enumerate()
        .map(|(pos, point)| BuildItem {
            id: pos as u32,
            rect: Rect::from_point(point),
        })
        .collect()
}

/// A node of the in-memory build tree.
#[derive(Debug, Clone)]
pub struct BuildNode {
    /// MBR of everything below this node.
    pub rect: Rect,
    /// Child node indices (inner nodes) — empty for leaves.
    pub children: Vec<usize>,
    /// Indices into the item slice (leaves) — empty for inner nodes.
    pub items: Vec<usize>,
    /// Distance from the leaf level (leaves are 0).
    pub level: u32,
}

impl BuildNode {
    /// True when this node holds items rather than child nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries (children or items).
    pub fn len(&self) -> usize {
        if self.is_leaf() {
            self.items.len()
        } else {
            self.children.len()
        }
    }

    /// True when the node holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A finished R-tree over a fixed item slice.
///
/// Node indices refer into [`BuildTree::nodes`]; item indices refer into
/// the caller's item slice (which the tree does not own).
#[derive(Debug, Clone)]
pub struct BuildTree {
    /// All nodes; the root is [`BuildTree::root`].
    pub nodes: Vec<BuildNode>,
    /// Index of the root node.
    pub root: usize,
    /// Tree height: 1 for a single leaf root.
    pub height: u32,
    /// Maximum entries per node used during construction.
    pub max_entries: usize,
}

impl BuildTree {
    /// Bulk loads `items` with the Sort-Tile-Recursive algorithm.
    ///
    /// STR produces well-clustered, fully-packed nodes; it is the standard
    /// choice for static spatial-textual collections like the paper's.
    ///
    /// # Panics
    /// Panics when `items` is empty or `max_entries < 2`.
    pub fn bulk_load(items: &[BuildItem], max_entries: usize) -> Self {
        assert!(!items.is_empty(), "cannot bulk load an empty item set");
        assert!(max_entries >= 2, "max_entries must be at least 2");
        let mut order: Vec<usize> = (0..items.len()).collect();
        let leaves = str_tile(&mut order, max_entries, |&i| items[i].rect.center());
        Self::from_leaves(items, leaves, max_entries)
    }

    /// Makes a leaf of every group of `leaves` (indices into `items`) and
    /// tiles the levels above them with STR.
    pub(crate) fn from_leaves(
        items: &[BuildItem],
        leaves: Vec<Vec<usize>>,
        max_entries: usize,
    ) -> Self {
        let mut nodes: Vec<BuildNode> = Vec::new();
        let mut level_nodes: Vec<usize> = Vec::with_capacity(leaves.len());
        for group in leaves {
            let rect = Rect::bounding_rects(group.iter().map(|&i| items[i].rect))
                .expect("non-empty group");
            nodes.push(BuildNode {
                rect,
                children: Vec::new(),
                items: group,
                level: 0,
            });
            level_nodes.push(nodes.len() - 1);
        }

        // --- Upper levels: tile the nodes of the level below. ---
        let mut height = 1;
        while level_nodes.len() > 1 {
            let mut order: Vec<usize> = level_nodes.clone();
            let groups = str_tile(&mut order, max_entries, |&n| nodes[n].rect.center());
            let mut next: Vec<usize> = Vec::with_capacity(groups.len());
            for group in groups {
                let rect = Rect::bounding_rects(group.iter().map(|&n| nodes[n].rect))
                    .expect("non-empty group");
                nodes.push(BuildNode {
                    rect,
                    children: group,
                    items: Vec::new(),
                    level: height,
                });
                next.push(nodes.len() - 1);
            }
            level_nodes = next;
            height += 1;
        }

        BuildTree {
            root: level_nodes[0],
            nodes,
            height,
            max_entries,
        }
    }

    /// Checks structural invariants; used by tests and debug builds.
    ///
    /// Verifies that (a) every node's MBR tightly bounds its entries,
    /// (b) no node exceeds `max_entries`, (c) every item appears exactly
    /// once, and (d) levels decrease by one toward the leaves.
    pub fn check_invariants(&self, items: &[BuildItem]) -> Result<(), String> {
        let mut seen = vec![false; items.len()];
        self.check_node(self.root, items, &mut seen)?;
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("item {missing} missing from tree"));
        }
        Ok(())
    }

    fn check_node(&self, n: usize, items: &[BuildItem], seen: &mut [bool]) -> Result<(), String> {
        let node = &self.nodes[n];
        if node.len() > self.max_entries {
            return Err(format!(
                "node {n} has {} > max {} entries",
                node.len(),
                self.max_entries
            ));
        }
        if node.is_empty() {
            return Err(format!("node {n} is empty"));
        }
        if node.is_leaf() {
            let mbr = Rect::bounding_rects(node.items.iter().map(|&i| items[i].rect)).unwrap();
            if mbr != node.rect {
                return Err(format!("leaf {n} MBR is not tight"));
            }
            for &i in &node.items {
                if seen[i] {
                    return Err(format!("item {i} appears twice"));
                }
                seen[i] = true;
            }
        } else {
            let mbr =
                Rect::bounding_rects(node.children.iter().map(|&c| self.nodes[c].rect)).unwrap();
            if mbr != node.rect {
                return Err(format!("inner {n} MBR is not tight"));
            }
            for &c in &node.children {
                if self.nodes[c].level + 1 != node.level {
                    return Err(format!("child {c} level mismatch under {n}"));
                }
                self.check_node(c, items, seen)?;
            }
        }
        Ok(())
    }
}

/// Sort-Tile-Recursive grouping of `order` (indices) into runs of at most
/// `cap`, tiling by x strips then y within each strip.
fn str_tile<T: Copy>(order: &mut [T], cap: usize, center: impl Fn(&T) -> Point) -> Vec<Vec<T>> {
    let n = order.len();
    let num_groups = n.div_ceil(cap);
    let num_strips = (num_groups as f64).sqrt().ceil() as usize;
    let strip_len = n.div_ceil(num_strips);

    order.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));
    let mut groups = Vec::with_capacity(num_groups);
    for strip in order.chunks_mut(strip_len.max(1)) {
        strip.sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        for run in strip.chunks(cap) {
            groups.push(run.to_vec());
        }
    }
    groups
}

/// Quadratic-split partition of entry indices (Guttman): seeds are the
/// pair wasting the most area together; remaining entries go to the group
/// needing less enlargement, with a minimum-fill force-assignment. The
/// overflow split of the disk-resident trees' insertion path
/// ([`crate::tree`]).
pub(crate) fn quadratic_partition(rects: &[Rect], min_fill: usize) -> (Vec<usize>, Vec<usize>) {
    let n = rects.len();
    debug_assert!(n >= 2);
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut g1 = vec![s1];
    let mut g2 = vec![s2];
    let mut r1 = rects[s1];
    let mut r2 = rects[s2];
    let mut rest: Vec<usize> = (0..n).filter(|&i| i != s1 && i != s2).collect();
    while let Some(i) = rest.pop() {
        let remaining = rest.len() + 1;
        if g1.len() + remaining <= min_fill {
            for &x in std::iter::once(&i).chain(rest.iter()) {
                g1.push(x);
            }
            break;
        }
        if g2.len() + remaining <= min_fill {
            for &x in std::iter::once(&i).chain(rest.iter()) {
                g2.push(x);
            }
            break;
        }
        let e1 = r1.enlargement(&rects[i]);
        let e2 = r2.enlargement(&rects[i]);
        if e1 < e2 || (e1 == e2 && r1.area() <= r2.area()) {
            g1.push(i);
            r1 = r1.union(&rects[i]);
        } else {
            g2.push(i);
            r2 = r2.union(&rects[i]);
        }
    }
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leaf-level item slots.
    fn num_items(t: &BuildTree) -> usize {
        let leaves = t.nodes.iter().filter(|n| n.is_leaf());
        leaves.map(|n| n.items.len()).sum()
    }

    fn grid_items(n: usize) -> Vec<BuildItem> {
        (0..n)
            .map(|i| BuildItem {
                id: i as u32,
                rect: Rect::from_point(Point::new((i % 37) as f64, (i / 37) as f64)),
            })
            .collect()
    }

    #[test]
    fn bulk_load_single_item() {
        let items = grid_items(1);
        let t = BuildTree::bulk_load(&items, 8);
        assert_eq!(t.height, 1);
        assert_eq!(num_items(&t), 1);
        t.check_invariants(&items).unwrap();
    }

    #[test]
    fn bulk_load_one_leaf() {
        let items = grid_items(8);
        let t = BuildTree::bulk_load(&items, 8);
        assert_eq!(t.height, 1);
        t.check_invariants(&items).unwrap();
    }

    #[test]
    fn bulk_load_two_levels() {
        let items = grid_items(50);
        let t = BuildTree::bulk_load(&items, 8);
        assert!(t.height >= 2);
        assert_eq!(num_items(&t), 50);
        t.check_invariants(&items).unwrap();
    }

    #[test]
    fn bulk_load_large() {
        let items = grid_items(5000);
        let t = BuildTree::bulk_load(&items, 16);
        t.check_invariants(&items).unwrap();
        // Packed tree: node count near n/M + n/M² ...
        assert!(t.nodes.len() <= 5000 / 16 * 2 + 4);
    }

    #[test]
    #[should_panic(expected = "empty item set")]
    fn bulk_load_empty_panics() {
        BuildTree::bulk_load(&[], 8);
    }

    #[test]
    fn root_mbr_covers_everything() {
        let items = grid_items(200);
        let t = BuildTree::bulk_load(&items, 8);
        let root = &t.nodes[t.root];
        for it in &items {
            assert!(root.rect.contains_rect(&it.rect));
        }
    }
}

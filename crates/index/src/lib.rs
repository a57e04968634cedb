//! Spatial-textual indexes for the MaxBRSTkNN reproduction.
//!
//! The paper builds on a family of R-tree-based spatial-textual indexes:
//!
//! * the **IR-tree** of Cong et al. (the paper's ref. 3) — an R-tree whose
//!   nodes carry inverted files with the *maximum* weight of each term in
//!   the node's subtree,
//! * the **MIR-tree** (§5.1) — the paper's extension in which every posting
//!   stores both the maximum and the minimum term weight (minimum over the
//!   subtree *intersection*, 0 when the term is missing from any document
//!   below),
//! * the **MIUR-tree** (§7) — a user-side R-tree whose nodes carry the
//!   union and intersection of the keyword sets below plus the number of
//!   users in each subtree.
//!
//! All three are **one paged R-tree under two payloads**. The core
//! (`tree.rs`, crate-private) owns everything that is about the R-tree:
//! the two [`storage::BlockFile`]s (node records plus one *side* record
//! of textual summary per node), serialization of a Sort-Tile-Recursive
//! bulk load ([`BuildTree`]), Guttman insertion with quadratic splits,
//! CondenseTree removal, persistence, the footprint
//! accessors — and every maintenance-I/O charge ([`TreeEdit`]). A
//! payload supplies the per-entry summary, the record codecs and a
//! handful of hooks:
//!
//! * `st/` — [`StTree`], the inverted-file payload; [`PostingMode`]
//!   selects IR-tree or MIR-tree posting width. `st/payload.rs` holds the
//!   term aggregate and the node / inverted-file layouts, `st/read.rs` the
//!   zero-copy query read path ([`NodeRef`], [`PostingsRef`]).
//! * `miur/` — [`MiurTree`], the IntUni payload, split the same way
//!   (`miur/payload.rs`, `miur/read.rs` with [`MiurNodeRef`]).
//!
//! A behaviour that must differ between the trees goes in as a hook on
//! the core's `Payload` trait (see the list in `tree.rs`'s module doc),
//! never as a branch inside the core or a second copy of an algorithm.
//!
//! The trees are *disk resident*: every query-time access deserializes a
//! record and charges the paper's simulated I/O ([`storage::IoStats`]).

// The read path is meant to be zero-copy: a clone that merely appeases the
// borrow checker belongs in a scratch buffer instead.
#![deny(clippy::redundant_clone)]

mod edit;
mod miur;
mod rtree;
mod st;
mod tree;

pub use edit::TreeEdit;
pub use miur::{IndexedUser, MiurEntryView, MiurNodeRef, MiurScratch, MiurTree, UserRef};
pub use rtree::{BuildItem, BuildTree, DEFAULT_MAX_ENTRIES};
pub use st::{
    ChildRef, IndexedObject, NodeRef, NodeScratch, PostingMode, PostingsRef, PostingsScratch,
    StTree,
};

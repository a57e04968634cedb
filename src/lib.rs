//! # maxbrstknn
//!
//! A complete Rust reproduction of **"Maximizing Bichromatic Reverse
//! Spatial and Textual k Nearest Neighbor Queries"** (Choudhury,
//! Culpepper, Sellis & Cao, PVLDB 9(6), 2016).
//!
//! Given users `U` and objects `O` — each a location plus a keyword set —
//! a `MaxBRSTkNN(ox, L, W, ws, k)` query picks the candidate location
//! `ℓ ∈ L` and keyword set `W' ⊆ W (|W'| ≤ ws)` that maximize the number
//! of users who would rank the query object `ox` among their top-k
//! spatial-textual results. Think: where to open a restaurant and what to
//! put on the menu so the most customers see it in their top-k.
//!
//! ## Quickstart
//!
//! ```
//! use maxbrstknn::prelude::*;
//!
//! // Two restaurants, three customers, on a 10×10 map.
//! let mut dict = Dictionary::new();
//! let (sushi, noodles) = (dict.intern("sushi"), dict.intern("noodles"));
//! let objects = vec![
//!     ObjectData { id: 0, point: Point::new(2.0, 2.0), doc: Document::from_terms([sushi]) },
//!     ObjectData { id: 1, point: Point::new(8.0, 8.0), doc: Document::from_terms([noodles]) },
//! ];
//! let users = vec![
//!     UserData { id: 0, point: Point::new(2.5, 2.0), doc: Document::from_terms([sushi]) },
//!     UserData { id: 1, point: Point::new(3.0, 3.0), doc: Document::from_terms([sushi, noodles]) },
//!     UserData { id: 2, point: Point::new(7.5, 8.0), doc: Document::from_terms([noodles]) },
//! ];
//! let engine = Engine::build(objects, users, WeightModel::lm(), 0.5);
//!
//! // Where should a new place go, and which dish should it advertise?
//! let spec = QuerySpec {
//!     ox_doc: Document::new(),
//!     locations: vec![Point::new(2.2, 2.5), Point::new(8.0, 7.5)],
//!     keywords: vec![sushi, noodles],
//!     ws: 1,
//!     k: 1,
//! };
//! let answer = engine.query(&spec, Method::JointExact);
//! assert!(!answer.brstknn.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`geo`] | points, MBRs, min/max distances, normalized proximity `SS` |
//! | [`text`] | dictionary, documents, TF-IDF / LM / keyword-overlap `TS` |
//! | [`storage`] | simulated 4 KB-page disk and the paper's I/O accounting |
//! | [`index`] | R-tree skeleton, IR-tree, MIR-tree, MIUR-tree |
//! | [`core`](mbrstk_core) | Algorithms 1–4, baselines, §7 pipeline, [`Engine`](mbrstk_core::Engine) |
//! | [`obs`](mbrstk_obs) | metrics registry, mergeable histograms, JSON / Prometheus export |
//! | [`datagen`] | Flickr-like / Yelp-like generators, §8 user protocol |

#![forbid(unsafe_code)]

pub use datagen;
pub use geo;
pub use index;
pub use mbrstk_core;
pub use mbrstk_obs;
pub use storage;
pub use text;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use geo::{Point, Rect, SpatialContext};
    pub use mbrstk_core::{
        Engine, Method, ObjectData, QueryResult, QuerySpec, ScoreContext, UserData, UserGroup,
    };
    pub use storage::CodecId;
    pub use text::{Dictionary, Document, TermId, TextScorer, WeightModel};
}

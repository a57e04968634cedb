//! Experiment parameters (the paper's Table 5, with scaled defaults).
//!
//! # Scale reductions
//!
//! The sweeps keep Table 5's values for `k`, `α`, `UL`, `UW`, `Area`,
//! `|L|` and `ws`. What is reduced, so that every figure runs on one
//! machine in minutes, is the size of the collections:
//!
//! * `|O|` — the paper's 1M-object Flickr collection becomes a 20K-object
//!   Flickr-like one, and Fig. 13 sweeps 10K–80K. The Yelp-like one
//!   ([`Params::yelp`]) is a sixteenth of that, at least 500 objects of
//!   ~400 distinct terms against ~7; the paper's Yelp is ~60× smaller
//!   than its Flickr.
//! * `|U|` — 500 users by default, 100–2,000 in Fig. 12 and 250–4,000 in
//!   Fig. 15.
//! * trials — 3 independently generated user sets per point, where the
//!   paper averages 100.
//! * the exhaustive baseline selection is skipped (printed as `NaN`)
//!   where `C(|W|, ws) × |L| × |U|` exceeds 3 × 10⁹ scorings; the paper
//!   ran those points for hours.
//!
//! `figures --quick` ([`Params::quick`]) shrinks further, to 4,000
//! objects, 120 users, 20 locations and one trial. Absolute costs are
//! therefore not comparable with §8: the reproduction target is the
//! *shape* of each series.

use text::WeightModel;

/// Which synthetic collection backs the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Flickr-like: short tag sets, large vocabulary (default).
    FlickrLike,
    /// Yelp-like: few objects, very long documents.
    YelpLike,
}

/// One experiment configuration.
///
/// Defaults are Table 5's bold values; `num_objects` is scaled from the
/// paper's 1M to 20K so a full sweep runs on one machine in minutes —
/// relative costs, not absolute ones, are the reproduction target.
#[derive(Debug, Clone)]
pub struct Params {
    /// Collection flavour.
    pub dataset: DatasetKind,
    /// Text relevance measure.
    pub model: WeightModel,
    /// `|O|`.
    pub num_objects: usize,
    /// `|U|`.
    pub num_users: usize,
    /// Top-k depth.
    pub k: usize,
    /// Spatial/textual preference `α`.
    pub alpha: f64,
    /// Keywords per user `UL`.
    pub ul: usize,
    /// Unique user keywords `UW` (= `|W|`).
    pub uw: usize,
    /// User window side `Area`.
    pub area: f64,
    /// Candidate locations `|L|`.
    pub num_locations: usize,
    /// Keyword budget `ws`.
    pub ws: usize,
    /// Workload seed (each trial shifts it).
    pub seed: u64,
    /// Trials to average over (the paper averages 100 user sets).
    pub trials: usize,
    /// Index fanout.
    pub fanout: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dataset: DatasetKind::FlickrLike,
            model: WeightModel::lm(),
            num_objects: 20_000,
            num_users: 500,
            k: 10,
            alpha: 0.5,
            ul: 3,
            uw: 20,
            area: 5.0,
            num_locations: 50,
            ws: 3,
            seed: 100,
            trials: 3,
            fanout: 32,
        }
    }
}

impl Params {
    /// A fast configuration for smoke tests (`figures --quick`).
    pub fn quick() -> Self {
        Params {
            num_objects: 4_000,
            num_users: 120,
            num_locations: 20,
            trials: 1,
            ..Params::default()
        }
    }

    /// Switches to the Yelp-like collection with a proportionate size.
    pub fn yelp(mut self) -> Self {
        self.dataset = DatasetKind::YelpLike;
        // Yelp is ~60× smaller than Flickr in the paper.
        self.num_objects = (self.num_objects / 16).max(500);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table5_bold() {
        let p = Params::default();
        assert_eq!(p.k, 10);
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.ul, 3);
        assert_eq!(p.uw, 20);
        assert_eq!(p.area, 5.0);
        assert_eq!(p.num_locations, 50);
        assert_eq!(p.ws, 3);
    }

    #[test]
    fn yelp_shrinks_collection() {
        let p = Params::default().yelp();
        assert_eq!(p.dataset, DatasetKind::YelpLike);
        assert!(p.num_objects < Params::default().num_objects);
    }
}

//! Materializing an experiment: data, workload, indexes, query.

use datagen::{generate_objects, generate_workload, CorpusConfig, UserGenConfig};
use mbrstk_core::{Engine, QuerySpec};
use text::Document;

use crate::{DatasetKind, Params};

/// A fully-built experiment instance: engine (indexes + scorer) plus the
/// generated query workload.
#[derive(Debug)]
pub struct Scenario {
    /// Engine over the generated objects and users.
    pub engine: Engine,
    /// The query under benchmark.
    pub spec: QuerySpec,
    /// Window the users were drawn from (for reporting).
    pub window: geo::Rect,
}

impl Scenario {
    /// Builds objects, workload and indexes for one trial.
    ///
    /// `trial` shifts the workload seed, reproducing the paper's averaging
    /// over independently generated user sets (object collection fixed).
    /// The block-file codec is `MBRSTK_CODEC`'s, Verbatim when unset.
    pub fn build(p: &Params, trial: usize) -> Scenario {
        let corpus_cfg = match p.dataset {
            DatasetKind::FlickrLike => CorpusConfig::flickr_like(p.num_objects),
            DatasetKind::YelpLike => CorpusConfig::yelp_like(p.num_objects),
        };
        let objects = generate_objects(&corpus_cfg);

        let wl = generate_workload(
            &objects,
            &UserGenConfig {
                num_users: p.num_users,
                area: p.area,
                uw: p.uw,
                ul: p.ul,
                num_locations: p.num_locations,
                seed: p.seed + trial as u64 * 1000,
            },
        );

        let engine = Engine::build_with_fanout(objects, wl.users, p.model, p.alpha, p.fanout)
            .with_user_index();

        let spec = QuerySpec {
            ox_doc: Document::new(),
            locations: wl.candidate_locations,
            keywords: wl.candidate_keywords,
            ws: p.ws,
            k: p.k,
        };

        Scenario {
            engine,
            spec,
            window: wl.window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds() {
        let p = Params {
            num_objects: 1_000,
            num_users: 50,
            ..Params::quick()
        };
        let sc = Scenario::build(&p, 0);
        assert_eq!(sc.engine.users.len(), 50);
        assert_eq!(sc.engine.objects.len(), 1_000);
        assert!(!sc.spec.keywords.is_empty());
        assert_eq!(sc.spec.k, p.k);
        assert!(sc.engine.miur.is_some());
    }

    #[test]
    fn trials_vary_the_workload() {
        let p = Params {
            num_objects: 1_000,
            num_users: 30,
            ..Params::quick()
        };
        let a = Scenario::build(&p, 0);
        let b = Scenario::build(&p, 1);
        let pts = |s: &Scenario| -> Vec<(u64, u64)> {
            s.engine
                .users
                .iter()
                .map(|u| (u.point.x.to_bits(), u.point.y.to_bits()))
                .collect()
        };
        assert_ne!(pts(&a), pts(&b));
    }
}

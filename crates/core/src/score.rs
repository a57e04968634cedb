//! The combined spatial-textual score `STS` (Eq. 1).

use geo::{Point, SpatialContext};
use text::{Document, TermId, TextScorer, WeightedDoc};

use crate::UserData;

/// Everything needed to evaluate `STS(o, u) = α·SS + (1−α)·TS`.
#[derive(Debug, Clone)]
pub struct ScoreContext {
    /// Preference parameter `α ∈ [0, 1]` (1 = purely spatial).
    pub alpha: f64,
    /// Normalized spatial proximity (Eq. 2).
    pub spatial: SpatialContext,
    /// Normalized text relevance (Eq. 3–4 / KO / TF-IDF).
    pub text: TextScorer,
}

impl ScoreContext {
    /// Creates a context, validating `α`.
    ///
    /// # Panics
    /// Panics when `alpha` is outside `[0, 1]`.
    pub fn new(alpha: f64, spatial: SpatialContext, text: TextScorer) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        ScoreContext {
            alpha,
            spatial,
            text,
        }
    }

    /// Exact `STS` between an object (point + its model weights, ascending
    /// by term — stored halves resolved through
    /// [`text::Weights::weight`]) and a user, given the user's
    /// normalizer `n_u` (see [`text::TextScorer::normalizer`]).
    ///
    /// Callers that score one user against many objects should compute
    /// `n_u` once; that is why it is a parameter rather than derived here.
    #[inline]
    pub fn sts(
        &self,
        obj_point: &Point,
        obj_weights: &[(TermId, f64)],
        user: &UserData,
        n_u: f64,
    ) -> f64 {
        let ss = self.spatial.ss_points(obj_point, &user.point);
        let ts = if n_u > 0.0 {
            WeightedDoc::dot_terms(obj_weights, &user.doc, |_, w| w) / n_u
        } else {
            0.0
        };
        self.alpha * ss + (1.0 - self.alpha) * ts
    }

    /// `STS` between the candidate object `ox` — placed at `loc` with
    /// keyword set `cand` evaluated at reference length `ref_len` — and a
    /// user.
    #[inline]
    pub fn sts_candidate(
        &self,
        loc: &Point,
        cand: &Document,
        ref_len: u64,
        user: &UserData,
    ) -> f64 {
        let ss = self.spatial.ss_points(loc, &user.point);
        let ts = self.text.candidate_ts(cand, &user.doc, ref_len);
        self.alpha * ss + (1.0 - self.alpha) * ts
    }

    /// Combines separately-computed spatial and textual components.
    #[inline]
    pub fn combine(&self, ss: f64, ts: f64) -> f64 {
        self.alpha * ss + (1.0 - self.alpha) * ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use text::WeightModel;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn setup() -> (ScoreContext, Vec<Document>) {
        let docs = vec![
            Document::from_terms([t(0), t(1)]),
            Document::from_terms([t(1)]),
        ];
        let text = TextScorer::build(WeightModel::KeywordOverlap, &docs);
        let spatial = SpatialContext::with_dmax(10.0);
        (ScoreContext::new(0.5, spatial, text), docs)
    }

    #[test]
    fn sts_mixes_components() {
        let (ctx, docs) = setup();
        let user = UserData {
            id: 0,
            point: Point::new(3.0, 4.0), // dist 5 from origin → SS = 0.5
            doc: Document::from_terms([t(0), t(1)]),
        };
        let n_u = ctx.text.normalizer(&user.doc);
        let w = ctx.text.weigh(&docs[0]);
        // TS = 2/2 = 1.0; STS = 0.5·0.5 + 0.5·1.0 = 0.75.
        let sts = ctx.sts(&Point::new(0.0, 0.0), &w.entries, &user, n_u);
        assert!((sts - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_purely_spatial() {
        let (ctx, docs) = setup();
        let ctx = ScoreContext::new(1.0, ctx.spatial, ctx.text);
        let user = UserData {
            id: 0,
            point: Point::new(0.0, 0.0),
            doc: Document::from_terms([t(0)]),
        };
        let n_u = ctx.text.normalizer(&user.doc);
        let w = ctx.text.weigh(&docs[1]); // no overlap with user
        let sts = ctx.sts(&Point::new(0.0, 0.0), &w.entries, &user, n_u);
        assert_eq!(sts, 1.0);
    }

    #[test]
    fn alpha_zero_is_purely_textual() {
        let (ctx, docs) = setup();
        let ctx = ScoreContext::new(0.0, ctx.spatial, ctx.text);
        let user = UserData {
            id: 0,
            point: Point::new(9.0, 0.0),
            doc: Document::from_terms([t(1)]),
        };
        let n_u = ctx.text.normalizer(&user.doc);
        let w = ctx.text.weigh(&docs[1]);
        assert_eq!(ctx.sts(&Point::new(0.0, 0.0), &w.entries, &user, n_u), 1.0);
    }

    #[test]
    fn zero_normalizer_yields_spatial_only() {
        let (ctx, docs) = setup();
        let user = UserData {
            id: 0,
            point: Point::new(0.0, 0.0),
            doc: Document::new(),
        };
        let w = ctx.text.weigh(&docs[0]);
        let sts = ctx.sts(&Point::new(0.0, 0.0), &w.entries, &user, 0.0);
        assert_eq!(sts, 0.5); // α·1 + (1−α)·0
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn invalid_alpha_panics() {
        let (ctx, _) = setup();
        ScoreContext::new(1.5, ctx.spatial, ctx.text);
    }

    #[test]
    fn candidate_sts_matches_manual() {
        let (ctx, _) = setup();
        let user = UserData {
            id: 0,
            point: Point::new(0.0, 0.0),
            doc: Document::from_terms([t(0), t(1)]),
        };
        let cand = Document::from_terms([t(0)]);
        // KO candidate weight = 1, N(u) = 2 → TS = 0.5; SS = 1.
        let sts = ctx.sts_candidate(&Point::new(0.0, 0.0), &cand, 2, &user);
        assert!((sts - 0.75).abs() < 1e-12);
    }
}

//! Candidate selection (§6): choosing the best ⟨location, keyword-set⟩.
//!
//! Once `RSk(u)` is known for every (relevant) user, the query reduces to
//! picking `ℓ ∈ L` and `W' ⊆ W, |W'| ≤ ws` maximizing the number of users
//! `u` with `STS(ox@ℓ, u) ≥ RSk(u)`. This module provides:
//!
//! * [`CandidateContext`] — shared query state: candidate term weights at
//!   the reference length, and one column per user-level quantity,
//! * the candidate bounds `UBL`/`LBL` of §6.1 (with Lemma 3's top-`ws`
//!   keyword upper bound),
//! * [`location`] — Algorithm 3 (best-first location processing),
//! * [`greedy`] — the (1−1/e) maximum-coverage approximation of §6.2.1,
//! * [`exact`] — Algorithm 4 with its pruning rules,
//! * [`baseline`] — the §4 exhaustive scan over every ⟨ℓ, combination⟩.
//!
//! # What is computed where
//!
//! The paper states §6 and §7 per candidate location; the code splits every
//! quantity by what it depends on. Whatever depends only on ⟨user, keyword,
//! `RSk`⟩ — `N(u)`, the candidate-term run `u.d ∩ (W ∪ ox.d)`, the text
//! half of `UBL(·, u)`, the optimistic text score of each `HW_{w,u}` —
//! lives in the query's one [`CandidateContext`] and is derived once, when
//! the user enters it: at construction for an in-memory user table, at
//! leaf materialization in the §7 pipeline. The per-location kernels
//! (`LUW_w` construction, the three keyword selectors, the BRSTkNN count)
//! take only `(lu, ss)` — indices into the context's user columns and the
//! location's spatial scores aligned with them — and never see a user
//! document or rebuild a context.

pub mod baseline;
pub mod exact;
pub mod greedy;
pub mod location;
#[cfg(test)]
pub(crate) mod reference;
pub mod topl;

use std::cell::{Ref, RefCell};
use std::collections::HashMap;

use geo::Point;
use text::{Document, TermId};

use crate::arena::{CcScratch, HwTable};
use crate::{QuerySpec, ScoreContext, UserData, UserGroup};

/// Shared state for one candidate-selection run.
#[derive(Debug)]
pub struct CandidateContext<'a> {
    /// Scoring context.
    pub ctx: &'a ScoreContext,
    /// The query.
    pub spec: &'a QuerySpec,
    /// The caller's user slice, which the reference paths (`ubl_user`,
    /// `sts_candidate`, `qualifies`, `brstknn`) read documents from. Empty
    /// in the §7 pipeline, whose users arrive one MIUR leaf at a time.
    pub users: &'a [UserData],
    /// `RSk(u)` per user (−∞ for users with fewer than `k` relevant
    /// objects).
    pub rsk: Vec<f64>,
    /// Per-user text normalizer `N(u)`.
    pub n_u: Vec<f64>,
    /// Candidate reference length (`|ox.d| + ws`).
    pub ref_len: u64,
    /// Candidate term weight `cw(t)` for every term of `W ∪ ox.d`.
    cand_w: HashMap<TermId, f64>,
    /// Per-user id and location (what the kernels need of a `UserData`
    /// besides its candidate terms).
    ids: Vec<u32>,
    points: Vec<Point>,
    /// Location-independent textual part of `UBL(·, u)` per user.
    ubl_ts: Vec<f64>,
    /// Per-user candidate terms `u.d ∩ (W ∪ ox.d)` with their weights,
    /// flattened; user `u` owns `ucand_flat[ucand_off[u]..ucand_off[u+1]]`.
    /// The query kernels sum these tiny ascending runs instead of merging
    /// full documents against the weight map.
    ucand_flat: Vec<(TermId, f64)>,
    ucand_off: Vec<u32>,
    /// Scratch for [`CandidateContext::top_ws_weight_sum`].
    ws_buf: RefCell<Vec<f64>>,
    /// Optimistic `TS` of `HW_{w,u}` per ⟨user, held keyword⟩; see
    /// [`CandidateContext::hw_table`].
    hw: RefCell<HwTable>,
}

impl<'a> CandidateContext<'a> {
    /// Precomputes candidate weights and user normalizers.
    pub fn new(
        ctx: &'a ScoreContext,
        spec: &'a QuerySpec,
        users: &'a [UserData],
        rsk: &[f64],
    ) -> Self {
        Self::new_reusing(ctx, spec, users, rsk, CcScratch::default())
    }

    /// [`CandidateContext::new`] backed by pooled buffers from a
    /// [`crate::QueryArena`]; hand them back with
    /// [`CandidateContext::into_scratch`] when done.
    pub(crate) fn new_reusing(
        ctx: &'a ScoreContext,
        spec: &'a QuerySpec,
        users: &'a [UserData],
        rsk: &[f64],
        scratch: CcScratch,
    ) -> Self {
        assert_eq!(users.len(), rsk.len(), "users and thresholds must align");
        let CcScratch {
            mut cand_w,
            mut ids,
            mut points,
            rsk: mut rsk_col,
            mut n_u,
            mut ubl_ts,
            mut ucand_flat,
            mut ucand_off,
            ws_buf,
            mut hw,
        } = scratch;
        let ref_len = spec.ref_len();
        cand_w.clear();
        for &t in spec.keywords.iter() {
            cand_w.insert(t, ctx.text.candidate_weight(t, ref_len));
        }
        for t in spec.ox_doc.terms() {
            cand_w.insert(t, ctx.text.candidate_weight(t, ref_len));
        }
        ids.clear();
        points.clear();
        rsk_col.clear();
        n_u.clear();
        ubl_ts.clear();
        ucand_flat.clear();
        ucand_off.clear();
        ucand_off.push(0);
        {
            let hw = hw.get_mut();
            hw.off.clear();
            hw.off.push(0);
            hw.rows.clear();
        }
        let mut cc = CandidateContext {
            ctx,
            spec,
            users,
            rsk: rsk_col,
            n_u,
            ref_len,
            cand_w,
            ids,
            points,
            ubl_ts,
            ucand_flat,
            ucand_off,
            ws_buf,
            hw,
        };
        for (user, &r) in users.iter().zip(rsk) {
            cc.push_user(user, ctx.text.normalizer(&user.doc), r);
        }
        cc
    }

    /// Appends one user — its threshold, normalizer, candidate-term run and
    /// `UBL` text — and returns its index. This is the only place per-user
    /// state is derived: the constructor calls it for every user of its
    /// slice, the §7 pipeline once per materialized MIUR leaf entry.
    pub(crate) fn push_user(&mut self, user: &UserData, n_u: f64, rsk: f64) -> usize {
        self.ids.push(user.id);
        self.points.push(user.point);
        self.rsk.push(rsk);
        self.n_u.push(n_u);
        for t in user.doc.terms() {
            if let Some(&w) = self.cand_w.get(&t) {
                self.ucand_flat.push((t, w));
            }
        }
        self.ucand_off.push(self.ucand_flat.len() as u32);
        self.ubl_ts.push(self.ubl_ts_doc(&user.doc, n_u));
        self.n_u.len() - 1
    }

    /// Users held (the slice's, plus every [`CandidateContext::push_user`]).
    #[inline]
    pub(crate) fn num_users(&self) -> usize {
        self.n_u.len()
    }

    /// Returns the pooled buffers to the arena.
    pub(crate) fn into_scratch(self) -> CcScratch {
        CcScratch {
            cand_w: self.cand_w,
            ids: self.ids,
            points: self.points,
            rsk: self.rsk,
            n_u: self.n_u,
            ubl_ts: self.ubl_ts,
            ucand_flat: self.ucand_flat,
            ucand_off: self.ucand_off,
            ws_buf: self.ws_buf,
            hw: self.hw,
        }
    }

    /// Candidate weight of `t` (0 for terms outside `W ∪ ox.d`).
    #[inline]
    pub fn cw(&self, t: TermId) -> f64 {
        self.cand_w.get(&t).copied().unwrap_or(0.0)
    }

    /// True when user `u` could ever find `ox` relevant: `u.d` shares a
    /// term with `ox.d ∪ W` (the paper's relevance precondition) — i.e.
    /// the user's precomputed candidate-term list is non-empty.
    #[inline]
    pub fn user_reachable(&self, u: usize) -> bool {
        self.ucand_off[u] != self.ucand_off[u + 1]
    }

    /// Sum of the `ws` largest candidate weights among `terms` (Lemma 3's
    /// `Wh` / `Wu` construction).
    pub fn top_ws_weight_sum(&self, terms: impl Iterator<Item = TermId>) -> f64 {
        let mut buf = self.ws_buf.borrow_mut();
        buf.clear();
        buf.extend(terms.map(|t| self.cw(t)).filter(|&w| w > 0.0));
        buf.sort_unstable_by(|a, b| b.total_cmp(a));
        buf.truncate(self.spec.ws);
        buf.iter().sum()
    }

    /// The location-independent textual part of `UBL(·, g)`.
    pub(crate) fn ubl_group_ts(&self, group: &UserGroup) -> f64 {
        // Existing text: terms of ox.d visible to some user in the group.
        let fixed: f64 = self
            .spec
            .ox_doc
            .terms()
            .filter(|&t| group.d_uni.contains(t))
            .map(|t| self.cw(t))
            .sum();
        // Lemma 3: at best the ws highest-weight candidates from W∩dUni.
        let added = self.top_ws_weight_sum(
            self.spec
                .keywords
                .iter()
                .copied()
                .filter(|&t| group.d_uni.contains(t) && !self.spec.ox_doc.contains(t)),
        );
        group.ts_upper(fixed + added)
    }

    /// `UBL(ℓ, g)` (§6.1): upper bound on `STS(ox@ℓ, u)` over every user in
    /// `g` and every admissible keyword choice.
    pub fn ubl_group(&self, loc: &Point, group: &UserGroup) -> f64 {
        let ss = self.ctx.spatial.min_ss_point(loc, &group.mbr);
        self.ctx.combine(ss, self.ubl_group_ts(group))
    }

    /// The location-independent textual part of `UBL(·, u)` for a user
    /// document.
    fn ubl_ts_doc(&self, doc: &Document, n_u: f64) -> f64 {
        let fixed: f64 = self
            .spec
            .ox_doc
            .terms()
            .filter(|&t| doc.contains(t))
            .map(|t| self.cw(t))
            .sum();
        let added = self.top_ws_weight_sum(
            self.spec
                .keywords
                .iter()
                .copied()
                .filter(|&t| doc.contains(t) && !self.spec.ox_doc.contains(t)),
        );
        if n_u > 0.0 {
            ((fixed + added) / n_u).min(1.0)
        } else {
            0.0
        }
    }

    /// `UBL(ℓ, u)` (§6.1): per-user upper bound (textual part cached).
    pub fn ubl_user(&self, loc: &Point, u: usize) -> f64 {
        let ss = self.ctx.spatial.ss_points(loc, &self.users[u].point);
        self.ctx.combine(ss, self.ubl_ts[u])
    }

    /// The location-independent textual part of `LBL(·, g)`.
    pub(crate) fn lbl_group_ts(&self, group: &UserGroup) -> f64 {
        let fixed: f64 = self
            .spec
            .ox_doc
            .terms()
            .filter(|&t| group.d_int.contains(t))
            .map(|t| self.cw(t))
            .sum();
        group.ts_lower(fixed)
    }

    /// `LBL(ℓ, g)` (§6.1): guaranteed score for every user in `g` with the
    /// *original* text `ox.d` only.
    pub fn lbl_group(&self, loc: &Point, group: &UserGroup) -> f64 {
        let ss = self.ctx.spatial.max_ss_point(loc, &group.mbr);
        self.ctx.combine(ss, self.lbl_group_ts(group))
    }

    /// `LBL(ℓ, u)`: the user's exact score with the original `ox.d` —
    /// a lower bound for any keyword addition (monotone candidate weights).
    pub fn lbl_user(&self, loc: &Point, u: usize) -> f64 {
        self.sts_candidate(loc, &self.spec.ox_doc, u)
    }

    /// Exact `STS` of `ox` placed at `loc` with text `cand`, for user `u`,
    /// at the candidate reference length.
    pub fn sts_candidate(&self, loc: &Point, cand: &Document, u: usize) -> f64 {
        let (user, n_u) = (&self.users[u], self.n_u[u]);
        let ss = self.ctx.spatial.ss_points(loc, &user.point);
        let ts = if n_u > 0.0 {
            let sum: f64 = user
                .doc
                .terms()
                .filter(|&t| cand.contains(t))
                .map(|t| self.cw(t))
                .sum();
            (sum / n_u).min(1.0)
        } else {
            0.0
        };
        self.ctx.combine(ss, ts)
    }

    /// True when user `u` is a BRSTkNN of `⟨loc, cand⟩`: textual overlap
    /// plus `STS ≥ RSk(u)`.
    pub fn qualifies(&self, loc: &Point, cand: &Document, u: usize) -> bool {
        self.users[u].doc.overlaps(cand) && self.sts_candidate(loc, cand, u) >= self.rsk[u]
    }

    /// The BRSTkNN user set of `⟨loc, cand⟩` restricted to `candidates`
    /// (user indices).
    pub fn brstknn(&self, loc: &Point, cand: &Document, candidates: &[usize]) -> Vec<u32> {
        candidates
            .iter()
            .copied()
            .filter(|&u| self.qualifies(loc, cand, u))
            .map(|u| self.users[u].id)
            .collect()
    }

    /// The query text with extra keywords: `ox.d ∪ extra`.
    pub fn with_keywords(&self, extra: &[TermId]) -> Document {
        self.spec.ox_doc.with_terms(extra.iter().copied())
    }

    // ---- allocation-free fast paths -------------------------------------
    //
    // The kernels below are the steady-state inner loops. They are exact
    // twins of the public methods above, restricted to candidate documents
    // `cand ⊆ ox.d ∪ W` (every internal selection kernel builds them that
    // way), with the spatial score hoisted out by the caller and the
    // per-user term merge replaced by the precomputed `ucand` runs. The
    // public slow paths stay as the reference implementations the
    // brute-force tests compare against.

    /// User `u`'s candidate terms `u.d ∩ (W ∪ ox.d)` with weights,
    /// ascending by term.
    #[inline]
    pub(crate) fn ucand(&self, u: usize) -> &[(TermId, f64)] {
        &self.ucand_flat[self.ucand_off[u] as usize..self.ucand_off[u + 1] as usize]
    }

    /// Spatial score of `loc` for user `u`.
    #[inline]
    pub(crate) fn ss_at(&self, loc: &Point, u: usize) -> f64 {
        self.ctx.spatial.ss_points(loc, &self.points[u])
    }

    /// `UBL(ℓ, u)` with the spatial part precomputed.
    #[inline]
    pub(crate) fn ubl_user_with_ss(&self, ss: f64, u: usize) -> f64 {
        self.ctx.combine(ss, self.ubl_ts[u])
    }

    /// `UBL(ℓ, g)` with the textual part precomputed (hoisted across the
    /// location loop by the selection kernels).
    #[inline]
    pub(crate) fn ubl_group_with_ts(&self, loc: &Point, group: &UserGroup, ts: f64) -> f64 {
        let ss = self.ctx.spatial.min_ss_point(loc, &group.mbr);
        self.ctx.combine(ss, ts)
    }

    /// `LBL(ℓ, g)` with the textual part precomputed.
    #[inline]
    pub(crate) fn lbl_group_with_ts(&self, loc: &Point, group: &UserGroup, ts: f64) -> f64 {
        let ss = self.ctx.spatial.max_ss_point(loc, &group.mbr);
        self.ctx.combine(ss, ts)
    }

    /// True when user `u` holds `t ∈ W ∪ ox.d`.
    #[inline]
    pub(crate) fn holds(&self, u: usize, t: TermId) -> bool {
        self.ucand(u).iter().any(|&(h, _)| h == t)
    }

    /// True when `u.d` shares a term with `ox.d`.
    #[inline]
    pub(crate) fn overlaps_ox(&self, u: usize) -> bool {
        self.ucand(u)
            .iter()
            .any(|&(t, _)| self.spec.ox_doc.contains(t))
    }

    /// The textual half of [`CandidateContext::sts_with_ss`].
    #[inline]
    fn ts_cand(&self, cand: &Document, u: usize) -> f64 {
        let n_u = self.n_u[u];
        if n_u > 0.0 {
            let sum: f64 = self
                .ucand(u)
                .iter()
                .filter(|&&(t, _)| cand.contains(t))
                .map(|&(_, w)| w)
                .sum();
            (sum / n_u).min(1.0)
        } else {
            0.0
        }
    }

    /// [`CandidateContext::sts_candidate`] with the spatial part
    /// precomputed, for `cand ⊆ ox.d ∪ W`.
    #[inline]
    pub(crate) fn sts_with_ss(&self, ss: f64, cand: &Document, u: usize) -> f64 {
        self.ctx.combine(ss, self.ts_cand(cand, u))
    }

    /// The §6.2.1 preprocessing, minus the location: for every user `u`
    /// and every candidate keyword `w ∈ W ∩ u.d` (by position in `W`), the
    /// text score `u` gives the optimistic advertisement `ox.d ∪ HW_{w,u}`
    /// — `w` plus the `ws−1` heaviest other candidates `u` holds. Neither
    /// the `(weight desc, position asc)` order of a user's held keywords
    /// nor that score depends on `ℓ`, so `LUW_w` at a location is one
    /// `combine(ss, ts) ≥ RSk(u)` per row (see
    /// [`greedy::build_luw_into`]).
    ///
    /// Rows are filled on demand, in user order, for the users appended
    /// since the last call — a query whose locations all take the `LBL`
    /// shortcut, or that selects keywords exactly, never pays for them.
    pub(crate) fn hw_table(&self) -> Ref<'_, HwTable> {
        if self.hw.borrow().off.len() <= self.num_users() {
            let mut table = self.hw.borrow_mut();
            let HwTable {
                off,
                rows,
                others,
                set,
                hcand,
            } = &mut *table;
            let cap = self.spec.ws.saturating_sub(1);
            for u in off.len() - 1..self.num_users() {
                others.clear();
                for &(t, cw) in self.ucand(u) {
                    for (j, &w) in self.spec.keywords.iter().enumerate() {
                        if w == t {
                            others.push((cw, j as u32, t));
                        }
                    }
                }
                // One sort per user: every held keyword's HW set is a
                // prefix of this order. (The reference construction loops
                // keywords-outer and re-sorts per holder; same key, same
                // members.)
                others.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                for &(_, j, w) in others.iter() {
                    set.clear();
                    for &(_, _, t) in others.iter() {
                        if set.len() == cap {
                            break;
                        }
                        if t != w {
                            set.push(t);
                        }
                    }
                    set.push(w);
                    hcand.assign_with_terms(&self.spec.ox_doc, set);
                    rows.push((j, self.ts_cand(hcand, u)));
                }
                off.push(rows.len() as u32);
            }
        }
        self.hw.borrow()
    }

    /// [`CandidateContext::qualifies`] with the spatial part precomputed,
    /// for `cand ⊆ ox.d ∪ W`. Overlap and weight sum come from one pass
    /// over the user's candidate-term run.
    #[inline]
    pub(crate) fn qualifies_with_ss(&self, ss: f64, cand: &Document, u: usize) -> bool {
        let mut any = false;
        let mut sum = 0.0;
        for &(t, w) in self.ucand(u) {
            if cand.contains(t) {
                any = true;
                sum += w;
            }
        }
        if !any {
            return false;
        }
        let n_u = self.n_u[u];
        let ts = if n_u > 0.0 { (sum / n_u).min(1.0) } else { 0.0 };
        self.ctx.combine(ss, ts) >= self.rsk[u]
    }

    /// Fills `out` with the spatial scores of `loc` for `candidates`.
    pub(crate) fn fill_ss(&self, loc: &Point, candidates: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(candidates.iter().map(|&u| self.ss_at(loc, u)));
    }

    /// [`CandidateContext::brstknn`] into a reusable buffer; `ss` holds the
    /// spatial scores aligned with `candidates`.
    pub(crate) fn brstknn_into(
        &self,
        cand: &Document,
        candidates: &[usize],
        ss: &[f64],
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for (i, &u) in candidates.iter().enumerate() {
            if self.qualifies_with_ss(ss[i], cand, u) {
                out.push(self.ids[u]);
            }
        }
    }

    /// BRSTkNN cardinality without materializing the user ids.
    #[cfg(test)]
    pub(crate) fn brstknn_count(&self, cand: &Document, candidates: &[usize], ss: &[f64]) -> usize {
        candidates
            .iter()
            .enumerate()
            .filter(|&(i, &u)| self.qualifies_with_ss(ss[i], cand, u))
            .count()
    }
}

/// Inverted ⟨keyword → holder positions⟩ index for the combination scans
/// (the §4 baseline, Algorithm 4, and the realized-gain greedy).
///
/// Scoring a candidate `ox.d ∪ C` differs from scoring `ox.d` alone only
/// for the users holding a term of `C \ ox.d` — everyone else filters the
/// exact same terms out of their candidate run and therefore computes the
/// *bit-identical* score. The scans exploit that: precompute the `ox.d`
/// verdict per user once per location, then per combination re-evaluate
/// just the holders of its keywords (gathered from these rows), instead of
/// every user. With `|W| = 20`, `ws = 3` and a handful of terms per user
/// that turns `C(20,3) · |U|` scoring calls into `C(20,3) · ~|touched|`.
#[derive(Debug, Default)]
pub(crate) struct DeltaScan {
    /// Holder-position rows, parallel to the `terms` column of the last
    /// [`DeltaScan::build`] (pooled; rows past `terms.len()` are stale).
    inv: Vec<Vec<u32>>,
    /// Positions gathered for the current combination.
    touched: Vec<u32>,
    /// Epoch stamps deduplicating positions across a combination's rows.
    stamp: Vec<u32>,
    epoch: u32,
    /// Per-position verdict with `ox.d` alone (filled by callers that
    /// count by delta against it).
    pub(crate) q0: Vec<bool>,
}

impl DeltaScan {
    /// Rebuilds the holder rows: `inv[j]` lists the positions `p` (into
    /// `lu` and its aligned `ss` column) whose user holds `terms[j]`,
    /// restricted to `positions`. Terms of `ox.d` get empty rows — adding
    /// them to a candidate never changes a score, because they already
    /// count through `ox.d` itself.
    pub(crate) fn build(
        &mut self,
        cc: &CandidateContext<'_>,
        terms: &[TermId],
        lu: &[usize],
        positions: impl IntoIterator<Item = usize>,
    ) {
        while self.inv.len() < terms.len() {
            self.inv.push(Vec::new());
        }
        for row in &mut self.inv[..terms.len()] {
            row.clear();
        }
        self.stamp.clear();
        self.stamp.resize(lu.len(), 0);
        self.epoch = 0;
        for pos in positions {
            for &(t, _) in cc.ucand(lu[pos]) {
                if cc.spec.ox_doc.contains(t) {
                    continue;
                }
                // Duplicate terms each get the holder — combinations
                // address terms by position, not value.
                for (j, &w) in terms.iter().enumerate() {
                    if w == t {
                        self.inv[j].push(pos as u32);
                    }
                }
            }
        }
    }

    /// Upper bound on how many positions a combination can touch (summed
    /// row lengths, before deduplication) — the pre-gather skip test.
    pub(crate) fn potential(&self, combo: impl IntoIterator<Item = usize>) -> usize {
        combo.into_iter().map(|j| self.inv[j].len()).sum()
    }

    /// Holder row of a single term position.
    pub(crate) fn row(&self, j: usize) -> &[u32] {
        &self.inv[j]
    }

    /// Collects the deduplicated positions holding any of the
    /// combination's terms; returns the count, positions via
    /// [`DeltaScan::touched`].
    pub(crate) fn gather(&mut self, combo: impl IntoIterator<Item = usize>) -> usize {
        self.epoch += 1;
        let e = self.epoch;
        self.touched.clear();
        for j in combo {
            for &p in &self.inv[j] {
                if self.stamp[p as usize] != e {
                    self.stamp[p as usize] = e;
                    self.touched.push(p);
                }
            }
        }
        self.touched.len()
    }

    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }
}

#[cfg(test)]
pub(crate) mod test_fixture {
    use super::*;
    use geo::{Rect, SpatialContext};
    use text::{TextScorer, WeightModel};

    pub(crate) fn t(i: u32) -> TermId {
        TermId(i)
    }

    pub(crate) struct Fix {
        pub ctx: ScoreContext,
        pub users: Vec<UserData>,
        pub spec: QuerySpec,
        pub rsk: Vec<f64>,
    }

    /// Deterministic pseudo-random instances for the differential tests
    /// of the combination scans — bigger and messier than [`fixture`]:
    /// LM weights, duplicate-prone keyword pools, users holding 1–4
    /// terms, some users unreachable.
    pub(crate) fn random_fixture(seed: u64, n_users: usize, n_kws: usize) -> Fix {
        random_fixture_with(WeightModel::lm(), seed, n_users, n_kws)
    }

    fn random_fixture_with(model: WeightModel, seed: u64, n_users: usize, n_kws: usize) -> Fix {
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        const VOCAB: u64 = 25;
        let docs: Vec<Document> = (0..40)
            .map(|_| {
                let n = 1 + next(4);
                Document::from_terms((0..n).map(|_| t(next(VOCAB) as u32)))
            })
            .collect();
        let text = TextScorer::from_docs(model, &docs);
        let users: Vec<UserData> = (0..n_users)
            .map(|i| {
                let n = 1 + next(4);
                UserData {
                    id: i as u32,
                    point: Point::new(next(1000) as f64 / 100.0, next(1000) as f64 / 100.0),
                    doc: Document::from_terms((0..n).map(|_| t(next(VOCAB) as u32))),
                }
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let spec = QuerySpec {
            ox_doc: Document::from_terms([t(next(VOCAB) as u32), t(next(VOCAB) as u32)]),
            locations: (0..4)
                .map(|_| Point::new(next(1000) as f64 / 100.0, next(1000) as f64 / 100.0))
                .collect(),
            keywords: (0..n_kws).map(|_| t(next(VOCAB) as u32)).collect(),
            ws: 3,
            k: 2,
        };
        let rsk = (0..n_users)
            .map(|_| 0.3 + next(60) as f64 / 100.0)
            .collect();
        Fix {
            ctx,
            users,
            spec,
            rsk,
        }
    }

    /// [`random_fixture`] with keyword budget `ws`, bent to hit the corners
    /// of the `LUW` construction: a duplicated candidate keyword, a
    /// candidate keyword already in `ox.d`, a candidate keyword no corpus
    /// document holds (under TF-IDF — odd seeds — its sole holders have
    /// `N(u) = 0`), and users sharing nothing with `W ∪ ox.d`.
    pub(crate) fn edge_fixture(seed: u64, ws: usize) -> Fix {
        let model = if seed % 2 == 1 {
            WeightModel::TfIdf
        } else {
            WeightModel::lm()
        };
        let mut f = random_fixture_with(model, seed, 45, 8);
        f.spec.ws = ws;
        let off_corpus = t(40);
        let dup = f.spec.keywords[0];
        let in_ox = f.spec.ox_doc.terms().next().expect("ox.d is non-empty");
        f.spec.keywords.extend([dup, in_ox, off_corpus]);
        let at = f.spec.locations[0];
        for (doc, rsk) in [
            (Document::from_terms([off_corpus]), 0.2),
            (Document::from_terms([off_corpus]), 0.9),
            (Document::from_terms([off_corpus, dup]), 0.4),
            (Document::from_terms([t(41)]), f64::NEG_INFINITY),
            (Document::from_terms([t(41), t(42)]), 0.1),
        ] {
            f.users.push(UserData {
                id: f.users.len() as u32,
                point: at,
                doc,
            });
            f.rsk.push(rsk);
        }
        f
    }

    /// A small, fully-deterministic selection scenario used across the
    /// select tests: 6 users on a line, KO relevance, candidate keywords
    /// t0..t3, ox.d = {t4} shared by everyone.
    pub(crate) fn fixture() -> Fix {
        let docs: Vec<Document> = (0..10)
            .map(|i| Document::from_terms([t(i % 4), t(4)]))
            .collect();
        let text = TextScorer::from_docs(WeightModel::KeywordOverlap, &docs);
        let users: Vec<UserData> = (0..6)
            .map(|i| UserData {
                id: i,
                point: Point::new(i as f64, 1.0),
                doc: Document::from_terms([t(i % 4), t(4)]),
            })
            .collect();
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let spec = QuerySpec {
            ox_doc: Document::from_terms([t(4)]),
            locations: vec![Point::new(2.0, 1.0), Point::new(8.0, 8.0)],
            keywords: vec![t(0), t(1), t(2), t(3)],
            ws: 2,
            k: 2,
        };
        let rsk = vec![0.6; 6];
        Fix {
            ctx,
            users,
            spec,
            rsk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixture::{fixture, t};
    use super::*;

    #[test]
    fn ubl_user_dominates_every_keyword_choice() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let loc = f.spec.locations[0];
        let kws = &f.spec.keywords;
        for u in 0..f.users.len() {
            let ub = cc.ubl_user(&loc, u);
            for i in 0..kws.len() {
                for j in (i + 1)..kws.len() {
                    let cand = cc.with_keywords(&[kws[i], kws[j]]);
                    let s = cc.sts_candidate(&loc, &cand, u);
                    assert!(s <= ub + 1e-9, "user {u}: {s} > UBL {ub}");
                }
            }
        }
    }

    #[test]
    fn ubl_group_dominates_ubl_user() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let group = UserGroup::from_users(&f.users, &f.ctx.text);
        for loc in &f.spec.locations {
            let g = cc.ubl_group(loc, &group);
            for u in 0..f.users.len() {
                assert!(cc.ubl_user(loc, u) <= g + 1e-9);
            }
        }
    }

    #[test]
    fn lbl_user_is_a_lower_bound() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let loc = f.spec.locations[0];
        for u in 0..f.users.len() {
            let lb = cc.lbl_user(&loc, u);
            for &kw in &f.spec.keywords {
                let cand = cc.with_keywords(&[kw]);
                assert!(cc.sts_candidate(&loc, &cand, u) >= lb - 1e-9);
            }
        }
    }

    #[test]
    fn lbl_group_lower_bounds_every_user() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let group = UserGroup::from_users(&f.users, &f.ctx.text);
        for loc in &f.spec.locations {
            let g = cc.lbl_group(loc, &group);
            for u in 0..f.users.len() {
                assert!(cc.lbl_user(loc, u) >= g - 1e-9);
            }
        }
    }

    #[test]
    fn qualifies_requires_overlap() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let cand = Document::from_terms([t(99)]);
        let loc = f.users[0].point;
        assert!(!cc.qualifies(&loc, &cand, 0));
    }

    #[test]
    fn reachability() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        for u in 0..f.users.len() {
            assert!(cc.user_reachable(u)); // everyone shares t4 with ox.d
        }
    }

    /// The allocation-free kernels must be bit-identical to the public
    /// reference paths for every candidate document `⊆ ox.d ∪ W`.
    #[test]
    fn fast_kernels_match_reference_paths() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let kws = &f.spec.keywords;
        let mut cands = vec![cc.with_keywords(&[])];
        for i in 0..kws.len() {
            cands.push(cc.with_keywords(&[kws[i]]));
            for j in (i + 1)..kws.len() {
                cands.push(cc.with_keywords(&[kws[i], kws[j]]));
            }
        }
        for loc in &f.spec.locations {
            for u in 0..f.users.len() {
                let ss = cc.ss_at(loc, u);
                assert_eq!(
                    cc.ubl_user_with_ss(ss, u).to_bits(),
                    cc.ubl_user(loc, u).to_bits()
                );
                for cand in &cands {
                    assert_eq!(
                        cc.sts_with_ss(ss, cand, u).to_bits(),
                        cc.sts_candidate(loc, cand, u).to_bits()
                    );
                    assert_eq!(
                        cc.qualifies_with_ss(ss, cand, u),
                        cc.qualifies(loc, cand, u)
                    );
                }
            }
            let all: Vec<usize> = (0..f.users.len()).collect();
            let mut ss = Vec::new();
            cc.fill_ss(loc, &all, &mut ss);
            for cand in &cands {
                let mut got = Vec::new();
                cc.brstknn_into(cand, &all, &ss, &mut got);
                assert_eq!(got, cc.brstknn(loc, cand, &all));
                assert_eq!(cc.brstknn_count(cand, &all, &ss), got.len());
            }
        }
    }

    #[test]
    fn top_ws_sum_takes_largest() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        // KO: every candidate weight is 1, ws=2 → sum 2.
        let sum = cc.top_ws_weight_sum(f.spec.keywords.iter().copied());
        assert!((sum - 2.0).abs() < 1e-12);
    }
}

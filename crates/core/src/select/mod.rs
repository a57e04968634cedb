//! Candidate selection (§6): choosing the best ⟨location, keyword-set⟩.
//!
//! Once `RSk(u)` is known for every (relevant) user, the query reduces to
//! picking `ℓ ∈ L` and `W' ⊆ W, |W'| ≤ ws` maximizing the number of users
//! `u` with `STS(ox@ℓ, u) ≥ RSk(u)`. This module provides:
//!
//! * [`CandidateContext`] — shared query state: the candidate terms as
//!   slots with their weights at the reference length, and one column per
//!   user-level quantity,
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
//!
//! Most of that outlives the query. The *text half* — the slot view below,
//! each user's id, point, `N(u)`, candidate run and `UBL` text, and the
//! `HW` rows — depends only on the engine state and the query's `W`,
//! `ox.d` and `ws`. A context built on a
//! [`crate::QueryArena`] keeps the half the arena holds when that key
//! matches (`arena::TextKey`), and derives per query only the *location
//! half*: the MBR of the locations, each user's spatial band and its
//! `RSk`. The constructor first settles every user's text columns (a
//! user's text is derived only when the kept half does not hold it at
//! that index; users are named by id, unique in an engine), then fills the
//! bands in one pass over the users' points. `push_user`, the §7
//! pipeline's way in, takes the same two steps for one user, so the
//! pipeline, which pushes users in an expansion order that moves with the
//! locations, keeps the prefix that did not move.
//!
//! Inside the kernels a keyword is a small integer. The context's *slot
//! view* numbers the distinct terms of `W ∪ ox.d` in ascending term order
//! and keeps per slot the candidate weight and the multiplicity in `W`;
//! every entry of a user's run carries its slot, and every position of `W`
//! maps to one. A candidate document `ox.d ∪ W'` is then a *slot set*, a
//! bitset of ⌈slots / 64⌉ words, and testing a user is one pass over the
//! run with a bit test per term. Ascending slots are ascending terms, so
//! the pass adds weights in exactly the order a merge of the documents
//! would, and every score is bit-identical to the `Document` reference
//! paths. Per location, `LUW_w` is a bitset over positions in `lu` (the
//! greedy cover's gain is a popcount of `member & !covered`), and the
//! BRSTkNN count is one such pass per `lu` user.
//!
//! A user's spatial score moves too, but only within its *spatial band*
//! `[lo_u, hi_u]`: `MaxSS` and `MinSS` of the user's point against the MBR
//! of the query's candidate locations (the dual of §6.1's group bounds,
//! which bound a user MBR against one location), a column beside the
//! user's others. Every per-location test is
//! `combine(ss, ts) ≥ RSk(u)`, monotone in `ss` in floating point as well
//! (`geo`'s `point_rect_ss_bounds_bracket_every_location_exactly`), so
//! `band_verdict` decides it for every location at once when it passes at
//! `lo_u` or fails at `hi_u`. Algorithm 3 computes `ss` only for the `UBL`
//! tests the band leaves open, and a location whose `LU` set and `LUW`
//! rows are all decided reuses an earlier location's greedy keywords and
//! scores only its undecided users (see [`location`]).

pub mod baseline;
pub mod exact;
pub mod greedy;
pub mod location;
#[cfg(test)]
pub(crate) mod reference;

use std::cell::Ref;

use geo::{Point, Rect};
use text::{Document, TermId};

use crate::arena::{CcScratch, HwTable};
use crate::{QuerySpec, ScoreContext, UserData, UserGroup};

/// True when bit `i` of the bitset `bits` is set.
#[inline]
pub(crate) fn bit(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 != 0
}

/// Sets bit `i` of the bitset `bits`.
#[inline]
pub(crate) fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

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
    /// Candidate reference length (`|ox.d| + ws`).
    pub ref_len: u64,
    /// Whether this context has derived none of its text half: it kept
    /// the half of the previous context built on the same scratch, and
    /// every user pushed so far found its columns there.
    reused: bool,
    /// The MBR of the candidate locations (`None` without any).
    loc_mbr: Option<Rect>,
    /// The slot view and the per-user columns (see [`CcScratch`]).
    pub(crate) cols: CcScratch,
}

impl<'a> CandidateContext<'a> {
    /// Precomputes candidate weights and user normalizers.
    pub fn new(
        ctx: &'a ScoreContext,
        spec: &'a QuerySpec,
        users: &'a [UserData],
        rsk: &[f64],
    ) -> Self {
        Self::new_reusing(ctx, spec, users, rsk, CcScratch::default(), None)
    }

    /// [`CandidateContext::new`] backed by pooled buffers from a
    /// [`crate::QueryArena`]; hand them back with
    /// [`CandidateContext::into_scratch`] when done.
    ///
    /// `engine` names the engine state `ctx` and the users come from
    /// ([`crate::Engine::state_id`]). When it, `W`, `ox.d` and `ws` are
    /// what the scratch's text half was derived for, that half is kept and
    /// only the location half is rebuilt (see [`CcScratch`]); `None` keeps
    /// nothing.
    pub(crate) fn new_reusing(
        ctx: &'a ScoreContext,
        spec: &'a QuerySpec,
        users: &'a [UserData],
        rsk: &[f64],
        mut cols: CcScratch,
        engine: Option<(u64, u64)>,
    ) -> Self {
        assert_eq!(users.len(), rsk.len(), "users and thresholds must align");
        let ref_len = spec.ref_len();
        let reused = cols.key.matches(engine, spec);
        if !reused {
            let CcScratch {
                key,
                slot_terms,
                slot_w,
                slot_kw_off,
                slot_kw,
                kw_slots,
                ox_bits,
                ids,
                points,
                n_u,
                ubl_ts,
                ucand_flat,
                ucand_off,
                hw,
                ..
            } = &mut cols;
            key.set(engine, spec);
            slot_terms.clear();
            slot_terms.extend(spec.keywords.iter().copied().chain(spec.ox_doc.terms()));
            slot_terms.sort_unstable();
            slot_terms.dedup();
            slot_w.clear();
            slot_w.extend(
                slot_terms
                    .iter()
                    .map(|&t| ctx.text.candidate_weight(t, ref_len)),
            );
            kw_slots.clear();
            kw_slots.extend(
                spec.keywords
                    .iter()
                    .map(|t| slot_terms.binary_search(t).expect("W is in the slot view")),
            );
            // W's positions grouped by slot, ascending within a slot.
            slot_kw.clear();
            slot_kw.extend(0..kw_slots.len() as u32);
            slot_kw.sort_unstable_by_key(|&j| (kw_slots[j as usize], j));
            slot_kw_off.clear();
            slot_kw_off.resize(slot_terms.len() + 1, 0);
            for &s in kw_slots.iter() {
                slot_kw_off[s + 1] += 1;
            }
            for s in 0..slot_terms.len() {
                slot_kw_off[s + 1] += slot_kw_off[s];
            }
            ox_bits.clear();
            ox_bits.resize(slot_terms.len().div_ceil(64), 0);
            for t in spec.ox_doc.terms() {
                let s = slot_terms
                    .binary_search(&t)
                    .expect("ox.d is in the slot view");
                set_bit(ox_bits, s);
            }
            ids.clear();
            points.clear();
            n_u.clear();
            ubl_ts.clear();
            ucand_flat.clear();
            ucand_off.clear();
            ucand_off.push(0);
            let hw = hw.get_mut();
            hw.off.clear();
            hw.off.push(0);
            hw.rows.clear();
        }
        cols.band_lo.clear();
        cols.band_hi.clear();
        cols.rsk.clear();
        let mut cc = CandidateContext {
            ctx,
            spec,
            users,
            ref_len,
            reused,
            loc_mbr: Rect::bounding(spec.locations.iter().copied()),
            cols,
        };
        // The text columns first, kept or rebuilt per user; then the
        // location half in one pass over them.
        for (u, user) in users.iter().enumerate() {
            cc.settle_text(u, user, || ctx.text.normalizer(&user.doc));
        }
        cc.push_bands(users.len());
        cc.cols.rsk.extend_from_slice(rsk);
        cc
    }

    /// True when this context has derived no text: it kept the text half
    /// of the previous context built on its scratch (see
    /// [`CandidateContext::new_reusing`]), and no
    /// [`CandidateContext::push_user`] has had to run its text part.
    #[inline]
    pub(crate) fn text_reused(&self) -> bool {
        self.reused
    }

    /// Appends one user — its threshold and spatial band, over its text
    /// columns — and returns its index: the §7 pipeline's way in, once
    /// per materialized MIUR leaf entry. It derives what the constructor
    /// derives for each user of its slice, through the same two steps.
    pub(crate) fn push_user(
        &mut self,
        user: &UserData,
        n_u: impl FnOnce() -> f64,
        rsk: f64,
    ) -> usize {
        let u = self.cols.rsk.len();
        self.settle_text(u, user, n_u);
        self.push_bands(u + 1);
        self.cols.rsk.push(rsk);
        u
    }

    /// Makes `user` the text columns' user at index `u`. The text part
    /// ([`CandidateContext::push_text`], which asks `n_u` for the user's
    /// normalizer) runs only when the kept text half holds another user,
    /// or none, at this index. From that index on the kept columns are
    /// dropped: an index names one user in each of them. The test compares
    /// user ids, which [`crate::Engine`] keeps unique.
    fn settle_text(&mut self, u: usize, user: &UserData, n_u: impl FnOnce() -> f64) {
        if self.cols.ids.get(u) != Some(&user.id) {
            self.reused = false;
            self.truncate_text(u);
            self.push_text(user, n_u());
        }
    }

    /// Appends the spatial bands of the users from the first without one
    /// up to `end`, whose text columns are settled, in one pass over their
    /// points: `MaxSS` and `MinSS` against the locations' MBR, or `[0, 1]`
    /// without locations.
    fn push_bands(&mut self, end: usize) {
        let c = &mut self.cols;
        let start = c.band_lo.len();
        c.band_lo.resize(end, 0.0);
        c.band_hi.resize(end, 1.0);
        let Some(r) = self.loc_mbr else { return };
        let spatial = &self.ctx.spatial;
        let bands = c.band_lo[start..].iter_mut().zip(&mut c.band_hi[start..]);
        for ((lo, hi), p) in bands.zip(&c.points[start..end]) {
            *lo = spatial.max_ss_point(p, &r);
            *hi = spatial.min_ss_point(p, &r);
        }
    }

    /// Drops the text columns of users `u..`, the HW rows included.
    fn truncate_text(&mut self, u: usize) {
        let c = &mut self.cols;
        if u >= c.ids.len() {
            return;
        }
        c.ids.truncate(u);
        c.points.truncate(u);
        c.n_u.truncate(u);
        c.ubl_ts.truncate(u);
        c.ucand_flat.truncate(c.ucand_off[u] as usize);
        c.ucand_off.truncate(u + 1);
        let hw = c.hw.get_mut();
        if hw.off.len() > u + 1 {
            hw.rows.truncate(hw.off[u] as usize);
            hw.off.truncate(u + 1);
        }
    }

    /// Appends one user's text columns: id, location, normalizer,
    /// candidate-term run and `UBL` text.
    fn push_text(&mut self, user: &UserData, n_u: f64) {
        self.cols.ids.push(user.id);
        self.cols.points.push(user.point);
        self.cols.n_u.push(n_u);
        let start = self.cols.ucand_flat.len();
        for t in user.doc.terms() {
            if let Ok(s) = self.cols.slot_terms.binary_search(&t) {
                self.cols.ucand_flat.push((s, self.cols.slot_w[s]));
            }
        }
        self.cols.ucand_off.push(self.cols.ucand_flat.len() as u32);
        // `UBL`'s text: the run's `ox.d` terms in slot order, plus Lemma
        // 3's `ws` heaviest of its other terms, each once per position it
        // holds in `W`.
        let run = &self.cols.ucand_flat[start..];
        let fixed: f64 = run
            .iter()
            .filter(|&&(s, _)| self.in_ox(s))
            .map(|&(_, w)| w)
            .sum();
        let added = self.top_ws_sum(
            run.iter()
                .filter(|&&(s, _)| !self.in_ox(s))
                .flat_map(|&(s, w)| std::iter::repeat_n(w, self.kw_positions(s).len())),
        );
        let ts = if n_u > 0.0 {
            ((fixed + added) / n_u).min(1.0)
        } else {
            0.0
        };
        self.cols.ubl_ts.push(ts);
    }

    /// Users held (the slice's, plus every [`CandidateContext::push_user`]).
    /// Kept text columns may run past them; no kernel reads that far.
    #[inline]
    pub(crate) fn num_users(&self) -> usize {
        self.cols.rsk.len()
    }

    /// Returns the pooled buffers, and the text half with its key, to the
    /// arena.
    pub(crate) fn into_scratch(self) -> CcScratch {
        self.cols
    }

    /// Candidate weight of `t` (0 for terms outside `W ∪ ox.d`).
    #[inline]
    pub fn cw(&self, t: TermId) -> f64 {
        let c = &self.cols;
        c.slot_terms.binary_search(&t).map_or(0.0, |s| c.slot_w[s])
    }

    /// The positions of `W` holding the term of slot `s`, ascending.
    #[inline]
    fn kw_positions(&self, s: usize) -> &[u32] {
        let c = &self.cols;
        &c.slot_kw[c.slot_kw_off[s] as usize..c.slot_kw_off[s + 1] as usize]
    }

    /// True when slot `s` holds a term of `ox.d`.
    #[inline]
    fn in_ox(&self, s: usize) -> bool {
        bit(&self.cols.ox_bits, s)
    }

    /// True when user `u` could ever find `ox` relevant: `u.d` shares a
    /// term with `ox.d ∪ W` (the paper's relevance precondition) — i.e.
    /// the user's precomputed candidate-term list is non-empty.
    #[inline]
    pub fn user_reachable(&self, u: usize) -> bool {
        self.cols.ucand_off[u] != self.cols.ucand_off[u + 1]
    }

    /// Sum of the `ws` largest positive candidate `weights`, added in
    /// descending order (Lemma 3's `Wh` / `Wu` construction).
    fn top_ws_sum(&self, weights: impl Iterator<Item = f64>) -> f64 {
        let mut buf = self.cols.ws_buf.borrow_mut();
        buf.clear();
        buf.extend(weights.filter(|&w| w > 0.0));
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
        let added = self.top_ws_sum(
            self.cols
                .kw_slots
                .iter()
                .filter(|&&s| !self.in_ox(s) && group.d_uni.contains(self.cols.slot_terms[s]))
                .map(|&s| self.cols.slot_w[s]),
        );
        group.ts_upper(fixed + added)
    }

    /// `UBL(ℓ, g)` (§6.1): upper bound on `STS(ox@ℓ, u)` over every user in
    /// `g` and every admissible keyword choice.
    pub fn ubl_group(&self, loc: &Point, group: &UserGroup) -> f64 {
        let ss = self.ctx.spatial.min_ss_point(loc, &group.mbr);
        self.ctx.combine(ss, self.ubl_group_ts(group))
    }

    /// `UBL(ℓ, u)` (§6.1): per-user upper bound (textual part cached).
    pub fn ubl_user(&self, loc: &Point, u: usize) -> f64 {
        let ss = self.ctx.spatial.ss_points(loc, &self.users[u].point);
        self.ctx.combine(ss, self.cols.ubl_ts[u])
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
        let (user, n_u) = (&self.users[u], self.cols.n_u[u]);
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
        self.users[u].doc.overlaps(cand) && self.sts_candidate(loc, cand, u) >= self.cols.rsk[u]
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
    // `cand ⊆ ox.d ∪ W`, which they take as *slot sets* — bitsets of
    // ⌈slots / 64⌉ words over the slot view — with the spatial score
    // hoisted out by the caller and the per-user term merge replaced by
    // the precomputed `ucand` runs. The public slow paths stay as the
    // reference implementations the brute-force tests compare against.

    /// User `u`'s candidate terms `u.d ∩ (W ∪ ox.d)` as `(slot, cw)`,
    /// ascending.
    #[inline]
    pub(crate) fn ucand(&self, u: usize) -> &[(usize, f64)] {
        &self.cols.ucand_flat[self.cols.ucand_off[u] as usize..self.cols.ucand_off[u + 1] as usize]
    }

    /// Fills `out` with the slot set `ox.d ∪ {slots}`.
    pub(crate) fn cand_set_slots(
        &self,
        slots: impl IntoIterator<Item = usize>,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.extend_from_slice(&self.cols.ox_bits);
        for s in slots {
            set_bit(out, s);
        }
    }

    /// Fills `out` with the slot set of `ox.d ∪ kw`, for keywords drawn
    /// from `W` (a term outside `W ∪ ox.d` has no slot and is skipped).
    pub(crate) fn cand_set(&self, kw: &[TermId], out: &mut Vec<u64>) {
        self.cand_set_slots(
            kw.iter()
                .filter_map(|t| self.cols.slot_terms.binary_search(t).ok()),
            out,
        );
    }

    /// Spatial score of `loc` for user `u`.
    #[inline]
    pub(crate) fn ss_at(&self, loc: &Point, u: usize) -> f64 {
        self.ctx.spatial.ss_points(loc, &self.cols.points[u])
    }

    /// `UBL(ℓ, u)` with the spatial part precomputed.
    #[inline]
    pub(crate) fn ubl_user_with_ss(&self, ss: f64, u: usize) -> f64 {
        self.ctx.combine(ss, self.cols.ubl_ts[u])
    }

    /// The verdict of `combine(ss, ts) ≥ RSk(u)` at every candidate
    /// location at once, from user `u`'s spatial band.
    #[inline]
    pub(crate) fn band_verdict(&self, ts: f64, u: usize) -> Option<bool> {
        self.verdict_within(
            self.cols.band_lo[u],
            self.cols.band_hi[u],
            ts,
            self.cols.rsk[u],
        )
    }

    /// The verdict of `UBL(ℓ, g) ≥ lb` for the user subtree `g`, whose
    /// `UBL` text half is `ts`, at every candidate location at once: its
    /// `MinSS` against a location lies within
    /// [`geo::SpatialContext::min_ss_point_bounds`] of the locations' MBR.
    #[inline]
    pub(crate) fn group_verdict(&self, group: &UserGroup, ts: f64, lb: f64) -> Option<bool> {
        let (lo, hi) = self.loc_mbr.map_or((0.0, 1.0), |q| {
            self.ctx.spatial.min_ss_point_bounds(&q, &group.mbr)
        });
        self.verdict_within(lo, hi, ts, lb)
    }

    /// `combine(ss, ts) ≥ bar` for every `ss` in `[lo, hi]`: `Some(true)`
    /// when it passes at `lo`, `Some(false)` when it fails at `hi` (as a
    /// NaN `ts` does), `None` when it depends on `ss`.
    #[inline]
    fn verdict_within(&self, lo: f64, hi: f64, ts: f64, bar: f64) -> Option<bool> {
        if self.ctx.combine(lo, ts) >= bar {
            Some(true)
        } else if self.ctx.combine(hi, ts) >= bar {
            None
        } else {
            Some(false)
        }
    }

    /// `UBL(ℓ, u) ≥ RSk(u)` at every candidate location at once, when the
    /// band decides it.
    #[inline]
    pub(crate) fn ubl_verdict(&self, u: usize) -> Option<bool> {
        self.band_verdict(self.cols.ubl_ts[u], u)
    }

    /// `UBL(ℓ, u) ≥ RSk(u)`, from the band when it decides.
    #[inline]
    pub(crate) fn ubl_passes(&self, loc: &Point, u: usize) -> bool {
        self.ubl_verdict(u)
            .unwrap_or_else(|| self.ubl_user_with_ss(self.ss_at(loc, u), u) >= self.cols.rsk[u])
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

    /// The textual half of `STS` for the slot set `cand`, or NaN when user
    /// `u` shares no term with it: NaN fails every `≥ RSk(u)` test, which
    /// is the relevance precondition. One pass over the user's run, in
    /// slot order.
    #[inline]
    fn ts_cand(&self, cand: &[u64], u: usize) -> f64 {
        let mut any = false;
        let mut sum = 0.0;
        for &(s, w) in self.ucand(u) {
            if bit(cand, s) {
                any = true;
                sum += w;
            }
        }
        let n_u = self.cols.n_u[u];
        if !any {
            f64::NAN
        } else if n_u > 0.0 {
            (sum / n_u).min(1.0)
        } else {
            0.0
        }
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
        if self.cols.hw.borrow().off.len() <= self.num_users() {
            let mut table = self.cols.hw.borrow_mut();
            let HwTable {
                off,
                rows,
                others,
                bits,
            } = &mut *table;
            let cap = self.spec.ws.saturating_sub(1);
            for u in off.len() - 1..self.num_users() {
                others.clear();
                for &(s, cw) in self.ucand(u) {
                    others.extend(self.kw_positions(s).iter().map(|&j| (cw, j, s)));
                }
                // One sort per user: every held keyword's HW set is a
                // prefix of this order. (The reference construction loops
                // keywords-outer and re-sorts per holder; same key, same
                // members.) A keyword held at several positions of `W`
                // fills as many places of the `ws − 1` cap.
                others.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                for &(_, j, w) in others.iter() {
                    bits.clear();
                    bits.extend_from_slice(&self.cols.ox_bits);
                    let mut placed = 0;
                    for &(_, _, s) in others.iter() {
                        if placed == cap {
                            break;
                        }
                        if s != w {
                            set_bit(bits, s);
                            placed += 1;
                        }
                    }
                    set_bit(bits, w);
                    rows.push((j, self.ts_cand(bits, u)));
                }
                off.push(rows.len() as u32);
            }
        }
        self.cols.hw.borrow()
    }

    /// [`CandidateContext::qualifies`] with the spatial part precomputed,
    /// for the slot set `cand`.
    #[inline]
    pub(crate) fn qualifies_with_ss(&self, ss: f64, cand: &[u64], u: usize) -> bool {
        self.ctx.combine(ss, self.ts_cand(cand, u)) >= self.cols.rsk[u]
    }

    /// Calls `f(pos, verdict)` for every position of `lu`, in order: does
    /// user `lu[pos]` qualify for the slot set `cand` at spatial score
    /// `ss[pos]`?
    pub(crate) fn for_each_verdict(
        &self,
        cand: &[u64],
        lu: &[usize],
        ss: &[f64],
        mut f: impl FnMut(usize, bool),
    ) {
        for (pos, (&u, &s)) in lu.iter().zip(ss).enumerate() {
            f(pos, self.qualifies_with_ss(s, cand, u));
        }
    }

    /// Fills `out` with the spatial scores of `loc` for `candidates`.
    pub(crate) fn fill_ss(&self, loc: &Point, candidates: &[usize], out: &mut Vec<f64>) {
        out.clear();
        out.extend(candidates.iter().map(|&u| self.ss_at(loc, u)));
    }

    /// [`CandidateContext::brstknn`] into a reusable buffer, for the slot
    /// set `cand`; `ss` holds the spatial scores aligned with `candidates`.
    pub(crate) fn brstknn_into(
        &self,
        cand: &[u64],
        candidates: &[usize],
        ss: &[f64],
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.for_each_verdict(cand, candidates, ss, |pos, q| {
            if q {
                out.push(self.cols.ids[candidates[pos]]);
            }
        });
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
    /// Holder-position rows, parallel to the `slots` column of the last
    /// [`DeltaScan::build`] (pooled; rows past `slots.len()` are stale).
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
    /// `lu` and its aligned `ss` column) whose user holds the term of slot
    /// `slots[j]`, restricted to `positions`. Terms of `ox.d` get empty
    /// rows — adding them to a candidate never changes a score, because
    /// they already count through `ox.d` itself.
    pub(crate) fn build(
        &mut self,
        cc: &CandidateContext<'_>,
        slots: &[usize],
        lu: &[usize],
        positions: impl IntoIterator<Item = usize>,
    ) {
        while self.inv.len() < slots.len() {
            self.inv.push(Vec::new());
        }
        for row in &mut self.inv[..slots.len()] {
            row.clear();
        }
        self.stamp.clear();
        self.stamp.resize(lu.len(), 0);
        self.epoch = 0;
        for pos in positions {
            for &(s, _) in cc.ucand(lu[pos]) {
                if cc.in_ox(s) {
                    continue;
                }
                // Duplicate keywords each get the holder — combinations
                // address keywords by position, not value.
                for (j, &k) in slots.iter().enumerate() {
                    if k == s {
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

    /// Holder row of a single keyword position.
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

    /// Xorshift stream: `next(m)` draws from `0..m`.
    pub(crate) fn stream(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        }
    }

    fn random_fixture_with(model: WeightModel, seed: u64, n_users: usize, n_kws: usize) -> Fix {
        let mut next = stream(seed);
        const VOCAB: u64 = 25;
        let docs: Vec<Document> = (0..40)
            .map(|_| {
                let n = 1 + next(4);
                Document::from_terms((0..n).map(|_| t(next(VOCAB) as u32)))
            })
            .collect();
        let text = TextScorer::build(model, &docs);
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

    /// An instance whose `W ∪ ox.d` has exactly `slots` terms — term `i`
    /// has slot `i` — so slot sets span one, two or three words. Even
    /// seeds: `W` is every candidate term and `ox.d` is empty; odd seeds:
    /// `W` holds the terms `i ≢ 0 (mod 3)`, `ox.d` the rest plus one of
    /// `W`'s. `W` comes in a drawn order with its first keyword repeated.
    /// User `i` holds term `37·i mod slots` (so holders spread over every
    /// word) and up to three drawn terms, some beyond the candidates. LM
    /// weights, `ws = 3`.
    pub(crate) fn wide_fixture(seed: u64, slots: u32, n_users: usize) -> Fix {
        let mut next = stream(seed);
        let vocab = u64::from(slots) + 8;
        let docs: Vec<Document> = (0..60)
            .map(|_| {
                let n = 1 + next(4);
                Document::from_terms((0..n).map(|_| t(next(vocab) as u32)))
            })
            .collect();
        let text = TextScorer::build(WeightModel::lm(), &docs);
        let users: Vec<UserData> = (0..n_users as u32)
            .map(|i| {
                let n = next(4);
                UserData {
                    id: i,
                    point: Point::new(next(1000) as f64 / 100.0, next(1000) as f64 / 100.0),
                    doc: Document::from_terms(
                        std::iter::once(t(i * 37 % slots))
                            .chain((0..n).map(|_| t(next(vocab) as u32))),
                    ),
                }
            })
            .collect();
        let split = seed % 2 == 1;
        let mut keywords: Vec<TermId> =
            (0..slots).filter(|i| !split || i % 3 != 0).map(t).collect();
        for i in (1..keywords.len()).rev() {
            keywords.swap(i, next(i as u64 + 1) as usize);
        }
        keywords.push(keywords[0]);
        let ox_doc = if split {
            Document::from_terms(
                (0..slots)
                    .filter(|i| i % 3 == 0)
                    .map(t)
                    .chain([keywords[1]]),
            )
        } else {
            Document::new()
        };
        let space = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let ctx = ScoreContext::new(0.5, SpatialContext::from_dataspace(&space), text);
        let spec = QuerySpec {
            ox_doc,
            locations: (0..3)
                .map(|_| Point::new(next(1000) as f64 / 100.0, next(1000) as f64 / 100.0))
                .collect(),
            keywords,
            ws: 3,
            k: 2,
        };
        let rsk = (0..n_users)
            .map(|_| 0.15 + next(50) as f64 / 100.0)
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
        let text = TextScorer::build(WeightModel::KeywordOverlap, &docs);
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
    use crate::select::reference;

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

    /// The slot-set kernels must be bit-identical to the public reference
    /// paths for every candidate document `⊆ ox.d ∪ W` — on the small
    /// fixture and with `|W ∪ ox.d|` on both sides of one and two 64-bit
    /// words — and so must `UBL`'s text from the user's run, and the counts
    /// over every user and over a sparser list.
    #[test]
    fn fast_kernels_match_reference_paths() {
        use super::test_fixture::wide_fixture;
        let mut fixtures = vec![fixture()];
        for (seed, slots) in [(0, 63), (1, 64), (2, 65), (3, 130), (4, 130), (5, 63)] {
            fixtures.push(wide_fixture(seed, slots, 70));
        }
        let mut high = 0;
        for f in &fixtures {
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let kws = &f.spec.keywords;
            // Nothing, every keyword alone, and pairs and triples of
            // keywords far apart in `W`.
            let mut sets: Vec<Vec<TermId>> = vec![Vec::new()];
            sets.extend(kws.iter().map(|&w| vec![w]));
            for i in 0..kws.len() {
                sets.push(vec![kws[i], kws[(i * 7 + 3) % kws.len()]]);
                sets.push(vec![
                    kws[i],
                    kws[(i * 5 + 1) % kws.len()],
                    kws[kws.len() - 1 - i],
                ]);
            }
            let all: Vec<usize> = (0..f.users.len()).collect();
            let sparse: Vec<usize> = all.iter().copied().filter(|u| u % 3 != 1).collect();
            let mut bits = Vec::new();
            for loc in &f.spec.locations {
                for u in 0..f.users.len() {
                    let ss = cc.ss_at(loc, u);
                    let ubl_ts = reference::ubl_ts(&cc, u);
                    assert_eq!(
                        cc.ubl_user_with_ss(ss, u).to_bits(),
                        cc.ctx.combine(ss, ubl_ts).to_bits()
                    );
                    for kw in &sets {
                        let doc = cc.with_keywords(kw);
                        cc.cand_set(kw, &mut bits);
                        // `sts_candidate` with the spatial part hoisted.
                        let ts = cc.ts_cand(&bits, u);
                        let sts = cc.ctx.combine(ss, if ts.is_nan() { 0.0 } else { ts });
                        assert_eq!(sts.to_bits(), cc.sts_candidate(loc, &doc, u).to_bits());
                        let q = cc.qualifies(loc, &doc, u);
                        assert_eq!(cc.qualifies_with_ss(ss, &bits, u), q);
                        high += usize::from(q && cc.ucand(u).iter().any(|&(s, _)| s >= 64));
                    }
                }
                let mut ss = Vec::new();
                let mut got = Vec::new();
                for kw in &sets {
                    let doc = cc.with_keywords(kw);
                    cc.cand_set(kw, &mut bits);
                    for lu in [&all, &sparse] {
                        cc.fill_ss(loc, lu, &mut ss);
                        cc.brstknn_into(&bits, lu, &ss, &mut got);
                        assert_eq!(got, cc.brstknn(loc, &doc, lu));
                        cc.brstknn_into(&cc.cols.ox_bits, lu, &ss, &mut got);
                        assert_eq!(got, cc.brstknn(loc, &cc.spec.ox_doc, lu));
                    }
                }
            }
            // As in §7: a context that gains users between two counts of
            // the same set counts like one built with all of them.
            let half = f.users.len() / 2;
            let mut grown =
                CandidateContext::new(&f.ctx, &f.spec, &f.users[..half], &f.rsk[..half]);
            let (loc, kw) = (&f.spec.locations[0], &sets[sets.len() / 2]);
            cc.cand_set(kw, &mut bits);
            let (mut ss, mut got, mut want) = (Vec::new(), Vec::new(), Vec::new());
            grown.fill_ss(loc, &all[..half], &mut ss);
            grown.brstknn_into(&bits, &all[..half], &ss, &mut got);
            for (u, &r) in f.users.iter().zip(&f.rsk).skip(half) {
                grown.push_user(u, || f.ctx.text.normalizer(&u.doc), r);
            }
            grown.fill_ss(loc, &all, &mut ss);
            grown.brstknn_into(&bits, &all, &ss, &mut got);
            cc.brstknn_into(&bits, &all, &ss, &mut want);
            assert_eq!(got, want);
        }
        assert!(high > 100, "{high} verdicts on users past slot 63");
    }

    /// A context that kept its text half and then meets other users at the
    /// kept indices — as the §7 pipeline does when its expansion order
    /// moves — drops the half from the first differing index, `HW` rows
    /// included: its columns, `HW` rows and counts
    /// equal a fresh context's over the same push order. It reports the
    /// half reused only when no push derived text: a repeated order or a
    /// prefix of the kept one.
    #[test]
    fn kept_text_half_matches_a_fresh_context_in_any_push_order() {
        use super::test_fixture::wide_fixture;
        let f = wide_fixture(3, 130, 70);
        let n = f.users.len();
        let forward: Vec<usize> = (0..n).collect();
        let mut moved = forward.clone();
        moved[n / 3..].reverse();
        let state = Some((7, 0));
        let mut scratch = CcScratch::default();
        let mut cand = Vec::new();
        let (mut ss, mut got, mut want) = (Vec::new(), Vec::new(), Vec::new());
        let mut kept = 0;
        let passes = [
            (&forward[..n / 2], false),
            (&forward[..], false),
            (&moved[..], false),
            (&moved[..], true),
            (&forward[..n / 2], false),
            (&forward[..], false),
            (&moved[..], false),
            (&moved[..n / 2], true),
        ];
        for (pass, &(order, reused)) in passes.iter().enumerate() {
            let mut cc = CandidateContext::new_reusing(&f.ctx, &f.spec, &[], &[], scratch, state);
            let mut fresh = CandidateContext::new(&f.ctx, &f.spec, &[], &[]);
            assert_eq!(cc.text_reused(), pass > 0);
            for &u in order {
                let user = &f.users[u];
                let n_u = || f.ctx.text.normalizer(&user.doc);
                kept += usize::from(cc.cols.ids.get(cc.num_users()) == Some(&user.id));
                assert_eq!(
                    cc.push_user(user, n_u, f.rsk[u]),
                    fresh.push_user(user, n_u, f.rsk[u])
                );
            }
            assert_eq!(cc.text_reused(), reused, "pass {pass}");
            let m = order.len();
            assert_eq!(cc.cols.ids[..m], fresh.cols.ids[..]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cc.cols.ubl_ts[..m]), bits(&fresh.cols.ubl_ts));
            assert_eq!(bits(&cc.cols.band_lo), bits(&fresh.cols.band_lo));
            for u in 0..m {
                assert_eq!(cc.ucand(u), fresh.ucand(u), "pass {pass}, user {u}");
            }
            {
                let (hw, hw_fresh) = (cc.hw_table(), fresh.hw_table());
                for u in 0..m {
                    assert_eq!(hw.rows_of(u), hw_fresh.rows_of(u), "pass {pass}, user {u}");
                }
            }
            let all: Vec<usize> = (0..m).collect();
            let loc = &f.spec.locations[pass % f.spec.locations.len()];
            cc.fill_ss(loc, &all, &mut ss);
            for kw in [&f.spec.keywords[..2], &f.spec.keywords[3..4], &[]] {
                cc.cand_set(kw, &mut cand);
                cc.brstknn_into(&cand, &all, &ss, &mut got);
                fresh.brstknn_into(&cand, &all, &ss, &mut want);
                assert_eq!(got, want, "pass {pass}, keywords {kw:?}");
            }
            scratch = cc.into_scratch();
        }
        // Each later pass keeps the prefix it shares with the one before:
        // the first half, the unreversed third, everything, the unreversed
        // third, the first half, the unreversed third, the first half.
        assert_eq!(kept, n + 3 * (n / 3) + 3 * (n / 2));
    }

    /// The bands the constructor fills in one pass are bit-equal to each
    /// user's band derived alone (`reference::band`), and to those
    /// `push_user` appends one user at a time, as the §7 pipeline does:
    /// on fresh and kept text halves, with the locations moved between two
    /// contexts on one scratch, and without locations.
    #[test]
    fn one_pass_bands_match_the_per_user_reference() {
        use super::test_fixture::{random_fixture, wide_fixture};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut fixtures: Vec<_> = (0..6)
            .map(|seed| random_fixture(seed + 90, 48, 9))
            .collect();
        fixtures.push(wide_fixture(3, 130, 70));
        let mut seen = 0;
        for (i, f) in fixtures.iter().enumerate() {
            let mut scratch = CcScratch::default();
            let mut specs = vec![f.spec.clone(), f.spec.clone(), f.spec.clone()];
            specs[1].locations.iter_mut().for_each(|l| l.x *= 0.5);
            specs[2].locations.clear();
            for spec in &specs {
                let at = format!("fixture {i}, {} locations", spec.locations.len());
                let cc = CandidateContext::new_reusing(
                    &f.ctx,
                    spec,
                    &f.users,
                    &f.rsk,
                    scratch,
                    Some((1, 0)),
                );
                let mut pushed = CandidateContext::new(&f.ctx, spec, &[], &[]);
                for (u, &r) in f.users.iter().zip(&f.rsk) {
                    pushed.push_user(u, || f.ctx.text.normalizer(&u.doc), r);
                }
                let n = f.users.len();
                assert_eq!(
                    (cc.cols.band_lo.len(), cc.cols.band_hi.len()),
                    (n, n),
                    "{at}"
                );
                let (lo, hi): (Vec<f64>, Vec<f64>) =
                    (0..n).map(|u| reference::band(&cc, u)).unzip();
                assert_eq!(bits(&cc.cols.band_lo), bits(&lo), "{at}");
                assert_eq!(bits(&cc.cols.band_hi), bits(&hi), "{at}");
                assert_eq!(bits(&pushed.cols.band_lo), bits(&lo), "{at}");
                assert_eq!(bits(&pushed.cols.band_hi), bits(&hi), "{at}");
                assert_eq!(bits(&cc.cols.rsk), bits(&f.rsk), "{at}");
                seen += lo.iter().zip(&hi).filter(|(l, h)| l < h).count();
                scratch = cc.into_scratch();
            }
        }
        assert!(seen > 500, "{seen} bands of positive width");
    }

    #[test]
    fn top_ws_sum_takes_largest() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        // KO: every candidate weight is 1, ws=2 → sum 2.
        let sum = cc.top_ws_sum(f.spec.keywords.iter().map(|&t| cc.cw(t)));
        assert!((sum - 2.0).abs() < 1e-12);
    }
}

//! Algorithm 3: SELECT-CANDIDATE — best-first processing of the candidate
//! locations with spatial-first pruning (§6.1).
//!
//! Every location first gets an optimistic user list `LU_ℓ` (who *could*
//! become a BRSTkNN there, by the `UBL` bounds). Locations are then
//! processed in decreasing `|LU_ℓ|`; because `|LU_ℓ|` upper-bounds the
//! achievable cardinality, the search terminates as soon as the best
//! confirmed tuple matches the next location's potential. The `LBL`
//! shortcut skips keyword selection entirely when the location already
//! guarantees every listed user.
//!
//! # When an evaluation is reused
//!
//! A user's spatial band (see [`crate::select`]) decides most of its tests
//! for every location at once. Step 1 computes a spatial score only for
//! the `UBL` tests the band leaves open; when it leaves none, every
//! location shares one list. In step 2, the first greedy evaluation whose
//! `LU` users have every `LUW` row decided by their bands is kept: its
//! rows hold the same members at every location with the same `LU` set,
//! and the greedy cover depends only on those member sets, so its keywords
//! `K` are every such location's keywords. One pass over the `HW` rows
//! both decides them and builds `LUW` at the bands' low ends; it gives up
//! at the first open row, and that location takes the full path. One
//! evaluation is kept per query, with the name of the list it was held
//! for: every location given that name has the same `lu`, so a later one
//! reuses `K` after one comparison. The evaluation keeps each `lu`
//! position's verdict under `K` (passes everywhere, fails everywhere,
//! open): the users that pass everywhere are one number, and only the
//! open ones are scored, per location and when the winner is
//! materialised. A location on another list, the `LBL` shortcut,
//! GreedyPlus and Exact take the full path, which also only counts.
//!
//! # When the answer is materialised
//!
//! Only the best tuple is returned, so no location materialises its
//! `brstknn` ids when it beats the best so far. It records the best as a
//! `Winner`: its count, how it was settled and a copy of its `lu` (one
//! memcpy, where materialising costs a verdict per user). Once the queue
//! drains, `materialise_winner` builds the ids once, for the winner, in
//! its `lu` order: the held evaluation's kept verdicts, all of `lu` for the
//! shortcut, or the verdicts under `ox.d ∪ K` for the full path.
//!
//! Algorithm 3 names a list by its pooled slot: the slots keep their
//! contents for the whole query, and with no `UBL` test left open every
//! location shares one. The §7 pipeline names its lists by class: lists
//! that took only runs of children the bands decided everywhere hold the
//! same users in the same order (`user_index::FrontierList`).

use geo::Point;
use text::TermId;

use crate::arena::{GreedyScratch, SelectScratch};
use crate::select::{exact, greedy, CandidateContext};
use crate::topk::ByKey;
use crate::{QueryResult, UserGroup};

/// Which keyword-selection strategy Algorithm 3 should call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeywordSelector {
    /// §6.2.1 greedy maximum-coverage approximation.
    Greedy,
    /// Greedy on realized gains (extension; see
    /// [`crate::select::greedy::greedy_plus_keywords`]).
    GreedyPlus,
    /// §6.2.2 exact enumeration (Algorithm 4).
    Exact,
}

/// How one query's candidate locations were settled: Algorithm 3's, or
/// the §7 pipeline's (the §4 baseline scan has no location queue and
/// counts none). `evaluated + reused == dequeued`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocationCounts {
    /// Locations taken off the queue for evaluation (past the `|LU|` stop).
    pub dequeued: u64,
    /// Locations whose keywords were selected (or settled by the `LBL`
    /// shortcut) and whose users were counted in full.
    pub evaluated: u64,
    /// Locations that reused an earlier greedy evaluation's keywords and
    /// scored only the users their bands leave open.
    pub reused: u64,
}

/// How the best location so far was settled: what [`materialise_winner`]
/// replays over its `lu`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Counted by the held evaluation under its keywords.
    #[default]
    Held,
    /// The `LBL` shortcut: every user of `lu` qualifies on `ox.d` alone.
    Shortcut,
    /// Keywords selected and every user of `lu` tested under them.
    Full,
}

/// The best location of a query so far (see the module docs): `out` holds
/// its location and keywords, this its count, how it was settled and a
/// copy of its `lu`. Pooled in [`SelectScratch`].
#[derive(Debug, Default)]
pub(crate) struct Winner {
    count: usize,
    settled: Settled,
    lu: Vec<usize>,
    /// Materialise at every improvement, into `out`, from the `lu` under
    /// evaluation, and not after the queue drains: the reference the
    /// deferred path is held to.
    #[cfg(test)]
    pub(crate) eager: bool,
    /// Every count offered to [`Winner::improve`] while `eager`:
    /// `(location, count, how it was settled)`.
    #[cfg(test)]
    pub(crate) log: Vec<(usize, usize, Settled)>,
}

impl Winner {
    /// Forgets the best, keeping the buffer.
    pub(crate) fn clear(&mut self) {
        self.count = 0;
    }

    /// The best count so far; 0 before any location qualified a user.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Makes location `li` the best when `count` beats it: its keywords
    /// `kw` go to `out`, a copy of `lu` here. Ties keep the earlier one.
    pub(crate) fn improve(
        &mut self,
        li: usize,
        count: usize,
        settled: Settled,
        lu: &[usize],
        kw: &[TermId],
        out: &mut QueryResult,
    ) -> bool {
        #[cfg(test)]
        if self.eager {
            self.log.push((li, count, settled));
        }
        if count <= self.count {
            return false;
        }
        self.count = count;
        self.settled = settled;
        self.lu.clear();
        self.lu.extend_from_slice(lu);
        out.location = li;
        out.keywords.clear();
        out.keywords.extend_from_slice(kw);
        true
    }
}

/// Materialises the winner's BRSTkNN ids into `out`, in its `lu` order,
/// once the location queue has drained: the one answer a query returns.
pub(crate) fn materialise_winner(
    cc: &CandidateContext<'_>,
    sel: &mut SelectScratch,
    out: &mut QueryResult,
) {
    let SelectScratch {
        best,
        held,
        ss,
        cand,
        ..
    } = sel;
    #[cfg(test)]
    if best.eager {
        return;
    }
    out.brstknn.clear();
    if best.count == 0 {
        return;
    }
    let lu = &best.lu;
    match best.settled {
        Settled::Held => held.materialise(cc, out.location, lu, &mut out.brstknn),
        Settled::Shortcut => out.brstknn.extend(lu.iter().map(|&u| cc.cols.ids[u])),
        Settled::Full => {
            cc.fill_ss(&cc.spec.locations[out.location], lu, ss);
            cc.cand_set(&out.keywords, cand);
            cc.brstknn_into(cand, lu, ss, &mut out.brstknn);
        }
    }
}

/// The greedy evaluation later locations of a query reuse (see the module
/// docs): pooled in [`SelectScratch`], dropped at the start of each query.
#[derive(Debug, Default)]
pub(crate) struct HeldEvaluation {
    live: bool,
    /// The name of the list it was held for.
    list: usize,
    /// Its keywords `K`.
    kw: Vec<TermId>,
    /// Per position of the held `lu`: the verdict under `K` at every
    /// location, or `None` where the bands leave it open. Every list of
    /// that name holds the same users in the same order.
    verdicts: Vec<Option<bool>>,
    /// Users of the list who qualify under `K` at every location.
    pass: usize,
    /// The users whose verdict under `K` the bands leave open, with `TS`,
    /// in `lu` order.
    open: Vec<(usize, f64)>,
}

impl HeldEvaluation {
    /// Drops the evaluation, keeping its buffers.
    pub(crate) fn release(&mut self) {
        self.live = false;
    }

    /// True when an evaluation is held for the list named `list`: a name
    /// stands for one `lu` for the whole query.
    fn held_for(&self, list: usize) -> bool {
        self.live && self.list == list
    }

    /// Runs the greedy evaluation of `lu` and holds it for the list named
    /// `list` when the bands decide every `LUW` row of `lu`: a decided row
    /// has the same members at every location, so one pass over the rows
    /// decides and builds `LUW` without a location
    /// ([`greedy::decided_keywords_into`]). Returns false, holding nothing,
    /// at the first row the bands leave open.
    fn hold(
        &mut self,
        cc: &CandidateContext<'_>,
        lu: &[usize],
        list: usize,
        gr: &mut GreedyScratch,
        cand: &mut Vec<u64>,
    ) -> bool {
        if !greedy::decided_keywords_into(cc, lu, gr, &mut self.kw) {
            return false;
        }
        self.keep_verdicts(cc, lu, list, cand);
        true
    }

    /// Holds the keywords in `self.kw` for `lu`, named `list`: records each
    /// position's verdict under `K`, counts the users that pass everywhere
    /// and keeps the open ones with their `TS`.
    fn keep_verdicts(
        &mut self,
        cc: &CandidateContext<'_>,
        lu: &[usize],
        list: usize,
        cand: &mut Vec<u64>,
    ) {
        cc.cand_set(&self.kw, cand);
        self.live = true;
        self.list = list;
        self.verdicts.clear();
        self.pass = 0;
        self.open.clear();
        for &u in lu {
            let ts = cc.ts_cand(cand, u);
            let verdict = cc.band_verdict(ts, u);
            match verdict {
                Some(true) => self.pass += 1,
                Some(false) => {}
                None => self.open.push((u, ts)),
            }
            self.verdicts.push(verdict);
        }
    }

    /// Counts the held list at location `li` under `K`, and makes it the
    /// best when the count beats it.
    fn count_at(
        &self,
        cc: &CandidateContext<'_>,
        li: usize,
        lu: &[usize],
        best: &mut Winner,
        out: &mut QueryResult,
    ) {
        let loc = &cc.spec.locations[li];
        let open = self
            .open
            .iter()
            .filter(|&&(u, ts)| open_passes(cc, loc, u, ts))
            .count();
        if best.improve(li, self.pass + open, Settled::Held, lu, &self.kw, out) {
            #[cfg(test)]
            if best.eager {
                out.brstknn.clear();
                self.materialise(cc, li, lu, &mut out.brstknn);
            }
        }
    }

    /// Appends the ids of the users of `lu`, a list of the held name, that
    /// qualify under `K` at location `li`, in `lu` order: the kept verdicts
    /// decide all but the open users, which alone are scored.
    fn materialise(&self, cc: &CandidateContext<'_>, li: usize, lu: &[usize], ids: &mut Vec<u32>) {
        debug_assert_eq!(lu.len(), self.verdicts.len(), "a list of the held name");
        let loc = &cc.spec.locations[li];
        let mut open = self.open.iter();
        let scored = |&(u, ts): &(usize, f64)| open_passes(cc, loc, u, ts);
        for (&u, &verdict) in lu.iter().zip(&self.verdicts) {
            let passes = verdict.unwrap_or_else(|| open.next().is_some_and(scored));
            if passes {
                ids.push(cc.cols.ids[u]);
            }
        }
    }
}

/// True when user `u`, whose `TS` under the held keywords is `ts`,
/// qualifies at `loc`.
#[inline]
fn open_passes(cc: &CandidateContext<'_>, loc: &Point, u: usize, ts: f64) -> bool {
    cc.ctx.combine(cc.ss_at(loc, u), ts) >= cc.cols.rsk[u]
}

/// Runs Algorithm 3 and returns the best ⟨location, keyword-set⟩ tuple.
///
/// `su` is the super-user over all of `cc.users` and `rsk_us` the global
/// threshold `RSk(us)` from the joint traversal (pass
/// `f64::NEG_INFINITY` to disable the group-level prune, e.g. when
/// thresholds were computed by the per-user baseline).
///
/// # Panics
/// Panics when the query has no candidate locations.
pub fn select_candidate(
    cc: &CandidateContext<'_>,
    su: &UserGroup,
    rsk_us: f64,
    selector: KeywordSelector,
) -> QueryResult {
    let mut sel = SelectScratch::default();
    let mut out = QueryResult::default();
    select_candidate_into(cc, su, rsk_us, selector, &mut sel, &mut out);
    out
}

/// [`select_candidate`] into arena scratch: the winning tuple lands in
/// `out`; queue, per-location `LU` lists, the held evaluation, the winner
/// and the keyword-selection buffers all come from `sel`.
///
/// # Panics
/// Panics when the query has no candidate locations.
pub(crate) fn select_candidate_into(
    cc: &CandidateContext<'_>,
    su: &UserGroup,
    rsk_us: f64,
    selector: KeywordSelector,
    sel: &mut SelectScratch,
    out: &mut QueryResult,
) {
    assert!(
        !cc.spec.locations.is_empty(),
        "MaxBRSTkNN requires at least one candidate location"
    );
    out.clear();
    sel.begin();

    // The textual halves of the group bounds don't depend on the location;
    // hoist them so the per-location checks are two float ops each.
    let su_ubl_ts = cc.ubl_group_ts(su);
    let su_lbl_ts = cc.lbl_group_ts(su);

    // Step 1: per-location candidate user lists from the UBL bounds. The
    // bands sort the reachable users once: those whose test passes at
    // every location (`always`) and those it leaves open (`maybe`), both
    // ascending. Only `maybe` pays a spatial score per location; with it
    // empty every list is `always`, held once in slot 0. The lists live
    // in pooled slots; the queue carries (location, slot).
    sel.always.clear();
    sel.maybe.clear();
    for u in (0..cc.num_users()).filter(|&u| cc.user_reachable(u)) {
        match cc.band_verdict(cc.cols.ubl_ts[u], u) {
            Some(true) => sel.always.push(u),
            Some(false) => {}
            None => sel.maybe.push(u),
        }
    }
    sel.ql.clear();
    let mut slots = 0usize;
    for (li, loc) in cc.spec.locations.iter().enumerate() {
        if cc.ubl_group_with_ts(loc, su, su_ubl_ts) < rsk_us {
            continue; // no user can be a BRSTkNN here (Lemma 2/3)
        }
        let slot = if sel.maybe.is_empty() && slots > 0 {
            0
        } else {
            if slots == sel.lu_bufs.len() {
                sel.lu_bufs.push(Vec::new());
            }
            let lu = &mut sel.lu_bufs[slots];
            lu.clear();
            // Merge the passing `maybe` users into `always`, ascending.
            let mut rest = sel.always.as_slice();
            for &u in &sel.maybe {
                if cc.ubl_user_with_ss(cc.ss_at(loc, u), u) >= cc.cols.rsk[u] {
                    let split = rest.partition_point(|&v| v < u);
                    lu.extend_from_slice(&rest[..split]);
                    lu.push(u);
                    rest = &rest[split..];
                }
            }
            lu.extend_from_slice(rest);
            if lu.is_empty() {
                continue;
            }
            slots += 1;
            slots - 1
        };
        sel.ql.push(ByKey {
            key: sel.lu_bufs[slot].len() as f64,
            item: (li, slot),
        });
    }

    // Step 2: best-first over locations with early termination.
    while let Some(ByKey {
        item: (li, slot), ..
    }) = sel.ql.pop()
    {
        if sel.lu_bufs[slot].len() <= sel.best.count() && sel.best.count() > 0 {
            break; // |LU| bounds the achievable count — nothing better left
        }
        // LBL shortcut: every LU user qualifies with ox.d alone.
        let shortcut = cc.lbl_group_with_ts(&cc.spec.locations[li], su, su_lbl_ts) >= rsk_us;
        let lu = std::mem::take(&mut sel.lu_bufs[slot]);
        sel.locations.dequeued += 1;
        evaluate_location(cc, li, &lu, slot, shortcut, selector, sel, out);
        sel.lu_bufs[slot] = lu;
    }
    materialise_winner(cc, sel, out);
}

/// Algorithm 3's work on one dequeued location, shared with the §7
/// pipeline: `lu` indexes the context's users, and `list` names it: every
/// location given the same name in a query has the same `lu`. With
/// `shortcut` set, a location where all of `lu` already qualifies on
/// `ox.d` alone is settled without keyword selection. Otherwise a greedy
/// location reuses the held evaluation when `list` is the list it was held
/// for, or becomes it when the bands decide every `LUW` row of `lu`; any
/// other location has `selector` pick the keywords and its
/// realized BRSTkNN set counted exactly. The spatial scores of `lu` are
/// computed only on that full path. A location that beats the best takes
/// its place in `sel.best` and `out`, but for the `brstknn` ids, which
/// [`materialise_winner`] builds for the last winner.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_location(
    cc: &CandidateContext<'_>,
    li: usize,
    lu: &[usize],
    list: usize,
    shortcut: bool,
    selector: KeywordSelector,
    sel: &mut SelectScratch,
    out: &mut QueryResult,
) {
    let SelectScratch {
        ss,
        cand,
        kw,
        gr,
        ex,
        held,
        best,
        locations,
        ..
    } = sel;
    let loc = &cc.spec.locations[li];
    let mut filled = false;
    if shortcut && !cc.spec.ox_doc.is_empty() {
        cc.fill_ss(loc, lu, ss);
        filled = true;
        let mut count = 0;
        cc.for_each_verdict(&cc.cols.ox_bits, lu, ss, |_, q| count += usize::from(q));
        // The shortcut is only complete when it captures the whole list;
        // otherwise keyword selection could still add users.
        if count == lu.len() {
            locations.evaluated += 1;
            if best.improve(li, count, Settled::Shortcut, lu, &[], out) {
                #[cfg(test)]
                if best.eager {
                    out.brstknn.clear();
                    out.brstknn.extend(lu.iter().map(|&u| cc.cols.ids[u]));
                }
            }
            return;
        }
    }
    if selector == KeywordSelector::Greedy {
        if held.held_for(list) {
            locations.reused += 1;
            held.count_at(cc, li, lu, best, out);
            return;
        }
        if !held.live && held.hold(cc, lu, list, gr, cand) {
            locations.evaluated += 1;
            held.count_at(cc, li, lu, best, out);
            return;
        }
    }
    if !filled {
        cc.fill_ss(loc, lu, ss);
    }
    match selector {
        KeywordSelector::Greedy => greedy::greedy_keywords_into(cc, lu, ss, gr, kw),
        KeywordSelector::GreedyPlus => greedy::greedy_plus_keywords_into(cc, lu, ss, gr, kw),
        KeywordSelector::Exact => exact::exact_keywords_into(cc, lu, ss, ex, kw),
    }
    cc.cand_set(kw, cand);
    locations.evaluated += 1;
    let mut count = 0;
    cc.for_each_verdict(cand, lu, ss, |_, q| count += usize::from(q));
    if best.improve(li, count, Settled::Full, lu, kw, out) {
        #[cfg(test)]
        if best.eager {
            cc.brstknn_into(cand, lu, ss, &mut out.brstknn);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::select::test_fixture::{fixture, stream, t};
    use crate::select::CandidateContext;
    use crate::{QuerySpec, UserData};
    use geo::Point;
    use text::{Document, WeightModel};

    fn brute_force_best(cc: &CandidateContext<'_>) -> usize {
        // All locations × all keyword subsets of size ≤ ws, all users.
        let all: Vec<usize> = (0..cc.users.len()).collect();
        let kws = &cc.spec.keywords;
        let mut best = 0;
        for li in 0..cc.spec.locations.len() {
            let loc = &cc.spec.locations[li];
            let score = |cand: &Document| cc.brstknn(loc, cand, &all).len();
            best = best.max(score(&cc.spec.ox_doc.clone()));
            for i in 0..kws.len() {
                best = best.max(score(&cc.with_keywords(&[kws[i]])));
                for j in (i + 1)..kws.len() {
                    best = best.max(score(&cc.with_keywords(&[kws[i], kws[j]])));
                }
            }
        }
        best
    }

    #[test]
    fn exact_select_matches_brute_force() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let got = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert_eq!(got.cardinality(), brute_force_best(&cc));
        // Verify the returned set is genuine.
        let cand = cc.with_keywords(&got.keywords);
        let all: Vec<usize> = (0..f.users.len()).collect();
        assert_eq!(
            got.brstknn,
            cc.brstknn(&f.spec.locations[got.location], &cand, &all)
        );
    }

    /// Algorithm 3 on the pooled kernels returns the reference's answer —
    /// location, keywords and the `brstknn` order — for every selector,
    /// with the group-level prune and `LBL` shortcut both live and off.
    #[test]
    fn select_candidate_matches_reference_for_every_selector() {
        use crate::select::reference;
        use crate::select::test_fixture::edge_fixture;
        let mut nonempty = 0;
        for ws in [1, 2, 3, 5] {
            for seed in 0..3 {
                let f = edge_fixture(seed + 50, ws);
                let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
                let su = UserGroup::from_users(&f.users, &f.ctx.text);
                for rsk_us in [f64::NEG_INFINITY, 0.0, 0.35] {
                    for selector in [
                        KeywordSelector::Greedy,
                        KeywordSelector::GreedyPlus,
                        KeywordSelector::Exact,
                    ] {
                        let got = select_candidate(&cc, &su, rsk_us, selector);
                        assert_eq!(
                            got,
                            reference::select_candidate(&cc, &su, rsk_us, selector),
                            "ws {ws}, seed {seed}, rsk_us {rsk_us}, {selector:?}"
                        );
                        nonempty += usize::from(got.cardinality() > 1);
                    }
                }
            }
        }
        assert!(
            nonempty > 50,
            "fixtures too barren: {nonempty} real answers"
        );
    }

    #[test]
    fn greedy_select_is_bounded_by_exact() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let e = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        let g = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Greedy);
        assert!(g.cardinality() <= e.cardinality());
        // And it satisfies the (1−1/e) guarantee on this instance.
        assert!(g.cardinality() as f64 >= 0.632 * e.cardinality() as f64 - 1e-9);
    }

    #[test]
    fn group_prune_never_changes_the_result() {
        // Running with the real RSk(us) (group pruning active) must match
        // running with pruning disabled.
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let rsk_us = 0.6; // = every user's RSk in the fixture
        let with = select_candidate(&cc, &su, rsk_us, KeywordSelector::Exact);
        let without = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert_eq!(with.cardinality(), without.cardinality());
    }

    #[test]
    fn impossible_thresholds_give_empty_result() {
        let f = fixture();
        let rsk = vec![10.0; f.users.len()]; // unreachable (scores ≤ 1)
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let got = select_candidate(&cc, &su, 10.0, KeywordSelector::Exact);
        assert_eq!(got.cardinality(), 0);
    }

    #[test]
    fn single_location_still_selects_keywords() {
        let f = fixture();
        let mut spec = f.spec.clone();
        spec.locations = vec![spec.locations[0]];
        let cc = CandidateContext::new(&f.ctx, &spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let got = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert_eq!(got.location, 0);
        assert!(!got.keywords.is_empty() || !got.brstknn.is_empty());
    }

    #[test]
    fn near_location_beats_far_location() {
        let f = fixture();
        // Location 0 sits among the users; location 1 is far away. With
        // α = 0.5 the near location must win.
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let got = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert_eq!(got.location, 0);
    }

    #[test]
    fn returned_keywords_respect_ws() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        for sel in [KeywordSelector::Greedy, KeywordSelector::Exact] {
            let got = select_candidate(&cc, &su, f64::NEG_INFINITY, sel);
            assert!(got.keywords.len() <= f.spec.ws);
            for w in &got.keywords {
                assert!(f.spec.keywords.contains(w) || f.spec.ox_doc.contains(*w));
            }
        }
    }

    #[test]
    fn unreachable_users_are_ignored() {
        let mut f = fixture();
        // Add a user sharing nothing with ox.d ∪ W.
        f.users.push(crate::UserData {
            id: 6,
            point: f.spec.locations[0],
            doc: Document::from_terms([t(77)]),
        });
        let mut rsk = f.rsk.clone();
        rsk.push(f64::NEG_INFINITY); // would qualify on score alone
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let got = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert!(!got.brstknn.contains(&6));
    }

    /// A held evaluation counts each location exactly — it beats a best
    /// one user short of the reference count and leaves alone one equal to
    /// it — and materialises the reference's BRSTkNN users in the
    /// location's own `lu` order, whether or not the bands decide them
    /// (here held over random, widely spread locations, so many stay
    /// open, and over locations 1e-9 apart, where the bands decide every
    /// `LUW` row; where they leave a row open, `hold` declines, as the
    /// reference `luw_decided` does, and the test keeps the verdicts of
    /// the keywords the rows give at the bands' low ends). It is reused by
    /// the name of the list it was held for
    /// and by no other: a second name holding the same members is
    /// evaluated in full, and gives the reference's answer — the held one
    /// where the bands decide every `LUW` row.
    #[test]
    fn held_evaluation_counts_and_reuses_by_name() {
        use crate::select::reference;
        use crate::select::test_fixture::random_fixture;
        let (mut open, mut beaten, mut decided) = (0, 0, 0);
        for seed in 0..24 {
            let mut f = random_fixture(seed + 60, 48, 9);
            if seed % 3 == 2 {
                let at = f.spec.locations[0];
                for (i, l) in f.spec.locations.iter_mut().enumerate() {
                    *l = Point::new(at.x + i as f64 * 1e-9, at.y);
                }
            }
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let n = cc.num_users();
            let lu: Vec<usize> = (0..n).filter(|&u| cc.user_reachable(u)).collect();
            let rev: Vec<usize> = lu.iter().rev().copied().collect();
            let (mut gr, mut cand) = (GreedyScratch::default(), Vec::new());
            // Held where the bands decide every `LUW` row; elsewhere with
            // the keywords its rows give at the bands' low ends, so that
            // many users stay open under them. Verdicts are kept by
            // position, so each order is held on its own.
            let mut hold = |sel: &mut SelectScratch, order: &[usize]| {
                let decided = sel.held.hold(&cc, order, 0, &mut gr, &mut cand);
                assert_eq!(decided, reference::luw_decided(&cc, order), "seed {seed}");
                if !decided {
                    let lo: Vec<f64> = order.iter().map(|&u| cc.cols.band_lo[u]).collect();
                    greedy::greedy_keywords_into(&cc, order, &lo, &mut gr, &mut sel.held.kw);
                    sel.held.keep_verdicts(&cc, order, 0, &mut cand);
                }
                decided
            };
            for order in [&lu, &rev] {
                let mut sel = SelectScratch::default();
                hold(&mut sel, order);
                if order == &lu {
                    open += sel.held.open.len();
                }
                for li in 0..f.spec.locations.len() {
                    let loc = &f.spec.locations[li];
                    let want = cc.brstknn(loc, &cc.with_keywords(&sel.held.kw), order);
                    for short in [1, 0] {
                        let Some(len) = want.len().checked_sub(short) else {
                            continue;
                        };
                        sel.best.clear();
                        sel.best.count = len;
                        let mut out = QueryResult {
                            location: usize::MAX,
                            keywords: Vec::new(),
                            brstknn: Vec::new(),
                        };
                        sel.held.count_at(&cc, li, order, &mut sel.best, &mut out);
                        if short == 1 {
                            materialise_winner(&cc, &mut sel, &mut out);
                            let beat = QueryResult {
                                location: li,
                                keywords: sel.held.kw.clone(),
                                brstknn: want.clone(),
                            };
                            assert_eq!(out, beat, "seed {seed}, loc {li}");
                            beaten += 1;
                        } else {
                            assert_eq!(out.location, usize::MAX, "seed {seed}, loc {li}");
                            assert_eq!(sel.best.count(), len, "seed {seed}, loc {li}");
                        }
                    }
                }
            }

            // Through `evaluate_location`, at every location: the held
            // list reuses at once; a second name with the same members,
            // and a list one user shorter, are evaluated in full.
            let short = lu[1..].to_vec();
            let mut sel = SelectScratch::default();
            sel.begin();
            let luw_decided = hold(&mut sel, &lu);
            assert!(sel.held.held_for(0) && !sel.held.held_for(1));
            for li in 0..f.spec.locations.len() {
                let mut answers = Vec::new();
                for (list, set, reuses) in [(0, &lu, true), (1, &lu, false), (2, &short, false)] {
                    let before = sel.locations.reused;
                    let mut out = QueryResult::default();
                    sel.locations.dequeued += 1;
                    sel.best.clear();
                    evaluate_location(
                        &cc,
                        li,
                        set,
                        list,
                        false,
                        KeywordSelector::Greedy,
                        &mut sel,
                        &mut out,
                    );
                    materialise_winner(&cc, &mut sel, &mut out);
                    let at = format!("seed {seed}, loc {li}, list {list}");
                    assert_eq!(sel.locations.reused - before, u64::from(reuses), "{at}");
                    answers.push(out);
                }
                let kw = reference::greedy_keywords(&cc, li, &lu);
                let users = cc.brstknn(&f.spec.locations[li], &cc.with_keywords(&kw), &lu);
                if !users.is_empty() {
                    let want = QueryResult {
                        location: li,
                        keywords: kw,
                        brstknn: users,
                    };
                    assert_eq!(answers[1], want, "seed {seed}, loc {li}: full evaluation");
                }
                if luw_decided {
                    assert_eq!(answers[1], answers[0], "seed {seed}, loc {li}: held answer");
                    decided += 1;
                }
            }
            let l = sel.locations;
            let m = f.spec.locations.len() as u64;
            assert_eq!((l.evaluated, l.reused), (2 * m, m), "seed {seed}");
            assert_eq!(l.evaluated + l.reused, l.dequeued, "seed {seed}");
        }
        assert!(
            open > 40 && beaten > 150 && decided > 20,
            "coverage: {open} open, {beaten} beaten, {decided} decided"
        );
    }

    /// The one-pass hold against its references: `reference::luw_decided`
    /// and `build_luw_into` at the bands' low ends, which the full path
    /// keeps. Over random fixtures, a third of them with locations 1e-9
    /// apart, and over every reachable user and a sparser list, the
    /// one-pass build returns the reference's decided flag and, when
    /// decided, its `LUW` rows, which are also every location's rows, and
    /// the keywords `K` the cover picks from them. Held with `K` (or, where
    /// a row is open, with the keywords of the rows at the low ends), the
    /// kept verdicts materialise at every location the ids, in `lu` order,
    /// that re-deriving each user's band verdict gives
    /// (`reference::held_ids`), which are the exact BRSTkNN users.
    #[test]
    fn one_pass_hold_and_kept_verdicts_match_the_reference() {
        use crate::select::reference;
        use crate::select::test_fixture::random_fixture;
        let (mut decided, mut undecided, mut open_fails, mut open_passes) = (0, 0, 0, 0);
        for seed in 0..24 {
            let mut f = random_fixture(seed + 60, 48, 9);
            if seed % 3 == 2 {
                let at = f.spec.locations[0];
                for (i, l) in f.spec.locations.iter_mut().enumerate() {
                    *l = Point::new(at.x + i as f64 * 1e-9, at.y);
                }
            }
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let all: Vec<usize> = (0..cc.num_users())
                .filter(|&u| cc.user_reachable(u))
                .collect();
            let sparse: Vec<usize> = all.iter().copied().filter(|u| u % 3 != 1).collect();
            for lu in [&all, &sparse] {
                let at = format!("seed {seed}, |lu| {}", lu.len());
                let (mut one, mut two) = (GreedyScratch::default(), GreedyScratch::default());
                let lo: Vec<f64> = lu.iter().map(|&u| cc.cols.band_lo[u]).collect();
                let is_decided = greedy::build_decided_luw_into(&cc, lu, &mut one);
                assert_eq!(is_decided, reference::luw_decided(&cc, lu), "{at}");
                let mut want_kw = Vec::new();
                greedy::greedy_keywords_into(&cc, lu, &lo, &mut two, &mut want_kw);
                let mut held = HeldEvaluation::default();
                let mut cand = Vec::new();
                if is_decided {
                    decided += 1;
                    assert_eq!(one.luw, two.luw, "{at}");
                    assert_eq!(one.luw_len, two.luw_len, "{at}");
                    for li in 0..f.spec.locations.len() {
                        let mut ss = Vec::new();
                        cc.fill_ss(&f.spec.locations[li], lu, &mut ss);
                        greedy::build_luw_into(&cc, lu, &ss, &mut two);
                        assert_eq!(one.luw, two.luw, "{at}, loc {li}");
                    }
                    assert!(held.hold(&cc, lu, 7, &mut one, &mut cand), "{at}");
                    assert_eq!(held.kw, want_kw, "{at}");
                } else {
                    undecided += 1;
                    assert!(!held.hold(&cc, lu, 7, &mut one, &mut cand), "{at}");
                    assert!(!held.held_for(7), "{at}");
                    held.kw.clone_from(&want_kw);
                    held.keep_verdicts(&cc, lu, 7, &mut cand);
                }
                assert!(held.held_for(7) && held.verdicts.len() == lu.len(), "{at}");
                for li in 0..f.spec.locations.len() {
                    let loc = &f.spec.locations[li];
                    let mut got = Vec::new();
                    held.materialise(&cc, li, lu, &mut got);
                    let want = reference::held_ids(&cc, li, lu, &held.kw);
                    assert_eq!(got, want, "{at}, loc {li}");
                    assert_eq!(
                        want,
                        cc.brstknn(loc, &cc.with_keywords(&held.kw), lu),
                        "{at}, loc {li}"
                    );
                    for &(u, ts) in &held.open {
                        if super::open_passes(&cc, loc, u, ts) {
                            open_passes += 1;
                        } else {
                            open_fails += 1;
                        }
                    }
                }
            }
        }
        assert!(
            decided > 10 && undecided > 10 && open_fails > 40 && open_passes > 40,
            "coverage: {decided} decided, {undecided} not, open verdicts {open_passes} passing \
             and {open_fails} failing"
        );
    }

    /// Where [`band_engine`] puts the candidate locations.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Layout {
        /// Five locations within 1e-6 of (10, 4), one of them just outside
        /// the dataspace: the spatial bands decide every test.
        Clustered,
        /// Five locations over the whole space and one beyond `dmax` of
        /// most users: the bands decide almost nothing.
        Spread,
        /// Three locations near (3, 3), two farther off and one outside.
        Mixed,
    }

    /// An engine with a user index over 80 objects and 60 users in the
    /// dataspace [0, 10]² (two objects pin its corners, twelve users crowd
    /// [9, 10] × [3, 5]), and a query whose locations follow `layout`. `W`
    /// holds t0..t5 and t11, a term no object holds: under TF-IDF a user
    /// holding t11 alone has `N(u) = 0`. Users also hold t6..t10, outside
    /// `W`, so some are unreachable. Under TF-IDF `ox.d = {t6}` and the
    /// `LBL` shortcut is live; under LM `ox.d` is empty. `k = 3`, `ws = 2`.
    /// `seed` draws the objects and users.
    pub(crate) fn band_engine(
        layout: Layout,
        model: WeightModel,
        alpha: f64,
        seed: u64,
    ) -> (crate::Engine, QuerySpec) {
        use crate::ObjectData;
        let mut next = stream(seed);
        let mut objects: Vec<ObjectData> = (0..80)
            .map(|i| ObjectData {
                id: i,
                point: Point::new(next(1001) as f64 / 100.0, next(1001) as f64 / 100.0),
                doc: Document::from_pairs(
                    (0..1 + next(3)).map(|_| (t(next(11) as u32), 1 + next(3) as u32)),
                ),
            })
            .collect();
        objects[0].point = Point::new(0.0, 0.0);
        objects[1].point = Point::new(10.0, 10.0);
        let mut users: Vec<UserData> = (0..60)
            .map(|i| UserData {
                id: i,
                point: Point::new(next(1001) as f64 / 100.0, next(1001) as f64 / 100.0),
                doc: Document::from_terms((0..1 + next(3)).map(|_| t(next(11) as u32))),
            })
            .collect();
        users[0].doc = Document::from_terms([t(11)]);
        users[1].doc = Document::from_terms([t(11), t(2)]);
        // A clump near the clustered locations, so that even a purely
        // spatial score reaches some thresholds there.
        for u in &mut users[2..14] {
            u.point = Point::new(
                9.0 + next(101) as f64 / 100.0,
                3.0 + next(201) as f64 / 100.0,
            );
        }
        let locations = match layout {
            Layout::Clustered => [
                (0.0, 0.0),
                (1.0, -1.0),
                (-1.0, 1.0),
                (-1.0, -1.0),
                (-0.5, 1.0),
            ]
            .map(|(dx, dy)| Point::new(10.0 + dx * 1e-6, 4.0 + dy * 1e-6))
            .to_vec(),
            Layout::Spread => vec![
                Point::new(1.0, 1.5),
                Point::new(9.0, 8.5),
                Point::new(2.0, 9.0),
                Point::new(8.0, 2.0),
                Point::new(5.0, 5.0),
                Point::new(14.0, -3.0),
            ],
            Layout::Mixed => vec![
                Point::new(3.0, 3.0),
                Point::new(3.1, 2.9),
                Point::new(2.9, 3.2),
                Point::new(5.5, 4.0),
                Point::new(4.0, 6.0),
                Point::new(10.5, 5.0),
            ],
        };
        let ox_doc = if matches!(model, WeightModel::TfIdf) {
            Document::from_terms([t(6)])
        } else {
            Document::new()
        };
        let spec = QuerySpec {
            ox_doc,
            locations,
            keywords: [0, 1, 2, 3, 4, 5, 11].map(t).to_vec(),
            ws: 2,
            k: 3,
        };
        let engine =
            crate::Engine::build_with_fanout(objects, users, model, alpha, 4).with_user_index();
        (engine, spec)
    }

    /// The banded path against the reference, on locations the bands
    /// decide (clustered), barely decide (spread) and partly decide
    /// (mixed), each with one location outside the dataspace, under
    /// α ∈ {0, ½, 1}, LM and TF-IDF, users with `RSk = −∞` and with
    /// `N(u) = 0`, and all three selectors. Algorithm 3 must return the
    /// reference's tuple exactly (`rsk_us` live and off). The §7 pipeline
    /// visits locations in its own order, so its tuple is held to the
    /// reference's cardinality, to the exact BRSTkNN set of the tuple it
    /// returns, and to the reference keywords of that location's `LU`
    /// list. On the clustered layout greedy evaluates at most one location
    /// per run and reuses it at the rest; on a spread run with α > 0 it
    /// never reuses (α = 0 makes every test location-free).
    #[test]
    fn banded_selection_matches_reference_on_three_layouts() {
        use crate::arena::QueryArena;
        use crate::select::reference;
        use crate::user_index::run_selection;
        let (mut n_inf, mut n_zero, mut reused) = (0, 0, [0; 3]);
        for layout in [Layout::Clustered, Layout::Spread, Layout::Mixed] {
            for model in [WeightModel::lm(), WeightModel::TfIdf] {
                for alpha in [0.0, 0.5, 1.0] {
                    let (eng, spec) = band_engine(layout, model, alpha, 26);
                    let jt = eng.joint_thresholds(spec.k);
                    let cc = CandidateContext::new(&eng.ctx, &spec, &eng.users, &jt.rsk);
                    // Algorithm 3 also runs with two users stripped of their
                    // threshold, as if fewer than k objects were in reach
                    // (the §7 pipeline derives its own from the index).
                    let mut rsk = jt.rsk.clone();
                    rsk[1] = f64::NEG_INFINITY;
                    rsk[20] = f64::NEG_INFINITY;
                    let forced = CandidateContext::new(&eng.ctx, &spec, &eng.users, &rsk);
                    let reachable = |u: &usize| cc.user_reachable(*u);
                    n_inf += (0..cc.num_users())
                        .filter(|u| reachable(u) && forced.cols.rsk[*u] == f64::NEG_INFINITY)
                        .count();
                    n_zero += (0..cc.num_users())
                        .filter(|u| reachable(u) && cc.cols.n_u[*u] == 0.0)
                        .count();
                    let seed = eng.user_index_seed(spec.k);
                    let miur = eng.miur.as_ref().expect("built with a user index");
                    for selector in [
                        KeywordSelector::Greedy,
                        KeywordSelector::GreedyPlus,
                        KeywordSelector::Exact,
                    ] {
                        let at = format!("{layout:?}, {model:?}, α {alpha}, {selector:?}");
                        // Per run: reused, and evaluated past the first.
                        let mut tally = |l: LocationCounts| {
                            assert_eq!(l.evaluated + l.reused, l.dequeued, "{at}");
                            let greedy = selector == KeywordSelector::Greedy;
                            if greedy && layout == Layout::Clustered {
                                // One evaluation; every later location reuses it.
                                assert!(l.evaluated <= 1, "{at}: {l:?}");
                            }
                            if !greedy || (layout == Layout::Spread && alpha > 0.0) {
                                assert_eq!(l.reused, 0, "{at}: {l:?}");
                            }
                            reused[layout as usize] += l.reused;
                        };
                        for rsk_us in [jt.out.rsk_us, f64::NEG_INFINITY] {
                            let mut sel = SelectScratch::default();
                            let mut got = QueryResult::default();
                            select_candidate_into(
                                &forced, &jt.su, rsk_us, selector, &mut sel, &mut got,
                            );
                            let want =
                                reference::select_candidate(&forced, &jt.su, rsk_us, selector);
                            assert_eq!(got, want, "{at}, rsk_us {rsk_us}");
                            tally(sel.locations);
                        }

                        let mut arena = QueryArena::new();
                        let mut got = QueryResult::default();
                        run_selection(
                            miur, &spec, &eng.ctx, selector, &eng.io, &seed, None, &mut arena,
                            &mut got,
                        );
                        let want =
                            reference::select_candidate(&cc, &jt.su, jt.out.rsk_us, selector);
                        assert_eq!(got.cardinality(), want.cardinality(), "§7 {at}");
                        let loc = &spec.locations[got.location];
                        let all: Vec<usize> = (0..cc.num_users()).collect();
                        let mut exact = cc.brstknn(loc, &cc.with_keywords(&got.keywords), &all);
                        let mut ids = got.brstknn.clone();
                        exact.sort_unstable();
                        ids.sort_unstable();
                        assert_eq!(ids, exact, "§7 {at}: the answer's users");
                        if !got.keywords.is_empty() {
                            let lu: Vec<usize> = all
                                .iter()
                                .copied()
                                .filter(|&u| reachable(&u) && cc.ubl_user(loc, u) >= cc.cols.rsk[u])
                                .collect();
                            let kw = match selector {
                                KeywordSelector::Greedy => {
                                    reference::greedy_keywords(&cc, got.location, &lu)
                                }
                                KeywordSelector::GreedyPlus => {
                                    reference::greedy_plus_keywords(&cc, got.location, &lu)
                                }
                                KeywordSelector::Exact => {
                                    reference::exact_keywords(&cc, got.location, &lu)
                                }
                            };
                            assert_eq!(got.keywords, kw, "§7 {at}: the answer's keywords");
                        }
                        tally(arena.sel.locations);
                    }
                }
            }
        }
        assert!(
            n_inf > 0 && n_zero > 0,
            "{n_inf} RSk = −∞, {n_zero} N(u) = 0"
        );
        assert!(reused[Layout::Clustered as usize] > 40, "reused {reused:?}");
    }

    /// 400 objects and 150 users over [0, 100]², each holding a few terms
    /// of 160 (skewed, so some are common), and eight queries: `ws` 1 and
    /// 3, `k` 1 and 10, three locations, and either sixteen drawn keywords
    /// (one repeated) with `ox.d` empty, or the sixteen highest of 70
    /// drawn terms with `ox.d` the other 54 and the lowest of the sixteen.
    fn sparse_engine(model: WeightModel, seed: u64) -> (crate::Engine, Vec<QuerySpec>) {
        let mut next = stream(seed);
        let mut term = || {
            let cap = 1 + next(160);
            t((next(cap) * 37 % 160) as u32)
        };
        let docs: Vec<Vec<TermId>> = (0..550)
            .map(|i| (0..1 + i % 4).map(|_| term()).collect())
            .collect();
        let mut next = stream(seed + 1);
        let mut at = || Point::new(next(10_000) as f64 / 100.0, next(10_000) as f64 / 100.0);
        let objects: Vec<crate::ObjectData> = (0..400)
            .map(|i| crate::ObjectData {
                id: i,
                point: at(),
                doc: Document::from_terms(docs[i as usize].iter().copied()),
            })
            .collect();
        let users: Vec<UserData> = (0..150)
            .map(|i| UserData {
                id: i,
                point: at(),
                doc: Document::from_terms(docs[400 + i as usize].iter().copied()),
            })
            .collect();
        let mut next = stream(seed + 2);
        let mut specs = Vec::new();
        for ws in [1, 3] {
            for k in [1, 10] {
                for with_ox in [false, true] {
                    let mut terms: Vec<u32> = (0..160).collect();
                    for i in (1..terms.len()).rev() {
                        terms.swap(i, next(i as u64 + 1) as usize);
                    }
                    terms.truncate(if with_ox { 70 } else { 16 });
                    let mut by_id = terms.clone();
                    by_id.sort_unstable();
                    let cut = by_id[by_id.len() - 16];
                    let mut keywords: Vec<TermId> =
                        terms.iter().filter(|&&x| x >= cut).map(|&x| t(x)).collect();
                    keywords.push(keywords[0]);
                    let ox = if with_ox { by_id.len() - 15 } else { 0 };
                    specs.push(QuerySpec {
                        ox_doc: Document::from_terms(by_id[..ox].iter().map(|&x| t(x))),
                        locations: (0..3).map(|_| at()).collect(),
                        keywords,
                        ws,
                        k,
                    });
                }
            }
        }
        let engine =
            crate::Engine::build_with_fanout(objects, users, model, 0.5, 8).with_user_index();
        (engine, specs)
    }

    /// What the eager reference saw over every run of
    /// [`deferred_winner_matches_the_eager_reference`].
    #[derive(Debug, Default)]
    struct Seen {
        /// Runs whose best improved more than once.
        improved_twice: usize,
        /// Locations whose count tied a non-zero best.
        ties: usize,
        /// Winners per settle kind: held, shortcut, full.
        won: [usize; 3],
        /// Algorithm 3's held winners on a list other than its first slot.
        held_off_first: usize,
    }

    impl Seen {
        fn run(&mut self, log: &[(usize, usize, Settled)]) {
            let (mut best, mut improved, mut last) = (0, 0, None);
            for &(_, count, settled) in log {
                if count > best {
                    (best, improved, last) = (count, improved + 1, Some(settled));
                } else if count == best && count > 0 {
                    self.ties += 1;
                }
            }
            self.improved_twice += usize::from(improved > 1);
            if let Some(settled) = last {
                self.won[settled as usize] += 1;
            }
        }
    }

    /// The winner materialised once, after the queue drains, against the
    /// reference that materialises at every improvement from the `lu`
    /// under evaluation ([`Winner::eager`]): the same `QueryResult` and
    /// `LocationCounts`, for all three selectors, on Algorithm 3 (random
    /// and edge fixtures with `ox.d` kept, emptied or holding every term,
    /// `rsk_us` live and off) and on Algorithm 3 and the §7 pipeline over
    /// the band engines (`ox.d` empty under LM, not under TF-IDF, every
    /// term on a quarter of them, where the `LBL` shortcut settles
    /// locations) and the sparse engines. One pooled scratch serves every
    /// deferred run, so a stale winner would show. It asserts its
    /// coverage: runs whose best improved more than once, ties, a winner
    /// of every settle kind, and a held winner on a list other than
    /// Algorithm 3's first slot.
    #[test]
    fn deferred_winner_matches_the_eager_reference() {
        use crate::arena::QueryArena;
        use crate::select::test_fixture::{edge_fixture, random_fixture, t};
        use crate::user_index::run_selection;
        const SELECTORS: [KeywordSelector; 3] = [
            KeywordSelector::Greedy,
            KeywordSelector::GreedyPlus,
            KeywordSelector::Exact,
        ];
        fn alg3(
            cc: &CandidateContext<'_>,
            su: &UserGroup,
            rsk_us: f64,
            pooled: &mut SelectScratch,
            seen: &mut Seen,
            at: &str,
        ) {
            for selector in SELECTORS {
                let mut eager = SelectScratch::default();
                eager.best.eager = true;
                let mut want = QueryResult::default();
                select_candidate_into(cc, su, rsk_us, selector, &mut eager, &mut want);
                let mut got = QueryResult::default();
                select_candidate_into(cc, su, rsk_us, selector, pooled, &mut got);
                let at = format!("{at}, rsk_us {rsk_us}, {selector:?}");
                assert_eq!(got, want, "{at}");
                assert_eq!(pooled.locations, eager.locations, "{at}");
                seen.run(&eager.best.log);
                let best = &pooled.best;
                seen.held_off_first += usize::from(
                    best.count > 0
                        && best.settled == Settled::Held
                        && pooled.lu_bufs.first() != Some(&best.lu),
                );
            }
        }
        let mut seen = Seen::default();
        let mut pooled = SelectScratch::default();
        for seed in 0..24 {
            let mut f = if seed % 3 == 1 {
                edge_fixture(seed + 80, 1 + seed as usize % 4)
            } else {
                random_fixture(seed + 80, 48, 9)
            };
            if seed % 3 == 2 {
                // Every user shares `ox.d`, which holds every term: where
                // a user may qualify, it does on `ox.d` alone.
                f.spec.ox_doc = Document::from_terms((0..25).map(t));
            } else if seed % 2 == 1 {
                f.spec.ox_doc = Document::new();
            }
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let su = UserGroup::from_users(&f.users, &f.ctx.text);
            for rsk_us in [f64::NEG_INFINITY, 0.0] {
                alg3(
                    &cc,
                    &su,
                    rsk_us,
                    &mut pooled,
                    &mut seen,
                    &format!("fixture {seed}"),
                );
            }
        }
        // Algorithm 3 and the §7 pipeline on one engine and query.
        let mut arena = QueryArena::new();
        let mut both = |eng: &crate::Engine, spec: &QuerySpec, at: &str, s7: &mut Seen| {
            let jt = eng.joint_thresholds(spec.k);
            let cc = CandidateContext::new(&eng.ctx, spec, &eng.users, &jt.rsk);
            for rsk_us in [jt.out.rsk_us, f64::NEG_INFINITY] {
                alg3(&cc, &jt.su, rsk_us, &mut pooled, &mut seen, at);
            }
            let ui_seed = eng.user_index_seed(spec.k);
            let miur = eng.miur.as_ref().expect("built with a user index");
            for selector in SELECTORS {
                let at = format!("§7 {at}, {selector:?}");
                let mut eager = QueryArena::new();
                eager.sel.best.eager = true;
                let mut runs = [QueryResult::default(), QueryResult::default()];
                let mut scored = [(0, 0); 2];
                for (i, a) in [&mut eager, &mut arena].into_iter().enumerate() {
                    scored[i] = run_selection(
                        miur,
                        spec,
                        &eng.ctx,
                        selector,
                        &eng.io,
                        &ui_seed,
                        None,
                        a,
                        &mut runs[i],
                    );
                }
                assert_eq!(runs[1], runs[0], "{at}");
                assert_eq!(arena.sel.locations, eager.sel.locations, "{at}");
                assert_eq!(scored[1], scored[0], "{at}");
                s7.run(&eager.sel.best.log);
            }
        };
        let mut s7 = Seen::default();
        for layout in [Layout::Clustered, Layout::Spread, Layout::Mixed] {
            for model in [WeightModel::lm(), WeightModel::TfIdf] {
                for seed in 26..38 {
                    let alpha = [0.5, 1.0, 0.3][seed as usize % 3];
                    let (eng, mut spec) = band_engine(layout, model, alpha, seed);
                    if seed % 4 == 3 {
                        spec.ox_doc = Document::from_terms((0..12).map(t));
                    }
                    let at = format!("{layout:?}, {model:?}, α {alpha}, seed {seed}");
                    both(&eng, &spec, &at, &mut s7);
                }
            }
        }
        // Sparse users over a wide space, few of them per answer: where
        // the bands leave some `UBL` tests open, Algorithm 3 holds an
        // evaluation for a list other than its first.
        for model in [
            WeightModel::lm(),
            WeightModel::TfIdf,
            WeightModel::KeywordOverlap,
        ] {
            let (eng, specs) = sparse_engine(model, 3);
            for (i, spec) in specs.iter().enumerate() {
                both(&eng, spec, &format!("sparse {model:?}, spec {i}"), &mut s7);
            }
        }
        for (at, seen) in [("Algorithm 3", &seen), ("§7", &s7)] {
            assert!(
                seen.improved_twice >= 10 && seen.ties > 100 && seen.won.iter().all(|&n| n > 10),
                "{at} coverage: {seen:?}"
            );
        }
        assert!(seen.held_off_first > 0, "coverage: {seen:?}");
    }
}

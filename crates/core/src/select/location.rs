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

use crate::arena::SelectScratch;
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
/// `out`; queue, per-location `LU` lists, spatial-score columns, and the
/// keyword-selection buffers all come from `sel`.
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

    // The textual halves of the group bounds don't depend on the location;
    // hoist them so the per-location checks are two float ops each.
    let su_ubl_ts = cc.ubl_group_ts(su);
    let su_lbl_ts = cc.lbl_group_ts(su);

    // Step 1: per-location candidate user lists from the UBL bounds, each
    // beside the spatial scores the filter computed (step 2 needs them
    // again). The lists live in pooled slots; the queue carries
    // (location, slot).
    sel.ql.clear();
    let mut slots = 0usize;
    for (li, loc) in cc.spec.locations.iter().enumerate() {
        if cc.ubl_group_with_ts(loc, su, su_ubl_ts) < rsk_us {
            continue; // no user can be a BRSTkNN here (Lemma 2/3)
        }
        if slots == sel.lu_bufs.len() {
            sel.lu_bufs.push(Vec::new());
        }
        if slots == sel.ss_bufs.len() {
            sel.ss_bufs.push(Vec::new());
        }
        let (lu, ss) = (&mut sel.lu_bufs[slots], &mut sel.ss_bufs[slots]);
        lu.clear();
        ss.clear();
        for u in 0..cc.num_users() {
            if !cc.user_reachable(u) {
                continue;
            }
            let s = cc.ss_at(loc, u);
            if cc.ubl_user_with_ss(s, u) >= cc.rsk[u] {
                lu.push(u);
                ss.push(s);
            }
        }
        if !lu.is_empty() {
            sel.ql.push(ByKey {
                key: lu.len() as f64,
                item: (li, slots),
            });
            slots += 1;
        }
    }

    // Step 2: best-first over locations with early termination.
    while let Some(ByKey {
        item: (li, slot), ..
    }) = sel.ql.pop()
    {
        if sel.lu_bufs[slot].len() <= out.brstknn.len() && !out.brstknn.is_empty() {
            break; // |LU| bounds the achievable count — nothing better left
        }
        // LBL shortcut: every LU user qualifies with ox.d alone.
        let shortcut = cc.lbl_group_with_ts(&cc.spec.locations[li], su, su_lbl_ts) >= rsk_us;
        let (lu, ss) = (
            std::mem::take(&mut sel.lu_bufs[slot]),
            std::mem::take(&mut sel.ss_bufs[slot]),
        );
        evaluate_location(cc, li, &lu, &ss, shortcut, selector, sel, out);
        sel.lu_bufs[slot] = lu;
        sel.ss_bufs[slot] = ss;
    }
}

/// Algorithm 3's work on one dequeued location, shared with the §7
/// pipeline: `lu` indexes the context's users, `ss` holds their spatial
/// scores at location `li`. With `shortcut` set, a location where all of
/// `lu` already qualifies on `ox.d` alone is settled without keyword
/// selection; otherwise `selector` picks the keywords and the realized
/// BRSTkNN set is counted exactly. `out` is replaced on improvement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_location(
    cc: &CandidateContext<'_>,
    li: usize,
    lu: &[usize],
    ss: &[f64],
    shortcut: bool,
    selector: KeywordSelector,
    sel: &mut SelectScratch,
    out: &mut QueryResult,
) {
    let SelectScratch {
        cand,
        users_out,
        kw,
        gr,
        ex,
        ..
    } = sel;
    kw.clear();
    let mut settled = false;
    if shortcut && !cc.spec.ox_doc.is_empty() {
        cc.brstknn_into(&cc.ox_bits, lu, ss, users_out);
        // The shortcut is only complete when it captures the whole list;
        // otherwise keyword selection could still add users.
        settled = users_out.len() == lu.len();
    }
    if !settled {
        match selector {
            KeywordSelector::Greedy => greedy::greedy_keywords_into(cc, lu, ss, gr, kw),
            KeywordSelector::GreedyPlus => greedy::greedy_plus_keywords_into(cc, lu, ss, gr, kw),
            KeywordSelector::Exact => exact::exact_keywords_into(cc, lu, ss, ex, kw),
        }
        cc.cand_set(kw, cand);
        cc.brstknn_into(cand, lu, ss, users_out);
    }
    if users_out.len() > out.brstknn.len() {
        out.location = li;
        out.keywords.clear();
        out.keywords.extend_from_slice(kw);
        std::mem::swap(users_out, &mut out.brstknn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::test_fixture::{fixture, t};
    use crate::select::CandidateContext;
    use text::Document;

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
}

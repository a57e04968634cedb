//! §4 baseline candidate selection: exhaustive enumeration.
//!
//! Generates every combination of exactly `ws` keywords from `W` and
//! considers every ⟨location, combination⟩ tuple against all users — no
//! bounds, no pruning, no best-first ordering. This is the comparison
//! point for the candidate-selection runtimes in Figs. 5c–14c.
//!
//! The enumeration is semantically exhaustive but *scored incrementally*:
//! per location the `ox.d`-only verdict is computed once per user, and
//! each combination then re-evaluates only the users holding one of its
//! keywords (via the crate-private `DeltaScan`) — every untouched user's
//! score is bit-identical to the `ox.d`-only one, so the counts (and the
//! winning tuple) are exactly those of the naive full rescan.

use crate::arena::SelectScratch;
use crate::select::location::{materialise_winner, Settled};
use crate::select::CandidateContext;
use crate::QueryResult;

/// Exhaustive ⟨ℓ, c⟩ scan. Returns the best tuple (exact result, like
/// Algorithm 4, but at full enumeration cost).
///
/// # Panics
/// Panics when the query has no candidate locations.
pub fn baseline_select(cc: &CandidateContext<'_>) -> QueryResult {
    let mut sel = SelectScratch::default();
    let mut out = QueryResult::default();
    baseline_select_into(cc, &mut sel, &mut out);
    out
}

/// [`baseline_select`] into arena scratch: the winning tuple lands in
/// `out`, and every buffer the scan touches comes from `sel`.
///
/// # Panics
/// Panics when the query has no candidate locations.
pub(crate) fn baseline_select_into(
    cc: &CandidateContext<'_>,
    sel: &mut SelectScratch,
    out: &mut QueryResult,
) {
    assert!(
        !cc.spec.locations.is_empty(),
        "MaxBRSTkNN requires at least one candidate location"
    );
    out.clear();
    sel.begin();

    let SelectScratch {
        lu_bufs,
        ss,
        cand,
        kw,
        combos,
        delta,
        best,
        ..
    } = &mut *sel;
    if lu_bufs.is_empty() {
        lu_bufs.push(Vec::new());
    }
    let all_users = &mut lu_bufs[0];
    all_users.clear();
    all_users.extend(0..cc.num_users());

    // All combinations of exactly ws keywords (or all of W when smaller —
    // the baseline returns exactly ws keywords per the paper). With none,
    // the single (empty) combination per location.
    let k = cc.spec.ws.min(cc.spec.keywords.len());
    // The holder rows are location-independent; build them once.
    delta.build(cc, &cc.cols.kw_slots, all_users, 0..all_users.len());
    for (li, loc) in cc.spec.locations.iter().enumerate() {
        cc.fill_ss(loc, all_users, ss);
        // ⟨ℓ, ox.d⟩ verdict per user: every combination's count is this
        // baseline plus a delta over the holders of its keywords.
        delta.q0.clear();
        let mut count0 = 0usize;
        cc.for_each_verdict(&cc.cols.ox_bits, all_users, ss, |_, q| {
            delta.q0.push(q);
            count0 += usize::from(q);
        });
        if k == 0 {
            best.improve(li, count0, Settled::Full, all_users, &[], out);
            continue;
        }
        combos.reset(cc.spec.keywords.len(), k);
        while let Some(ix) = combos.next_ref() {
            // A combination can move at most its holders' verdicts.
            if count0 + delta.potential(ix.iter().copied()) <= best.count() {
                continue;
            }
            let touched = delta.gather(ix.iter().copied());
            if count0 + touched <= best.count() {
                continue;
            }
            cc.cand_set_slots(ix.iter().map(|&i| cc.cols.kw_slots[i]), cand);
            let mut count = count0;
            for &p in delta.touched() {
                let p = p as usize;
                let q1 = cc.qualifies_with_ss(ss[p], cand, all_users[p]);
                if q1 && !delta.q0[p] {
                    count += 1;
                } else if !q1 && delta.q0[p] {
                    count -= 1;
                }
            }
            if count > best.count() {
                kw.clear();
                kw.extend(ix.iter().map(|&i| cc.spec.keywords[i]));
                best.improve(li, count, Settled::Full, all_users, kw, out);
            }
        }
    }
    // The scan above only counted; materialise the winner once.
    materialise_winner(cc, sel, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::location::{select_candidate, KeywordSelector};
    use crate::select::test_fixture::fixture;
    use crate::select::CandidateContext;
    use crate::UserGroup;

    #[test]
    fn baseline_agrees_with_exact_algorithm() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let su = UserGroup::from_users(&f.users, &f.ctx.text);
        let b = baseline_select(&cc);
        let e = select_candidate(&cc, &su, f64::NEG_INFINITY, KeywordSelector::Exact);
        assert_eq!(b.cardinality(), e.cardinality());
    }

    #[test]
    fn baseline_returns_exactly_ws_keywords() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let b = baseline_select(&cc);
        assert_eq!(b.keywords.len(), f.spec.ws);
    }

    /// The delta-scan enumeration must reproduce the naive full rescan —
    /// winning tuple and member list — on messy random instances
    /// (duplicate keywords, unreachable users, LM weights), with `ws = 0`
    /// and an empty `W` (one empty combination per location) among them.
    #[test]
    fn baseline_matches_naive_rescan_on_random_instances() {
        use crate::select::exact::Combinations;
        use crate::select::test_fixture::random_fixture;
        let mut empty_won = 0;
        for seed in 0..4 {
            for (ws, keep_w) in [(3, true), (0, true), (3, false)] {
                let mut f = random_fixture(seed, 48, 9);
                f.spec.ws = ws;
                if !keep_w {
                    f.spec.keywords.clear();
                }
                let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
                let got = baseline_select(&cc);

                let all: Vec<usize> = (0..f.users.len()).collect();
                let k = f.spec.ws.min(f.spec.keywords.len());
                let mut combos = Combinations::default();
                combos.reset(f.spec.keywords.len(), k);
                let mut every: Vec<Vec<usize>> = Vec::new();
                while let Some(ix) = combos.next_ref() {
                    every.push(ix.to_vec());
                }
                if k == 0 {
                    every.push(Vec::new());
                }
                let mut best = QueryResult::default();
                for (li, loc) in f.spec.locations.iter().enumerate() {
                    for ix in &every {
                        let kw: Vec<_> = ix.iter().map(|&i| f.spec.keywords[i]).collect();
                        let cand = cc.with_keywords(&kw);
                        let users = cc.brstknn(loc, &cand, &all);
                        if users.len() > best.brstknn.len() {
                            best.location = li;
                            best.keywords = kw;
                            best.brstknn = users;
                        }
                    }
                }
                let what = format!("seed {seed} ws {ws} |W| {}", f.spec.keywords.len());
                assert_eq!(got.location, best.location, "{what}");
                assert_eq!(got.keywords, best.keywords, "{what}");
                assert_eq!(got.brstknn, best.brstknn, "{what}");
                if k == 0 && !got.brstknn.is_empty() {
                    empty_won += 1;
                }
            }
        }
        assert!(empty_won > 0, "no empty-combination instance has a winner");
    }

    #[test]
    fn baseline_with_empty_keyword_set() {
        let f = fixture();
        let mut spec = f.spec.clone();
        spec.keywords.clear();
        spec.ws = 0;
        let cc = CandidateContext::new(&f.ctx, &spec, &f.users, &f.rsk);
        let b = baseline_select(&cc);
        // Only ox.d's own terms can attract users.
        assert!(b.keywords.is_empty());
    }
}

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
        users_out,
        kw,
        combos,
        delta,
        ..
    } = sel;
    if lu_bufs.is_empty() {
        lu_bufs.push(Vec::new());
    }
    let all_users = &mut lu_bufs[0];
    all_users.clear();
    all_users.extend(0..cc.num_users());

    // All combinations of exactly ws keywords (or all of W when smaller —
    // the baseline returns exactly ws keywords per the paper).
    let k = cc.spec.ws.min(cc.spec.keywords.len());

    if k == 0 {
        // The single (empty) combination per location.
        for (li, loc) in cc.spec.locations.iter().enumerate() {
            cc.fill_ss(loc, all_users, ss);
            cc.brstknn_into(&cc.ox_bits, all_users, ss, users_out);
            if users_out.len() > out.brstknn.len() {
                out.location = li;
                out.keywords.clear();
                std::mem::swap(users_out, &mut out.brstknn);
            }
        }
        return;
    }

    // The holder rows are location-independent; build them once.
    delta.build(cc, &cc.kw_slots, all_users, 0..all_users.len());
    kw.clear();
    let mut best_count = 0usize;
    let mut best_li = 0usize;
    for (li, loc) in cc.spec.locations.iter().enumerate() {
        cc.fill_ss(loc, all_users, ss);
        // ⟨ℓ, ox.d⟩ verdict per user: every combination's count is this
        // baseline plus a delta over the holders of its keywords.
        delta.q0.clear();
        let mut count0 = 0usize;
        cc.for_each_verdict(&cc.ox_bits, all_users, ss, |_, q| {
            delta.q0.push(q);
            count0 += usize::from(q);
        });
        combos.reset(cc.spec.keywords.len(), k);
        while let Some(ix) = combos.next_ref() {
            // A combination can move at most its holders' verdicts.
            if count0 + delta.potential(ix.iter().copied()) <= best_count {
                continue;
            }
            let touched = delta.gather(ix.iter().copied());
            if count0 + touched <= best_count {
                continue;
            }
            cc.cand_set_slots(ix.iter().map(|&i| cc.kw_slots[i]), cand);
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
            if count > best_count {
                best_count = count;
                best_li = li;
                kw.clear();
                kw.extend(ix.iter().map(|&i| cc.spec.keywords[i]));
            }
        }
    }

    // Materialize the winner once (the scan above only counted).
    if best_count > 0 {
        out.location = best_li;
        out.keywords.extend_from_slice(kw);
        cc.fill_ss(&cc.spec.locations[best_li], all_users, ss);
        cc.cand_set(kw, cand);
        cc.brstknn_into(cand, all_users, ss, users_out);
        std::mem::swap(users_out, &mut out.brstknn);
    }
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
    /// (duplicate keywords, unreachable users, LM weights).
    #[test]
    fn baseline_matches_naive_rescan_on_random_instances() {
        use crate::select::exact::Combinations;
        use crate::select::test_fixture::random_fixture;
        for seed in 0..4 {
            let f = random_fixture(seed, 48, 9);
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let got = baseline_select(&cc);

            let all: Vec<usize> = (0..f.users.len()).collect();
            let k = f.spec.ws.min(f.spec.keywords.len());
            let mut best = QueryResult::default();
            let mut combos = Combinations::default();
            for (li, loc) in f.spec.locations.iter().enumerate() {
                combos.reset(f.spec.keywords.len(), k);
                while let Some(ix) = combos.next_ref() {
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
            assert_eq!(got.location, best.location, "seed {seed}");
            assert_eq!(got.keywords, best.keywords, "seed {seed}");
            assert_eq!(got.brstknn, best.brstknn, "seed {seed}");
        }
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

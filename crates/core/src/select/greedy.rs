//! §6.2.1: the greedy (1−1/e) approximate keyword selection.
//!
//! Keyword selection is Maximum Coverage in disguise (Lemma 1): each
//! candidate keyword `w` covers the set `LUW_w` of users who would become
//! BRSTkNNs if `w` made it into the advertisement. The classic greedy
//! algorithm — repeatedly take the keyword covering the most uncovered
//! users — is the best possible polynomial-time approximation (Feige '98),
//! guaranteeing at least a `1 − 1/e ≈ 0.632` fraction of the optimum.
//!
//! Preprocessing (the paper's `LUW_w` construction): user `u` enters
//! `LUW_w` when `w ∈ u.d` and the *optimistic* advertisement containing
//! `w` plus the `ws−1` heaviest other candidates from `W ∩ u.d` reaches
//! `RSk(u)` — an upper-bound membership test, which is why the final count
//! is re-evaluated exactly afterwards (in Algorithm 3). Only the spatial
//! half of that test depends on the location: the text score of each
//! optimistic advertisement is tabulated once per query
//! (`CandidateContext::hw_table`).

use text::TermId;

use crate::arena::GreedyScratch;
use crate::select::CandidateContext;

/// Builds `LUW_w` for every candidate keyword, restricted to the users of
/// `lu` (indices into `cc.users`).
pub fn build_luw(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<(TermId, Vec<usize>)> {
    let mut ss = Vec::new();
    cc.fill_ss(&cc.spec.locations[loc_idx], lu, &mut ss);
    let mut gr = GreedyScratch::default();
    build_luw_into(cc, lu, &ss, &mut gr);
    gr.luw_terms
        .iter()
        .enumerate()
        .map(|(i, &w)| (w, gr.luw_members[i].iter().map(|&pos| lu[pos]).collect()))
        .collect()
}

/// [`build_luw`] into arena scratch. Members are recorded as *positions*
/// within `lu` (what the coverage step needs); `ss_lu` carries the
/// location's spatial scores aligned with `lu`. The optimistic text scores
/// come from the context's per-query table, so this is one `combine` and
/// one comparison per ⟨user, held keyword⟩.
pub(crate) fn build_luw_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    ss_lu: &[f64],
    gr: &mut GreedyScratch,
) {
    let GreedyScratch {
        luw_terms,
        luw_members,
        ..
    } = gr;
    luw_terms.clear();
    luw_terms.extend_from_slice(&cc.spec.keywords);
    while luw_members.len() < luw_terms.len() {
        luw_members.push(Vec::new());
    }
    for members in &mut luw_members[..luw_terms.len()] {
        members.clear();
    }
    let table = cc.hw_table();
    for (pos, &u) in lu.iter().enumerate() {
        for &(j, ts) in table.rows_of(u) {
            if cc.ctx.combine(ss_lu[pos], ts) >= cc.rsk[u] {
                luw_members[j as usize].push(pos);
            }
        }
    }
}

/// Greedy maximum coverage over the `LUW_w` sets.
///
/// Matches the paper's MC greedy, which "chooses a set in each step which
/// contains the largest number of uncovered elements **until exactly p
/// sets are selected**": once every `LUW` member is covered, remaining
/// picks take the largest sets outright. That matters because `LUW`
/// membership is optimistic — users covered on paper may not qualify with
/// the realized selection, so spending the whole `ws` budget recovers
/// realized count the early-stopping variant leaves behind (clearly
/// visible at large `ws`, Fig. 11b).
pub fn greedy_cover(luw: &[(TermId, Vec<usize>)], ws: usize, num_users: usize) -> Vec<TermId> {
    let terms: Vec<TermId> = luw.iter().map(|(w, _)| *w).collect();
    let members: Vec<&[usize]> = luw.iter().map(|(_, m)| m.as_slice()).collect();
    let mut covered = Vec::new();
    let mut used = Vec::new();
    let mut chosen = Vec::new();
    greedy_cover_core(
        &terms,
        &members,
        ws,
        num_users,
        &mut covered,
        &mut used,
        &mut chosen,
    );
    chosen
}

/// [`greedy_cover`] over split term/member columns and caller scratch.
fn greedy_cover_core<M: AsRef<[usize]>>(
    terms: &[TermId],
    members: &[M],
    ws: usize,
    num_users: usize,
    covered: &mut Vec<bool>,
    used: &mut Vec<bool>,
    chosen: &mut Vec<TermId>,
) {
    covered.clear();
    covered.resize(num_users, false);
    used.clear();
    used.resize(terms.len(), false);
    chosen.clear();

    for _ in 0..ws {
        // (idx, uncovered gain, total size) — gain first, size as the
        // tiebreak that also drives the zero-gain picks.
        let mut best: Option<(usize, usize, usize)> = None;
        for (i, m) in members.iter().enumerate() {
            let m = m.as_ref();
            if used[i] || m.is_empty() {
                continue;
            }
            let gain = m.iter().filter(|&&u| !covered[u]).count();
            let better = match best {
                None => true,
                Some((_, g, s)) => gain > g || (gain == g && m.len() > s),
            };
            if better {
                best = Some((i, gain, m.len()));
            }
        }
        let Some((i, _, _)) = best else { break };
        used[i] = true;
        chosen.push(terms[i]);
        for &u in members[i].as_ref() {
            covered[u] = true;
        }
    }
    chosen.sort_unstable();
}

/// The full §6.2.1 approximate keyword selection for one location.
pub fn greedy_keywords(cc: &CandidateContext<'_>, loc_idx: usize, lu: &[usize]) -> Vec<TermId> {
    let mut ss = Vec::new();
    cc.fill_ss(&cc.spec.locations[loc_idx], lu, &mut ss);
    let mut gr = GreedyScratch::default();
    let mut out = Vec::new();
    greedy_keywords_into(cc, lu, &ss, &mut gr, &mut out);
    out
}

/// [`greedy_keywords`] into arena scratch (coverage works on positions
/// within `lu`, which is exactly how `build_luw_into` records members).
pub(crate) fn greedy_keywords_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    ss_lu: &[f64],
    gr: &mut GreedyScratch,
    out: &mut Vec<TermId>,
) {
    build_luw_into(cc, lu, ss_lu, gr);
    let GreedyScratch {
        luw_terms,
        luw_members,
        covered,
        used,
        ..
    } = gr;
    greedy_cover_core(
        luw_terms,
        &luw_members[..luw_terms.len()],
        cc.spec.ws,
        lu.len(),
        covered,
        used,
        out,
    );
}

/// Greedy on the *realized* objective (extension beyond the paper).
///
/// Instead of maximizing optimistic `LUW_w` coverage, each round adds the
/// keyword that maximizes the **actual** BRSTkNN count of
/// `⟨ℓ, chosen ∪ {w}⟩`. The realized objective is a threshold function and
/// not submodular, so the `(1−1/e)` guarantee does not formally transfer;
/// empirically it tracks the exact optimum more closely than the paper's
/// coverage greedy at the cost of `|W| · ws` exact evaluations (see the
/// `figures -- ablation` experiment). Picks stop early once no keyword
/// improves the count.
pub fn greedy_plus_keywords(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<TermId> {
    let mut ss = Vec::new();
    cc.fill_ss(&cc.spec.locations[loc_idx], lu, &mut ss);
    let mut gr = GreedyScratch::default();
    let mut out = Vec::new();
    greedy_plus_keywords_into(cc, lu, &ss, &mut gr, &mut out);
    out
}

/// [`greedy_plus_keywords`] into arena scratch.
///
/// Each round's trials add exactly one keyword to the current selection,
/// so a trial's count is the selection's count plus a delta over the
/// keyword's holders (everyone else scores bit-identically) — the same
/// incremental argument the baseline scan uses.
pub(crate) fn greedy_plus_keywords_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    ss_lu: &[f64],
    gr: &mut GreedyScratch,
    out: &mut Vec<TermId>,
) {
    out.clear();
    gr.delta.build(cc, &cc.spec.keywords, lu, 0..lu.len());
    for _ in 0..cc.spec.ws {
        // Realized verdict per user under the current selection. On the
        // first round this is the `ox.d`-only count; afterwards it equals
        // the picked trial's count (same evaluations).
        gr.hcand.assign_with_terms(&cc.spec.ox_doc, out);
        gr.delta.q0.clear();
        let mut count0 = 0usize;
        for (pos, &u) in lu.iter().enumerate() {
            let q = cc.qualifies_with_ss(ss_lu[pos], &gr.hcand, u);
            gr.delta.q0.push(q);
            count0 += q as usize;
        }
        let best_count = count0;
        let mut round_best: Option<(TermId, usize)> = None;
        for (j, &w) in cc.spec.keywords.iter().enumerate() {
            if out.contains(&w) {
                continue;
            }
            let row = gr.delta.row(j);
            // The trial can at most flip its holders to qualifying.
            let bar = round_best.map_or(best_count, |(_, c)| best_count.max(c));
            if count0 + row.len() <= bar {
                continue;
            }
            gr.trial.clear();
            gr.trial.extend_from_slice(out);
            gr.trial.push(w);
            gr.hcand.assign_with_terms(&cc.spec.ox_doc, &gr.trial);
            let mut count = count0;
            for &p in gr.delta.row(j) {
                let p = p as usize;
                let q1 = cc.qualifies_with_ss(ss_lu[p], &gr.hcand, lu[p]);
                if q1 && !gr.delta.q0[p] {
                    count += 1;
                } else if !q1 && gr.delta.q0[p] {
                    count -= 1;
                }
            }
            if count > best_count && round_best.is_none_or(|(_, c)| count > c) {
                round_best = Some((w, count));
            }
        }
        let Some((w, _)) = round_best else { break };
        out.push(w);
    }
    if out.is_empty() {
        // Thresholds needing several keywords at once defeat single-step
        // gains; fall back to the coverage greedy rather than give up.
        greedy_keywords_into(cc, lu, ss_lu, gr, out);
        return;
    }
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::reference;
    use crate::select::test_fixture::{fixture, t};

    #[test]
    fn luw_only_contains_keyword_holders() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        for (w, members) in build_luw(&cc, 0, &lu) {
            for &u in &members {
                assert!(f.users[u].doc.contains(w));
            }
        }
    }

    #[test]
    fn luw_membership_is_an_upper_bound_test() {
        // Anyone who actually qualifies with some set containing w must be
        // in LUW_w (no false negatives — required for greedy soundness).
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        let luw = build_luw(&cc, 0, &lu);
        let loc = &f.spec.locations[0];
        let kws = &f.spec.keywords;
        for i in 0..kws.len() {
            for j in 0..kws.len() {
                if i == j {
                    continue;
                }
                let cand = cc.with_keywords(&[kws[i], kws[j]]);
                for &u in &lu {
                    if cc.users[u].doc.contains(kws[i])
                        && cc.sts_candidate(loc, &cand, u) >= cc.rsk[u]
                    {
                        let (_, members) = luw.iter().find(|(w, _)| *w == kws[i]).unwrap();
                        assert!(
                            members.contains(&u),
                            "user {u} qualifies via {:?} but missing from LUW",
                            kws[i]
                        );
                    }
                }
            }
        }
    }

    /// The one-sort-per-user construction must reproduce the keyword-outer
    /// reference (re-sorting `W ∩ u.d` per holder) exactly — members, order,
    /// duplicate keywords and all.
    #[test]
    fn build_luw_matches_per_holder_reference() {
        use crate::select::test_fixture::random_fixture;
        for seed in 0..4 {
            let f = random_fixture(seed + 20, 48, 9);
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let lu: Vec<usize> = (0..f.users.len()).collect();
            for li in 0..f.spec.locations.len() {
                let got = build_luw(&cc, li, &lu);
                assert_eq!(got.len(), f.spec.keywords.len());
                let loc = &f.spec.locations[li];
                for (j, &w) in f.spec.keywords.iter().enumerate() {
                    assert_eq!(got[j].0, w, "seed {seed}");
                    let mut expect = Vec::new();
                    for &u in &lu {
                        let held = cc.ucand(u);
                        if !held.iter().any(|&(t, _)| t == w) {
                            continue;
                        }
                        let mut others: Vec<(f64, u32, TermId)> = Vec::new();
                        for (i, &t) in f.spec.keywords.iter().enumerate() {
                            if let Some(&(_, cw)) = held.iter().find(|&&(h, _)| h == t) {
                                others.push((cw, i as u32, t));
                            }
                        }
                        others.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                        let mut hw: Vec<TermId> = others
                            .iter()
                            .filter(|&&(_, _, t)| t != w)
                            .take(f.spec.ws.saturating_sub(1))
                            .map(|&(_, _, t)| t)
                            .collect();
                        hw.push(w);
                        let cand = cc.with_keywords(&hw);
                        if cc.sts_candidate(loc, &cand, u) >= cc.rsk[u] {
                            expect.push(u);
                        }
                    }
                    assert_eq!(got[j].1, expect, "seed {seed}, loc {li}, kw {j}");
                }
            }
        }
    }

    /// The table-driven kernel must reproduce the per-location
    /// construction member for member — across keyword budgets, duplicate
    /// keywords, keywords already in `ox.d`, users with `N(u) = 0` and
    /// unreachable users — and so must the keywords chosen from it.
    #[test]
    fn luw_table_matches_per_location_construction() {
        use crate::select::test_fixture::edge_fixture;
        for ws in [1, 2, 3, 5] {
            for seed in 0..3 {
                let f = edge_fixture(seed + 40, ws);
                let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
                let n = f.users.len();
                let zero_norm = (0..n).any(|u| cc.user_reachable(u) && cc.n_u[u] == 0.0);
                assert_eq!(zero_norm, seed % 2 == 1, "TF-IDF seeds hold N(u) = 0 users");
                assert!((0..n).any(|u| !cc.user_reachable(u)));
                // Every user, then a sparse list: positions ≠ indices.
                let all: Vec<usize> = (0..f.users.len()).collect();
                let sparse: Vec<usize> = all.iter().copied().filter(|u| u % 3 != 1).collect();
                let mut members = 0;
                for li in 0..f.spec.locations.len() {
                    for lu in [&all, &sparse] {
                        let got = build_luw(&cc, li, lu);
                        assert_eq!(
                            got,
                            reference::build_luw(&cc, li, lu),
                            "ws {ws}, seed {seed}, loc {li}"
                        );
                        assert_eq!(
                            greedy_keywords(&cc, li, lu),
                            reference::greedy_keywords(&cc, li, lu),
                            "ws {ws}, seed {seed}, loc {li}"
                        );
                        members += got.iter().map(|(_, m)| m.len()).sum::<usize>();
                    }
                }
                assert!(members > 0, "ws {ws}, seed {seed}: every LUW empty");
            }
        }
    }

    /// The holder-row trial scan must pick the same keyword sequence as a
    /// reference that rescans every user for every trial.
    #[test]
    fn greedy_plus_matches_full_rescan_reference() {
        use crate::select::test_fixture::random_fixture;
        for seed in 0..4 {
            let f = random_fixture(seed + 30, 48, 9);
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let lu: Vec<usize> = (0..f.users.len()).collect();
            for li in 0..f.spec.locations.len() {
                assert_eq!(
                    greedy_plus_keywords(&cc, li, &lu),
                    reference::greedy_plus_keywords(&cc, li, &lu),
                    "seed {seed}, loc {li}"
                );
            }
        }
    }

    #[test]
    fn greedy_cover_picks_largest_first() {
        let luw = vec![
            (t(0), vec![0, 1]),
            (t(1), vec![2, 3, 4]),
            (t(2), vec![0, 5]),
        ];
        let chosen = greedy_cover(&luw, 2, 6);
        assert!(chosen.contains(&t(1)));
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn greedy_cover_prefers_marginal_gain() {
        // t0 covers {0,1,2}; t1 covers {0,1,2} too; t2 covers {3}.
        // After t0, t2's gain (1) beats t1's (0).
        let luw = vec![
            (t(0), vec![0, 1, 2]),
            (t(1), vec![0, 1, 2]),
            (t(2), vec![3]),
        ];
        let chosen = greedy_cover(&luw, 2, 4);
        assert_eq!(chosen, vec![t(0), t(2)]);
    }

    #[test]
    fn greedy_cover_spends_full_budget_on_nonempty_sets() {
        // Zero-gain sets are still picked (the paper selects exactly p
        // sets), but empty LUWs never are.
        let luw = vec![(t(0), vec![0]), (t(1), vec![0]), (t(2), vec![])];
        let chosen = greedy_cover(&luw, 3, 1);
        assert_eq!(chosen, vec![t(0), t(1)]);
    }

    #[test]
    fn greedy_plus_never_worse_than_empty_and_bounded_by_exact() {
        use crate::select::exact::{count_for, exact_keywords};
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        for loc_idx in 0..f.spec.locations.len() {
            let gp = greedy_plus_keywords(&cc, loc_idx, &lu);
            let gp_count = count_for(&cc, loc_idx, &gp, &lu);
            let e = count_for(&cc, loc_idx, &exact_keywords(&cc, loc_idx, &lu), &lu);
            assert!(gp_count <= e);
            assert!(gp.len() <= f.spec.ws);
        }
    }

    #[test]
    fn greedy_plus_beats_or_matches_coverage_greedy_on_fixture() {
        use crate::select::exact::count_for;
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        for loc_idx in 0..f.spec.locations.len() {
            let g = count_for(&cc, loc_idx, &greedy_keywords(&cc, loc_idx, &lu), &lu);
            let gp = count_for(&cc, loc_idx, &greedy_plus_keywords(&cc, loc_idx, &lu), &lu);
            assert!(gp >= g, "loc {loc_idx}: realized-gain {gp} < coverage {g}");
        }
    }

    #[test]
    fn greedy_respects_ws_budget() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        let chosen = greedy_keywords(&cc, 0, &lu);
        assert!(chosen.len() <= f.spec.ws);
        for w in &chosen {
            assert!(f.spec.keywords.contains(w));
        }
    }

    /// The (1−1/e) guarantee on the coverage objective itself, checked by
    /// exhaustive enumeration on the fixture.
    #[test]
    fn greedy_coverage_within_632_of_best_cover() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        let luw = build_luw(&cc, 0, &lu);
        let chosen = greedy_keywords(&cc, 0, &lu);
        let cover = |set: &[TermId]| {
            let mut covered: std::collections::HashSet<usize> = Default::default();
            for (w, m) in &luw {
                if set.contains(w) {
                    covered.extend(m.iter().copied());
                }
            }
            covered.len()
        };
        let got = cover(&chosen);
        let kws = &f.spec.keywords;
        let mut best = 0;
        for i in 0..kws.len() {
            for j in (i + 1)..kws.len() {
                best = best.max(cover(&[kws[i], kws[j]]));
            }
        }
        assert!(got as f64 >= 0.632 * best as f64 - 1e-9);
    }
}

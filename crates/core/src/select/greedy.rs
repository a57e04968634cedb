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
use crate::select::{bit, set_bit, CandidateContext};

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
    let words = lu.len().div_ceil(64);
    cc.spec
        .keywords
        .iter()
        .enumerate()
        .map(|(j, &w)| {
            let row = &gr.luw[j * words..(j + 1) * words];
            (
                w,
                (0..lu.len())
                    .filter(|&p| bit(row, p))
                    .map(|p| lu[p])
                    .collect(),
            )
        })
        .collect()
}

/// [`build_luw`] into arena scratch: row `j` of `gr.luw` is the bitset of
/// the *positions* within `lu` whose user joins `LUW_w` for the keyword at
/// position `j` of `W` (what the coverage step needs); `ss_lu` carries the
/// location's spatial scores aligned with `lu`. The optimistic text scores
/// come from the context's per-query table, so this is one `combine` and
/// one comparison per ⟨user, held keyword⟩.
pub(crate) fn build_luw_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    ss_lu: &[f64],
    gr: &mut GreedyScratch,
) {
    let words = lu.len().div_ceil(64);
    gr.luw.clear();
    gr.luw.resize(cc.spec.keywords.len() * words, 0);
    let table = cc.hw_table();
    for (pos, (&u, &ss)) in lu.iter().zip(ss_lu).enumerate() {
        let rsk = cc.cols.rsk[u];
        for &(j, ts) in table.rows_of(u) {
            if cc.ctx.combine(ss, ts) >= rsk {
                set_bit(&mut gr.luw[j as usize * words..], pos);
            }
        }
    }
    count_rows(gr, cc.spec.keywords.len(), words);
}

/// Sets `gr.luw_len` to the members of each of the `n` `LUW` rows.
fn count_rows(gr: &mut GreedyScratch, n: usize, words: usize) {
    gr.luw_len.clear();
    gr.luw_len.extend((0..n).map(|j| {
        gr.luw[j * words..(j + 1) * words]
            .iter()
            .map(|m| m.count_ones())
            .sum::<u32>()
    }));
}

/// [`build_luw_into`] for every candidate location at once, in one pass
/// that also decides each row (see [`CandidateContext::band_verdict`]):
/// a row whose test passes at its user's band low end passes at every
/// location and is set, one that fails at the high end fails everywhere
/// and stays clear. Returns false at the first row the band leaves open
/// (its members move with the location; `gr.luw` is then partial), true
/// when every row is decided: `gr` then holds what `build_luw_into` builds
/// at any candidate location.
pub(crate) fn build_decided_luw_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    gr: &mut GreedyScratch,
) -> bool {
    let words = lu.len().div_ceil(64);
    gr.luw.clear();
    gr.luw.resize(cc.spec.keywords.len() * words, 0);
    let table = cc.hw_table();
    let c = &cc.cols;
    for (pos, &u) in lu.iter().enumerate() {
        let (lo, hi, rsk) = (c.band_lo[u], c.band_hi[u], c.rsk[u]);
        for &(j, ts) in table.rows_of(u) {
            if cc.ctx.combine(lo, ts) >= rsk {
                set_bit(&mut gr.luw[j as usize * words..], pos);
            } else if cc.ctx.combine(hi, ts) >= rsk {
                return false;
            }
        }
    }
    count_rows(gr, cc.spec.keywords.len(), words);
    true
}

/// Greedy maximum coverage over the `LUW_w` rows of `gr` (over `words`
/// words each; `terms` names the keyword of each row); the picks land in
/// `chosen`, ascending.
///
/// Matches the paper's MC greedy, which "chooses a set in each step which
/// contains the largest number of uncovered elements **until exactly p
/// sets are selected**": once every `LUW` member is covered, remaining
/// picks take the largest sets outright. That matters because `LUW`
/// membership is optimistic — users covered on paper may not qualify with
/// the realized selection, so spending the whole `ws` budget recovers
/// realized count the early-stopping variant leaves behind (clearly
/// visible at large `ws`, Fig. 11b).
fn cover_into(
    gr: &mut GreedyScratch,
    terms: &[TermId],
    words: usize,
    ws: usize,
    chosen: &mut Vec<TermId>,
) {
    let GreedyScratch {
        luw,
        luw_len,
        covered,
        used,
        ..
    } = gr;
    covered.clear();
    covered.resize(words, 0);
    used.clear();
    used.resize(terms.len(), false);
    chosen.clear();

    for _ in 0..ws {
        // (row, uncovered gain, set size) — gain first, size as the
        // tiebreak that also drives the zero-gain picks; a full tie keeps
        // the first row.
        let mut best: Option<(usize, u32, u32)> = None;
        for (j, &size) in luw_len.iter().enumerate() {
            if used[j] || size == 0 {
                continue;
            }
            let gain = luw[j * words..(j + 1) * words]
                .iter()
                .zip(covered.iter())
                .map(|(m, c)| (m & !c).count_ones())
                .sum();
            if best.is_none_or(|(_, g, s)| gain > g || (gain == g && size > s)) {
                best = Some((j, gain, size));
            }
        }
        let Some((j, _, _)) = best else { break };
        used[j] = true;
        chosen.push(terms[j]);
        for (c, m) in covered.iter_mut().zip(&luw[j * words..(j + 1) * words]) {
            *c |= m;
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
    cover_into(
        gr,
        &cc.spec.keywords,
        lu.len().div_ceil(64),
        cc.spec.ws,
        out,
    );
}

/// The greedy keywords of `lu` at every candidate location at once, into
/// `out`, when its bands decide every `LUW` row
/// ([`build_decided_luw_into`]); false, with `out` untouched, when they
/// leave one open.
pub(crate) fn decided_keywords_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    gr: &mut GreedyScratch,
    out: &mut Vec<TermId>,
) -> bool {
    if !build_decided_luw_into(cc, lu, gr) {
        return false;
    }
    cover_into(
        gr,
        &cc.spec.keywords,
        lu.len().div_ceil(64),
        cc.spec.ws,
        out,
    );
    true
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
    gr.delta.build(cc, &cc.cols.kw_slots, lu, 0..lu.len());
    for _ in 0..cc.spec.ws {
        // Realized verdict per user under the current selection. On the
        // first round this is the `ox.d`-only count; afterwards it equals
        // the picked trial's count (same evaluations).
        cc.cand_set(out, &mut gr.sel);
        gr.delta.q0.clear();
        let mut count0 = 0usize;
        cc.for_each_verdict(&gr.sel, lu, ss_lu, |_, q| {
            gr.delta.q0.push(q);
            count0 += usize::from(q);
        });
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
            gr.trial.clone_from(&gr.sel);
            set_bit(&mut gr.trial, cc.cols.kw_slots[j]);
            let mut count = count0;
            for &p in gr.delta.row(j) {
                let p = p as usize;
                let q1 = cc.qualifies_with_ss(ss_lu[p], &gr.trial, lu[p]);
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
                        && cc.sts_candidate(loc, &cand, u) >= cc.cols.rsk[u]
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
                        let held = &f.users[u].doc;
                        if !held.contains(w) {
                            continue;
                        }
                        let mut others: Vec<(f64, u32, TermId)> = Vec::new();
                        for (i, &t) in f.spec.keywords.iter().enumerate() {
                            if held.contains(t) {
                                others.push((cc.cw(t), i as u32, t));
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
                        if cc.sts_candidate(loc, &cand, u) >= cc.cols.rsk[u] {
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
    /// keywords, keywords already in `ox.d`, users with `N(u) = 0`,
    /// unreachable users, `|W ∪ ox.d|` on both sides of one and two
    /// 64-bit words and `|LU|` on both sides of one — and so must the
    /// keywords chosen from it.
    #[test]
    fn luw_table_matches_per_location_construction() {
        use crate::select::test_fixture::{edge_fixture, wide_fixture, Fix};
        fn check<'a>(f: &'a Fix, lists: &[Vec<usize>], what: &str) -> CandidateContext<'a> {
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let mut members = 0;
            for li in 0..f.spec.locations.len() {
                for lu in lists {
                    let got = build_luw(&cc, li, lu);
                    let at = format!("{what}, loc {li}, |lu| {}", lu.len());
                    assert_eq!(got, reference::build_luw(&cc, li, lu), "{at}");
                    assert_eq!(
                        greedy_keywords(&cc, li, lu),
                        reference::greedy_keywords(&cc, li, lu),
                        "{at}"
                    );
                    members += got.iter().map(|(_, m)| m.len()).sum::<usize>();
                }
            }
            assert!(members > 0, "{what}: every LUW empty");
            cc
        }
        for ws in [1, 2, 3, 5] {
            for seed in 0..3 {
                let f = edge_fixture(seed + 40, ws);
                // Every user, then a sparse list: positions ≠ indices.
                let all: Vec<usize> = (0..f.users.len()).collect();
                let sparse: Vec<usize> = all.iter().copied().filter(|u| u % 3 != 1).collect();
                let cc = check(&f, &[all, sparse], &format!("ws {ws}, seed {seed}"));
                let n = f.users.len();
                let zero_norm = (0..n).any(|u| cc.user_reachable(u) && cc.cols.n_u[u] == 0.0);
                assert_eq!(zero_norm, seed % 2 == 1, "TF-IDF seeds hold N(u) = 0 users");
                assert!((0..n).any(|u| !cc.user_reachable(u)));
            }
        }
        for (seed, slots) in [(0, 63), (1, 64), (2, 65), (3, 130), (5, 64)] {
            let f = wide_fixture(seed, slots, 90);
            // |LU| around one word; the last list skips users, so its
            // positions are not indices.
            let lists: Vec<Vec<usize>> = [63, 64, 65]
                .map(|n| (0..n).collect::<Vec<usize>>())
                .into_iter()
                .chain([(0..90).filter(|u| u % 7 != 3).take(65).collect()])
                .collect();
            check(&f, &lists, &format!("|W ∪ ox.d| {slots}, seed {seed}"));
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

    /// The bitset cover over position lists loaded into `LUW` rows,
    /// checked against the position-list reference on the way.
    fn cover(luw: &[(TermId, Vec<usize>)], ws: usize, num_users: usize) -> Vec<TermId> {
        let words = num_users.div_ceil(64);
        let mut gr = GreedyScratch::default();
        gr.luw.resize(luw.len() * words, 0);
        for (j, (_, members)) in luw.iter().enumerate() {
            for &p in members {
                set_bit(&mut gr.luw[j * words..], p);
            }
            gr.luw_len.push(members.len() as u32);
        }
        let terms: Vec<TermId> = luw.iter().map(|&(w, _)| w).collect();
        let mut chosen = Vec::new();
        cover_into(&mut gr, &terms, words, ws, &mut chosen);
        assert_eq!(chosen, reference::greedy_cover(luw, ws, num_users));
        chosen
    }

    #[test]
    fn greedy_cover_picks_largest_first() {
        let luw = vec![
            (t(0), vec![0, 1]),
            (t(1), vec![2, 3, 4]),
            (t(2), vec![0, 5]),
        ];
        let chosen = cover(&luw, 2, 6);
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
        let chosen = cover(&luw, 2, 4);
        assert_eq!(chosen, vec![t(0), t(2)]);
    }

    #[test]
    fn greedy_cover_spends_full_budget_on_nonempty_sets() {
        // Zero-gain sets are still picked (the paper selects exactly p
        // sets), but empty LUWs never are.
        let luw = vec![(t(0), vec![0]), (t(1), vec![0]), (t(2), vec![])];
        let chosen = cover(&luw, 3, 1);
        assert_eq!(chosen, vec![t(0), t(1)]);
    }

    /// Ties on gain, then on size too, across three words of positions:
    /// the larger set wins a gain tie, the first position a full tie, and
    /// a later set needs a strictly larger gain to displace an earlier one.
    #[test]
    fn bitset_cover_breaks_ties_like_the_reference() {
        let luw = vec![
            // Gain 3, size 3.
            (t(9), vec![0, 64, 128]),
            // Gain 3, size 4 (one member shared with the first): wins the
            // first round on size.
            (t(4), vec![1, 65, 129, 0]),
            // The same set as t4 at a later position: never beats it.
            (t(7), vec![1, 65, 129, 0]),
            // Gain 3, size 3, disjoint from everything.
            (t(2), vec![63, 127, 150]),
            // A duplicate keyword at a later position.
            (t(9), vec![63, 127, 150]),
            (t(5), vec![]),
        ];
        assert_eq!(cover(&luw, 1, 151), vec![t(4)]);
        // Round 2: t9 gains 2, t7 0, t2 and the second t9 gain 3 at size
        // 3 — the first of them (t2) wins.
        assert_eq!(cover(&luw, 2, 151), vec![t(2), t(4)]);
        // Round 3: t9 (gain 2) before the zero-gain sets; then the size-4
        // duplicate set before the size-3 one.
        assert_eq!(cover(&luw, 4, 151), vec![t(2), t(4), t(7), t(9)]);
        assert_eq!(cover(&luw, 9, 151), vec![t(2), t(4), t(7), t(9), t(9)]);
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

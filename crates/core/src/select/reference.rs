//! Test-only reference implementations of the selection kernels.
//!
//! Each is the construction the paper states, per candidate location and
//! on the public slow paths of [`CandidateContext`] (full user documents,
//! `Document` candidates, position lists, fresh buffers, no tables): the
//! differential tests hold the pooled, slot- and bitset-driven kernels to
//! them member for member.

use std::collections::BinaryHeap;

use text::TermId;

use super::exact::Combinations;
use super::location::KeywordSelector;
use super::CandidateContext;
use crate::topk::ByKey;
use crate::{QueryResult, UserGroup};

/// `LUW_w` for every candidate keyword at one location: per user, the held
/// candidate keywords sorted by `(weight desc, position asc)`, and per held
/// keyword `w` the optimistic document `ox.d ∪ HW_{w,u}` assembled and
/// scored against `RSk(u)` — all of it inside the location loop, as the
/// kernel did before the ⟨keyword, `TS`⟩ table existed.
pub(crate) fn build_luw(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<(TermId, Vec<usize>)> {
    let loc = &cc.spec.locations[loc_idx];
    let mut luw: Vec<(TermId, Vec<usize>)> =
        cc.spec.keywords.iter().map(|&w| (w, Vec::new())).collect();
    for &u in lu {
        let mut others: Vec<(f64, usize, TermId)> = Vec::new();
        for t in cc.users[u].doc.terms() {
            for (j, &w) in cc.spec.keywords.iter().enumerate() {
                if w == t {
                    others.push((cc.cw(t), j, t));
                }
            }
        }
        others.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, j, w) in &others {
            let mut hw: Vec<TermId> = others
                .iter()
                .map(|&(_, _, t)| t)
                .filter(|&t| t != w)
                .take(cc.spec.ws.saturating_sub(1))
                .collect();
            hw.push(w);
            if cc.sts_candidate(loc, &cc.with_keywords(&hw), u) >= cc.cols.rsk[u] {
                luw[j].1.push(u);
            }
        }
    }
    luw
}

/// True when the spatial bands decide every `LUW` row of `lu`'s users: a
/// second pass over the rows `greedy::build_decided_luw_into` decides
/// while it builds them.
pub(crate) fn luw_decided(cc: &CandidateContext<'_>, lu: &[usize]) -> bool {
    let table = cc.hw_table();
    lu.iter().all(|&u| {
        table
            .rows_of(u)
            .iter()
            .all(|&(_, ts)| cc.band_verdict(ts, u).is_some())
    })
}

/// The ids of the users of `lu` that qualify under `ox.d ∪ kw` at
/// location `li`, in `lu` order, each user's band verdict derived anew
/// and only the open ones scored: the held evaluation's materialisation
/// before it kept its verdicts.
pub(crate) fn held_ids(
    cc: &CandidateContext<'_>,
    li: usize,
    lu: &[usize],
    kw: &[TermId],
) -> Vec<u32> {
    let loc = &cc.spec.locations[li];
    let mut cand = Vec::new();
    cc.cand_set(kw, &mut cand);
    lu.iter()
        .filter(|&&u| {
            let ts = cc.ts_cand(&cand, u);
            cc.band_verdict(ts, u)
                .unwrap_or_else(|| cc.ctx.combine(cc.ss_at(loc, u), ts) >= cc.cols.rsk[u])
        })
        .map(|&u| cc.cols.ids[u])
        .collect()
}

/// User `u`'s spatial band, derived alone: `MaxSS` and `MinSS` of its
/// point against the locations' MBR, `[0, 1]` without locations.
pub(crate) fn band(cc: &CandidateContext<'_>, u: usize) -> (f64, f64) {
    let (point, spatial) = (cc.cols.points[u], &cc.ctx.spatial);
    cc.loc_mbr.map_or((0.0, 1.0), |r| {
        (
            spatial.max_ss_point(&point, &r),
            spatial.min_ss_point(&point, &r),
        )
    })
}

/// The location-independent text of `UBL(·, u)` from the user's document:
/// the weights of `ox.d`'s terms `u` holds, plus the `ws` heaviest of the
/// keywords of `W` it holds outside `ox.d`, once per position in `W`.
pub(crate) fn ubl_ts(cc: &CandidateContext<'_>, u: usize) -> f64 {
    let (doc, ox) = (&cc.users[u].doc, &cc.spec.ox_doc);
    let fixed: f64 = ox
        .terms()
        .filter(|&t| doc.contains(t))
        .map(|t| cc.cw(t))
        .sum();
    let added = cc.top_ws_sum(
        cc.spec
            .keywords
            .iter()
            .copied()
            .filter(|&t| doc.contains(t) && !ox.contains(t))
            .map(|t| cc.cw(t)),
    );
    if cc.cols.n_u[u] > 0.0 {
        ((fixed + added) / cc.cols.n_u[u]).min(1.0)
    } else {
        0.0
    }
}

/// Greedy maximum coverage over position lists: each round takes the set
/// with the most uncovered members, ties to the larger set, then to the
/// first; empty sets are never taken. The bitset cover of
/// [`super::greedy`] is held to it.
pub(crate) fn greedy_cover(
    luw: &[(TermId, Vec<usize>)],
    ws: usize,
    num_users: usize,
) -> Vec<TermId> {
    let mut covered = vec![false; num_users];
    let mut used = vec![false; luw.len()];
    let mut chosen = Vec::new();
    for _ in 0..ws {
        // (idx, uncovered gain, total size).
        let mut best: Option<(usize, usize, usize)> = None;
        for (i, (_, m)) in luw.iter().enumerate() {
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
        chosen.push(luw[i].0);
        for &u in &luw[i].1 {
            covered[u] = true;
        }
    }
    chosen.sort_unstable();
    chosen
}

/// §6.2.1 on the reference `LUW` sets.
pub(crate) fn greedy_keywords(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<TermId> {
    // Coverage runs on positions within `lu`.
    let luw: Vec<(TermId, Vec<usize>)> = build_luw(cc, loc_idx, lu)
        .into_iter()
        .map(|(w, members)| {
            let positions = members
                .iter()
                .map(|u| lu.iter().position(|v| v == u).expect("member of lu"))
                .collect();
            (w, positions)
        })
        .collect();
    greedy_cover(&luw, cc.spec.ws, lu.len())
}

/// The realized-gain greedy, rescanning every user for every trial.
pub(crate) fn greedy_plus_keywords(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<TermId> {
    let loc = &cc.spec.locations[loc_idx];
    let mut sel: Vec<TermId> = Vec::new();
    for _ in 0..cc.spec.ws {
        let best_count = cc.brstknn(loc, &cc.with_keywords(&sel), lu).len();
        let mut round_best: Option<(TermId, usize)> = None;
        for &w in &cc.spec.keywords {
            if sel.contains(&w) {
                continue;
            }
            let mut trial = sel.clone();
            trial.push(w);
            let count = cc.brstknn(loc, &cc.with_keywords(&trial), lu).len();
            if count > best_count && round_best.is_none_or(|(_, c)| count > c) {
                round_best = Some((w, count));
            }
        }
        let Some((w, _)) = round_best else { break };
        sel.push(w);
    }
    if sel.is_empty() {
        return greedy_keywords(cc, loc_idx, lu);
    }
    sel.sort_unstable();
    sel
}

/// Algorithm 4 without the holder rows: every combination of the pruned
/// keyword pool scores every user.
pub(crate) fn exact_keywords(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    lu: &[usize],
) -> Vec<TermId> {
    let loc = &cc.spec.locations[loc_idx];
    let mut wc: Vec<TermId> = cc
        .spec
        .keywords
        .iter()
        .copied()
        .filter(|&w| lu.iter().any(|&u| cc.users[u].doc.contains(w)))
        .collect();
    wc.sort_unstable();
    wc.dedup();
    if wc.len() <= cc.spec.ws {
        return wc;
    }
    let mut best: Option<(usize, Vec<TermId>)> = None;
    let mut combos = Combinations::default();
    combos.reset(wc.len(), cc.spec.ws);
    while let Some(ix) = combos.next_ref() {
        let kw: Vec<TermId> = ix.iter().map(|&i| wc[i]).collect();
        let count = cc.brstknn(loc, &cc.with_keywords(&kw), lu).len();
        match &best {
            Some((c, _)) if count <= *c => {}
            _ => best = Some((count, kw)),
        }
    }
    best.expect("ws ≥ 1 yields a combination").1
}

/// Algorithm 3 over the reference keyword selectors: lists, bounds and
/// counts from the slow paths, the same queue discipline as the kernel.
pub(crate) fn select_candidate(
    cc: &CandidateContext<'_>,
    su: &UserGroup,
    rsk_us: f64,
    selector: KeywordSelector,
) -> QueryResult {
    let mut lists: Vec<Vec<usize>> = Vec::new();
    let mut ql = BinaryHeap::new();
    for (li, loc) in cc.spec.locations.iter().enumerate() {
        if cc.ubl_group(loc, su) < rsk_us {
            continue;
        }
        let lu: Vec<usize> = (0..cc.users.len())
            .filter(|&u| cc.user_reachable(u) && cc.ubl_user(loc, u) >= cc.cols.rsk[u])
            .collect();
        if !lu.is_empty() {
            ql.push(ByKey {
                key: lu.len() as f64,
                item: (li, lists.len()),
            });
            lists.push(lu);
        }
    }
    let mut out = QueryResult::default();
    while let Some(ByKey {
        item: (li, slot), ..
    }) = ql.pop()
    {
        let lu = &lists[slot];
        if lu.len() <= out.brstknn.len() && !out.brstknn.is_empty() {
            break;
        }
        let loc = &cc.spec.locations[li];
        if cc.lbl_group(loc, su) >= rsk_us && !cc.spec.ox_doc.is_empty() {
            let users = cc.brstknn(loc, &cc.spec.ox_doc, lu);
            if users.len() == lu.len() {
                if users.len() > out.brstknn.len() {
                    out = QueryResult {
                        location: li,
                        keywords: Vec::new(),
                        brstknn: users,
                    };
                }
                continue;
            }
        }
        let keywords = match selector {
            KeywordSelector::Greedy => greedy_keywords(cc, li, lu),
            KeywordSelector::GreedyPlus => greedy_plus_keywords(cc, li, lu),
            KeywordSelector::Exact => exact_keywords(cc, li, lu),
        };
        let users = cc.brstknn(loc, &cc.with_keywords(&keywords), lu);
        if users.len() > out.brstknn.len() {
            out = QueryResult {
                location: li,
                keywords,
                brstknn: users,
            };
        }
    }
    out
}

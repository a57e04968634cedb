//! The §7 frontier as a per-location scan, kept as the reference the
//! incremental one in [`super::run_selection`] is held to.
//!
//! Each queue pop sums its list's user counts and scans the list for its
//! largest group; each expansion searches every list for the group,
//! `swap_remove`s it and tests every child at every location. Lists,
//! expansions, evaluations and answers must come out of
//! [`super::run_selection`] exactly as they come out of this loop.

use std::ops::Range;

use index::MiurTree;
use storage::{IoStats, RecordId};

use super::{keep, keep_everywhere, push_children, FrontierList, UserIndexSeed};
use crate::arena::{ElemSlot, QueryArena, UserIndexScratch};
use crate::select::location::{evaluate_location, materialise_winner, KeywordSelector};
use crate::select::CandidateContext;
use crate::topk::ByKey;
use crate::{QueryResult, QuerySpec, ScoreContext};

/// What one query's frontier did: both loops log the expansion order and
/// every evaluation's `lu`; [`super::run_selection`] also counts which of
/// its paths ran.
#[derive(Debug, Default)]
pub(crate) struct FrontierLog {
    /// MIUR nodes in expansion order.
    pub(crate) expanded: Vec<RecordId>,
    /// Each evaluated location with its `lu`, in evaluation order.
    pub(crate) evaluated: Vec<(usize, Vec<usize>)>,
    /// Expansions whose children the bands all decide (one shared run),
    /// and those with a child tested per location.
    pub(crate) shared: usize,
    pub(crate) per_location: usize,
    /// Lists in which the expanded group was not last and a group filled
    /// its place.
    pub(crate) moved: usize,
    /// Evaluations whose list was of the class evaluated before, so `lu`
    /// was kept.
    pub(crate) kept_lu: usize,
}

impl FrontierLog {
    pub(crate) fn clear(&mut self) {
        *self = FrontierLog::default();
    }

    /// Logs the evaluation of location `li` on `lu`, `kept` from the
    /// evaluation before.
    pub(crate) fn evaluation(&mut self, li: usize, lu: &[usize], kept: bool) {
        self.evaluated.push((li, lu.to_vec()));
        self.kept_lu += usize::from(kept);
    }

    /// Logs the expansion of group `eid` (node `node`) into the children
    /// `kids`, before the lists give it up.
    pub(crate) fn expansion(
        &mut self,
        cc: &CandidateContext<'_>,
        node: RecordId,
        eid: u32,
        lists: &[FrontierList],
        elems: &[ElemSlot],
        mut kids: Range<u32>,
    ) {
        self.expanded.push(node);
        if kids.all(|c| keep_everywhere(cc, &elems[c as usize]).is_some()) {
            self.shared += 1;
        } else {
            self.per_location += 1;
        }
        for list in lists {
            if let Some(pos) = list.ids.iter().position(|&e| e == eid) {
                let last = *list.ids.last().expect("holds the group");
                self.moved +=
                    usize::from(pos + 1 < list.ids.len() && elems[last as usize].is_group);
            }
        }
    }
}

/// [`super::run_selection`] with the frontier rescanned per pop and per
/// expansion; logs into `arena.ui.log` as it does.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_selection(
    miur: &MiurTree,
    spec: &QuerySpec,
    ctx: &ScoreContext,
    selector: KeywordSelector,
    io: &IoStats,
    seed: &UserIndexSeed,
    engine: Option<(u64, u64)>,
    arena: &mut QueryArena,
    result: &mut QueryResult,
) -> (usize, usize) {
    let total_users = seed.root_group.count;
    let rsk_us = seed.out.rsk_us;
    let k = spec.k;
    let mut users_scored = 0;
    result.clear();

    let scratch = std::mem::take(&mut arena.ui.cc);
    let mut cc = CandidateContext::new_reusing(ctx, spec, &[], &[], scratch, engine);

    arena.sel.begin();
    let UserIndexScratch {
        elems,
        live,
        ql,
        lu,
        node: node_scratch,
        log,
        ..
    } = &mut arena.ui;
    log.clear();
    let mut lu_lists: Vec<Vec<u32>> = vec![Vec::new(); spec.locations.len()];
    // The contents of every list evaluated so far; a list's name is its
    // index here. A list with no group is never touched again, so its
    // contents stand for it for the rest of the query.
    let mut names: Vec<Vec<usize>> = Vec::new();

    *live = 0;
    let root = seed.node_elems(miur, miur.root(), k, ctx, io, node_scratch);
    let (_, root_len) = push_children(elems, live, &root, &mut cc, &mut users_scored);
    let root_ts = cc.ubl_group_ts(&seed.root_group);

    ql.clear();
    for (li, loc) in spec.locations.iter().enumerate() {
        let list = &mut lu_lists[li];
        if cc.ubl_group_with_ts(loc, &seed.root_group, root_ts) >= rsk_us {
            for id in 0..root_len {
                if keep(&cc, &elems[id as usize], loc) {
                    list.push(id);
                }
            }
        }
        let count: usize = list.iter().map(|&e| elems[e as usize].count()).sum();
        if count > 0 {
            ql.push(ByKey {
                key: count as f64,
                item: li,
            });
        }
    }

    while let Some(ByKey { key, item: li }) = ql.pop() {
        let current: usize = lu_lists[li]
            .iter()
            .map(|&e| elems[e as usize].count())
            .sum();
        if current != key as usize {
            if current > 0 {
                ql.push(ByKey {
                    key: current as f64,
                    item: li,
                });
            }
            continue;
        }
        if current <= arena.sel.best.count() && arena.sel.best.count() > 0 {
            break;
        }

        let group_pos = lu_lists[li]
            .iter()
            .enumerate()
            .filter(|&(_, &e)| elems[e as usize].is_group)
            .max_by_key(|&(_, &e)| elems[e as usize].count())
            .map(|(pos, _)| pos);

        if let Some(pos) = group_pos {
            let eid = lu_lists[li][pos];
            let node = elems[eid as usize].node;
            log.expanded.push(node);
            let kids = seed.node_elems(miur, node, k, ctx, io, node_scratch);
            let (start, len) = push_children(elems, live, &kids, &mut cc, &mut users_scored);
            for (lj, list) in lu_lists.iter_mut().enumerate() {
                if let Some(p) = list.iter().position(|&e| e == eid) {
                    list.swap_remove(p);
                    let locj = spec.locations[lj];
                    for c in start..start + len {
                        if keep(&cc, &elems[c as usize], &locj) {
                            list.push(c);
                        }
                    }
                }
            }
            let count: usize = lu_lists[li]
                .iter()
                .map(|&e| elems[e as usize].count())
                .sum();
            if count > 0 {
                ql.push(ByKey {
                    key: count as f64,
                    item: li,
                });
            }
            continue;
        }

        lu.clear();
        lu.extend(lu_lists[li].iter().map(|&e| elems[e as usize].user));
        log.evaluation(li, lu, false);
        let name = names.iter().position(|n| n == lu).unwrap_or_else(|| {
            names.push(lu.clone());
            names.len() - 1
        });
        arena.sel.locations.dequeued += 1;
        evaluate_location(&cc, li, lu, name, true, selector, &mut arena.sel, result);
    }
    materialise_winner(&cc, &mut arena.sel, result);

    arena.context_reused = cc.text_reused();
    arena.ui.cc = cc.into_scratch();
    (users_scored, total_users - users_scored.min(total_users))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::location::tests::{band_engine, Layout};
    use crate::QueryArena;
    use geo::Point;
    use text::WeightModel;

    /// The incremental frontier against the scan, bit for bit: the answer,
    /// `users_scored` / `users_pruned`, the location counts, the expansion
    /// order and every evaluation's `lu` (which fixes the `brstknn` order),
    /// on clustered, spread and mixed locations, three seeds, α ∈ {0, ½,
    /// 1}, LM and TF-IDF, `k` ∈ {1, 3, 6} and all three selectors, on one,
    /// two, six and thirty locations. One arena serves every incremental
    /// query, so its pooled lists outlive longer and shorter queries, some
    /// of which end with groups still in their lists; the scan gets a
    /// fresh one. Each layout of the incremental path must occur:
    /// expansions whose children the bands all decide (clustered),
    /// expansions with a child tested per location (spread, α > 0), a
    /// group removed from the middle of a list with another group moving
    /// into its place, and evaluations that keep `lu` from the list of the
    /// same class evaluated before (clustered).
    #[test]
    fn incremental_frontier_matches_the_scan() {
        let mut arena = QueryArena::new();
        let (mut shared, mut per_location) = ([0; 3], [0; 3]);
        let (mut moved, mut left_groups, mut kept_lu) = (0, 0, [0; 3]);
        for layout in [Layout::Clustered, Layout::Spread, Layout::Mixed] {
            for model in [WeightModel::lm(), WeightModel::TfIdf] {
                for alpha in [0.0, 0.5, 1.0] {
                    for seed in [26, 27, 28] {
                        let (eng, full) = band_engine(layout, model, alpha, seed);
                        let miur = eng.miur.as_ref().expect("built with a user index");
                        for (k, take) in [(1, 30), (3, 2), (3, 30), (6, 6), (6, 1), (6, 30)] {
                            let mut spec = full.clone();
                            spec.k = k;
                            spec.locations = widen(&full.locations, take);
                            let uis = eng.user_index_seed(k);
                            for selector in [
                                KeywordSelector::Greedy,
                                KeywordSelector::GreedyPlus,
                                KeywordSelector::Exact,
                            ] {
                                let at = format!(
                                    "{layout:?}, {model:?}, α {alpha}, seed {seed}, k {k}, \
                                     {take} locations, {selector:?}"
                                );
                                let mut got = QueryResult::default();
                                let got_users = super::super::run_selection(
                                    miur,
                                    &spec,
                                    &eng.ctx,
                                    selector,
                                    &eng.io,
                                    &uis,
                                    Some(eng.state_id()),
                                    &mut arena,
                                    &mut got,
                                );
                                let mut scan = QueryArena::new();
                                let mut want = QueryResult::default();
                                let want_users = run_selection(
                                    miur, &spec, &eng.ctx, selector, &eng.io, &uis, None,
                                    &mut scan, &mut want,
                                );
                                let (log, want_log) = (&arena.ui.log, &scan.ui.log);
                                assert_eq!(got, want, "{at}: answer");
                                assert_eq!(got_users, want_users, "{at}: users scored, pruned");
                                assert_eq!(arena.sel.locations, scan.sel.locations, "{at}");
                                assert_eq!(log.expanded, want_log.expanded, "{at}: expansions");
                                assert_eq!(log.evaluated, want_log.evaluated, "{at}: lu");
                                shared[layout as usize] += log.shared;
                                if alpha > 0.0 {
                                    per_location[layout as usize] += log.per_location;
                                }
                                moved += log.moved;
                                kept_lu[layout as usize] += log.kept_lu;
                                let lists = &arena.ui.lists[..spec.locations.len()];
                                left_groups +=
                                    usize::from(lists.iter().any(|l| !l.groups.is_empty()));
                            }
                        }
                    }
                }
            }
        }
        let (c, s) = (Layout::Clustered as usize, Layout::Spread as usize);
        assert!(
            shared[c] > 1000
                && per_location[s] > 1000
                && moved > 1000
                && left_groups > 30
                && kept_lu[c] > 1000,
            "coverage: shared {shared:?}, per location {per_location:?}, moved {moved}, \
             {left_groups} queries left groups in their lists, lu kept {kept_lu:?}"
        );
    }

    /// The first `n` of `locations`, or, past their number, copies of
    /// them shifted by multiples of 1e-7.
    fn widen(locations: &[Point], n: usize) -> Vec<Point> {
        let m = locations.len();
        (0..n)
            .map(|i| {
                let l = locations[i % m];
                Point::new(l.x + (i / m) as f64 * 1e-7, l.y)
            })
            .collect()
    }
}

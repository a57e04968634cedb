//! §6.2.2, Algorithm 4: exact keyword selection with pruning.
//!
//! Enumerates keyword combinations but applies the paper's four pruning
//! rules first:
//!
//! 1. only users in `LU_maxℓ` can qualify (the caller passes that list);
//! 2. only candidate keywords held by at least one of those users matter
//!    (`W ∩ Wu`);
//! 3. when `|W ∩ Wu| ≤ ws` there is just one sensible choice — return it;
//! 4. users whose `LBL(ℓ, u)` already reaches `RSk(u)` are BRSTkNNs for
//!    *every* combination and are counted once, outside the loop.

use text::TermId;

use crate::arena::ExactScratch;
use crate::select::{bit, set_bit, CandidateContext};

/// Resettable enumerator of the `k`-combinations of `0..n` (lexicographic
/// index tuples): [`Combinations::reset`], then [`Combinations::next_ref`]
/// until `None`, so the query arenas re-enumerate without reallocating
/// the index tuple.
#[derive(Debug)]
pub(crate) struct Combinations {
    n: usize,
    k: usize,
    idx: Vec<usize>,
    done: bool,
    started: bool,
}

impl Default for Combinations {
    fn default() -> Self {
        Combinations {
            n: 0,
            k: 0,
            idx: Vec::new(),
            done: true,
            started: false,
        }
    }
}

impl Combinations {
    /// Rewinds to the first `k`-combination of `0..n`, reusing the buffer.
    pub(crate) fn reset(&mut self, n: usize, k: usize) {
        self.n = n;
        self.k = k;
        self.idx.clear();
        self.idx.extend(0..k);
        self.done = k > n || k == 0;
        self.started = false;
    }

    /// Advances self's index tuple in place (lexicographic order).
    fn advance(&mut self) {
        let mut i = self.k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.idx[i] < self.n - (self.k - i) {
                self.idx[i] += 1;
                for j in (i + 1)..self.k {
                    self.idx[j] = self.idx[j - 1] + 1;
                }
                break;
            }
        }
    }

    /// The next combination, borrowed; `None` once every one was yielded.
    pub(crate) fn next_ref(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if self.started {
            self.advance();
            if self.done {
                return None;
            }
        }
        self.started = true;
        Some(&self.idx)
    }
}

/// Algorithm 4: the best keyword set for location `loc_idx` over the
/// candidate users `lu`, found exactly.
///
/// Returns the chosen keywords (ascending). When several combinations tie,
/// the lexicographically first is returned.
pub fn exact_keywords(cc: &CandidateContext<'_>, loc_idx: usize, lu: &[usize]) -> Vec<TermId> {
    let mut ss = Vec::new();
    cc.fill_ss(&cc.spec.locations[loc_idx], lu, &mut ss);
    let mut ex = ExactScratch::default();
    let mut out = Vec::new();
    exact_keywords_into(cc, lu, &ss, &mut ex, &mut out);
    out
}

/// [`exact_keywords`] into arena scratch: `ss_lu` carries the location's
/// spatial scores aligned with `lu`, and the chosen keywords land in
/// `out`. Allocation-free once the scratch is warm.
pub(crate) fn exact_keywords_into(
    cc: &CandidateContext<'_>,
    lu: &[usize],
    ss_lu: &[f64],
    ex: &mut ExactScratch,
    out: &mut Vec<TermId>,
) {
    let ExactScratch {
        wc,
        held,
        uncertain,
        combos,
        cand,
        delta,
    } = ex;
    out.clear();

    // Pruning 2: candidate keywords present in at least one LU user, as
    // ascending slots (ascending terms).
    held.clear();
    held.resize(cc.cols.ox_bits.len(), 0);
    for &u in lu {
        for &(s, _) in cc.ucand(u) {
            set_bit(held, s);
        }
    }
    wc.clear();
    wc.extend(cc.cols.kw_slots.iter().copied().filter(|&s| bit(held, s)));
    wc.sort_unstable();
    wc.dedup();

    // Early termination (pruning 3): only one sensible choice.
    if wc.len() <= cc.spec.ws {
        out.extend(wc.iter().map(|&s| cc.cols.slot_terms[s]));
        return;
    }

    // Pruning 4: users certain regardless of the keyword choice — those
    // qualifying with ox.d alone (textual overlap included).
    let mut certain = 0usize;
    uncertain.clear();
    cc.for_each_verdict(&cc.cols.ox_bits, lu, ss_lu, |pos, sure| {
        if sure {
            certain += 1;
        } else {
            uncertain.push(pos);
        }
    });

    // Uncertain users fail with `ox.d` alone by construction, and an
    // uncertain user holding none of a combination's keywords computes the
    // bit-identical score — so each combination only has to re-evaluate
    // the holders of its keywords (gathered from the inverted rows).
    delta.build(cc, wc, lu, uncertain.iter().copied());

    let mut best_count = 0usize;
    let mut best_set = false;
    combos.reset(wc.len(), cc.spec.ws);
    while let Some(combo) = combos.next_ref() {
        // A combination qualifies at most `certain + holders` users.
        if best_set && certain + delta.potential(combo.iter().copied()) <= best_count {
            continue;
        }
        let touched = delta.gather(combo.iter().copied());
        if best_set && certain + touched <= best_count {
            continue;
        }
        cc.cand_set_slots(combo.iter().map(|&i| wc[i]), cand);
        let mut count = certain;
        for &pos in delta.touched() {
            let pos = pos as usize;
            if cc.qualifies_with_ss(ss_lu[pos], cand, lu[pos]) {
                count += 1;
            }
        }
        if count > best_count || !best_set {
            best_count = count;
            best_set = true;
            out.clear();
            out.extend(combo.iter().map(|&i| cc.cols.slot_terms[wc[i]]));
        }
    }
}

/// Exact BRSTkNN cardinality for a fixed tuple (used by tests and the
/// approximation-ratio metric): counts qualifying users among `lu`.
pub fn count_for(
    cc: &CandidateContext<'_>,
    loc_idx: usize,
    keywords: &[TermId],
    lu: &[usize],
) -> usize {
    let cand = cc.with_keywords(keywords);
    cc.brstknn(&cc.spec.locations[loc_idx], &cand, lu).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::greedy::greedy_keywords;
    use crate::select::test_fixture::{fixture, t};

    /// Every combination `c` yields after a reset to `(n, k)`.
    fn enumerate(c: &mut Combinations, n: usize, k: usize) -> Vec<Vec<usize>> {
        c.reset(n, k);
        let mut all = Vec::new();
        while let Some(ix) = c.next_ref() {
            all.push(ix.to_vec());
        }
        all
    }

    #[test]
    fn combinations_enumerate_all() {
        let got = enumerate(&mut Combinations::default(), 4, 2);
        assert_eq!(
            got,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn combinations_edge_cases() {
        let mut c = Combinations::default();
        assert!(c.next_ref().is_none(), "a fresh enumerator yields nothing");
        assert_eq!(enumerate(&mut c, 3, 0).len(), 0);
        assert_eq!(enumerate(&mut c, 2, 3).len(), 0);
        assert_eq!(enumerate(&mut c, 3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(enumerate(&mut c, 30, 2).len(), 435);
    }

    /// A reset enumerator yields the same sequence again, in lexicographic
    /// order, whatever it enumerated before, and stays done once
    /// exhausted.
    #[test]
    fn next_ref_restarts_on_reset() {
        let mut c = Combinations::default();
        for (n, k) in [(4, 2), (3, 0), (2, 3), (3, 3), (5, 1), (6, 4), (4, 2)] {
            let want = enumerate(&mut c, n, k);
            assert!(c.next_ref().is_none(), "n={n} k={k}: exhausted stays done");
            assert_eq!(enumerate(&mut c, n, k), want, "n={n} k={k}");
            assert!(want.windows(2).all(|w| w[0] < w[1]), "n={n} k={k}");
            assert!(want.iter().all(|ix| ix.len() == k), "n={n} k={k}");
        }
    }

    #[test]
    fn exact_matches_exhaustive_enumeration() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        for loc_idx in 0..f.spec.locations.len() {
            let got = exact_keywords(&cc, loc_idx, &lu);
            let got_count = count_for(&cc, loc_idx, &got, &lu);

            // Reference: enumerate every subset of size ≤ ws.
            let kws = &f.spec.keywords;
            let mut best = 0;
            for i in 0..kws.len() {
                best = best.max(count_for(&cc, loc_idx, &[kws[i]], &lu));
                for j in (i + 1)..kws.len() {
                    best = best.max(count_for(&cc, loc_idx, &[kws[i], kws[j]], &lu));
                }
            }
            assert_eq!(got_count, best, "loc {loc_idx}");
        }
    }

    /// The holder-row shortcut must reproduce the full per-combination
    /// rescan — chosen keyword set included, ties and all — on messy
    /// random instances.
    #[test]
    fn exact_matches_naive_rescan_on_random_instances() {
        use crate::select::test_fixture::random_fixture;
        for seed in 0..4 {
            let f = random_fixture(seed + 10, 48, 9);
            let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
            let lu: Vec<usize> = (0..f.users.len()).collect();
            for li in 0..f.spec.locations.len() {
                assert_eq!(
                    exact_keywords(&cc, li, &lu),
                    crate::select::reference::exact_keywords(&cc, li, &lu),
                    "seed {seed}, loc {li}"
                );
            }
        }
    }

    #[test]
    fn greedy_never_beats_exact() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        for loc_idx in 0..f.spec.locations.len() {
            let e = count_for(&cc, loc_idx, &exact_keywords(&cc, loc_idx, &lu), &lu);
            let g = count_for(&cc, loc_idx, &greedy_keywords(&cc, loc_idx, &lu), &lu);
            assert!(g <= e);
        }
    }

    #[test]
    fn early_termination_returns_all_when_few_keywords() {
        let f = fixture();
        let mut spec = f.spec.clone();
        spec.keywords = vec![t(0), t(1)];
        spec.ws = 3;
        let cc = CandidateContext::new(&f.ctx, &spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        let got = exact_keywords(&cc, 0, &lu);
        assert_eq!(got, vec![t(0), t(1)]);
    }

    #[test]
    fn keywords_absent_from_all_users_are_pruned() {
        let f = fixture();
        let mut spec = f.spec.clone();
        spec.keywords = vec![t(0), t(1), t(50), t(51), t(52)];
        spec.ws = 2;
        let cc = CandidateContext::new(&f.ctx, &spec, &f.users, &f.rsk);
        let lu: Vec<usize> = (0..f.users.len()).collect();
        // Only t0, t1 survive pruning → early termination path.
        assert_eq!(exact_keywords(&cc, 0, &lu), vec![t(0), t(1)]);
    }

    #[test]
    fn empty_lu_returns_empty() {
        let f = fixture();
        let cc = CandidateContext::new(&f.ctx, &f.spec, &f.users, &f.rsk);
        let got = exact_keywords(&cc, 0, &[]);
        assert!(got.is_empty());
        assert_eq!(count_for(&cc, 0, &got, &[]), 0);
    }
}

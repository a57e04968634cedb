//! Top-k computation: the §4 baseline and the §5 joint processing.
//!
//! The `MaxBRSTkNN` pipeline first needs `RSk(u)` — the score of the k-th
//! ranked object — for (potentially) every user. The baseline computes each
//! user's top-k independently on the IR-tree; the joint algorithm traverses
//! the MIR-tree once for a super-user and shares every node and inverted
//! file access across all users.

pub mod baseline;
pub mod individual;
pub mod joint;

use geo::Point;
use text::WeightedDoc;

use crate::UserData;

/// An object retrieved from an MIR-tree leaf during joint processing, with
/// its exact term weights (restricted to the query-term universe
/// `us.dUni`) and its bounds w.r.t. the super-user.
#[derive(Debug, Clone)]
pub struct ScoredObject {
    /// Object id.
    pub id: u32,
    /// Object location.
    pub point: Point,
    /// Exact model weights for the union keywords.
    pub weights: WeightedDoc,
    /// `LB(o, us)` — lower bound on `STS(o, u)` for every user.
    pub lb: f64,
    /// `UB(o, us)` — upper bound on `STS(o, u)` for every user.
    pub ub: f64,
}

/// Result of the Algorithm-1 tree traversal.
#[derive(Debug, Clone)]
pub struct TopkOutcome {
    /// `LO`: the k objects with the best lower bounds (any order).
    pub lo: Vec<ScoredObject>,
    /// `RO`: evicted objects that may still reach some user's top-k,
    /// descending by `UB(o, us)` — the order Algorithm 2's early break
    /// requires.
    pub ro: Vec<ScoredObject>,
    /// `RSk(us)`: the k-th best lower bound seen (−∞ when fewer than `k`
    /// objects exist).
    pub rsk_us: f64,
}

/// One user's top-k result.
#[derive(Debug, Clone)]
pub struct UserTopk {
    /// The user's id.
    pub user: u32,
    /// `(object id, STS)` pairs, descending by score, at most `k`.
    pub topk: Vec<(u32, f64)>,
    /// `RSk(u)`: score of the k-th ranked object (−∞ when the user has
    /// fewer than `k` scored objects).
    pub rsk: f64,
}

/// Runs a per-user top-k kernel over `parts` contiguous slices of `users`
/// — `f(i, slice_i)` — and concatenates the results in user order. The
/// slices are dealt in contiguous runs to at most one scoped thread per
/// core (a single run stays on the caller), so a slice's wall time never
/// includes waiting for a core behind its siblings. The kernels
/// (Algorithm 2, the §4 baseline) treat users independently, so the
/// result equals `f(0, users)`. A worker's panic resumes on the caller
/// with its own payload.
///
/// # Panics
/// Panics when `parts == 0`.
pub(crate) fn fan_out_users<F>(users: &[UserData], parts: usize, f: F) -> Vec<UserTopk>
where
    F: Fn(usize, &[UserData]) -> Vec<UserTopk> + Sync,
{
    assert!(parts > 0, "fan-out needs at least one slice");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = parts.min(cores);
    let n = users.len();
    let run = &|w: usize| -> Vec<UserTopk> {
        (w * parts / workers..(w + 1) * parts / workers)
            .flat_map(|i| f(i, &users[i * n / parts..(i + 1) * n / parts]))
            .collect()
    };
    if workers == 1 {
        return run(0);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|w| scope.spawn(move || run(w))).collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Max-heap adapter ordering payloads by an `f64` key.
#[derive(Debug, Clone)]
pub(crate) struct ByKey<T> {
    pub key: f64,
    pub item: T,
}

impl<T> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for ByKey<T> {}
impl<T> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.total_cmp(&other.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn bykey_is_a_max_heap_key() {
        let mut h = BinaryHeap::new();
        h.push(ByKey {
            key: 0.3,
            item: "a",
        });
        h.push(ByKey {
            key: 0.9,
            item: "b",
        });
        h.push(ByKey {
            key: 0.5,
            item: "c",
        });
        assert_eq!(h.pop().unwrap().item, "b");
        assert_eq!(h.pop().unwrap().item, "c");
        assert_eq!(h.pop().unwrap().item, "a");
    }

    #[test]
    #[should_panic(expected = "slice 1 failed")]
    fn fan_out_resumes_a_worker_panic_with_its_own_payload() {
        let users: Vec<UserData> = (0..4)
            .map(|id| UserData {
                id,
                point: Point::new(0.0, 0.0),
                doc: text::Document::new(),
            })
            .collect();
        fan_out_users(&users, 2, |i, _| {
            assert!(i != 1, "slice 1 failed");
            Vec::new()
        });
    }

    #[test]
    fn reverse_bykey_is_a_min_heap_key() {
        let mut h = BinaryHeap::new();
        for k in [0.3, 0.9, 0.5] {
            h.push(Reverse(ByKey { key: k, item: () }));
        }
        assert_eq!(h.pop().unwrap().0.key, 0.3);
    }
}

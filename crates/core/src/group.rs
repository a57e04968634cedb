//! The super-user and its generalization to arbitrary user groups.
//!
//! §5.2 groups all users into one "super-user" `us`: the MBR of their
//! locations, the union `us.dUni` and intersection `us.dInt` of their
//! keyword sets. §7 applies the same idea to MIUR-tree nodes — any subtree
//! of users is summarized the same way. [`UserGroup`] covers both.
//!
//! Beyond the paper's three fields we also carry bounds on the user text
//! normalizer `N(u)` (the paper's `Pmax`): `n_min ≤ N(u) ≤ n_max` for every
//! user in the group. These make the `MaxTS`/`MinTS` estimations provably
//! correct even when users weigh their keyword sets differently (the
//! paper's generated users all share one normalizer, in which case
//! `n_min = n_max` and the bounds coincide with Eq. 4's `Pmax`).
//!
//! A group over concrete users also knows `max_terms`, the most keywords
//! any member holds: no member's text score adds more weights than that,
//! which caps the traversal's text bound (see `bounds.rs`).

use geo::Rect;
use text::{Document, TermId, TextScorer};

use crate::UserData;

/// A summarized set of users: the super-user (§5.2) or an MIUR node (§7).
#[derive(Debug, Clone)]
pub struct UserGroup {
    /// MBR of the member locations (`us.l`).
    pub mbr: Rect,
    /// Union of member keyword sets (`us.dUni`).
    pub d_uni: Document,
    /// Intersection of member keyword sets (`us.dInt`).
    pub d_int: Document,
    /// Lower bound on any member's normalizer `N(u)`.
    pub n_min: f64,
    /// Upper bound on any member's normalizer `N(u)`.
    pub n_max: f64,
    /// Number of users summarized.
    pub count: usize,
    /// The most keywords any member holds (`m`); `usize::MAX` when
    /// unknown, which leaves the upper bounds uncapped.
    pub max_terms: usize,
}

impl UserGroup {
    /// Builds the super-user over concrete users, with *exact* normalizer
    /// extremes.
    ///
    /// # Panics
    /// Panics when `users` is empty.
    pub fn from_users(users: &[UserData], scorer: &TextScorer) -> Self {
        assert!(!users.is_empty(), "super-user over an empty user set");
        let mbr = Rect::bounding(users.iter().map(|u| u.point)).unwrap();

        let mut uni: Vec<TermId> = Vec::new();
        for u in users {
            uni.extend(u.doc.terms());
        }
        uni.sort_unstable();
        uni.dedup();

        let mut int: Vec<TermId> = users[0].doc.terms().collect();
        for u in &users[1..] {
            int.retain(|&t| u.doc.contains(t));
        }

        let mut n_min = f64::INFINITY;
        let mut n_max: f64 = 0.0;
        let mut max_terms = 0;
        for u in users {
            let n = scorer.normalizer(&u.doc);
            n_min = n_min.min(n);
            n_max = n_max.max(n);
            max_terms = max_terms.max(u.doc.num_terms());
        }

        UserGroup {
            mbr,
            d_uni: Document::from_terms(uni),
            d_int: Document::from_terms(int),
            n_min,
            n_max,
            count: users.len(),
            max_terms,
        }
    }

    /// Builds a group from an MIUR node entry carrying exact normalizer
    /// brackets (stored at index-build time; see
    /// [`index::IndexedUser::norm`]). An entry does not record how many
    /// keywords its users hold, so the group's `max_terms` is unbounded.
    pub fn from_node_entry(
        mbr: Rect,
        uni: &[TermId],
        int: &[TermId],
        count: usize,
        n_min: f64,
        n_max: f64,
    ) -> Self {
        UserGroup {
            mbr,
            d_uni: Document::from_terms(uni.iter().copied()),
            d_int: Document::from_terms(int.iter().copied()),
            n_min,
            n_max,
            count,
            max_terms: usize::MAX,
        }
    }

    /// Sorted union terms (query-term universe for index accesses).
    pub fn uni_terms(&self) -> Vec<TermId> {
        self.d_uni.terms().collect()
    }

    /// Upper-bounds a raw weight sum over `d_uni` as a normalized `TS`
    /// value: `min(1, sum / n_min)`.
    ///
    /// `TS(o, u) = Σ_{t∈u.d} w / N(u) ≤ Σ_{t∈uni} wmax / n_min`, and `TS`
    /// is always ≤ 1, so the cap never cuts below a true score.
    #[inline]
    pub fn ts_upper(&self, sum_over_uni: f64) -> f64 {
        if sum_over_uni <= 0.0 {
            0.0
        } else if self.n_min <= 0.0 {
            1.0
        } else {
            (sum_over_uni / self.n_min).min(1.0)
        }
    }

    /// Lower-bounds a raw weight sum over `d_int` as a normalized `TS`
    /// value: `sum / n_max` (0 when the group shares no keyword).
    #[inline]
    pub fn ts_lower(&self, sum_over_int: f64) -> f64 {
        if self.n_max <= 0.0 {
            0.0
        } else {
            sum_over_int / self.n_max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Point;
    use text::WeightModel;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    fn users() -> Vec<UserData> {
        vec![
            UserData {
                id: 0,
                point: Point::new(0.0, 0.0),
                doc: Document::from_terms([t(0), t(1)]),
            },
            UserData {
                id: 1,
                point: Point::new(4.0, 2.0),
                doc: Document::from_terms([t(0), t(2)]),
            },
            UserData {
                id: 2,
                point: Point::new(2.0, 6.0),
                doc: Document::from_terms([t(0), t(1), t(2)]),
            },
        ]
    }

    fn scorer() -> TextScorer {
        let docs = vec![
            Document::from_terms([t(0), t(1)]),
            Document::from_terms([t(2)]),
        ];
        TextScorer::build(WeightModel::KeywordOverlap, &docs)
    }

    #[test]
    fn super_user_fields_match_example_semantics() {
        let su = UserGroup::from_users(&users(), &scorer());
        assert_eq!(
            su.mbr,
            Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 6.0))
        );
        assert_eq!(su.d_uni.terms().collect::<Vec<_>>(), vec![t(0), t(1), t(2)]);
        assert_eq!(su.d_int.terms().collect::<Vec<_>>(), vec![t(0)]);
        assert_eq!(su.count, 3);
    }

    #[test]
    fn normalizer_extremes_bracket_every_user() {
        let sc = scorer();
        let us = users();
        let su = UserGroup::from_users(&us, &sc);
        for u in &us {
            let n = sc.normalizer(&u.doc);
            assert!(su.n_min <= n + 1e-12);
            assert!(su.n_max >= n - 1e-12);
        }
    }

    #[test]
    fn ts_upper_caps_at_one() {
        let su = UserGroup::from_users(&users(), &scorer());
        assert_eq!(su.ts_upper(1e12), 1.0);
        assert_eq!(su.ts_upper(0.0), 0.0);
        assert!(su.ts_upper(su.n_min / 2.0) <= 0.5 + 1e-12);
    }

    #[test]
    fn ts_lower_zero_on_empty_intersection() {
        let mut us = users();
        us.push(UserData {
            id: 3,
            point: Point::new(1.0, 1.0),
            doc: Document::from_terms([t(5)]),
        });
        let su = UserGroup::from_users(&us, &scorer());
        assert!(su.d_int.is_empty());
        assert_eq!(su.ts_lower(0.0), 0.0);
    }

    #[test]
    fn singleton_group_is_exact() {
        let sc = scorer();
        let us = &users()[..1];
        let su = UserGroup::from_users(us, &sc);
        let n = sc.normalizer(&us[0].doc);
        assert_eq!(su.n_min, n);
        assert_eq!(su.n_max, n);
        assert_eq!(su.d_uni, us[0].doc);
        assert_eq!(su.d_int, us[0].doc);
    }
}

//! The bichromatic data model and query specification (Definition 1).

use geo::Point;
use text::{Document, TermId};

/// An object `o ∈ O`: a location and a text description.
#[derive(Debug, Clone)]
pub struct ObjectData {
    /// Dense object id (position in the object table).
    pub id: u32,
    /// Location `o.l`.
    pub point: Point,
    /// Text description `o.d`.
    pub doc: Document,
}

/// A user `u ∈ U`: a location and a keyword set.
#[derive(Debug, Clone)]
pub struct UserData {
    /// Dense user id (position in the user table).
    pub id: u32,
    /// Location `u.l`.
    pub point: Point,
    /// Keyword set `u.d`.
    pub doc: Document,
}

/// A `MaxBRSTkNN(ox, L, W, ws, k)` query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Existing text description of the query object `ox` (may be empty).
    pub ox_doc: Document,
    /// Candidate locations `L`.
    pub locations: Vec<Point>,
    /// Candidate keywords `W`.
    pub keywords: Vec<TermId>,
    /// Maximum number of candidate keywords to pick (`ws ≤ |W|`).
    pub ws: usize,
    /// Number of relevant objects considered per user (`k`).
    pub k: usize,
}

impl QuerySpec {
    /// Reference keyword-set length used when weighing candidate documents:
    /// the final ad can hold `|ox.d| + ws` distinct keywords. Saturates, so
    /// a `ws` off the wire near `usize::MAX` weighs candidates as the
    /// longest ad rather than wrapping to a one-keyword one.
    pub fn ref_len(&self) -> u64 {
        self.ox_doc.num_terms().saturating_add(self.ws).max(1) as u64
    }
}

/// The answer to a `MaxBRSTkNN` query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// Index into [`QuerySpec::locations`] of the chosen location `ℓ`.
    pub location: usize,
    /// The chosen keyword set `W'` (ascending; may be smaller than `ws`,
    /// and empty when the location alone already wins every reachable user).
    pub keywords: Vec<TermId>,
    /// Ids of the users whose BRSTkNN contains `ox` at the chosen tuple.
    pub brstknn: Vec<u32>,
}

impl QueryResult {
    /// The optimization objective: `|BRSTkNN|` of the chosen tuple.
    pub fn cardinality(&self) -> usize {
        self.brstknn.len()
    }

    /// Resets to the empty answer at location 0, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.location = 0;
        self.keywords.clear();
        self.brstknn.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_len_accounts_for_existing_text() {
        let spec = QuerySpec {
            ox_doc: Document::from_terms([TermId(1), TermId(2)]),
            locations: vec![Point::new(0.0, 0.0)],
            keywords: vec![TermId(3)],
            ws: 3,
            k: 1,
        };
        assert_eq!(spec.ref_len(), 5);
    }

    #[test]
    fn ref_len_never_zero() {
        let spec = QuerySpec {
            ox_doc: Document::new(),
            locations: vec![],
            keywords: vec![],
            ws: 0,
            k: 1,
        };
        assert_eq!(spec.ref_len(), 1);
    }

    #[test]
    fn ref_len_saturates_on_a_huge_budget() {
        let spec = QuerySpec {
            ox_doc: Document::from_terms([TermId(1), TermId(2)]),
            locations: vec![Point::new(0.0, 0.0)],
            keywords: vec![TermId(3)],
            ws: usize::MAX - 1,
            k: 1,
        };
        assert_eq!(spec.ref_len(), usize::MAX as u64);
    }
}

//! Match representation and query semantics (§2.2 of the paper).
//!
//! A *match* assigns one event to each (positive) primitive operator of a
//! query or projection. The match is valid when the assigned events respect
//! the operator tree's order constraints, the time window, and the
//! predicates; `NSEQ` absence is checked separately against the forbidden
//! pattern's matches ([`nseq_violated`]).

pub mod evaluator;
pub mod join;
pub mod store;

use muse_core::event::{Event, Timestamp};
use muse_core::query::{OrderRel, Query};
use muse_core::types::PrimSet;
use std::sync::Arc;

pub use evaluator::Evaluator;
pub use join::{JoinState, JoinTask, NaiveJoinTask, SlotSpec};
pub use store::{MatchStore, StoreState, StoredMatch};

/// A (partial) match: events assigned to primitive operators, sorted by
/// primitive id. Prim ids are those of the *source query*, so matches of
/// different projections of one query merge without renaming.
///
/// The event list is shared (`Arc`), so cloning a match — which the join
/// engine does once per store insert and per network route — is O(1) and
/// allocation-free instead of a deep copy of every payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    events: Arc<[(muse_core::types::PrimId, Event)]>,
}

impl Match {
    /// Creates a match from `(prim, event)` pairs.
    pub fn new(mut events: Vec<(muse_core::types::PrimId, Event)>) -> Self {
        events.sort_by_key(|(p, _)| *p);
        Self {
            events: events.into(),
        }
    }

    /// A single-event match for a primitive operator: one allocation (the
    /// executors build one per injected event and per received one).
    pub fn single(prim: muse_core::types::PrimId, event: Event) -> Self {
        Self {
            events: Arc::from([(prim, event)]),
        }
    }

    /// The assigned primitive operators.
    pub fn prims(&self) -> PrimSet {
        self.events.iter().map(|(p, _)| *p).collect()
    }

    /// The event assigned to a primitive operator.
    pub fn get(&self, prim: muse_core::types::PrimId) -> Option<&Event> {
        self.events
            .binary_search_by_key(&prim, |(p, _)| *p)
            .ok()
            .map(|i| &self.events[i].1)
    }

    /// All `(prim, event)` pairs in primitive order.
    pub fn entries(&self) -> &[(muse_core::types::PrimId, Event)] {
        &self.events
    }

    /// Number of assigned primitives.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no primitive is assigned.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Earliest timestamp in the match.
    pub fn first_time(&self) -> Timestamp {
        self.events.iter().map(|(_, e)| e.time).min().unwrap_or(0)
    }

    /// Latest timestamp in the match.
    pub fn last_time(&self) -> Timestamp {
        self.events.iter().map(|(_, e)| e.time).max().unwrap_or(0)
    }

    /// Earliest trace position in the match.
    pub fn first_pos(&self) -> (Timestamp, u64) {
        self.events
            .iter()
            .map(|(_, e)| e.trace_pos())
            .min()
            .unwrap_or((0, 0))
    }

    /// Latest trace position in the match.
    pub fn last_pos(&self) -> (Timestamp, u64) {
        self.events
            .iter()
            .map(|(_, e)| e.trace_pos())
            .max()
            .unwrap_or((0, 0))
    }

    /// Merges two matches of disjoint or agreeing primitive sets. Returns
    /// `None` if a shared primitive is assigned different events (matches
    /// from overlapping projections must agree on shared primitives,
    /// cf. Example 8 of the paper).
    pub fn merge(&self, other: &Match) -> Option<Match> {
        let mut events = self.events.to_vec();
        for (p, e) in other.events.iter() {
            match events.binary_search_by_key(p, |(q, _)| *q) {
                Ok(i) => {
                    if events[i].1.seq != e.seq {
                        return None;
                    }
                }
                Err(i) => events.insert(i, (*p, e.clone())),
            }
        }
        Some(Match {
            events: events.into(),
        })
    }

    /// Checks that both matches assign the same event to every primitive of
    /// `shared` that they both assign. This is a cheap pre-merge guard:
    /// when it returns `false`, [`Match::merge`] is guaranteed to fail, so
    /// the merge's allocation and event copies can be skipped.
    pub fn agrees_on(&self, other: &Match, shared: PrimSet) -> bool {
        shared.iter().all(|p| match (self.get(p), other.get(p)) {
            (Some(a), Some(b)) => a.seq == b.seq,
            _ => true,
        })
    }

    /// A canonical fingerprint (sorted event sequence numbers), usable for
    /// deduplication and comparison with ground-truth results.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.events.iter().map(|(_, e)| e.seq).collect()
    }
}

/// Checks whether an assignment is internally valid w.r.t. the query's
/// order constraints, time window, and the predicates decidable within the
/// assigned primitives. Negation is *not* checked here (see
/// [`nseq_violated`]); completeness (which primitives must be assigned) is
/// the caller's concern.
///
/// Order constraints of a projection equal the restriction of its source
/// query's constraints (projection removes operators but preserves every
/// surviving pair's least common ancestor kind), so the query-level
/// constraint matrix applies to matches of any of its projections.
pub fn is_valid_match(m: &Match, query: &Query) -> bool {
    // Window.
    if m.last_time() - m.first_time() > query.window() {
        return false;
    }
    // Pairwise order constraints.
    for (i, (a, ea)) in m.events.iter().enumerate() {
        for (b, eb) in &m.events[i + 1..] {
            match query.order_rel(*a, *b) {
                OrderRel::Before => {
                    if ea.trace_pos() >= eb.trace_pos() {
                        return false;
                    }
                }
                OrderRel::After => {
                    if ea.trace_pos() <= eb.trace_pos() {
                        return false;
                    }
                }
                OrderRel::Unordered => {}
            }
        }
    }
    // Predicates entirely within the (positive) assignment.
    let positive = m.prims();
    for pred in query.predicates() {
        if pred.prims().is_subset(positive) {
            match pred.evaluate(|p| m.get(p)) {
                Some(true) => {}
                _ => return false,
            }
        }
    }
    true
}

/// Checks whether a forbidden (negated) match `neg` invalidates the
/// positive match `m` for an `NSEQ` context with the given first/last
/// primitive sets: the forbidden pattern must lie strictly between the end
/// of the first part and the start of the last part, and must satisfy the
/// predicates connecting it to the positive assignment.
pub fn nseq_violated(m: &Match, neg: &Match, first: PrimSet, last: PrimSet, query: &Query) -> bool {
    let low = m
        .entries()
        .iter()
        .filter(|(p, _)| first.contains(*p))
        .map(|(_, e)| e.trace_pos())
        .max();
    let high = m
        .entries()
        .iter()
        .filter(|(p, _)| last.contains(*p))
        .map(|(_, e)| e.trace_pos())
        .min();
    let (Some(low), Some(high)) = (low, high) else {
        // Context not (fully) part of this projection: nothing to check.
        return false;
    };
    if !(neg.first_pos() > low && neg.last_pos() < high) {
        return false;
    }
    // Predicates linking the negated primitives to the assignment: the
    // forbidden pattern only counts if it satisfies them.
    let combined_prims = m.prims().union(neg.prims());
    for pred in query.predicates() {
        let prims = pred.prims();
        if !prims.is_disjoint(neg.prims()) && prims.is_subset(combined_prims) {
            let ok = pred.evaluate(|p| neg.get(p).or_else(|| m.get(p)));
            if ok != Some(true) {
                return false;
            }
        }
    }
    true
}

/// The absence constraints a complete match of an `NSEQ` query certifies:
/// for each `NSEQ` context fully assigned by `m`, one
/// `(negated type, lo, hi)` triple per negated primitive, where `lo`/`hi`
/// are the *timestamps* of the witness events bounding the forbidden
/// interval — the same bounds [`nseq_violated`] checks, so a provenance
/// record carrying these windows is a self-contained witness: the match is
/// valid iff no event of the negated type (passing the linking predicates)
/// falls strictly inside any of its windows. Empty for negation-free
/// queries and for partial matches not covering a context.
pub fn absence_windows(
    m: &Match,
    query: &Query,
) -> Vec<(muse_core::types::EventTypeId, Timestamp, Timestamp)> {
    let mut out = Vec::new();
    for ctx in query.nseq_contexts() {
        let low = m
            .entries()
            .iter()
            .filter(|(p, _)| ctx.first.contains(*p))
            .map(|(_, e)| e.trace_pos())
            .max();
        let high = m
            .entries()
            .iter()
            .filter(|(p, _)| ctx.last.contains(*p))
            .map(|(_, e)| e.trace_pos())
            .min();
        let (Some(low), Some(high)) = (low, high) else {
            continue;
        };
        for p in ctx.negated.iter() {
            out.push((query.prim_type(p), low.0, high.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::{Payload, Value};
    use muse_core::query::{CmpOp, Pattern, Predicate};
    use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};

    fn ev(seq: u64, ty: u16, time: Timestamp) -> Event {
        Event::new(seq, EventTypeId(ty), time, NodeId(0))
    }

    fn ev_key(seq: u64, ty: u16, time: Timestamp, key: i64) -> Event {
        let mut p = Payload::new();
        p.set(AttrId(0), Value::Int(key));
        Event::with_payload(seq, EventTypeId(ty), time, NodeId(0), p)
    }

    /// SEQ(AND(A, B), C) with window 100.
    fn query() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
                Pattern::leaf(EventTypeId(2)),
            ]),
            vec![],
            100,
        )
        .unwrap()
    }

    #[test]
    fn match_accessors() {
        let m = Match::new(vec![(PrimId(1), ev(5, 1, 20)), (PrimId(0), ev(3, 0, 10))]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.prims().len(), 2);
        assert_eq!(m.get(PrimId(0)).unwrap().seq, 3);
        assert_eq!(m.first_time(), 10);
        assert_eq!(m.last_time(), 20);
        assert_eq!(m.fingerprint(), vec![3, 5]);
        let (p, e) = (PrimId(4), ev(7, 2, 30));
        assert_eq!(Match::single(p, e.clone()), Match::new(vec![(p, e)]));
    }

    #[test]
    fn merge_disjoint_and_agreeing() {
        let a = Match::single(PrimId(0), ev(1, 0, 10));
        let b = Match::single(PrimId(1), ev(2, 1, 20));
        let ab = a.merge(&b).unwrap();
        assert_eq!(ab.len(), 2);
        // Overlapping and agreeing.
        let ab2 = ab.merge(&a).unwrap();
        assert_eq!(ab2, ab);
        // Overlapping and disagreeing.
        let a_alt = Match::single(PrimId(0), ev(9, 0, 11));
        assert!(ab.merge(&a_alt).is_none());
    }

    #[test]
    fn valid_match_order_and_window() {
        let q = query();
        // A@10, B@5 (AND: unordered), C@50: valid.
        let m = Match::new(vec![
            (PrimId(0), ev(1, 0, 10)),
            (PrimId(1), ev(0, 1, 5)),
            (PrimId(2), ev(2, 2, 50)),
        ]);
        assert!(is_valid_match(&m, &q));
        // C before A: SEQ violated.
        let m = Match::new(vec![
            (PrimId(0), ev(1, 0, 10)),
            (PrimId(1), ev(0, 1, 5)),
            (PrimId(2), ev(2, 2, 7)),
        ]);
        assert!(!is_valid_match(&m, &q));
        // Window exceeded.
        let m = Match::new(vec![
            (PrimId(0), ev(1, 0, 10)),
            (PrimId(1), ev(0, 1, 5)),
            (PrimId(2), ev(2, 2, 200)),
        ]);
        assert!(!is_valid_match(&m, &q));
    }

    #[test]
    fn seq_tie_on_timestamp_uses_seq() {
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            vec![],
            100,
        )
        .unwrap();
        // Same timestamp: trace order decided by seq.
        let m = Match::new(vec![(PrimId(0), ev(1, 0, 10)), (PrimId(1), ev(2, 1, 10))]);
        assert!(is_valid_match(&m, &q));
        let m = Match::new(vec![(PrimId(0), ev(2, 0, 10)), (PrimId(1), ev(1, 1, 10))]);
        assert!(!is_valid_match(&m, &q));
    }

    #[test]
    fn predicates_checked() {
        let pred = Predicate::binary(
            (PrimId(0), AttrId(0)),
            CmpOp::Eq,
            (PrimId(1), AttrId(0)),
            0.5,
        );
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            vec![pred],
            100,
        )
        .unwrap();
        let good = Match::new(vec![
            (PrimId(0), ev_key(1, 0, 10, 7)),
            (PrimId(1), ev_key(2, 1, 20, 7)),
        ]);
        assert!(is_valid_match(&good, &q));
        let bad = Match::new(vec![
            (PrimId(0), ev_key(1, 0, 10, 7)),
            (PrimId(1), ev_key(2, 1, 20, 8)),
        ]);
        assert!(!is_valid_match(&bad, &q));
    }

    #[test]
    fn nseq_violation_interval() {
        // NSEQ(A, B, C): B=prim 1 forbidden between A and C.
        let q = Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(EventTypeId(0)),
                Pattern::leaf(EventTypeId(1)),
                Pattern::leaf(EventTypeId(2)),
            ),
            vec![],
            100,
        )
        .unwrap();
        let ctx = q.nseq_contexts()[0];
        let m = Match::new(vec![(PrimId(0), ev(1, 0, 10)), (PrimId(2), ev(5, 2, 50))]);
        // B inside (10, 50): violates.
        let inside = Match::single(PrimId(1), ev(3, 1, 30));
        assert!(nseq_violated(&m, &inside, ctx.first, ctx.last, &q));
        // B before A: fine.
        let before = Match::single(PrimId(1), ev(0, 1, 5));
        assert!(!nseq_violated(&m, &before, ctx.first, ctx.last, &q));
        // B after C: fine.
        let after = Match::single(PrimId(1), ev(9, 1, 60));
        assert!(!nseq_violated(&m, &after, ctx.first, ctx.last, &q));
    }

    #[test]
    fn nseq_violation_respects_predicates() {
        // NSEQ(A, B, C) where the forbidden B must share A's key.
        let pred = Predicate::binary(
            (PrimId(0), AttrId(0)),
            CmpOp::Eq,
            (PrimId(1), AttrId(0)),
            0.5,
        );
        let q = Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(EventTypeId(0)),
                Pattern::leaf(EventTypeId(1)),
                Pattern::leaf(EventTypeId(2)),
            ),
            vec![pred],
            100,
        )
        .unwrap();
        let ctx = q.nseq_contexts()[0];
        let m = Match::new(vec![
            (PrimId(0), ev_key(1, 0, 10, 7)),
            (PrimId(2), ev_key(5, 2, 50, 0)),
        ]);
        let matching_key = Match::single(PrimId(1), ev_key(3, 1, 30, 7));
        assert!(nseq_violated(&m, &matching_key, ctx.first, ctx.last, &q));
        let other_key = Match::single(PrimId(1), ev_key(3, 1, 30, 9));
        assert!(!nseq_violated(&m, &other_key, ctx.first, ctx.last, &q));
    }
}

//! Match representation and query semantics (§2.2 of the paper).
//!
//! A *match* assigns one event to each (positive) primitive operator of a
//! query or projection. The match is valid when the assigned events respect
//! the operator tree's order constraints, the time window, and the
//! predicates; `NSEQ` absence is checked separately against the forbidden
//! pattern's matches (`nseq_violated`).

pub mod evaluator;
pub mod join;
#[cfg(test)]
mod join_equivalence;
pub mod store;

use muse_core::event::{Event, Timestamp};
use muse_core::query::{OrderRel, Query};
use muse_core::types::{PrimId, PrimSet};
use std::sync::Arc;

pub use evaluator::Evaluator;
pub use join::{JoinState, JoinTask};
pub use store::StoreState;
pub(crate) use store::{MatchStore, StoredMatch};

/// A (partial) match: events assigned to primitive operators, sorted by
/// primitive id. Prim ids are those of the *source query*, so matches of
/// different projections of one query merge without renaming.
///
/// The event list is shared (`Arc`), so cloning a match — which the join
/// engine does once per store insert and per network route — is O(1) and
/// allocation-free instead of a deep copy of every payload. The executors
/// carry and store a single-event match by value instead (`Carried`), so a
/// match node is allocated only by a merge of two or more events.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    events: Arc<[(PrimId, Event)]>,
}

// A report holds every sink match, up to 882 700 of them on the `multiquery`
// benchmark: a `Match` that carried one event inline (48 bytes) raised that
// run's peak RSS from 142 to 234 MB. The data path's by-value single-event
// form is `Carried`, which no report holds.
const _: () = assert!(std::mem::size_of::<Match>() == 16);

impl Match {
    /// Creates a match from `(prim, event)` pairs.
    pub fn new(mut events: Vec<(PrimId, Event)>) -> Self {
        events.sort_by_key(|(p, _)| *p);
        Self {
            events: events.into(),
        }
    }

    /// A single-event match for a primitive operator: one allocation. The
    /// executors build none: they carry a single-event match by value.
    pub fn single(prim: PrimId, event: Event) -> Self {
        Self {
            events: Arc::from([(prim, event)]),
        }
    }

    /// The assigned primitive operators.
    pub fn prims(&self) -> PrimSet {
        prims(&self.events)
    }

    /// The event assigned to a primitive operator.
    pub fn get(&self, prim: PrimId) -> Option<&Event> {
        get(&self.events, prim)
    }

    /// All `(prim, event)` pairs in primitive order.
    pub fn entries(&self) -> &[(PrimId, Event)] {
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
        first_time(&self.events)
    }

    /// Latest timestamp in the match.
    pub fn last_time(&self) -> Timestamp {
        last_time(&self.events)
    }

    /// Merges two matches of disjoint or agreeing primitive sets. Returns
    /// `None` if a shared primitive is assigned different events (matches
    /// from overlapping projections must agree on shared primitives,
    /// cf. Example 8 of the paper).
    pub fn merge(&self, other: &Match) -> Option<Match> {
        merge(&self.events, &other.events)
    }

    /// A canonical fingerprint (sorted event sequence numbers), usable for
    /// deduplication and comparison with ground-truth results.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.seqs().collect()
    }

    /// The fingerprint's sequence numbers, without collecting them.
    pub(crate) fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.events.iter().map(|(_, e)| e.seq)
    }

    /// Whether the match assigns exactly `prims`, one event each — as every
    /// match buffered or delivered for a slot of those primitives does.
    /// Unlike comparing [`Match::prims`], never panics on a primitive id
    /// that no [`PrimSet`] can hold.
    pub(crate) fn assigns_exactly(&self, prims: PrimSet) -> bool {
        self.len() == prims.len()
            && self
                .events
                .iter()
                .zip(prims.iter())
                .all(|((p, _), q)| *p == q)
    }
}

/// A match as the data path carries and stores it: a single-event match —
/// every source task's output, every negation guard, and on a relay every
/// message — by value, so building, sending and storing it allocates
/// nothing (its payload stays the trace's shared one); a larger match by
/// its shared [`Match`] node. Sink matches, snapshots and the public join
/// and store calls hold [`Match`]es and convert at that edge.
#[derive(Debug, Clone)]
pub(crate) enum Carried {
    /// One `(primitive, event)` pair, inline.
    Single((PrimId, Event)),
    /// A match node, shared.
    Shared(Match),
}

impl Carried {
    /// All `(prim, event)` pairs in primitive order.
    pub fn entries(&self) -> &[(PrimId, Event)] {
        match self {
            Self::Single(pair) => std::slice::from_ref(pair),
            Self::Shared(m) => m.entries(),
        }
    }

    /// Earliest timestamp in the match.
    pub fn first_time(&self) -> Timestamp {
        first_time(self.entries())
    }

    /// Latest timestamp in the match.
    pub fn last_time(&self) -> Timestamp {
        last_time(self.entries())
    }
}

/// Two carried matches are equal when they assign the same events, however
/// they hold them.
impl PartialEq for Carried {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl From<Match> for Carried {
    fn from(m: Match) -> Self {
        Self::Shared(m)
    }
}

impl From<Carried> for Match {
    fn from(m: Carried) -> Self {
        match m {
            Carried::Single((prim, event)) => Match::single(prim, event),
            Carried::Shared(m) => m,
        }
    }
}

/// The primitives of `(prim, event)` pairs.
pub(crate) fn prims(entries: &[(PrimId, Event)]) -> PrimSet {
    entries.iter().map(|(p, _)| *p).collect()
}

/// The event a primitive is assigned in pairs sorted by primitive.
pub(crate) fn get(entries: &[(PrimId, Event)], prim: PrimId) -> Option<&Event> {
    entries
        .binary_search_by_key(&prim, |(p, _)| *p)
        .ok()
        .map(|i| &entries[i].1)
}

fn first_time(entries: &[(PrimId, Event)]) -> Timestamp {
    entries.iter().map(|(_, e)| e.time).min().unwrap_or(0)
}

fn last_time(entries: &[(PrimId, Event)]) -> Timestamp {
    entries.iter().map(|(_, e)| e.time).max().unwrap_or(0)
}

/// Earliest trace position of the pairs.
fn first_pos(entries: &[(PrimId, Event)]) -> (Timestamp, u64) {
    entries
        .iter()
        .map(|(_, e)| e.trace_pos())
        .min()
        .unwrap_or((0, 0))
}

/// Latest trace position of the pairs.
fn last_pos(entries: &[(PrimId, Event)]) -> (Timestamp, u64) {
    entries
        .iter()
        .map(|(_, e)| e.trace_pos())
        .max()
        .unwrap_or((0, 0))
}

/// [`Match::merge`] of two matches' pairs: the one allocation of a merged
/// node, its list built at full capacity and moved into the node.
pub(crate) fn merge(a: &[(PrimId, Event)], b: &[(PrimId, Event)]) -> Option<Match> {
    let mut events = Vec::with_capacity(a.len() + b.len());
    events.extend_from_slice(a);
    for (p, e) in b {
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
/// `shared` that they both assign. This is a cheap pre-merge guard: when it
/// returns `false`, [`merge`] is guaranteed to fail, so the merge's
/// allocation and event copies can be skipped.
pub(crate) fn agrees_on(a: &[(PrimId, Event)], b: &[(PrimId, Event)], shared: PrimSet) -> bool {
    shared.iter().all(|p| match (get(a, p), get(b, p)) {
        (Some(x), Some(y)) => x.seq == y.seq,
        _ => true,
    })
}

/// Checks whether an assignment is internally valid w.r.t. the query's
/// order constraints, time window, and the predicates decidable within the
/// assigned primitives. Negation is *not* checked here (see
/// `nseq_violated`); completeness (which primitives must be assigned) is
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
/// positive match `m` — both given as their `(prim, event)` pairs — for an
/// `NSEQ` context with the given first/last primitive sets: the forbidden
/// pattern must lie strictly between the end of the first part and the
/// start of the last part, and must satisfy the predicates connecting it to
/// the positive assignment.
pub(crate) fn nseq_violated(
    m: &[(PrimId, Event)],
    neg: &[(PrimId, Event)],
    first: PrimSet,
    last: PrimSet,
    query: &Query,
) -> bool {
    let low = m
        .iter()
        .filter(|(p, _)| first.contains(*p))
        .map(|(_, e)| e.trace_pos())
        .max();
    let high = m
        .iter()
        .filter(|(p, _)| last.contains(*p))
        .map(|(_, e)| e.trace_pos())
        .min();
    let (Some(low), Some(high)) = (low, high) else {
        // Context not (fully) part of this projection: nothing to check.
        return false;
    };
    if !(first_pos(neg) > low && last_pos(neg) < high) {
        return false;
    }
    // Predicates linking the negated primitives to the assignment: the
    // forbidden pattern only counts if it satisfies them.
    let neg_prims = prims(neg);
    let combined_prims = prims(m).union(neg_prims);
    for pred in query.predicates() {
        let prims = pred.prims();
        if !prims.is_disjoint(neg_prims) && prims.is_subset(combined_prims) {
            let ok = pred.evaluate(|p| get(neg, p).or_else(|| get(m, p)));
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
pub(crate) fn absence_windows(
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
    use muse_core::types::{AttrId, EventTypeId, NodeId, QueryId};

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
        assert!(nseq_violated(
            m.entries(),
            inside.entries(),
            ctx.first,
            ctx.last,
            &q
        ));
        // B before A: fine.
        let before = Match::single(PrimId(1), ev(0, 1, 5));
        assert!(!nseq_violated(
            m.entries(),
            before.entries(),
            ctx.first,
            ctx.last,
            &q
        ));
        // B after C: fine.
        let after = Match::single(PrimId(1), ev(9, 1, 60));
        assert!(!nseq_violated(
            m.entries(),
            after.entries(),
            ctx.first,
            ctx.last,
            &q
        ));
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
        assert!(nseq_violated(
            m.entries(),
            matching_key.entries(),
            ctx.first,
            ctx.last,
            &q
        ));
        let other_key = Match::single(PrimId(1), ev_key(3, 1, 30, 9));
        assert!(!nseq_violated(
            m.entries(),
            other_key.entries(),
            ctx.first,
            ctx.last,
            &q
        ));
    }
}

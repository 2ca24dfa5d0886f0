//! Incremental skip-till-any-match evaluation of a query (projection) over
//! a primitive event stream.
//!
//! The paper adopts the *greedy* event selection policy (skip-till-any-match
//! [Agrawal et al. 2008]): every event may extend every compatible partial
//! match, and partial matches are never consumed. The number of matches can
//! grow exponentially in the number of processed events (§2.2) — this is
//! exactly the per-node state that MuSE graphs shrink by distributing
//! evaluation.
//!
//! The evaluator is the centralized reference that distributed execution is
//! verified against; nothing on the runtime's data path uses it (joins,
//! including the forbidden-pattern assembly of `NSEQ` contexts, run on
//! [`super::JoinTask`]). It keeps its own plain partial-match buffer so it
//! shares no storage code with the engine it judges.
//!
//! Precondition of the reference: [`Evaluator::on_event`] and
//! [`Evaluator::run`] must see the events in global trace order — an
//! incoming event is treated as the newest, so extensions are only checked
//! against `Before` obligations and eviction never looks back.

use super::{is_valid_match, nseq_violated, Match};
use muse_core::event::Event;
use muse_core::query::{NSeqContext, OrderRel, Query};
use muse_core::types::{PrimId, PrimSet};

/// An incremental evaluator for one projection (identified by its primitive
/// set) of a query, fed with primitive events in global trace order.
///
/// # Examples
///
/// ```
/// use muse_core::event::Event;
/// use muse_core::query::{Pattern, Query};
/// use muse_core::types::{EventTypeId, NodeId, QueryId};
/// use muse_runtime::matcher::Evaluator;
///
/// // SEQ(A, B) within 100 ticks.
/// let query = Query::build(
///     QueryId(0),
///     &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
///     vec![],
///     100,
/// )
/// .unwrap();
/// let trace = vec![
///     Event::new(0, EventTypeId(0), 10, NodeId(0)), // a
///     Event::new(1, EventTypeId(1), 20, NodeId(0)), // b → match (a, b)
///     Event::new(2, EventTypeId(1), 30, NodeId(0)), // b → match (a, b')
/// ];
/// let matches = Evaluator::for_query(&query).run(&trace);
/// assert_eq!(matches.len(), 2); // skip-till-any-match: both pairs
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    query: Query,
    /// Primitives whose events form emitted matches.
    positive: PrimSet,
    /// Open partial matches, in creation order; those starting before
    /// `time − window` are dropped on every event.
    partials: Vec<Match>,
    /// `NSEQ` contexts fully contained in the evaluated projection, with
    /// the forbidden matches observed so far and a sub-evaluator producing
    /// them.
    negations: Vec<Negation>,
}

#[derive(Debug, Clone)]
struct Negation {
    context: NSeqContext,
    sub: Box<Evaluator>,
    forbidden: Vec<Match>,
}

impl Evaluator {
    /// Creates an evaluator for the full query.
    pub fn for_query(query: &Query) -> Self {
        Self::new(query, query.prims())
    }

    /// Creates an evaluator for the projection of `query` induced by
    /// `prims`. The projection must be negation-closed.
    pub fn new(query: &Query, prims: PrimSet) -> Self {
        Self::with_positive(query, prims, prims.difference(query.negated_prims()))
    }

    /// Internal constructor: `positive` overrides which primitives form the
    /// emitted matches (used for sub-evaluators of negated patterns, whose
    /// primitives are negated in the outer query but positive locally).
    fn with_positive(query: &Query, prims: PrimSet, positive: PrimSet) -> Self {
        let negations = query
            .nseq_contexts()
            .iter()
            .filter(|ctx| {
                // The context is checked here iff fully contained and its
                // negated primitives are part of this evaluator's scope.
                let full = ctx.first.union(ctx.negated).union(ctx.last);
                full.is_subset(prims) && !ctx.negated.is_disjoint(prims)
            })
            .map(|ctx| Negation {
                context: *ctx,
                sub: Box::new(Evaluator::with_positive(query, ctx.negated, ctx.negated)),
                forbidden: Vec::new(),
            })
            .collect();
        Self {
            positive,
            partials: Vec::new(),
            negations,
            query: query.clone(),
        }
    }

    /// Feeds one event (in global trace order) and returns the complete
    /// matches it triggers.
    pub fn on_event(&mut self, event: &Event) -> Vec<Match> {
        let horizon = event.time.saturating_sub(self.query.window());
        // Feed negated-pattern sub-evaluators first: a forbidden pattern
        // ending before a candidate's suffix is always observed first in
        // trace order.
        for negation in &mut self.negations {
            negation.forbidden.extend(negation.sub.on_event(event));
            negation.forbidden.retain(|f| f.first_time() >= horizon);
        }
        self.partials.retain(|pm| pm.first_time() >= horizon);

        let mut emitted = Vec::new();
        // Which positive primitives can this event instantiate?
        let candidates: Vec<PrimId> = self
            .positive
            .iter()
            .filter(|p| self.query.prim_type(*p) == event.ty)
            .collect();
        if candidates.is_empty() {
            return emitted;
        }

        let mut created: Vec<Match> = Vec::new();
        for prim in candidates {
            // Extend every compatible open partial (skip-till-any-match).
            for pm in &self.partials {
                if pm.get(prim).is_some() {
                    continue;
                }
                if !self.can_extend(pm, prim, event) {
                    continue;
                }
                let extended = pm
                    .merge(&Match::single(prim, event.clone()))
                    .expect("prim not yet assigned");
                if extended.prims() == self.positive {
                    if self.passes_negation(&extended) {
                        emitted.push(extended);
                    }
                } else {
                    created.push(extended);
                }
            }
            // Start a fresh partial from the event alone.
            let fresh = Match::single(prim, event.clone());
            if is_valid_match(&fresh, &self.query) {
                if self.positive == PrimSet::single(prim) {
                    if self.passes_negation(&fresh) {
                        emitted.push(fresh);
                    }
                } else {
                    created.push(fresh);
                }
            }
        }
        self.partials.append(&mut created);
        emitted
    }

    /// Runs the evaluator over a whole trace, collecting all matches.
    pub fn run(&mut self, events: &[Event]) -> Vec<Match> {
        let mut out = Vec::new();
        for e in events {
            out.extend(self.on_event(e));
        }
        out
    }

    /// Checks whether assigning `event` to `prim` is compatible with the
    /// partial match: order constraints against already-assigned
    /// primitives (the event is the newest, so any `Before` obligation of
    /// `prim` towards an assigned primitive fails), decidable predicates,
    /// and the window.
    fn can_extend(&self, pm: &Match, prim: PrimId, event: &Event) -> bool {
        if event.time.saturating_sub(pm.first_time()) > self.query.window() {
            return false;
        }
        for (q, _) in pm.entries() {
            if self.query.order_rel(prim, *q) == OrderRel::Before {
                return false;
            }
        }
        // Predicates decidable once `prim` is assigned.
        for pred in self.query.predicates() {
            let prims = pred.prims();
            if !prims.contains(prim) {
                continue;
            }
            let assigned_after = pm.prims().union(PrimSet::single(prim));
            if prims.is_subset(assigned_after) {
                let ok = pred.evaluate(|p| if p == prim { Some(event) } else { pm.get(p) });
                if ok != Some(true) {
                    return false;
                }
            }
        }
        true
    }

    /// Checks all fully-contained `NSEQ` contexts against the collected
    /// (live) forbidden matches.
    fn passes_negation(&self, m: &Match) -> bool {
        self.negations.iter().all(|n| {
            n.forbidden
                .iter()
                .all(|f| !nseq_violated(m, f, n.context.first, n.context.last, &self.query))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::{Payload, Timestamp, Value};
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

    fn seq_ab(window: Timestamp) -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            vec![],
            window,
        )
        .unwrap()
    }

    #[test]
    fn seq_matches_in_order_only() {
        let q = seq_ab(100);
        let mut ev1 = Evaluator::for_query(&q);
        // a@1, b@2, a@3, b@4 → matches: (a1,b2), (a1,b4), (a3,b4).
        let trace = [ev(0, 0, 1), ev(1, 1, 2), ev(2, 0, 3), ev(3, 1, 4)];
        let matches = ev1.run(&trace);
        let fps: Vec<Vec<u64>> = matches.iter().map(Match::fingerprint).collect();
        assert_eq!(fps.len(), 3);
        assert!(fps.contains(&vec![0, 1]));
        assert!(fps.contains(&vec![0, 3]));
        assert!(fps.contains(&vec![2, 3]));
    }

    #[test]
    fn window_excludes_stale_partials() {
        let q = seq_ab(10);
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 1, 20)];
        assert!(e.run(&trace).is_empty());
        // Within the window it matches.
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 15), ev(1, 1, 20)];
        assert_eq!(e.run(&trace).len(), 1);
    }

    #[test]
    fn and_matches_any_order() {
        let q = Query::build(
            QueryId(0),
            &Pattern::and([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            vec![],
            100,
        )
        .unwrap();
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 1, 1), ev(1, 0, 2)];
        assert_eq!(e.run(&trace).len(), 1);
    }

    #[test]
    fn skip_till_any_match_explodes_combinatorially() {
        // n a-events followed by one b: n matches of SEQ(A, B).
        let q = seq_ab(1000);
        let mut e = Evaluator::for_query(&q);
        let mut trace: Vec<Event> = (0..10).map(|i| ev(i, 0, i)).collect();
        trace.push(ev(10, 1, 50));
        assert_eq!(e.run(&trace).len(), 10);
    }

    #[test]
    fn predicates_filter_matches() {
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
        let mut e = Evaluator::for_query(&q);
        let trace = [ev_key(0, 0, 1, 7), ev_key(1, 0, 2, 8), ev_key(2, 1, 3, 7)];
        let matches = e.run(&trace);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].fingerprint(), vec![0, 2]);
    }

    #[test]
    fn nested_seq_and() {
        // SEQ(AND(A, B), C): both A and B before C.
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
                Pattern::leaf(EventTypeId(2)),
            ]),
            vec![],
            100,
        )
        .unwrap();
        let mut e = Evaluator::for_query(&q);
        // b@1, a@2, c@3 → one match; c@0 first would not.
        let trace = [ev(0, 1, 1), ev(1, 0, 2), ev(2, 2, 3)];
        assert_eq!(e.run(&trace).len(), 1);
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 2, 1), ev(1, 1, 2), ev(2, 0, 3)];
        assert!(e.run(&trace).is_empty());
    }

    #[test]
    fn projection_evaluation() {
        // Evaluate only the projection SEQ(A, C) of SEQ(A, B, C).
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::leaf(EventTypeId(0)),
                Pattern::leaf(EventTypeId(1)),
                Pattern::leaf(EventTypeId(2)),
            ]),
            vec![],
            100,
        )
        .unwrap();
        let prims: PrimSet = [PrimId(0), PrimId(2)].into_iter().collect();
        let mut e = Evaluator::new(&q, prims);
        // a@1, c@2 is a projection match even though no b occurred.
        let trace = [ev(0, 0, 1), ev(1, 2, 2)];
        let matches = e.run(&trace);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].prims(), prims);
    }

    #[test]
    fn nseq_blocks_matches_with_forbidden_event() {
        // NSEQ(A, B, C): A…C matches only without a B in between.
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
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 1, 2), ev(2, 2, 3)];
        assert!(e.run(&trace).is_empty());
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 2, 3), ev(2, 1, 5)];
        assert_eq!(e.run(&trace).len(), 1);
    }

    #[test]
    fn nseq_forbidden_composite_pattern() {
        // NSEQ(A, SEQ(B, D), C): only a full B→D sequence in between blocks.
        let q = Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(EventTypeId(0)),
                Pattern::seq([Pattern::leaf(EventTypeId(1)), Pattern::leaf(EventTypeId(3))]),
                Pattern::leaf(EventTypeId(2)),
            ),
            vec![],
            100,
        )
        .unwrap();
        // A, B (no D), C: matches.
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 1, 2), ev(2, 2, 5)];
        assert_eq!(e.run(&trace).len(), 1);
        // A, B, D, C: blocked.
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 1, 2), ev(2, 3, 3), ev(3, 2, 5)];
        assert!(e.run(&trace).is_empty());
        // A, D, B, C (wrong forbidden order): matches.
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 3, 2), ev(2, 1, 3), ev(3, 2, 5)];
        assert_eq!(e.run(&trace).len(), 1);
    }

    #[test]
    fn duplicate_type_prims_supported() {
        // SEQ(A, A): both prims reference type 0 (centralized evaluation
        // supports this even though aMuSE does not).
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(0))]),
            vec![],
            100,
        )
        .unwrap();
        let mut e = Evaluator::for_query(&q);
        let trace = [ev(0, 0, 1), ev(1, 0, 2), ev(2, 0, 3)];
        // Matches: (0,1), (0,2), (1,2).
        assert_eq!(e.run(&trace).len(), 3);
    }
}

//! Partial-match joins: evaluating a projection from the matches of its
//! combination's predecessor projections.
//!
//! A MuSE graph vertex `(p, n)` derives matches of `p` from predecessor
//! match streams (§4.3). Distribution makes these streams arrive in
//! arbitrary relative order, so — like the paper's automata whose states
//! accept any still-needed sub-projection result, with order constraints as
//! transition guards — the join buffers matches per input slot and checks
//! all order/window/predicate constraints on the merged assignment.
//!
//! Combination predecessors may *overlap* in their primitive operators
//! (e.g. `SEQ(A,B)` and `SEQ(B,C)` for `SEQ(A,B,C)`); overlapping inputs
//! must agree on the shared primitives' events (cf. Example 8), which
//! [`Match::merge`] enforces.
//!
//! Negated primitives arrive as raw primitive streams (negation-closure
//! keeps their context together, §5.2); per `NSEQ` context the join
//! assembles the forbidden pattern with a nested [`JoinTask`] over those
//! streams — the same arrival-order-independent engine, so guards may reach
//! it in any relative order — and suppresses positive matches with a
//! forbidden match strictly inside the context interval.
//!
//! # Probe strategy
//!
//! [`JoinTask`] keeps each slot's matches in a [`MatchStore`] sorted by
//! first timestamp. An arriving match probes only the window-compatible
//! slice of each other slot (two binary searches) instead of the full
//! store, visits the slots smallest-slice-first so thin inputs cut the
//! candidate set early, and rejects pairs with cheap guards — equality key,
//! window span, shared primitives, in that order — before paying for a
//! merge.
//!
//! The equality-key guard uses the query's `=` predicates to skip pairs
//! instead of merging them and discarding the result. The `prim.attr` terms
//! linked by `=` predicates inside the join's positive primitives form
//! equality classes (transitively: `a.x = b.x, b.x = c.x` is one class of
//! three). Each positive slot is keyed on the class with a term in the most
//! other positive slots, and every stored match caches the
//! [`Value::eq_key`] of its slot's term of that class. A candidate carrying
//! any term of the probed slot's class skips every stored match whose key
//! is known and differs from its own. That is sound because an emitted
//! match covers all positive primitives and satisfies every predicate
//! among them, so the terms of one class all have equal keys in it — and so
//! do every candidate and stored match it was assembled from. An unknown
//! key (missing attribute, `NaN`, slot without a class) never skips, and
//! every merged candidate is still validated in full: the guard only
//! removes pairs that validation would have removed. The slice is scanned
//! linearly; it is not hash-partitioned by key.
//!
//! Eviction is a logical watermark applied at probe time, with the physical
//! prefix truncated only every [`JoinTask::with_evict_stride`] ticks of
//! horizon progress — the emitted match stream is identical to the naive
//! retain-per-arrival strategy ([`NaiveJoinTask`]), which is kept as the
//! reference implementation for equivalence tests and benchmarks.
//!
//! [`Value::eq_key`]: muse_core::event::Value::eq_key

use super::store::{MatchStore, StoreState, StoredMatch};
use super::{is_valid_match, nseq_violated, Match};
use crate::metrics::JoinStats;
use muse_core::event::Timestamp;
use muse_core::query::{CmpOp, NSeqContext, PredicateExpr, Query};
use muse_core::types::{AttrId, PrimId, PrimSet};

/// Static description of one input slot of a join: the predecessor
/// projection's primitive operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSpec {
    /// The predecessor projection's primitives.
    pub prims: PrimSet,
    /// `true` if the slot carries only negated primitives (a negation guard
    /// stream rather than a positive input).
    pub negated: bool,
}

/// A join task deriving matches of one target projection from predecessor
/// match streams, with indexed, window-pruned probing.
#[derive(Debug, Clone)]
pub struct JoinTask {
    query: Query,
    /// Positive primitives of the target (events of emitted matches).
    positive: PrimSet,
    slots: Vec<SlotSpec>,
    /// Equality-key plan per slot (parallel to `slots`); `None` for a slot
    /// no equality class links to another positive slot.
    keys: Vec<Option<SlotKey>>,
    /// Buffered matches per positive slot (parallel to `slots`; negated
    /// slots keep theirs inside `negations`).
    stores: Vec<MatchStore>,
    /// `NSEQ` contexts whose absence check happens at this join.
    negations: Vec<NegationCheck>,
    /// Largest timestamp seen on any input.
    max_time: Timestamp,
    /// Eviction slack: stores keep matches for `slack × window` (≥ 1.0;
    /// > 1 tolerates out-of-order arrival in the threaded executor).
    slack: f64,
    /// Minimum horizon progress between physical prefix drains.
    evict_stride: Timestamp,
    /// When set, candidate matches of negation-guarded contexts are held in
    /// `deferred` instead of being emitted from [`JoinTask::on_match`], and
    /// the final absence check runs in [`JoinTask::release_deferred`] once
    /// the caller knows every in-flight guard has arrived (the threaded
    /// executor's chunk-quiescence boundary). Joins without negations are
    /// unaffected.
    defer_negation: bool,
    /// Candidates awaiting their deferred absence check.
    deferred: Vec<Match>,
    /// Observability counters.
    stats: JoinStats,
}

/// A `prim.attr` operand of an equality predicate.
type Term = (PrimId, AttrId);

/// How one positive slot takes part in the equality-key guard.
#[derive(Debug, Clone)]
struct SlotKey {
    /// The slot's own term of `class`: its value keys the stored matches.
    term: Term,
    /// The whole equality class; a candidate probing this slot is keyed on
    /// the first of these terms it has a key for.
    class: Vec<Term>,
}

impl SlotKey {
    /// The key under which `m` is stored in this slot.
    fn stored_key(&self, m: &Match) -> Option<u64> {
        term_key(m, self.term)
    }

    /// The key with which `m` probes this slot; `None` when `m` has no key
    /// for any term of the class.
    fn probe_key(&self, m: &Match) -> Option<u64> {
        self.class.iter().find_map(|&term| term_key(m, term))
    }
}

/// `m`'s equality key for a term: `None` when `m` does not assign the
/// primitive, the event lacks the attribute, or the value is `NaN`.
fn term_key(m: &Match, (prim, attr): Term) -> Option<u64> {
    m.get(prim)?.payload.get(attr)?.eq_key()
}

/// The equality classes of `prim.attr` terms under the query's `=`
/// predicates between primitives of `positive`, in predicate order.
fn equality_classes(query: &Query, positive: PrimSet) -> Vec<Vec<Term>> {
    let mut classes: Vec<Vec<Term>> = Vec::new();
    for pred in query.predicates() {
        let PredicateExpr::BinaryAttr {
            left_prim,
            left_attr,
            op: CmpOp::Eq,
            right_prim,
            right_attr,
        } = pred.expr
        else {
            continue;
        };
        if !pred.prims().is_subset(positive) {
            continue;
        }
        let (left, right) = ((left_prim, left_attr), (right_prim, right_attr));
        let class_of = |t: &Term| classes.iter().position(|c| c.contains(t));
        match (class_of(&left), class_of(&right)) {
            (None, None) => classes.push(vec![left, right]),
            (Some(i), None) => classes[i].push(right),
            (None, Some(i)) => classes[i].push(left),
            (Some(i), Some(j)) if i != j => {
                let merged = classes.remove(i.max(j));
                classes[i.min(j)].extend(merged);
            }
            (Some(_), Some(_)) => {}
        }
    }
    classes
}

/// Keys each positive slot on the class with a term in the most other
/// positive slots (first class wins ties; no such class, no key).
fn slot_keys(classes: &[Vec<Term>], slots: &[SlotSpec]) -> Vec<Option<SlotKey>> {
    let term_in = |spec: &SlotSpec, class: &[Term]| {
        class
            .iter()
            .copied()
            .find(|(prim, _)| !spec.negated && spec.prims.contains(*prim))
    };
    slots
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut best = None;
            let mut best_links = 0;
            for class in classes {
                let Some(term) = term_in(spec, class) else {
                    continue;
                };
                let links = slots
                    .iter()
                    .enumerate()
                    .filter(|&(j, other)| j != i && term_in(other, class).is_some())
                    .count();
                if links > best_links {
                    best_links = links;
                    best = Some(SlotKey {
                        term,
                        class: class.clone(),
                    });
                }
            }
            best
        })
        .collect()
}

#[derive(Debug, Clone)]
struct NegationCheck {
    context: NSeqContext,
    /// Assembles the forbidden pattern from its primitives' guard streams
    /// (see [`JoinTask::assembler`]). `None` when the pattern is a single
    /// primitive: the guard match *is* the forbidden match.
    assembler: Option<JoinTask>,
    forbidden: MatchStore,
}

/// The checkpointable dynamic state of a [`JoinTask`]: per-slot match
/// buffers, per-negation assembler/forbidden state, the local watermark,
/// deferred candidates, and the task's counters. Static structure (query,
/// slot specs, slack, stride, defer flag) is rebuilt from the deployment
/// plan on restore and validated structurally against this state.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinState {
    /// Buffered matches per slot, parallel to the task's slot list
    /// (negated slots carry an empty store — their state lives in
    /// `negations`).
    pub stores: Vec<StoreState>,
    /// Per-negation `(assembler state, forbidden store state)`; the
    /// assembler state is `None` for a single-primitive forbidden pattern.
    pub negations: Vec<(Option<JoinState>, StoreState)>,
    /// Largest timestamp seen on any input.
    pub max_time: Timestamp,
    /// Candidates awaiting their deferred absence check.
    pub deferred: Vec<Match>,
    /// Observability counters.
    pub stats: JoinStats,
}

/// A join candidate being assembled across slots, with its cached span.
struct Candidate {
    first: Timestamp,
    last: Timestamp,
    m: Match,
}

impl JoinTask {
    /// Creates a join for the projection of `query` with primitives
    /// `target`, fed by predecessors with the given primitive sets (the
    /// combination `β(target)` realized by the MuSE graph edges).
    pub fn new(query: &Query, target: PrimSet, predecessors: &[PrimSet]) -> Self {
        Self::with_slack(query, target, predecessors, 1.0)
    }

    /// Like [`JoinTask::new`] with an eviction slack factor for
    /// out-of-order tolerant execution.
    pub fn with_slack(
        query: &Query,
        target: PrimSet,
        predecessors: &[PrimSet],
        slack: f64,
    ) -> Self {
        assert!(slack >= 1.0);
        let negated_prims = query.negated_prims();
        let slots = predecessors
            .iter()
            .map(|&prims| SlotSpec {
                prims,
                negated: prims.is_subset(negated_prims),
            })
            .collect();
        let positive = target.difference(negated_prims);
        Self::build(query, target, positive, slots, slack)
    }

    /// The join assembling the forbidden pattern of `ctx` from the raw
    /// guard streams of its primitives: one singleton input slot per
    /// negated primitive (in primitive order), each a *positive* input of
    /// this join, whose emitted matches are the forbidden matches.
    fn assembler(query: &Query, ctx: &NSeqContext, slack: f64) -> Self {
        let slots = ctx
            .negated
            .iter()
            .map(|p| SlotSpec {
                prims: PrimSet::single(p),
                negated: false,
            })
            .collect();
        Self::build(query, ctx.negated, ctx.negated, slots, slack)
    }

    /// Shared constructor: a join emitting matches over `positive`, with an
    /// absence check for every `NSEQ` context inside `target` that has a
    /// guard stream among `slots` (a slot of negated primitives only — for
    /// an assembler that is every slot, so it checks exactly the contexts
    /// nested inside its forbidden pattern, recursively).
    fn build(
        query: &Query,
        target: PrimSet,
        positive: PrimSet,
        slots: Vec<SlotSpec>,
        slack: f64,
    ) -> Self {
        let guard_prims = slots
            .iter()
            .filter(|s| s.prims.is_subset(query.negated_prims()))
            .fold(PrimSet::empty(), |acc, s| acc.union(s.prims));
        let negations = query
            .nseq_contexts()
            .iter()
            .filter(|ctx| {
                let full = ctx.first.union(ctx.negated).union(ctx.last);
                full.is_subset(target) && !ctx.negated.intersect(guard_prims).is_empty()
            })
            .map(|ctx| NegationCheck {
                context: *ctx,
                assembler: (ctx.negated.len() > 1).then(|| Self::assembler(query, ctx, slack)),
                forbidden: MatchStore::new(),
            })
            .collect();
        let stores = vec![MatchStore::new(); slots.len()];
        let keys = slot_keys(&equality_classes(query, positive), &slots);
        Self {
            query: query.clone(),
            positive,
            slots,
            keys,
            stores,
            negations,
            max_time: 0,
            slack,
            evict_stride: default_stride(query.window()),
            defer_negation: false,
            deferred: Vec::new(),
            stats: JoinStats::default(),
        }
    }

    /// Sets the watermark stride: the horizon must advance at least this
    /// far before dead store prefixes are physically truncated. Larger
    /// strides amortize eviction further at the cost of memory; the emitted
    /// matches are unaffected.
    pub fn with_evict_stride(mut self, stride: Timestamp) -> Self {
        self.evict_stride = stride.max(1);
        self
    }

    /// Whether any `NSEQ` absence check runs at this join.
    pub fn has_negations(&self) -> bool {
        !self.negations.is_empty()
    }

    /// Enables (or disables) deferred negation: candidate matches of
    /// negation-guarded contexts are buffered instead of emitted, and the
    /// absence check runs when [`JoinTask::release_deferred`] is called.
    ///
    /// Needed by executors with real network latency, where a forbidden
    /// guard event can physically arrive *after* the positive candidate it
    /// must suppress; deferring the check to a quiescence boundary restores
    /// the arrive-before-candidate property the zero-latency simulator gets
    /// from causal delivery order. No-op for joins without negations.
    pub fn set_defer_negation(&mut self, on: bool) {
        self.defer_negation = on;
    }

    /// Runs the absence check over the deferred candidates and returns the
    /// survivors, in deferral order. Counts them as emitted.
    ///
    /// The caller must guarantee that every guard event that could fall
    /// strictly inside a deferred candidate's context interval has been fed
    /// to this join (chunk quiescence in the threaded executor: any such
    /// guard is older than the candidate's newest event and therefore
    /// belongs to an already-drained chunk).
    pub fn release_deferred(&mut self) -> Vec<Match> {
        if self.deferred.is_empty() {
            return Vec::new();
        }
        let pending = std::mem::take(&mut self.deferred);
        let released: Vec<Match> = pending
            .into_iter()
            .filter(|m| self.passes_negation(m))
            .collect();
        self.stats.emitted += released.len() as u64;
        released
    }

    /// The input slots.
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Total live (non-evicted) matches across positive stores.
    pub fn buffered(&self) -> usize {
        self.stores.iter().map(MatchStore::len).sum()
    }

    /// Total physically buffered matches, including dead entries awaiting
    /// the next stride drain.
    pub fn physical_buffered(&self) -> usize {
        self.stores.iter().map(MatchStore::physical_len).sum()
    }

    /// Matches emitted so far.
    pub fn emitted(&self) -> u64 {
        self.stats.emitted
    }

    /// The newest event timestamp this task has seen across its inputs
    /// (its local watermark; 0 before the first input).
    pub fn last_seen(&self) -> Timestamp {
        self.max_time
    }

    /// The join's observability counters.
    pub fn stats(&self) -> &JoinStats {
        &self.stats
    }

    /// Feeds one match into a slot, returning the complete target matches
    /// it triggers.
    ///
    /// # Panics
    ///
    /// Panics if the slot index is out of range.
    pub fn on_match(&mut self, slot: usize, m: Match) -> Vec<Match> {
        self.stats.inputs += 1;
        let (m_first, m_last) = (m.first_time(), m.last_time());
        self.max_time = self.max_time.max(m_last);
        // Negation guards: every event of a context's negated primitive is
        // a forbidden match (single-primitive pattern) or an input of the
        // context's assembler. Matches on positive slots carry no negated
        // primitive, except in an assembler whose pattern nests an `NSEQ`.
        for neg in &mut self.negations {
            for (prim, event) in m.entries() {
                // The primitive's rank in the negated set is its assembler slot.
                let Some(slot) = neg.context.negated.iter().position(|p| p == *prim) else {
                    continue;
                };
                let guard = Match::single(*prim, event.clone());
                match &mut neg.assembler {
                    None => neg.forbidden.insert(guard),
                    Some(assembler) => {
                        for found in assembler.on_match(slot, guard) {
                            neg.forbidden.insert(found);
                        }
                    }
                }
            }
        }
        if self.slots[slot].negated {
            self.evict();
            return Vec::new();
        }

        let window = self.query.window();
        let entry = StoredMatch {
            first: m_first,
            last: m_last,
            key: self.keys[slot].as_ref().and_then(|k| k.stored_key(&m)),
            m,
        };

        // Fast path for the common no-join case: the merge across slots is
        // a conjunction, so if any other positive slot has nothing
        // compatible buffered the trigger cannot complete — store the
        // partial without allocating the candidate scaffolding below.
        let doomed = self.slots.iter().enumerate().any(|(i, spec)| {
            i != slot
                && !spec.negated
                && self.stores[i]
                    .compatible(m_first, m_last, window)
                    .is_empty()
        });
        if doomed {
            self.stores[slot].insert_keyed(entry);
            self.evict();
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered() as u64);
            return Vec::new();
        }

        // Visit the other positive slots smallest-compatible-slice-first:
        // a thin slot shrinks the candidate set before wide slots multiply
        // it (index as tiebreak keeps the order deterministic).
        let mut order: Vec<(usize, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(i, spec)| i != slot && !spec.negated)
            .map(|(i, _)| (self.stores[i].compatible(m_first, m_last, window).len(), i))
            .collect();
        order.sort_unstable();

        let mut acc = vec![Candidate {
            first: m_first,
            last: m_last,
            m: entry.m.clone(),
        }];
        for (_, i) in order {
            let slot_prims = self.slots[i].prims;
            let mut next = Vec::new();
            for cand in &acc {
                let shared = cand.m.prims().intersect(slot_prims);
                let probe_key = self.keys[i].as_ref().and_then(|k| k.probe_key(&cand.m));
                let slice = self.stores[i].compatible(cand.first, cand.last, window);
                self.stats.probes += slice.len() as u64;
                for stored in slice {
                    // Cheap guards before the allocating merge: equality
                    // keys (both known) agree, combined span within the
                    // window, shared primitives agree.
                    if matches!((probe_key, stored.key), (Some(a), Some(b)) if a != b) {
                        self.stats.guard_rejects += 1;
                        continue;
                    }
                    let first = cand.first.min(stored.first);
                    let last = cand.last.max(stored.last);
                    if last - first > window || !cand.m.agrees_on(&stored.m, shared) {
                        self.stats.guard_rejects += 1;
                        continue;
                    }
                    self.stats.merge_attempts += 1;
                    if let Some(merged) = cand.m.merge(&stored.m) {
                        if is_valid_match(&merged, &self.query) {
                            self.stats.merge_successes += 1;
                            next.push(Candidate {
                                first,
                                last,
                                m: merged,
                            });
                        }
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        let mut emitted: Vec<Match> = acc
            .into_iter()
            .map(|c| c.m)
            .filter(|c| c.prims() == self.positive)
            .filter(|c| is_valid_match(c, &self.query))
            .filter(|c| self.passes_negation(c))
            .collect();
        // Deduplicate (overlapping slots can assemble the same final match
        // along different merge orders within one trigger).
        emitted.sort_by_key(Match::fingerprint);
        emitted.dedup_by(|a, b| a.fingerprint() == b.fingerprint());

        self.stores[slot].insert_keyed(entry);
        if self.defer_negation && !self.negations.is_empty() {
            // Hold candidates for the quiescence-time absence check; the
            // filter above already removed everything rejectable by the
            // guards seen so far (the guard set only grows until release).
            self.deferred.append(&mut emitted);
        } else {
            self.stats.emitted += emitted.len() as u64;
        }
        self.evict();
        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered() as u64);
        emitted
    }

    fn passes_negation(&self, m: &Match) -> bool {
        self.negations.iter().all(|n| {
            n.forbidden
                .live()
                .iter()
                .all(|f| !nseq_violated(m, &f.m, n.context.first, n.context.last, &self.query))
        })
    }

    /// Captures the join's dynamic state for a checkpoint.
    pub fn save_state(&self) -> JoinState {
        JoinState {
            stores: self.stores.iter().map(MatchStore::save_state).collect(),
            negations: self
                .negations
                .iter()
                .map(|n| {
                    let assembler = n.assembler.as_ref().map(JoinTask::save_state);
                    (assembler, n.forbidden.save_state())
                })
                .collect(),
            max_time: self.max_time,
            deferred: self.deferred.clone(),
            stats: self.stats,
        }
    }

    /// Grafts a saved dynamic state onto this (freshly rebuilt) join
    /// task. Fails when the state's slot or negation structure does not
    /// match the task's — the symptom of restoring against a different
    /// plan than the one that produced the snapshot.
    pub fn restore_state(&mut self, state: JoinState) -> Result<(), &'static str> {
        if state.stores.len() != self.stores.len() {
            return Err("join slot count differs from snapshot");
        }
        if state.negations.len() != self.negations.len() {
            return Err("join negation count differs from snapshot");
        }
        // Keys are derived state, like the spans: recomputed, not restored.
        self.stores = state
            .stores
            .into_iter()
            .zip(&self.keys)
            .map(|(store, key)| MatchStore::restore_keyed(store, |m| key.as_ref()?.stored_key(m)))
            .collect();
        for (neg, (assembler, forbidden)) in self.negations.iter_mut().zip(state.negations) {
            match (&mut neg.assembler, assembler) {
                (Some(task), Some(state)) => task.restore_state(state)?,
                (None, None) => {}
                _ => return Err("join negation assembler differs from snapshot"),
            }
            neg.forbidden = MatchStore::restore_state(forbidden);
        }
        self.max_time = state.max_time;
        self.deferred = state.deferred;
        self.stats = state.stats;
        Ok(())
    }

    /// Advances the eviction watermark to `max_time − slack × window`.
    /// Matches below it become invisible immediately; the sorted prefix is
    /// physically truncated once the watermark has moved a whole stride.
    fn evict(&mut self) {
        let horizon = self
            .max_time
            .saturating_sub((self.query.window() as f64 * self.slack) as Timestamp);
        for store in &mut self.stores {
            self.stats.evicted += store.advance_horizon(horizon, self.evict_stride);
        }
        for neg in &mut self.negations {
            self.stats.evicted += neg.forbidden.advance_horizon(horizon, self.evict_stride);
        }
    }
}

/// Default watermark stride: a quarter window bounds dead entries to a
/// fraction of the live set while draining only a few times per window.
fn default_stride(window: Timestamp) -> Timestamp {
    (window / 4).max(1)
}

/// The straightforward join the indexed [`JoinTask`] replaces: unsorted
/// per-slot buffers, a full cross-product probe relying on
/// [`is_valid_match`] to reject incompatible pairs, and a `retain` scan of
/// every store on every arrival.
///
/// Kept as the reference implementation: the equivalence property suite
/// (`tests/join_equivalence.rs`) checks that [`JoinTask`] emits an
/// identical match stream, and the matcher benchmark measures the indexed
/// engine's speedup against it.
#[derive(Debug, Clone)]
pub struct NaiveJoinTask {
    query: Query,
    positive: PrimSet,
    slots: Vec<SlotSpec>,
    stores: Vec<Vec<Match>>,
    negations: Vec<NaiveNegationCheck>,
    max_time: Timestamp,
    slack: f64,
    emitted: u64,
}

#[derive(Debug, Clone)]
struct NaiveNegationCheck {
    context: NSeqContext,
    assembler: Option<NaiveJoinTask>,
    forbidden: Vec<Match>,
}

impl NaiveJoinTask {
    /// See [`JoinTask::with_slack`].
    pub fn with_slack(
        query: &Query,
        target: PrimSet,
        predecessors: &[PrimSet],
        slack: f64,
    ) -> Self {
        // Reuse the indexed constructor's slot/negation analysis.
        Self::mirror(JoinTask::with_slack(query, target, predecessors, slack))
    }

    /// The naive task with a fresh indexed task's static structure,
    /// forbidden-pattern assemblers included.
    fn mirror(task: JoinTask) -> Self {
        Self {
            stores: vec![Vec::new(); task.slots.len()],
            negations: task
                .negations
                .into_iter()
                .map(|n| NaiveNegationCheck {
                    context: n.context,
                    assembler: n.assembler.map(Self::mirror),
                    forbidden: Vec::new(),
                })
                .collect(),
            query: task.query,
            positive: task.positive,
            slots: task.slots,
            max_time: 0,
            slack: task.slack,
            emitted: 0,
        }
    }

    /// The input slots.
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Total buffered matches across positive stores.
    pub fn buffered(&self) -> usize {
        self.stores.iter().map(Vec::len).sum()
    }

    /// Matches emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// See [`JoinTask::on_match`].
    pub fn on_match(&mut self, slot: usize, m: Match) -> Vec<Match> {
        self.max_time = self.max_time.max(m.last_time());
        for neg in &mut self.negations {
            for (prim, event) in m.entries() {
                let Some(slot) = neg.context.negated.iter().position(|p| p == *prim) else {
                    continue;
                };
                let guard = Match::single(*prim, event.clone());
                match &mut neg.assembler {
                    None => neg.forbidden.push(guard),
                    Some(assembler) => neg.forbidden.extend(assembler.on_match(slot, guard)),
                }
            }
        }
        if self.slots[slot].negated {
            self.evict();
            return Vec::new();
        }

        // Join the new match against all other positive slots.
        let mut acc = vec![m.clone()];
        for (i, spec) in self.slots.iter().enumerate() {
            if i == slot || spec.negated {
                continue;
            }
            let mut next = Vec::new();
            for partial in &acc {
                for stored in &self.stores[i] {
                    if let Some(merged) = partial.merge(stored) {
                        if is_valid_match(&merged, &self.query) {
                            next.push(merged);
                        }
                    }
                }
            }
            acc = next;
            if acc.is_empty() {
                break;
            }
        }
        let mut emitted: Vec<Match> = acc
            .into_iter()
            .filter(|c| c.prims() == self.positive)
            .filter(|c| is_valid_match(c, &self.query))
            .filter(|c| self.passes_negation(c))
            .collect();
        emitted.sort_by_key(Match::fingerprint);
        emitted.dedup_by(|a, b| a.fingerprint() == b.fingerprint());

        self.stores[slot].push(m);
        self.emitted += emitted.len() as u64;
        self.evict();
        emitted
    }

    fn passes_negation(&self, m: &Match) -> bool {
        self.negations.iter().all(|n| {
            n.forbidden
                .iter()
                .all(|f| !nseq_violated(m, f, n.context.first, n.context.last, &self.query))
        })
    }

    /// Drops buffered matches outside the (slack-scaled) window.
    fn evict(&mut self) {
        let horizon = self
            .max_time
            .saturating_sub((self.query.window() as f64 * self.slack) as Timestamp);
        for store in &mut self.stores {
            store.retain(|m| m.first_time() >= horizon);
        }
        for neg in &mut self.negations {
            neg.forbidden.retain(|m| m.first_time() >= horizon);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::Event;
    use muse_core::query::Pattern;
    use muse_core::types::{EventTypeId, NodeId, PrimId, QueryId};

    fn ev(seq: u64, ty: u16, time: Timestamp) -> Event {
        Event::new(seq, EventTypeId(ty), time, NodeId(0))
    }

    fn ps(prims: impl IntoIterator<Item = u8>) -> PrimSet {
        prims.into_iter().map(PrimId).collect()
    }

    /// SEQ(A, B, C), window 100.
    fn seq_abc() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::leaf(EventTypeId(0)),
                Pattern::leaf(EventTypeId(1)),
                Pattern::leaf(EventTypeId(2)),
            ]),
            vec![],
            100,
        )
        .unwrap()
    }

    #[test]
    fn joins_disjoint_predecessors() {
        // β(SEQ(A,B,C)) = {SEQ(A,B), C}.
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]);
        let ab = Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]);
        assert!(join.on_match(0, ab).is_empty());
        let c = Match::single(PrimId(2), ev(2, 2, 3));
        let out = join.on_match(1, c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fingerprint(), vec![0, 1, 2]);
        assert_eq!(join.emitted(), 1);
    }

    #[test]
    fn join_respects_order() {
        // C arriving with a position before B must not match.
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]);
        let ab = Match::new(vec![(PrimId(0), ev(1, 0, 5)), (PrimId(1), ev(3, 1, 9))]);
        join.on_match(0, ab);
        let c_early = Match::single(PrimId(2), ev(2, 2, 7));
        assert!(join.on_match(1, c_early).is_empty());
    }

    #[test]
    fn join_out_of_order_arrival() {
        // The C match arrives first; the AB match triggers the emission.
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]);
        let c = Match::single(PrimId(2), ev(2, 2, 30));
        assert!(join.on_match(1, c).is_empty());
        let ab = Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]);
        let out = join.on_match(0, ab);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn overlapping_predecessors_must_agree() {
        // β = {SEQ(A,B), SEQ(B,C)}: shared primitive B must be the same
        // event (Example 8 of the paper).
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([1, 2])]);
        let ab = Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]);
        join.on_match(0, ab);
        // Agreeing BC (same B event): emits.
        let bc_agree = Match::new(vec![(PrimId(1), ev(1, 1, 2)), (PrimId(2), ev(2, 2, 3))]);
        assert_eq!(join.on_match(1, bc_agree).len(), 1);
        // Disagreeing BC (different B event): no emission.
        let bc_other = Match::new(vec![(PrimId(1), ev(5, 1, 2)), (PrimId(2), ev(6, 2, 3))]);
        assert!(join.on_match(1, bc_other).is_empty());
    }

    #[test]
    fn skip_till_any_match_multiplicity() {
        // Two AB matches and one C: two emissions.
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]);
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]),
        );
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(3, 0, 3)), (PrimId(1), ev(4, 1, 4))]),
        );
        let out = join.on_match(1, Match::single(PrimId(2), ev(9, 2, 10)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn window_eviction() {
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]);
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]),
        );
        // A C far in the future evicts the stale AB and matches nothing.
        let out = join.on_match(1, Match::single(PrimId(2), ev(2, 2, 500)));
        assert!(out.is_empty());
        assert_eq!(join.buffered(), 1); // only the C remains
    }

    #[test]
    fn watermark_eviction_is_logical_first() {
        // With a huge stride the dead AB stays physically buffered but is
        // invisible to probes and to `buffered()`.
        let q = seq_abc();
        let mut join =
            JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]).with_evict_stride(1_000_000);
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]),
        );
        assert!(join
            .on_match(1, Match::single(PrimId(2), ev(2, 2, 500)))
            .is_empty());
        assert_eq!(join.buffered(), 1);
        assert_eq!(join.physical_buffered(), 2);
        // An in-window AB joins with the live C; the dead AB stays dead.
        let out = join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(3, 0, 450)), (PrimId(1), ev(4, 1, 460))]),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fingerprint(), vec![3, 4, 2]);
    }

    #[test]
    fn stride_drain_truncates_prefix() {
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([2])]).with_evict_stride(50);
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]),
        );
        join.on_match(1, Match::single(PrimId(2), ev(2, 2, 500)));
        // Horizon jumped 0 → 400 ≥ stride: the dead AB is gone physically.
        assert_eq!(join.physical_buffered(), 1);
        assert!(join.stats().evicted >= 1);
    }

    #[test]
    fn stats_count_probes_and_guards() {
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([1, 2])]);
        let ab = Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]);
        join.on_match(0, ab);
        // Disagreeing BC: rejected by the shared-primitive guard, no merge.
        let bc_other = Match::new(vec![(PrimId(1), ev(5, 1, 2)), (PrimId(2), ev(6, 2, 3))]);
        join.on_match(1, bc_other);
        let s = *join.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.probes, 1);
        assert_eq!(s.guard_rejects, 1);
        assert_eq!(s.merge_attempts, 0);
        // Agreeing BC merges and emits.
        let bc_agree = Match::new(vec![(PrimId(1), ev(1, 1, 2)), (PrimId(2), ev(2, 2, 3))]);
        join.on_match(1, bc_agree);
        let s = *join.stats();
        assert_eq!(s.merge_attempts, 1);
        assert_eq!(s.merge_successes, 1);
        assert_eq!(s.emitted, 1);
        assert!(s.peak_buffered >= 2);
    }

    #[test]
    fn three_way_join() {
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0]), ps([1]), ps([2])]);
        join.on_match(0, Match::single(PrimId(0), ev(0, 0, 1)));
        join.on_match(1, Match::single(PrimId(1), ev(1, 1, 2)));
        let out = join.on_match(2, Match::single(PrimId(2), ev(2, 2, 3)));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn nseq_guard_slot_blocks_matches() {
        // NSEQ(A, B, C) with β = {SEQ(A, C) — via projection {0,2} — , B}.
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
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 2]), ps([1])]);
        assert!(join.slots()[1].negated);
        // Forbidden B at t=20 arrives before the positive part completes.
        join.on_match(1, Match::single(PrimId(1), ev(1, 1, 20)));
        // AC spanning the B: blocked.
        let ac_spanning = Match::new(vec![(PrimId(0), ev(0, 0, 10)), (PrimId(2), ev(2, 2, 30))]);
        assert!(join.on_match(0, ac_spanning).is_empty());
        // AC after the B: fine.
        let ac_after = Match::new(vec![(PrimId(0), ev(3, 0, 25)), (PrimId(2), ev(4, 2, 30))]);
        assert_eq!(join.on_match(0, ac_after).len(), 1);
    }

    /// NSEQ(A, SEQ(B, D), C), window 100. Leaf order: A=0, B=1, D=2, C=3.
    fn nseq_a_bd_c() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(EventTypeId(0)),
                Pattern::seq([Pattern::leaf(EventTypeId(1)), Pattern::leaf(EventTypeId(3))]),
                Pattern::leaf(EventTypeId(2)),
            ),
            vec![],
            100,
        )
        .unwrap()
    }

    #[test]
    fn nseq_composite_forbidden_pattern_assembled_from_primitives() {
        // NSEQ(A, SEQ(B, D), C): guards arrive as primitive B and D streams
        // and the join assembles the forbidden SEQ(B, D) itself.
        let q = nseq_a_bd_c();
        let positive = ps([0, 3]);
        let mut join = JoinTask::new(&q, q.prims(), &[positive, ps([1]), ps([2])]);
        // B@20 then D@25: forbidden pattern completes inside (10, 30).
        join.on_match(1, Match::single(PrimId(1), ev(1, 1, 20)));
        join.on_match(2, Match::single(PrimId(2), ev(2, 3, 25)));
        let ac = Match::new(vec![(PrimId(0), ev(0, 0, 10)), (PrimId(3), ev(5, 2, 30))]);
        assert!(join.on_match(0, ac).is_empty());
        // Only D (no B): no forbidden match, positive emits.
        let mut join = JoinTask::new(&q, q.prims(), &[positive, ps([1]), ps([2])]);
        join.on_match(2, Match::single(PrimId(2), ev(2, 3, 25)));
        let ac = Match::new(vec![(PrimId(0), ev(0, 0, 10)), (PrimId(3), ev(5, 2, 30))]);
        assert_eq!(join.on_match(0, ac).len(), 1);
    }

    #[test]
    fn nseq_composite_guards_assemble_in_any_arrival_order() {
        // Distribution delivers the B and D guard streams in arbitrary
        // relative order; whether SEQ(B, D) forms depends on the events'
        // trace positions only. Deferred as under the threaded executor.
        let q = nseq_a_bd_c();
        let deferred_join = || {
            let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 3]), ps([1]), ps([2])]);
            join.set_defer_negation(true);
            join
        };
        let ac = || Match::new(vec![(PrimId(0), ev(0, 0, 10)), (PrimId(3), ev(5, 2, 30))]);
        // D@25 arrives before B@20: the pattern still completes in (10, 30).
        let mut join = deferred_join();
        join.on_match(2, Match::single(PrimId(2), ev(2, 3, 25)));
        join.on_match(1, Match::single(PrimId(1), ev(1, 1, 20)));
        assert!(join.on_match(0, ac()).is_empty());
        assert!(join.release_deferred().is_empty());
        // B@20, then a late D@10: D precedes B, nothing forbidden exists.
        let mut join = deferred_join();
        join.on_match(1, Match::single(PrimId(1), ev(1, 1, 20)));
        join.on_match(2, Match::single(PrimId(2), ev(2, 3, 10)));
        assert!(join.on_match(0, ac()).is_empty());
        assert_eq!(join.release_deferred().len(), 1);
    }

    #[test]
    fn no_duplicate_emissions_with_overlap() {
        // β = {AB, BC} and also {AC}? Use {AB, BC, AC}: all three overlap;
        // the same final match must be emitted exactly once per trigger.
        let q = seq_abc();
        let mut join = JoinTask::new(&q, q.prims(), &[ps([0, 1]), ps([1, 2]), ps([0, 2])]);
        join.on_match(
            0,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(1), ev(1, 1, 2))]),
        );
        join.on_match(
            1,
            Match::new(vec![(PrimId(1), ev(1, 1, 2)), (PrimId(2), ev(2, 2, 3))]),
        );
        let out = join.on_match(
            2,
            Match::new(vec![(PrimId(0), ev(0, 0, 1)), (PrimId(2), ev(2, 2, 3))]),
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn naive_join_agrees_on_a_small_stream() {
        // The same out-of-order stream through both engines, emission for
        // emission (the property suite generalizes this to random streams).
        let q = seq_abc();
        let slots = [ps([0, 1]), ps([1, 2])];
        let mut indexed = JoinTask::with_slack(&q, q.prims(), &slots, 2.0);
        let mut naive = NaiveJoinTask::with_slack(&q, q.prims(), &slots, 2.0);
        let feed = [
            (
                0,
                Match::new(vec![(PrimId(0), ev(0, 0, 5)), (PrimId(1), ev(1, 1, 8))]),
            ),
            (
                1,
                Match::new(vec![(PrimId(1), ev(1, 1, 8)), (PrimId(2), ev(2, 2, 9))]),
            ),
            (
                1,
                Match::new(vec![(PrimId(1), ev(3, 1, 2)), (PrimId(2), ev(4, 2, 4))]),
            ),
            (
                0,
                Match::new(vec![(PrimId(0), ev(5, 0, 1)), (PrimId(1), ev(3, 1, 2))]),
            ),
            (
                1,
                Match::new(vec![(PrimId(1), ev(1, 1, 8)), (PrimId(2), ev(6, 2, 300))]),
            ),
            (
                0,
                Match::new(vec![(PrimId(0), ev(7, 0, 290)), (PrimId(1), ev(8, 1, 295))]),
            ),
        ];
        for (slot, m) in feed {
            let a: Vec<Vec<u64>> = indexed
                .on_match(slot, m.clone())
                .iter()
                .map(Match::fingerprint)
                .collect();
            let b: Vec<Vec<u64>> = naive
                .on_match(slot, m)
                .iter()
                .map(Match::fingerprint)
                .collect();
            assert_eq!(a, b);
            assert_eq!(indexed.buffered(), naive.buffered());
        }
        assert_eq!(indexed.emitted(), naive.emitted());
    }
}

//! Deterministic discrete-event execution of a deployment.
//!
//! The simulator drives a [`Deployment`] over a global event trace with a
//! virtual clock: events are injected in trace order, every triggered
//! cascade of match deliveries is processed before the next injection, and
//! deliveries are ordered by `(virtual time, triggering event, hop)` so that
//! causality — in particular the arrive-before-candidate property that the
//! `NSEQ` absence check relies on — holds exactly when the network latency
//! is zero.
//!
//! The simulator is the measurement instrument for the paper's transmission
//! experiments (§7.2, Table 3): the node core it drives counts every match
//! that crosses the network (once per target node, matching the cost
//! model's shipping rule of §4.4) and the encoded bytes. This module is
//! only the driver — the delivery heap, its order, and the hop latency; the
//! node semantics are the same code the threaded executor runs.

use crate::checkpoint::{CheckpointError, PendingDelivery, Snapshot};
use crate::deploy::Deployment;
use crate::matcher::Match;
use crate::metrics::Metrics;
use crate::node::{NodeCore, Outbox};
use crate::telemetry::{ClockDomain, RunTelemetry, TelemetrySpec};
use muse_core::event::{Event, Timestamp};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Virtual network latency per hop, in ticks. With the default of 0 the
    /// simulation is exactly trace-ordered (required for `NSEQ` queries).
    pub latency: Timestamp,
    /// Join store eviction slack (≥ 1.0).
    pub slack: f64,
    /// Telemetry collection (per-task series, trace, provenance); `None`
    /// disables it entirely. Telemetry is observational — it is not part
    /// of checkpointed state and restarts fresh on restore.
    #[serde(default)]
    pub telemetry: Option<TelemetrySpec>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: 0,
            slack: 1.0,
            telemetry: None,
        }
    }
}

/// Heap adapter ordering scheduled deliveries by `(time, trigger, sub)`
/// ascending.
#[derive(Debug, Clone)]
struct HeapEntry(PendingDelivery);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap on BinaryHeap.
        other.key().cmp(&self.key())
    }
}
impl HeapEntry {
    fn key(&self) -> (Timestamp, u64, u64) {
        (self.0.time, self.0.trigger, self.0.sub)
    }
}

/// The result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Sink matches per query (parallel to `Deployment::queries`).
    pub matches: Vec<Vec<Match>>,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Collected telemetry, when [`SimConfig::telemetry`] was set.
    pub telemetry: Option<RunTelemetry>,
}

/// The simulator's scheduler: every delivery the core causes, local or
/// remote, goes onto one heap keyed by `(time, trigger, sub)`.
struct Schedule {
    heap: BinaryHeap<HeapEntry>,
    /// Tiebreak counter: deliveries of one cascade run in the order they
    /// were scheduled.
    next_sub: u64,
    /// Virtual network latency per hop.
    latency: Timestamp,
    /// The virtual clock: time of the injection or delivery in progress.
    now: Timestamp,
    /// Sequence number of the event whose cascade is in progress.
    trigger: u64,
}

impl Schedule {
    fn push(&mut self, time: Timestamp, target: usize, slot: usize, m: Match) {
        self.next_sub += 1;
        self.heap.push(HeapEntry(PendingDelivery {
            time,
            trigger: self.trigger,
            sub: self.next_sub,
            target,
            slot,
            m,
        }));
    }
}

impl Outbox for Schedule {
    fn now(&self) -> u64 {
        self.now
    }

    fn local(&mut self, target: usize, slot: usize, m: Match) -> Option<Match> {
        self.push(self.now, target, slot, m);
        None
    }

    fn remote(&mut self, _dest: usize, target: usize, slot: usize, m: Match) {
        self.push(self.now + self.latency, target, slot, m);
    }

    /// Event-time lag: emission time minus the newest constituent's
    /// timestamp.
    fn sink_latency(&self, m: &Match, now: u64) -> Option<u64> {
        Some(now.saturating_sub(m.last_time()))
    }
}

/// A resumable discrete-event executor.
pub struct SimExecutor<'a> {
    core: NodeCore<'a>,
    schedule: Schedule,
}

impl<'a> SimExecutor<'a> {
    /// Creates an executor with fresh task state.
    pub fn new(deployment: &'a Deployment, config: SimConfig) -> Self {
        Self {
            core: NodeCore::new(
                deployment,
                None,
                config.slack,
                ClockDomain::VirtualTicks,
                config.telemetry.as_ref(),
            ),
            schedule: Schedule {
                heap: BinaryHeap::new(),
                next_sub: 0,
                latency: config.latency,
                now: 0,
                trigger: 0,
            },
        }
    }

    /// Feeds a slice of the global trace (events must be in trace order and
    /// non-decreasing across successive calls).
    pub fn process_trace(&mut self, events: &[Event]) {
        for event in events {
            self.schedule.now = event.time;
            self.schedule.trigger = event.seq;
            self.core.maybe_sample(&self.schedule);
            self.core.inject(&mut self.schedule, event);
            self.drain();
        }
    }

    /// Processes all pending deliveries.
    fn drain(&mut self) {
        while let Some(HeapEntry(item)) = self.schedule.heap.pop() {
            self.schedule.now = item.time;
            self.schedule.trigger = item.trigger;
            self.core
                .deliver(&mut self.schedule, item.target, item.slot, item.m);
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The sink matches collected so far, per query.
    pub fn matches(&self) -> &[Vec<Match>] {
        self.core.matches()
    }

    /// Captures the executor's state as a portable [`Snapshot`] — the
    /// schema shared with the threaded executor (see [`crate::checkpoint`]).
    pub fn to_snapshot(&self) -> Snapshot {
        let mut snap = self.core.save();
        snap.pending = self.schedule.heap.iter().map(|e| e.0.clone()).collect();
        snap.pending.sort_by_key(|p| (p.time, p.trigger, p.sub));
        snap.next_sub = self.schedule.next_sub;
        snap
    }

    /// Rebuilds an executor from a decoded [`Snapshot`] (which may have
    /// been produced by either executor). Join tasks are re-instantiated
    /// from the deployment plan and the snapshot's dynamic state is
    /// grafted on; event cursors, which only the threaded executor
    /// interprets, are ignored. Telemetry restarts fresh.
    pub fn from_snapshot(
        deployment: &'a Deployment,
        config: SimConfig,
        mut snap: Snapshot,
    ) -> Result<Self, CheckpointError> {
        let mut executor = Self::new(deployment, config);
        executor.core.restore(&mut snap)?;
        if snap
            .pending
            .iter()
            .any(|p| !executor.core.has_join(p.target))
        {
            return Err(CheckpointError::Shape(
                "pending delivery targets a non-join task",
            ));
        }
        executor.schedule.heap = snap.pending.into_iter().map(HeapEntry).collect();
        executor.schedule.next_sub = snap.next_sub;
        Ok(executor)
    }

    /// Finishes the run and returns the report, folding per-join engine
    /// counters into the metrics.
    pub fn finish(mut self) -> SimReport {
        self.drain();
        // The final series sample sits at the global watermark.
        let watermark = self.core.max_seen();
        let report = self.core.finish(watermark);
        SimReport {
            matches: report.matches,
            metrics: report.metrics,
            telemetry: report.telemetry,
        }
    }
}

/// Runs a deployment over a complete global trace.
///
/// # Examples
///
/// ```
/// use muse_core::graph::PlanContext;
/// use muse_core::prelude::*;
/// use muse_runtime::sim::{run_simulation, SimConfig};
/// use muse_runtime::Deployment;
///
/// // Two nodes, each producing one type; query SEQ(A, B).
/// let (a, b) = (EventTypeId(0), EventTypeId(1));
/// let network = NetworkBuilder::new(2, 2)
///     .node(NodeId(0), [a])
///     .node(NodeId(1), [b])
///     .rate(a, 5.0)
///     .rate(b, 5.0)
///     .build();
/// let query = Query::build(
///     QueryId(0),
///     &Pattern::seq([Pattern::leaf(a), Pattern::leaf(b)]),
///     vec![],
///     1_000,
/// )
/// .unwrap();
/// let plan = amuse(&query, &network, &AMuseConfig::default()).unwrap();
/// let ctx = PlanContext::new(std::slice::from_ref(&query), &network, &plan.table);
/// let deployment = Deployment::new(&plan.graph, &ctx);
///
/// let trace = vec![
///     Event::new(0, a, 10, NodeId(0)),
///     Event::new(1, b, 20, NodeId(1)),
/// ];
/// let report = run_simulation(&deployment, &trace, &SimConfig::default());
/// assert_eq!(report.matches[0].len(), 1);
/// assert!(report.metrics.messages_sent >= 1); // something crossed the network
/// ```
pub fn run_simulation(deployment: &Deployment, events: &[Event], config: &SimConfig) -> SimReport {
    let mut executor = SimExecutor::new(deployment, config.clone());
    executor.process_trace(events);
    executor.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::Evaluator;
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{CmpOp, Pattern, Predicate, Query};
    use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};
    use std::collections::BTreeSet;

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn fig1_network() -> Network {
        NetworkBuilder::new(3, 3)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1)])
            .rate(t(0), 20.0)
            .rate(t(1), 20.0)
            .rate(t(2), 1.0)
            .build()
    }

    fn robots_query(selectivity: Option<f64>) -> Query {
        let preds = selectivity
            .map(|s| {
                vec![Predicate::binary(
                    (PrimId(0), AttrId(0)),
                    CmpOp::Eq,
                    (PrimId(1), AttrId(0)),
                    s,
                )]
            })
            .unwrap_or_default();
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            preds,
            5_000,
        )
        .unwrap()
    }

    fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
        matches.iter().map(Match::fingerprint).collect()
    }

    fn deploy_and_run(query: &Query, network: &Network, events: &[Event]) -> SimReport {
        let plan = amuse(query, network, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(query), network, &plan.table);
        plan.graph.check_correct(&ctx, 1_000_000).unwrap();
        let deployment = Deployment::new(&plan.graph, &ctx);
        run_simulation(&deployment, events, &SimConfig::default())
    }

    fn trace(network: &Network, seed: u64, key_domain: u32) -> Vec<Event> {
        muse_sim::traces::generate_traces(
            network,
            &muse_sim::traces::TraceConfig {
                duration: 30.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.05,
                key_domain,
                band_domain: 0,
                seed,
            },
        )
    }

    #[test]
    fn distributed_matches_equal_centralized() {
        let net = fig1_network();
        let q = robots_query(None);
        for seed in 0..3 {
            let events = trace(&net, seed, 0);
            let report = deploy_and_run(&q, &net, &events);
            let central = Evaluator::for_query(&q).run(&events);
            assert_eq!(
                fingerprints(&report.matches[0]),
                fingerprints(&central),
                "seed {seed}: {} vs {} matches",
                report.matches[0].len(),
                central.len()
            );
            // No duplicates across sinks.
            assert_eq!(
                report.matches[0].len(),
                fingerprints(&report.matches[0]).len()
            );
        }
    }

    #[test]
    fn distributed_matches_with_predicates() {
        let net = fig1_network();
        let q = robots_query(Some(0.5));
        let events = muse_sim::traces::generate_traces(
            &net,
            &muse_sim::traces::TraceConfig {
                duration: 60.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.15,
                key_domain: 2, // equality selectivity 0.5
                band_domain: 0,
                seed: 7,
            },
        );
        let report = deploy_and_run(&q, &net, &events);
        let central = Evaluator::for_query(&q).run(&events);
        assert_eq!(fingerprints(&report.matches[0]), fingerprints(&central));
        assert!(!central.is_empty(), "trace should produce matches");
    }

    #[test]
    fn transmissions_below_centralized() {
        let net = fig1_network();
        let q = robots_query(Some(0.25));
        let events = trace(&net, 3, 4);
        let report = deploy_and_run(&q, &net, &events);
        assert!(report.metrics.events_injected > 0);
        // The MuSE plan must move fewer matches than centralized shipping
        // of every event.
        assert!(
            report.metrics.messages_sent < report.metrics.events_injected,
            "sent {} of {} events",
            report.metrics.messages_sent,
            report.metrics.events_injected
        );
        assert!(report.metrics.bytes_sent > 0);
        assert_eq!(
            report.metrics.sink_matches as usize,
            report.matches[0].len()
        );
    }

    #[test]
    fn multi_sink_plan_partitions_matches() {
        // Network where every node produces the frequent type: aMuSE builds
        // a multi-sink plan; matches must be partitioned, not duplicated.
        let net = NetworkBuilder::new(3, 3)
            .node(n(0), [t(0), t(1)])
            .node(n(1), [t(0)])
            .node(n(2), [t(0), t(2)])
            .rate(t(0), 50.0)
            .rate(t(1), 1.0)
            .rate(t(2), 1.0)
            .build();
        let q = Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::leaf(t(1)),
                Pattern::leaf(t(0)),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            5_000,
        )
        .unwrap();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let events = trace(&net, 11, 0);
        let report = deploy_and_run(&q, &net, &events);
        let central = Evaluator::for_query(&q).run(&events);
        assert_eq!(fingerprints(&report.matches[0]), fingerprints(&central));
        assert!(plan.is_multi_sink());
    }

    #[test]
    fn nseq_query_distributed() {
        // NSEQ(F, C, L): rare F, then rare L, with no frequent C between.
        let net = fig1_network();
        let q = Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(t(2)),
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
            ),
            vec![],
            5_000,
        )
        .unwrap();
        let events = trace(&net, 5, 0);
        let report = deploy_and_run(&q, &net, &events);
        let central = Evaluator::for_query(&q).run(&events);
        assert_eq!(fingerprints(&report.matches[0]), fingerprints(&central));
    }

    #[test]
    fn checkpoint_and_restore_resumes_identically() {
        let net = fig1_network();
        let q = robots_query(None);
        let events = trace(&net, 13, 0);
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);

        // Uninterrupted run.
        let full = run_simulation(&deployment, &events, &SimConfig::default());

        // Interrupted run: snapshot at the midpoint, restore, resume.
        let mid = events.len() / 2;
        let mut first = SimExecutor::new(&deployment, SimConfig::default());
        first.process_trace(&events[..mid]);
        let snapshot = crate::checkpoint::snapshot(&first).unwrap();
        drop(first);
        let mut resumed =
            crate::checkpoint::restore(&deployment, SimConfig::default(), &snapshot).unwrap();
        resumed.process_trace(&events[mid..]);
        let report = resumed.finish();

        assert_eq!(
            fingerprints(&report.matches[0]),
            fingerprints(&full.matches[0])
        );
        assert_eq!(report.metrics.messages_sent, full.metrics.messages_sent);
    }

    #[test]
    fn latencies_recorded_per_sink_match() {
        let net = fig1_network();
        let q = robots_query(None);
        let events = trace(&net, 17, 0);
        let report = deploy_and_run(&q, &net, &events);
        assert_eq!(report.metrics.latencies.len(), report.matches[0].len());
        // Zero latency network: emission happens at the closing event time.
        assert!(report.metrics.latencies.iter().all(|&l| l == 0));
    }

    #[test]
    fn network_latency_adds_to_match_latency() {
        let net = fig1_network();
        let q = robots_query(None);
        let events = trace(&net, 17, 0);
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let report = run_simulation(
            &deployment,
            &events,
            &SimConfig {
                latency: 10,
                slack: 2.0,
                telemetry: None,
            },
        );
        if !report.metrics.latencies.is_empty() {
            assert!(report.metrics.latencies.iter().any(|&l| l > 0));
        }
    }
}

//! Deterministic discrete-event execution of a deployment.
//!
//! The simulator drives a [`Deployment`] over a global event trace with a
//! virtual clock: events are injected in trace order, and every cascade of
//! match deliveries an event triggers is processed before the next
//! injection. The node core delivers node-local matches inline,
//! depth-first, as under the threaded driver; cross-node deliveries wait in
//! one FIFO queue, the simulator's zero-latency network, which is drained
//! to empty after each injection. Every delivery therefore runs at the
//! injected event's time. That is all the `NSEQ` absence check needs: a
//! guard that can suppress a candidate lies strictly inside the
//! candidate's context interval, so it is strictly earlier in trace order
//! than the event that completes the candidate, and its whole cascade was
//! delivered before that event was injected.
//!
//! The simulator is the measurement instrument for the paper's transmission
//! experiments (§7.2, Table 3): the node core it drives counts every match
//! that crosses the network (once per target node, matching the cost
//! model's shipping rule of §4.4) and the encoded bytes. This module is
//! only the driver — the clock and the network queue; the node semantics
//! are the same code the threaded executor runs.

use crate::checkpoint::{CheckpointError, Snapshot};
use crate::deploy::Deployment;
use crate::matcher::Match;
use crate::metrics::Metrics;
use crate::node::{NodeCore, Outbox};
use crate::telemetry::{ClockDomain, RunTelemetry, TelemetrySpec};
use muse_core::event::{Event, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Simulator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
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
            slack: 1.0,
            telemetry: None,
        }
    }
}

/// The result of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Sink matches per query (parallel to `Deployment::queries`) that this
    /// executor emitted: one restored from a snapshot holds none of the
    /// matches emitted before the snapshot.
    pub matches: Vec<Vec<Match>>,
    /// Collected metrics: like the matches, only this executor's work.
    pub metrics: Metrics,
    /// Collected telemetry, when [`SimConfig::telemetry`] was set.
    pub telemetry: Option<RunTelemetry>,
}

/// The simulator's side of the core: a virtual clock and a zero-latency
/// network. The core delivers node-local matches inline; a cross-node
/// delivery waits here, in send order, until the cascade in progress
/// returns to the driver.
struct Schedule {
    /// Cross-node deliveries not yet made, as `(input, match)`.
    network: VecDeque<(usize, Match)>,
    /// The virtual clock: time of the event whose cascade is in progress.
    now: Timestamp,
}

impl Outbox for Schedule {
    fn now(&self) -> u64 {
        self.now
    }

    fn remote(&mut self, _dest: usize, input: usize, m: Match) {
        self.network.push_back((input, m));
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
                network: VecDeque::new(),
                now: 0,
            },
        }
    }

    /// Feeds a slice of the global trace (events must be in trace order and
    /// non-decreasing across successive calls).
    pub fn process_trace(&mut self, events: &[Event]) {
        for event in events {
            self.schedule.now = event.time;
            self.core.maybe_sample(&self.schedule);
            self.core.inject(&mut self.schedule, event);
            self.drain();
        }
    }

    /// Makes the queued cross-node deliveries, and those they cause, until
    /// none is left.
    fn drain(&mut self) {
        while let Some((input, m)) = self.schedule.network.pop_front() {
            self.core.deliver(&mut self.schedule, input, m);
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The sink matches this executor has emitted so far, per query.
    pub fn matches(&self) -> &[Vec<Match>] {
        self.core.matches()
    }

    /// Captures the executor's state as a portable [`Snapshot`] — the
    /// schema shared with the threaded executor (see [`crate::checkpoint`]).
    /// Every public call leaves the executor drained, so the snapshot holds
    /// no in-flight delivery.
    pub fn to_snapshot(&self) -> Snapshot {
        debug_assert!(self.schedule.network.is_empty(), "snapshots are quiescent");
        self.core.save()
    }

    /// Rebuilds an executor from a decoded [`Snapshot`] (which may have
    /// been produced by either executor). Join tasks are re-instantiated
    /// from the deployment plan and the snapshot's dynamic state is
    /// grafted on. The metrics, the join counters, the collected matches
    /// and the telemetry start fresh: the report counts only the work of
    /// this executor.
    pub fn from_snapshot(
        deployment: &'a Deployment,
        config: SimConfig,
        mut snap: Snapshot,
    ) -> Result<Self, CheckpointError> {
        let mut executor = Self::new(deployment, config);
        executor.core.restore(&mut snap)?;
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
    use muse_core::algorithms::multi_query::amuse_workload;
    use muse_core::catalog::Catalog;
    use muse_core::event::Value;
    use muse_core::graph::PlanContext;
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::{CmpOp, Pattern, Predicate, Query};
    use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};
    use muse_core::workload::Workload;
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
        // The virtual clock has no latency to sample, and drops none.
        assert_eq!(report.metrics.latency_samples_dropped, 0);
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

        // Interrupted run: snapshot at the midpoint, restore, resume. The
        // resumed run emits the matches the first one did not.
        let mid = events.len() / 2;
        let mut first = SimExecutor::new(&deployment, SimConfig::default());
        first.process_trace(&events[..mid]);
        let snapshot = crate::checkpoint::encode(&first.to_snapshot());
        let head = first.finish();
        let mut resumed =
            crate::checkpoint::restore(&deployment, SimConfig::default(), &snapshot).unwrap();
        resumed.process_trace(&events[mid..]);
        let report = resumed.finish();

        assert!(!head.matches[0].is_empty() && !report.matches[0].is_empty());
        assert_eq!(
            [&head.matches[0][..], &report.matches[0]].concat(),
            full.matches[0]
        );
        let mut merged = head.metrics;
        merged.merge(&report.metrics);
        assert_eq!(merged, full.metrics);
    }

    #[test]
    fn checkpoint_with_shared_buffers_resumes_identically() {
        // Two band variants of the Fig. 1 query: their t1 and t2 streams
        // feed both variants' joins, which read them as shared inputs.
        let net = fig1_network();
        let pattern = Pattern::seq([
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            Pattern::leaf(t(2)),
        ]);
        let band = |lo, hi| {
            [(CmpOp::Ge, lo), (CmpOp::Le, hi)]
                .map(|(op, v)| Predicate::unary(PrimId(0), AttrId(1), op, Value::Int(v), 0.5))
                .to_vec()
        };
        let workload = Workload::from_patterns(
            Catalog::with_anonymous_types(3),
            [band(0, 4), band(5, 9)].map(|preds| (pattern.clone(), preds, 5_000)),
        )
        .unwrap();
        let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
        let deployment = Deployment::new(&plan.merged, &ctx);
        let events = muse_sim::traces::generate_traces(
            &net,
            &muse_sim::traces::TraceConfig {
                duration: 30.0,
                ticks_per_unit: 100.0,
                rate_scale: 0.05,
                key_domain: 0,
                band_domain: 10,
                seed: 13,
            },
        );
        let full = run_simulation(&deployment, &events, &SimConfig::default());
        assert!(full.matches.iter().all(|m| !m.is_empty()));

        // Checkpoint halfway: each shared input's buffer is stored once,
        // and its readers keep only their own horizons.
        let mid = events.len() / 2;
        let mut first = SimExecutor::new(&deployment, SimConfig::default());
        first.process_trace(&events[..mid]);
        let snap = first.to_snapshot();
        let mut buffered = 0;
        for (input, buffer) in snap.buffers.iter().enumerate() {
            let readers = deployment.shared_readers(input);
            assert_eq!(buffer.is_some(), !readers.is_empty());
            buffered += buffer.as_ref().map_or(0, |b| b.matches.len());
            for (task, slot) in readers {
                let own = &snap.tasks[task].as_ref().unwrap().stores[slot];
                assert!(own.matches.is_empty(), "a reader holds no copy");
            }
        }
        assert!(buffered > 0, "the shared buffers hold matches");
        let bytes = crate::checkpoint::encode(&snap);
        let head = first.finish();

        let mut resumed =
            crate::checkpoint::restore(&deployment, SimConfig::default(), &bytes).unwrap();
        assert_eq!(resumed.to_snapshot(), snap, "restore loses nothing");
        resumed.process_trace(&events[mid..]);
        let report = resumed.finish();
        for (q, (head, tail)) in head.matches.iter().zip(&report.matches).enumerate() {
            let across_cut = [&head[..], tail].concat();
            assert_eq!(across_cut, full.matches[q], "query {q}, in order");
        }
        let mut merged = head.metrics;
        merged.merge(&report.metrics);
        assert_eq!(merged, full.metrics);
    }
}

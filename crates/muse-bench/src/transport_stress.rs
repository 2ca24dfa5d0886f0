//! The relay fixture of this crate's crash-recovery tests, which
//! `bench/`'s `relay` workload enlarges: three edge nodes each produce one
//! frequent event type, two center nodes each produce a rare anchor type,
//! and each query `SEQ(edge_i, anchor_c)` is pinned wholesale to its
//! center `c` through a hand-built [`OperatorPlacement`] — deliberately
//! *not* an aMuSE plan — so every edge event crosses the network to every
//! center, and a crash rolls back a network's worth of traffic.

use muse_core::algorithms::baselines::{placement_to_graph, OperatorPlacement};
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::{Network, NetworkBuilder};
use muse_core::projection::ProjectionTable;
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_sim::traces::{generate_traces, TraceConfig};

/// The query window (ticks): anchors sweep this span of buffered edge
/// partials, so sink-match volume stays proportional to the anchor rate.
pub const WINDOW: Timestamp = 100;

/// Threaded-executor chunk length for relay runs: an enlarged chunk (10
/// windows). The relay window is short, and per-window chunks would make
/// barrier rounds, not the data plane, the measured cost.
pub const CHUNK_TICKS: Timestamp = 10 * WINDOW;

/// Eviction slack that goes with [`CHUNK_TICKS`]: remote deliveries can
/// land a full chunk late, so `slack * window` must stay above `chunk` or
/// window stores evict partials that a late frame still needs.
pub const SLACK: f64 = 12.0;

/// Edge event types (one per edge node) relayed to every center.
pub const EDGE_TYPES: usize = 3;

/// Center nodes; each edge event ships to every one of them, so the
/// expected messages-per-event ratio of the workload is `CENTERS`.
pub const CENTERS: usize = 2;

/// Events per time unit of each edge type (before trace `rate_scale`).
const EDGE_RATE: f64 = 100.0;

/// Events per time unit of each rare anchor type.
const ANCHOR_RATE: f64 = 0.1;

/// Edge node `i` (producing edge type `i`) is node `CENTERS + i`.
fn edge_node(i: usize) -> NodeId {
    NodeId((CENTERS + i) as u16)
}

/// Center `c`'s anchor type is `EDGE_TYPES + c`.
fn anchor_type(c: usize) -> EventTypeId {
    EventTypeId((EDGE_TYPES + c) as u16)
}

/// The relay network: `CENTERS` center nodes each produce one rare anchor
/// type; `EDGE_TYPES` edge nodes each produce one frequent edge type.
pub fn stress_network() -> Network {
    let mut b = NetworkBuilder::new(CENTERS + EDGE_TYPES, EDGE_TYPES + CENTERS);
    for c in 0..CENTERS {
        b = b.node(NodeId(c as u16), [anchor_type(c)]);
        b = b.rate(anchor_type(c), ANCHOR_RATE);
    }
    for i in 0..EDGE_TYPES {
        b = b.node(edge_node(i), [EventTypeId(i as u16)]);
        b = b.rate(EventTypeId(i as u16), EDGE_RATE);
    }
    b.build()
}

/// Deploys `SEQ(edge_i, anchor_c)` for every (edge type, center) pair,
/// each pinned to its center, so every edge event ships to every center.
pub fn stress_deployment(network: &Network) -> Deployment {
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(EDGE_TYPES + CENTERS),
        (0..CENTERS).flat_map(|c| {
            (0..EDGE_TYPES).map(move |i| {
                (
                    Pattern::seq([
                        Pattern::leaf(EventTypeId(i as u16)),
                        Pattern::leaf(anchor_type(c)),
                    ]),
                    Vec::<Predicate>::new(),
                    WINDOW,
                )
            })
        }),
    )
    .expect("relay patterns build a workload");

    let mut table = ProjectionTable::new();
    let mut graph = MuseGraph::new();
    for (q_idx, q) in workload.queries().iter().enumerate() {
        let center = NodeId((q_idx / EDGE_TYPES) as u16);
        let placement = OperatorPlacement {
            assignments: vec![(q.prims(), center)],
            cost: 0.0,
        };
        let g = placement_to_graph(q, &placement, network, &mut table)
            .expect("pinned placement builds a graph");
        graph.union_with(&g);
    }
    let ctx = PlanContext::new(workload.queries(), network, &table);
    Deployment::new(&graph, &ctx)
}

/// Measurement attributes added to every event beyond the join key,
/// mirroring the cluster-trace schema (job/machine ids, CPU, memory, …):
/// the wire size of a message is payload-dominated, as it is for real
/// traces, so per-message encoding is a first-order transport cost.
const EXTRA_ATTRS: u8 = 8;

/// A Poisson trace over the relay network. Events carry a key attribute
/// (domain 64) plus [`EXTRA_ATTRS`] measurement attributes, so both
/// transports ship realistically sized payloads, not bare timestamps.
pub fn stress_trace(network: &Network, duration: f64, seed: u64) -> Vec<Event> {
    let mut events = generate_traces(
        network,
        &TraceConfig {
            duration,
            ticks_per_unit: 100.0,
            rate_scale: 1.0,
            key_domain: 64,
            band_domain: 0,
            seed,
        },
    );
    for e in &mut events {
        // Deterministic pseudo-measurements derived from the sequence
        // number; values are irrelevant to matching (only the key attr is
        // ever compared), but they must ride the wire.
        for j in 0..EXTRA_ATTRS {
            let x = e.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (8 + j);
            let attr = muse_core::types::AttrId(1 + j);
            if j % 2 == 0 {
                e.payload
                    .set(attr, muse_core::event::Value::Int((x & 0xffff) as i64));
            } else {
                e.payload.set(
                    attr,
                    muse_core::event::Value::Float((x & 0xffff) as f64 / 16.0),
                );
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_runtime::matcher::Match;
    use muse_runtime::sim::{run_simulation, SimConfig};
    use muse_runtime::telemetry::{TelemetrySpec, TraceRecord};
    use muse_runtime::threaded::{run_threaded, FaultPlan, ThreadedConfig, ThreadedReport};
    use std::time::Duration;

    #[test]
    fn relay_workload_is_transport_dominated() {
        let net = stress_network();
        let deployment = stress_deployment(&net);
        let events = stress_trace(&net, 20.0, 7);
        assert!(!events.is_empty());
        let report = run_simulation(&deployment, &events, &SimConfig::default());
        // Every edge event must cross the network to every center: the
        // pinned placements leave nothing local to evaluate at the edges.
        let edge_events = events.iter().filter(|e| e.ty.0 < EDGE_TYPES as u16).count() as u64;
        assert!(
            report.metrics.messages_sent >= (CENTERS as u64) * edge_events,
            "relay must multicast every edge event ({} sent vs {} edge events x {} centers)",
            report.metrics.messages_sent,
            edge_events,
            CENTERS
        );
        assert!(report.metrics.sink_matches > 0, "anchors must find matches");
    }

    /// The Fig. 1 fixture of `fault_recovery.rs` runs per-window chunks at
    /// the default slack; the relay runs in the enlarged-chunk regime
    /// ([`CHUNK_TICKS`], [`SLACK`]), where the rollback re-runs up to ten
    /// windows of every node's traffic.
    #[test]
    fn relay_crash_is_lossless_in_the_enlarged_chunk_regime() {
        let net = stress_network();
        let deployment = stress_deployment(&net);
        // 40 units = four chunks: the halfway crash has real checkpoints
        // behind it, and the rare anchors fire often enough to match.
        let events = stress_trace(&net, 40.0, 7);
        let baseline_config = ThreadedConfig {
            slack: SLACK,
            chunk_ticks: Some(CHUNK_TICKS),
            ..ThreadedConfig::default()
        };
        let checkpoint_config = ThreadedConfig {
            checkpoint: true,
            ..baseline_config.clone()
        };
        // The first edge node: it injects a third of the trace, so the
        // halfway crash re-runs a long stretch of injections whose frames
        // both centers have already received.
        let node = CENTERS;
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let crash_config = ThreadedConfig {
            fault: Some(FaultPlan {
                node,
                crash_at: local / 2,
                restart_delay: Duration::from_millis(1),
            }),
            // A trace long enough to keep the crash record.
            telemetry: Some(TelemetrySpec {
                trace_capacity: 1 << 24,
                ..TelemetrySpec::default()
            }),
            ..checkpoint_config.clone()
        };
        // Per query, the matches as a multiset: a match the rollback left
        // in the report and the re-run emitted again would show twice.
        let fingerprints = |report: &ThreadedReport| -> Vec<Vec<Vec<u64>>> {
            let multiset = |q: &Vec<Match>| {
                let mut prints: Vec<_> = q.iter().map(Match::fingerprint).collect();
                prints.sort_unstable();
                prints
            };
            report.matches.iter().map(multiset).collect()
        };

        let baseline = run_threaded(&deployment, &events, &baseline_config);
        let checkpointed = run_threaded(&deployment, &events, &checkpoint_config);
        let crashed = run_threaded(&deployment, &events, &crash_config);
        assert!(
            baseline.metrics.sink_matches > 0,
            "anchors must find matches"
        );
        assert_eq!(fingerprints(&baseline), fingerprints(&checkpointed));
        assert_eq!(fingerprints(&baseline), fingerprints(&crashed));
        assert_eq!(checkpointed.metrics.recovery.crashes, 0);
        assert_eq!(crashed.metrics.recovery.crashes, 1, "crash must fire");
        // The rollback rewinds every counter: the crashed run counts each
        // event, message and match once.
        let counters = |report: &ThreadedReport| {
            let m = &report.metrics;
            [
                m.events_injected,
                m.messages_sent,
                m.bytes_sent,
                m.local_deliveries,
                m.sink_matches,
                m.join.emitted,
            ]
        };
        assert_eq!(counters(&crashed), counters(&baseline));

        let trace = crashed.telemetry.expect("telemetry requested").trace;
        let crashes: Vec<usize> = trace
            .records()
            .filter_map(|r| match r {
                TraceRecord::Crash { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, [node], "the trace records the crash");
        let restored: Vec<u64> = trace
            .records()
            .filter_map(|r| match r {
                TraceRecord::Recovered {
                    node: at, cursor, ..
                } if *at == node => Some(*cursor),
                _ => None,
            })
            .collect();
        assert!(
            matches!(restored[..], [cursor] if cursor > 0),
            "the crashed node restores a shard saved mid-run: {restored:?}"
        );
    }
}

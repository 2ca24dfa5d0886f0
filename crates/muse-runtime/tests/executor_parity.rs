//! Simulator-vs-threaded parity on query classes beyond plain SEQ/AND:
//! disjunctions (OR, split into per-alternative queries) and negated
//! sequences (NSEQ, exercising the threaded executor's deferred-negation
//! release); on streams that two tasks of a node share (the §4.4
//! once-per-node count); and on a relay-shaped network, where one node
//! spends the run parked at the drain barrier and works there.
//!
//! The simulator processes events in global timestamp order and is the
//! correctness reference; the threaded executor must reproduce its match
//! sets and transmission counts.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::baselines::{placement_to_graph, OperatorPlacement};
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::{Network, NetworkBuilder};
use muse_core::projection::ProjectionTable;
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, run_threaded_resumed, FaultPlan, ThreadedConfig};
use std::collections::BTreeSet;
use std::time::Duration;

fn t(i: u16) -> EventTypeId {
    EventTypeId(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

/// The Fig. 1 network of the paper: three nodes, mixed producers.
fn network() -> Network {
    NetworkBuilder::new(3, 3)
        .node(n(0), [t(0), t(2)])
        .node(n(1), [t(0), t(1)])
        .node(n(2), [t(1)])
        .rate(t(0), 20.0)
        .rate(t(1), 20.0)
        .rate(t(2), 1.0)
        .build()
}

fn trace(network: &Network, seed: u64) -> Vec<Event> {
    muse_sim::traces::generate_traces(
        network,
        &muse_sim::traces::TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 0,
            band_domain: 0,
            seed,
        },
    )
}

/// Splits (for OR), plans, and deploys a pattern workload on the network.
fn deploy(pattern: Pattern, window: Timestamp, network: &Network) -> Deployment {
    deploy_all([(pattern, window)], network)
}

fn deploy_all(
    patterns: impl IntoIterator<Item = (Pattern, Timestamp)>,
    network: &Network,
) -> Deployment {
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(3),
        patterns
            .into_iter()
            .map(|(pattern, window)| (pattern, Vec::<Predicate>::new(), window)),
    )
    .expect("patterns build a workload");
    let plan =
        amuse_workload(&workload, network, &AMuseConfig::default()).expect("aMuSE plans workload");
    let ctx = PlanContext::new(workload.queries(), network, &plan.table);
    Deployment::new(&plan.merged, &ctx)
}

fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
    matches.iter().map(Match::fingerprint).collect()
}

/// OR splits into one query per alternative; NSEQ hosts a negation guard.
fn or_pattern() -> Pattern {
    Pattern::seq([
        Pattern::or([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
        Pattern::leaf(t(2)),
    ])
}

/// The paper's Fig. 1 query, SEQ(AND(t0, t1), t2).
fn fig1_pattern() -> Pattern {
    Pattern::seq([
        Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
        Pattern::leaf(t(2)),
    ])
}

fn nseq_pattern() -> Pattern {
    // Rare first and last (t2, t1 on distinct nodes), frequent negated
    // middle (t0) so the guard actually suppresses candidates.
    Pattern::nseq(
        Pattern::leaf(t(2)),
        Pattern::leaf(t(0)),
        Pattern::leaf(t(1)),
    )
}

fn assert_parity(deployment: &Deployment, events: &[Event], config: &ThreadedConfig, ctx: &str) {
    let sim = run_simulation(deployment, events, &SimConfig::default());
    let threaded = run_threaded(deployment, events, config);
    assert_eq!(
        sim.matches.len(),
        threaded.matches.len(),
        "{ctx}: query count"
    );
    for (q, (s, t)) in sim.matches.iter().zip(&threaded.matches).enumerate() {
        assert_eq!(
            fingerprints(s),
            fingerprints(t),
            "{ctx}: query {q} match sets diverge (sim {} vs threaded {})",
            s.len(),
            t.len()
        );
    }
    assert_eq!(
        sim.metrics.messages_sent, threaded.metrics.messages_sent,
        "{ctx}: network transmissions diverge"
    );
    assert_eq!(
        sim.metrics.bytes_sent, threaded.metrics.bytes_sent,
        "{ctx}: transmitted bytes diverge"
    );
    assert_eq!(
        sim.metrics.sink_matches, threaded.metrics.sink_matches,
        "{ctx}: sink match counts diverge"
    );
    assert_eq!(
        sim.metrics.join.emitted, threaded.metrics.join.emitted,
        "{ctx}: join emission counters diverge"
    );
}

#[test]
fn or_query_threaded_matches_simulator() {
    let net = network();
    let deployment = deploy(or_pattern(), 5_000, &net);
    assert!(
        deployment.queries.len() >= 2,
        "OR must split into one query per alternative"
    );
    let mut total = 0;
    for seed in [7, 23, 41] {
        let events = trace(&net, seed);
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        total += sim.metrics.sink_matches;
        assert_parity(
            &deployment,
            &events,
            &ThreadedConfig::default(),
            &format!("OR seed {seed}"),
        );
    }
    assert!(total > 0, "OR workload must produce matches");
}

#[test]
fn nseq_query_threaded_matches_simulator() {
    let net = network();
    let deployment = deploy(nseq_pattern(), 5_000, &net);
    let mut total = 0;
    for seed in [5, 17, 29] {
        let events = trace(&net, seed);
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        total += sim.metrics.sink_matches;
        assert_parity(
            &deployment,
            &events,
            &ThreadedConfig::default(),
            &format!("NSEQ seed {seed}"),
        );
    }
    assert!(total > 0, "NSEQ workload must produce matches");
}

#[test]
fn nseq_guard_actually_suppresses() {
    // Sanity that the negation is load-bearing: the same SEQ without the
    // guard must admit at least as many (and on this trace strictly more)
    // matches than the NSEQ version.
    let net = network();
    let with_guard = deploy(nseq_pattern(), 5_000, &net);
    let without_guard = deploy(
        Pattern::seq([Pattern::leaf(t(2)), Pattern::leaf(t(1))]),
        5_000,
        &net,
    );
    let mut suppressed = false;
    for seed in [5, 17, 29] {
        let events = trace(&net, seed);
        let guarded = run_simulation(&with_guard, &events, &SimConfig::default());
        let open = run_simulation(&without_guard, &events, &SimConfig::default());
        assert!(guarded.metrics.sink_matches <= open.metrics.sink_matches);
        suppressed |= guarded.metrics.sink_matches < open.metrics.sink_matches;
    }
    assert!(
        suppressed,
        "the frequent negated type must suppress at least one match"
    );
}

/// A crash of `node` just before its `crash_at`-th injection.
fn crash(node: usize, crash_at: u64) -> ThreadedConfig {
    ThreadedConfig {
        fault: Some(FaultPlan {
            node,
            crash_at,
            restart_delay: Duration::ZERO,
        }),
        ..ThreadedConfig::default()
    }
}

fn injections(events: &[Event], node: usize) -> u64 {
    events.iter().filter(|e| e.origin.index() == node).count() as u64
}

#[test]
fn streams_shared_across_windows_count_once_in_both_executors() {
    // One pattern under two windows: equal stream signatures, two tasks
    // per stream and node, so these tasks (and only such tasks) consult
    // the once-per-node set — also across a crash, which restores the set
    // and the counts it guards from one shard.
    let net = network();
    let deployment = deploy_all([(fig1_pattern(), 5_000), (fig1_pattern(), 3_000)], &net);
    let streams: BTreeSet<(u16, u64)> = deployment
        .tasks
        .iter()
        .map(|task| (task.node.0, task.stream_sig))
        .collect();
    assert!(
        streams.len() < deployment.tasks.len(),
        "two windows must put two tasks on one stream"
    );
    let events = trace(&net, 23);
    assert_parity(
        &deployment,
        &events,
        &ThreadedConfig::default(),
        "two windows",
    );
    for node in 0..3 {
        let config = crash(node, injections(&events, node) / 2);
        let ctx = format!("two windows, crash of node {node}");
        assert_parity(&deployment, &events, &config, &ctx);
    }
}

/// Two nodes, relay-shaped: node 1 owns every frequent type, node 0 only
/// a rare anchor, so within a chunk node 0 injects next to nothing and
/// waits at the drain barrier while node 1 still injects.
fn relay_network() -> Network {
    NetworkBuilder::new(2, 4)
        .node(n(0), [t(3)])
        .node(n(1), [t(0), t(1), t(2)])
        .rate(t(0), 40.0)
        .rate(t(1), 40.0)
        .rate(t(2), 3.0)
        .rate(t(3), 1.0)
        .build()
}

const RELAY_WINDOW: Timestamp = 100;

/// Two relays and a negation whose guard crosses too, each pinned whole
/// to node 0 (aMuSE would ship the anchor instead): every event of node 1
/// crosses the network, and node 0 hosts every join.
fn relay_deployment(network: &Network) -> Deployment {
    let anchored = |ty: u16| Pattern::seq([Pattern::leaf(t(ty)), Pattern::leaf(t(3))]);
    let guarded = Pattern::nseq(
        Pattern::leaf(t(0)),
        Pattern::leaf(t(2)),
        Pattern::leaf(t(3)),
    );
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(4),
        [anchored(0), anchored(1), guarded]
            .map(|pattern| (pattern, Vec::<Predicate>::new(), RELAY_WINDOW)),
    )
    .expect("relay patterns build a workload");
    let mut table = ProjectionTable::new();
    let mut graph = MuseGraph::new();
    for q in workload.queries() {
        let placement = OperatorPlacement {
            assignments: vec![(q.prims(), n(0))],
            cost: 0.0,
        };
        let pinned = placement_to_graph(q, &placement, network, &mut table)
            .expect("pinned placement builds a graph");
        graph.union_with(&pinned);
    }
    let ctx = PlanContext::new(workload.queries(), network, &table);
    Deployment::new(&graph, &ctx)
}

fn relay_trace(network: &Network, seed: u64) -> Vec<Event> {
    muse_sim::traces::generate_traces(
        network,
        &muse_sim::traces::TraceConfig {
            duration: 20.0,
            ticks_per_unit: RELAY_WINDOW as f64,
            rate_scale: 1.0,
            key_domain: 0,
            band_domain: 0,
            seed,
        },
    )
}

#[test]
fn parked_receiver_matches_simulator() {
    let net = relay_network();
    let deployment = relay_deployment(&net);
    assert!(
        deployment.tasks.iter().all(|task| task.node == n(0)
            || matches!(task.kind, muse_runtime::deploy::TaskKind::Source { .. })),
        "every join sits on the receiver"
    );
    // Maximal backpressure: the parked receiver drains one-message frames
    // from a one-frame channel while the sender blocks on it.
    let squeezed = ThreadedConfig {
        batch: 1,
        capacity: 1,
        ..ThreadedConfig::default()
    };
    for seed in [3, 11, 19] {
        let events = relay_trace(&net, seed);
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        for (q, matches) in sim.matches.iter().enumerate() {
            assert!(!matches.is_empty(), "seed {seed}: query {q} must match");
        }
        let unguarded = sim.matches[0].len();
        assert!(
            sim.matches[2].len() < unguarded,
            "seed {seed}: the guard on the receiver must suppress matches"
        );
        let ctx = format!("relay seed {seed}");
        assert_parity(&deployment, &events, &ThreadedConfig::default(), &ctx);
        assert_parity(&deployment, &events, &squeezed, &format!("{ctx}, squeezed"));
        // A crash of the receiver, then of the sender, mid-chunk.
        for node in 0..2 {
            let config = crash(node, injections(&events, node) / 2);
            assert_parity(
                &deployment,
                &events,
                &config,
                &format!("{ctx}, crash of node {node}"),
            );
        }
    }
}

#[test]
fn parked_receiver_still_checkpoints_at_quiescence() {
    // Every chunk must still start with nothing in flight: the snapshot of
    // a checkpointing run over a prefix restores, and the resumed run ends
    // where the simulator does.
    let net = relay_network();
    let deployment = relay_deployment(&net);
    let events = relay_trace(&net, 11);
    let sim = run_simulation(&deployment, &events, &SimConfig::default());
    let config = ThreadedConfig {
        checkpoint: true,
        ..ThreadedConfig::default()
    };
    for split in [events.len() / 3, events.len() / 2] {
        let prefix = run_threaded(&deployment, &events[..split], &config);
        let snap = prefix.final_snapshot.as_deref().expect("final snapshot");
        let resumed = run_threaded_resumed(&deployment, &events[split..], &config, snap)
            .expect("a quiescent snapshot resumes");
        for (q, (s, r)) in sim.matches.iter().zip(&resumed.matches).enumerate() {
            assert_eq!(
                fingerprints(s),
                fingerprints(r),
                "split {split}: query {q} diverges"
            );
        }
        assert_eq!(sim.metrics.messages_sent, resumed.metrics.messages_sent);
        assert_eq!(sim.metrics.bytes_sent, resumed.metrics.bytes_sent);
    }
}

#[test]
fn steady_state_send_path_recycles_frames() {
    // The acceptance check of the batched transport: after warm-up, frame
    // buffers come from the recycling pool, not the allocator. Per-message
    // frames maximize pool traffic; the reuse counter must dominate.
    let net = network();
    // The paper's Fig. 1 query ships every partial AND match across the
    // network — by far the most frame traffic of the test workloads.
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = muse_sim::traces::generate_traces(
        &net,
        &muse_sim::traces::TraceConfig {
            duration: 40.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 0,
            band_domain: 0,
            seed: 23,
        },
    );
    let report = run_threaded(
        &deployment,
        &events,
        &ThreadedConfig {
            batch: 1,
            capacity: 8,
            ..ThreadedConfig::default()
        },
    );
    let t = &report.metrics.transport;
    assert!(t.frames_sent > 0, "workload must ship frames");
    assert!(
        t.pool_reuses > t.pool_allocs,
        "steady-state sends must reuse pooled buffers (allocs {} vs reuses {})",
        t.pool_allocs,
        t.pool_reuses
    );
    assert!(report.metrics.transport.pool_reuse_ratio() > 0.5);
}

#[test]
fn fanout_tables_mirror_route_tables() {
    let net = network();
    for pattern in [or_pattern(), nseq_pattern()] {
        let deployment = deploy(pattern, 5_000, &net);
        assert_eq!(deployment.fanouts.len(), deployment.routes.len());
        for (task, routes) in deployment.routes.iter().enumerate() {
            let f = &deployment.fanouts[task];
            assert_eq!(f.local.len() + f.remote.len(), routes.len());
            for r in routes {
                if r.remote {
                    let dest = deployment.tasks[r.target].node.index();
                    assert!(f.remote.contains(&(dest, r.target, r.slot)));
                    assert!(f.remote_nodes.contains(&dest));
                } else {
                    assert!(f.local.contains(&(r.target, r.slot)));
                }
            }
            let mut sorted = f.remote_nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, f.remote_nodes, "remote_nodes sorted and deduped");
        }
    }
}

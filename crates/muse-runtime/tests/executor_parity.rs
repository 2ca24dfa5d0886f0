//! Simulator-vs-threaded parity on query classes beyond plain SEQ/AND:
//! disjunctions (OR, split into per-alternative queries) and negated
//! sequences (NSEQ, exercising the threaded executor's deferred-negation
//! release).
//!
//! The simulator processes events in global timestamp order and is the
//! correctness reference; the threaded executor must reproduce its match
//! sets and transmission counts.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, ThreadedConfig, TransportMode};
use std::collections::BTreeSet;

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
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(3),
        [(pattern, Vec::<Predicate>::new(), window)],
    )
    .expect("pattern builds a workload");
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

#[test]
fn steady_state_send_path_recycles_frames() {
    // The acceptance check of the batched transport: after warm-up, frame
    // buffers come from the recycling pool, not the allocator. Per-message
    // frames maximize pool traffic; the reuse counter must dominate.
    let net = network();
    // The paper's Fig. 1 query ships every partial AND match across the
    // network — by far the most frame traffic of the test workloads.
    let deployment = deploy(
        Pattern::seq([
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            Pattern::leaf(t(2)),
        ]),
        5_000,
        &net,
    );
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
            transport: TransportMode::Batched {
                batch: 1,
                capacity: 8,
            },
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

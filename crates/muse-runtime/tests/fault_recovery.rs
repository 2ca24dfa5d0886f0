//! Crash-recovery tests for the threaded executor (the paper's §7.3
//! Ambrosia-style fault tolerance): a node crash injected at an arbitrary
//! injection index must be invisible in the results — the recovered run
//! produces the same match sets and deterministic counters as the
//! uninterrupted one — and snapshots round-trip between the simulator and
//! the threaded executor in both directions.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::checkpoint::{self, CheckpointError};
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{SimConfig, SimExecutor};
use muse_runtime::telemetry::TelemetrySpec;
use muse_runtime::threaded::{
    run_threaded, run_threaded_resumed, FaultPlan, ThreadedConfig, ThreadedReport,
};
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

/// The Fig. 1 SEQ(AND(t0, t1), t2) query — ships partial matches across
/// the network, so a crash loses genuinely distributed state.
fn fig1_pattern() -> Pattern {
    Pattern::seq([
        Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
        Pattern::leaf(t(2)),
    ])
}

fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
    matches.iter().map(Match::fingerprint).collect()
}

/// Deterministic counters that must be identical between a faulted and an
/// uninterrupted run (order-dependent engine counters like join probes are
/// deliberately excluded — replay changes interleaving, not results).
fn assert_equal_outcomes(a: &ThreadedReport, b: &ThreadedReport, ctx: &str) {
    for (q, (ma, mb)) in a.matches.iter().zip(&b.matches).enumerate() {
        assert_eq!(
            fingerprints(ma),
            fingerprints(mb),
            "{ctx}: query {q} match sets diverge"
        );
    }
    assert_eq!(
        a.metrics.events_injected, b.metrics.events_injected,
        "{ctx}: events_injected"
    );
    assert_eq!(
        a.metrics.messages_sent, b.metrics.messages_sent,
        "{ctx}: messages_sent"
    );
    assert_eq!(
        a.metrics.bytes_sent, b.metrics.bytes_sent,
        "{ctx}: bytes_sent"
    );
    assert_eq!(
        a.metrics.local_deliveries, b.metrics.local_deliveries,
        "{ctx}: local_deliveries"
    );
    assert_eq!(
        a.metrics.sink_matches, b.metrics.sink_matches,
        "{ctx}: sink_matches"
    );
    assert_eq!(
        a.metrics.join.emitted, b.metrics.join.emitted,
        "{ctx}: join.emitted"
    );
}

/// Every sink match either produced a latency sample or was explicitly
/// counted as dropped — the accounting bug this PR fixes made samples
/// vanish silently.
fn assert_latency_invariant(r: &ThreadedReport, ctx: &str) {
    assert_eq!(
        r.metrics.sink_matches,
        r.wall_latencies_ns.len() as u64 + r.metrics.latency_samples_dropped,
        "{ctx}: sink_matches must equal latency samples + dropped"
    );
}

#[test]
fn crash_at_arbitrary_injection_is_lossless() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let baseline = run_threaded(&deployment, &events, &ThreadedConfig::default());
    assert!(
        baseline.metrics.sink_matches > 0,
        "workload must produce matches"
    );
    // Crash each node in turn at injection indices spanning first event,
    // early, mid-chunk, and deep into the run (bounded by what the node
    // actually injects, so the crash is guaranteed to fire).
    for node in 0..3usize {
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        assert!(local > 2, "node {node} must inject events");
        let mut points = vec![0u64, 1, local / 3, (2 * local) / 3, local - 1];
        points.dedup();
        for crash_at in points {
            let config = ThreadedConfig {
                fault: Some(FaultPlan {
                    node,
                    crash_at,
                    restart_delay: Duration::ZERO,
                }),
                ..ThreadedConfig::default()
            };
            let faulted = run_threaded(&deployment, &events, &config);
            let ctx = format!("crash node {node} at injection {crash_at}");
            assert_eq!(
                faulted.metrics.recovery.crashes, 1,
                "{ctx}: crash must fire"
            );
            assert!(
                faulted.metrics.recovery.snapshots_taken > 0,
                "{ctx}: fault mode checkpoints each chunk"
            );
            assert_equal_outcomes(&faulted, &baseline, &ctx);
            assert_latency_invariant(&faulted, &ctx);
        }
    }
}

/// A crash rolls the node's metrics back to its last checkpoint and
/// replays from there. Telemetry is not rolled back, so it must not keep
/// counters of its own: with it attached, the report still carries exactly
/// the uninterrupted run's account.
#[test]
fn crash_with_telemetry_attached_keeps_one_account() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let observed = ThreadedConfig {
        telemetry: Some(TelemetrySpec::default()),
        ..ThreadedConfig::default()
    };
    let baseline = run_threaded(&deployment, &events, &observed);
    assert_eq!(baseline.metrics.events_injected as usize, events.len());
    for node in 0..3usize {
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let config = ThreadedConfig {
            fault: Some(FaultPlan {
                node,
                crash_at: local / 2,
                restart_delay: Duration::ZERO,
            }),
            ..observed.clone()
        };
        let faulted = run_threaded(&deployment, &events, &config);
        let ctx = format!("telemetry on, crash node {node} at injection {}", local / 2);
        assert_eq!(
            faulted.metrics.recovery.crashes, 1,
            "{ctx}: crash must fire"
        );
        assert!(faulted.telemetry.is_some(), "{ctx}: telemetry attached");
        assert_equal_outcomes(&faulted, &baseline, &ctx);
        assert_eq!(
            faulted.metrics.events_injected as usize,
            events.len(),
            "{ctx}: one injection per trace event"
        );
    }
}

#[test]
fn crash_with_downtime_still_converges() {
    // A nonzero restart delay keeps the node dark while peers keep
    // producing — senders must ride out the backpressure (bounded-backoff
    // retries) and the results must still converge.
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 41);
    let baseline = run_threaded(&deployment, &events, &ThreadedConfig::default());
    let config = ThreadedConfig {
        fault: Some(FaultPlan {
            node: 1,
            crash_at: 10,
            restart_delay: Duration::from_millis(2),
        }),
        ..ThreadedConfig::default()
    };
    let faulted = run_threaded(&deployment, &events, &config);
    assert_eq!(faulted.metrics.recovery.crashes, 1);
    assert!(
        faulted.metrics.recovery.recovery_ns >= 2_000_000,
        "recovery time includes the configured downtime"
    );
    assert_equal_outcomes(&faulted, &baseline, "crash with downtime");
    assert_latency_invariant(&faulted, "crash with downtime");
}

#[test]
fn crash_never_due_behaves_like_baseline() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let baseline = run_threaded(&deployment, &events, &ThreadedConfig::default());
    let config = ThreadedConfig {
        fault: Some(FaultPlan {
            node: 1,
            crash_at: u64::MAX,
            restart_delay: Duration::ZERO,
        }),
        ..ThreadedConfig::default()
    };
    let armed = run_threaded(&deployment, &events, &config);
    assert_eq!(armed.metrics.recovery.crashes, 0, "crash must not fire");
    assert_equal_outcomes(&armed, &baseline, "armed but never due");
}

#[test]
fn checkpoint_mode_emits_final_snapshot_and_preserves_results() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let baseline = run_threaded(&deployment, &events, &ThreadedConfig::default());
    let config = ThreadedConfig {
        checkpoint: true,
        ..ThreadedConfig::default()
    };
    let report = run_threaded(&deployment, &events, &config);
    assert_equal_outcomes(&report, &baseline, "checkpoint mode");
    assert!(report.metrics.recovery.snapshots_taken > 0);
    assert!(report.metrics.recovery.snapshot_bytes > 0);
    let snap = report.final_snapshot.as_deref().expect("final snapshot");
    let decoded = checkpoint::decode_for(&deployment, snap).expect("snapshot decodes");
    assert_eq!(decoded.plan, deployment.fingerprint());
    assert!(decoded.pending.is_empty(), "end-of-run snapshot quiescent");
}

#[test]
fn threaded_snapshot_resumes_in_simulator() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    // Matching store slack on both sides so eviction cannot differ across
    // the handoff (the threaded default is wider than the sim default).
    let sim_config = SimConfig {
        slack: 4.0,
        ..SimConfig::default()
    };
    let full = {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(&events);
        exec.finish()
    };
    let n = events.len();
    for split in [n / 4, n / 2, 3 * n / 4] {
        let config = ThreadedConfig {
            checkpoint: true,
            ..ThreadedConfig::default()
        };
        let prefix = run_threaded(&deployment, &events[..split], &config);
        let snap = prefix.final_snapshot.as_deref().expect("final snapshot");
        let mut resumed =
            checkpoint::restore(&deployment, sim_config.clone(), snap).expect("sim restores");
        resumed.process_trace(&events[split..]);
        let report = resumed.finish();
        for (q, (a, b)) in report.matches.iter().zip(&full.matches).enumerate() {
            assert_eq!(
                fingerprints(a),
                fingerprints(b),
                "split {split}: query {q} diverges"
            );
        }
        assert_eq!(
            report.metrics.sink_matches, full.metrics.sink_matches,
            "split {split}: sink_matches"
        );
        assert_eq!(
            report.metrics.events_injected, full.metrics.events_injected,
            "split {split}: events_injected"
        );
        assert_eq!(
            report.metrics.messages_sent, full.metrics.messages_sent,
            "split {split}: messages_sent"
        );
        assert_eq!(
            report.metrics.join.emitted, full.metrics.join.emitted,
            "split {split}: join.emitted"
        );
    }
}

#[test]
fn simulator_snapshot_resumes_in_threaded() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let sim_config = SimConfig {
        slack: 4.0,
        ..SimConfig::default()
    };
    let full = {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(&events);
        exec.finish()
    };
    let n = events.len();
    for split in [n / 4, n / 2, 3 * n / 4] {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(&events[..split]);
        let snap = checkpoint::snapshot(&exec).expect("sim snapshots");
        drop(exec);
        let report = run_threaded_resumed(
            &deployment,
            &events[split..],
            &ThreadedConfig::default(),
            &snap,
        )
        .expect("threaded resumes from sim snapshot");
        for (q, (a, b)) in report.matches.iter().zip(&full.matches).enumerate() {
            assert_eq!(
                fingerprints(a),
                fingerprints(b),
                "split {split}: query {q} diverges"
            );
        }
        assert_eq!(
            report.metrics.sink_matches, full.metrics.sink_matches,
            "split {split}: sink_matches"
        );
        assert_eq!(
            report.metrics.events_injected, full.metrics.events_injected,
            "split {split}: events_injected"
        );
        assert_eq!(
            report.metrics.messages_sent, full.metrics.messages_sent,
            "split {split}: messages_sent"
        );
        // Matches completed from grafted pre-split partials have no wall
        // injection record in the resumed run; the accounting must name
        // them instead of silently shrinking the sample set.
        assert_latency_invariant(&report, &format!("split {split}"));
    }
}

#[test]
fn resume_rejects_foreign_plan() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let other = deploy(
        Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]),
        5_000,
        &net,
    );
    let events = trace(&net, 23);
    let mut exec = SimExecutor::new(&deployment, SimConfig::default());
    exec.process_trace(&events[..events.len() / 2]);
    let snap = checkpoint::snapshot(&exec).expect("sim snapshots");
    match run_threaded_resumed(&other, &events, &ThreadedConfig::default(), &snap) {
        Err(CheckpointError::PlanMismatch {
            expected, found, ..
        }) => {
            assert_eq!(expected, other.fingerprint());
            assert_eq!(found, deployment.fingerprint());
        }
        Err(other) => panic!("wrong error: {other:?}"),
        Ok(_) => panic!("foreign plan must be rejected"),
    }
}

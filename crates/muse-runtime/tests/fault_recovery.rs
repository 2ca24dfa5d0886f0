//! Crash-recovery tests for the threaded executor (the paper's §7.3
//! Ambrosia-style fault tolerance): a node crash injected at an arbitrary
//! injection index must be invisible in the results — the recovered run
//! produces the same matches, each once, and the same deterministic
//! counters as the uninterrupted one — and snapshots round-trip between the
//! simulator and the threaded executor in both directions, each match
//! emitted once across the cut.

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
use muse_runtime::deploy::{Deployment, TaskKind};
use muse_runtime::matcher::Match;
use muse_runtime::metrics::Metrics;
use muse_runtime::sim::{SimConfig, SimExecutor};
use muse_runtime::telemetry::{TelemetrySpec, TraceRecord};
use muse_runtime::threaded::{
    run_threaded, run_threaded_resumed, FaultPlan, ThreadedConfig, ThreadedReport,
};
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
    scaled_trace(network, 0.05, seed)
}

fn scaled_trace(network: &Network, rate_scale: f64, seed: u64) -> Vec<Event> {
    muse_sim::traces::generate_traces(
        network,
        &muse_sim::traces::TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale,
            key_domain: 0,
            band_domain: 0,
            seed,
        },
    )
}

fn deploy(pattern: Pattern, window: Timestamp, network: &Network) -> Deployment {
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(network.num_types()),
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

/// A match list as a multiset: its sorted fingerprints, so that a match
/// emitted twice shows.
fn fingerprints(matches: &[Match]) -> Vec<Vec<u64>> {
    let mut prints: Vec<_> = matches.iter().map(Match::fingerprint).collect();
    prints.sort_unstable();
    prints
}

/// Per query, the matches a prefix run emitted before its snapshot
/// followed by those of the run resumed from it.
fn across_cut(prefix: &[Vec<Match>], resumed: &[Vec<Match>]) -> Vec<Vec<Match>> {
    let queries = prefix.iter().zip(resumed);
    queries.map(|(p, r)| [p.as_slice(), r].concat()).collect()
}

/// The default threaded configuration with the trace on, for the
/// rollback's `Recovered` records.
fn traced() -> ThreadedConfig {
    ThreadedConfig {
        telemetry: Some(TelemetrySpec {
            trace_capacity: 1 << 20,
            ..TelemetrySpec::default()
        }),
        ..ThreadedConfig::default()
    }
}

/// [`traced`] in 500-tick chunks, far shorter than the 3 000-tick traces,
/// so that a crash rolls back to a shard saved mid-run: the default chunk,
/// the smallest window, would cover the whole trace under the 5 000-tick
/// window. With the default slack 4, `slack · window ≥ chunk + window`.
fn chunked() -> ThreadedConfig {
    ThreadedConfig {
        chunk_ticks: Some(500),
        ..traced()
    }
}

/// Whether a crash rolled some node back to a shard saved after the first
/// chunk: one whose event cursor is past the node's first event.
fn restored_mid_run(report: &ThreadedReport) -> bool {
    let trace = &report.telemetry.as_ref().expect("telemetry").trace;
    assert_eq!(trace.dropped(), 0, "the trace keeps every record");
    (trace.records()).any(|r| matches!(r, TraceRecord::Recovered { cursor, .. } if *cursor > 0))
}

/// Deterministic counters that must be identical between a faulted and an
/// uninterrupted run, or between a run cut in two, merged, and an
/// uninterrupted one (order-dependent engine counters like join probes are
/// deliberately excluded — the re-run changes interleaving, not results).
fn assert_same_counters(a: &Metrics, b: &Metrics, ctx: &str) {
    let counters = |m: &Metrics| {
        [
            ("events_injected", m.events_injected),
            ("messages_sent", m.messages_sent),
            ("bytes_sent", m.bytes_sent),
            ("local_deliveries", m.local_deliveries),
            ("sink_matches", m.sink_matches),
            ("join.emitted", m.join.emitted),
        ]
    };
    for ((name, va), (_, vb)) in counters(a).into_iter().zip(counters(b)) {
        assert_eq!(va, vb, "{ctx}: {name}");
    }
}

/// The prefix run's metrics merged with the resumed run's: the account of
/// the whole trace, since a resumed report counts only its own work.
fn merged(prefix: &Metrics, resumed: &Metrics) -> Metrics {
    let mut merged = prefix.clone();
    merged.merge(resumed);
    merged
}

/// The same matches, each as often, and the same deterministic counters.
fn assert_equal_outcomes(a: &ThreadedReport, b: &ThreadedReport, ctx: &str) {
    for (q, (ma, mb)) in a.matches.iter().zip(&b.matches).enumerate() {
        assert_eq!(
            fingerprints(ma),
            fingerprints(mb),
            "{ctx}: query {q} match sets diverge"
        );
    }
    assert_same_counters(&a.metrics, &b.metrics, ctx);
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
    let baseline = run_threaded(&deployment, &events, &chunked());
    assert!(
        baseline.metrics.sink_matches > 0,
        "workload must produce matches"
    );
    // Crash each node in turn at injection indices spanning first event,
    // early, mid-chunk, and deep into the run (bounded by what the node
    // actually injects, so the crash is guaranteed to fire). Per-message
    // frames on one-frame channels add crashes while senders are blocked
    // and barrier waiters steal.
    let tight = ThreadedConfig {
        batch: 1,
        capacity: 1,
        ..chunked()
    };
    let mut mid_run = 0;
    for transport in [chunked(), tight] {
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
                    ..transport.clone()
                };
                let faulted = run_threaded(&deployment, &events, &config);
                let ctx = format!(
                    "batch {}, capacity {}: crash node {node} at injection {crash_at}",
                    transport.batch, transport.capacity
                );
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
                mid_run += usize::from(restored_mid_run(&faulted));
            }
        }
    }
    assert!(mid_run > 0, "no crash restored a shard saved mid-run");
}

/// A crash rewinds every node's metrics to the mark taken with its last
/// checkpoint and re-runs the chunk from there. Telemetry is not rolled back, so it must not keep
/// counters of its own: with it attached, the report still carries exactly
/// the uninterrupted run's account.
#[test]
fn crash_with_telemetry_attached_keeps_one_account() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 23);
    let observed = chunked();
    let baseline = run_threaded(&deployment, &events, &observed);
    assert_eq!(baseline.metrics.events_injected as usize, events.len());
    let mut mid_run = 0;
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
        mid_run += usize::from(restored_mid_run(&faulted));
    }
    assert!(mid_run > 0, "no crash restored a shard saved mid-run");
}

#[test]
fn crash_with_downtime_still_converges() {
    // A nonzero restart delay keeps the node dark while peers keep
    // producing — senders must ride out the backpressure (bounded-backoff
    // retries) and the results must still converge.
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 13);
    let baseline = run_threaded(&deployment, &events, &chunked());
    assert!(
        !baseline.matches[0].is_empty(),
        "workload must produce matches"
    );
    let local = events.iter().filter(|e| e.origin.index() == 1).count() as u64;
    let config = ThreadedConfig {
        fault: Some(FaultPlan {
            node: 1,
            crash_at: local / 2,
            restart_delay: Duration::from_millis(2),
        }),
        ..chunked()
    };
    let faulted = run_threaded(&deployment, &events, &config);
    assert_eq!(faulted.metrics.recovery.crashes, 1);
    assert!(
        restored_mid_run(&faulted),
        "the crash restores a mid-run shard"
    );
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
        let matches = across_cut(&prefix.matches, &report.matches);
        for (q, (a, b)) in matches.iter().zip(&full.matches).enumerate() {
            assert_eq!(
                fingerprints(a),
                fingerprints(b),
                "split {split}: query {q} diverges"
            );
        }
        let whole = merged(&prefix.metrics, &report.metrics);
        assert_same_counters(&whole, &full.metrics, &format!("split {split}"));
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
        let snap = checkpoint::encode(&exec.to_snapshot());
        let prefix = exec.finish();
        let report = run_threaded_resumed(
            &deployment,
            &events[split..],
            &ThreadedConfig::default(),
            &snap,
        )
        .expect("threaded resumes from sim snapshot");
        let matches = across_cut(&prefix.matches, &report.matches);
        for (q, (a, b)) in matches.iter().zip(&full.matches).enumerate() {
            assert_eq!(
                fingerprints(a),
                fingerprints(b),
                "split {split}: query {q} diverges"
            );
        }
        let whole = merged(&prefix.metrics, &report.metrics);
        assert_same_counters(&whole, &full.metrics, &format!("split {split}"));
        // Matches completed from grafted pre-split partials have no wall
        // injection record in the resumed run; the accounting must name
        // them instead of silently shrinking the sample set.
        assert_latency_invariant(&report, &format!("split {split}"));
    }
}

/// A snapshot holds no output and no counter, so each match is emitted
/// and counted exactly once across a cut: the prefix run's matches
/// followed by the resumed run's are the uninterrupted run's as a
/// multiset, and the prefix run's metrics merged with the resumed run's
/// are its counters, for every pair of executors. A resumed report that
/// repeated the prefix's matches would hold some twice, and one that
/// continued its counters would count them twice.
#[test]
fn each_match_is_emitted_once_across_a_cut() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 1);
    let sim_config = SimConfig {
        slack: 4.0,
        ..SimConfig::default()
    };
    let config = ThreadedConfig {
        checkpoint: true,
        ..ThreadedConfig::default()
    };
    let full = run_threaded(&deployment, &events, &ThreadedConfig::default());
    let (head, tail) = events.split_at(events.len() / 2);
    let spans_the_cut = |m: &Match| m.first_time() < tail[0].time && m.last_time() >= tail[0].time;
    assert!(
        full.matches[0].iter().any(spans_the_cut),
        "a match spans the cut"
    );

    // The prefix runs: their matches, their metrics and their snapshot.
    let sim_prefix = {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(head);
        let snap = checkpoint::encode(&exec.to_snapshot());
        let report = exec.finish();
        (report.matches, report.metrics, snap)
    };
    let threaded_prefix = {
        let report = run_threaded(&deployment, head, &config);
        let snap = report.final_snapshot.expect("checkpoint mode");
        (report.matches, report.metrics, snap)
    };
    for (from, (prefix, metrics, snap)) in [("sim", &sim_prefix), ("threaded", &threaded_prefix)] {
        assert!(!prefix[0].is_empty(), "{from}: the head matches");
        let in_sim = {
            let mut exec = checkpoint::restore(&deployment, sim_config.clone(), snap)
                .expect("the simulator restores");
            exec.process_trace(tail);
            exec.finish()
        };
        let in_threaded =
            run_threaded_resumed(&deployment, tail, &config, snap).expect("threaded resumes");
        assert_latency_invariant(&in_threaded, &format!("{from} to threaded"));
        let resumed_runs = [
            ("sim", &in_sim.matches, &in_sim.metrics),
            ("threaded", &in_threaded.matches, &in_threaded.metrics),
        ];
        for (to, resumed, resumed_metrics) in resumed_runs {
            assert!(!resumed[0].is_empty(), "{from} to {to}: the tail matches");
            assert_eq!(
                fingerprints(&across_cut(prefix, resumed)[0]),
                fingerprints(&full.matches[0]),
                "{from} to {to}"
            );
            let whole = merged(metrics, resumed_metrics);
            assert_same_counters(&whole, &full.metrics, &format!("{from} to {to}"));
        }
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
    let snap = checkpoint::encode(&exec.to_snapshot());
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

/// `SEQ(NSEQ(t0, t1, t2), t3)` with rare t0–t2 at nodes 0 and 1 and a
/// frequent t3 at nodes 2 and 3: aMuSE checks the negation once, at node
/// 0, and ships its `{t0, t2}` matches to a sink at each t3 node, which
/// reads them on a `{t0, t1, t2}` slot.
fn nested_nseq() -> (Network, Deployment) {
    let net = NetworkBuilder::new(4, 4)
        .node(n(0), [t(0), t(1), t(2)])
        .node(n(1), [t(0), t(1), t(2)])
        .node(n(2), [t(3)])
        .node(n(3), [t(3)])
        .rate(t(0), 1.0)
        .rate(t(1), 1.0)
        .rate(t(2), 1.0)
        .rate(t(3), 100.0)
        .build();
    let [a, b, c, d] = [0, 1, 2, 3].map(|i| Pattern::leaf(t(i)));
    let deployment = deploy(Pattern::seq([Pattern::nseq(a, b, c), d]), 100, &net);
    (net, deployment)
}

/// The `(task, slot)` of every sink slot that reads a whole `NSEQ`
/// context: its matches carry fewer primitives than the slot names.
fn context_slots(deployment: &Deployment) -> Vec<(usize, usize)> {
    let query = &deployment.queries[0];
    let mut found = Vec::new();
    for (task, spec) in deployment.tasks.iter().enumerate() {
        if let (true, TaskKind::Join { slots }) = (spec.is_sink, &spec.kind) {
            for (slot, prims) in slots.iter().enumerate() {
                if !prims.intersect(query.negated_prims()).is_empty() && prims.len() > 1 {
                    found.push((task, slot));
                }
            }
        }
    }
    found
}

#[test]
fn nseq_context_slots_survive_save_and_restore_in_both_executors() {
    let (net, deployment) = nested_nseq();
    let slots = context_slots(&deployment);
    assert!(!slots.is_empty(), "a sink reads an NSEQ context slot");
    let events = scaled_trace(&net, 1.0, 7);
    let sim_config = SimConfig::default();
    let full = {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(&events);
        exec.finish()
    };
    assert!(
        full.metrics.sink_matches > 0,
        "workload must produce matches"
    );

    // Simulator: snapshot mid-run with context matches buffered, restore,
    // run the rest.
    let n = events.len();
    for split in [n / 4, n / 2, 3 * n / 4] {
        let mut exec = SimExecutor::new(&deployment, sim_config.clone());
        exec.process_trace(&events[..split]);
        let snap = checkpoint::encode(&exec.to_snapshot());
        let prefix = exec.finish();
        let decoded = checkpoint::decode_for(&deployment, &snap).expect("snapshot decodes");
        assert!(
            slots.iter().any(|&(task, slot)| {
                let join = decoded.tasks[task].as_ref().expect("sink state");
                !join.stores[slot].matches.is_empty()
            }),
            "split {split}: a sink buffers context matches"
        );
        let mut resumed =
            checkpoint::restore(&deployment, sim_config.clone(), &snap).expect("sim restores");
        resumed.process_trace(&events[split..]);
        let report = resumed.finish();
        assert_eq!(
            fingerprints(&across_cut(&prefix.matches, &report.matches)[0]),
            fingerprints(&full.matches[0]),
            "split {split}: matches diverge"
        );
        let whole = merged(&prefix.metrics, &report.metrics);
        assert_same_counters(&whole, &full.metrics, &format!("split {split}"));
    }

    // Threaded: a crash of a sink's node restores its chunk-start shard,
    // one of the window-long default chunks.
    let baseline = run_threaded(&deployment, &events, &traced());
    assert_eq!(
        fingerprints(&baseline.matches[0]),
        fingerprints(&full.matches[0]),
        "threaded and simulated runs agree"
    );
    for node in [2usize, 3] {
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let config = ThreadedConfig {
            fault: Some(FaultPlan {
                node,
                crash_at: local / 2,
                restart_delay: Duration::ZERO,
            }),
            ..traced()
        };
        let faulted = run_threaded(&deployment, &events, &config);
        let ctx = format!("crash node {node} at injection {}", local / 2);
        assert_eq!(
            faulted.metrics.recovery.crashes, 1,
            "{ctx}: crash must fire"
        );
        assert_equal_outcomes(&faulted, &baseline, &ctx);
        assert!(
            restored_mid_run(&faulted),
            "{ctx}: restores a mid-run shard"
        );
    }
}

/// The driver's steps in an uncapped trace, counted exactly. Without a
/// crash, every frame is recorded once by its sender and once by its
/// receiver, and every chunk-start checkpoint once. A crash on any node is
/// recorded once, on that node, and every node's rollback follows it: one
/// `RecoveryStarted`, then one `Recovered`, per node.
#[test]
fn crash_timeline_records_every_rollback() {
    let net = network();
    let deployment = deploy(fig1_pattern(), 5_000, &net);
    let events = trace(&net, 7);
    let config = ThreadedConfig {
        checkpoint: true,
        telemetry: Some(TelemetrySpec {
            trace_capacity: usize::MAX,
            ..TelemetrySpec::default()
        }),
        ..chunked()
    };
    let records = |report: &ThreadedReport| -> Vec<TraceRecord> {
        let trace = &report.telemetry.as_ref().expect("telemetry").trace;
        assert_eq!(trace.dropped(), 0, "the trace is uncapped");
        trace.records().cloned().collect()
    };

    let plain = run_threaded(&deployment, &events, &config);
    let trace = records(&plain);
    let count = |kind: fn(&TraceRecord) -> bool| trace.iter().filter(|r| kind(r)).count() as u64;
    let frames = plain.metrics.transport.frames_sent;
    assert!(frames > 0, "the plan ships matches");
    assert_eq!(
        count(|r| matches!(r, TraceRecord::FrameSent { .. })),
        frames
    );
    assert_eq!(
        count(|r| matches!(r, TraceRecord::FrameReceived { .. })),
        frames
    );
    assert_eq!(
        count(|r| matches!(r, TraceRecord::Checkpoint { .. })),
        plain.metrics.recovery.snapshots_taken
    );
    assert_eq!(
        count(|r| matches!(
            r,
            TraceRecord::Crash { .. }
                | TraceRecord::RecoveryStarted { .. }
                | TraceRecord::Recovered { .. }
        )),
        0
    );

    for node in 0..3usize {
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let faulted = run_threaded(
            &deployment,
            &events,
            &ThreadedConfig {
                fault: Some(FaultPlan {
                    node,
                    crash_at: local / 2,
                    restart_delay: Duration::ZERO,
                }),
                ..config.clone()
            },
        );
        assert_eq!(faulted.metrics.recovery.crashes, 1, "crash on node {node}");
        assert!(
            restored_mid_run(&faulted),
            "crash on node {node}: mid-run shard"
        );
        let trace = records(&faulted);
        let crashes: Vec<(usize, u64)> = trace
            .iter()
            .filter_map(|r| match *r {
                TraceRecord::Crash { t, node, .. } => Some((node, t)),
                _ => None,
            })
            .collect();
        let [(crashed, crash_t)] = crashes[..] else {
            panic!("crash on node {node}: one crash record, got {crashes:?}");
        };
        assert_eq!(crashed, node);
        for at in 0..3usize {
            let steps: Vec<(&str, u64)> = trace
                .iter()
                .filter_map(|r| match *r {
                    TraceRecord::RecoveryStarted { t, node } if node == at => Some(("started", t)),
                    TraceRecord::Recovered { t, node, .. } if node == at => Some(("recovered", t)),
                    _ => None,
                })
                .collect();
            let kinds: Vec<&str> = steps.iter().map(|&(kind, _)| kind).collect();
            assert_eq!(
                kinds,
                ["started", "recovered"],
                "crash on node {node}: rollback of node {at}"
            );
            assert!(
                steps.iter().all(|&(_, t)| t >= crash_t),
                "crash on node {node}: node {at} rolled back before the crash"
            );
        }
    }
}

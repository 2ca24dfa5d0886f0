//! Failure-injection tests for the resilience layer (the Ambrosia stand-in,
//! §7.3 of the paper): crashes at arbitrary points of a run, recovery from
//! the last snapshot, and exactly-once results. A snapshot holds no output,
//! so the run's matches are those each executor emitted before it crashed
//! (up to its snapshot) followed by those of the executor restored from
//! it, and every test compares them with the uninterrupted run as a
//! multiset.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::graph::PlanContext;
use muse_core::prelude::*;
use muse_runtime::checkpoint::{decode_for, encode};
use muse_runtime::sim::{run_simulation, SimConfig, SimExecutor};
use muse_runtime::Deployment;
use muse_runtime::Match;
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_sim::workload_gen::{generate_workload, WorkloadConfig};

struct Instance {
    network: Network,
    query: Query,
    events: Vec<muse_core::event::Event>,
}

fn instance(seed: u64) -> Instance {
    let network = generate_network(&NetworkConfig {
        nodes: 5,
        types: 5,
        event_node_ratio: 0.6,
        rate_skew: 1.3,
        max_rate: 500,
        seed,
    });
    let workload = generate_workload(&WorkloadConfig {
        queries: 1,
        prims_per_query: 3,
        types: 5,
        selectivity_min: 0.5,
        selectivity_max: 0.5,
        window: 3_000,
        seed,
        ..Default::default()
    });
    let events = generate_traces(
        &network,
        &TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale: 5.0 / 500.0,
            key_domain: 2,
            band_domain: 0,
            seed,
        },
    );
    Instance {
        network,
        query: workload.queries()[0].clone(),
        events,
    }
}

/// The matches of consecutive runs of one query, as a multiset: sorted
/// fingerprints, so a match emitted by two of the runs shows.
fn fingerprints(runs: &[&[Match]]) -> Vec<Vec<u64>> {
    let mut prints: Vec<_> = runs.concat().iter().map(Match::fingerprint).collect();
    prints.sort_unstable();
    prints
}

fn deploy(inst: &Instance) -> Deployment {
    let plan = amuse(&inst.query, &inst.network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(
        std::slice::from_ref(&inst.query),
        &inst.network,
        &plan.table,
    );
    Deployment::new(&plan.graph, &ctx)
}

/// A simulator resumed from `bytes`, a snapshot taken under `deployment`.
fn resume<'a>(deployment: &'a Deployment, bytes: &[u8]) -> SimExecutor<'a> {
    let snap = decode_for(deployment, bytes).unwrap();
    SimExecutor::from_snapshot(deployment, SimConfig::default(), snap).unwrap()
}

/// Crashing and recovering at *every possible* chunk boundary produces the
/// same results as the uninterrupted run.
#[test]
fn recovery_at_any_boundary_is_lossless() {
    let inst = instance(5);
    let deployment = deploy(&inst);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());
    assert!(!baseline.matches[0].is_empty(), "the trace matches");

    let n = inst.events.len();
    for split in [1, n / 4, n / 2, 3 * n / 4, n - 1] {
        let mut first = SimExecutor::new(&deployment, SimConfig::default());
        first.process_trace(&inst.events[..split]);
        let bytes = encode(&first.to_snapshot());
        let before = first.finish(); // the crash
        let mut resumed = resume(&deployment, &bytes);
        resumed.process_trace(&inst.events[split..]);
        let report = resumed.finish();
        assert_eq!(
            fingerprints(&[&before.matches[0], &report.matches[0]]),
            fingerprints(&[&baseline.matches[0]]),
            "split at {split}"
        );
        let mut merged = before.metrics;
        merged.merge(&report.metrics);
        assert_eq!(merged, baseline.metrics, "split at {split}");
    }
}

/// Chained recovery: crash, recover, crash again, recover again. Each of
/// the three runs emits matches.
#[test]
fn repeated_crashes_compose() {
    let inst = instance(33);
    let deployment = deploy(&inst);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());

    let n = inst.events.len();
    let (a, b) = (n / 3, 2 * n / 3);
    let mut exec = SimExecutor::new(&deployment, SimConfig::default());
    exec.process_trace(&inst.events[..a]);
    let snap1 = encode(&exec.to_snapshot());
    let first = exec.finish();
    let mut exec = resume(&deployment, &snap1);
    exec.process_trace(&inst.events[a..b]);
    let snap2 = encode(&exec.to_snapshot());
    let second = exec.finish();
    let mut exec = resume(&deployment, &snap2);
    exec.process_trace(&inst.events[b..]);
    let third = exec.finish();
    let runs = [&first, &second, &third].map(|run| &run.matches[0][..]);
    assert!(runs.iter().all(|m| !m.is_empty()), "every run matches");
    assert_eq!(fingerprints(&runs), fingerprints(&[&baseline.matches[0]]));
}

/// Replaying the suffix after restoring an *older* snapshot also converges
/// to the same results: what the crashed run emitted after that snapshot
/// is lost with it, and the replay emits it again, once.
#[test]
fn older_snapshot_replay_converges() {
    let inst = instance(35);
    let deployment = deploy(&inst);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());

    let n = inst.events.len();
    let mut exec = SimExecutor::new(&deployment, SimConfig::default());
    exec.process_trace(&inst.events[..n / 4]);
    let early_snap = encode(&exec.to_snapshot());
    let before_snap = exec.matches()[0].clone();
    // Keep running past the snapshot point, then "crash".
    exec.process_trace(&inst.events[n / 4..n / 2]);
    let lost = exec.matches()[0].len() - before_snap.len();
    drop(exec);
    // Recover from the older snapshot and replay everything after it.
    let mut exec = resume(&deployment, &early_snap);
    exec.process_trace(&inst.events[n / 4..]);
    let report = exec.finish();
    assert!(
        !before_snap.is_empty(),
        "the run matches before the snapshot"
    );
    assert!(lost > 0, "and between the snapshot and the crash");
    assert!(report.matches[0].len() > lost, "and after the crash");
    assert_eq!(
        fingerprints(&[&before_snap, &report.matches[0]]),
        fingerprints(&[&baseline.matches[0]])
    );
}

/// Snapshots are self-contained: deserializing into a fresh deployment
/// built from the same plan works.
#[test]
fn snapshot_portable_across_deployments() {
    let inst = instance(21);
    let deployment_a = deploy(&inst);
    let deployment_b = deploy(&inst);

    let mut exec = SimExecutor::new(&deployment_a, SimConfig::default());
    exec.process_trace(&inst.events[..inst.events.len() / 2]);
    let snap = encode(&exec.to_snapshot());
    let before = exec.finish();

    let mut resumed = resume(&deployment_b, &snap);
    resumed.process_trace(&inst.events[inst.events.len() / 2..]);
    let report = resumed.finish();
    let baseline = run_simulation(&deployment_a, &inst.events, &SimConfig::default());
    assert!(!before.matches[0].is_empty() && !report.matches[0].is_empty());
    assert_eq!(
        fingerprints(&[&before.matches[0], &report.matches[0]]),
        fingerprints(&[&baseline.matches[0]])
    );
}

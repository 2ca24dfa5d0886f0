//! Failure-injection tests for the resilience layer (the Ambrosia stand-in,
//! §7.3 of the paper): crashes at arbitrary points of a run, recovery from
//! the last snapshot, and exactly-once results.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::graph::PlanContext;
use muse_core::prelude::*;
use muse_runtime::checkpoint::{encode, restore};
use muse_runtime::sim::{run_simulation, SimConfig, SimExecutor};
use muse_runtime::Deployment;
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_sim::workload_gen::{generate_workload, WorkloadConfig};
use std::collections::BTreeSet;

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

fn fingerprints(ms: &[muse_runtime::Match]) -> BTreeSet<Vec<u64>> {
    ms.iter().map(|m| m.fingerprint()).collect()
}

/// Crashing and recovering at *every possible* chunk boundary produces the
/// same results as the uninterrupted run.
#[test]
fn recovery_at_any_boundary_is_lossless() {
    let inst = instance(5);
    let plan = amuse(&inst.query, &inst.network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(
        std::slice::from_ref(&inst.query),
        &inst.network,
        &plan.table,
    );
    let deployment = Deployment::new(&plan.graph, &ctx);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());

    let n = inst.events.len();
    for split in [1, n / 4, n / 2, 3 * n / 4, n - 1] {
        let mut first = SimExecutor::new(&deployment, SimConfig::default());
        first.process_trace(&inst.events[..split]);
        let bytes = encode(&first.to_snapshot());
        drop(first); // the crash
        let mut resumed = restore(&deployment, SimConfig::default(), &bytes).unwrap();
        resumed.process_trace(&inst.events[split..]);
        let report = resumed.finish();
        assert_eq!(
            fingerprints(&report.matches[0]),
            fingerprints(&baseline.matches[0]),
            "split at {split}"
        );
        assert_eq!(
            report.metrics.messages_sent, baseline.metrics.messages_sent,
            "split at {split}"
        );
    }
}

/// Chained recovery: crash, recover, crash again, recover again.
#[test]
fn repeated_crashes_compose() {
    let inst = instance(9);
    let plan = amuse(&inst.query, &inst.network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(
        std::slice::from_ref(&inst.query),
        &inst.network,
        &plan.table,
    );
    let deployment = Deployment::new(&plan.graph, &ctx);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());

    let n = inst.events.len();
    let (a, b) = (n / 3, 2 * n / 3);
    let mut exec = SimExecutor::new(&deployment, SimConfig::default());
    exec.process_trace(&inst.events[..a]);
    let snap1 = encode(&exec.to_snapshot());
    drop(exec);
    let mut exec = restore(&deployment, SimConfig::default(), &snap1).unwrap();
    exec.process_trace(&inst.events[a..b]);
    let snap2 = encode(&exec.to_snapshot());
    drop(exec);
    let mut exec = restore(&deployment, SimConfig::default(), &snap2).unwrap();
    exec.process_trace(&inst.events[b..]);
    let report = exec.finish();
    assert_eq!(
        fingerprints(&report.matches[0]),
        fingerprints(&baseline.matches[0])
    );
}

/// Replaying the suffix after restoring an *older* snapshot also converges
/// to the same results (reprocessing from the snapshot is idempotent with
/// respect to the final match set).
#[test]
fn older_snapshot_replay_converges() {
    let inst = instance(13);
    let plan = amuse(&inst.query, &inst.network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(
        std::slice::from_ref(&inst.query),
        &inst.network,
        &plan.table,
    );
    let deployment = Deployment::new(&plan.graph, &ctx);
    let baseline = run_simulation(&deployment, &inst.events, &SimConfig::default());

    let n = inst.events.len();
    let mut exec = SimExecutor::new(&deployment, SimConfig::default());
    exec.process_trace(&inst.events[..n / 4]);
    let early_snap = encode(&exec.to_snapshot());
    // Keep running past the snapshot point, then "crash".
    exec.process_trace(&inst.events[n / 4..n / 2]);
    drop(exec);
    // Recover from the older snapshot and replay everything after it.
    let mut exec = restore(&deployment, SimConfig::default(), &early_snap).unwrap();
    exec.process_trace(&inst.events[n / 4..]);
    let report = exec.finish();
    assert_eq!(
        fingerprints(&report.matches[0]),
        fingerprints(&baseline.matches[0])
    );
}

/// Snapshots are self-contained: deserializing into a fresh deployment
/// built from the same plan works.
#[test]
fn snapshot_portable_across_deployments() {
    let inst = instance(21);
    let plan = amuse(&inst.query, &inst.network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(
        std::slice::from_ref(&inst.query),
        &inst.network,
        &plan.table,
    );
    let deployment_a = Deployment::new(&plan.graph, &ctx);
    let deployment_b = Deployment::new(&plan.graph, &ctx);

    let mut exec = SimExecutor::new(&deployment_a, SimConfig::default());
    exec.process_trace(&inst.events[..inst.events.len() / 2]);
    let snap = encode(&exec.to_snapshot());
    drop(exec);

    let mut resumed = restore(&deployment_b, SimConfig::default(), &snap).unwrap();
    resumed.process_trace(&inst.events[inst.events.len() / 2..]);
    let report = resumed.finish();
    let baseline = run_simulation(&deployment_a, &inst.events, &SimConfig::default());
    assert_eq!(
        fingerprints(&report.matches[0]),
        fingerprints(&baseline.matches[0])
    );
}

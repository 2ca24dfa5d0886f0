//! Cross-crate integration tests: generate → plan → validate → execute →
//! verify, over randomized instances.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::algorithms::baselines::{
    centralized_cost, optimal_operator_placement, optimal_operator_placement_workload,
    placement_to_graph,
};
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::graph::PlanContext;
use muse_core::prelude::*;
use muse_runtime::matcher::{Evaluator, Match};
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::Deployment;
use muse_sim::cluster_trace::{
    generate_cluster_trace, query1_source, query2_source, ClusterTraceConfig,
};
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::stats_est::{rates_per_window, PairSelectivities};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_sim::workload_gen::{
    generate_family_workload, generate_workload, FamilyWorkloadConfig, WorkloadConfig,
};
use std::collections::BTreeSet;

fn small_network(seed: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 6,
        types: 6,
        event_node_ratio: 0.6,
        rate_skew: 1.4,
        max_rate: 1_000,
        seed,
    }
}

fn small_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        queries: 3,
        prims_per_query: 3,
        types: 6,
        window: 3_000,
        seed,
        ..Default::default()
    }
}

/// Every generated instance yields correct plans whose costs order as the
/// paper's evaluation reports: aMuSE ≤ aMuSE* and aMuSE below centralized.
#[test]
fn plans_are_correct_and_ordered_across_seeds() {
    for seed in 0..5 {
        let network = generate_network(&small_network(seed));
        let workload = generate_workload(&small_workload(seed));
        let central = centralized_cost(workload.queries(), &network);
        let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
        let star = amuse_workload(&workload, &network, &AMuseConfig::star()).unwrap();
        let oop = optimal_operator_placement_workload(workload.queries(), &network);
        // aMuSE explores a superset of aMuSE*'s projections; with the
        // bounded combination enumeration the two can diverge slightly in
        // either direction, but aMuSE must stay in the same ballpark.
        assert!(
            plan.total_cost <= star.total_cost * 1.25 + 1e-6,
            "seed {seed}: amuse {} star {}",
            plan.total_cost,
            star.total_cost
        );
        assert!(plan.total_cost <= central * 1.001, "seed {seed}");
        assert!(
            oop <= central * 1.5,
            "seed {seed}: oop {oop} central {central}"
        );
        // Per-query graphs are correct MuSE graphs.
        for (i, g) in plan.graphs.iter().enumerate() {
            let q = &workload.queries()[i..=i];
            let ctx = PlanContext::new(q, &network, &plan.table);
            g.check_correct(&ctx, 1_000_000)
                .unwrap_or_else(|e| panic!("seed {seed} query {i}: {e}"));
        }
    }
}

/// Distributed execution of aMuSE plans produces exactly the centralized
/// ground-truth match sets on random instances (with payload keys driving
/// real predicate evaluation).
#[test]
fn distributed_execution_matches_ground_truth() {
    for seed in 0..3 {
        let network = generate_network(&small_network(seed + 100));
        let workload = generate_workload(&WorkloadConfig {
            queries: 2,
            prims_per_query: 3,
            types: 6,
            // Selectivity 0.5 so traces with key domain 2 produce matches.
            selectivity_min: 0.5,
            selectivity_max: 0.5,
            window: 3_000,
            seed: seed + 100,
            ..Default::default()
        });
        let events = generate_traces(
            &network,
            &TraceConfig {
                duration: 30.0,
                ticks_per_unit: 100.0,
                rate_scale: 3.0 / 1_000.0,
                key_domain: 2,
                band_domain: 0,
                seed,
            },
        );
        let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
        let deployment = Deployment::new(&plan.merged, &ctx);
        let report = run_simulation(&deployment, &events, &SimConfig::default());
        for (i, q) in workload.queries().iter().enumerate() {
            let truth: BTreeSet<Vec<u64>> = Evaluator::for_query(q)
                .run(&events)
                .iter()
                .map(|m| m.fingerprint())
                .collect();
            let got: BTreeSet<Vec<u64>> =
                report.matches[i].iter().map(|m| m.fingerprint()).collect();
            assert_eq!(got, truth, "seed {seed} query {i}");
        }
    }
}

/// The oOP plan, converted to a MuSE graph and executed on the same
/// engine, produces the same matches as the aMuSE plan but ships more.
#[test]
fn oop_and_amuse_agree_on_matches() {
    let network = generate_network(&small_network(7));
    let workload = generate_workload(&WorkloadConfig {
        queries: 1,
        prims_per_query: 3,
        types: 6,
        selectivity_min: 0.5,
        selectivity_max: 0.5,
        window: 3_000,
        seed: 7,
        ..Default::default()
    });
    let query = &workload.queries()[0];
    let events = generate_traces(
        &network,
        &TraceConfig {
            duration: 40.0,
            ticks_per_unit: 100.0,
            rate_scale: 3.0 / 1_000.0,
            key_domain: 2,
            band_domain: 0,
            seed: 7,
        },
    );

    let plan = amuse(query, &network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(std::slice::from_ref(query), &network, &plan.table);
    let ms = run_simulation(
        &Deployment::new(&plan.graph, &ctx),
        &events,
        &SimConfig::default(),
    );

    let placement = optimal_operator_placement(query, &network);
    let mut table = ProjectionTable::new();
    let graph = placement_to_graph(query, &placement, &network, &mut table).unwrap();
    let ctx = PlanContext::new(std::slice::from_ref(query), &network, &table);
    let op = run_simulation(
        &Deployment::new(&graph, &ctx),
        &events,
        &SimConfig::default(),
    );

    let ms_set: BTreeSet<Vec<u64>> = ms.matches[0].iter().map(|m| m.fingerprint()).collect();
    let op_set: BTreeSet<Vec<u64>> = op.matches[0].iter().map(|m| m.fingerprint()).collect();
    assert_eq!(ms_set, op_set);
}

/// NSEQ queries work end-to-end through the full pipeline, with the
/// negation guard streams distributed across nodes: the simulator and the
/// threaded executor both reproduce the centralized evaluator's match set.
/// Two cases — a primitive guard on a generated network, and a composite
/// guard `SEQ(B, D)` whose primitives are produced at different nodes, so
/// the threaded executor's join sees the two guard streams in arbitrary
/// relative order.
#[test]
fn nseq_pipeline_end_to_end() {
    let fingerprints = |ms: &[muse_runtime::Match]| -> BTreeSet<Vec<u64>> {
        ms.iter().map(|m| m.fingerprint()).collect()
    };
    let check = |label: &str, network: &Network, query: &Query, events: &[Event]| {
        let plan = amuse(query, network, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(query), network, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let truth = fingerprints(&Evaluator::for_query(query).run(events));
        let sim = run_simulation(&deployment, events, &SimConfig::default());
        assert_eq!(fingerprints(&sim.matches[0]), truth, "{label}: simulator");
        let threaded = muse_runtime::run_threaded(
            &deployment,
            events,
            &muse_runtime::ThreadedConfig::default(),
        );
        assert_eq!(
            fingerprints(&threaded.matches[0]),
            truth,
            "{label}: threaded"
        );
        truth.len()
    };
    let trace = |network: &Network, duration: f64, ticks_per_unit: f64, rate_scale: f64, seed| {
        generate_traces(
            network,
            &TraceConfig {
                duration,
                ticks_per_unit,
                rate_scale,
                key_domain: 0,
                band_domain: 0,
                seed,
            },
        )
    };

    let [a, b, c, d] = [0, 1, 2, 3].map(EventTypeId);
    let network = generate_network(&small_network(3));
    let primitive = Pattern::nseq(Pattern::leaf(a), Pattern::leaf(b), Pattern::leaf(c));
    let query = Query::build(QueryId(0), &primitive, vec![], 3_000).unwrap();
    let events = trace(&network, 40.0, 100.0, 3.0 / 1_000.0, 3);
    check("primitive guard", &network, &query, &events);

    let network = NetworkBuilder::new(4, 4)
        .node(NodeId(0), [a])
        .node(NodeId(1), [b])
        .node(NodeId(2), [d])
        .node(NodeId(3), [c])
        .rate(a, 2.0)
        .rate(b, 20.0)
        .rate(d, 20.0)
        .rate(c, 2.0)
        .build();
    let composite = Pattern::nseq(
        Pattern::leaf(a),
        Pattern::seq([Pattern::leaf(b), Pattern::leaf(d)]),
        Pattern::leaf(c),
    );
    let query = Query::build(QueryId(0), &composite, vec![], 400).unwrap();
    let mut matched = 0;
    for seed in 0..24 {
        let events = trace(&network, 3.0, 1_000.0, 1.0, seed);
        matched += check(
            &format!("composite guard, seed {seed}"),
            &network,
            &query,
            &events,
        );
    }
    assert!(
        matched > 0,
        "the composite-guard traces must produce matches"
    );
}

/// A whole workload's merged deployment runs on the threaded executor and
/// produces the same matches as the deterministic simulator.
#[test]
fn workload_threaded_equals_simulator() {
    let network = generate_network(&small_network(55));
    let workload = generate_workload(&WorkloadConfig {
        queries: 2,
        prims_per_query: 3,
        types: 6,
        selectivity_min: 0.5,
        selectivity_max: 0.5,
        window: 3_000,
        seed: 55,
        ..Default::default()
    });
    let events = generate_traces(
        &network,
        &TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale: 3.0 / 1_000.0,
            key_domain: 2,
            band_domain: 0,
            seed: 55,
        },
    );
    let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
    let deployment = Deployment::new(&plan.merged, &ctx);
    let sim = run_simulation(&deployment, &events, &SimConfig::default());
    let threaded = muse_runtime::run_threaded(
        &deployment,
        &events,
        &muse_runtime::ThreadedConfig::default(),
    );
    for i in 0..workload.len() {
        let a: BTreeSet<Vec<u64>> = sim.matches[i].iter().map(|m| m.fingerprint()).collect();
        let b: BTreeSet<Vec<u64>> = threaded.matches[i]
            .iter()
            .map(|m| m.fingerprint())
            .collect();
        assert_eq!(a, b, "query {i}");
    }
    assert_eq!(sim.metrics.messages_sent, threaded.metrics.messages_sent);
}

/// One keyed `SEQ` registered under windows 300 and 50 runs on the threaded
/// executor and matches the simulator per query, with the default chunk
/// (the smallest window) and with a chunk of the largest window, which
/// covers the whole trace: the window-50 query's stores keep a chunk more
/// than its window, what a delivery can lag, whatever the chunk.
#[test]
fn mixed_windows_threaded_equals_simulator_by_default() {
    let t = EventTypeId;
    let network = NetworkBuilder::new(3, 5)
        .node(NodeId(0), [t(0), t(3)])
        .node(NodeId(1), [t(1), t(4)])
        .node(NodeId(2), [t(2), t(0)])
        .rate(t(0), 4.0)
        .rate(t(1), 4.0)
        .rate(t(2), 3.0)
        .rate(t(3), 2.0)
        .rate(t(4), 2.0)
        .build();
    let pattern = Pattern::seq([0, 1, 2].map(|i| Pattern::leaf(t(i))));
    let same_key = Predicate::binary(
        (PrimId(0), AttrId(0)),
        CmpOp::Eq,
        (PrimId(1), AttrId(0)),
        0.2,
    );
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(5),
        [300, 50].map(|window| (pattern.clone(), vec![same_key.clone()], window)),
    )
    .unwrap();
    let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
    let deployment = Deployment::new(&plan.merged, &ctx);
    let fingerprints =
        |ms: &[Match]| -> BTreeSet<Vec<u64>> { ms.iter().map(Match::fingerprint).collect() };
    for seed in [1, 7, 28, 42] {
        let events = generate_traces(
            &network,
            &TraceConfig {
                duration: 25.0,
                ticks_per_unit: 10.0,
                rate_scale: 1.0,
                key_domain: 3,
                band_domain: 10,
                seed,
            },
        );
        let sim = run_simulation(&deployment, &events, &SimConfig::default());
        for chunk_ticks in [None, Some(300)] {
            let config = muse_runtime::ThreadedConfig {
                chunk_ticks,
                ..muse_runtime::ThreadedConfig::default()
            };
            let threaded = muse_runtime::run_threaded(&deployment, &events, &config);
            for (q, (s, r)) in sim.matches.iter().zip(&threaded.matches).enumerate() {
                assert!(!s.is_empty(), "seed {seed}: query {q} must match");
                assert_eq!(
                    fingerprints(s),
                    fingerprints(r),
                    "seed {seed}, chunk {chunk_ticks:?}: query {q} (window {}) reads {} \
                     simulator vs {} threaded matches",
                    deployment.queries[q].window(),
                    s.len(),
                    r.len()
                );
            }
        }
    }
}

/// Band variants of a few query families on two nodes: joins that read one
/// stream under one key read it as one input, stored once per node and
/// shipped once per destination input — and every query still matches
/// exactly what the reference evaluator, the simulator and the threaded
/// executor each find.
#[test]
fn shared_inputs_end_to_end() {
    const TYPES: usize = 8;
    let mut builder = NetworkBuilder::new(2, TYPES);
    for node in 0..2u16 {
        let owned = (0..TYPES as u16 / 2).map(|k| EventTypeId(node * (TYPES as u16 / 2) + k));
        builder = builder.node(NodeId(node), owned.clone());
        for ty in owned {
            builder = builder.rate(ty, 2.0);
        }
    }
    let network = builder.build();
    let workload = generate_family_workload(&FamilyWorkloadConfig {
        queries: 12,
        families: 3,
        variants_per_family: 4,
        prims_per_family: 3,
        types: TYPES,
        share_fraction: 0.3,
        band_domain: 8,
        window: 1_000,
        seed: 2,
    });
    let events = generate_traces(
        &network,
        &TraceConfig {
            duration: 40.0,
            ticks_per_unit: 100.0,
            rate_scale: 1.0,
            key_domain: 3,
            band_domain: 8,
            seed: 1,
        },
    );
    let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
    let deployment = Deployment::new(&plan.merged, &ctx);
    assert!(
        deployment
            .inputs
            .iter()
            .any(|input| input.readers.len() >= 2),
        "some input must have two readers"
    );
    assert!(
        deployment.routes.iter().flatten().any(|r| {
            let input = deployment.input_of(r.target, r.slot).expect("a join slot");
            r.remote && deployment.inputs[input].readers.len() >= 2
        }),
        "some input with two readers must be fed over the network"
    );

    let sim = run_simulation(&deployment, &events, &SimConfig::default());
    let threaded = muse_runtime::run_threaded(
        &deployment,
        &events,
        &muse_runtime::ThreadedConfig::default(),
    );
    let fingerprints =
        |ms: &[Match]| -> BTreeSet<Vec<u64>> { ms.iter().map(Match::fingerprint).collect() };
    for (q, query) in workload.queries().iter().enumerate() {
        let reference = fingerprints(&Evaluator::for_query(query).run(&events));
        assert_eq!(
            fingerprints(&sim.matches[q]),
            reference,
            "query {q}: simulator"
        );
        assert_eq!(
            fingerprints(&threaded.matches[q]),
            reference,
            "query {q}: threaded"
        );
    }
    assert!(sim.metrics.sink_matches > 0, "the workload must match");
    // The join account, recorded before readers were asked whether they can
    // match: the check only skips probes that would have emitted nothing, so
    // every count but the probes stays, and the probes fall.
    let join = &sim.metrics.join;
    assert_eq!(
        (join.inputs, join.emitted, join.evicted, join.peak_buffered),
        (9_581, 10_533, 3_111, 281)
    );
    assert!(join.probes < 214_354, "{} probes", join.probes);
    // One wire message per (match, destination input): here exactly the
    // §4.4 charge of one per (stream, destination node).
    assert_eq!(
        threaded.metrics.transport.messages_framed,
        sim.metrics.messages_sent
    );
    assert!(sim.metrics.messages_sent > 0);
}

/// The multi-sink ablation: disabling partitioning placements never
/// improves the plan.
#[test]
fn multi_sink_ablation_never_helps_to_disable() {
    for seed in 0..4 {
        let network = generate_network(&small_network(seed + 40));
        let workload = generate_workload(&small_workload(seed + 40));
        for q in workload.queries() {
            let with = amuse(q, &network, &AMuseConfig::default()).unwrap();
            let without = amuse(
                q,
                &network,
                &AMuseConfig {
                    disable_multi_sink: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(
                with.cost <= without.cost + 1e-6,
                "seed {seed}: with {} without {}",
                with.cost,
                without.cost
            );
        }
    }
}

/// The paper's case study (§7.3, Listing 1): Q1 `SEQ` and Q2 `AND` over a
/// cluster trace, planned by aMuSE from estimated statistics, find the
/// reference match set on both executors — and the joins spend their merges
/// on pairs the `uID`/`jID` equality chains accept. The counters repeat
/// exactly on the simulator; no clock is read.
#[test]
fn cluster_case_study_end_to_end() {
    // Sized for the reference `Evaluator`, whose cost grows with the events
    // per window: two hours of trace keep the 30-minute windows crowded
    // (dozens of stored matches per probe) at 2.5 k events, with enough
    // jobs for the rare `UpdateR` events both queries hinge on.
    let config = ClusterTraceConfig {
        nodes: 2,
        jobs: 150,
        duration_ms: 2 * 60 * 60 * 1000,
        seed: 3,
        ..Default::default()
    };
    let trace = generate_cluster_trace(&config);
    let window = 30 * 60 * 1000;
    let attrs = ["jID", "uID"].map(|a| trace.catalog.attr(a).unwrap());
    let selectivities =
        PairSelectivities::estimate(&trace.events, window, &attrs, config.duration_ms);
    let network = rates_per_window(&trace.network, &trace.events, window, config.duration_ms);
    let mut workload = Workload::parse(
        trace.catalog.clone(),
        [query1_source(), query2_source()],
        &ParserOptions::default(),
    )
    .unwrap();
    for q in workload.queries_mut() {
        selectivities.apply_to_query(q);
    }
    let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
    let deployment = Deployment::new(&plan.merged, &ctx);

    let sim = run_simulation(&deployment, &trace.events, &SimConfig::default());
    let threaded = muse_runtime::run_threaded(
        &deployment,
        &trace.events,
        &muse_runtime::ThreadedConfig::default(),
    );
    let fingerprints =
        |ms: &[Match]| -> BTreeSet<Vec<u64>> { ms.iter().map(Match::fingerprint).collect() };
    for (i, q) in workload.queries().iter().enumerate() {
        let truth = fingerprints(&Evaluator::for_query(q).run(&trace.events));
        assert!(!truth.is_empty(), "query {i} has no match on this trace");
        assert_eq!(fingerprints(&sim.matches[i]), truth, "simulator, query {i}");
        assert_eq!(
            fingerprints(&threaded.matches[i]),
            truth,
            "threaded, query {i}"
        );
    }

    let join = sim.metrics.join;
    assert_eq!(join.probes, join.guard_rejects + join.merge_attempts);
    assert!(
        join.merge_success_ratio() >= 0.5,
        "{} of {} merges succeeded: the probe is merging pairs the equality \
         predicates reject",
        join.merge_successes,
        join.merge_attempts
    );
}

//! Property-based parity of shared multi-query evaluation.
//!
//! For randomized workloads over `AND`, `SEQ`, `OR`, and `NSEQ` patterns —
//! with deliberate duplicate registrations and predicate-band variants —
//! the shared deployment (structurally identical projections collapsed
//! into one physical task fanning out to many logical sinks, sources
//! looked up through the discrimination index, join inputs stored once per
//! node for every join that reads them) must deliver exactly the same
//! per-query match sets as each query planned and deployed alone — in the
//! simulator, and where joins share inputs, threaded and through a crash.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Timestamp, Value};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{CmpOp, Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, FaultPlan, ThreadedConfig};
use muse_sim::traces::{generate_traces, TraceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

fn t(i: u16) -> EventTypeId {
    EventTypeId(i)
}

fn network() -> Network {
    NetworkBuilder::new(3, 5)
        .node(NodeId(0), [t(0), t(3)])
        .node(NodeId(1), [t(1), t(4)])
        .node(NodeId(2), [t(2), t(0)])
        .rate(t(0), 4.0)
        .rate(t(1), 4.0)
        .rate(t(2), 3.0)
        .rate(t(3), 2.0)
        .rate(t(4), 2.0)
        .build()
}

/// One pattern recipe: operator kind over a small type selection, plus an
/// optional unary band predicate distinguishing variants of a structure.
#[derive(Debug, Clone)]
struct Recipe {
    kind: u8,
    window: Timestamp,
    band: Option<(i64, i64)>,
    /// Whether the pattern keeps its equality predicate.
    keyed: bool,
}

fn pattern_for(kind: u8) -> (Pattern, Vec<Predicate>) {
    let eq = |a: u8, b: u8| {
        Predicate::binary(
            (PrimId(a), AttrId(0)),
            CmpOp::Eq,
            (PrimId(b), AttrId(0)),
            0.2,
        )
    };
    match kind % 5 {
        0 => (
            Pattern::seq([
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
                Pattern::leaf(t(2)),
            ]),
            vec![eq(0, 1)],
        ),
        1 => (
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            vec![eq(0, 1)],
        ),
        2 => (
            Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(3)),
            ]),
            vec![eq(0, 1)],
        ),
        3 => (
            // OR splits into one OR-free query per alternative inside
            // `Workload::from_patterns`.
            Pattern::or([
                Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::seq([Pattern::leaf(t(3)), Pattern::leaf(t(4))]),
            ]),
            vec![eq(0, 1)],
        ),
        _ => (
            // Predicate-free NSEQ: predicates on negated operators have
            // scope rules of their own, tested elsewhere.
            Pattern::nseq(
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
                Pattern::leaf(t(2)),
            ),
            vec![],
        ),
    }
}

fn build_workload(recipes: &[Recipe]) -> Workload {
    let patterns: Vec<(Pattern, Vec<Predicate>, Timestamp)> = recipes
        .iter()
        .map(|r| {
            let (pattern, mut preds) = pattern_for(r.kind);
            if !r.keyed {
                preds.clear();
            }
            if let Some((lo, hi)) = r.band {
                preds.push(Predicate::unary(
                    PrimId(0),
                    AttrId(1),
                    CmpOp::Ge,
                    Value::Int(lo),
                    0.5,
                ));
                preds.push(Predicate::unary(
                    PrimId(0),
                    AttrId(1),
                    CmpOp::Le,
                    Value::Int(hi),
                    0.5,
                ));
            }
            (pattern, preds, r.window)
        })
        .collect();
    Workload::from_patterns(Catalog::with_anonymous_types(5), patterns)
        .expect("generated patterns are valid")
}

fn fingerprints(matches: &[Match]) -> BTreeSet<Vec<u64>> {
    matches.iter().map(Match::fingerprint).collect()
}

/// Derives `count` recipes from a seed: operator kind, window, and an
/// optional band predicate per recipe (the vendored proptest stub has no
/// collection strategies, so the recipe list is expanded from a seeded
/// RNG instead).
fn recipes_from_seed(count: usize, seed: u64) -> Vec<Recipe> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let kind = rng.gen_range(0u8..5);
            let window = [50u64, 120, 300][rng.gen_range(0..3usize)];
            let band = if rng.gen_bool(0.5) {
                let lo = rng.gen_range(0i64..8);
                Some((lo, lo + 3))
            } else {
                None
            };
            Recipe {
                kind,
                window,
                band,
                keyed: true,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shared deployment of a workload and each of its queries deployed
    /// alone produce identical per-query match sets — including workloads
    /// that contain exact duplicate registrations (every recipe list is
    /// doubled).
    #[test]
    fn shared_matches_independent(
        count in 1usize..4,
        gen_seed in any::<u64>(),
        trace_seed in 0u64..50,
    ) {
        let recipes = recipes_from_seed(count, gen_seed);
        // Duplicate every recipe: duplicates exercise both the planner's
        // structural memoization and sink fanout to many logical queries.
        let mut doubled = recipes.clone();
        doubled.extend(recipes);
        let workload = build_workload(&doubled);
        let net = network();
        let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
        let shared = Deployment::new(&plan.merged, &ctx);
        prop_assert_eq!(&shared.queries[..], workload.queries());
        // Every recipe is registered twice, so sharing must strictly
        // collapse: fewer physical tasks than logical ones.
        prop_assert!(shared.tasks.len() < shared.logical_tasks);

        let trace = generate_traces(&net, &TraceConfig {
            duration: 25.0,
            ticks_per_unit: 10.0,
            rate_scale: 1.0,
            key_domain: 3,
            band_domain: 10,
            seed: trace_seed,
        });
        let config = SimConfig::default();
        let shared_report = run_simulation(&shared, &trace, &config);
        let mut alone_sink_matches = 0;
        for (q, query) in workload.queries().iter().enumerate() {
            let alone_plan = amuse(query, &net, &AMuseConfig::default()).unwrap();
            let alone_ctx = PlanContext::new(std::slice::from_ref(query), &net, &alone_plan.table);
            let alone = Deployment::new(&alone_plan.graph, &alone_ctx);
            let report = run_simulation(&alone, &trace, &config);
            prop_assert_eq!(
                fingerprints(&shared_report.matches[q]),
                fingerprints(&report.matches[0])
            );
            alone_sink_matches += report.metrics.sink_matches;
        }
        // Per-sink attribution keeps the aggregate counter equal too.
        prop_assert_eq!(shared_report.metrics.sink_matches, alone_sink_matches);
    }
}

/// A workload in which joins on one node read one input: per window of
/// 50, 120 and 300, one structure in two band variants (their banded
/// sources differ, their other sources — and the inputs those feed —
/// coincide) and once more without its equality predicate (the same
/// streams, keyed differently, must reach that join through inputs of
/// their own); plus one `NSEQ` query.
fn shared_input_recipes(seed: u64) -> Vec<Recipe> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recipes = Vec::new();
    for window in [50, 120, 300] {
        // The keyed kinds: `SEQ`, `AND`, nested, `OR`.
        let kind = rng.gen_range(0u8..4);
        let lo = rng.gen_range(0i64..4);
        for (band, keyed) in [
            (Some((lo, lo + 2)), true),
            (Some((lo + 3, lo + 5)), true),
            (Some((lo, lo + 2)), false),
        ] {
            recipes.push(Recipe {
                kind,
                window,
                band,
                keyed,
            });
        }
    }
    recipes.push(Recipe {
        kind: 4,
        window: [50, 120, 300][rng.gen_range(0..3usize)],
        band: None,
        keyed: false,
    });
    recipes
}

/// The tasks routing into any reader of `input`.
fn feeders(deployment: &Deployment, input: usize) -> BTreeSet<usize> {
    let readers = &deployment.inputs[input].readers;
    (0..deployment.tasks.len())
        .filter(|&task| {
            deployment.routes[task]
                .iter()
                .any(|r| readers.contains(&(r.target, r.slot)))
        })
        .collect()
}

#[test]
fn shared_inputs_match_independent_in_both_drivers_and_through_a_crash() {
    let net = network();
    let (mut shared_inputs, mut key_splits) = (0, 0);
    for seed in 0..6 {
        let workload = build_workload(&shared_input_recipes(seed));
        let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
        let shared = Deployment::new(&plan.merged, &ctx);
        shared_inputs += (0..shared.inputs.len())
            .filter(|&i| !shared.shared_readers(i).is_empty())
            .count();
        // One stream, one node, two key terms: two inputs.
        for a in 0..shared.inputs.len() {
            for b in a + 1..shared.inputs.len() {
                let (ia, ib) = (&shared.inputs[a], &shared.inputs[b]);
                if ia.node == ib.node
                    && ia.key != ib.key
                    && feeders(&shared, a) == feeders(&shared, b)
                {
                    key_splits += 1;
                }
            }
        }

        let trace = generate_traces(
            &net,
            &TraceConfig {
                duration: 40.0,
                ticks_per_unit: 10.0,
                rate_scale: 0.4,
                key_domain: 3,
                band_domain: 10,
                seed,
            },
        );
        let reference: Vec<BTreeSet<Vec<u64>>> = workload
            .queries()
            .iter()
            .map(|query| {
                let alone_plan = amuse(query, &net, &AMuseConfig::default()).unwrap();
                let alone_ctx =
                    PlanContext::new(std::slice::from_ref(query), &net, &alone_plan.table);
                let alone = Deployment::new(&alone_plan.graph, &alone_ctx);
                fingerprints(&run_simulation(&alone, &trace, &SimConfig::default()).matches[0])
            })
            .collect();
        assert!(
            reference.iter().any(|m| !m.is_empty()),
            "seed {seed}: the workload must match"
        );

        let crash = |node: usize| ThreadedConfig {
            fault: Some(FaultPlan {
                node,
                crash_at: trace.iter().filter(|e| e.origin.index() == node).count() as u64 / 2,
                restart_delay: Duration::ZERO,
            }),
            ..ThreadedConfig::default()
        };
        let mut runs = vec![(
            "simulator".to_string(),
            run_simulation(&shared, &trace, &SimConfig::default()).matches,
        )];
        runs.push((
            "threaded".to_string(),
            run_threaded(&shared, &trace, &ThreadedConfig::default()).matches,
        ));
        for node in 0..net.num_nodes() {
            runs.push((
                format!("threaded, crash of node {node}"),
                run_threaded(&shared, &trace, &crash(node)).matches,
            ));
        }
        for (driver, matches) in &runs {
            for (q, expected) in reference.iter().enumerate() {
                assert_eq!(
                    &fingerprints(&matches[q]),
                    expected,
                    "seed {seed}, {driver}: query {q} (window {})",
                    workload.queries()[q].window()
                );
            }
        }
    }
    assert!(shared_inputs > 0, "some joins must share an input");
    assert!(key_splits > 0, "some stream must reach two key terms");
}

//! Property-based parity of shared multi-query evaluation.
//!
//! For randomized workloads over `AND`, `SEQ`, `OR`, and `NSEQ` patterns —
//! with deliberate duplicate registrations and predicate-band variants —
//! the shared deployment (structurally identical projections collapsed
//! into one physical task fanning out to many logical sinks, sources
//! looked up through the discrimination index) must deliver exactly the
//! same per-query match sets as the independent deployment that gives
//! every graph vertex its own physical task.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Timestamp, Value};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{CmpOp, Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId};
use muse_core::workload::Workload;
use muse_runtime::deploy::{Deployment, Sharing};
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_sim::traces::{generate_traces, TraceConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

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

fn fingerprints(matches: &[Vec<Match>]) -> Vec<BTreeSet<Vec<u64>>> {
    matches
        .iter()
        .map(|q| q.iter().map(Match::fingerprint).collect())
        .collect()
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
            Recipe { kind, window, band }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared and independent deployments of the same plan produce
    /// identical per-query match sets — including workloads that contain
    /// exact duplicate registrations (every recipe list is doubled).
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
        let shared = Deployment::new_with(&plan.merged, &ctx, Sharing::Shared);
        let independent = Deployment::new_with(&plan.merged, &ctx, Sharing::Independent);
        prop_assert_eq!(&shared.queries, &independent.queries);
        // Every recipe is registered twice, so sharing must strictly
        // collapse: fewer physical tasks than logical ones, while the
        // independent deployment keeps one task per logical vertex.
        prop_assert!(shared.tasks.len() < shared.logical_tasks);
        prop_assert_eq!(shared.logical_tasks, independent.tasks.len());

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
        let independent_report = run_simulation(&independent, &trace, &config);
        prop_assert_eq!(
            fingerprints(&shared_report.matches),
            fingerprints(&independent_report.matches)
        );
        // Per-sink attribution keeps the aggregate counters equal too.
        prop_assert_eq!(
            shared_report.metrics.sink_matches,
            independent_report.metrics.sink_matches
        );
    }
}

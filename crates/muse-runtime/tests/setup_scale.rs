//! Set-up of a multi-query workload must scale linearly in the number of
//! queries when the distinct query structures are fixed.
//!
//! Plans the family shape `bench/`'s `multiquery` workload uses (25
//! families × 8 variants, window 1000, two nodes of six types each) at
//! 5 000 and 20 000 queries with aMuSE and deploys each plan with
//! `Deployment::unchecked`. Four times the queries should cost about four
//! times the planning and four times the deployment; a lookup that scans
//! the query list once per vertex makes the deployment about sixteen.
//! Timing-based, so ignored by default and run in the release profile:
//!
//! ```text
//! cargo test --release -p muse-runtime --test setup_scale -- --ignored --nocapture
//! ```

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::types::{EventTypeId, NodeId};
use muse_runtime::deploy::{Deployment, Sharing};
use muse_sim::workload_gen::{generate_family_workload, FamilyWorkloadConfig};
use std::time::Instant;

const TYPES: usize = 12;

fn network() -> Network {
    let per_node = TYPES as u16 / 2;
    let mut builder = NetworkBuilder::new(2, TYPES);
    for node in 0..2u16 {
        let owned: Vec<EventTypeId> = (0..per_node)
            .map(|k| EventTypeId(node * per_node + k))
            .collect();
        builder = builder.node(NodeId(node), owned.clone());
        for t in owned {
            builder = builder.rate(t, 2.0);
        }
    }
    builder.build()
}

/// Best of three set-ups at `queries` queries: seconds spent planning and
/// deploying, each the minimum over the three. The workload is generated
/// outside the timed region.
fn best_setup_s(network: &Network, queries: usize) -> [f64; 2] {
    let workload = generate_family_workload(&FamilyWorkloadConfig {
        queries,
        families: 25,
        variants_per_family: 8,
        prims_per_family: 3,
        types: TYPES,
        share_fraction: 0.3,
        band_domain: 1_000,
        window: 1_000,
        seed: 1,
    });
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        let start = Instant::now();
        let plan = amuse_workload(&workload, network, &AMuseConfig::default())
            .expect("family workload plans");
        let planned = Instant::now();
        let ctx = PlanContext::new(workload.queries(), network, &plan.table);
        let deployment = Deployment::unchecked(&plan.merged, &ctx, Sharing::Shared);
        let phases = [planned - start, planned.elapsed()];
        assert_eq!(deployment.logical_tasks, plan.merged.num_vertices());
        for (b, t) in best.iter_mut().zip(phases) {
            *b = b.min(t.as_secs_f64());
        }
    }
    best
}

/// Each phase is held to the bound on its own: the planner's share of the
/// total would otherwise hide a deployment that grows quadratically.
#[test]
#[ignore = "timing: run in release with --ignored"]
fn setup_is_linear_in_the_number_of_queries() {
    let network = network();
    let small = best_setup_s(&network, 5_000);
    let large = best_setup_s(&network, 20_000);
    let total = |s: [f64; 2]| s[0] + s[1];
    println!(
        "set-up: 5k queries {:.3} s, 20k queries {:.3} s, growth {:.1}x",
        total(small),
        total(large),
        total(large) / total(small)
    );
    for (i, phase) in ["plan", "deploy"].into_iter().enumerate() {
        let growth = large[i] / small[i];
        println!(
            "  {phase}: {:.3} s -> {:.3} s, growth {growth:.1}x",
            small[i], large[i]
        );
        assert!(
            growth < 8.0,
            "{phase}: 4x the queries cost {growth:.1}x ({:.3} s -> {:.3} s): linear is about 4x",
            small[i],
            large[i]
        );
    }
}

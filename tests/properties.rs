//! Property-based tests over the core invariants of the MuSE model, driven
//! by randomly generated queries, networks, and traces.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::algorithms::baselines::centralized_cost;
use muse_core::binding::{enumerate_bindings, num_bindings};
use muse_core::combination::{enumerate_combinations, Combination};
use muse_core::cost::projection_output_rate;
use muse_core::graph::PlanContext;
use muse_core::prelude::*;
use muse_core::projection::{all_projections, project};
use muse_runtime::matcher::Evaluator;
use proptest::prelude::*;

// ---------- generators ----------

/// A random OR-free pattern over `types` distinct leaf types.
fn arb_pattern(num_types: u16) -> impl Strategy<Value = Pattern> {
    // Between 2 and 5 distinct types, random alternating SEQ/AND shape.
    (2usize..=5usize.min(num_types as usize), any::<u64>()).prop_map(move |(n, seed)| {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut types: Vec<u16> = (0..num_types).collect();
        types.shuffle(&mut rng);
        let leaves: Vec<Pattern> = types[..n]
            .iter()
            .map(|&t| Pattern::leaf(EventTypeId(t)))
            .collect();
        fn build(leaves: &[Pattern], seq: bool, rng: &mut StdRng) -> Pattern {
            if leaves.len() == 1 {
                return leaves[0].clone();
            }
            let cut = rng.gen_range(1..leaves.len());
            let left = build(&leaves[..cut], !seq, rng);
            let right = build(&leaves[cut..], !seq, rng);
            // Flatten same-kind children to keep validity.
            let children = vec![left, right];
            if seq {
                Pattern::Seq(flatten(children, true))
            } else {
                Pattern::And(flatten(children, false))
            }
        }
        fn flatten(children: Vec<Pattern>, seq: bool) -> Vec<Pattern> {
            let mut out = Vec::new();
            for c in children {
                match (&c, seq) {
                    (Pattern::Seq(inner), true) => out.extend(inner.clone()),
                    (Pattern::And(inner), false) => out.extend(inner.clone()),
                    _ => out.push(c),
                }
            }
            out
        }
        build(&leaves, rng.gen_bool(0.5), &mut rng)
    })
}

/// A random network over `num_types` types with every type produced.
fn arb_network(num_types: u16) -> impl Strategy<Value = Network> {
    any::<u64>().prop_map(move |seed| {
        muse_sim::network_gen::generate_network(&muse_sim::network_gen::NetworkConfig {
            nodes: 5,
            types: num_types as usize,
            event_node_ratio: 0.6,
            rate_skew: 1.3,
            max_rate: 1_000,
            seed,
        })
    })
}

fn build_query(pattern: &Pattern) -> Query {
    Query::build(QueryId(0), pattern, vec![], 5_000).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projecting a query onto all of its primitives is the identity (same
    /// signature), and projections are monotone: projecting twice equals
    /// projecting once with the smaller set.
    #[test]
    fn projection_identity_and_consistency(pattern in arb_pattern(6)) {
        let q = build_query(&pattern);
        let full = project(&q, q.prims()).unwrap();
        prop_assert_eq!(full.signature(&q), q.signature());
        for p in all_projections(&q) {
            // Types round-trip through prims.
            prop_assert_eq!(q.prims_of_types(q.types_of(p.prims)), p.prims);
            // Selectivity of a projection never exceeds 1 and never falls
            // below the query's.
            prop_assert!(p.selectivity <= 1.0 + 1e-12);
            prop_assert!(p.selectivity >= q.selectivity() - 1e-12);
        }
    }

    /// |𝔈(p)| equals the product of producer counts, and enumerating agrees
    /// with counting.
    #[test]
    fn binding_counts_consistent(pattern in arb_pattern(6), net in arb_network(6)) {
        let q = build_query(&pattern);
        for p in all_projections(&q) {
            let count = num_bindings(&q, p.prims, &net);
            let listed = enumerate_bindings(&q, p.prims, &net, 100_000).unwrap();
            prop_assert_eq!(listed.len() as f64, count);
            // Bindings of a projection are sub-bags of the query's bindings.
            let full = enumerate_bindings(&q, q.prims(), &net, 100_000).unwrap();
            for b in &listed {
                prop_assert!(full.iter().any(|fb| b.is_sub_bag_of(fb)));
            }
        }
    }

    /// Every enumerated combination is correct and non-redundant, and the
    /// primitive combination is always found.
    #[test]
    fn combinations_correct_nonredundant(pattern in arb_pattern(6)) {
        let q = build_query(&pattern);
        let available: Vec<PrimSet> = all_projections(&q)
            .into_iter()
            .map(|p| p.prims)
            .filter(|p| p.len() >= 2)
            .collect();
        let combos = enumerate_combinations(q.prims(), &available);
        prop_assert!(!combos.is_empty());
        let primitive = Combination::primitive(q.prims());
        prop_assert!(combos.contains(&primitive));
        for c in &combos {
            prop_assert!(c.is_correct());
            prop_assert!(!c.is_redundant());
            prop_assert!(c.arity() <= q.num_prims());
        }
    }

    /// The output rate of a projection never exceeds the rate obtained by
    /// removing a predicate (rates are monotone in selectivity), and is
    /// finite and non-negative.
    #[test]
    fn rates_sane(pattern in arb_pattern(6), net in arb_network(6)) {
        let q = build_query(&pattern);
        for p in all_projections(&q) {
            let r = projection_output_rate(&p, &q, &net);
            prop_assert!(r.is_finite());
            prop_assert!(r >= 0.0);
        }
    }

    /// aMuSE always produces a correct MuSE graph whose cost never exceeds
    /// (a small tolerance above) centralized evaluation, and aMuSE* never
    /// beats aMuSE.
    #[test]
    fn amuse_invariants(pattern in arb_pattern(6), net in arb_network(6)) {
        let q = build_query(&pattern);
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let star = amuse(&q, &net, &AMuseConfig::star()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        plan.graph.check_correct(&ctx, 1_000_000).unwrap();
        let central = centralized_cost(std::slice::from_ref(&q), &net);
        prop_assert!(plan.cost <= central * 1.001 + 1e-9);
        prop_assert!(plan.cost <= star.cost + 1e-6);
        // Reported cost is the graph's cost.
        prop_assert!((plan.graph.cost(&ctx) - plan.cost).abs() < 1e-6);
    }

    /// Matches found by the evaluator satisfy the query: each match's
    /// events respect order constraints, the window, and carry one event
    /// per positive primitive.
    #[test]
    fn evaluator_matches_are_valid(pattern in arb_pattern(4), seed in any::<u64>()) {
        let q = build_query(&pattern);
        let net = muse_sim::network_gen::generate_network(&muse_sim::network_gen::NetworkConfig {
            nodes: 3,
            types: 4,
            event_node_ratio: 0.8,
            rate_skew: 1.3,
            max_rate: 20,
            seed,
        });
        let events = muse_sim::traces::generate_traces(&net, &muse_sim::traces::TraceConfig {
            duration: 10.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.2,
            key_domain: 0,
            band_domain: 0,            seed,
        });
        let matches = Evaluator::for_query(&q).run(&events);
        for m in matches {
            prop_assert_eq!(m.prims(), q.positive_prims());
            prop_assert!(m.last_time() - m.first_time() <= q.window());
            prop_assert!(muse_runtime::matcher::is_valid_match(&m, &q));
        }
    }

    /// The trace generator respects the network: origins generate their
    /// types, order is global-trace order, sequence numbers are dense.
    #[test]
    fn traces_respect_network(net in arb_network(5), seed in any::<u64>()) {
        let events = muse_sim::traces::generate_traces(&net, &muse_sim::traces::TraceConfig {
            duration: 5.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 3,
            band_domain: 0,            seed,
        });
        for (i, e) in events.iter().enumerate() {
            prop_assert_eq!(e.seq, i as u64);
            prop_assert!(net.generates(e.origin, e.ty));
            if i > 0 {
                prop_assert!(events[i - 1].time <= e.time);
            }
        }
    }

    /// Codec roundtrip for arbitrary matches built from trace events.
    #[test]
    fn codec_roundtrip(net in arb_network(5), seed in any::<u64>()) {
        let events = muse_sim::traces::generate_traces(&net, &muse_sim::traces::TraceConfig {
            duration: 3.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 10,
            band_domain: 0,            seed,
        });
        let entries: Vec<(PrimId, muse_core::event::Event)> = events
            .iter()
            .take(8)
            .enumerate()
            .map(|(i, e)| (PrimId(i as u8), e.clone()))
            .collect();
        let m = muse_runtime::Match::new(entries);
        let bytes = muse_runtime::codec::encode_match(&m);
        prop_assert_eq!(muse_runtime::codec::decode_match(bytes), Some(m));
    }
}

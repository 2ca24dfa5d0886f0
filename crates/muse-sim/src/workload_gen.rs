//! Random query workloads (§7.1 of the paper).
//!
//! The simulation experiments use workloads of five queries with six
//! primitive operators on average (scalability: 15 queries, eight
//! primitives), containing sequence and conjunction operators with varying
//! hierarchy and nesting depth. Predicate selectivities are generated per
//! pair of event types from a uniform distribution over `[σ_min, σ_max]`
//! (default `[0.01, 0.2]`).

use muse_core::catalog::Catalog;
use muse_core::event::{Timestamp, Value};
use muse_core::query::{CmpOp, Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, PrimId};
use muse_core::workload::Workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the workload generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of queries.
    pub queries: usize,
    /// Average number of primitive operators per query (jittered ±1).
    pub prims_per_query: usize,
    /// Size of the event type universe to draw from.
    pub types: usize,
    /// Lower bound of pairwise predicate selectivities.
    pub selectivity_min: f64,
    /// Upper bound of pairwise predicate selectivities.
    pub selectivity_max: f64,
    /// Fraction of a query's types reused from the previous query, keeping
    /// the workload *related* (§2.2: queries share composite operators).
    pub share_fraction: f64,
    /// Time window of every query.
    pub window: Timestamp,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            queries: 5,
            prims_per_query: 6,
            types: 15,
            selectivity_min: 0.01,
            selectivity_max: 0.2,
            share_fraction: 0.5,
            window: 1_000,
            seed: 0,
        }
    }
}

impl WorkloadConfig {
    /// The paper's scalability setup: 15 queries with eight primitives over
    /// 20 types.
    pub fn large() -> Self {
        Self {
            queries: 15,
            prims_per_query: 8,
            types: 20,
            ..Self::default()
        }
    }
}

/// A symmetric matrix of pairwise selectivities over the type universe.
#[derive(Debug, Clone)]
pub struct SelectivityMatrix {
    n: usize,
    values: Vec<f64>,
}

impl SelectivityMatrix {
    /// Draws a matrix with entries uniform in `[min, max]`.
    pub fn generate(n: usize, min: f64, max: f64, rng: &mut impl Rng) -> Self {
        assert!(min > 0.0 && min <= max && max <= 1.0);
        let mut values = vec![1.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let s = rng.gen_range(min..=max);
                values[i * n + j] = s;
                values[j * n + i] = s;
            }
        }
        Self { n, values }
    }

    /// The selectivity between two event types.
    pub fn get(&self, a: EventTypeId, b: EventTypeId) -> f64 {
        self.values[a.index() * self.n + b.index()]
    }
}

/// Generates a workload of related `SEQ`/`AND` queries with pairwise
/// equality predicates whose selectivities come from a fresh
/// [`SelectivityMatrix`].
pub fn generate_workload(config: &WorkloadConfig) -> Workload {
    let (workload, _) = generate_workload_with_matrix(config);
    workload
}

/// Like [`generate_workload`], also returning the selectivity matrix (used
/// by experiments that need ground-truth pair selectivities).
pub fn generate_workload_with_matrix(config: &WorkloadConfig) -> (Workload, SelectivityMatrix) {
    assert!(config.queries > 0);
    assert!(config.prims_per_query >= 2);
    assert!(config.types > config.prims_per_query);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let matrix = SelectivityMatrix::generate(
        config.types,
        config.selectivity_min,
        config.selectivity_max,
        &mut rng,
    );
    let catalog = Catalog::with_anonymous_types(config.types);

    let mut patterns = Vec::with_capacity(config.queries);
    let mut previous_types: Vec<EventTypeId> = Vec::new();
    for _ in 0..config.queries {
        let jitter = rng.gen_range(-1i32..=1);
        let n = (config.prims_per_query as i32 + jitter).clamp(2, config.types as i32) as usize;
        let types = pick_types(n, config, &previous_types, &mut rng);
        previous_types = types.clone();
        let pattern = random_tree(&types, None, &mut rng);
        // A predicate per pair of primitives, selectivity from the matrix.
        let mut predicates = Vec::new();
        for i in 0..types.len() {
            for j in (i + 1)..types.len() {
                predicates.push(Predicate::binary(
                    (PrimId(i as u8), AttrId(0)),
                    CmpOp::Eq,
                    (PrimId(j as u8), AttrId(0)),
                    matrix.get(types[i], types[j]),
                ));
            }
        }
        patterns.push((pattern, predicates, config.window));
    }
    let workload =
        Workload::from_patterns(catalog, patterns).expect("generated patterns are valid");
    (workload, matrix)
}

/// Picks `n` distinct types, reusing a share of the previous query's types.
fn pick_types(
    n: usize,
    config: &WorkloadConfig,
    previous: &[EventTypeId],
    rng: &mut StdRng,
) -> Vec<EventTypeId> {
    let mut chosen: Vec<EventTypeId> = Vec::with_capacity(n);
    let reuse = ((n as f64) * config.share_fraction).round() as usize;
    let mut prev: Vec<EventTypeId> = previous.to_vec();
    prev.shuffle(rng);
    chosen.extend(prev.into_iter().take(reuse.min(n)));
    let mut rest: Vec<EventTypeId> = (0..config.types as u16)
        .map(EventTypeId)
        .filter(|t| !chosen.contains(t))
        .collect();
    rest.shuffle(rng);
    chosen.extend(rest.into_iter().take(n - chosen.len()));
    // Leaf order is randomized so SEQ constraints differ between queries.
    chosen.shuffle(rng);
    chosen
}

/// Builds a random alternating `SEQ`/`AND` tree over the given leaf types.
/// `parent` is the kind of the parent composite (children must differ, per
/// the validity rule of §2.2).
fn random_tree(types: &[EventTypeId], parent: Option<bool>, rng: &mut StdRng) -> Pattern {
    if types.len() == 1 {
        return Pattern::leaf(types[0]);
    }
    // true = SEQ, false = AND; alternate with the parent.
    let is_seq = match parent {
        Some(p) => !p,
        None => rng.gen_bool(0.5),
    };
    // Split the leaves into 2..=len groups, each non-empty and contiguous.
    let groups = rng.gen_range(2..=types.len());
    let mut cut_points: Vec<usize> = (1..types.len()).collect();
    cut_points.shuffle(rng);
    let mut cuts: Vec<usize> = cut_points.into_iter().take(groups - 1).collect();
    cuts.sort_unstable();
    cuts.push(types.len());
    let mut children = Vec::with_capacity(groups);
    let mut start = 0;
    for cut in cuts {
        children.push(random_tree(&types[start..cut], Some(is_seq), rng));
        start = cut;
    }
    if is_seq {
        Pattern::Seq(children)
    } else {
        Pattern::And(children)
    }
}

/// Configuration of the multi-tenant *family* workload generator used by
/// the 100k-query experiments.
///
/// Queries are drawn from a small set of structural **families** (type
/// tree + pairwise predicates). Within a family, **variants** differ only
/// in a pair of unary band predicates over [`BAND_ATTR`], partitioning the
/// band value domain into disjoint slices. Query `j` belongs to family
/// `j % families` with variant `(j / families) % variants_per_family`, so
/// any workload larger than `families × variants_per_family` contains
/// exact structural duplicates — the regime where shared-plan evaluation
/// and the discrimination index pay off.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyWorkloadConfig {
    /// Total number of queries.
    pub queries: usize,
    /// Number of distinct structural families.
    pub families: usize,
    /// Number of predicate-band variants within each family.
    pub variants_per_family: usize,
    /// Primitive operators per family pattern.
    pub prims_per_family: usize,
    /// Size of the event type universe.
    pub types: usize,
    /// Fraction of a family's types reused from the previous family.
    pub share_fraction: f64,
    /// Domain of the banded attribute: values are `0..band_domain`.
    pub band_domain: i64,
    /// Time window of every query.
    pub window: Timestamp,
    /// PRNG seed.
    pub seed: u64,
}

/// The payload attribute carrying the band value discriminated by query
/// variants (the key attribute joined by pairwise predicates is
/// `AttrId(0)`).
pub const BAND_ATTR: AttrId = AttrId(1);

impl Default for FamilyWorkloadConfig {
    fn default() -> Self {
        Self {
            queries: 1_000,
            families: 20,
            variants_per_family: 10,
            prims_per_family: 3,
            types: 15,
            share_fraction: 0.3,
            band_domain: 1_000,
            window: 1_000,
            seed: 0,
        }
    }
}

/// Generates a family-structured multi-tenant workload (see
/// [`FamilyWorkloadConfig`]).
pub fn generate_family_workload(config: &FamilyWorkloadConfig) -> Workload {
    assert!(config.queries > 0);
    assert!(config.families > 0 && config.variants_per_family > 0);
    assert!(config.prims_per_family >= 2);
    assert!(config.types > config.prims_per_family);
    assert!(config.band_domain >= config.variants_per_family as i64);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let matrix = SelectivityMatrix::generate(config.types, 0.01, 0.2, &mut rng);
    let catalog = Catalog::with_anonymous_types(config.types);

    // Draw each family's structure once.
    let base = WorkloadConfig {
        types: config.types,
        share_fraction: config.share_fraction,
        ..WorkloadConfig::default()
    };
    let mut family_patterns = Vec::with_capacity(config.families);
    let mut previous_types: Vec<EventTypeId> = Vec::new();
    for _ in 0..config.families {
        let types = pick_types(config.prims_per_family, &base, &previous_types, &mut rng);
        previous_types = types.clone();
        let pattern = random_tree(&types, None, &mut rng);
        let mut predicates = Vec::new();
        for i in 0..types.len() {
            for j in (i + 1)..types.len() {
                predicates.push(Predicate::binary(
                    (PrimId(i as u8), AttrId(0)),
                    CmpOp::Eq,
                    (PrimId(j as u8), AttrId(0)),
                    matrix.get(types[i], types[j]),
                ));
            }
        }
        family_patterns.push((pattern, predicates));
    }

    // A variant constrains the first primitive's band attribute to one
    // slice of the domain. Slices are disjoint, so distinct variants never
    // admit the same event through their banded primitive.
    let step = config.band_domain / config.variants_per_family as i64;
    let sel = (1.0 / config.variants_per_family as f64).sqrt().max(1e-6);
    let mut patterns = Vec::with_capacity(config.queries);
    for j in 0..config.queries {
        let family = j % config.families;
        let variant = (j / config.families) % config.variants_per_family;
        let (pattern, preds) = &family_patterns[family];
        let lo = variant as i64 * step;
        let hi = if variant + 1 == config.variants_per_family {
            config.band_domain - 1
        } else {
            (variant as i64 + 1) * step - 1
        };
        let mut predicates = preds.clone();
        predicates.push(Predicate::unary(
            PrimId(0),
            BAND_ATTR,
            CmpOp::Ge,
            Value::Int(lo),
            sel,
        ));
        predicates.push(Predicate::unary(
            PrimId(0),
            BAND_ATTR,
            CmpOp::Le,
            Value::Int(hi),
            sel,
        ));
        patterns.push((pattern.clone(), predicates, config.window));
    }
    Workload::from_patterns(catalog, patterns).expect("generated patterns are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::types::QueryId;

    #[test]
    fn generates_requested_workload_shape() {
        let w = generate_workload(&WorkloadConfig::default());
        assert_eq!(w.len(), 5);
        for q in w.queries() {
            assert!((5..=7).contains(&q.num_prims()), "{}", q.num_prims());
            assert!(q.has_distinct_prim_types());
            // A predicate per pair.
            let n = q.num_prims();
            assert_eq!(q.predicates().len(), n * (n - 1) / 2);
        }
    }

    #[test]
    fn selectivities_in_range() {
        let (w, matrix) = generate_workload_with_matrix(&WorkloadConfig::default());
        for q in w.queries() {
            for p in q.predicates() {
                assert!((0.01..=0.2).contains(&p.selectivity));
            }
        }
        let _ = matrix.get(EventTypeId(0), EventTypeId(1));
    }

    #[test]
    fn queries_are_related() {
        let w = generate_workload(&WorkloadConfig {
            share_fraction: 0.5,
            seed: 11,
            ..Default::default()
        });
        // Consecutive queries share at least one event type.
        for i in 1..w.len() {
            let a = w.query(QueryId((i - 1) as u32)).types();
            let b = w.query(QueryId(i as u32)).types();
            assert!(!a.intersect(b).is_empty(), "queries {i} unrelated");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_workload(&WorkloadConfig {
            seed: 3,
            ..Default::default()
        });
        let b = generate_workload(&WorkloadConfig {
            seed: 3,
            ..Default::default()
        });
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa.signature(), qb.signature());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_workload(&WorkloadConfig {
            seed: 1,
            ..Default::default()
        });
        let b = generate_workload(&WorkloadConfig {
            seed: 2,
            ..Default::default()
        });
        let same = a
            .queries()
            .iter()
            .zip(b.queries())
            .all(|(x, y)| x.signature() == y.signature());
        assert!(!same);
    }

    #[test]
    fn large_config_shape() {
        let w = generate_workload(&WorkloadConfig::large());
        assert_eq!(w.len(), 15);
        let avg: f64 = w
            .queries()
            .iter()
            .map(|q| q.num_prims() as f64)
            .sum::<f64>()
            / w.len() as f64;
        assert!((avg - 8.0).abs() < 1.0, "avg prims {avg}");
    }

    #[test]
    fn matrix_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = SelectivityMatrix::generate(10, 0.01, 0.2, &mut rng);
        for i in 0..10u16 {
            for j in 0..10u16 {
                assert_eq!(
                    m.get(EventTypeId(i), EventTypeId(j)),
                    m.get(EventTypeId(j), EventTypeId(i))
                );
            }
        }
        assert_eq!(m.get(EventTypeId(3), EventTypeId(3)), 1.0);
    }

    #[test]
    fn family_workload_shape_and_duplicates() {
        let cfg = FamilyWorkloadConfig {
            queries: 50,
            families: 4,
            variants_per_family: 3,
            ..Default::default()
        };
        let w = generate_family_workload(&cfg);
        assert_eq!(w.len(), 50);
        // Query j and j + families*variants are exact duplicates.
        let period = cfg.families * cfg.variants_per_family;
        for j in 0..(50 - period) {
            let a = &w.queries()[j];
            let b = &w.queries()[j + period];
            assert_eq!(a.signature(), b.signature());
            assert_eq!(
                format!("{:?}", a.predicates()),
                format!("{:?}", b.predicates())
            );
        }
        // Same family, different variant: same structure, different bands.
        let a = &w.queries()[0];
        let b = &w.queries()[cfg.families];
        assert_eq!(
            a.root().signature(a.prim_types()),
            b.root().signature(b.prim_types())
        );
        assert_ne!(
            format!("{:?}", a.predicates()),
            format!("{:?}", b.predicates())
        );
    }

    /// aMuSE reuses a plan exactly where the query's tree signature,
    /// predicates (by their `Debug` rendering) and window repeat those of an
    /// earlier query, on the 10 000-query family workload of the benchmark.
    #[test]
    fn family_plans_are_reused_where_rendered_queries_repeat() {
        use muse_core::algorithms::amuse::AMuseConfig;
        use muse_core::algorithms::multi_query::amuse_workload;
        use muse_core::network::NetworkBuilder;
        use muse_core::types::NodeId;
        use std::collections::HashMap;
        use std::fmt::Write as _;

        let w = generate_family_workload(&FamilyWorkloadConfig {
            queries: 10_000,
            families: 25,
            variants_per_family: 8,
            prims_per_family: 3,
            types: 12,
            share_fraction: 0.3,
            band_domain: 1_000,
            window: 1_000,
            seed: 1,
        });
        let mut builder = NetworkBuilder::new(2, 12);
        for node in 0..2u16 {
            let owned: Vec<EventTypeId> = (0..6).map(|k| EventTypeId(node * 6 + k)).collect();
            builder = builder.node(NodeId(node), owned.clone());
            for t in owned {
                builder = builder.rate(t, 2.0);
            }
        }
        let plan = amuse_workload(&w, &builder.build(), &AMuseConfig::default()).unwrap();

        let mut first: HashMap<String, QueryId> = HashMap::new();
        for (q, reused) in w.queries().iter().zip(&plan.plan_reuse) {
            let mut rendered = q.root().tree_signature(q.prim_types());
            for p in q.predicates() {
                let _ = write!(rendered, ";{p:?}");
            }
            let _ = write!(rendered, ";w{}", q.window());
            let earlier = first.get(&rendered).copied();
            assert_eq!(*reused, earlier, "{rendered}");
            first.entry(rendered).or_insert(q.id());
        }
        assert_eq!(first.len(), 200);
        assert_eq!(plan.reused_plans(), 9_800);
    }

    #[test]
    fn family_workload_is_deterministic() {
        let cfg = FamilyWorkloadConfig {
            queries: 30,
            ..Default::default()
        };
        let a = generate_family_workload(&cfg);
        let b = generate_family_workload(&cfg);
        for (qa, qb) in a.queries().iter().zip(b.queries()) {
            assert_eq!(qa.signature(), qb.signature());
            assert_eq!(
                format!("{:?}", qa.predicates()),
                format!("{:?}", qb.predicates())
            );
        }
    }

    #[test]
    fn family_variants_partition_the_band_domain() {
        let cfg = FamilyWorkloadConfig {
            queries: 8,
            families: 2,
            variants_per_family: 4,
            band_domain: 100,
            ..Default::default()
        };
        let w = generate_family_workload(&cfg);
        // Every query carries the two band predicates on prim 0.
        for q in w.queries() {
            let bands: Vec<_> = q
                .predicates()
                .iter()
                .filter(|p| {
                    matches!(
                        p.expr,
                        muse_core::query::PredicateExpr::UnaryConst { attr, .. }
                            if attr == BAND_ATTR
                    )
                })
                .collect();
            assert_eq!(bands.len(), 2, "query {:?}", q.id());
        }
    }

    #[test]
    fn trees_alternate_kinds() {
        // Build many queries and ensure none violates the nesting rule
        // (Query::build would reject, so reaching here is the assertion).
        for seed in 0..20 {
            let _ = generate_workload(&WorkloadConfig {
                seed,
                ..Default::default()
            });
        }
    }
}

//! The multi-query extension of aMuSE (§6.2 of the paper).
//!
//! For a workload `Q`, aMuSE runs sequentially per query. After each query's
//! MuSE graph is fixed, its network transmissions are registered: a later
//! query that needs the *same stream* (identical projection structure over
//! event types, identical predicates, identical covered bindings, identical
//! endpoints) reuses it at zero cost. This realizes both reuse rules of the
//! paper — projections already placed at a node, and event types already
//! disseminated to a node — because both are transmissions of some
//! projection's matches to some node.

use crate::algorithms::amuse::{amuse_with_table, AMuseConfig, ConstructionStats};
use crate::error::Result;
use crate::event::Value;
use crate::graph::{MuseGraph, PlanContext, SharedTransmissions, Vertex};
use crate::network::Network;
use crate::projection::{ProjId, ProjectionTable};
use crate::query::{PredicateExpr, Query};
use crate::types::QueryId;
use crate::workload::Workload;
use std::collections::HashMap;

/// The result of planning a whole workload.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    /// One MuSE graph per query, in workload order.
    pub graphs: Vec<MuseGraph>,
    /// Sinks per query.
    pub sinks: Vec<Vec<Vertex>>,
    /// The union of all per-query graphs (the deployable plan).
    pub merged: MuseGraph,
    /// Projection arena shared by all graphs.
    pub table: ProjectionTable,
    /// Marginal cost per query (cost given the streams established by
    /// earlier queries).
    pub per_query_cost: Vec<f64>,
    /// Total workload cost: the sum of marginal costs — the rate of
    /// *distinct* streams crossing the network.
    pub total_cost: f64,
    /// Construction statistics per query.
    pub stats: Vec<ConstructionStats>,
    /// Per query: the earlier query whose plan this one structurally
    /// reuses (`None` for freshly constructed plans). A reused plan is the
    /// representative's graph re-labeled onto this query's projections:
    /// identical structure, identical streams, zero marginal cost. The
    /// deployment layer collapses such structurally identical vertices
    /// into shared physical tasks.
    pub plan_reuse: Vec<Option<QueryId>>,
}

impl WorkloadPlan {
    /// Total network cost of the workload plan.
    pub fn cost(&self) -> f64 {
        self.total_cost
    }

    /// Number of queries whose plan was structurally reused from an
    /// earlier query rather than constructed.
    pub fn reused_plans(&self) -> usize {
        self.plan_reuse.iter().filter(|r| r.is_some()).count()
    }
}

/// Canonical structural key of a query: operator tree rendered over event
/// types, the window, and the full predicate list. Equal keys imply
/// identical type trees (hence identical left-to-right prim numbering) and
/// identical predicates over those prims — the queries are
/// indistinguishable to the planner, so one plan serves both.
///
/// The key is an unambiguous byte encoding: ids as integers, numbers by
/// their bits (every NaN alike), and the tree signature and string
/// constants length-prefixed, so that no constant can forge a field
/// boundary.
fn structural_key(query: &Query) -> Vec<u8> {
    // Order-preserving: the canonical `signature` sorts AND/OR children, so
    // equal canonical signatures do NOT imply equal prim numbering — and the
    // relabeling below maps prim ids of the representative's plan directly
    // onto the duplicate.
    let tree = query.root().tree_signature(query.prim_types());
    let mut key = Vec::with_capacity(tree.len() + 16 + 32 * query.predicates().len());
    push_bytes(&mut key, tree.as_bytes());
    key.extend(query.window().to_le_bytes());
    // Each predicate's encoding is self-delimiting, so the list needs no
    // count: it runs to the end of the key.
    for p in query.predicates() {
        match &p.expr {
            PredicateExpr::UnaryConst {
                prim,
                attr,
                op,
                value,
            } => {
                key.extend([0, prim.0, attr.0, *op as u8]);
                match value {
                    Value::Int(v) => {
                        key.push(0);
                        key.extend(v.to_le_bytes());
                    }
                    Value::Float(f) => {
                        key.push(1);
                        push_f64(&mut key, *f);
                    }
                    Value::Str(s) => {
                        key.push(2);
                        push_bytes(&mut key, s.as_bytes());
                    }
                }
            }
            PredicateExpr::BinaryAttr {
                left_prim,
                left_attr,
                op,
                right_prim,
                right_attr,
            } => key.extend([
                1,
                left_prim.0,
                left_attr.0,
                *op as u8,
                right_prim.0,
                right_attr.0,
            ]),
        }
        push_f64(&mut key, p.selectivity);
    }
    key
}

/// Appends a length-prefixed byte string to a structural key.
fn push_bytes(key: &mut Vec<u8>, bytes: &[u8]) {
    key.extend((bytes.len() as u64).to_le_bytes());
    key.extend_from_slice(bytes);
}

/// Appends an `f64` to a structural key by its bits. `-0.0` and `0.0`
/// stay apart; every NaN is one value, since a NaN's sign and payload bits
/// mean nothing to the planner.
fn push_f64(key: &mut Vec<u8>, f: f64) {
    let f = if f.is_nan() { f64::NAN } else { f };
    key.extend(f.to_bits().to_le_bytes());
}

/// Re-labels a representative query's graph onto a structurally identical
/// query: every vertex `(p, n)` becomes `(π(dup, prims(p)), n)`.
///
/// `π(dup, prims(p))` is `p` itself with `source` set to `dup`: equal
/// structural keys mean an equal type tree, prim numbering, predicate list
/// and window, so [`crate::projection::project`] would derive the same
/// tree, predicate indices, selectivity and stream signature. The copies
/// are interned in vertex order, the order `project_into` would have
/// issued their ids in.
fn relabel_plan(
    graph: &MuseGraph,
    sinks: &[Vertex],
    table: &mut ProjectionTable,
    dup: &Query,
) -> (MuseGraph, Vec<Vertex>) {
    let mut relabeled: HashMap<ProjId, ProjId> = HashMap::new();
    let mut g = MuseGraph::new();
    for v in graph.vertices() {
        let proj = *relabeled.entry(v.proj).or_insert_with(|| {
            let mut p = table.get(v.proj).clone();
            p.source = dup.id();
            table.insert(p)
        });
        g.add_vertex(Vertex::new(proj, v.node));
    }
    let map = |v: Vertex| Vertex::new(relabeled[&v.proj], v.node);
    for (a, b) in graph.edges() {
        g.add_edge(map(a), map(b));
    }
    let new_sinks = sinks.iter().map(|&v| map(v)).collect();
    (g, new_sinks)
}

/// Plans a workload with aMuSE, reusing projections and event streams
/// already disseminated by earlier queries. Queries that are structurally
/// identical to an earlier one (same type tree, predicates, and window)
/// skip construction entirely: the earlier plan is re-labeled onto their
/// projections at zero marginal cost, keeping planning time proportional
/// to the number of *distinct* query structures rather than the workload
/// size.
pub fn amuse_workload(
    workload: &Workload,
    network: &Network,
    config: &AMuseConfig,
) -> Result<WorkloadPlan> {
    let mut table = ProjectionTable::new();
    let mut shared = SharedTransmissions::new();
    let mut graphs: Vec<MuseGraph> = Vec::with_capacity(workload.len());
    let mut sinks: Vec<Vec<Vertex>> = Vec::with_capacity(workload.len());
    let mut per_query_cost = Vec::with_capacity(workload.len());
    let mut stats = Vec::with_capacity(workload.len());
    let mut plan_reuse = Vec::with_capacity(workload.len());
    let mut memo: HashMap<Vec<u8>, usize> = HashMap::new();

    for (qi, query) in workload.queries().iter().enumerate() {
        let key = structural_key(query);
        if let Some(&rep) = memo.get(&key) {
            // Structural duplicate: re-label the representative's plan.
            // Its streams are byte-identical and already established, so
            // the marginal cost is zero and nothing new is absorbed.
            let (graph, query_sinks) = relabel_plan(&graphs[rep], &sinks[rep], &mut table, query);
            graphs.push(graph);
            sinks.push(query_sinks);
            per_query_cost.push(0.0);
            stats.push(ConstructionStats::default());
            plan_reuse.push(Some(workload.queries()[rep].id()));
            continue;
        }
        memo.insert(key, qi);
        let (graph, query_sinks, cost, query_stats) = amuse_with_table(
            query,
            workload.queries(),
            network,
            config,
            &mut table,
            Some(&shared),
        )?;
        {
            let ctx = PlanContext::new(workload.queries(), network, &table);
            shared.absorb(&graph, &ctx);
        }
        graphs.push(graph);
        sinks.push(query_sinks);
        per_query_cost.push(cost);
        stats.push(query_stats);
        plan_reuse.push(None);
    }

    let mut merged = MuseGraph::new();
    for g in &graphs {
        merged.union_with(g);
    }
    let total_cost = per_query_cost.iter().sum();
    Ok(WorkloadPlan {
        graphs,
        sinks,
        merged,
        table,
        per_query_cost,
        total_cost,
        stats,
        plan_reuse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::amuse::amuse;
    use crate::catalog::Catalog;
    use crate::network::NetworkBuilder;
    use crate::query::{CmpOp, Pattern, Predicate};
    use crate::types::{AttrId, EventTypeId, NodeId, PrimId};

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn network() -> Network {
        NetworkBuilder::new(4, 4)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1), t(3)])
            .node(n(3), [t(2), t(3)])
            .rate(t(0), 100.0)
            .rate(t(1), 80.0)
            .rate(t(2), 1.0)
            .rate(t(3), 2.0)
            .build()
    }

    fn pred(a: u8, b: u8, sel: f64) -> Predicate {
        Predicate::binary(
            (PrimId(a), AttrId(0)),
            CmpOp::Eq,
            (PrimId(b), AttrId(0)),
            sel,
        )
    }

    /// Two queries sharing the sub-pattern SEQ(A, B) with equal predicates.
    fn related_workload() -> Workload {
        let catalog = Catalog::with_anonymous_types(4);
        Workload::from_patterns(
            catalog,
            [
                (
                    Pattern::seq([
                        Pattern::leaf(t(0)),
                        Pattern::leaf(t(1)),
                        Pattern::leaf(t(2)),
                    ]),
                    vec![pred(0, 1, 0.01)],
                    1000,
                ),
                (
                    Pattern::seq([
                        Pattern::leaf(t(0)),
                        Pattern::leaf(t(1)),
                        Pattern::leaf(t(3)),
                    ]),
                    vec![pred(0, 1, 0.01)],
                    1000,
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn workload_plan_is_correct_per_query() {
        let net = network();
        let w = related_workload();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        assert_eq!(plan.graphs.len(), 2);
        for (i, g) in plan.graphs.iter().enumerate() {
            let query = &w.queries()[i..=i];
            let ctx = PlanContext::new(query, &net, &plan.table);
            // Well-formedness of the per-query graph w.r.t. its own query.
            g.check_well_formed(&ctx).unwrap();
            g.check_complete(&ctx, 100_000).unwrap();
        }
    }

    #[test]
    fn reuse_makes_total_cheaper_than_independent_sum() {
        let net = network();
        let w = related_workload();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        let independent: f64 = w
            .queries()
            .iter()
            .map(|q| amuse(q, &net, &AMuseConfig::default()).unwrap().cost)
            .sum();
        assert!(
            plan.total_cost <= independent + 1e-9,
            "with reuse {} > independent {independent}",
            plan.total_cost
        );
        // The queries share the SEQ(A, B) sub-pattern with identical
        // predicates, so the second query's marginal cost must be strictly
        // lower than its standalone cost.
        let standalone_q1 = amuse(&w.queries()[1], &net, &AMuseConfig::default())
            .unwrap()
            .cost;
        assert!(
            plan.per_query_cost[1] < standalone_q1 + 1e-9,
            "marginal {} vs standalone {standalone_q1}",
            plan.per_query_cost[1]
        );
    }

    #[test]
    fn merged_graph_contains_all_queries() {
        let net = network();
        let w = related_workload();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        for g in &plan.graphs {
            for v in g.vertices() {
                assert!(plan.merged.contains_vertex(v));
            }
        }
        assert_eq!(plan.sinks.len(), 2);
        assert_eq!(plan.per_query_cost.len(), 2);
        assert!((plan.cost() - plan.per_query_cost.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn duplicate_queries_reuse_plans_at_zero_cost() {
        let catalog = Catalog::with_anonymous_types(4);
        let pat = || {
            Pattern::seq([
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
                Pattern::leaf(t(2)),
            ])
        };
        let w = Workload::from_patterns(
            catalog,
            [
                (pat(), vec![pred(0, 1, 0.01)], 1000),
                (pat(), vec![pred(0, 1, 0.01)], 1000),
                // Same structure, different window: must NOT be reused.
                (pat(), vec![pred(0, 1, 0.01)], 2000),
            ],
        )
        .unwrap();
        let net = network();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        assert_eq!(plan.plan_reuse[0], None);
        assert_eq!(plan.plan_reuse[1], Some(w.queries()[0].id()));
        assert_eq!(plan.plan_reuse[2], None);
        assert_eq!(plan.reused_plans(), 1);
        assert_eq!(plan.per_query_cost[1], 0.0);
        // The relabeled plan is well-formed and complete for its own query.
        let query = &w.queries()[1..=1];
        let ctx = PlanContext::new(query, &net, &plan.table);
        plan.graphs[1].check_well_formed(&ctx).unwrap();
        plan.graphs[1].check_complete(&ctx, 100_000).unwrap();
        // Structure mirrors the representative node-for-node.
        assert_eq!(plan.graphs[1].num_vertices(), plan.graphs[0].num_vertices());
    }

    /// A reused plan copies its representative's projections instead of
    /// deriving them: each copy must equal `project(dup, prims)` field for
    /// field, and the copies must be interned in the duplicate's vertex
    /// order, vertex for vertex the representative's.
    #[test]
    fn relabeled_projections_equal_derived_ones() {
        let catalog = Catalog::with_anonymous_types(4);
        let unary = |p: u8| {
            Predicate::unary(
                PrimId(p),
                AttrId(1),
                CmpOp::Ge,
                crate::event::Value::Int(5),
                0.5,
            )
        };
        let seq = || {
            (
                Pattern::seq([
                    Pattern::leaf(t(0)),
                    Pattern::leaf(t(1)),
                    Pattern::leaf(t(2)),
                ]),
                vec![pred(0, 1, 0.01), unary(2)],
                1000,
            )
        };
        let and = || {
            (
                Pattern::and([
                    Pattern::leaf(t(3)),
                    Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                ]),
                vec![pred(1, 2, 0.05)],
                500,
            )
        };
        let nseq = || {
            (
                Pattern::seq([
                    Pattern::nseq(
                        Pattern::leaf(t(0)),
                        Pattern::leaf(t(2)),
                        Pattern::leaf(t(1)),
                    ),
                    Pattern::leaf(t(3)),
                ]),
                vec![pred(0, 2, 0.1)],
                800,
            )
        };
        let w =
            Workload::from_patterns(catalog, [seq(), and(), seq(), nseq(), and(), nseq(), seq()])
                .unwrap();
        let net = network();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        assert_eq!(plan.reused_plans(), 4);
        for (i, query) in w.queries().iter().enumerate() {
            let Some(rep) = plan.plan_reuse[i] else {
                continue;
            };
            let rep_graph = &plan.graphs[rep.index()];
            let dup_graph = &plan.graphs[i];
            let rep_verts: Vec<Vertex> = rep_graph.vertices().collect();
            let dup_verts: Vec<Vertex> = dup_graph.vertices().collect();
            assert_eq!(rep_verts.len(), dup_verts.len());
            // Ids are issued in vertex order, as deriving each projection
            // issued them: the duplicate's distinct projections, in order of
            // first appearance, hold consecutive ids.
            let mut firsts: Vec<ProjId> = Vec::new();
            for d in &dup_verts {
                if !firsts.contains(&d.proj) {
                    firsts.push(d.proj);
                }
            }
            let consecutive: Vec<ProjId> = (firsts[0].0..).take(firsts.len()).map(ProjId).collect();
            assert_eq!(firsts, consecutive, "Q{i}: ids out of vertex order");
            for (r, d) in rep_verts.iter().zip(&dup_verts) {
                let copy = plan.table.get(d.proj);
                assert_eq!(d.node, r.node);
                assert_eq!(copy.prims, plan.table.get(r.proj).prims);
                assert_eq!(
                    *copy,
                    crate::projection::project(query, copy.prims).unwrap(),
                    "Q{i}: copied projection of {:?} differs from the derived one",
                    copy.prims
                );
            }
            let sinks = |v: &[Vertex]| -> Vec<_> {
                v.iter()
                    .map(|s| (plan.table.get(s.proj).prims, s.node))
                    .collect()
            };
            assert_eq!(sinks(&plan.sinks[i]), sinks(&plan.sinks[rep.index()]));
            let edges = |g: &MuseGraph| -> Vec<_> {
                g.edges()
                    .map(|(a, b)| {
                        (
                            plan.table.get(a.proj).prims,
                            a.node,
                            plan.table.get(b.proj).prims,
                            b.node,
                        )
                    })
                    .collect()
            };
            assert_eq!(edges(dup_graph), edges(rep_graph));
        }
    }

    /// AND(t0,t2) and AND(t2,t0) canonicalize to the same signature, but
    /// their prim numbering differs — reusing one plan for the other would
    /// place the relabeled query's primitive vertices at the wrong producer
    /// nodes. The memo key must keep them apart, and both resulting plans
    /// must be correct for their own queries.
    #[test]
    fn reordered_and_children_are_not_structural_duplicates() {
        let catalog = Catalog::with_anonymous_types(4);
        let unary = |p: u8| {
            Predicate::unary(
                PrimId(p),
                AttrId(1),
                CmpOp::Ge,
                crate::event::Value::Int(5),
                0.5,
            )
        };
        let w = Workload::from_patterns(
            catalog,
            [
                (
                    Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(2))]),
                    vec![unary(0)],
                    1000,
                ),
                (
                    Pattern::and([Pattern::leaf(t(2)), Pattern::leaf(t(0))]),
                    vec![unary(0)],
                    1000,
                ),
            ],
        )
        .unwrap();
        let a = &w.queries()[0];
        let b = &w.queries()[1];
        assert_eq!(a.signature(), b.signature());
        let net = network();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        assert_eq!(plan.plan_reuse, vec![None, None]);
        for (i, g) in plan.graphs.iter().enumerate() {
            let query = &w.queries()[i..=i];
            let ctx = PlanContext::new(query, &net, &plan.table);
            g.check_well_formed(&ctx).unwrap();
            g.check_complete(&ctx, 100_000).unwrap();
        }
    }

    #[test]
    fn unrelated_queries_gain_nothing() {
        // Queries over disjoint types cannot share streams.
        let catalog = Catalog::with_anonymous_types(4);
        let w = Workload::from_patterns(
            catalog,
            [
                (
                    Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(2))]),
                    vec![pred(0, 1, 0.05)],
                    1000,
                ),
                (
                    Pattern::seq([Pattern::leaf(t(1)), Pattern::leaf(t(3))]),
                    vec![pred(0, 1, 0.05)],
                    1000,
                ),
            ],
        )
        .unwrap();
        let net = network();
        let plan = amuse_workload(&w, &net, &AMuseConfig::default()).unwrap();
        let independent: f64 = w
            .queries()
            .iter()
            .map(|q| amuse(q, &net, &AMuseConfig::default()).unwrap().cost)
            .sum();
        assert!((plan.total_cost - independent).abs() < 1e-6);
    }

    /// The structural key as a rendering of the tree signature, every
    /// predicate's `Debug` form and the window: the reference the byte key
    /// must agree with.
    fn debug_key(query: &Query) -> String {
        use std::fmt::Write as _;
        let mut s = query.root().tree_signature(query.prim_types());
        for p in query.predicates() {
            let _ = write!(s, ";{p:?}");
        }
        let _ = write!(s, ";w{}", query.window());
        s
    }

    /// Byte keys are equal exactly when `Debug` keys are, on queries that
    /// differ only in a string constant holding the separator or another
    /// predicate's encoding, in the sign of a zero, in NaN bits, or in the
    /// order of AND children.
    #[test]
    fn structural_keys_agree_with_debug_keys() {
        let unary =
            |value: Value, sel: f64| Predicate::unary(PrimId(0), AttrId(1), CmpOp::Eq, value, sel);
        let query = |pattern: Pattern, preds: Vec<Predicate>| {
            Query::build(QueryId(0), &pattern, preds, 1000).unwrap()
        };
        let seq = || Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(1))]);
        // Written without length prefixes, one predicate on this constant
        // would encode exactly as two: on "a" with selectivity `ascii`
        // (every byte `?`), then on "b".
        let ascii = f64::from_bits(0x3f3f_3f3f_3f3f_3f3f);
        let forged = format!("a{}\0\0\u{1}\0\u{2}b", "?".repeat(8));
        let queries = [
            query(seq(), vec![unary(Value::Str(forged), 0.5)]),
            query(
                seq(),
                vec![
                    unary(Value::Str("a".into()), ascii),
                    unary(Value::Str("b".into()), 0.5),
                ],
            ),
            query(seq(), vec![unary(Value::Str("a;b".into()), 0.5)]),
            query(
                seq(),
                vec![
                    unary(Value::Str("a".into()), 0.5),
                    unary(Value::Str("b".into()), 0.5),
                ],
            ),
            query(seq(), vec![unary(Value::Str("a;b".into()), 0.5)]),
            query(seq(), vec![unary(Value::Float(0.0), 0.5)]),
            query(seq(), vec![unary(Value::Float(-0.0), 0.5)]),
            query(seq(), vec![unary(Value::Int(0), 0.5)]),
            query(seq(), vec![unary(Value::Float(f64::NAN), 0.5)]),
            query(seq(), vec![unary(Value::Float(-f64::NAN), 0.5)]),
            query(
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                vec![pred(0, 1, 0.5)],
            ),
            query(
                Pattern::and([Pattern::leaf(t(1)), Pattern::leaf(t(0))]),
                vec![pred(0, 1, 0.5)],
            ),
            query(
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                vec![pred(0, 1, 0.5)],
            ),
        ];
        let mut equal_pairs = 0;
        for a in &queries {
            for b in &queries {
                let debug_equal = debug_key(a) == debug_key(b);
                assert_eq!(
                    structural_key(a) == structural_key(b),
                    debug_equal,
                    "{} vs {}",
                    debug_key(a),
                    debug_key(b)
                );
                equal_pairs += usize::from(debug_equal);
            }
        }
        // The diagonal, both orders of the repeated `a;b` and AND(t0, t1)
        // queries, and of the two NaNs.
        assert_eq!(equal_pairs, queries.len() + 6);
    }
}

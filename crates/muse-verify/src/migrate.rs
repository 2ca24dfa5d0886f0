//! Plan-diff migration-safety pass (the `MG025x` family).
//!
//! Given two placed MuSE graphs A (the running plan, whose snapshot exists)
//! and B (the replacement), this pass statically decides which parts of a
//! [`Snapshot`](../muse_runtime/checkpoint) can be mapped from A's tasks
//! onto B's tasks — before any executor runs. The unit of correspondence is
//! the *physical task* after shared-vertex collapse: vertices with equal
//! `(node, stream_sig, prims, window)` evaluate as one task, exactly
//! mirroring `Deployment::build`.
//!
//! Correspondence is keyed on the order-preserving *structure* of a vertex
//! — `(node, tree_signature, prims, predecessor slots)` — deliberately
//! excluding the window and the predicates, so that an edited query still
//! matches its old vertex and the edit itself can be diagnosed:
//!
//! * equal window, equivalent predicates (interval-domain equivalence, so
//!   reordered or redundant predicate lists still qualify), equal sink
//!   attribution → **MG0250** portable: join buffers, watermarks, and
//!   dedup state carry over unchanged;
//! * widened window → **MG0251** portable-with-replay: buffers carry over
//!   but events inside the widened horizon were already evicted;
//! * narrowed window → **MG0252** unsafe: carried buffers would hold
//!   partial matches older than the new window;
//! * changed predicates → **MG0253** unsafe: carried buffers and in-flight
//!   frames hold events the new predicate set never admitted;
//! * changed sink attribution → **MG0254** unsafe: per-query delivered-
//!   match state cannot be re-attributed.
//!
//! Unmatched vertices split by whether their queries survive: a surviving
//! query losing a vertex is **MG0255** (its state has nowhere to go), a
//! vertex that moved node or is newly added for a surviving query is
//! **MG0256** (cold start), and whole queries disappearing or appearing are
//! **MG0257**/**MG0258** (state dropped / cold start, both benign).
//!
//! The decision ships as a typed [`MigrationPlan`] of per-task
//! [`TaskAction`]s, consumed by `muse-runtime`'s
//! `checkpoint::map_snapshot` to actually carry the state across.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::domain::PredAbstract;
use muse_core::event::{Timestamp, Value};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::query::{Predicate, PredicateExpr};
use muse_core::types::{NodeId, PrimSet, QueryId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How the state of one physical task moves across the migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarryMode {
    /// Old task state restores into the new task unchanged.
    Carry,
    /// State restores, but the widened window horizon must be replayed for
    /// completeness.
    Replay,
    /// The new task starts with empty state.
    Fresh,
    /// The old task's state is discarded (its queries were removed).
    Drop,
}

/// Identity of a physical task within a deployment: the shared-collapse key
/// `(node, stream_sig, prims, window)` that `Deployment::build` dedupes on.
/// Computable identically from a verifier-side vertex profile and from a
/// runtime-side `TaskSpec`, which is what lets a [`MigrationPlan`] produced
/// here drive `map_snapshot` over there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskKey {
    /// Hosting node.
    pub node: NodeId,
    /// Output stream identity (tree + predicates).
    pub stream_sig: u64,
    /// Retained primitive set, as bits.
    pub prims: u64,
    /// The owning query's window.
    pub window: Timestamp,
}

/// One per-task migration decision.
#[derive(Debug, Clone)]
pub struct TaskAction {
    /// The old task the state comes from (`None` for added tasks).
    pub from: Option<TaskKey>,
    /// The new task the state goes to (`None` for dropped tasks).
    pub to: Option<TaskKey>,
    /// How the state moves.
    pub mode: CarryMode,
    /// Human-readable task description (structure `@` node).
    pub detail: String,
}

/// The typed outcome of the migration pass.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// `true` when no `Error`-severity diagnostic was produced; only then
    /// may `map_snapshot` proceed.
    pub safe: bool,
    /// `true` when at least one action is [`CarryMode::Replay`] — the
    /// restored run is complete only after replaying the widened horizon.
    pub needs_replay: bool,
    /// Number of matched physical-task pairs.
    pub matched: usize,
    /// Per-task decisions, in plan order (old plan first, then additions).
    pub actions: Vec<TaskAction>,
    /// Queries present in A but not in B.
    pub dropped_queries: Vec<QueryId>,
    /// Queries present in B but not in A.
    pub added_queries: Vec<QueryId>,
}

/// Optional source spans of plan B's query text, for caret-rendered
/// diagnostics: byte ranges into the concatenated new-query source buffer.
#[derive(Debug, Clone, Default)]
pub struct MigrationSpans {
    /// Per new-plan query: spans of its text regions.
    pub per_query: BTreeMap<QueryId, QuerySpanInfo>,
}

/// Span regions of one query's text.
#[derive(Debug, Clone)]
pub struct QuerySpanInfo {
    /// The whole query.
    pub all: Span,
    /// The `WITHIN` clause, when present.
    pub window: Option<Span>,
    /// One span per predicate, in declaration order.
    pub predicates: Vec<Span>,
}

/// A physical task of one plan, after shared-vertex collapse.
struct Profile {
    /// Correspondence key: node, order-preserving tree signature, retained
    /// prims, predecessor slot layout. Window and predicates are excluded
    /// so edits still match.
    node: NodeId,
    tree: String,
    prims: PrimSet,
    slots: Vec<PrimSet>,
    /// The runtime-side shared-collapse key.
    task_key: TaskKey,
    window: Timestamp,
    preds: PredAbstract,
    pred_text: Vec<String>,
    /// Queries whose logical vertices collapsed onto this task.
    queries: BTreeSet<QueryId>,
    /// Queries this task delivers matches for.
    sinks: BTreeSet<QueryId>,
    label: String,
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("{s:?}"),
    }
}

fn render_pred(p: &Predicate) -> String {
    match &p.expr {
        PredicateExpr::UnaryConst {
            prim,
            attr,
            op,
            value,
        } => format!(
            "p{}.a{} {} {}",
            prim.0,
            attr.0,
            op.symbol(),
            render_value(value)
        ),
        PredicateExpr::BinaryAttr {
            left_prim,
            left_attr,
            op,
            right_prim,
            right_attr,
        } => format!(
            "p{}.a{} {} p{}.a{}",
            left_prim.0,
            left_attr.0,
            op.symbol(),
            right_prim.0,
            right_attr.0
        ),
    }
}

/// Collapses a placed graph into physical-task profiles, mirroring
/// `Deployment::build`: first vertex per
/// `(node, stream_sig, prims, window)` owns the task and its slot layout,
/// later structural twins only contribute their query and sink attribution.
fn build_profiles(graph: &MuseGraph, ctx: &PlanContext<'_>) -> Vec<Profile> {
    let mut profiles: Vec<Profile> = Vec::new();
    let mut by_key: HashMap<(NodeId, u64, PrimSet, Timestamp), usize> = HashMap::new();
    for v in graph.vertices() {
        let proj = ctx.proj(v.proj);
        let query = ctx.query_of(v.proj);
        let key = (v.node, proj.stream_sig, proj.prims, query.window());
        let is_sink = proj.is_full_query(query);
        if let Some(&i) = by_key.get(&key) {
            profiles[i].queries.insert(proj.source);
            if is_sink {
                profiles[i].sinks.insert(proj.source);
            }
            continue;
        }
        by_key.insert(key, profiles.len());
        let mut slots: Vec<PrimSet> = graph
            .predecessors(v)
            .iter()
            .map(|p| ctx.proj(p.proj).prims)
            .collect();
        slots.sort();
        slots.dedup();
        let tree = proj.structure_sig(query);
        let label = format!("{}@N{}", tree, v.node.0);
        profiles.push(Profile {
            node: v.node,
            tree,
            prims: proj.prims,
            slots,
            task_key: TaskKey {
                node: v.node,
                stream_sig: proj.stream_sig,
                prims: proj.prims.bits(),
                window: query.window(),
            },
            window: query.window(),
            preds: PredAbstract::from_indices(query, &proj.predicates),
            pred_text: proj
                .predicates
                .iter()
                .filter_map(|&i| query.predicates().get(i).map(render_pred))
                .collect(),
            queries: BTreeSet::from([proj.source]),
            sinks: if is_sink {
                BTreeSet::from([proj.source])
            } else {
                BTreeSet::new()
            },
            label,
        });
    }
    profiles
}

fn query_ids(ctx: &PlanContext<'_>) -> BTreeSet<QueryId> {
    ctx.queries.iter().map(|q| q.id()).collect()
}

fn fmt_queries(qs: &BTreeSet<QueryId>) -> String {
    let items: Vec<String> = qs.iter().map(|q| format!("{q:?}")).collect();
    format!("{{{}}}", items.join(", "))
}

/// Picks the caret span for a diagnostic about a matched/new vertex: the
/// most specific region of the smallest surviving query the task serves.
fn span_for(
    spans: Option<&MigrationSpans>,
    profile: &Profile,
    region: fn(&QuerySpanInfo) -> Option<Span>,
) -> Option<Span> {
    let spans = spans?;
    let q = profile
        .sinks
        .iter()
        .chain(profile.queries.iter())
        .find(|q| spans.per_query.contains_key(q))?;
    let info = spans.per_query.get(q)?;
    region(info).or(Some(info.all))
}

/// Runs the plan-diff migration-safety pass: diagnostics into the returned
/// [`Report`] (sorted by severity, `MG025x` codes), the typed decision as a
/// [`MigrationPlan`]. `spans`, when given, attaches plan-B source spans for
/// caret rendering.
pub fn verify_migration(
    a_graph: &MuseGraph,
    a_ctx: &PlanContext<'_>,
    b_graph: &MuseGraph,
    b_ctx: &PlanContext<'_>,
    spans: Option<&MigrationSpans>,
) -> (Report, MigrationPlan) {
    let mut report = Report::new();
    let mut plan = MigrationPlan::default();

    let a_profiles = build_profiles(a_graph, a_ctx);
    let b_profiles = build_profiles(b_graph, b_ctx);
    let a_queries = query_ids(a_ctx);
    let b_queries = query_ids(b_ctx);
    plan.dropped_queries = a_queries.difference(&b_queries).copied().collect();
    plan.added_queries = b_queries.difference(&a_queries).copied().collect();

    // Primary correspondence: identical structural key. Within a key group
    // (same structure, different window or predicates — e.g. two variants
    // of one query family at the same node) prefer the candidate that
    // needs the least work: same window and equivalent predicates first,
    // then same window, then declaration order.
    type Key = (NodeId, String, PrimSet, Vec<PrimSet>);
    let key_of = |p: &Profile| -> Key { (p.node, p.tree.clone(), p.prims, p.slots.clone()) };
    let mut b_free: HashMap<Key, Vec<usize>> = HashMap::new();
    for (i, p) in b_profiles.iter().enumerate() {
        b_free.entry(key_of(p)).or_default().push(i);
    }
    let mut b_matched = vec![false; b_profiles.len()];
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut a_unmatched: Vec<usize> = Vec::new();
    for (ai, pa) in a_profiles.iter().enumerate() {
        let Some(cands) = b_free.get_mut(&key_of(pa)) else {
            a_unmatched.push(ai);
            continue;
        };
        let pick = cands
            .iter()
            .position(|&bi| {
                let pb = &b_profiles[bi];
                pb.window == pa.window && pb.preds.equivalent(&pa.preds) && pb.sinks == pa.sinks
            })
            .or_else(|| {
                cands
                    .iter()
                    .position(|&bi| b_profiles[bi].window == pa.window)
            })
            .unwrap_or(0);
        if cands.is_empty() {
            a_unmatched.push(ai);
            continue;
        }
        let bi = cands.remove(pick);
        b_matched[bi] = true;
        pairs.push((ai, bi));
    }

    // Secondary pass: same structure at a different node — a placement
    // move. State does not follow the move (in-flight frames address the
    // old node), so the new task starts cold.
    let mut moved: Vec<(usize, usize)> = Vec::new();
    let mut a_lost: Vec<usize> = Vec::new();
    for &ai in &a_unmatched {
        let pa = &a_profiles[ai];
        let found = b_profiles.iter().enumerate().find(|(bi, pb)| {
            !b_matched[*bi]
                && pb.tree == pa.tree
                && pb.prims == pa.prims
                && pb.slots == pa.slots
                && pb.node != pa.node
        });
        match found {
            Some((bi, _)) => {
                b_matched[bi] = true;
                moved.push((ai, bi));
            }
            None => a_lost.push(ai),
        }
    }

    plan.matched = pairs.len();
    for (ai, bi) in pairs {
        let pa = &a_profiles[ai];
        let pb = &b_profiles[bi];
        let mut errors = false;
        if !pb.preds.equivalent(&pa.preds) {
            errors = true;
            let d = Diagnostic::new(
                Code::MigrationPredicatesChanged,
                format!(
                    "task {}: predicates changed ([{}] -> [{}]); carried join buffers and \
                     in-flight frames hold events the new predicate set never admitted — \
                     state cannot carry over",
                    pb.label,
                    pa.pred_text.join(", "),
                    pb.pred_text.join(", ")
                ),
            );
            match span_for(spans, pb, |i| i.predicates.first().copied()) {
                Some(s) => report.push(d.with_span(s)),
                None => report.push(d),
            }
        }
        if pb.sinks != pa.sinks {
            errors = true;
            let d = Diagnostic::new(
                Code::MigrationSinksChanged,
                format!(
                    "task {}: sink attribution changed {} -> {}; per-query delivered-match \
                     dedup state cannot be re-attributed",
                    pb.label,
                    fmt_queries(&pa.sinks),
                    fmt_queries(&pb.sinks)
                ),
            );
            match span_for(spans, pb, |i| Some(i.all)) {
                Some(s) => report.push(d.with_span(s)),
                None => report.push(d),
            }
        }
        let mode = match pb.window.cmp(&pa.window) {
            std::cmp::Ordering::Less => {
                errors = true;
                let d = Diagnostic::new(
                    Code::MigrationWindowNarrowed,
                    format!(
                        "task {}: window narrowed {} -> {}; carried join buffers would hold \
                         partial matches older than the new window and the carried watermark \
                         would admit stale joins — join buffers and watermarks cannot carry \
                         over",
                        pb.label, pa.window, pb.window
                    ),
                );
                match span_for(spans, pb, |i| i.window) {
                    Some(s) => report.push(d.with_span(s)),
                    None => report.push(d),
                }
                CarryMode::Fresh
            }
            std::cmp::Ordering::Greater => {
                let d = Diagnostic::new(
                    Code::MigrationReplay,
                    format!(
                        "task {}: window widened {} -> {}; join buffers and watermarks carry \
                         over, but events inside the widened horizon were already evicted — \
                         replay the last {} time units to restore completeness",
                        pb.label, pa.window, pb.window, pb.window
                    ),
                );
                match span_for(spans, pb, |i| i.window) {
                    Some(s) => report.push(d.with_span(s)),
                    None => report.push(d),
                }
                CarryMode::Replay
            }
            std::cmp::Ordering::Equal => CarryMode::Carry,
        };
        let mode = if errors { CarryMode::Fresh } else { mode };
        if !errors && mode == CarryMode::Carry {
            report.push(Diagnostic::new(
                Code::MigrationPortable,
                format!(
                    "task {}: state carries over unchanged (join buffers, watermarks, \
                     delivered-match dedup)",
                    pb.label
                ),
            ));
        }
        plan.needs_replay |= mode == CarryMode::Replay;
        plan.actions.push(TaskAction {
            from: Some(pa.task_key),
            to: Some(pb.task_key),
            mode,
            detail: pb.label.clone(),
        });
    }

    for (ai, bi) in moved {
        let pa = &a_profiles[ai];
        let pb = &b_profiles[bi];
        let d = Diagnostic::new(
            Code::MigrationVertexFresh,
            format!(
                "task {} moved N{} -> N{}; join state does not follow a placement change \
                 (in-flight frames address the old node) — the new task starts cold",
                pa.tree, pa.node.0, pb.node.0
            ),
        );
        match span_for(spans, pb, |i| Some(i.all)) {
            Some(s) => report.push(d.with_span(s)),
            None => report.push(d),
        }
        plan.actions.push(TaskAction {
            from: Some(pa.task_key),
            to: Some(pb.task_key),
            mode: CarryMode::Fresh,
            detail: pb.label.clone(),
        });
    }

    for ai in a_lost {
        let pa = &a_profiles[ai];
        let surviving: BTreeSet<QueryId> = pa
            .queries
            .iter()
            .filter(|q| b_queries.contains(q))
            .copied()
            .collect();
        if surviving.is_empty() {
            // All owning queries were removed; covered by MG0257 below.
            plan.actions.push(TaskAction {
                from: Some(pa.task_key),
                to: None,
                mode: CarryMode::Drop,
                detail: pa.label.clone(),
            });
        } else {
            report.push(Diagnostic::new(
                Code::MigrationVertexLost,
                format!(
                    "task {} of surviving {} {} has no correspondent in the new plan; its \
                     join buffers and in-flight frames would be silently dropped",
                    pa.label,
                    if surviving.len() == 1 {
                        "query"
                    } else {
                        "queries"
                    },
                    fmt_queries(&surviving)
                ),
            ));
            plan.actions.push(TaskAction {
                from: Some(pa.task_key),
                to: None,
                mode: CarryMode::Drop,
                detail: pa.label.clone(),
            });
        }
    }

    for (bi, pb) in b_profiles.iter().enumerate() {
        if b_matched[bi] {
            continue;
        }
        let surviving: BTreeSet<QueryId> = pb
            .queries
            .iter()
            .filter(|q| a_queries.contains(q))
            .copied()
            .collect();
        if !surviving.is_empty() {
            let d = Diagnostic::new(
                Code::MigrationVertexFresh,
                format!(
                    "new task {} for surviving {} {} starts cold; matches spanning the \
                     migration point may be missed until the window horizon is replayed",
                    pb.label,
                    if surviving.len() == 1 {
                        "query"
                    } else {
                        "queries"
                    },
                    fmt_queries(&surviving)
                ),
            );
            match span_for(spans, pb, |i| Some(i.all)) {
                Some(s) => report.push(d.with_span(s)),
                None => report.push(d),
            }
        }
        plan.actions.push(TaskAction {
            from: None,
            to: Some(pb.task_key),
            mode: CarryMode::Fresh,
            detail: pb.label.clone(),
        });
    }

    for q in &plan.dropped_queries {
        let tasks = a_profiles.iter().filter(|p| p.queries.contains(q)).count();
        report.push(Diagnostic::new(
            Code::MigrationQueryDropped,
            format!("query {q:?} removed: state of {tasks} task(s) is dropped"),
        ));
    }
    for q in &plan.added_queries {
        let d = Diagnostic::new(
            Code::MigrationQueryAdded,
            format!("query {q:?} added: its tasks start cold"),
        );
        match spans.and_then(|s| s.per_query.get(q)) {
            Some(info) => report.push(d.with_span(info.all)),
            None => report.push(d),
        }
    }

    report.sort();
    plan.safe = !report.has_errors();
    (report, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::prelude::*;

    /// Builds the paper's running workload over a 3-node network, with a
    /// per-query window and predicate knob: `SEQ(AND(C, L), F)` with an
    /// optional unary predicate on the F operator.
    fn make_plan(
        window: Timestamp,
        pred_bound: Option<i64>,
        extra_query: bool,
    ) -> (Vec<Query>, Network, ProjectionTable, MuseGraph) {
        let mut catalog = Catalog::new();
        let c = catalog.add_event_type("C").unwrap();
        let l = catalog.add_event_type("L").unwrap();
        let f = catalog.add_event_type("F").unwrap();
        let network = NetworkBuilder::new(3, 3)
            .node(NodeId(0), [c, f])
            .node(NodeId(1), [c, l])
            .node(NodeId(2), [l])
            .rate(c, 100.0)
            .rate(l, 100.0)
            .rate(f, 1.0)
            .build();
        let pattern = Pattern::seq([
            Pattern::and([Pattern::leaf(c), Pattern::leaf(l)]),
            Pattern::leaf(f),
        ]);
        let mut preds = Vec::new();
        if let Some(b) = pred_bound {
            preds.push(Predicate::unary(
                PrimId(2),
                AttrId(0),
                CmpOp::Gt,
                Value::Int(b),
                0.5,
            ));
        }
        let mut queries = vec![Query::build(QueryId(0), &pattern, preds, window).unwrap()];
        if extra_query {
            let p2 = Pattern::seq([Pattern::leaf(c), Pattern::leaf(f)]);
            queries.push(Query::build(QueryId(1), &p2, Vec::new(), 500).unwrap());
        }
        let workload = Workload::new(catalog, queries.clone()).unwrap();
        let plan = amuse_workload(&workload, &network, &AMuseConfig::default()).unwrap();
        (queries, network, plan.table, plan.merged)
    }

    fn run(
        a: &(Vec<Query>, Network, ProjectionTable, MuseGraph),
        b: &(Vec<Query>, Network, ProjectionTable, MuseGraph),
    ) -> (Report, MigrationPlan) {
        let actx = PlanContext::new(&a.0, &a.1, &a.2);
        let bctx = PlanContext::new(&b.0, &b.1, &b.2);
        verify_migration(&a.3, &actx, &b.3, &bctx, None)
    }

    #[test]
    fn identical_plans_are_portable() {
        let a = make_plan(1000, Some(5), false);
        let b = make_plan(1000, Some(5), false);
        let (report, plan) = run(&a, &b);
        assert!(plan.safe, "{report:?}");
        assert!(!plan.needs_replay);
        assert!(report.has_code(Code::MigrationPortable));
        assert!(!report.has_errors());
        assert!(plan.actions.iter().all(|a| a.mode == CarryMode::Carry));
        assert_eq!(plan.matched, plan.actions.len());
    }

    #[test]
    fn widened_window_needs_replay() {
        let a = make_plan(1000, None, false);
        let b = make_plan(2000, None, false);
        let (report, plan) = run(&a, &b);
        assert!(plan.safe, "{report:?}");
        assert!(plan.needs_replay);
        assert!(report.has_code(Code::MigrationReplay));
        assert!(!report.has_errors());
    }

    #[test]
    fn narrowed_window_is_unsafe() {
        let a = make_plan(1000, None, false);
        let b = make_plan(500, None, false);
        let (report, plan) = run(&a, &b);
        assert!(!plan.safe);
        assert!(report.has_code(Code::MigrationWindowNarrowed));
    }

    #[test]
    fn changed_predicates_are_unsafe() {
        let a = make_plan(1000, Some(5), false);
        let b = make_plan(1000, Some(7), false);
        let (report, plan) = run(&a, &b);
        assert!(!plan.safe);
        assert!(report.has_code(Code::MigrationPredicatesChanged));
    }

    #[test]
    fn added_and_dropped_queries_are_benign() {
        let a = make_plan(1000, None, false);
        let b = make_plan(1000, None, true);
        let (report, plan) = run(&a, &b);
        assert!(plan.safe, "{report:?}");
        assert!(report.has_code(Code::MigrationQueryAdded));
        assert_eq!(plan.added_queries, vec![QueryId(1)]);
        // And the reverse drops the query.
        let (report2, plan2) = run(&b, &a);
        assert!(plan2.safe, "{report2:?}");
        assert!(report2.has_code(Code::MigrationQueryDropped));
        assert_eq!(plan2.dropped_queries, vec![QueryId(1)]);
        assert!(plan2.actions.iter().any(|t| t.mode == CarryMode::Drop));
    }
}

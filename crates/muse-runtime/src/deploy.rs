//! Deployment: turning a MuSE graph into runnable per-node tasks and a
//! routing table.
//!
//! Every graph vertex `(p, n)` becomes a *task* at node `n`: a source task
//! for primitive projections (forwarding locally generated events of one
//! type, filtered by the projection's unary predicates) or a join task for
//! composite projections (combining predecessor match streams,
//! [`crate::matcher::JoinTask`]). Every graph edge becomes a *route*; routes
//! whose endpoints live on different nodes are network transmissions.
//! Routes into join slots that one node stores alike are grouped into
//! *inputs* ([`InputSpec`]): the unit a match is delivered to and stored as.
//!
//! The deployment owns copies of the workload queries so executors are
//! self-contained (no lifetimes into the planning structures).

use crate::matcher::join::{carried_prims, slot_key_terms, Term};
use crate::matcher::JoinTask;
use muse_core::event::{Event, Timestamp, Value};
use muse_core::graph::{MuseGraph, PlanContext, Vertex};
use muse_core::query::{CmpOp, PredicateExpr, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, PrimSet, QueryId};
use std::collections::HashMap;

/// How logically identical graph vertices map to physical tasks; an
/// argument of [`Deployment::unchecked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sharing {
    /// Structurally identical vertices — same node, same output stream
    /// identity ([`TaskSpec::stream_sig`]), same primitive set, and same
    /// query window — collapse into one physical task feeding every
    /// subscribed query's sinks through [`Deployment::sink_queries`]. The
    /// runtime analogue of the planner's §6.2 stream reuse.
    #[default]
    Shared,
}

/// A conservative interval constraint on one numeric payload attribute,
/// derived at deployment time from a source task's unary constant
/// predicates. An event whose attribute value falls outside `[lo, hi]` (or
/// that lacks the attribute, or carries a non-numeric value) cannot satisfy
/// the originating predicates, so the discrimination index prunes the task
/// from the event's candidate set without evaluating any predicate.
///
/// Bands are coarse by design: boundaries are closed even for strict
/// comparisons, and `Ne`/string predicates contribute no band of their own
/// (though a jointly unsatisfiable predicate set — decided in the sound
/// interval domain — yields the empty band `[+inf, -inf]`, rejecting every
/// event). Admission by the band is therefore necessary but not sufficient
/// — the full predicate list still runs on admitted events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// The constrained attribute.
    pub attr: AttrId,
    /// Inclusive lower bound (`-inf` when unconstrained from below).
    pub lo: f64,
    /// Inclusive upper bound (`+inf` when unconstrained from above).
    pub hi: f64,
}

/// One entry of the discrimination index: a source task plus the interval
/// bands an event must satisfy to possibly pass the task's predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCandidate {
    /// Index of the source task.
    pub task: usize,
    /// Conjunctive interval bands (at most one per attribute).
    pub bands: Vec<Band>,
}

impl SourceCandidate {
    /// Returns `true` if the event passes every band — i.e. the task's
    /// predicates *might* accept it. Allocation-free.
    #[inline]
    pub fn admits(&self, event: &Event) -> bool {
        for b in &self.bands {
            let v = match event.payload.get(b.attr) {
                Some(Value::Int(i)) => *i as f64,
                Some(Value::Float(f)) => *f,
                // Missing or non-numeric attribute: the banded predicate
                // compares against a numeric constant, which evaluates to
                // false for such events (see `Predicate::evaluate`).
                _ => return false,
            };
            if v < b.lo || v > b.hi {
                return false;
            }
        }
        true
    }
}

/// Folds a source task's unary constant predicates into per-attribute
/// interval bands, by evaluating them in `muse-verify`'s sound interval
/// abstract domain ([`muse_verify::AbsAttr`]) and coarsening the result.
///
/// A band is emitted only for attributes carrying at least one numeric
/// non-`Ne` constraint (such predicates reject non-numeric and absent
/// values, which is what [`SourceCandidate::admits`] enforces); open
/// interval endpoints coarsen to closed ones. When the abstract value is
/// *empty* — the predicate set is jointly unsatisfiable, including
/// mixed-type and puncture cases invisible to per-pair reasoning — the
/// attribute gets the canonical empty band `[+inf, -inf]`, pruning every
/// event before any predicate runs.
fn derive_bands(query: &Query, prim: PrimId, predicates: &[usize]) -> Vec<Band> {
    use muse_verify::AbsAttr;
    // (attr, abstract value, has a numeric non-Ne constraint)
    let mut abs: Vec<(AttrId, AbsAttr, bool)> = Vec::new();
    for &pi in predicates {
        let PredicateExpr::UnaryConst {
            prim: p,
            attr,
            op,
            value,
        } = &query.predicates()[pi].expr
        else {
            continue;
        };
        if *p != prim {
            continue;
        }
        let entry = match abs.iter_mut().position(|(a, _, _)| a == attr) {
            Some(i) => &mut abs[i],
            None => {
                abs.push((*attr, AbsAttr::top(), false));
                abs.last_mut().unwrap()
            }
        };
        entry.1.constrain(*op, value);
        if matches!(value, Value::Int(_) | Value::Float(_)) && *op != CmpOp::Ne {
            entry.2 = true;
        }
    }
    abs.into_iter()
        .filter_map(|(attr, a, numeric)| {
            if a.is_empty() {
                return Some(Band {
                    attr,
                    lo: f64::INFINITY,
                    hi: f64::NEG_INFINITY,
                });
            }
            numeric.then_some(Band {
                attr,
                lo: a.num.lo,
                hi: a.num.hi,
            })
        })
        .collect()
}

/// The role of a task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Forwards local events of one primitive operator's type.
    Source {
        /// The primitive operator.
        prim: PrimId,
        /// Its event type.
        ty: EventTypeId,
        /// Indices into the query's predicate list of unary predicates to
        /// apply at the source.
        predicates: Vec<usize>,
    },
    /// Joins predecessor match streams into matches of the projection.
    Join {
        /// Predecessor projections, one per input slot, sorted.
        slots: Vec<PrimSet>,
    },
}

/// One deployable task (a MuSE graph vertex).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// The originating graph vertex.
    pub vertex: Vertex,
    /// Semantic identity of the task's output stream (from
    /// [`muse_core::projection::Projection::stream_sig`]): two tasks with
    /// equal signatures at the same node emit the same matches up to their
    /// windows, so a destination node is charged for the stream once
    /// ([`Fanout::charged_nodes`]) — the runtime analogue of the planner's
    /// stream reuse.
    pub stream_sig: u64,
    /// Hosting node.
    pub node: NodeId,
    /// Index into [`Deployment::queries`] of the source query.
    pub query_idx: usize,
    /// Primitive operators of the hosted projection.
    pub prims: PrimSet,
    /// `true` if the task hosts the full query (a sink).
    pub is_sink: bool,
    /// The §4.4 modeled output rate `r̂(p) = σ(p) · r̂(root(p))` of the
    /// hosted projection, in matches per network rate unit — the reference
    /// the live cost-model drift monitor compares observed rates against.
    /// Derived from the network and excluded from the deployment
    /// fingerprint.
    pub modeled_rate: f64,
    /// The task's role.
    pub kind: TaskKind,
}

/// A routed output of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Index of the receiving task.
    pub target: usize,
    /// Input slot at the receiver.
    pub slot: usize,
    /// `true` if the edge crosses the network.
    pub remote: bool,
}

/// A join input: the matches a set of feeder tasks sends to one node, as
/// every join slot there that they feed and that keys stored matches on one
/// term reads them. Such slots receive the same matches in the same order
/// and would store identical entries, so a match is delivered to the input
/// once and, when two or more of its readers store it, stored once for all
/// of them ([`Deployment::shared_readers`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSpec {
    /// The receiving node.
    pub node: NodeId,
    /// Every join slot reading the input, as `(task, slot)`, in task order.
    pub readers: Vec<(usize, usize)>,
    /// The `(primitive, attribute)` term the readers key stored matches on
    /// (their equality-key guard; `None` when unkeyed).
    pub key: Option<(PrimId, AttrId)>,
}

/// A task's destinations split into local and remote join inputs,
/// precomputed at deployment build time so the executors' hot send paths
/// iterate plain slices instead of filtering (and cloning) the route list
/// per emission. A match is delivered once per destination input, however
/// many of the task's routes end in it; on the network that is one message
/// per (match, destination input).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fanout {
    /// Node-local destination inputs (indices into [`Deployment::inputs`]),
    /// ascending.
    pub local: Vec<usize>,
    /// Network destinations as `(destination node, input)`, by input.
    pub remote: Vec<(usize, usize)>,
    /// The destination nodes this task's matches are charged to, sorted: a
    /// subset of the nodes in `remote`. §4.4 charges a match once per
    /// destination node, however many placements there consume it. Tasks
    /// on one node with one [`TaskSpec::stream_sig`] ("twins") emit the
    /// same matches up to their windows, and a pattern's match set under a
    /// window is contained in its match set under any larger one — so of
    /// the twins that route to a destination, the one whose query has the
    /// largest window (ties: the lowest task index) is charged for it, and
    /// the others ship there uncharged.
    pub charged_nodes: Vec<usize>,
}

/// A runnable deployment of a MuSE graph.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The workload queries, deduplicated, indexed by `query_idx`.
    pub queries: Vec<Query>,
    /// Number of network nodes.
    pub num_nodes: usize,
    /// All tasks, in graph vertex order.
    pub tasks: Vec<TaskSpec>,
    /// Outgoing routes per task.
    pub routes: Vec<Vec<Route>>,
    /// Per-task local/remote fanout (derived from `routes`).
    pub fanouts: Vec<Fanout>,
    /// The join inputs, numbered by their first reader in task order.
    pub inputs: Vec<InputSpec>,
    /// Per task, the input each join slot reads (empty for sources).
    slot_inputs: Vec<Vec<usize>>,
    /// Discrimination index: the candidate source tasks, in task order and
    /// with their predicate bands, of `(origin node, event type)` at
    /// `node · num_types + type` (empty where no source is registered).
    candidates: Vec<Vec<SourceCandidate>>,
    /// Row length of `candidates`: one past the largest sourced event type.
    num_types: usize,
    /// Sink task indices per query (parallel to `queries`).
    pub sink_tasks: Vec<Vec<usize>>,
    /// Per task: indices into `queries` of the queries for which this task
    /// emits the full match stream (the shared-sink fanout table): one
    /// physical sink may feed many logical queries.
    pub sink_queries: Vec<Vec<usize>>,
    /// Number of graph vertices the tasks were derived from (`>= tasks.len()`;
    /// the difference is the number of vertices collapsed by sharing).
    pub logical_tasks: usize,
}

impl Deployment {
    /// Builds a deployment from a MuSE graph, verifying it first.
    ///
    /// Runs the fail-fast `muse-verify` profile (structural and
    /// deployment-level checks, no enumerative completeness) and refuses
    /// the plan when any `Error`-severity diagnostic is found.
    ///
    /// # Errors
    ///
    /// Returns the full diagnostic [`muse_verify::Report`] when the plan
    /// has errors; warnings and lints do not block deployment.
    pub fn verified(
        graph: &MuseGraph,
        ctx: &PlanContext<'_>,
    ) -> Result<Self, Box<muse_verify::Report>> {
        let report = muse_verify::verify_for_deploy(graph, ctx);
        if report.has_errors() {
            return Err(Box::new(report));
        }
        Ok(Self::build(graph, ctx))
    }

    /// Builds a deployment from a MuSE graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails static verification (see
    /// [`Deployment::verified`] for the non-panicking form).
    pub fn new(graph: &MuseGraph, ctx: &PlanContext<'_>) -> Self {
        match Self::verified(graph, ctx) {
            Ok(d) => d,
            Err(report) => panic!(
                "refusing to deploy an invalid MuSE graph:\n{}",
                report.render_pretty(None)
            ),
        }
    }

    /// Builds a deployment *without* running static verification.
    ///
    /// The build itself is linear in the plan's vertices and edges (queries
    /// are found by id through [`PlanContext::query`]). What verification
    /// adds on top is mostly its pairwise workload lints, which compare
    /// every query with every other: meant for hand-written or externally
    /// supplied plans, superfluous for plans produced by the in-tree
    /// construction algorithms, which are the only plans to pass here.
    /// [`Sharing::Shared`] is the only mode; callers name it.
    pub fn unchecked(graph: &MuseGraph, ctx: &PlanContext<'_>, _sharing: Sharing) -> Self {
        Self::build(graph, ctx)
    }

    /// Translates a verified graph into tasks and routes.
    fn build(graph: &MuseGraph, ctx: &PlanContext<'_>) -> Self {
        // Deduplicated query list in id order.
        let mut query_ids: Vec<QueryId> =
            graph.vertices().map(|v| ctx.proj(v.proj).source).collect();
        query_ids.sort();
        query_ids.dedup();
        let queries: Vec<Query> = query_ids.iter().map(|&id| ctx.query(id).clone()).collect();
        let query_index: HashMap<QueryId, usize> = query_ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i))
            .collect();

        let vertices: Vec<Vertex> = graph.vertices().collect();

        // Structurally identical vertices — same node, same output stream
        // identity, same primitive set, same window — collapse into one
        // physical task. Equal stream signatures imply identical projected
        // operator trees over event types and identical retained
        // predicates, so the first vertex's task evaluates the collapsed
        // vertices' semantics exactly. The primitive set and the window are
        // keyed separately because neither is part of the signature: one
        // event type can sit at different primitive positions in two
        // queries, and one pattern can run under two windows.
        let mut tasks: Vec<TaskSpec> = Vec::with_capacity(vertices.len());
        let mut task_owner: Vec<Vertex> = Vec::with_capacity(vertices.len());
        let mut sink_queries: Vec<Vec<usize>> = Vec::with_capacity(vertices.len());
        let mut vertex_task: HashMap<Vertex, usize> = HashMap::with_capacity(vertices.len());
        let mut shared_key: HashMap<(NodeId, u64, PrimSet, Timestamp), usize> = HashMap::new();
        let mut sink_tasks = vec![Vec::new(); queries.len()];
        for v in &vertices {
            let proj = ctx.proj(v.proj);
            let query = ctx.query_of(v.proj);
            let query_idx = query_index[&proj.source];
            let is_sink = proj.is_full_query(query);
            let key = (v.node, proj.stream_sig, proj.prims, query.window());
            if let Some(&i) = shared_key.get(&key) {
                // Collapse onto the existing task.
                vertex_task.insert(*v, i);
                if is_sink {
                    tasks[i].is_sink = true;
                    if !sink_queries[i].contains(&query_idx) {
                        sink_queries[i].push(query_idx);
                    }
                    if !sink_tasks[query_idx].contains(&i) {
                        sink_tasks[query_idx].push(i);
                    }
                }
                continue;
            }
            shared_key.insert(key, tasks.len());
            let i = tasks.len();
            let preds = graph.predecessors(*v);
            let kind = if preds.is_empty() {
                assert!(
                    proj.is_primitive(),
                    "source vertex must host a primitive projection"
                );
                let prim = proj.prims.iter().next().unwrap();
                let ty = query.prim_type(prim);
                TaskKind::Source {
                    prim,
                    ty,
                    predicates: proj.predicates.clone(),
                }
            } else {
                let mut slots: Vec<PrimSet> =
                    preds.iter().map(|p| ctx.proj(p.proj).prims).collect();
                slots.sort();
                slots.dedup();
                TaskKind::Join { slots }
            };
            if is_sink {
                sink_tasks[query_idx].push(i);
            }
            sink_queries.push(if is_sink { vec![query_idx] } else { Vec::new() });
            vertex_task.insert(*v, i);
            task_owner.push(*v);
            tasks.push(TaskSpec {
                vertex: *v,
                stream_sig: proj.stream_sig,
                node: v.node,
                query_idx,
                prims: proj.prims,
                is_sink,
                modeled_rate: muse_core::cost::projection_output_rate(proj, query, ctx.network),
                kind,
            });
        }

        let mut routes = vec![Vec::new(); tasks.len()];
        for (from, to) in graph.edges() {
            let fi = vertex_task[&from];
            let ti = vertex_task[&to];
            if task_owner[ti] != to {
                // `to` collapsed into a task owned by another vertex: that
                // task's own inputs already produce the full stream, so this
                // edge would only deliver duplicate inputs. Drop it.
                continue;
            }
            let TaskKind::Join { slots } = &tasks[ti].kind else {
                panic!("edge into a source task");
            };
            let from_prims = ctx.proj(from.proj).prims;
            let slot = slots
                .iter()
                .position(|s| *s == from_prims)
                .expect("slot for predecessor projection");
            routes[fi].push(Route {
                target: ti,
                slot,
                remote: from.node != to.node,
            });
        }
        for r in &mut routes {
            r.sort_by_key(|r| (r.target, r.slot));
            r.dedup();
        }
        let (inputs, slot_inputs) = join_inputs(&queries, &tasks, &routes);
        let mut fanouts: Vec<Fanout> = routes
            .iter()
            .map(|rs| {
                let mut f = Fanout::default();
                for r in rs {
                    let input = slot_inputs[r.target][r.slot];
                    if r.remote {
                        f.remote.push((tasks[r.target].node.index(), input));
                        f.charged_nodes.push(tasks[r.target].node.index());
                    } else {
                        f.local.push(input);
                    }
                }
                f.local.sort_unstable();
                f.local.dedup();
                f.remote.sort_unstable_by_key(|&(_, input)| input);
                f.remote.dedup();
                f.charged_nodes.sort_unstable();
                f.charged_nodes.dedup();
                f
            })
            .collect();
        // The §4.4 once-per-node charge (see `Fanout::charged_nodes`): per
        // (node, stream, destination), the widest-window twin that routes
        // there; tasks are visited in index order, so ties keep the first.
        let window = |i: usize| queries[tasks[i].query_idx].window();
        let mut charged: HashMap<(NodeId, u64, usize), usize> = HashMap::new();
        for (i, f) in fanouts.iter().enumerate() {
            for &dest in &f.charged_nodes {
                let owner = charged
                    .entry((tasks[i].node, tasks[i].stream_sig, dest))
                    .or_insert(i);
                if window(*owner) < window(i) {
                    *owner = i;
                }
            }
        }
        for (i, f) in fanouts.iter_mut().enumerate() {
            let (node, sig) = (tasks[i].node, tasks[i].stream_sig);
            f.charged_nodes
                .retain(|&dest| charged[&(node, sig, dest)] == i);
        }

        // Discrimination index: per (origin, type) candidate list with
        // precomputed predicate bands, so the executors' inject paths test
        // cheap interval containment before touching any predicate. Dense,
        // because the lookup runs once per event.
        let num_nodes = ctx.network.num_nodes();
        let num_types = tasks
            .iter()
            .filter_map(|t| match t.kind {
                TaskKind::Source { ty, .. } => Some(ty.index() + 1),
                TaskKind::Join { .. } => None,
            })
            .max()
            .unwrap_or(0);
        let mut candidates = vec![Vec::new(); num_nodes * num_types];
        for (i, task) in tasks.iter().enumerate() {
            let TaskKind::Source {
                prim,
                ty,
                predicates,
            } = &task.kind
            else {
                continue;
            };
            candidates[task.node.index() * num_types + ty.index()].push(SourceCandidate {
                task: i,
                bands: derive_bands(&queries[task.query_idx], *prim, predicates),
            });
        }

        Self {
            queries,
            num_nodes,
            logical_tasks: vertices.len(),
            tasks,
            routes,
            fanouts,
            inputs,
            slot_inputs,
            candidates,
            num_types,
            sink_tasks,
            sink_queries,
        }
    }

    /// The input join slot `slot` of `task` reads (`None` for a source or
    /// an index out of range).
    pub fn input_of(&self, task: usize, slot: usize) -> Option<usize> {
        self.slot_inputs.get(task)?.get(slot).copied()
    }

    /// The primitives every match delivered to join input `input` assigns
    /// (see [`carried_prims`]); its readers share their feeders, so the
    /// first reader's slot tells. `None` for an input out of range.
    pub(crate) fn input_prims(&self, input: usize) -> Option<PrimSet> {
        let &(task, slot) = self.inputs.get(input)?.readers.first()?;
        let spec = &self.tasks[task];
        match &spec.kind {
            TaskKind::Join { slots } => {
                Some(carried_prims(&self.queries[spec.query_idx], slots[slot]))
            }
            TaskKind::Source { .. } => None,
        }
    }

    /// The readers of `input` that store its matches — its positive slots,
    /// not negation guards — when there are two or more; empty otherwise.
    /// The node stores such an input once, in a buffer all of them probe;
    /// an input one join stores stays in that join's own store.
    pub fn shared_readers(&self, input: usize) -> Vec<(usize, usize)> {
        let stores = |&(task, slot): &(usize, usize)| {
            let spec = &self.tasks[task];
            let TaskKind::Join { slots } = &spec.kind else {
                return false;
            };
            !slots[slot].is_subset(self.queries[spec.query_idx].negated_prims())
        };
        let readers: Vec<_> = self.inputs[input]
            .readers
            .iter()
            .copied()
            .filter(stores)
            .collect();
        if readers.len() >= 2 {
            readers
        } else {
            Vec::new()
        }
    }

    /// The discrimination-index candidates for events of `ty` generated at
    /// `node`: every source task registered for the pair, each with the
    /// interval bands an event must pass to possibly satisfy the task's
    /// predicates. Allocation-free lookup for the executors' inject paths.
    pub fn candidates_for(&self, node: NodeId, ty: EventTypeId) -> &[SourceCandidate] {
        if ty.index() >= self.num_types {
            return &[];
        }
        self.candidates
            .get(node.index() * self.num_types + ty.index())
            .map_or(&[], Vec::as_slice)
    }

    /// Instantiates the join state for a task (`None` for sources), its
    /// stores keeping matches `reach` ticks behind the newest input.
    pub fn make_join(&self, task: usize, reach: Timestamp) -> Option<JoinTask> {
        let spec = &self.tasks[task];
        match &spec.kind {
            TaskKind::Source { .. } => None,
            TaskKind::Join { slots } => Some(JoinTask::with_reach(
                &self.queries[spec.query_idx],
                spec.prims,
                slots,
                reach,
            )),
        }
    }

    /// The task's migration identity: the shared-collapse key
    /// `(node, stream_sig, prims, window)` under which
    /// [`muse_verify::migrate`] matches physical tasks across two plans.
    /// [`crate::checkpoint::map_snapshot`] uses it to pair a
    /// [`muse_verify::MigrationPlan`]'s per-task actions with concrete task
    /// indices on both sides.
    pub fn task_key(&self, task: usize) -> muse_verify::TaskKey {
        let spec = &self.tasks[task];
        muse_verify::TaskKey {
            node: spec.node,
            stream_sig: spec.stream_sig,
            prims: spec.prims.bits(),
            window: self.queries[spec.query_idx].window(),
        }
    }

    /// A compact human-readable label for a task, used in telemetry series
    /// and summary tables: `"S3@N0"` for sources, `"J5@N1"` for joins,
    /// with a `!` suffix on sinks (e.g. `"J5@N1!"`).
    pub fn task_label(&self, task: usize) -> String {
        let spec = &self.tasks[task];
        let kind = match spec.kind {
            TaskKind::Source { .. } => 'S',
            TaskKind::Join { .. } => 'J',
        };
        let sink = if spec.is_sink { "!" } else { "" };
        format!("{kind}{task}@N{}{sink}", spec.node.index())
    }

    /// A structural fingerprint of the deployment plan, embedded in
    /// snapshot headers so [`crate::checkpoint::decode_for`] can reject state
    /// produced under a different plan
    /// ([`crate::checkpoint::CheckpointError::PlanMismatch`]).
    ///
    /// Two deployments built from the same MuSE graph over the same
    /// network and workload fingerprint identically (the hash covers only
    /// plan structure: node count, per-task placement/stream identity/
    /// kind, routes, and query windows — no runtime state), so snapshots
    /// are portable across separately constructed but equal deployments.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a canonical field walk, with a rotate to spread
        // adjacent small integers across the word.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
        };
        mix(self.num_nodes as u64);
        mix(self.queries.len() as u64);
        for q in &self.queries {
            mix(q.id().0 as u64);
            mix(q.window());
            mix(q.prims().bits());
        }
        mix(self.tasks.len() as u64);
        for t in &self.tasks {
            mix(t.stream_sig);
            mix(t.node.index() as u64);
            mix(t.query_idx as u64);
            mix(t.prims.bits());
            mix(t.is_sink as u64);
            match &t.kind {
                TaskKind::Source {
                    prim,
                    ty,
                    predicates,
                } => {
                    mix(0);
                    mix(prim.0 as u64);
                    mix(ty.0 as u64);
                    for p in predicates {
                        mix(*p as u64);
                    }
                }
                TaskKind::Join { slots } => {
                    mix(1);
                    for s in slots {
                        mix(s.bits());
                    }
                }
            }
        }
        for rs in &self.routes {
            mix(rs.len() as u64);
            for r in rs {
                mix(r.target as u64);
                mix(r.slot as u64);
                mix(r.remote as u64);
            }
        }
        for qs in &self.sink_queries {
            mix(qs.len() as u64);
            for q in qs {
                mix(*q as u64);
            }
        }
        h
    }

    /// Number of network edges in the deployment (routes, not inputs).
    pub fn num_remote_routes(&self) -> usize {
        self.routes
            .iter()
            .flat_map(|r| r.iter())
            .filter(|r| r.remote)
            .count()
    }
}

/// Groups the join slots into inputs: slots on one node fed by the same
/// tasks and keyed on the same term (the term [`JoinTask`] derives, via
/// [`slot_key_terms`]) are one input. Returns the inputs, numbered in order
/// of their first reader, and per task the input of each slot.
fn join_inputs(
    queries: &[Query],
    tasks: &[TaskSpec],
    routes: &[Vec<Route>],
) -> (Vec<InputSpec>, Vec<Vec<usize>>) {
    let mut feeders: Vec<Vec<Vec<usize>>> = tasks
        .iter()
        .map(|t| match &t.kind {
            TaskKind::Join { slots } => vec![Vec::new(); slots.len()],
            TaskKind::Source { .. } => Vec::new(),
        })
        .collect();
    for (from, rs) in routes.iter().enumerate() {
        for r in rs {
            feeders[r.target][r.slot].push(from);
        }
    }
    let mut inputs: Vec<InputSpec> = Vec::new();
    let mut slot_inputs = vec![Vec::new(); tasks.len()];
    let mut ids: HashMap<(NodeId, &[usize], Option<Term>), usize> = HashMap::new();
    for (task, spec) in tasks.iter().enumerate() {
        let TaskKind::Join { slots } = &spec.kind else {
            continue;
        };
        let keys = slot_key_terms(&queries[spec.query_idx], spec.prims, slots);
        for (slot, key) in keys.into_iter().enumerate() {
            let id = *ids
                .entry((spec.node, feeders[task][slot].as_slice(), key))
                .or_insert_with(|| {
                    inputs.push(InputSpec {
                        node: spec.node,
                        readers: Vec::new(),
                        key,
                    });
                    inputs.len() - 1
                });
            inputs[id].readers.push((task, slot));
            slot_inputs[task].push(id);
        }
    }
    (inputs, slot_inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::algorithms::amuse::{amuse, AMuseConfig};
    use muse_core::network::{Network, NetworkBuilder};
    use muse_core::query::Pattern;

    fn t(i: u16) -> EventTypeId {
        EventTypeId(i)
    }
    fn n(i: u16) -> NodeId {
        NodeId(i)
    }

    fn fig1_network() -> Network {
        NetworkBuilder::new(3, 3)
            .node(n(0), [t(0), t(2)])
            .node(n(1), [t(0), t(1)])
            .node(n(2), [t(1)])
            .rate(t(0), 100.0)
            .rate(t(1), 100.0)
            .rate(t(2), 1.0)
            .build()
    }

    fn robots_query() -> Query {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            1000,
        )
        .unwrap()
    }

    #[test]
    fn deploys_amuse_plan() {
        let net = fig1_network();
        let q = robots_query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        assert_eq!(deployment.queries.len(), 1);
        assert_eq!(deployment.num_nodes, 3);
        assert_eq!(deployment.tasks.len(), plan.graph.num_vertices());
        // Every sink vertex surfaced.
        assert_eq!(deployment.sink_tasks[0].len(), plan.sinks.len());
        // Source lookup: node 1 generates C (type 0).
        assert!(!deployment.candidates_for(n(1), t(0)).is_empty());
        assert!(deployment.candidates_for(n(2), t(0)).is_empty());
        // Pairs outside the network or the catalog have no candidates.
        assert!(deployment.candidates_for(n(7), t(0)).is_empty());
        assert!(deployment.candidates_for(n(0), t(9)).is_empty());
        // Route counts match graph edges.
        let total_routes: usize = deployment.routes.iter().map(Vec::len).sum();
        assert_eq!(total_routes, plan.graph.num_edges());
    }

    #[test]
    fn join_tasks_instantiate() {
        let net = fig1_network();
        let q = robots_query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let mut joins = 0;
        for i in 0..deployment.tasks.len() {
            match &deployment.tasks[i].kind {
                TaskKind::Source { .. } => assert!(deployment.make_join(i, 0).is_none()),
                TaskKind::Join { slots } => {
                    joins += 1;
                    let join = deployment.make_join(i, 0).unwrap();
                    assert_eq!(join.slots().len(), slots.len());
                }
            }
        }
        assert!(joins > 0);
    }

    #[test]
    fn remote_routes_match_graph_topology() {
        let net = fig1_network();
        let q = robots_query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let deployment = Deployment::new(&plan.graph, &ctx);
        let remote_edges = plan.graph.edges().filter(|(a, b)| a.node != b.node).count();
        assert_eq!(deployment.num_remote_routes(), remote_edges);
    }

    #[test]
    fn fingerprint_stable_across_rebuilds_and_sensitive_to_plan() {
        let net = fig1_network();
        let q = robots_query();
        let plan = amuse(&q, &net, &AMuseConfig::default()).unwrap();
        let ctx = PlanContext::new(std::slice::from_ref(&q), &net, &plan.table);
        let a = Deployment::new(&plan.graph, &ctx);
        let b = Deployment::new(&plan.graph, &ctx);
        // Same plan, separately built deployment: same fingerprint.
        assert_eq!(a.fingerprint(), b.fingerprint());
        // A different window is a different plan.
        let q2 = Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(2)),
            ]),
            vec![],
            2000,
        )
        .unwrap();
        let plan2 = amuse(&q2, &net, &AMuseConfig::default()).unwrap();
        let ctx2 = PlanContext::new(std::slice::from_ref(&q2), &net, &plan2.table);
        let c = Deployment::new(&plan2.graph, &ctx2);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}

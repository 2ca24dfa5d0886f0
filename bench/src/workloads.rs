//! The five workloads: what each one generates (`load`, untimed) and what
//! each one sets up (`setup`, timed as `setup_s`).
//!
//! Sizes are frozen here. They were tuned once on a 2-core box so that a
//! threaded rep is long enough to be steady and a whole run, set-up
//! included, fits the driver's per-run budget (see `bench/README.md`).

use crate::hashing::mix;
use crate::spans::Spans;
use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::baselines::{
    centralized_cost, optimal_operator_placement_workload, placement_to_graph, OperatorPlacement,
};
use muse_core::algorithms::multi_query::{amuse_workload, WorkloadPlan};
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp, Value};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::{Network, NetworkBuilder};
use muse_core::projection::ProjectionTable;
use muse_core::query::parser::ParserOptions;
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::deploy::{Deployment, Sharing};
use muse_runtime::threaded::ThreadedConfig;
use muse_sim::cluster_trace::{
    generate_cluster_trace, query1_source, query2_source, ClusterTraceConfig,
};
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::stats_est::{rates_per_window, PairSelectivities};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_sim::workload_gen::{
    generate_family_workload, generate_workload, FamilyWorkloadConfig, WorkloadConfig,
};
use std::time::Instant;

/// A workload of the benchmark. Names are the ones `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Relay,
    Cluster,
    MultiQuery,
    RelayCkpt,
    SynthPlan,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Relay,
        Kind::Cluster,
        Kind::MultiQuery,
        Kind::RelayCkpt,
        Kind::SynthPlan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Relay => "relay",
            Kind::Cluster => "cluster",
            Kind::MultiQuery => "multiquery",
            Kind::RelayCkpt => "relay_ckpt",
            Kind::SynthPlan => "synth_plan",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// `true` for the workloads that replay a trace through the executors.
    pub fn executes(self) -> bool {
        self != Kind::SynthPlan
    }
}

/// Input sizes of one run. `full` is what `BENCHMARK.json` measures;
/// `smoke` only checks the plumbing.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Relay trace horizon in time units (≈ 300 events per unit).
    pub relay_duration: f64,
    /// The same for `relay_ckpt`, which replays a shorter relay trace.
    pub ckpt_duration: f64,
    /// Jobs of the cluster dataset; a run replays seven eighths of them.
    pub cluster_jobs: usize,
    /// Events at the head of the cluster trace that the centralized oracle
    /// re-evaluates (about 0.5 ms per event and query at this density).
    pub oracle_prefix: usize,
    /// Queries of the family workload.
    pub mq_queries: usize,
    /// Family-workload trace horizon in time units.
    pub mq_duration: f64,
    /// Instances planned by `synth_plan`.
    pub synth_instances: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            relay_duration: 2_000.0,
            ckpt_duration: 500.0,
            cluster_jobs: 9_200,
            oracle_prefix: 3_000,
            mq_queries: 10_000,
            mq_duration: 4_000.0,
            synth_instances: 6,
        }
    }

    pub fn smoke() -> Self {
        Self {
            relay_duration: 100.0,
            ckpt_duration: 30.0,
            cluster_jobs: 300,
            oracle_prefix: 2_000,
            mq_queries: 500,
            mq_duration: 100.0,
            synth_instances: 1,
        }
    }
}

/// Relay constants, as in `muse-bench`'s `transport_stress` but on two
/// nodes: the edge node is node 1, the center is node 0.
const RELAY_WINDOW: Timestamp = 100;
const RELAY_EDGE_TYPES: usize = 3;
const RELAY_EDGE_RATE: f64 = 100.0;
const RELAY_ANCHOR_RATE: f64 = 0.1;
const RELAY_EXTRA_ATTRS: u8 = 8;

const CLUSTER_DATASET_SEED: u64 = 1;
/// The queries' `WITHIN 30min`, in trace milliseconds.
const CLUSTER_WINDOW: Timestamp = 30 * 60 * 1000;

const MQ_TYPES: usize = 12;
/// The family workload is one fixed query set; `--seed` draws only the
/// event trace. Re-drawing the families changes the number of physical
/// tasks, the transmission ratio and the median latency severalfold, which
/// would make runs on different seeds different workloads.
const MQ_WORKLOAD_SEED: u64 = 1;

/// Everything an executing workload generates before the program under
/// test sees it.
pub struct Load {
    pub kind: Kind,
    /// The trace the executors replay.
    pub events: Vec<Event>,
    /// The network as generated, before statistics are estimated.
    pub network: Network,
    /// Where the queries come from.
    pub queries: Queries,
    /// Events at the head of `events` re-evaluated by the oracle.
    pub oracle_prefix: usize,
    pub threaded: ThreadedConfig,
}

/// Query text goes through the parser; generated workloads arrive built.
pub enum Queries {
    Text(Catalog, Vec<&'static str>),
    Built(Workload),
}

impl Load {
    pub fn num_queries(&self) -> usize {
        match &self.queries {
            Queries::Text(_, sources) => sources.len(),
            Queries::Built(w) => w.len(),
        }
    }
}

/// One planning instance of `synth_plan`.
pub type Instance = (Network, Workload);

/// Generates the §7.1 default instances of `synth_plan` from `seed`.
pub fn synth_instances(seed: u64, sizes: &Sizes) -> Vec<Instance> {
    (0..sizes.synth_instances as u64)
        .map(|i| {
            let s = seed.wrapping_mul(1000).wrapping_add(i);
            (
                generate_network(&NetworkConfig {
                    seed: s,
                    ..NetworkConfig::default()
                }),
                generate_workload(&WorkloadConfig {
                    seed: s,
                    ..WorkloadConfig::default()
                }),
            )
        })
        .collect()
}

/// Generates the inputs of an executing workload from `seed`.
pub fn load(kind: Kind, seed: u64, sizes: &Sizes) -> Load {
    match kind {
        Kind::Relay | Kind::RelayCkpt => {
            let network = relay_network();
            let checkpoint = kind == Kind::RelayCkpt;
            let duration = if checkpoint {
                sizes.ckpt_duration
            } else {
                sizes.relay_duration
            };
            let threaded = ThreadedConfig {
                slack: 12.0,
                chunk_ticks: Some(10 * RELAY_WINDOW),
                checkpoint,
                ..ThreadedConfig::default()
            };
            Load {
                kind,
                events: relay_trace(&network, duration, seed),
                queries: Queries::Built(relay_workload()),
                network,
                oracle_prefix: 0,
                threaded,
            }
        }
        Kind::Cluster => {
            // One dataset, as the paper's trace is one dataset; `--seed`
            // drops a different eighth of its jobs. Matches hinge on a few
            // hundred rare events, so re-drawing the whole trace moved the
            // transmission ratio by 14 % and the throughput by 13 % from
            // seed to seed.
            let trace = generate_cluster_trace(&ClusterTraceConfig {
                nodes: 2,
                jobs: sizes.cluster_jobs,
                seed: CLUSTER_DATASET_SEED,
                ..ClusterTraceConfig::default()
            });
            let j_id = trace.catalog.attr("jID").expect("cluster events carry jID");
            let mut events = trace.events;
            events.retain(|e| match e.payload.get(j_id) {
                Some(Value::Int(job)) => !mix(seed ^ mix(*job as u64)).is_multiple_of(8),
                _ => true,
            });
            for (seq, e) in events.iter_mut().enumerate() {
                e.seq = seq as u64;
            }
            Load {
                kind,
                oracle_prefix: sizes.oracle_prefix.min(events.len()),
                events,
                network: trace.network,
                queries: Queries::Text(trace.catalog, vec![query1_source(), query2_source()]),
                threaded: ThreadedConfig::default(),
            }
        }
        Kind::MultiQuery => {
            let mut builder = NetworkBuilder::new(2, MQ_TYPES);
            for node in 0..2u16 {
                let owned: Vec<EventTypeId> = (0..MQ_TYPES as u16 / 2)
                    .map(|k| EventTypeId(node * (MQ_TYPES as u16 / 2) + k))
                    .collect();
                builder = builder.node(NodeId(node), owned.clone());
                for t in owned {
                    builder = builder.rate(t, 2.0);
                }
            }
            let network = builder.build();
            let events = generate_traces(
                &network,
                &TraceConfig {
                    duration: sizes.mq_duration,
                    ticks_per_unit: 1_000.0,
                    rate_scale: 1.0,
                    key_domain: 8,
                    band_domain: 1_000,
                    seed,
                },
            );
            let workload = generate_family_workload(&FamilyWorkloadConfig {
                queries: sizes.mq_queries,
                families: 25,
                variants_per_family: 8,
                prims_per_family: 3,
                types: MQ_TYPES,
                share_fraction: 0.3,
                band_domain: 1_000,
                window: 1_000,
                seed: MQ_WORKLOAD_SEED,
            });
            Load {
                kind,
                events,
                network,
                queries: Queries::Built(workload),
                oracle_prefix: 0,
                threaded: ThreadedConfig::default(),
            }
        }
        Kind::SynthPlan => unreachable!("synth_plan replays nothing; see synth_instances"),
    }
}

fn relay_anchor() -> EventTypeId {
    EventTypeId(RELAY_EDGE_TYPES as u16)
}

fn relay_network() -> Network {
    let mut b = NetworkBuilder::new(2, RELAY_EDGE_TYPES + 1)
        .node(NodeId(0), [relay_anchor()])
        .rate(relay_anchor(), RELAY_ANCHOR_RATE)
        .node(
            NodeId(1),
            (0..RELAY_EDGE_TYPES).map(|i| EventTypeId(i as u16)),
        );
    for i in 0..RELAY_EDGE_TYPES {
        b = b.rate(EventTypeId(i as u16), RELAY_EDGE_RATE);
    }
    b.build()
}

fn relay_workload() -> Workload {
    Workload::from_patterns(
        Catalog::with_anonymous_types(RELAY_EDGE_TYPES + 1),
        (0..RELAY_EDGE_TYPES).map(|i| {
            (
                Pattern::seq([
                    Pattern::leaf(EventTypeId(i as u16)),
                    Pattern::leaf(relay_anchor()),
                ]),
                Vec::<Predicate>::new(),
                RELAY_WINDOW,
            )
        }),
    )
    .expect("relay patterns build a workload")
}

/// A Poisson trace over the relay network whose events carry a key plus
/// eight measurement attributes, so frames ship payload-sized messages.
fn relay_trace(network: &Network, duration: f64, seed: u64) -> Vec<Event> {
    let mut events = generate_traces(
        network,
        &TraceConfig {
            duration,
            ticks_per_unit: 100.0,
            rate_scale: 1.0,
            key_domain: 64,
            band_domain: 0,
            seed,
        },
    );
    for e in &mut events {
        for j in 0..RELAY_EXTRA_ATTRS {
            let x = e.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (8 + j);
            let attr = AttrId(1 + j);
            if j % 2 == 0 {
                e.payload.set(attr, Value::Int((x & 0xffff) as i64));
            } else {
                e.payload
                    .set(attr, Value::Float((x & 0xffff) as f64 / 16.0));
            }
        }
    }
    events
}

/// What set-up produced: the runnable deployment plus the per-stage
/// timings and plan facts the per-layer metrics report.
pub struct Setup {
    pub deployment: Deployment,
    pub parse_s: f64,
    pub stats_s: f64,
    pub plan_s: f64,
    pub verify_s: f64,
    pub deploy_s: f64,
    pub plan: PlanFacts,
}

/// Planner outputs that repeat exactly for a given input.
#[derive(Debug, Clone, Default)]
pub struct PlanFacts {
    /// Modelled `c(G) / c(centralized)`; geometric mean over instances.
    pub cost_ratio: f64,
    pub projections: u64,
    pub distinct_plans: u64,
    pub plans_reused: u64,
    /// Verifier diagnostics of any severity.
    pub diagnostics: u64,
    pub plans: u64,
    /// Plans the verifier refused.
    pub plans_with_errors: u64,
}

fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = spans.enter(name);
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    spans.exit(id);
    (out, s)
}

fn plan_facts(plan: &WorkloadPlan, workload: &Workload, network: &Network) -> PlanFacts {
    let central = centralized_cost(workload.queries(), network);
    PlanFacts {
        cost_ratio: plan.total_cost / central.max(f64::MIN_POSITIVE),
        projections: plan
            .stats
            .iter()
            .map(|s| s.projections_beneficial as u64)
            .sum(),
        distinct_plans: (plan.graphs.len() - plan.reused_plans()) as u64,
        plans_reused: plan.reused_plans() as u64,
        plans: 1,
        ..PlanFacts::default()
    }
}

/// Runs the deployment-time verifier over a plan, as `Deployment::new`
/// does before it builds, and books what it found. Returns its seconds.
fn verify(
    spans: &mut Spans,
    graph: &MuseGraph,
    ctx: &PlanContext<'_>,
    facts: &mut PlanFacts,
) -> f64 {
    let (report, verify_s) = timed(spans, "verify", || {
        muse_verify::verify_for_deploy(graph, ctx)
    });
    facts.diagnostics += report.len() as u64;
    facts.plans_with_errors += u64::from(report.has_errors());
    verify_s
}

/// The tail of every set-up: verify (unless `unchecked`) and build the
/// deployment, the two halves of `Deployment::new` timed apart.
fn verify_and_deploy(
    spans: &mut Spans,
    graph: &MuseGraph,
    ctx: &PlanContext<'_>,
    unchecked: bool,
    plan_s: f64,
    mut plan: PlanFacts,
) -> Setup {
    let verify_s = if unchecked {
        0.0
    } else {
        verify(spans, graph, ctx, &mut plan)
    };
    let (deployment, deploy_s) = timed(spans, "deploy", || {
        Deployment::unchecked(graph, ctx, Sharing::Shared)
    });
    Setup {
        deployment,
        parse_s: 0.0,
        stats_s: 0.0,
        plan_s,
        verify_s,
        deploy_s,
        plan,
    }
}

/// Runs the program's set-up for an executing workload: parse, estimate
/// statistics, plan, verify and deploy. Load generation is not part of it.
pub fn setup(load: &Load, spans: &mut Spans) -> Setup {
    match load.kind {
        Kind::Relay | Kind::RelayCkpt => {
            let Queries::Built(workload) = &load.queries else {
                unreachable!("relay queries are built")
            };
            // Hand-pinned to the center: aMuSE exists to avoid exactly the
            // traffic this workload needs.
            let ((graph, table), plan_s) = timed(spans, "plan", || {
                let mut table = ProjectionTable::new();
                let mut graph = MuseGraph::new();
                for q in workload.queries() {
                    let placement = OperatorPlacement {
                        assignments: vec![(q.prims(), NodeId(0))],
                        cost: 0.0,
                    };
                    let g = placement_to_graph(q, &placement, &load.network, &mut table)
                        .expect("pinned placement builds a graph");
                    graph.union_with(&g);
                }
                (graph, table)
            });
            let ctx = PlanContext::new(workload.queries(), &load.network, &table);
            let central = centralized_cost(workload.queries(), &load.network);
            let plan = PlanFacts {
                cost_ratio: graph.cost(&ctx) / central.max(f64::MIN_POSITIVE),
                plans: 1,
                ..PlanFacts::default()
            };
            verify_and_deploy(spans, &graph, &ctx, false, plan_s, plan)
        }
        Kind::Cluster => {
            let Queries::Text(catalog, sources) = &load.queries else {
                unreachable!("cluster queries are text")
            };
            let (mut workload, parse_s) = timed(spans, "parse", || {
                Workload::parse(
                    catalog.clone(),
                    sources.iter().copied(),
                    &ParserOptions::default(),
                )
                .expect("case-study queries parse")
            });
            let duration_ms = ClusterTraceConfig::default().duration_ms;
            let (network, stats_s) = timed(spans, "stats_est", || {
                let attrs = [catalog.attr("jID").unwrap(), catalog.attr("uID").unwrap()];
                let selectivities =
                    PairSelectivities::estimate(&load.events, CLUSTER_WINDOW, &attrs, duration_ms);
                for q in workload.queries_mut() {
                    selectivities.apply_to_query(q);
                }
                rates_per_window(&load.network, &load.events, CLUSTER_WINDOW, duration_ms)
            });
            let (plan, plan_s) = timed(spans, "plan", || {
                amuse_workload(&workload, &network, &AMuseConfig::default())
                    .expect("aMuSE plans the case study")
            });
            let facts = plan_facts(&plan, &workload, &network);
            let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
            Setup {
                parse_s,
                stats_s,
                ..verify_and_deploy(spans, &plan.merged, &ctx, false, plan_s, facts)
            }
        }
        Kind::MultiQuery => {
            let Queries::Built(workload) = &load.queries else {
                unreachable!("family queries are built")
            };
            let (plan, plan_s) = timed(spans, "plan", || {
                amuse_workload(workload, &load.network, &AMuseConfig::default())
                    .expect("family workload plans")
            });
            let facts = plan_facts(&plan, workload, &load.network);
            let ctx = PlanContext::new(workload.queries(), &load.network, &plan.table);
            // Unchecked, as the in-tree multi-query experiment deploys it:
            // the verifier walks every query and vertex.
            verify_and_deploy(spans, &plan.merged, &ctx, true, plan_s, facts)
        }
        Kind::SynthPlan => unreachable!("synth_plan deploys nothing; see plan_instances"),
    }
}

/// Planning results of `synth_plan` over all instances.
pub struct SynthPlans {
    pub amuse_s: f64,
    pub verify_s: f64,
    pub facts: PlanFacts,
}

/// Plans every `synth_plan` instance with aMuSE and verifies each plan.
pub fn plan_instances(instances: &[Instance], spans: &mut Spans) -> SynthPlans {
    let mut out = SynthPlans {
        amuse_s: 0.0,
        verify_s: 0.0,
        facts: PlanFacts::default(),
    };
    let mut log_ratio = 0.0;
    for (network, workload) in instances {
        let (plan, s) = timed(spans, "plan", || {
            amuse_workload(workload, network, &AMuseConfig::default())
                .expect("aMuSE plans generated workloads")
        });
        out.amuse_s += s;
        let f = plan_facts(&plan, workload, network);
        log_ratio += f.cost_ratio.ln();
        out.facts.projections += f.projections;
        out.facts.distinct_plans += f.distinct_plans;
        out.facts.plans_reused += f.plans_reused;
        out.facts.plans += 1;
        let ctx = PlanContext::new(workload.queries(), network, &plan.table);
        out.verify_s += verify(spans, &plan.merged, &ctx, &mut out.facts);
    }
    out.facts.cost_ratio = (log_ratio / instances.len().max(1) as f64).exp();
    out
}

/// The comparison strategies of §7.1, planned once in the traced pass:
/// aMuSE* time and the geometric-mean cost ratios of aMuSE* and oOP.
pub struct Baselines {
    pub amuse_star_s: f64,
    pub cost_ratio_star: f64,
    pub cost_ratio_oop: f64,
}

pub fn plan_baselines(instances: &[Instance], spans: &mut Spans) -> Baselines {
    let id = spans.enter("plan_baselines");
    let (mut star_s, mut log_star, mut log_oop) = (0.0, 0.0, 0.0);
    for (network, workload) in instances {
        let central = centralized_cost(workload.queries(), network).max(f64::MIN_POSITIVE);
        let t = Instant::now();
        let star = amuse_workload(workload, network, &AMuseConfig::star())
            .expect("aMuSE* plans generated workloads");
        star_s += t.elapsed().as_secs_f64();
        log_star += (star.total_cost / central).ln();
        let oop = optimal_operator_placement_workload(workload.queries(), network);
        log_oop += (oop / central).ln();
    }
    spans.exit(id);
    let n = instances.len().max(1) as f64;
    Baselines {
        amuse_star_s: star_s,
        cost_ratio_star: (log_star / n).exp(),
        cost_ratio_oop: (log_oop / n).exp(),
    }
}

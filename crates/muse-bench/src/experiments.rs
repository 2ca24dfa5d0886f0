//! The experiments of §7, one function per table/figure.
//!
//! Simulation experiments (Figs. 5-7) compute plan costs analytically via
//! the cost model, exactly like the paper's simulation study; the case
//! study (Table 3, Fig. 8) actually executes the plans on the runtime over
//! the synthetic cluster trace.

use crate::runner::{evaluate_workload, RatioPoint, StrategyCosts, SweepSettings};
use crate::stats::summarize;
use crate::telemetry::TelemetryCollector;
use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::baselines::placement_to_graph;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::graph::PlanContext;
use muse_core::projection::ProjectionTable;
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, ThreadedConfig};
use muse_sim::cluster_trace::{
    generate_cluster_trace, query1_source, query2_source, ClusterTraceConfig,
};
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::workload_gen::{generate_workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Output of one experiment: a ratio sweep, a construction-statistics
/// table, the case-study table, or the case-study latency/throughput runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// Transmission-ratio sweep (Figs. 5-7c).
    RatioSweep {
        /// Experiment id (e.g. "fig5a").
        id: String,
        /// Human-readable description.
        title: String,
        /// Name of the swept parameter.
        x_label: String,
        /// Measured points.
        points: Vec<RatioPoint>,
    },
    /// Construction efficiency (Fig. 7d).
    Construction {
        /// Experiment id ("fig7d").
        id: String,
        /// Rows: (setting, aMuSE ms, aMuSE* ms, aMuSE #proj, aMuSE* #proj).
        rows: Vec<ConstructionRow>,
    },
    /// Case-study transmission ratios (Table 3).
    CaseStudyTable {
        /// Experiment id ("table3").
        id: String,
        /// Rows: per scenario, measured transmission ratios.
        rows: Vec<CaseStudyRow>,
    },
    /// Case-study latency/throughput (Fig. 8).
    CaseStudyRuns {
        /// Experiment id ("fig8").
        id: String,
        /// Per-scenario latency and throughput of MS vs. OP.
        rows: Vec<RunRow>,
    },
}

/// One Fig. 7d row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstructionRow {
    /// Experiment setting this row belongs to.
    pub setting: String,
    /// aMuSE construction time (milliseconds, median across seeds).
    pub amuse_ms: f64,
    /// aMuSE* construction time (milliseconds, median).
    pub amuse_star_ms: f64,
    /// Beneficial projections explored by aMuSE (median).
    pub amuse_projections: f64,
    /// Beneficial projections explored by aMuSE* (median).
    pub amuse_star_projections: f64,
}

/// One Table 3 row: measured (executed) transmission ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyRow {
    /// Scenario: "AND", "SEQ", or "QWL".
    pub scenario: String,
    /// aMuSE transmission ratio (messages / injected events).
    pub amuse_ratio: f64,
    /// oOP transmission ratio.
    pub oop_ratio: f64,
    /// Matches found (sanity: both plans must agree).
    pub matches: u64,
}

/// One Fig. 8 row: executed latency/throughput of a strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRow {
    /// Scenario: "AND", "SEQ", or "QWL".
    pub scenario: String,
    /// Strategy: "MS" (MuSE graph) or "OP" (operator placement).
    pub strategy: String,
    /// Wall-clock latency five-number summary in microseconds.
    pub latency_us: [f64; 5],
    /// Injected events per wall-clock second.
    pub events_per_sec: f64,
    /// Matches produced.
    pub matches: u64,
}

/// An experiment body: its id, the sweep settings, and — for the
/// experiments that execute plans — an optional telemetry collector.
type ExperimentFn = fn(&str, &SweepSettings, Option<&mut TelemetryCollector>) -> ExperimentOutput;

/// Every experiment the harness knows, in paper order. `ablation`, last,
/// is not a paper artifact (it quantifies this implementation's design
/// choices): it is run by name only and is not part of `all`.
const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("fig5a", |id, s, _| fig5_event_node_ratio(id, false, s)),
    ("fig5b", |id, s, _| fig5_event_node_ratio(id, true, s)),
    ("fig5c", |id, s, _| fig5_network_size(id, false, s)),
    ("fig5d", |id, s, _| fig5_network_size(id, true, s)),
    ("fig6a", |id, s, _| fig6_event_skew(id, false, s)),
    ("fig6b", |id, s, _| fig6_event_skew(id, true, s)),
    ("fig7a", |id, s, _| fig7_selectivity(id, false, s)),
    ("fig7b", |id, s, _| fig7_selectivity(id, true, s)),
    ("fig7c", |id, s, _| fig7_workload_size(id, s)),
    ("fig7d", |id, s, _| fig7_construction(id, s)),
    ("table3", table3_case_study),
    ("fig8", fig8_case_study),
    ("ablation", |id, s, _| ablation(id, s)),
];

/// Every id [`run_experiment`] resolves: the paper's artifacts in paper
/// order, then the experiments that are run by name only.
pub fn experiment_ids() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id)
}

/// The ids `all` runs: the paper's artifacts, in paper order.
pub fn all_experiments() -> Vec<&'static str> {
    experiment_ids().filter(|id| *id != "ablation").collect()
}

/// Runs one experiment by id; `None` on an id that is not in
/// [`experiment_ids`].
pub fn run_experiment(id: &str, settings: &SweepSettings) -> Option<ExperimentOutput> {
    run_experiment_telemetry(id, settings, None)
}

/// Runs one experiment by id, optionally collecting executor telemetry.
/// Only the experiments that actually execute plans (`table3`, `fig8`)
/// produce telemetry; the analytic sweeps ignore the collector.
pub fn run_experiment_telemetry(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> Option<ExperimentOutput> {
    let (id, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    Some(run(id, settings, tel))
}

/// Builds the (network, workload) instance of a simulation experiment.
fn instance(
    net_cfg: &NetworkConfig,
    wl_cfg: &WorkloadConfig,
) -> (muse_core::network::Network, Workload) {
    let network = generate_network(net_cfg);
    let workload = generate_workload(wl_cfg);
    (network, workload)
}

fn base_configs(large: bool, seed: u64) -> (NetworkConfig, WorkloadConfig) {
    if large {
        (
            NetworkConfig {
                seed,
                ..NetworkConfig::large()
            },
            WorkloadConfig {
                seed,
                ..WorkloadConfig::large()
            },
        )
    } else {
        (
            NetworkConfig {
                seed,
                ..Default::default()
            },
            WorkloadConfig {
                seed,
                ..Default::default()
            },
        )
    }
}

fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    settings: &SweepSettings,
    mut make: impl FnMut(f64, u64) -> StrategyCosts,
) -> ExperimentOutput {
    let points = xs
        .iter()
        .map(|&x| {
            let costs: Vec<StrategyCosts> = settings.seeds().map(|seed| make(x, seed)).collect();
            RatioPoint::collect(x, &costs)
        })
        .collect();
    ExperimentOutput::RatioSweep {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        points,
    }
}

/// Fig. 5a/5b: varying the event node ratio.
fn fig5_event_node_ratio(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.2, 0.4, 0.6, 0.8, 1.0];
    sweep(
        id,
        "Transmission ratio vs. event node ratio",
        "event node ratio",
        &xs,
        settings,
        |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.event_node_ratio = x;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 5c/5d: varying the network size.
fn fig5_network_size(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs: Vec<f64> = if large {
        vec![20.0, 40.0, 60.0, 80.0, 100.0]
    } else {
        vec![10.0, 20.0, 30.0, 40.0, 50.0]
    };
    sweep(
        id,
        "Transmission ratio vs. network size",
        "nodes",
        &xs,
        settings,
        move |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.nodes = x as usize;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 6a/6b: varying the event rate skew.
fn fig6_event_skew(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [1.1, 1.4, 1.7, 2.0];
    sweep(
        id,
        "Transmission ratio vs. event skew",
        "zipf exponent",
        &xs,
        settings,
        move |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.rate_skew = x;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7a/7b: varying the minimal selectivity.
fn fig7_selectivity(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.01, 0.05, 0.1, 0.15, 0.2];
    sweep(
        id,
        "Transmission ratio vs. minimal selectivity",
        "min selectivity",
        &xs,
        settings,
        move |x, seed| {
            let (nc, mut wc) = base_configs(large, seed);
            wc.selectivity_min = x;
            wc.selectivity_max = 0.2f64.max(x);
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7c: varying the workload size.
fn fig7_workload_size(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [1.0, 5.0, 10.0, 15.0, 20.0];
    sweep(
        id,
        "Transmission ratio vs. workload size",
        "queries",
        &xs,
        settings,
        move |x, seed| {
            let (nc, mut wc) = base_configs(false, seed);
            wc.queries = x as usize;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7d: construction time and number of considered projections for the
/// default and large settings.
fn fig7_construction(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (setting, large) in [
        ("default (20 nodes, 5 queries)", false),
        ("large (50 nodes, 15 queries)", true),
    ] {
        let costs: Vec<StrategyCosts> = settings
            .seeds()
            .map(|seed| {
                let (nc, wc) = base_configs(large, seed);
                let (net, w) = instance(&nc, &wc);
                evaluate_workload(&w, &net)
            })
            .collect();
        let med = |f: &dyn Fn(&StrategyCosts) -> f64| {
            let v: Vec<f64> = costs.iter().map(f).collect();
            summarize(&v).median
        };
        rows.push(ConstructionRow {
            setting: setting.to_string(),
            amuse_ms: med(&|c| c.amuse_time.as_secs_f64() * 1e3),
            amuse_star_ms: med(&|c| c.amuse_star_time.as_secs_f64() * 1e3),
            amuse_projections: med(&|c| c.amuse_projections as f64),
            amuse_star_projections: med(&|c| c.amuse_star_projections as f64),
        });
    }
    ExperimentOutput::Construction {
        id: id.to_string(),
        rows,
    }
}

/// Ablation of this implementation's design choices (DESIGN.md §3b):
/// multi-sink placements on/off and the bounded combination enumeration,
/// across the event-node-ratio sweep. Reported like a ratio sweep with the
/// strategies reinterpreted: `amuse` = full aMuSE, `amuse_star` = multi-sink
/// disabled, `oop` = combination cap reduced to 50.
fn ablation(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let run = |config: &AMuseConfig, x: f64, seed: u64| -> f64 {
        let (mut nc, wc) = base_configs(false, seed);
        nc.event_node_ratio = x;
        let (net, w) = instance(&nc, &wc);
        let central = muse_core::algorithms::baselines::centralized_cost(w.queries(), &net);
        let plan = amuse_workload(&w, &net, config).expect("plans");
        plan.total_cost / central.max(f64::MIN_POSITIVE)
    };
    let points = xs
        .iter()
        .map(|&x| {
            let full: Vec<f64> = settings
                .seeds()
                .map(|s| run(&AMuseConfig::default(), x, s))
                .collect();
            let no_ms: Vec<f64> = settings
                .seeds()
                .map(|s| {
                    run(
                        &AMuseConfig {
                            disable_multi_sink: true,
                            ..Default::default()
                        },
                        x,
                        s,
                    )
                })
                .collect();
            let small_cap: Vec<f64> = settings
                .seeds()
                .map(|s| {
                    run(
                        &AMuseConfig {
                            max_combinations: 50,
                            ..Default::default()
                        },
                        x,
                        s,
                    )
                })
                .collect();
            RatioPoint {
                x,
                amuse: full,
                amuse_star: no_ms,
                oop: small_cap,
            }
        })
        .collect();
    ExperimentOutput::RatioSweep {
        id: id.to_string(),
        title: "Ablation: full aMuSE vs. no multi-sink vs. combination cap 50".to_string(),
        x_label: "event node ratio".to_string(),
        points,
    }
}

/// The three case-study scenarios: each is a (name, query sources) pair.
fn case_study_scenarios() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("SEQ", vec![query1_source()]),
        ("AND", vec![query2_source()]),
        ("QWL", vec![query1_source(), query2_source()]),
    ]
}

/// Builds the cluster-trace instance and parses a scenario's workload.
///
/// Planning statistics are *estimated from the trace*, as a real system
/// would: rates are re-derived in window units (events per 30 min window
/// per node) and predicate selectivities come from empirical same-id pair
/// counts ([`muse_sim::stats_est`]); naive independence assumptions would
/// mislead the planner because a task's life-cycle events are strongly
/// correlated in both id and time.
fn case_study_instance(
    sources: &[&str],
    jobs: usize,
    seed: u64,
) -> (muse_sim::cluster_trace::ClusterTrace, Workload) {
    let mut trace = generate_cluster_trace(&ClusterTraceConfig {
        jobs,
        seed,
        ..Default::default()
    });
    let cfg = ClusterTraceConfig::default();
    let window = 30 * 60 * 1000; // the queries' WITHIN 30min
    let options = muse_core::query::parser::ParserOptions::default();
    let mut workload = Workload::parse(trace.catalog.clone(), sources.iter().copied(), &options)
        .expect("case-study queries parse");

    let attrs = [
        trace.catalog.attr("jID").unwrap(),
        trace.catalog.attr("uID").unwrap(),
    ];
    let selectivities = muse_sim::stats_est::PairSelectivities::estimate(
        &trace.events,
        window,
        &attrs,
        cfg.duration_ms,
    );
    for q in workload.queries_mut() {
        selectivities.apply_to_query(q);
    }
    trace.network = muse_sim::stats_est::rates_per_window(
        &trace.network,
        &trace.events,
        window,
        cfg.duration_ms,
    );
    (trace, workload)
}

/// Deploys the aMuSE plan and the oOP plan of a workload on the cluster
/// network. Returns `(muse deployment, oop deployment)`.
fn case_study_deployments(
    trace: &muse_sim::cluster_trace::ClusterTrace,
    workload: &Workload,
) -> (Deployment, Deployment) {
    let plan = amuse_workload(workload, &trace.network, &AMuseConfig::default())
        .expect("aMuSE plans the case study");
    let ctx = PlanContext::new(workload.queries(), &trace.network, &plan.table);
    let muse_deployment = Deployment::new(&plan.merged, &ctx);

    let mut table = ProjectionTable::new();
    let mut oop_graph = muse_core::graph::MuseGraph::new();
    let placements =
        muse_core::algorithms::baselines::optimal_operator_placement_workload_placements(
            workload.queries(),
            &trace.network,
        );
    for (q, placement) in workload.queries().iter().zip(&placements) {
        let g =
            placement_to_graph(q, placement, &trace.network, &mut table).expect("placement graph");
        oop_graph.union_with(&g);
    }
    let oop_ctx = PlanContext::new(workload.queries(), &trace.network, &table);
    let oop_deployment = Deployment::new(&oop_graph, &oop_ctx);
    (muse_deployment, oop_deployment)
}

/// Table 3: executed transmission ratios of the case study.
fn table3_case_study(
    id: &str,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let jobs = if settings.reps <= 2 { 150 } else { 400 };
    let sim_config = SimConfig {
        telemetry: tel.as_ref().map(|t| t.spec()),
        ..SimConfig::default()
    };
    let mut rows = Vec::new();
    for (scenario, sources) in case_study_scenarios() {
        let (trace, workload) = case_study_instance(&sources, jobs, settings.seed);
        let (ms, op) = case_study_deployments(&trace, &workload);
        let mut ms_report = run_simulation(&ms, &trace.events, &sim_config);
        let mut op_report = run_simulation(&op, &trace.events, &sim_config);
        let ms_matches: u64 = ms_report.matches.iter().map(|m| m.len() as u64).sum();
        let op_matches: u64 = op_report.matches.iter().map(|m| m.len() as u64).sum();
        assert_eq!(
            ms_matches, op_matches,
            "{scenario}: MuSE and oOP plans must produce identical matches"
        );
        if let Some(tel) = tel.as_deref_mut() {
            for (strategy, report) in [("MS", &mut ms_report), ("OP", &mut op_report)] {
                let label = format!("{id}/{scenario}/{strategy}");
                if let Some(run) = report.telemetry.take() {
                    tel.record_run(&label, &report.metrics, run);
                }
            }
        }
        rows.push(CaseStudyRow {
            scenario: scenario.to_string(),
            amuse_ratio: ms_report.metrics.transmission_ratio(),
            oop_ratio: op_report.metrics.transmission_ratio(),
            matches: ms_matches,
        });
    }
    ExperimentOutput::CaseStudyTable {
        id: id.to_string(),
        rows,
    }
}

/// Fig. 8: wall-clock latency and throughput of MS vs. OP on the threaded
/// executor.
fn fig8_case_study(
    id: &str,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let jobs = if settings.reps <= 2 { 100 } else { 250 };
    let threaded_config = ThreadedConfig {
        telemetry: tel.as_ref().map(|t| t.spec()),
        ..ThreadedConfig::default()
    };
    let mut rows = Vec::new();
    for (scenario, sources) in case_study_scenarios() {
        let (trace, workload) = case_study_instance(&sources, jobs, settings.seed);
        let (ms, op) = case_study_deployments(&trace, &workload);
        for (strategy, deployment) in [("MS", &ms), ("OP", &op)] {
            let mut report = run_threaded(deployment, &trace.events, &threaded_config);
            if let Some(tel) = tel.as_deref_mut() {
                if let Some(run) = report.telemetry.take() {
                    tel.record_run(&format!("{id}/{scenario}/{strategy}"), &report.metrics, run);
                }
            }
            let latency_us = report
                .latency_summary_ns()
                .map(|s| s.map(|v| v as f64 / 1e3))
                .unwrap_or([0.0; 5]);
            rows.push(RunRow {
                scenario: scenario.to_string(),
                strategy: strategy.to_string(),
                latency_us,
                events_per_sec: report.events_per_sec,
                matches: report.metrics.sink_matches,
            });
        }
    }
    ExperimentOutput::CaseStudyRuns {
        id: id.to_string(),
        rows,
    }
}

impl ExperimentOutput {
    /// The experiment's id.
    pub fn id(&self) -> &str {
        match self {
            ExperimentOutput::RatioSweep { id, .. }
            | ExperimentOutput::Construction { id, .. }
            | ExperimentOutput::CaseStudyTable { id, .. }
            | ExperimentOutput::CaseStudyRuns { id, .. } => id,
        }
    }

    /// Renders the experiment as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            ExperimentOutput::RatioSweep {
                id,
                title,
                x_label,
                points,
            } => {
                let _ = writeln!(out, "== {id}: {title} ==");
                let _ = writeln!(
                    out,
                    "{x_label:>16} | {:>24} | {:>24} | {:>24}",
                    "aMuSE (med [min,max])", "aMuSE* (med [min,max])", "oOP (med [min,max])"
                );
                for p in points {
                    let f = |v: &Vec<f64>| {
                        let s = summarize(v);
                        format!("{:.5} [{:.5},{:.5}]", s.median, s.min, s.max)
                    };
                    let _ = writeln!(
                        out,
                        "{:>16} | {:>24} | {:>24} | {:>24}",
                        p.x,
                        f(&p.amuse),
                        f(&p.amuse_star),
                        f(&p.oop)
                    );
                }
            }
            ExperimentOutput::Construction { id, rows } => {
                let _ = writeln!(out, "== {id}: construction efficiency ==");
                let _ = writeln!(
                    out,
                    "{:>32} | {:>12} | {:>12} | {:>12} | {:>12}",
                    "setting", "aMuSE [ms]", "aMuSE* [ms]", "aMuSE #proj", "aMuSE* #proj"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>32} | {:>12.2} | {:>12.2} | {:>12.0} | {:>12.0}",
                        r.setting,
                        r.amuse_ms,
                        r.amuse_star_ms,
                        r.amuse_projections,
                        r.amuse_star_projections
                    );
                }
            }
            ExperimentOutput::CaseStudyTable { id, rows } => {
                let _ = writeln!(out, "== {id}: case study transmission ratio ==");
                let _ = writeln!(
                    out,
                    "{:>8} | {:>12} | {:>12} | {:>10}",
                    "scenario", "aMuSE", "oOP", "matches"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>11.1}% | {:>11.1}% | {:>10}",
                        r.scenario,
                        r.amuse_ratio * 100.0,
                        r.oop_ratio * 100.0,
                        r.matches
                    );
                }
            }
            ExperimentOutput::CaseStudyRuns { id, rows } => {
                let _ = writeln!(out, "== {id}: case study latency & throughput ==");
                let _ = writeln!(
                    out,
                    "{:>8} | {:>4} | {:>44} | {:>12} | {:>8}",
                    "scenario", "plan", "latency µs (min/q1/med/q3/max)", "events/s", "matches"
                );
                for r in rows {
                    let lat = format!(
                        "{:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
                        r.latency_us[0],
                        r.latency_us[1],
                        r.latency_us[2],
                        r.latency_us[3],
                        r.latency_us[4]
                    );
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>4} | {:>44} | {:>12.0} | {:>8}",
                        r.scenario, r.strategy, lat, r.events_per_sec, r.matches
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_resolve() {
        let ids: Vec<&str> = experiment_ids().collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");
        assert_eq!(
            all_experiments(),
            [
                "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c",
                "fig7d", "table3", "fig8"
            ]
        );
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("fig99", &SweepSettings::quick()).is_none());
    }

    #[test]
    fn render_ratio_sweep() {
        let out = ExperimentOutput::RatioSweep {
            id: "figX".into(),
            title: "test".into(),
            x_label: "x".into(),
            points: vec![RatioPoint {
                x: 0.5,
                amuse: vec![0.01],
                amuse_star: vec![0.02],
                oop: vec![0.9],
            }],
        };
        let text = out.render();
        assert!(text.contains("figX"));
        assert!(text.contains("0.5"));
        assert_eq!(out.id(), "figX");
    }
}

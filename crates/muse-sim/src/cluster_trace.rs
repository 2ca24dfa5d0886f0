//! A synthetic stand-in for the Google cluster workload traces used in the
//! paper's case study (§7.1, §7.3).
//!
//! The real dataset (12 h of task life-cycle events, ~770 k events, ~12.3 k
//! machines partitioned into 20 node streams) is proprietary-ish and large;
//! the experiments only depend on its *structure*, which this generator
//! reproduces:
//!
//! * nine event types denoting task life-cycle state transitions
//!   (`Submit`, `Schedule`, `Evict`, `Fail`, `Finish`, `Kill`, `Lost`,
//!   `UpdateP`, `UpdateR`),
//! * heavily skewed type frequencies (schedule/finish frequent,
//!   resource-constraint updates rare),
//! * an event node ratio of 1.0 — machines are partitioned into 20 node
//!   streams and every stream emits every type,
//! * `jID`/`uID` payload attributes supporting the equality predicates of
//!   Listing 1, with task life-cycles that actually produce
//!   fail → evict → kill → update sequences within a 30-minute window.
//!
//! Per-type rates are extracted from the generated trace exactly as the
//! paper extracts them from the dataset.

use crate::dist::exponential;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Payload, Timestamp, Value};
use muse_core::network::Network;
use muse_core::types::{EventTypeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The nine task life-cycle event types, in catalog order.
pub const TYPE_NAMES: [&str; 9] = [
    "Submit", "Schedule", "Evict", "Fail", "Finish", "Kill", "Lost", "UpdateP", "UpdateR",
];

/// Indices of the types within [`TYPE_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum LifecycleType {
    Submit = 0,
    Schedule = 1,
    Evict = 2,
    Fail = 3,
    Finish = 4,
    Kill = 5,
    Lost = 6,
    UpdateP = 7,
    UpdateR = 8,
}

impl LifecycleType {
    /// The corresponding event type id in a [`cluster_catalog`].
    pub fn type_id(self) -> EventTypeId {
        EventTypeId(self as u16)
    }
}

/// Configuration of the cluster trace generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterTraceConfig {
    /// Number of node streams (paper: machines partitioned into 20 sets).
    pub nodes: usize,
    /// Number of jobs.
    pub jobs: usize,
    /// Average tasks per job.
    pub tasks_per_job: usize,
    /// Trace horizon in milliseconds (paper: 12 h).
    pub duration_ms: Timestamp,
    /// Mean dwell time of a task in one state, in milliseconds. The paper's
    /// 30-minute query window covers the life-time of 85 % of jobs; with
    /// the default dwell time of 2 minutes a 4-transition life-cycle fits.
    pub mean_dwell_ms: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for ClusterTraceConfig {
    fn default() -> Self {
        Self {
            nodes: 20,
            jobs: 400,
            tasks_per_job: 4,
            duration_ms: 12 * 60 * 60 * 1000,
            mean_dwell_ms: 2.0 * 60.0 * 1000.0,
            seed: 0,
        }
    }
}

/// A generated cluster trace with its catalog and derived network.
#[derive(Debug, Clone)]
pub struct ClusterTrace {
    /// Catalog with the nine life-cycle types and the `jID`/`uID` attributes.
    pub catalog: Catalog,
    /// 20-node network, event node ratio 1.0, rates measured from the trace.
    pub network: Network,
    /// The global trace, sorted with sequence numbers assigned.
    pub events: Vec<Event>,
}

/// Builds the case-study catalog: nine event types plus `jID` and `uID`.
pub fn cluster_catalog() -> Catalog {
    let mut c = Catalog::new();
    for name in TYPE_NAMES {
        c.add_event_type(name).expect("distinct names");
    }
    c.add_attr("jID").expect("fresh attr");
    c.add_attr("uID").expect("fresh attr");
    c
}

/// Query 1 of Listing 1: a failed task of a job is evicted and killed, then
/// rescheduled with updated constraints.
pub fn query1_source() -> &'static str {
    "PATTERN SEQ(Fail f, Evict e, Kill k, UpdateR u) \
     WHERE f.uID = e.uID AND e.uID = k.uID AND k.uID = u.uID \
     WITHIN 30min"
}

/// Query 2 of Listing 1: mixed task outcomes within one job.
pub fn query2_source() -> &'static str {
    "PATTERN AND(Finish fi, Fail fa, Kill k, UpdateR u) \
     WHERE fi.jID = fa.jID AND fa.jID = k.jID AND k.jID = u.jID \
     WITHIN 30min"
}

/// Generates the synthetic cluster trace.
pub fn generate_cluster_trace(config: &ClusterTraceConfig) -> ClusterTrace {
    assert!(config.nodes > 0 && config.jobs > 0 && config.tasks_per_job > 0);
    let catalog = cluster_catalog();
    let j_id = catalog.attr("jID").unwrap();
    let u_id = catalog.attr("uID").unwrap();
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut raw: Vec<(Timestamp, u16, u16, i64, i64)> = Vec::new(); // (t, ty, node, jID, uID)
    let mut next_uid: i64 = 0;
    for job in 0..config.jobs {
        let job_id = job as i64;
        // Job arrival spread over the horizon, leaving room for life-cycles.
        let horizon = config
            .duration_ms
            .saturating_sub((config.mean_dwell_ms * 10.0) as u64);
        let arrival = rng.gen_range(0..horizon.max(1));
        let tasks = rng.gen_range(1..=config.tasks_per_job * 2 - 1);
        for _ in 0..tasks {
            let uid = next_uid;
            next_uid += 1;
            simulate_task(config, &mut rng, &mut raw, arrival, job_id, uid);
        }
    }
    raw.retain(|(t, ..)| *t < config.duration_ms);
    raw.sort_unstable();

    let events: Vec<Event> = raw
        .into_iter()
        .enumerate()
        .map(|(seq, (t, ty, node, jid, uid))| {
            let payload = Payload::from_pairs([(j_id, Value::Int(jid)), (u_id, Value::Int(uid))]);
            Event::with_payload(seq as u64, EventTypeId(ty), t, NodeId(node), payload)
        })
        .collect();

    let network = derive_network(config, &catalog, &events);
    ClusterTrace {
        catalog,
        network,
        events,
    }
}

/// Simulates one task's life-cycle, appending its events.
fn simulate_task(
    config: &ClusterTraceConfig,
    rng: &mut StdRng,
    raw: &mut Vec<(Timestamp, u16, u16, i64, i64)>,
    arrival: Timestamp,
    job_id: i64,
    uid: i64,
) {
    use LifecycleType::*;
    let dwell_rate = 1.0 / config.mean_dwell_ms;
    let mut t = arrival as f64;
    let mut node = rng.gen_range(0..config.nodes) as u16;
    let emit = |t: f64, ty: LifecycleType, node: u16, raw: &mut Vec<_>| {
        raw.push((t as Timestamp, ty as u16, node, job_id, uid));
    };

    emit(t, Submit, node, raw);
    // Rarely the pending task's constraints are updated before its first
    // schedule (UPDATE_PENDING is ~0.4 % of events in the published trace).
    if rng.gen_bool(0.005) {
        t += exponential(rng, dwell_rate);
        emit(t, UpdateP, node, raw);
    }
    let mut attempts = 0;
    loop {
        attempts += 1;
        t += exponential(rng, dwell_rate);
        emit(t, Schedule, node, raw);
        t += exponential(rng, dwell_rate);
        // Outcome mix loosely calibrated to the published trace statistics:
        // finishes and kills dominate; LOST and resource-constraint updates
        // are one to two orders of magnitude rarer than schedules.
        let outcome: f64 = rng.gen();
        if outcome < 0.55 {
            emit(t, Finish, node, raw);
            return;
        } else if outcome < 0.72 {
            emit(t, Kill, node, raw);
            return;
        } else if outcome < 0.75 {
            emit(t, Lost, node, raw);
            return;
        } else if outcome < 0.9 {
            // Failure path: fail → evict → kill, rarely followed by a
            // reschedule with updated resource constraints (the scenario of
            // Query 1 — UPDATE_RUNNING is ~0.1 % of the published trace).
            emit(t, Fail, node, raw);
            t += exponential(rng, dwell_rate);
            emit(t, Evict, node, raw);
            t += exponential(rng, dwell_rate);
            emit(t, Kill, node, raw);
            if rng.gen_bool(0.03) {
                t += exponential(rng, dwell_rate);
                emit(t, UpdateR, node, raw);
            }
            node = rng.gen_range(0..config.nodes) as u16; // rescheduled elsewhere
        } else {
            // Eviction path: evicted, then resubmitted elsewhere.
            emit(t, Evict, node, raw);
            node = rng.gen_range(0..config.nodes) as u16;
        }
        if attempts >= 3 {
            t += exponential(rng, dwell_rate);
            emit(t, Kill, node, raw);
            return;
        }
    }
}

/// Builds the 20-node network with event node ratio 1.0 and per-type rates
/// measured from the trace, exactly as the paper extracts rates from the
/// dataset. Rates are per node: `count(type) / (duration · |N|)` in events
/// per second.
fn derive_network(config: &ClusterTraceConfig, catalog: &Catalog, events: &[Event]) -> Network {
    let mut network = Network::new(config.nodes, catalog.num_event_types());
    for node in 0..config.nodes {
        for ty in catalog.event_types() {
            network.set_generates(NodeId(node as u16), ty);
        }
    }
    let duration_s = (config.duration_ms as f64 / 1000.0).max(1.0);
    let mut counts = vec![0usize; catalog.num_event_types()];
    for e in events {
        counts[e.ty.index()] += 1;
    }
    for (i, count) in counts.iter().enumerate() {
        // Every node produces the type; keep a tiny floor so rates stay
        // positive (a zero-rate type would make projections free).
        let per_node = *count as f64 / duration_s / config.nodes as f64;
        network.set_rate(EventTypeId(i as u16), per_node.max(1e-6));
    }
    network
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_nine_types_and_attrs() {
        let c = cluster_catalog();
        assert_eq!(c.num_event_types(), 9);
        assert!(c.attr("jID").is_some());
        assert!(c.attr("uID").is_some());
        assert_eq!(c.event_type("Fail"), Some(LifecycleType::Fail.type_id()));
    }

    #[test]
    fn trace_sorted_and_bounded() {
        let trace = generate_cluster_trace(&ClusterTraceConfig {
            jobs: 50,
            ..Default::default()
        });
        assert!(!trace.events.is_empty());
        for w in trace.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for (i, e) in trace.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert!(e.time < ClusterTraceConfig::default().duration_ms);
        }
    }

    #[test]
    fn event_node_ratio_is_one() {
        let trace = generate_cluster_trace(&ClusterTraceConfig::default());
        assert_eq!(trace.network.event_node_ratio(), 1.0);
        assert_eq!(trace.network.num_nodes(), 20);
    }

    #[test]
    fn type_frequencies_skewed_realistically() {
        let trace = generate_cluster_trace(&ClusterTraceConfig {
            jobs: 500,
            ..Default::default()
        });
        let count =
            |ty: LifecycleType| trace.events.iter().filter(|e| e.ty == ty.type_id()).count();
        // Schedules are the most frequent; updates are rare.
        assert!(count(LifecycleType::Schedule) > count(LifecycleType::UpdateR));
        assert!(count(LifecycleType::Finish) > count(LifecycleType::Lost));
        assert!(count(LifecycleType::UpdateR) > 0);
        assert!(count(LifecycleType::Fail) > 0);
    }

    #[test]
    fn fail_sequences_exist_for_query1() {
        // Some task must exhibit Fail → Evict → Kill → UpdateR with one uID
        // within 30 minutes.
        let trace = generate_cluster_trace(&ClusterTraceConfig {
            jobs: 200,
            ..Default::default()
        });
        let u_id = trace.catalog.attr("uID").unwrap();
        use std::collections::HashMap;
        let mut per_task: HashMap<i64, Vec<(Timestamp, EventTypeId)>> = HashMap::new();
        for e in &trace.events {
            if let Some(Value::Int(uid)) = e.payload.get(u_id) {
                per_task.entry(*uid).or_default().push((e.time, e.ty));
            }
        }
        let window = 30 * 60 * 1000;
        let found = per_task.values().any(|events| {
            let seq = [
                LifecycleType::Fail.type_id(),
                LifecycleType::Evict.type_id(),
                LifecycleType::Kill.type_id(),
                LifecycleType::UpdateR.type_id(),
            ];
            let mut i = 0;
            let mut start = None;
            for (t, ty) in events {
                if *ty == seq[i] {
                    if i == 0 {
                        start = Some(*t);
                    }
                    i += 1;
                    if i == seq.len() {
                        return *t - start.unwrap() <= window;
                    }
                }
            }
            false
        });
        assert!(found, "no Query-1 pattern in the synthetic trace");
    }

    #[test]
    fn rates_measured_from_trace() {
        let cfg = ClusterTraceConfig {
            jobs: 300,
            ..Default::default()
        };
        let trace = generate_cluster_trace(&cfg);
        let duration_s = cfg.duration_ms as f64 / 1000.0;
        for ty in trace.catalog.event_types() {
            let count = trace.events.iter().filter(|e| e.ty == ty).count() as f64;
            let expected = (count / duration_s / cfg.nodes as f64).max(1e-6);
            assert!((trace.network.rate(ty) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn queries_parse_against_catalog() {
        use muse_core::query::parser::{parse_query, ParserOptions};
        use muse_core::types::QueryId;
        let mut catalog = cluster_catalog();
        let q1 = parse_query(
            query1_source(),
            QueryId(0),
            &mut catalog,
            &ParserOptions::default(),
        )
        .unwrap();
        let q2 = parse_query(
            query2_source(),
            QueryId(1),
            &mut catalog,
            &ParserOptions::default(),
        )
        .unwrap();
        assert_eq!(q1.num_prims(), 4);
        assert_eq!(q2.num_prims(), 4);
        assert_eq!(q1.window(), 30 * 60 * 1000);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_cluster_trace(&ClusterTraceConfig {
            jobs: 20,
            ..Default::default()
        });
        let b = generate_cluster_trace(&ClusterTraceConfig {
            jobs: 20,
            ..Default::default()
        });
        assert_eq!(a.events, b.events);
    }
}

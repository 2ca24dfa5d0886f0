//! The calibrated observability workload of the `harness explain`
//! subcommand and of this module's witness-closure and drift tests.
//!
//! The drift monitor compares the §4.4 cost model's *per-rate-unit*
//! predictions against *per-tick* observed rates, so the workload here is
//! built to make the two commensurable on stationary input:
//!
//! * every event type has exactly one producing node — the trace
//!   generator runs one Poisson process per producing `(node, type)`
//!   pair, so a multi-producer type would observe a multiple of the
//!   model's declared rate;
//! * queries are two-primitive `SEQ`s whose window spans exactly
//!   `ticks_per_unit / rate_scale` ticks — the one-time-unit horizon the
//!   model's product rule implicitly prices (`SEQ(A,B)` observes
//!   `r_A · r_B · W` matches per tick in per-tick rates, which equals the
//!   modeled `r_A · r_B` exactly when `W` is one time unit).
//!
//! On this workload a stationary trace scores near-zero drift while a
//! trace generated from a rate-shifted network scores toward 1 — the two
//! properties the tests below assert. The same workload serves the witness
//! closure: with `provenance_sample = 1` every sink match gets a
//! [`ProvenanceRecord`], and replaying *only* the recorded witness events
//! must reproduce the match byte-for-byte.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::codec::encode_match;
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig, SimReport};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_telemetry::{ProvenanceRecord, TelemetrySpec};
use std::collections::BTreeSet;

/// Virtual ticks per network rate unit in the generated traces.
pub const TICKS_PER_UNIT: f64 = 100.0;

/// Trace rate multiplier (1: the network's declared rates verbatim).
pub const RATE_SCALE: f64 = 1.0;

/// Query window in ticks: exactly one rate unit (`TICKS_PER_UNIT /
/// RATE_SCALE`), the horizon that makes modeled and observed `SEQ` rates
/// agree on stationary input.
pub const WINDOW: Timestamp = 100;

/// Declared per-unit rates of the three event types.
const RATES: [f64; 3] = [3.0, 4.0, 2.0];

fn scaled_network(scale: f64) -> Network {
    let mut b = NetworkBuilder::new(RATES.len(), RATES.len());
    for (i, r) in RATES.iter().enumerate() {
        b = b.node(NodeId(i as u16), [EventTypeId(i as u16)]);
        b = b.rate(EventTypeId(i as u16), r * scale);
    }
    b.build()
}

/// The calibrated network: three nodes, each the sole producer of one
/// event type.
pub fn observe_network() -> Network {
    scaled_network(1.0)
}

/// The same topology with every rate tripled — used only to *generate*
/// drifted traces; plans and drift reports keep pricing against
/// [`observe_network`]'s declared rates.
pub fn shifted_network() -> Network {
    scaled_network(3.0)
}

/// Two-primitive `SEQ` queries (`SEQ(A,B)`, `SEQ(B,C)`) at the calibrated
/// window, planned by aMuSE over the calibrated network.
pub fn observe_deployment(network: &Network) -> Deployment {
    let leaf = |i: u16| Pattern::leaf(EventTypeId(i));
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(RATES.len()),
        [
            (
                Pattern::seq([leaf(0), leaf(1)]),
                Vec::<Predicate>::new(),
                WINDOW,
            ),
            (
                Pattern::seq([leaf(1), leaf(2)]),
                Vec::<Predicate>::new(),
                WINDOW,
            ),
        ],
    )
    .expect("observe patterns build a workload");
    let plan = amuse_workload(&workload, network, &AMuseConfig::default())
        .expect("observe workload plans");
    let ctx = PlanContext::new(workload.queries(), network, &plan.table);
    Deployment::new(&plan.merged, &ctx)
}

/// A stationary Poisson trace over `network` at the calibrated tick scale.
pub fn observe_trace(network: &Network, duration: f64, seed: u64) -> Vec<Event> {
    generate_traces(
        network,
        &TraceConfig {
            duration,
            ticks_per_unit: TICKS_PER_UNIT,
            rate_scale: RATE_SCALE,
            key_domain: 8,
            band_domain: 0,
            seed,
        },
    )
}

/// The telemetry spec of the witness run: every sink match recorded
/// (`provenance_sample = 1`), with a ring large enough that nothing is
/// evicted at the durations the harness uses.
pub fn witness_spec() -> TelemetrySpec {
    TelemetrySpec {
        provenance_sample: 1,
        provenance_capacity: 1 << 16,
        ..TelemetrySpec::default()
    }
}

/// Witness-run trace duration in time units (`--quick` halves the work).
pub fn witness_duration(quick: bool) -> f64 {
    if quick {
        60.0
    } else {
        120.0
    }
}

/// Builds the calibrated workload and runs it once on the simulator with
/// full provenance sampling: the run `harness explain` replays, so a hash
/// it prints for one `(duration, seed)` resolves in the next invocation.
pub fn witness_run(duration: f64, seed: u64) -> (Deployment, Vec<Event>, SimReport) {
    let network = observe_network();
    let deployment = observe_deployment(&network);
    let trace = observe_trace(&network, duration, seed);
    let config = SimConfig {
        telemetry: Some(witness_spec()),
    };
    let report = run_simulation(&deployment, &trace, &config);
    (deployment, trace, report)
}

fn seq_key(m: &Match) -> Vec<u64> {
    let mut seqs: Vec<u64> = m.entries().iter().map(|(_, e)| e.seq).collect();
    seqs.sort_unstable();
    seqs
}

/// Finds the sink match a provenance record describes in a run's
/// per-query match lists, by witness sequence-number set.
pub fn find_recorded_match<'a>(
    matches: &'a [Vec<Match>],
    rec: &ProvenanceRecord,
) -> Option<&'a Match> {
    let mut want = rec.witness_seqs();
    want.sort_unstable();
    matches
        .get(rec.query as usize)?
        .iter()
        .find(|m| seq_key(m) == want)
}

/// The witness-closure property of one record: filtering the trace down
/// to exactly the witness sequence numbers and replaying it through a
/// fresh simulation must reproduce the recorded match byte-identically
/// (same wire encoding as `original`, the match from the full run).
pub fn witness_closure_holds(
    deployment: &Deployment,
    trace: &[Event],
    rec: &ProvenanceRecord,
    original: &Match,
) -> bool {
    let seqs: BTreeSet<u64> = rec.witness_seqs().into_iter().collect();
    let filtered: Vec<Event> = trace
        .iter()
        .filter(|e| seqs.contains(&e.seq))
        .cloned()
        .collect();
    if filtered.len() != seqs.len() {
        return false;
    }
    let replay = run_simulation(deployment, &filtered, &SimConfig::default());
    match find_recorded_match(&replay.matches, rec) {
        Some(reproduced) => {
            use bytes::Buf as _;
            encode_match(reproduced).chunk() == encode_match(original).chunk()
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witness_run_records_and_closes() {
        let (deployment, trace, mut report) = witness_run(20.0, 11);
        let run = report.telemetry.take().expect("telemetry requested");
        assert!(report.metrics.sink_matches > 0, "workload must match");
        assert_eq!(
            run.provenance.len() as u64,
            report.metrics.sink_matches,
            "sample=1 must record every sink match without eviction"
        );
        for rec in run.provenance.records() {
            let original = find_recorded_match(&report.matches, rec)
                .expect("record describes a delivered match");
            assert!(
                witness_closure_holds(&deployment, &trace, rec, original),
                "witness replay diverged for {:016x}",
                rec.match_hash
            );
        }
    }

    #[test]
    fn stationary_trace_scores_near_zero_drift() {
        use muse_runtime::drift::CostDrift;
        let duration = 80.0;
        let network = observe_network();
        let deployment = observe_deployment(&network);
        let trace = observe_trace(&network, duration, 5);
        let config = SimConfig {
            telemetry: Some(TelemetrySpec::default()),
        };
        let mut report = run_simulation(&deployment, &trace, &config);
        let run = report.telemetry.take().unwrap();
        let ticks = (duration * TICKS_PER_UNIT) as u64;
        let drift = CostDrift::compute(&deployment, &run.rates, TICKS_PER_UNIT, RATE_SCALE, ticks);
        assert!(
            drift.score < 0.10,
            "stationary workload must track the model: {}",
            drift.render(0)
        );
    }

    #[test]
    fn shifted_trace_is_flagged() {
        use muse_runtime::drift::CostDrift;
        let duration = 80.0;
        let network = observe_network();
        let deployment = observe_deployment(&network);
        let trace = observe_trace(&shifted_network(), duration, 5);
        let config = SimConfig {
            telemetry: Some(TelemetrySpec::default()),
        };
        let mut report = run_simulation(&deployment, &trace, &config);
        let run = report.telemetry.take().unwrap();
        let ticks = (duration * TICKS_PER_UNIT) as u64;
        let drift = CostDrift::compute(&deployment, &run.rates, TICKS_PER_UNIT, RATE_SCALE, ticks);
        assert!(
            drift.score > 0.5,
            "3x rate shift must dominate the weighted score: {}",
            drift.render(0)
        );
    }
}

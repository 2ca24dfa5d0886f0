//! Provenance witness-closure and cross-executor parity.
//!
//! Three properties of the causal provenance tracer:
//!
//! 1. **Witness closure** (property-based): for randomized workloads over
//!    `AND`, `SEQ`, `OR`, and `NSEQ` patterns, filtering the trace down to
//!    exactly a record's witness sequence numbers and replaying it through
//!    a fresh simulation reproduces the recorded match identically.
//! 2. **Absence windows**: NSEQ matches carry non-empty absence windows
//!    naming the negated type, and the full trace really is empty of that
//!    type strictly inside each window.
//! 3. **Executor parity**: the simulator and the threaded executor — with
//!    and without a mid-run crash — record identical provenance sets
//!    (same match hashes, witnesses, and absence windows), because
//!    sampling is keyed on the order-independent match hash.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp, Value};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{CmpOp, Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::telemetry::{RunTelemetry, TelemetrySpec, TraceRecord};
use muse_runtime::threaded::{run_threaded, FaultPlan, ThreadedConfig};
use muse_sim::traces::{generate_traces, TraceConfig};
use muse_telemetry::ProvenanceRecord;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

fn t(i: u16) -> EventTypeId {
    EventTypeId(i)
}

fn network() -> Network {
    NetworkBuilder::new(3, 5)
        .node(NodeId(0), [t(0), t(3)])
        .node(NodeId(1), [t(1), t(4)])
        .node(NodeId(2), [t(2), t(0)])
        .rate(t(0), 4.0)
        .rate(t(1), 4.0)
        .rate(t(2), 3.0)
        .rate(t(3), 2.0)
        .rate(t(4), 2.0)
        .build()
}

#[derive(Debug, Clone)]
struct Recipe {
    kind: u8,
    window: Timestamp,
    band: Option<(i64, i64)>,
}

fn pattern_for(kind: u8) -> (Pattern, Vec<Predicate>) {
    let eq = |a: u8, b: u8| {
        Predicate::binary(
            (PrimId(a), AttrId(0)),
            CmpOp::Eq,
            (PrimId(b), AttrId(0)),
            0.2,
        )
    };
    match kind % 5 {
        0 => (
            Pattern::seq([
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
                Pattern::leaf(t(2)),
            ]),
            vec![eq(0, 1)],
        ),
        1 => (
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            vec![eq(0, 1)],
        ),
        2 => (
            Pattern::seq([
                Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::leaf(t(3)),
            ]),
            vec![eq(0, 1)],
        ),
        3 => (
            Pattern::or([
                Pattern::seq([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
                Pattern::seq([Pattern::leaf(t(3)), Pattern::leaf(t(4))]),
            ]),
            vec![eq(0, 1)],
        ),
        _ => (
            Pattern::nseq(
                Pattern::leaf(t(0)),
                Pattern::leaf(t(1)),
                Pattern::leaf(t(2)),
            ),
            vec![],
        ),
    }
}

fn build_workload(recipes: &[Recipe]) -> Workload {
    let patterns: Vec<(Pattern, Vec<Predicate>, Timestamp)> = recipes
        .iter()
        .map(|r| {
            let (pattern, mut preds) = pattern_for(r.kind);
            if let Some((lo, hi)) = r.band {
                preds.push(Predicate::unary(
                    PrimId(0),
                    AttrId(1),
                    CmpOp::Ge,
                    Value::Int(lo),
                    0.5,
                ));
                preds.push(Predicate::unary(
                    PrimId(0),
                    AttrId(1),
                    CmpOp::Le,
                    Value::Int(hi),
                    0.5,
                ));
            }
            (pattern, preds, r.window)
        })
        .collect();
    Workload::from_patterns(Catalog::with_anonymous_types(5), patterns)
        .expect("generated patterns are valid")
}

fn recipes_from_seed(count: usize, seed: u64) -> Vec<Recipe> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let kind = rng.gen_range(0u8..5);
            let window = [50u64, 120, 300][rng.gen_range(0..3usize)];
            let band = if rng.gen_bool(0.5) {
                let lo = rng.gen_range(0i64..8);
                Some((lo, lo + 3))
            } else {
                None
            };
            Recipe { kind, window, band }
        })
        .collect()
}

fn deploy(recipes: &[Recipe], net: &Network) -> Deployment {
    let workload = build_workload(recipes);
    let plan = amuse_workload(&workload, net, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), net, &plan.table);
    Deployment::new(&plan.merged, &ctx)
}

fn trace(net: &Network, seed: u64) -> Vec<Event> {
    generate_traces(
        net,
        &TraceConfig {
            duration: 25.0,
            ticks_per_unit: 10.0,
            rate_scale: 1.0,
            key_domain: 3,
            band_domain: 10,
            seed,
        },
    )
}

/// Full sampling into a ring large enough that nothing is evicted at
/// these trace sizes (wide-window AND recipes can emit ~100k matches).
fn full_spec() -> TelemetrySpec {
    TelemetrySpec {
        provenance_sample: 1,
        provenance_capacity: 1 << 20,
        ..TelemetrySpec::default()
    }
}

/// Executor configs with identical eviction horizons. The workloads here
/// mix windows (50..300), so the threaded chunk is the *smallest* window
/// (the default, pinned here) and the slack covers one chunk of inter-node
/// skew for every query (`slack · window ≥ chunk + window`); a chunk of the
/// largest window would silently evict small-window partials mid-skew and
/// lose matches the simulator keeps.
const CHUNK: Timestamp = 50;
const SLACK: f64 = 8.0;

fn sim_config(spec: TelemetrySpec) -> SimConfig {
    SimConfig {
        slack: SLACK,
        telemetry: Some(spec),
    }
}

fn threaded_config(spec: TelemetrySpec) -> ThreadedConfig {
    ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK),
        telemetry: Some(spec),
        ..ThreadedConfig::default()
    }
}

fn seq_key(m: &Match) -> Vec<u64> {
    let mut seqs: Vec<u64> = m.entries().iter().map(|(_, e)| e.seq).collect();
    seqs.sort_unstable();
    seqs
}

fn find_recorded<'a>(matches: &'a [Vec<Match>], rec: &ProvenanceRecord) -> Option<&'a Match> {
    let mut want = rec.witness_seqs();
    want.sort_unstable();
    matches
        .get(rec.query as usize)?
        .iter()
        .find(|m| seq_key(m) == want)
}

/// The closure property of one record: replaying only the witness events
/// reproduces the recorded match (full structural equality, not just the
/// seq fingerprint).
fn closure_holds(
    deployment: &Deployment,
    events: &[Event],
    rec: &ProvenanceRecord,
    original: &Match,
) -> bool {
    let seqs: BTreeSet<u64> = rec.witness_seqs().into_iter().collect();
    let filtered: Vec<Event> = events
        .iter()
        .filter(|e| seqs.contains(&e.seq))
        .cloned()
        .collect();
    if filtered.len() != seqs.len() {
        return false;
    }
    let replay = run_simulation(deployment, &filtered, &SimConfig::default());
    find_recorded(&replay.matches, rec) == Some(original)
}

/// A match list as a multiset: its sorted fingerprints, so that a match
/// emitted twice shows.
fn multiset(matches: &[Match]) -> Vec<Vec<u64>> {
    let mut prints: Vec<_> = matches.iter().map(Match::fingerprint).collect();
    prints.sort_unstable();
    prints
}

/// One record's comparable payload: witness seqs in slot order plus
/// absence windows as `(ty, lo, hi)` tuples.
type ProvenanceKey = (Vec<u64>, BTreeSet<(u16, u64, u64)>);

/// Canonical comparable form of one run's provenance: match hash →
/// (witness seqs in slot order, absence windows as tuples).
fn provenance_index(run: &RunTelemetry) -> BTreeMap<u64, ProvenanceKey> {
    run.provenance
        .records()
        .map(|rec| {
            let absence: BTreeSet<(u16, u64, u64)> =
                rec.absence.iter().map(|a| (a.ty, a.lo, a.hi)).collect();
            (rec.match_hash, (rec.witness_seqs(), absence))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every recorded sink match is explained by its witness set alone:
    /// replaying just those events through a fresh simulation reproduces
    /// the match. Bounded per case to keep replay counts sane.
    #[test]
    fn witness_replay_reproduces_match(
        count in 1usize..4,
        gen_seed in any::<u64>(),
        trace_seed in 0u64..50,
    ) {
        let net = network();
        let recipes = recipes_from_seed(count, gen_seed);
        let deployment = deploy(&recipes, &net);
        let events = trace(&net, trace_seed);
        let config = SimConfig {
            telemetry: Some(full_spec()),
            ..SimConfig::default()
        };
        let mut report = run_simulation(&deployment, &events, &config);
        let run = report.telemetry.take().expect("telemetry requested");
        prop_assert_eq!(run.provenance.dropped(), 0, "ring must not evict");
        prop_assert_eq!(run.provenance.len() as u64, report.metrics.sink_matches);
        for rec in run.provenance.records().take(40) {
            let original = find_recorded(&report.matches, rec);
            prop_assert!(original.is_some(), "record {:016x} names no delivered match", rec.match_hash);
            prop_assert!(
                closure_holds(&deployment, &events, rec, original.unwrap()),
                "witness replay diverged for {:016x} (query {})",
                rec.match_hash,
                rec.query
            );
            // Negation-free queries never carry absence windows; NSEQ
            // sink matches always do (checked exhaustively below).
            if deployment.queries[rec.query as usize].nseq_contexts().is_empty() {
                prop_assert!(rec.absence.is_empty());
            }
        }
    }
}

#[test]
fn nseq_records_carry_valid_absence_windows() {
    let net = network();
    // A single pure-NSEQ workload (recipe kind 4): every sink match must
    // explain its negation with at least one absence window.
    let recipes = vec![Recipe {
        kind: 4,
        window: 300,
        band: None,
    }];
    let deployment = deploy(&recipes, &net);
    let events = trace(&net, 9);
    let config = SimConfig {
        telemetry: Some(full_spec()),
        ..SimConfig::default()
    };
    let mut report = run_simulation(&deployment, &events, &config);
    let run = report.telemetry.take().unwrap();
    assert!(report.metrics.sink_matches > 0, "workload must match");
    let mut checked = 0usize;
    for rec in run.provenance.records() {
        assert!(
            !rec.absence.is_empty(),
            "NSEQ record {:016x} lost its absence window",
            rec.match_hash
        );
        for a in &rec.absence {
            assert!(a.lo <= a.hi, "window must be ordered");
            // The full trace honors the window: no event of the negated
            // type strictly inside it (otherwise the match would not have
            // been emitted in the first place — this pins the recorded
            // window to the matcher's actual semantics).
            let violation = events
                .iter()
                .any(|e| e.ty.0 == a.ty && e.time > a.lo && e.time < a.hi);
            assert!(
                !violation,
                "record {:016x}: negated type {} present inside ({}, {})",
                rec.match_hash, a.ty, a.lo, a.hi
            );
        }
        let original = find_recorded(&report.matches, rec).expect("delivered");
        assert!(closure_holds(&deployment, &events, rec, original));
        checked += 1;
    }
    assert!(checked > 0, "sampling at 1 must record matches");
}

#[test]
fn sim_and_threaded_record_identical_provenance() {
    let net = network();
    let recipes = recipes_from_seed(3, 7);
    let deployment = deploy(&recipes, &net);
    let events = trace(&net, 13);
    let mut sim_report = run_simulation(&deployment, &events, &sim_config(full_spec()));
    let threaded_report = run_threaded(&deployment, &events, &threaded_config(full_spec()));
    let sim_run = sim_report.telemetry.take().unwrap();
    let threaded_run = threaded_report.telemetry.expect("telemetry requested");
    let sim_idx = provenance_index(&sim_run);
    let threaded_idx = provenance_index(&threaded_run);
    assert!(!sim_idx.is_empty(), "workload must record matches");
    assert_eq!(
        sim_idx, threaded_idx,
        "executors must record identical witness sets and absence windows"
    );
}

#[test]
fn sampling_is_deterministic_across_executors() {
    let net = network();
    let recipes = recipes_from_seed(3, 7);
    let deployment = deploy(&recipes, &net);
    let events = trace(&net, 13);
    let sampled_spec = TelemetrySpec {
        provenance_sample: 4,
        provenance_capacity: 1 << 20,
        ..TelemetrySpec::default()
    };
    let mut sim_report = run_simulation(&deployment, &events, &sim_config(sampled_spec.clone()));
    let threaded_report = run_threaded(&deployment, &events, &threaded_config(sampled_spec));
    let sim_idx = provenance_index(&sim_report.telemetry.take().unwrap());
    let threaded_idx = provenance_index(&threaded_report.telemetry.unwrap());
    assert_eq!(sim_idx, threaded_idx, "hash-keyed sampling must agree");
    for hash in sim_idx.keys() {
        assert_eq!(hash % 4, 0, "sampled hash must be in the 1-in-4 class");
    }
}

#[test]
fn crash_and_replay_preserves_provenance() {
    let net = network();
    let recipes = recipes_from_seed(3, 7);
    let deployment = deploy(&recipes, &net);
    let events = trace(&net, 13);
    let baseline = run_threaded(&deployment, &events, &threaded_config(full_spec()));
    let baseline_idx = provenance_index(baseline.telemetry.as_ref().unwrap());
    assert!(!baseline_idx.is_empty(), "workload must record matches");
    for node in 0..3usize {
        let local = events.iter().filter(|e| e.origin.index() == node).count() as u64;
        let config = ThreadedConfig {
            fault: Some(FaultPlan {
                node,
                crash_at: local / 2,
                restart_delay: Duration::ZERO,
            }),
            // A trace long enough to keep the crash record.
            ..threaded_config(TelemetrySpec {
                trace_capacity: 1 << 24,
                ..full_spec()
            })
        };
        let faulted = run_threaded(&deployment, &events, &config);
        assert_eq!(
            faulted.metrics.recovery.crashes, 1,
            "crash on node {node} must fire"
        );
        let crashed: Vec<usize> = faulted
            .telemetry
            .as_ref()
            .unwrap()
            .trace
            .records()
            .filter_map(|r| match r {
                TraceRecord::Crash { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, [node], "the trace must record the crash");
        // The rollback drops the sink matches emitted since the chunk
        // started, and the re-run emits them again: each match is in the
        // report once.
        assert_eq!(
            faulted
                .matches
                .iter()
                .map(|q| multiset(q))
                .collect::<Vec<_>>(),
            baseline
                .matches
                .iter()
                .map(|q| multiset(q))
                .collect::<Vec<_>>(),
            "crash on node {node} changed the sink matches"
        );
        // Telemetry is observational, not checkpointed: the crashed
        // chunk's re-execution may record a match twice, so parity is on
        // the hash-keyed *set* (dedup is the ring's documented consumer
        // contract), not on record counts.
        let faulted_idx = provenance_index(faulted.telemetry.as_ref().unwrap());
        assert_eq!(
            faulted_idx, baseline_idx,
            "crash on node {node} changed the recorded provenance set"
        );
    }
}

//! End-to-end live migration: snapshot a run under plan A, certify the
//! A→B migration with `muse-verify`'s plan-diff pass, map the state with
//! [`checkpoint::map_snapshot`], and resume under plan B — in the
//! simulator and the threaded executor. Certified migrations restore
//! fingerprint-identical and resume to the uninterrupted run's results: the
//! matches the old plan emitted before the snapshot, followed by those the
//! new plan emits after it, each once;
//! rejected migrations must fail the restore instead of corrupting state,
//! and a join input that becomes shared (or stops being shared) carries
//! its buffered matches across.

use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Timestamp, Value};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::{Network, NetworkBuilder};
use muse_core::projection::ProjectionTable;
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId};
use muse_core::workload::Workload;
use muse_runtime::checkpoint::{self, CheckpointError};
use muse_runtime::deploy::Deployment;
use muse_runtime::matcher::Match;
use muse_runtime::sim::{SimConfig, SimExecutor};
use muse_runtime::threaded::{run_threaded, run_threaded_resumed, ThreadedConfig};
use muse_verify::{verify_migration, MigrationPlan, Report};

fn t(i: u16) -> EventTypeId {
    EventTypeId(i)
}
fn n(i: u16) -> NodeId {
    NodeId(i)
}

fn network() -> Network {
    NetworkBuilder::new(3, 3)
        .node(n(0), [t(0), t(2)])
        .node(n(1), [t(0), t(1)])
        .node(n(2), [t(1)])
        .rate(t(0), 20.0)
        .rate(t(1), 20.0)
        .rate(t(2), 1.0)
        .build()
}

fn trace(network: &Network, seed: u64) -> Vec<Event> {
    muse_sim::traces::generate_traces(
        network,
        &muse_sim::traces::TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 0,
            band_domain: 0,
            seed,
        },
    )
}

/// The Fig. 1 `SEQ(AND(t0, t1), t2)` query — partial matches cross the
/// network, so the migrated state is genuinely distributed.
fn pattern() -> Pattern {
    Pattern::seq([
        Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
        Pattern::leaf(t(2)),
    ])
}

/// One placed plan: queries, projection table, graph, and the deployment
/// built from them (kept together so a `PlanContext` can be re-derived for
/// the migration pass).
struct Placed {
    queries: Vec<Query>,
    table: ProjectionTable,
    graph: MuseGraph,
    deployment: Deployment,
}

fn place(window: Timestamp, network: &Network) -> Placed {
    place_all(vec![(pattern(), Vec::new(), window)], network)
}

/// Plans and deploys `(pattern, predicates, window)` registrations, query
/// `i` with id `i`.
fn place_all(
    registrations: Vec<(Pattern, Vec<Predicate>, Timestamp)>,
    network: &Network,
) -> Placed {
    let workload = Workload::from_patterns(Catalog::with_anonymous_types(3), registrations)
        .expect("patterns build a workload");
    let plan =
        amuse_workload(&workload, network, &AMuseConfig::default()).expect("aMuSE plans workload");
    let queries = workload.queries().to_vec();
    let ctx = PlanContext::new(&queries, network, &plan.table);
    let deployment = Deployment::new(&plan.merged, &ctx);
    Placed {
        queries,
        table: plan.table,
        graph: plan.merged,
        deployment,
    }
}

/// Whether some join input of the plan is stored by two or more joins.
fn shares_an_input(deployment: &Deployment) -> bool {
    (0..deployment.inputs.len()).any(|i| !deployment.shared_readers(i).is_empty())
}

fn certify(a: &Placed, b: &Placed, network: &Network) -> (Report, MigrationPlan) {
    let actx = PlanContext::new(&a.queries, network, &a.table);
    let bctx = PlanContext::new(&b.queries, network, &b.table);
    verify_migration(&a.graph, &actx, &b.graph, &bctx, None)
}

/// A match list as a multiset: its sorted fingerprints, so that a match
/// emitted twice shows.
fn fingerprints(matches: &[Match]) -> Vec<Vec<u64>> {
    let mut prints: Vec<_> = matches.iter().map(Match::fingerprint).collect();
    prints.sort_unstable();
    prints
}

/// Per query of `new`, the matches a run of `old` emitted before its
/// snapshot (those of the query with the same id) followed by those of the
/// run of `new` resumed from it.
fn across_cut(
    old: &Placed,
    before: &[Vec<Match>],
    new: &Placed,
    after: &[Vec<Match>],
) -> Vec<Vec<Match>> {
    let before_of = |q: &Query| {
        let old_idx = old.queries.iter().position(|o| o.id() == q.id());
        old_idx.map_or(&[][..], |i| &before[i])
    };
    let queries = new.queries.iter().zip(after);
    queries.map(|(q, m)| [before_of(q), m].concat()).collect()
}

/// A certified identity migration resumes the simulator to exactly the
/// uninterrupted run's results, and the mapped snapshot claims the new
/// plan's fingerprint.
#[test]
fn certified_migration_is_lossless_in_sim() {
    let net = network();
    let a = place(5_000, &net);
    let b = place(5_000, &net);
    let events = trace(&net, 1);
    let half = events.len() / 2;

    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::encode(&exec.to_snapshot());
    let before = exec.finish();

    let (report, plan) = certify(&a, &b, &net);
    assert!(plan.safe, "identity migration must certify:\n{report}");

    let mapped = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .expect("certified migration restores");
    assert_eq!(
        mapped.plan,
        b.deployment.fingerprint(),
        "mapped snapshot must claim the new plan's fingerprint"
    );

    let mut resumed = SimExecutor::from_snapshot(&b.deployment, SimConfig::default(), mapped)
        .expect("certified migration restores into an executor");
    resumed.process_trace(&events[half..]);
    let migrated = resumed.finish();

    let mut uninterrupted = SimExecutor::new(&b.deployment, SimConfig::default());
    uninterrupted.process_trace(&events);
    let baseline = uninterrupted.finish();

    assert!(!before.matches[0].is_empty(), "the head produces matches");
    assert!(!migrated.matches[0].is_empty(), "the tail produces matches");
    assert_eq!(
        fingerprints(&across_cut(&a, &before.matches, &b, &migrated.matches)[0]),
        fingerprints(&baseline.matches[0]),
        "migrated run diverges from the uninterrupted run"
    );
    let mut merged = before.metrics;
    merged.merge(&migrated.metrics);
    assert_eq!(
        merged, baseline.metrics,
        "the two runs count the whole trace once"
    );
}

/// The same certified migration resumes the threaded executor: the mapped
/// snapshot re-encodes and feeds the ordinary resume path, and the results
/// match an uninterrupted threaded run.
#[test]
fn certified_migration_is_lossless_threaded() {
    let net = network();
    let a = place(5_000, &net);
    let b = place(5_000, &net);
    let events = trace(&net, 17);
    let half = events.len() / 2;

    let config = ThreadedConfig::default();
    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::encode(&exec.to_snapshot());
    let before = exec.finish();

    let (report, plan) = certify(&a, &b, &net);
    assert!(plan.safe, "identity migration must certify:\n{report}");

    let mapped = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .expect("certified migration restores");
    let mapped_bytes = checkpoint::encode(&mapped);
    let migrated = run_threaded_resumed(&b.deployment, &events[half..], &config, &mapped_bytes)
        .expect("mapped snapshot resumes the threaded executor");

    let baseline = run_threaded(&b.deployment, &events, &config);
    assert!(!before.matches[0].is_empty(), "the head produces matches");
    assert!(!migrated.matches[0].is_empty(), "the tail produces matches");
    assert_eq!(
        fingerprints(&across_cut(&a, &before.matches, &b, &migrated.matches)[0]),
        fingerprints(&baseline.matches[0]),
        "migrated threaded run diverges from the uninterrupted run"
    );
}

/// A widened window certifies with a replay obligation and restores. Across
/// the cut, the run finds every match of an uninterrupted run under the old
/// window and only matches of one under the new, each once: the carried
/// state lacks what only the wider window would have kept before the cut.
#[test]
fn widened_window_migration_restores() {
    let net = network();
    let a = place(5_000, &net);
    let b = place(8_000, &net);
    let events = trace(&net, 9);
    let half = events.len() / 2;

    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::encode(&exec.to_snapshot());
    let before = exec.finish();

    let (report, plan) = certify(&a, &b, &net);
    assert!(plan.safe, "widened window must certify:\n{report}");
    assert!(plan.needs_replay, "widening carries a replay obligation");

    let mapped = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .expect("certified migration maps");
    let mut resumed = SimExecutor::from_snapshot(&b.deployment, SimConfig::default(), mapped)
        .expect("certified migration restores");
    resumed.process_trace(&events[half..]);
    let migrated = resumed.finish();
    let found = fingerprints(&across_cut(&a, &before.matches, &b, &migrated.matches)[0]);
    let [narrow, wide] = [&a, &b].map(|placed| {
        let mut exec = SimExecutor::new(&placed.deployment, SimConfig::default());
        exec.process_trace(&events);
        fingerprints(&exec.finish().matches[0])
    });
    assert!(!before.matches[0].is_empty() && !migrated.matches[0].is_empty());
    assert!(
        found.windows(2).all(|w| w[0] != w[1]),
        "a match found twice"
    );
    let within = |small: &[Vec<u64>], large: &[Vec<u64>]| small.iter().all(|m| large.contains(m));
    assert!(within(&narrow, &found), "a match of the old window lost");
    assert!(within(&found, &wide), "a match no window admits");
}

/// An uncertified plan — here a narrowed window — must fail the restore
/// with `MigrationRejected` in both executor paths. This is the soundness
/// gate: no state ever crosses an unsafe migration.
#[test]
fn rejected_migration_fails_restore() {
    let net = network();
    let a = place(5_000, &net);
    let b = place(2_000, &net);
    let events = trace(&net, 29);

    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..events.len() / 2]);
    let bytes = checkpoint::encode(&exec.to_snapshot());

    let (report, plan) = certify(&a, &b, &net);
    assert!(!plan.safe, "narrowed window must not certify:\n{report}");

    let restored = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .and_then(|snap| SimExecutor::from_snapshot(&b.deployment, SimConfig::default(), snap));
    match restored {
        Err(CheckpointError::MigrationRejected(why)) => {
            assert!(why.contains("not certified safe"), "{why}");
        }
        Err(other) => panic!("expected MigrationRejected, got {other:?}"),
        Ok(_) => panic!("unsafe migration must not restore"),
    }
    match checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes) {
        Err(CheckpointError::MigrationRejected(_)) => {}
        other => panic!("expected MigrationRejected, got {other:?}"),
    }
}

/// The snapshot fed to a migration must actually come from the old plan:
/// a foreign snapshot fails with `PlanMismatch` even when the migration
/// itself is certified.
#[test]
fn migration_rejects_foreign_snapshot() {
    let net = network();
    let a = place(5_000, &net);
    let b = place(5_000, &net);
    let other = place(3_000, &net);
    let events = trace(&net, 31);

    let mut exec = SimExecutor::new(&other.deployment, SimConfig::default());
    exec.process_trace(&events[..events.len() / 2]);
    let bytes = checkpoint::encode(&exec.to_snapshot());

    let (report, plan) = certify(&a, &b, &net);
    assert!(plan.safe, "{report}");

    match checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes) {
        Err(CheckpointError::PlanMismatch { found, .. }) => {
            assert_eq!(found, other.deployment.fingerprint());
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
}

/// The Fig. 1 query alone, and next to a variant of itself whose `t2` lies
/// in a band of attribute 1: the variant's `SEQ(t0, t2)` joins read the
/// query's `t0` streams, so the plan with both stores each of them once
/// for two joins, where the plan with one query stores it in one join.
fn unshared_and_shared(network: &Network) -> (Placed, Placed) {
    let band = [(CmpOp::Ge, 0), (CmpOp::Le, 4)]
        .map(|(op, v)| Predicate::unary(PrimId(2), AttrId(1), op, Value::Int(v), 0.5))
        .to_vec();
    let alone = place_all(vec![(pattern(), Vec::new(), 1_000)], network);
    let both = place_all(
        vec![(pattern(), Vec::new(), 1_000), (pattern(), band, 1_000)],
        network,
    );
    assert!(!shares_an_input(&alone.deployment));
    assert!(
        shares_an_input(&both.deployment),
        "the variant shares an input"
    );
    (alone, both)
}

/// A trace ten windows of [`unshared_and_shared`] long, attribute 1 of
/// every event in `0..10`.
fn banded_trace(network: &Network, seed: u64) -> Vec<Event> {
    muse_sim::traces::generate_traces(
        network,
        &muse_sim::traces::TraceConfig {
            duration: 100.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 0,
            band_domain: 10,
            seed,
        },
    )
}

/// Migrates a run of `a`, snapshotted halfway, onto `b`, on both executors:
/// query 0, carried, must match exactly as in an uninterrupted run of `b`,
/// some of whose matches span the snapshot.
fn assert_carried_query_lossless(a: &Placed, b: &Placed, network: &Network, events: &[Event]) {
    let half = events.len() / 2;
    let (report, plan) = certify(a, b, network);
    assert!(plan.safe, "the migration must certify:\n{report}");

    let config = SimConfig::default();
    let mut exec = SimExecutor::new(&a.deployment, config.clone());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::encode(&exec.to_snapshot());
    let before = exec.finish();
    let mapped = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .expect("certified migration maps");
    let mut resumed = SimExecutor::from_snapshot(&b.deployment, config.clone(), mapped)
        .expect("certified migration restores");
    resumed.process_trace(&events[half..]);
    let migrated = resumed.finish();
    let mut uninterrupted = SimExecutor::new(&b.deployment, config);
    uninterrupted.process_trace(events);
    let baseline = uninterrupted.finish();
    let split = events[half].time;
    assert!(
        (baseline.matches[0].iter()).any(|m| m.first_time() < split && m.last_time() >= split),
        "a match spans the snapshot"
    );
    assert_eq!(
        across_cut(a, &before.matches, b, &migrated.matches)[0],
        baseline.matches[0],
        "simulator: the carried query's matches, in order"
    );

    let config = ThreadedConfig::default();
    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::encode(&exec.to_snapshot());
    let before = exec.finish();
    let mapped = checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan, &bytes)
        .expect("certified migration restores");
    let migrated = run_threaded_resumed(
        &b.deployment,
        &events[half..],
        &config,
        &checkpoint::encode(&mapped),
    )
    .expect("mapped snapshot resumes the threaded executor");
    let baseline = run_threaded(&b.deployment, events, &config);
    assert_eq!(
        fingerprints(&across_cut(a, &before.matches, b, &migrated.matches)[0]),
        fingerprints(&baseline.matches[0]),
        "threaded: the carried query's matches"
    );
}

/// Appending the band variant turns each `t0` input the query's
/// `SEQ(t0, t2)` join stores alone into one the node stores once for both
/// queries' joins: the buffer starts from the carried join's own store.
#[test]
fn migration_into_a_shared_input_is_lossless() {
    let net = network();
    let (alone, both) = unshared_and_shared(&net);
    assert_carried_query_lossless(&alone, &both, &net, &banded_trace(&net, 37));
}

/// Dropping the variant again: the carried join stores the input alone
/// and takes the shared buffer's matches into its own store.
#[test]
fn migration_out_of_a_shared_input_is_lossless() {
    let net = network();
    let (alone, both) = unshared_and_shared(&net);
    assert_carried_query_lossless(&both, &alone, &net, &banded_trace(&net, 37));
}

//! Hostile bytes in the snapshot format: a valid snapshot taken mid-run with
//! buffered state (in join slots, a negation assembler, or a buffer two
//! joins share), then single bytes overwritten, bits flipped, or a random
//! tail spliced on. `checkpoint::decode` must return `Err` or a snapshot
//! that re-encodes, never panic, and never size a buffer from a length
//! prefix beyond the input — which this binary's allocator measures. A
//! snapshot that decodes must in turn be refused by restore or resume
//! without a panic. The match codec on its own gets the same treatment:
//! arbitrary bytes and mutated encodings of real matches. A trace's `seq`
//! numbers are hostile input as well: they must not size the threaded
//! executor's latency table.

use bytes::Buf;
use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Payload, Value};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};
use muse_core::workload::Workload;
use muse_runtime::checkpoint::{decode, decode_for, encode, restore, CheckpointError, Snapshot};
use muse_runtime::codec::{encode_match, try_decode_match};
use muse_runtime::matcher::{JoinState, StoreState};
use muse_runtime::{run_threaded, ThreadedConfig};
use muse_runtime::{Deployment, Match, SimConfig, SimExecutor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// Records, per thread and only inside [`peak_alloc`], the largest single
/// allocation requested.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| {
        if let Some(peak) = p.get() {
            p.set(Some(peak.max(size)));
        }
    });
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what it returns, so `System`'s contract is this allocator's.
// `note` neither allocates nor unwinds: the thread-local is a `const`
// `Cell` without a destructor, and `try_with` ignores a torn-down slot.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note(size);
        System.realloc(ptr, layout, size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f`; returns its result and the largest single allocation it
/// requested.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let out = f();
    (out, PEAK.with(|p| p.replace(None)).unwrap_or(0))
}

/// One event type per node (type id = node id), each at rate 1.
fn one_type_per_node(n: u16) -> Network {
    (0..n)
        .map(EventTypeId)
        .fold(NetworkBuilder::new(n.into(), n.into()), |net, t| {
            net.node(NodeId(t.0), [t]).rate(t, 1.0)
        })
        .build()
}

fn deploy(net: &Network, pattern: &Pattern, predicates: Vec<Predicate>) -> Deployment {
    let q = Query::build(QueryId(0), pattern, predicates, 100).unwrap();
    let plan = amuse(&q, net, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(std::slice::from_ref(&q), net, &plan.table);
    Deployment::new(&plan.graph, &ctx)
}

/// `SEQ(A, B)` over two nodes with `A.k = B.k`: both join slots are keyed.
fn keyed_two_node_deployment() -> Deployment {
    let [a, b] = [0, 1].map(|t| Pattern::leaf(EventTypeId(t)));
    let k = AttrId(0);
    let same_k = Predicate::binary((PrimId(0), k), CmpOp::Eq, (PrimId(1), k), 0.25);
    deploy(&one_type_per_node(2), &Pattern::seq([a, b]), vec![same_k])
}

/// `NSEQ(A, SEQ(B, D), C)` with A, B, D, C produced at nodes 0..4: the sink
/// join hosts a forbidden-pattern assembler.
fn composite_guard_deployment() -> Deployment {
    let [a, b, d, c] = [0, 1, 2, 3].map(|t| Pattern::leaf(EventTypeId(t)));
    let pattern = Pattern::nseq(a, Pattern::seq([b, d]), c);
    deploy(&one_type_per_node(4), &pattern, vec![])
}

/// `SEQ(A, B)` twice, the Bs in disjoint bands of attribute 1: both joins
/// store the As, in one buffer.
fn shared_deployment() -> Deployment {
    let net = one_type_per_node(2);
    let [a, b] = [0, 1].map(|t| Pattern::leaf(EventTypeId(t)));
    let band = |lo, hi| {
        [(CmpOp::Ge, lo), (CmpOp::Le, hi)]
            .map(|(op, v)| Predicate::unary(PrimId(1), AttrId(1), op, Value::Int(v), 0.5))
            .to_vec()
    };
    let pattern = Pattern::seq([a, b]);
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(2),
        [band(0, 4), band(5, 9)].map(|preds| (pattern.clone(), preds, 100)),
    )
    .unwrap();
    let plan = amuse_workload(&workload, &net, &AMuseConfig::default()).unwrap();
    let ctx = PlanContext::new(workload.queries(), &net, &plan.table);
    Deployment::new(&plan.merged, &ctx)
}

/// The encoded snapshot of `deployment` after `events`.
fn snapshot_after(deployment: &Deployment, events: &[Event]) -> Vec<u8> {
    let mut executor = SimExecutor::new(deployment, SimConfig::default());
    executor.process_trace(events);
    encode(&executor.to_snapshot())
}

/// An event of type `ty` at node `ty` with attribute `attr` set to `v`.
fn with_attr(seq: u64, ty: u16, time: u64, attr: u8, v: i64) -> Event {
    let payload = Payload::from_pairs(vec![(AttrId(attr), Value::Int(v))]);
    Event::with_payload(seq, EventTypeId(ty), time, NodeId(ty), payload)
}

/// The three snapshots under attack: four As under three keys buffered in
/// the keyed join, the forbidden `SEQ(B, D)` half-assembled (B@20 held by
/// the assembler) after A@10, and three As in the shared buffer.
fn mid_run_snapshots() -> [Vec<u8>; 3] {
    let ev = |seq, ty: u16, time| Event::new(seq, EventTypeId(ty), time, NodeId(ty));
    [
        snapshot_after(
            &keyed_two_node_deployment(),
            &[
                with_attr(0, 0, 10, 0, 1),
                with_attr(1, 0, 12, 0, 2),
                with_attr(2, 0, 14, 0, 3),
                with_attr(3, 0, 16, 0, 1),
            ],
        ),
        snapshot_after(&composite_guard_deployment(), &[ev(0, 0, 10), ev(1, 1, 20)]),
        snapshot_after(
            &shared_deployment(),
            &[ev(0, 0, 10), ev(1, 0, 12), ev(2, 0, 14)],
        ),
    ]
}

/// The deployments of [`mid_run_snapshots`], in the same order.
fn mid_run_deployments() -> [Deployment; 3] {
    [
        keyed_two_node_deployment(),
        composite_guard_deployment(),
        shared_deployment(),
    ]
}

/// Events that follow [`mid_run_snapshots`]' prefixes, in the same order:
/// keyed `B`s that probe the buffered `A`s, the rest of the composite
/// guard with a second `A … C` around it, and a `B` in each band.
fn tails() -> [Vec<Event>; 3] {
    let ev = |seq, ty: u16, time| Event::new(seq, EventTypeId(ty), time, NodeId(ty));
    [
        vec![
            with_attr(4, 1, 20, 0, 1),
            with_attr(5, 0, 22, 0, 2),
            with_attr(6, 1, 24, 0, 2),
        ],
        vec![
            ev(2, 2, 25),
            ev(3, 3, 30),
            ev(4, 0, 35),
            ev(5, 1, 40),
            ev(6, 3, 50),
        ],
        vec![
            with_attr(3, 1, 20, 1, 2),
            ev(4, 0, 22),
            with_attr(5, 1, 24, 1, 7),
        ],
    ]
}

fn mutate(bytes: &mut Vec<u8>, mutation: u8, rng: &mut StdRng) {
    match mutation {
        0 => {
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u8..=255);
            }
        }
        1 => {
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0..8);
            }
        }
        _ => {
            bytes.truncate(rng.gen_range(0..bytes.len()));
            let tail = rng.gen_range(0..64);
            bytes.extend((0..tail).map(|_| rng.gen_range(0u8..=255)));
        }
    }
}

/// Two events, the second with `seq` 2^26: the threaded executor keeps one
/// injection mark per event, not one per `seq` up to the largest (a
/// 512 MiB table here). The far `seq` gets no mark, so the one match's
/// latency sample is counted as dropped.
#[test]
fn a_sparse_seq_does_not_size_the_latency_table() {
    let [a, b] = [0, 1].map(|t| Pattern::leaf(EventTypeId(t)));
    let deployment = deploy(&one_type_per_node(2), &Pattern::seq([a, b]), vec![]);
    let events = [
        Event::new(0, EventTypeId(0), 10, NodeId(0)),
        Event::new(1 << 26, EventTypeId(1), 20, NodeId(1)),
    ];
    let (report, peak) =
        peak_alloc(|| run_threaded(&deployment, &events, &ThreadedConfig::default()));
    assert!(peak < 1 << 20, "largest allocation: {peak} bytes");
    assert_eq!(report.matches[0].len(), 1);
    assert_eq!(report.metrics.latency_samples_dropped, 1);
    assert!(report.wall_latencies_ns.is_empty());
}

#[test]
fn mid_run_snapshots_hold_buffered_state() {
    for bytes in mid_run_snapshots() {
        let snap = decode(&bytes).expect("a valid snapshot decodes");
        let buffered: usize = snap
            .tasks
            .iter()
            .flatten()
            .map(|j| {
                let stores = j.stores.iter().map(|s| s.matches.len()).sum::<usize>();
                let assembled = j
                    .negations
                    .iter()
                    .flat_map(|(a, _)| a)
                    .map(|a| a.stores.iter().map(|s| s.matches.len()).sum::<usize>());
                stores + assembled.sum::<usize>()
            })
            .sum();
        let shared: usize = snap.buffers.iter().flatten().map(|b| b.matches.len()).sum();
        assert!(
            buffered + shared > 0,
            "the snapshot must carry buffered matches"
        );
        assert_eq!(encode(&snap), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_snapshot_bytes_are_refused_or_reencode(
        which in 0usize..3,
        mutation in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut bytes = mid_run_snapshots()[which].clone();
        mutate(&mut bytes, mutation, &mut StdRng::seed_from_u64(seed));

        // A length prefix sizes one of these element types; the format has
        // no fixed-size buffer.
        let per_byte = [
            size_of::<Option<JoinState>>(),
            size_of::<(Option<JoinState>, StoreState)>(),
            size_of::<Option<StoreState>>(),
            size_of::<Match>(),
            size_of::<(PrimId, Event)>(),
        ]
        .into_iter()
        .max()
        .unwrap();
        let (decoded, peak) = peak_alloc(|| decode(&bytes));
        let bound = bytes.len() * per_byte;
        prop_assert!(
            peak <= bound,
            "decoding {} bytes allocated {peak} bytes at once (bound {bound})",
            bytes.len()
        );
        if let Ok(snap) = decoded {
            let again = encode(&snap);
            let redecoded = decode(&again);
            prop_assert!(redecoded.is_ok(), "re-encoded snapshot refused: {:?}", redecoded.err());
            prop_assert_eq!(encode(&redecoded.unwrap()), again);
        }
    }
}

/// A match that does not assign exactly the primitives of where it sits,
/// once in each place a snapshot holds matches that restore does not
/// rebuild. Structure and plan fingerprint are intact, so each decodes,
/// but restore must refuse it: the next `B` would probe a buffered `A`
/// under a primitive the query lacks and index the query's order table
/// out of range.
#[test]
fn a_match_in_the_wrong_place_is_refused_on_restore() {
    fn join(snap: &mut Snapshot, task: usize) -> &mut JoinState {
        snap.tasks[task].as_mut().unwrap()
    }
    let [keyed, composite, shared] = mid_run_snapshots().map(|bytes| decode(&bytes).unwrap());
    let [keyed_deployment, composite_deployment, shared_deployment] = mid_run_deployments();
    let buffering = |j: &JoinState| j.stores.iter().position(|s| !s.matches.is_empty());
    let (task, slot) = (keyed.tasks.iter().enumerate())
        .find_map(|(t, j)| Some((t, buffering(j.as_ref()?)?)))
        .expect("the keyed join buffers the As");
    let sink = (composite.tasks.iter())
        .position(|j| j.as_ref().is_some_and(|j| !j.negations.is_empty()))
        .expect("the sink join checks the negation");
    let input = (shared.buffers.iter())
        .position(|b| b.as_ref().is_some_and(|b| !b.matches.is_empty()))
        .expect("the shared buffer holds the As");
    let foreign_a = Match::single(PrimId(7), Event::new(9, EventTypeId(0), 18, NodeId(0)));
    let lone_b = Match::single(PrimId(1), Event::new(9, EventTypeId(1), 18, NodeId(1)));
    let mut cases = [
        ("slot store", &keyed_deployment, keyed),
        ("shared buffer", &shared_deployment, shared),
        ("forbidden store", &composite_deployment, composite),
    ];
    let buffered = &mut join(&mut cases[0].2, task).stores[slot].matches[0];
    *buffered = Match::single(PrimId(7), buffered.entries()[0].1.clone());
    cases[1].2.buffers[input].as_mut().unwrap().matches[0] = foreign_a;
    let (_, forbidden) = &mut join(&mut cases[2].2, sink).negations[0];
    forbidden.matches.push(lone_b);

    for (place, deployment, snap) in cases {
        let bytes = encode(&snap);
        assert!(decode_for(deployment, &bytes).is_ok(), "{place}: decode");
        let restored = restore(deployment, SimConfig::default(), &bytes);
        assert!(
            matches!(restored, Err(CheckpointError::Shape(_))),
            "{place}: restore accepted the match: {:?}",
            restored.err()
        );
    }
}

/// A shared input's buffer is stored once, in `Snapshot::buffers`: restore
/// refuses a buffer list of the wrong length, a buffer for an input one
/// join stores, a missing buffer for an input two joins store, and a
/// reader of a shared input that holds matches of its own.
#[test]
fn a_buffer_in_the_wrong_place_is_refused_on_restore() {
    let keyed = decode(&mid_run_snapshots()[0]).unwrap();
    let shared = decode(&mid_run_snapshots()[2]).unwrap();
    let [keyed_deployment, _, shared_deployment] = mid_run_deployments();
    let input = (shared.buffers.iter())
        .position(|b| b.as_ref().is_some_and(|b| !b.matches.is_empty()))
        .expect("the shared buffer holds the As");
    let (task, slot) = shared_deployment.shared_readers(input)[0];
    let mut cases = [
        (
            "buffer count differs from the deployment's inputs",
            &shared_deployment,
            shared.clone(),
        ),
        (
            "a buffer for an input fewer than two joins store",
            &keyed_deployment,
            keyed,
        ),
        (
            "no buffer for an input two joins store",
            &shared_deployment,
            shared.clone(),
        ),
        (
            "a shared input's reader holds matches of its own",
            &shared_deployment,
            shared,
        ),
    ];
    cases[0].2.buffers.push(None);
    cases[1].2.buffers[0] = Some(StoreState::default());
    let taken = cases[2].2.buffers[input].take().unwrap();
    let reader = cases[3].2.tasks[task].as_mut().unwrap();
    reader.stores[slot].matches = taken.matches;

    for (why, deployment, snap) in cases {
        let restored = restore(deployment, SimConfig::default(), &encode(&snap));
        assert_eq!(restored.err(), Some(CheckpointError::Shape(why)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every mutation that decodes is restored into its deployment (past
    /// the plan-fingerprint check, which a mutation of the fingerprint
    /// alone would fail); if the restore succeeds, the executor runs the
    /// tail and finishes without a panic.
    #[test]
    fn hostile_snapshots_that_restore_run_on(
        which in 0usize..3,
        mutation in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut bytes = mid_run_snapshots()[which].clone();
        mutate(&mut bytes, mutation, &mut StdRng::seed_from_u64(seed));
        if let Ok(snap) = decode(&bytes) {
            let deployment = &mid_run_deployments()[which];
            let restored = SimExecutor::from_snapshot(deployment, SimConfig::default(), snap);
            if let Ok(mut executor) = restored {
                executor.process_trace(&tails()[which]);
                executor.finish();
            }
        }
    }
}

/// Matches as the executors send them: a bare event, an event with a value
/// of each kind, a two-entry match, and an event with every attribute id
/// (its count takes the wide form).
fn real_matches() -> [Match; 4] {
    let ev = |seq, ty: u16, time| Event::new(seq, EventTypeId(ty), time, NodeId(ty));
    let kinds = Payload::from_pairs([
        (AttrId(0), Value::Int(-7)),
        (AttrId(3), Value::Float(2.5)),
        (AttrId(5), Value::Str("job-42".into())),
    ]);
    let every_attr = Payload::from_pairs((0..=255).map(|a| (AttrId(a), Value::Int(a.into()))));
    [
        Match::single(PrimId(0), ev(1, 0, 10)),
        Match::single(
            PrimId(1),
            Event::with_payload(2, EventTypeId(1), 20, NodeId(1), kinds),
        ),
        Match::new(vec![
            (PrimId(0), ev(3, 0, 30)),
            (PrimId(2), with_attr(4, 2, 31, 1, 9)),
        ]),
        Match::single(
            PrimId(0),
            Event::with_payload(5, EventTypeId(0), 40, NodeId(0), every_attr),
        ),
    ]
}

/// `try_decode_match` of `bytes` returns without a panic and allocates at
/// most input bytes × the larger of a match entry and an attribute pair at
/// once.
fn assert_match_decode_bounded(bytes: &[u8]) -> Result<(), String> {
    let (_, peak) = peak_alloc(|| try_decode_match(&mut &bytes[..]));
    let per_byte = size_of::<(PrimId, Event)>().max(size_of::<(AttrId, Value)>());
    let bound = bytes.len() * per_byte;
    prop_assert!(
        peak <= bound,
        "decoding {} match bytes allocated {peak} bytes at once (bound {bound})",
        bytes.len()
    );
    Ok(())
}

#[test]
fn real_matches_decode_within_bounds() {
    for m in real_matches() {
        let bytes = encode_match(&m).chunk().to_vec();
        assert_eq!(try_decode_match(&mut bytes.as_slice()), Some(m));
        assert_match_decode_bounded(&bytes).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_match_bytes_decode_within_bounds(len in 0usize..512, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
        assert_match_decode_bounded(&bytes)?;
    }

    #[test]
    fn mutated_match_encodings_decode_within_bounds(
        which in 0usize..4,
        mutation in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut bytes = encode_match(&real_matches()[which]).chunk().to_vec();
        mutate(&mut bytes, mutation, &mut StdRng::seed_from_u64(seed));
        assert_match_decode_bounded(&bytes)?;
    }
}

//! Hostile bytes in the snapshot format: a valid snapshot taken mid-run with
//! buffered state, then single bytes overwritten, bits flipped, or a random
//! tail spliced on. `checkpoint::decode` must return `Err` or a snapshot
//! that re-encodes, never panic, and never size a buffer from a length
//! prefix beyond the input — which this binary's allocator measures. The
//! flight-recorder dump format gets the same treatment.

use muse_core::algorithms::amuse::{amuse, AMuseConfig};
use muse_core::event::{Event, Payload, Value};
use muse_core::graph::PlanContext;
use muse_core::network::{Network, NetworkBuilder};
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, QueryId};
use muse_runtime::checkpoint::{decode, encode, PendingDelivery};
use muse_runtime::matcher::{JoinState, StoreState};
use muse_runtime::{decode_dump, FlightRecord, FlightRing};
use muse_runtime::{Deployment, Match, SimConfig, SimExecutor};
use muse_telemetry::LogHistogram;
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

/// The encoded snapshot of `deployment` after `events`.
fn snapshot_after(deployment: &Deployment, events: &[Event]) -> Vec<u8> {
    let mut executor = SimExecutor::new(deployment, SimConfig::default());
    executor.process_trace(events);
    encode(&executor.to_snapshot())
}

/// The two snapshots under attack: four As under three keys buffered in the
/// keyed join, and the forbidden `SEQ(B, D)` half-assembled (B@20 held by
/// the assembler) after A@10.
fn mid_run_snapshots() -> [Vec<u8>; 2] {
    let keyed = |seq, time, k: i64| {
        let payload = Payload::from_pairs(vec![(AttrId(0), Value::Int(k))]);
        Event::with_payload(seq, EventTypeId(0), time, NodeId(0), payload)
    };
    let ev = |seq, ty: u16, time| Event::new(seq, EventTypeId(ty), time, NodeId(ty));
    [
        snapshot_after(
            &keyed_two_node_deployment(),
            &[
                keyed(0, 10, 1),
                keyed(1, 12, 2),
                keyed(2, 14, 3),
                keyed(3, 16, 1),
            ],
        ),
        snapshot_after(&composite_guard_deployment(), &[ev(0, 0, 10), ev(1, 1, 20)]),
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
        assert!(buffered > 0, "the snapshot must carry buffered matches");
        assert_eq!(encode(&snap), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_snapshot_bytes_are_refused_or_reencode(
        which in 0usize..2,
        mutation in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut bytes = mid_run_snapshots()[which].clone();
        mutate(&mut bytes, mutation, &mut StdRng::seed_from_u64(seed));

        // A length prefix sizes one of these element types; the format's
        // only fixed buffer is a histogram's bucket table.
        let per_byte = [
            size_of::<Option<JoinState>>(),
            size_of::<(Option<JoinState>, StoreState)>(),
            size_of::<PendingDelivery>(),
            size_of::<Vec<Match>>(),
            size_of::<(PrimId, Event)>(),
        ]
        .into_iter()
        .max()
        .unwrap();
        let (_, bucket_table) = peak_alloc(LogHistogram::new);
        let (decoded, peak) = peak_alloc(|| decode(&bytes));
        let bound = (bytes.len() * per_byte).max(bucket_table);
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

/// A flight dump holding one record of every variant.
fn every_record_dump() -> Vec<u8> {
    let mut ring = FlightRing::new(1, 16);
    for rec in [
        FlightRecord::Inject {
            t: 10,
            seq: 7,
            ty: 2,
            time: 400,
        },
        FlightRecord::FrameSent {
            t: 20,
            to: 1,
            msgs: 3,
        },
        FlightRecord::FrameRecv {
            t: 30,
            from: 0,
            msgs: 5,
        },
        FlightRecord::Checkpoint { t: 40, bytes: 128 },
        FlightRecord::Crash { t: 50, chunk: 4 },
        FlightRecord::RecoveryStart { t: 60 },
        FlightRecord::RecoveryDone { t: 70, cursor: 99 },
        FlightRecord::FrameRecv {
            t: 80,
            from: 2,
            msgs: 12,
        },
    ] {
        ring.push(rec);
    }
    ring.encode()
}

/// `decode_dump` of `bytes` allocates at most input bytes × record size at
/// once.
fn assert_dump_bounded(bytes: &[u8]) -> Result<(), String> {
    let (_, peak) = peak_alloc(|| decode_dump(bytes));
    let bound = bytes.len() * size_of::<FlightRecord>();
    prop_assert!(
        peak <= bound,
        "decoding a {}-byte dump allocated {peak} bytes at once (bound {bound})",
        bytes.len()
    );
    Ok(())
}

#[test]
fn flight_dump_record_count_does_not_size_the_buffer() {
    // Node, dropped count, then a record count of u32::MAX and no record.
    let mut bytes = vec![0u8; 2 + 8];
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    assert!(decode_dump(&bytes).is_none());
    assert_dump_bounded(&bytes).unwrap();
    assert!(decode_dump(&every_record_dump()).is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_flight_dumps_are_refused_or_decode_within_bounds(
        mutation in 0u8..3,
        seed in any::<u64>(),
    ) {
        let mut bytes = every_record_dump();
        mutate(&mut bytes, mutation, &mut StdRng::seed_from_u64(seed));
        assert_dump_bounded(&bytes)?;
    }
}

//! Allocations per relayed event. On a relay every event crosses the
//! network once and is stored by the join that receives it; a single-event
//! match is carried and stored by value, and its byte account reads no
//! payload value, so once the stores have grown to their window a relayed
//! event allocates nothing. This binary's allocator counts the allocations
//! of the thread that runs the simulator.

use muse_core::algorithms::baselines::{placement_to_graph, OperatorPlacement};
use muse_core::catalog::Catalog;
use muse_core::event::{Event, Payload, Value};
use muse_core::graph::{MuseGraph, PlanContext};
use muse_core::network::{Network, NetworkBuilder};
use muse_core::projection::ProjectionTable;
use muse_core::query::{Pattern, Predicate};
use muse_core::types::{AttrId, EventTypeId, NodeId};
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::sim::{run_simulation, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts, per thread and only inside [`allocations`], the allocations
/// requested (a `realloc` counts as one).
struct CountingAlloc;

thread_local! {
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what it returns, so `System`'s contract is this allocator's.
// `note` neither allocates nor unwinds: the thread-local is a `const`
// `Cell` without a destructor, and `try_with` ignores a torn-down slot.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`; returns its result and the allocations it requested on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    (out, COUNT.with(|c| c.replace(None)).unwrap_or(0))
}

const E: EventTypeId = EventTypeId(0);
const A: EventTypeId = EventTypeId(1);
const WINDOW: u64 = 100;

/// Node 0 produces the rare anchor `A`, node 1 the frequent `E`.
fn relay_network() -> Network {
    NetworkBuilder::new(2, 2)
        .node(NodeId(0), [A])
        .node(NodeId(1), [E])
        .rate(A, 0.1)
        .rate(E, 100.0)
        .build()
}

/// `SEQ(E, A)` pinned whole to node 0 (aMuSE would ship the anchor
/// instead): every `E` crosses the network and is stored there.
fn relay_deployment(network: &Network) -> Deployment {
    let pattern = Pattern::seq([Pattern::leaf(E), Pattern::leaf(A)]);
    let workload = Workload::from_patterns(
        Catalog::with_anonymous_types(2),
        [(pattern, Vec::<Predicate>::new(), WINDOW)],
    )
    .expect("the relay pattern builds a workload");
    let q = &workload.queries()[0];
    let placement = OperatorPlacement {
        assignments: vec![(q.prims(), NodeId(0))],
        cost: 0.0,
    };
    let mut table = ProjectionTable::new();
    let mut graph = MuseGraph::new();
    graph.union_with(
        &placement_to_graph(q, &placement, network, &mut table)
            .expect("the pinned placement builds a graph"),
    );
    let ctx = PlanContext::new(workload.queries(), network, &table);
    Deployment::new(&graph, &ctx)
}

/// `n` `E` events at node 1, one per tick, each with a key, a measurement
/// and a label, as the benchmark's relay events carry.
fn e_trace(n: u64) -> Vec<Event> {
    (0..n)
        .map(|seq| {
            let payload = Payload::from_pairs([
                (AttrId(0), Value::Int((seq % 64) as i64)),
                (AttrId(1), Value::Float(seq as f64 / 16.0)),
                (AttrId(2), Value::Str(format!("job-{seq}"))),
            ]);
            Event::with_payload(seq, E, seq, NodeId(1), payload)
        })
        .collect()
}

#[test]
fn a_relayed_event_allocates_nothing() {
    const N: u64 = 5_000;
    let net = relay_network();
    let deployment = relay_deployment(&net);
    let (short, long) = (e_trace(N), e_trace(2 * N));
    let (report, short_allocs) =
        allocations(|| run_simulation(&deployment, &short, &SimConfig::default()));
    assert_eq!(
        report.metrics.messages_sent, N,
        "every E event crosses the network"
    );
    drop(report);
    let (report, long_allocs) =
        allocations(|| run_simulation(&deployment, &long, &SimConfig::default()));
    assert_eq!(report.metrics.messages_sent, 2 * N);
    // The store holds one window, so its ring buffer stops growing early;
    // the rest of the run's allocations are set-up that both runs share.
    let extra = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra <= 8,
        "{N} more relayed events cost {extra} allocations \
         ({short_allocs} for {N} events, {long_allocs} for {})",
        2 * N
    );
}

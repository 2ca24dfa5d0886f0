//! Matcher benchmarks: skip-till-any-match evaluation throughput and
//! partial-match join throughput — the per-node work that MuSE graphs
//! distribute. The `join_indexed`/`join_naive` pair compares the indexed,
//! window-pruned engine against the naive cross-product reference on the
//! stress workload of `muse_bench::matcher_stress`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use muse_bench::matcher_stress::{stress_feed, stress_query, stress_slots};
use muse_core::event::Event;
use muse_core::query::{Pattern, Query};
use muse_core::types::{EventTypeId, NodeId, PrimId, PrimSet, QueryId};
use muse_runtime::matcher::{Evaluator, JoinTask, Match, NaiveJoinTask};
use std::hint::black_box;

fn make_query() -> Query {
    Query::build(
        QueryId(0),
        &Pattern::seq([
            Pattern::and([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            Pattern::leaf(EventTypeId(2)),
        ]),
        vec![],
        200,
    )
    .unwrap()
}

fn make_trace(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            Event::new(
                i as u64,
                EventTypeId((i % 3) as u16),
                i as u64 * 7,
                NodeId(0),
            )
        })
        .collect()
}

fn evaluator_throughput(c: &mut Criterion) {
    let query = make_query();
    let trace = make_trace(2_000);
    let mut group = c.benchmark_group("matcher");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(8));
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("evaluator_skip_till_any", |b| {
        b.iter(|| {
            let mut ev = Evaluator::for_query(&query);
            let mut count = 0usize;
            for e in &trace {
                count += ev.on_event(black_box(e)).len();
            }
            black_box(count)
        })
    });

    // Join throughput: AB matches joined with C matches.
    let ab: PrimSet = [PrimId(0), PrimId(1)].into_iter().collect();
    let c_set: PrimSet = [PrimId(2)].into_iter().collect();
    group.bench_function("join_two_way", |b| {
        b.iter(|| {
            let mut join = JoinTask::new(&query, query.prims(), &[ab, c_set]);
            let mut count = 0usize;
            for i in 0..500u64 {
                let t = i * 7;
                let ab_match = Match::new(vec![
                    (PrimId(0), Event::new(i * 3, EventTypeId(0), t, NodeId(0))),
                    (
                        PrimId(1),
                        Event::new(i * 3 + 1, EventTypeId(1), t + 1, NodeId(1)),
                    ),
                ]);
                count += join.on_match(0, ab_match).len();
                let c_match = Match::single(
                    PrimId(2),
                    Event::new(i * 3 + 2, EventTypeId(2), t + 2, NodeId(2)),
                );
                count += join.on_match(1, c_match).len();
            }
            black_box(count)
        })
    });
    group.finish();
}

/// Indexed vs. naive join engine on the out-of-order stress feed
/// (slack 4.0, like the threaded executor's default).
fn join_engine_throughput(c: &mut Criterion) {
    let query = stress_query();
    let slots = stress_slots();
    let feed = stress_feed(6_000, 42);
    let mut group = c.benchmark_group("join_engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.throughput(Throughput::Elements(feed.len() as u64));
    group.bench_function("join_indexed", |b| {
        b.iter(|| {
            let mut join = JoinTask::with_slack(&query, query.prims(), &slots, 4.0);
            let mut count = 0usize;
            for (slot, m) in &feed {
                count += join.on_match(*slot, black_box(m.clone())).len();
            }
            black_box(count)
        })
    });
    group.bench_function("join_naive", |b| {
        b.iter(|| {
            let mut join = NaiveJoinTask::with_slack(&query, query.prims(), &slots, 4.0);
            let mut count = 0usize;
            for (slot, m) in &feed {
                count += join.on_match(*slot, black_box(m.clone())).len();
            }
            black_box(count)
        })
    });
    group.finish();
}

criterion_group!(benches, evaluator_throughput, join_engine_throughput);
criterion_main!(benches);

//! A join input must cost about the same whatever the size of the live
//! window it lands in.
//!
//! Feeds `A`s in time order into the `A` slot of a `SEQ(A, B)` join that
//! never sees a `B`, with one event per tick, slack 4 and a drain after
//! every tick (`with_evict_stride(1)`), so each input appends one match and
//! drops one. The window is sized for 1 024 and for 65 536 live matches.
//! A store that binary-searches its live count or shifts the live suffix
//! on every drain pays for the window size on every input; a sliding
//! window does not. Timing-based, so ignored by default and run in the
//! release profile:
//!
//! ```text
//! cargo test --release -p muse-runtime --test store_scale -- --ignored --nocapture
//! ```

use muse_core::event::{Event, Timestamp};
use muse_core::query::{Pattern, Query};
use muse_core::types::{EventTypeId, NodeId, PrimId, PrimSet, QueryId};
use muse_runtime::{JoinTask, Match};
use std::hint::black_box;
use std::time::Instant;

const SLACK: f64 = 4.0;
/// Inputs timed per run, after the window has filled.
const TIMED: u64 = 50_000;

/// Best of three runs: nanoseconds per input into a join whose `A` slot
/// holds `live` matches.
fn best_ns_per_input(live: u64) -> f64 {
    let window = live / SLACK as u64;
    let seq = Pattern::seq([0, 1].map(|t| Pattern::leaf(EventTypeId(t))));
    let query = Query::build(QueryId(0), &seq, vec![], window).expect("SEQ(A, B) builds");
    let slot = |p| PrimSet::single(PrimId(p));
    let a = |t: Timestamp| Match::single(PrimId(0), Event::new(t, EventTypeId(0), t, NodeId(0)));
    (0..3)
        .map(|_| {
            let mut join = JoinTask::with_slack(&query, query.prims(), &[slot(0), slot(1)], SLACK)
                .with_evict_stride(1);
            for t in 0..live {
                black_box(join.on_match(0, a(t)));
            }
            let start = Instant::now();
            for t in live..live + TIMED {
                black_box(join.on_match(0, a(t)));
            }
            let elapsed = start.elapsed();
            assert_eq!(
                join.buffered() as u64,
                live + 1,
                "the window spans `live` ticks, both ends included"
            );
            elapsed.as_nanos() as f64 / TIMED as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing: run in release with --ignored"]
fn input_cost_does_not_grow_with_the_live_window() {
    let small = best_ns_per_input(1 << 10);
    let large = best_ns_per_input(1 << 16);
    let ratio = large / small;
    println!("per input: 1k live {small:.0} ns, 64k live {large:.0} ns, ratio {ratio:.2}x");
    assert!(
        ratio < 2.0,
        "64x the live window cost {ratio:.2}x per input ({small:.0} -> {large:.0} ns): \
         a sliding window costs about the same"
    );
}

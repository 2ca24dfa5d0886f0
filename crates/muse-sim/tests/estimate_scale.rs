//! Selectivity estimation must scale linearly in the number of events, even
//! when every event shares one key and the window spans the whole trace.
//!
//! Estimates σ over 25 000 and 100 000 events of four types that all carry
//! the same key, with a window longer than the trace. Four times the events
//! should cost about four times the time; visiting every same-key,
//! in-window pair makes it about sixteen (5·10⁹ pairs at 100 000 events).
//! Timing-based, so ignored by default and run in the release profile:
//!
//! ```text
//! cargo test --release -p muse-sim --test estimate_scale -- --ignored --nocapture
//! ```

use muse_core::event::{Event, Payload, Value};
use muse_core::types::{AttrId, EventTypeId, NodeId};
use muse_sim::stats_est::PairSelectivities;
use std::hint::black_box;
use std::time::Instant;

const KEY: AttrId = AttrId(0);

/// `n` events, one per tick, cycling through four types, all keyed `7`.
fn one_key_trace(n: u64) -> Vec<Event> {
    (0..n)
        .map(|seq| {
            let payload = Payload::from_pairs([(KEY, Value::Int(7))]);
            Event::with_payload(seq, EventTypeId((seq % 4) as u16), seq, NodeId(0), payload)
        })
        .collect()
}

/// Best of seven estimates over `n` events, in seconds; the trace is built
/// outside the timed region.
fn best_estimate_s(n: u64) -> f64 {
    let events = one_key_trace(n);
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let start = Instant::now();
        let sel = PairSelectivities::estimate(black_box(&events), 2 * n, &[KEY], n);
        assert_eq!(black_box(sel).len(), 6);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "timing: run in release with --ignored"]
fn estimate_is_linear_in_the_number_of_events() {
    let small = best_estimate_s(25_000);
    let large = best_estimate_s(100_000);
    let growth = large / small;
    println!("estimate: 25k events {small:.4} s, 100k events {large:.4} s, growth {growth:.1}x");
    assert!(
        growth < 8.0,
        "4x the events cost {growth:.1}x ({small:.4} s -> {large:.4} s): linear is about 4x"
    );
}

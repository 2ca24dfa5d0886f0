//! The skip-till-any-match join stress workload of the matcher criterion
//! bench (`join_indexed` vs. `join_naive`).
//!
//! The workload drives one join of `SEQ(AND(A, B), C)` — β = {AB, C} — with
//! a long, mildly out-of-order stream of AB matches and C singles spanning
//! hundreds of windows. An equality predicate on a bucketed key keeps the
//! emitted-match volume low, so the measured cost is dominated by the store
//! probes and eviction that the indexed engine optimizes, not by shared
//! emission work. Run with a slack factor > 1 (the threaded executor's
//! out-of-order tolerance), the naive engine buffers and cross-products
//! `slack` windows of matches and rescans them on every arrival, while the
//! indexed engine binary-searches the single window-compatible slice and
//! drains dead prefixes by watermark stride.

use muse_core::event::{Event, Payload, Timestamp, Value};
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, PrimSet, QueryId};
use muse_runtime::matcher::Match;

/// The stress query: `SEQ(AND(A, B), C)` with an `A.key == C.key`
/// predicate, window 200.
pub fn stress_query() -> Query {
    let pred = Predicate::binary(
        (PrimId(0), AttrId(0)),
        CmpOp::Eq,
        (PrimId(2), AttrId(0)),
        1.0 / KEY_BUCKETS as f64,
    );
    Query::build(
        QueryId(0),
        &Pattern::seq([
            Pattern::and([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            Pattern::leaf(EventTypeId(2)),
        ]),
        vec![pred],
        WINDOW,
    )
    .unwrap()
}

/// The query window (ticks).
pub const WINDOW: Timestamp = 200;

/// Distinct predicate keys: each C joins with roughly
/// `window / (2 · STEP · KEY_BUCKETS)` buffered ABs.
pub const KEY_BUCKETS: u64 = 16;

/// Ticks between consecutive arrivals.
const STEP: u64 = 5;

/// The join's slot layout: slot 0 takes AB matches, slot 1 takes C singles.
pub fn stress_slots() -> [PrimSet; 2] {
    [
        [PrimId(0), PrimId(1)].into_iter().collect(),
        [PrimId(2)].into_iter().collect(),
    ]
}

fn keyed(seq: u64, ty: u16, time: Timestamp, key: i64) -> Event {
    let mut p = Payload::new();
    p.set(AttrId(0), Value::Int(key));
    Event::with_payload(seq, EventTypeId(ty), time, NodeId(0), p)
}

/// Generates `n` join arrivals `(slot, match)`: alternating AB matches and
/// C singles whose base time advances `STEP` ticks per arrival, with a
/// deterministic backwards jitter of up to half a window (the out-of-order
/// arrival pattern that motivates eviction slack).
pub fn stress_feed(n: usize, seed: u64) -> Vec<(usize, Match)> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        // xorshift64*: cheap, deterministic, no external dependency.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut out = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let base = WINDOW + k * STEP;
        let t = base - next() % (WINDOW / 2);
        let key = (next() % KEY_BUCKETS) as i64;
        let seq = k * 2 + 1;
        if k % 2 == 0 {
            let ab = Match::new(vec![
                (PrimId(0), keyed(seq, 0, t, key)),
                (PrimId(1), keyed(seq + 1, 1, t + 1, key)),
            ]);
            out.push((0usize, ab));
        } else {
            out.push((1usize, Match::single(PrimId(2), keyed(seq, 2, t + 2, key))));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_runtime::matcher::{JoinTask, NaiveJoinTask};

    #[test]
    fn feed_is_deterministic_and_within_jitter() {
        let a = stress_feed(200, 7);
        let b = stress_feed(200, 7);
        assert_eq!(a.len(), 200);
        for ((sa, ma), (sb, mb)) in a.iter().zip(&b) {
            assert_eq!(sa, sb);
            assert_eq!(ma.fingerprint(), mb.fingerprint());
        }
    }

    #[test]
    fn workload_produces_matches_on_both_engines() {
        let q = stress_query();
        let slots = stress_slots();
        let mut indexed = JoinTask::with_slack(&q, q.prims(), &slots, 4.0);
        let mut naive = NaiveJoinTask::with_slack(&q, q.prims(), &slots, 4.0);
        for (slot, m) in stress_feed(400, 1) {
            let a = indexed.on_match(slot, m.clone());
            let b = naive.on_match(slot, m);
            assert_eq!(
                a.iter().map(Match::fingerprint).collect::<Vec<_>>(),
                b.iter().map(Match::fingerprint).collect::<Vec<_>>()
            );
        }
        assert!(indexed.emitted() > 0, "stress feed must emit matches");
        assert_eq!(indexed.emitted(), naive.emitted());
    }
}

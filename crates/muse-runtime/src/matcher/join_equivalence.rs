//! Property-based equivalence of the indexed join engine.
//!
//! The indexed, window-pruned [`JoinTask`] must emit a byte-identical
//! (fingerprint-deduplicated, per-trigger) match stream to the naive
//! reference join [`NaiveJoinTask`] — which buffers unsorted, probes the
//! full cross-product, and retains on every arrival — on randomized
//! out-of-order streams, windows, slack factors, eviction strides, and
//! slot layouts (disjoint, overlapping, many-way, negation-guarded, and
//! negation-guarded with a composite forbidden pattern) — the last five
//! layouts with equality predicates, so the indexed engine's equality-key
//! guard and its key-aware "no partner" check run against the unkeyed
//! reference on payloads whose keys hit, miss, cross `Int`/`Float`, and are
//! absent, and on a slot whose keys mostly differ from its partners'.
//!
//! Invariants checked per generated stream (see DESIGN.md, "Join engine
//! internals"):
//! 1. every trigger's emitted fingerprint list is identical,
//! 2. the live buffered-match count is identical after every trigger,
//! 3. the indexed engine's output does not depend on the eviction stride,
//! 4. total emission counters agree.

use super::join::NaiveJoinTask;
use super::{JoinTask, Match};
use muse_core::event::{Event, Payload, Timestamp, Value};
use muse_core::query::{CmpOp, Pattern, Predicate, Query};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, PrimSet, QueryId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ps(prims: impl IntoIterator<Item = u8>) -> PrimSet {
    prims.into_iter().map(PrimId).collect()
}

/// A query plus the slot layout of the join under test.
struct Shape {
    query: Query,
    slots: Vec<PrimSet>,
    /// An event type whose events draw `k` three higher than the others',
    /// so the two key domains share one value.
    shifted: Option<u16>,
}

/// Number of layouts [`shape`] knows.
const KINDS: u8 = 10;

/// The payload attribute the keyed layouts' predicates compare.
const K: AttrId = AttrId(0);

/// `left.k = right.k`.
fn eq_k(left: u8, right: u8) -> Predicate {
    Predicate::binary((PrimId(left), K), CmpOp::Eq, (PrimId(right), K), 0.3)
}

/// The slot layouts exercised. Without predicates: disjoint predecessors,
/// overlapping predecessors (shared primitive B), a three-way primitive
/// join, an `NSEQ` query with a negation guard slot, and an `NSEQ` query
/// whose forbidden `SEQ(B, D)` is assembled from two primitive guard slots.
/// With equality predicates on `k`: the chain `A.k = B.k, B.k = C.k` over
/// `[{A},{C},{B}]` and `[{A,C},{B}]` (the `A`–`C` link is transitive only),
/// `A.k = C.k` over the overlapping `[{A,B},{B,C}]`, and the composite
/// `NSEQ` with `B.k = D.k` inside the forbidden pattern and `A.k = B.k`
/// linking it to the positive part. Last, the chain over three singleton
/// slots again, with `C`'s keys shifted: a trigger on `A` or `B` mostly
/// finds a `C` slot that holds only other keys, which rules it out before
/// any probe.
fn shape(kind: u8, window: Timestamp) -> Shape {
    let seq_abc_with = |predicates| {
        Query::build(
            QueryId(0),
            &Pattern::seq([
                Pattern::leaf(EventTypeId(0)),
                Pattern::leaf(EventTypeId(1)),
                Pattern::leaf(EventTypeId(2)),
            ]),
            predicates,
            window,
        )
        .unwrap()
    };
    let seq_abc = || seq_abc_with(vec![]);
    // Leaf order: A=0, B=1, D=2, C=3.
    let nseq_a_bd_c_with = |predicates| {
        Query::build(
            QueryId(0),
            &Pattern::nseq(
                Pattern::leaf(EventTypeId(0)),
                Pattern::seq([Pattern::leaf(EventTypeId(1)), Pattern::leaf(EventTypeId(2))]),
                Pattern::leaf(EventTypeId(3)),
            ),
            predicates,
            window,
        )
        .unwrap()
    };
    match kind % KINDS {
        0 => Shape {
            query: seq_abc(),
            slots: vec![ps([0, 1]), ps([2])],
            shifted: None,
        },
        1 => Shape {
            query: seq_abc(),
            slots: vec![ps([0, 1]), ps([1, 2])],
            shifted: None,
        },
        2 => Shape {
            query: seq_abc(),
            slots: vec![ps([0]), ps([1]), ps([2])],
            shifted: None,
        },
        4 => Shape {
            query: nseq_a_bd_c_with(vec![]),
            slots: vec![ps([0, 3]), ps([1]), ps([2])],
            shifted: None,
        },
        5 => Shape {
            query: seq_abc_with(vec![eq_k(0, 1), eq_k(1, 2)]),
            slots: vec![ps([0]), ps([2]), ps([1])],
            shifted: None,
        },
        6 => Shape {
            query: seq_abc_with(vec![eq_k(0, 1), eq_k(1, 2)]),
            slots: vec![ps([0, 2]), ps([1])],
            shifted: None,
        },
        7 => Shape {
            query: seq_abc_with(vec![eq_k(0, 2)]),
            slots: vec![ps([0, 1]), ps([1, 2])],
            shifted: None,
        },
        9 => Shape {
            query: seq_abc_with(vec![eq_k(0, 1), eq_k(1, 2)]),
            slots: vec![ps([0]), ps([1]), ps([2])],
            shifted: Some(2),
        },
        8 => Shape {
            query: nseq_a_bd_c_with(vec![eq_k(1, 2), eq_k(0, 1)]),
            slots: vec![ps([0, 3]), ps([1]), ps([2])],
            shifted: None,
        },
        _ => Shape {
            query: Query::build(
                QueryId(0),
                &Pattern::nseq(
                    Pattern::leaf(EventTypeId(0)),
                    Pattern::leaf(EventTypeId(1)),
                    Pattern::leaf(EventTypeId(2)),
                ),
                vec![],
                window,
            )
            .unwrap(),
            slots: vec![ps([0, 2]), ps([1])],
            shifted: None,
        },
    }
}

/// Generates a randomized, bounded-out-of-order arrival stream for the
/// shape: `(slot, match)` pairs whose base time advances while individual
/// events jitter backwards, so arrivals cross window and slack boundaries
/// in both directions. Matches on slots sharing primitive B draw the B
/// event from a small recent pool, so overlapping inputs sometimes agree
/// and sometimes clash. Under a keyed shape every event carries `k` from a
/// domain of four, about one in ten as a `Float` of the same number, as
/// `NaN`, or not at all.
fn arrivals(shape: &Shape, window: Timestamp, n: usize, seed: u64) -> Vec<(usize, Match)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = 0u64;
    let keyed = !shape.query.predicates().is_empty();
    let mut fresh = |rng: &mut StdRng, time: Timestamp, ty: u16| {
        seq += 1;
        let mut payload = Payload::new();
        if keyed {
            let shift = if shape.shifted == Some(ty) { 3 } else { 0 };
            let k = shift + rng.gen_range(0i64..4);
            match rng.gen_range(0..30) {
                0 => {}
                1 => payload.set(K, Value::Float(f64::NAN)),
                2 => payload.set(K, Value::Float(k as f64)),
                _ => payload.set(K, Value::Int(k)),
            }
        }
        Event::with_payload(seq, EventTypeId(ty), time, NodeId(0), payload)
    };
    // Pool of B events reusable by any slot containing primitive 1.
    let mut b_pool: Vec<Event> = Vec::new();
    let mut out = Vec::with_capacity(n);
    // Steps small relative to the window keep many matches live at once
    // (skip-till-any-match pressure); jitter beyond the step makes the
    // stream genuinely out-of-order.
    let step = rng.gen_range(2u64..8);
    let jitter = rng.gen_range(0u64..window.max(2));
    for k in 0..n {
        let base = 10 + jitter + k as u64 * step;
        let t = base.saturating_sub(rng.gen_range(0..=jitter.max(1)));
        let slot = rng.gen_range(0..shape.slots.len());
        let prims: Vec<PrimId> = shape.slots[slot].iter().collect();
        let mut events = Vec::with_capacity(prims.len());
        for (j, prim) in prims.iter().enumerate() {
            let pt = t + j as u64 * rng.gen_range(1u64..4);
            if prim.0 == 1 && !b_pool.is_empty() && rng.gen_bool(0.6) {
                let idx = b_pool.len() - 1 - rng.gen_range(0..b_pool.len().min(3));
                events.push((*prim, b_pool[idx].clone()));
            } else {
                let e = fresh(&mut rng, pt, prim.0 as u16);
                if prim.0 == 1 {
                    b_pool.push(e.clone());
                }
                events.push((*prim, e));
            }
        }
        out.push((slot, Match::new(events)));
    }
    out
}

fn fingerprints(matches: &[Match]) -> Vec<Vec<u64>> {
    matches.iter().map(Match::fingerprint).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn indexed_join_equals_naive_reference(
        kind in 0u8..KINDS,
        window in 10u64..=200,
        slack_idx in 0usize..3,
        stride in 1u64..=300,
        seed in any::<u64>(),
    ) {
        let slack = [1.0, 2.0, 4.0][slack_idx];
        let shape = shape(kind, window);
        let target = shape.query.prims();
        let mut naive =
            NaiveJoinTask::with_slack(&shape.query, target, &shape.slots, slack);
        let mut indexed =
            JoinTask::with_slack(&shape.query, target, &shape.slots, slack)
                .with_evict_stride(stride);
        // A second indexed engine with a very different stride: physical
        // drain timing must never leak into the output.
        let mut indexed_alt =
            JoinTask::with_slack(&shape.query, target, &shape.slots, slack)
                .with_evict_stride(1_000_000);

        for (trigger, (slot, m)) in
            arrivals(&shape, window, 150, seed).into_iter().enumerate()
        {
            let want = fingerprints(&naive.on_match(slot, m.clone()));
            let got = fingerprints(&indexed.on_match(slot, m.clone()));
            let got_alt = fingerprints(&indexed_alt.on_match(slot, m));
            prop_assert_eq!(
                &got, &want,
                "trigger {}: indexed ≠ naive (kind {}, window {}, slack {}, stride {})",
                trigger, kind, window, slack, stride
            );
            prop_assert_eq!(
                &got_alt, &want,
                "trigger {}: stride changed the output",
                trigger
            );
            prop_assert_eq!(indexed.buffered(), naive.buffered());
            prop_assert_eq!(indexed_alt.buffered(), naive.buffered());
        }
        prop_assert_eq!(indexed.emitted(), naive.emitted());
        prop_assert_eq!(indexed_alt.emitted(), naive.emitted());
    }

    /// The indexed engine's stats stay internally consistent on random
    /// streams: guards + attempts partition the probes, successes never
    /// exceed attempts, and the live count never exceeds the peak.
    #[test]
    fn join_stats_are_consistent(
        kind in 0u8..KINDS,
        window in 10u64..=200,
        seed in any::<u64>(),
    ) {
        let shape = shape(kind, window);
        let target = shape.query.prims();
        let mut join = JoinTask::new(&shape.query, target, &shape.slots);
        for (slot, m) in arrivals(&shape, window, 100, seed) {
            join.on_match(slot, m);
        }
        let s = *join.stats();
        prop_assert_eq!(s.inputs, 100);
        prop_assert_eq!(s.probes, s.guard_rejects + s.merge_attempts);
        prop_assert!(s.merge_successes <= s.merge_attempts);
        prop_assert!(s.emitted == join.emitted());
        prop_assert!(join.buffered() as u64 <= s.peak_buffered);
        prop_assert!(s.merge_success_ratio() >= 0.0 && s.merge_success_ratio() <= 1.0);
        prop_assert!(s.guard_pass_ratio() >= 0.0 && s.guard_pass_ratio() <= 1.0);
    }
}

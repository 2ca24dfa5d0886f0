//! Empirical selectivity estimation from observed traces.
//!
//! The cost model (§4.4 of the paper) scales a projection's output rate by
//! the product of its predicates' selectivities. For real workloads these
//! selectivities must be *estimated*: naive independence assumptions (e.g.
//! `1 / #distinct ids` for id equality) dramatically underestimate streams
//! whose ids are correlated in time — a failed task's `Fail` and `Evict`
//! events share both the id *and* the window — which misleads the planner
//! into shipping "cheap" partial-match streams that are actually frequent.
//!
//! [`PairSelectivities`] measures, per `(attribute, type A, type B)`, the
//! number `M` of cross-type event pairs with equal attribute values within
//! the query window, and derives the *effective* selectivity
//!
//! ```text
//! σ(attr, A, B) = M · units / (n_A · n_B)        (clamped into (0, 1])
//! ```
//!
//! where `units` is the trace length in window units. Under the cost model
//! this makes the modeled pair-projection volume `σ · r̂(A) · r̂(B) · |𝔈|`
//! equal the empirically observed matches per window — i.e. the planner
//! sees truthful pair statistics (higher-order projections still use the
//! product approximation, as in the paper).

use muse_core::event::{Event, Timestamp, Value};
use muse_core::network::Network;
use muse_core::query::{PredicateExpr, Query};
use muse_core::types::{AttrId, EventTypeId};
use std::collections::HashMap;

/// Empirical per-attribute, per-type-pair equality selectivities.
#[derive(Debug, Clone)]
pub struct PairSelectivities {
    map: HashMap<(AttrId, EventTypeId, EventTypeId), f64>,
    /// Fallback for pairs never observed together (highly selective).
    pub fallback: f64,
}

impl PairSelectivities {
    /// Estimates selectivities from a trace.
    ///
    /// * `window` — the query window in trace time (ticks);
    /// * `attrs` — the join attributes to profile;
    /// * the trace must be in global trace order.
    ///
    /// Runs in O(events × types): events sharing a key are counted against
    /// a per-type tally of that key's in-window events, never pair by pair.
    pub fn estimate(
        events: &[Event],
        window: Timestamp,
        attrs: &[AttrId],
        duration: Timestamp,
    ) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "PairSelectivities::estimate needs the trace in global trace order"
        );
        let units = (duration as f64 / window.max(1) as f64).max(1.0);
        // Events per type id, then dense indices for the types present, in
        // id order, so that `a < b` on indices is `a < b` on ids.
        let mut counts = vec![0u64; events.iter().map(|e| e.ty.index() + 1).max().unwrap_or(0)];
        for e in events {
            counts[e.ty.index()] += 1;
        }
        let mut dense = vec![0; counts.len()];
        let mut types = Vec::new();
        for (id, &n) in counts.iter().enumerate() {
            if n > 0 {
                dense[id] = types.len();
                types.push(EventTypeId(id as u16));
            }
        }
        // An attribute listed twice is profiled twice: its pairs count twice.
        let mut profiled: Vec<(AttrId, u64)> = Vec::with_capacity(attrs.len());
        for &attr in attrs {
            match profiled.iter_mut().find(|(a, _)| *a == attr) {
                Some((_, repeats)) => *repeats += 1,
                None => profiled.push((attr, 1)),
            }
        }

        // Group ids, group sizes and positions below are `u32`.
        assert!(
            events.len().saturating_mul(profiled.len()) < u32::MAX as usize,
            "PairSelectivities::estimate: 2³² or more profiled event values"
        );

        // 1. A dense group id per (profiled attribute, value), for every
        //    event and profiled attribute in turn. Join keys are discrete
        //    (ids, labels); events without one (float-valued or missing)
        //    join no group.
        const NO_GROUP: u32 = u32::MAX;
        let mut ints: Vec<HashMap<i64, u32>> = vec![HashMap::new(); profiled.len()];
        let mut strs: Vec<HashMap<&str, u32>> = vec![HashMap::new(); profiled.len()];
        let mut group_slot = Vec::new();
        let mut at: Vec<u32> = Vec::new();
        let mut member = Vec::with_capacity(events.len() * profiled.len());
        for e in events {
            for (slot, &(attr, _)) in profiled.iter().enumerate() {
                let fresh = at.len() as u32;
                let g = match e.payload.get(attr) {
                    Some(Value::Int(v)) => *ints[slot].entry(*v).or_insert(fresh),
                    Some(Value::Str(s)) => *strs[slot].entry(s).or_insert(fresh),
                    _ => NO_GROUP,
                };
                if g == fresh {
                    group_slot.push(slot);
                    at.push(0);
                }
                if g != NO_GROUP {
                    at[g as usize] += 1;
                }
                member.push(g);
            }
        }
        drop((ints, strs));

        // 2. A stable counting sort of event indices by group: each group's
        //    events lie contiguous and in trace order. `at[g]` turns from
        //    the size of group `g` into where it starts, and then into where
        //    it ends, which is where group `g + 1` starts.
        let mut total = 0;
        for n in &mut at {
            (*n, total) = (total, total + *n);
        }
        let mut laid = vec![0u32; total as usize];
        for (i, groups) in member.chunks_exact(profiled.len().max(1)).enumerate() {
            for &g in groups.iter().filter(|&&g| g != NO_GROUP) {
                laid[at[g as usize] as usize] = i as u32;
                at[g as usize] += 1;
            }
        }
        drop(member);

        // 3. A sliding window per group: `live[a]` holds the group's
        //    type-`a` events within the window of the arriving event, and
        //    `seen[slot][b][a]` sums `live[a]` over arriving type-`b` events.
        //    Pairs of types a ≠ b number `seen[a][b] + seen[b][a]`.
        let t = types.len();
        let mut seen = vec![0u64; profiled.len() * t * t];
        let mut live = vec![0u64; t];
        let mut start = 0;
        for (&slot, &stop) in group_slot.iter().zip(&at) {
            let group = &laid[start..stop as usize];
            let seen = &mut seen[slot * t * t..][..t * t];
            let event = |k: usize| {
                let e = &events[group[k] as usize];
                (dense[e.ty.index()], e.time)
            };
            let mut first = 0;
            for k in 0..group.len() {
                let (ty, time) = event(k);
                while time.saturating_sub(event(first).1) > window {
                    live[event(first).0] -= 1;
                    first += 1;
                }
                for (s, &n) in seen[ty * t..][..t].iter_mut().zip(&live) {
                    *s += n;
                }
                live[ty] += 1;
            }
            for k in first..group.len() {
                live[event(k).0] -= 1;
            }
            start = stop as usize;
        }

        let mut map = HashMap::new();
        for (slot, &(attr, repeats)) in profiled.iter().enumerate() {
            let seen = &seen[slot * t * t..][..t * t];
            for a in 0..t {
                for b in a + 1..t {
                    let m = repeats * (seen[a * t + b] + seen[b * t + a]);
                    if m == 0 {
                        continue;
                    }
                    let n_a = counts[types[a].index()] as f64;
                    let n_b = counts[types[b].index()] as f64;
                    let sigma = (m as f64 * units / (n_a * n_b)).clamp(1e-9, 1.0);
                    map.insert((attr, types[a], types[b]), sigma);
                }
            }
        }
        Self {
            map,
            fallback: 1e-6,
        }
    }

    /// The estimated selectivity for an attribute-equality predicate
    /// between two event types.
    pub fn get(&self, attr: AttrId, a: EventTypeId, b: EventTypeId) -> f64 {
        let key = if a <= b { (attr, a, b) } else { (attr, b, a) };
        self.map.get(&key).copied().unwrap_or(self.fallback)
    }

    /// Rewrites the selectivities of a query's binary equality predicates
    /// with the empirical estimates.
    pub fn apply_to_query(&self, query: &mut Query) {
        let updates: Vec<(usize, f64)> = query
            .predicates()
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match &p.expr {
                PredicateExpr::BinaryAttr {
                    left_prim,
                    left_attr,
                    right_prim,
                    right_attr,
                    ..
                } if left_attr == right_attr => {
                    let a = query.prim_type(*left_prim);
                    let b = query.prim_type(*right_prim);
                    Some((i, self.get(*left_attr, a, b)))
                }
                _ => None,
            })
            .collect();
        for (i, sigma) in updates {
            query.set_predicate_selectivity(i, sigma);
        }
    }

    /// Number of profiled pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Re-derives network rates in *window units* (events per window per
/// producing node) from an observed trace, the dimensionally meaningful
/// unit for the product-form output-rate model: `r̂(A)·r̂(B)` then
/// approximates pair matches per window.
pub fn rates_per_window(
    network: &Network,
    events: &[Event],
    window: Timestamp,
    duration: Timestamp,
) -> Network {
    let mut out = network.clone();
    let units = (duration as f64 / window.max(1) as f64).max(1.0);
    let mut counts = vec![0.0; network.num_types()];
    for e in events {
        counts[e.ty.index()] += 1.0;
    }
    for (ty_idx, count) in counts.iter().enumerate() {
        let ty = EventTypeId(ty_idx as u16);
        let producers = network.num_producers(ty).max(1) as f64;
        out.set_rate(ty, (count / units / producers).max(1e-9));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::Payload;
    use muse_core::types::NodeId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ev(seq: u64, ty: u16, time: Timestamp, key: i64) -> Event {
        let mut p = Payload::new();
        p.set(AttrId(0), Value::Int(key));
        Event::with_payload(seq, EventTypeId(ty), time, NodeId(0), p)
    }

    #[test]
    fn correlated_pairs_get_high_selectivity() {
        // Every type-0 event is followed by a type-1 event with the same
        // key within the window: M = n_A, so σ = units / n_B.
        let window = 10;
        let duration = 1000;
        let mut events = Vec::new();
        for i in 0..100u64 {
            let t = i * 10;
            events.push(ev(2 * i, 0, t, i as i64));
            events.push(ev(2 * i + 1, 1, t + 5, i as i64));
        }
        let sel = PairSelectivities::estimate(&events, window, &[AttrId(0)], duration);
        let sigma = sel.get(AttrId(0), EventTypeId(0), EventTypeId(1));
        // M = 100, units = 100, nA = nB = 100 → σ = 1.0.
        assert!((sigma - 1.0).abs() < 1e-9, "σ = {sigma}");
        // Symmetric lookup.
        assert_eq!(sigma, sel.get(AttrId(0), EventTypeId(1), EventTypeId(0)));
    }

    #[test]
    fn uncorrelated_pairs_get_low_selectivity() {
        // Keys never repeat across types: no same-key pairs at all.
        let mut events = Vec::new();
        for i in 0..50u64 {
            events.push(ev(2 * i, 0, i * 10, i as i64));
            events.push(ev(2 * i + 1, 1, i * 10 + 5, 10_000 + i as i64));
        }
        let sel = PairSelectivities::estimate(&events, 10, &[AttrId(0)], 500);
        assert_eq!(
            sel.get(AttrId(0), EventTypeId(0), EventTypeId(1)),
            sel.fallback
        );
        assert!(sel.is_empty());
    }

    #[test]
    fn window_limits_pairing() {
        // Same keys but 100 ticks apart with window 10: no pairs.
        let events = vec![ev(0, 0, 0, 7), ev(1, 1, 100, 7)];
        let sel = PairSelectivities::estimate(&events, 10, &[AttrId(0)], 200);
        assert!(sel.is_empty());
        // Window 200 captures the pair.
        let sel = PairSelectivities::estimate(&events, 200, &[AttrId(0)], 200);
        assert!(!sel.is_empty());
    }

    #[test]
    fn apply_rewrites_query_predicates() {
        use muse_core::query::{CmpOp, Pattern, Predicate};
        use muse_core::types::{PrimId, QueryId};
        let mut events = Vec::new();
        for i in 0..100u64 {
            events.push(ev(2 * i, 0, i * 10, i as i64));
            events.push(ev(2 * i + 1, 1, i * 10 + 5, i as i64));
        }
        let sel = PairSelectivities::estimate(&events, 10, &[AttrId(0)], 1000);
        let pred = Predicate::binary(
            (PrimId(0), AttrId(0)),
            CmpOp::Eq,
            (PrimId(1), AttrId(0)),
            0.0001,
        );
        let mut q = Query::build(
            QueryId(0),
            &Pattern::seq([Pattern::leaf(EventTypeId(0)), Pattern::leaf(EventTypeId(1))]),
            vec![pred],
            10,
        )
        .unwrap();
        sel.apply_to_query(&mut q);
        assert!((q.predicates()[0].selectivity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rates_per_window_normalizes() {
        use muse_core::network::NetworkBuilder;
        let net = NetworkBuilder::new(2, 2)
            .node(NodeId(0), [EventTypeId(0)])
            .node(NodeId(1), [EventTypeId(0), EventTypeId(1)])
            .rate(EventTypeId(0), 123.0)
            .rate(EventTypeId(1), 456.0)
            .build();
        // 100 events of type 0, duration = 10 windows, 2 producers:
        // rate = 100 / 10 / 2 = 5 per window per node.
        let events: Vec<Event> = (0..100)
            .map(|i| Event::new(i, EventTypeId(0), i * 10, NodeId(0)))
            .collect();
        let out = rates_per_window(&net, &events, 100, 1000);
        assert!((out.rate(EventTypeId(0)) - 5.0).abs() < 1e-9);
        assert!(out.rate(EventTypeId(1)) <= 1e-8); // unseen type floored
    }

    /// The estimator as first written: every same-key, in-window pair of
    /// events is visited and counted in a map. Quadratic in the events that
    /// share a key within one window; the reference for the linear pass.
    fn pairwise_reference(
        events: &[Event],
        window: Timestamp,
        attrs: &[AttrId],
        duration: Timestamp,
    ) -> PairSelectivities {
        let units = (duration as f64 / window.max(1) as f64).max(1.0);
        let mut type_counts: HashMap<EventTypeId, f64> = HashMap::new();
        for e in events {
            *type_counts.entry(e.ty).or_insert(0.0) += 1.0;
        }
        let mut pair_counts: HashMap<(AttrId, EventTypeId, EventTypeId), f64> = HashMap::new();
        for &attr in attrs {
            #[derive(PartialEq, Eq, Hash)]
            enum Key<'a> {
                Int(i64),
                Str(&'a str),
            }
            let mut groups: HashMap<Key<'_>, Vec<(EventTypeId, Timestamp)>> = HashMap::new();
            for e in events {
                let key = match e.payload.get(attr) {
                    Some(Value::Int(v)) => Key::Int(*v),
                    Some(Value::Str(s)) => Key::Str(s),
                    _ => continue,
                };
                groups.entry(key).or_default().push((e.ty, e.time));
            }
            for group in groups.values() {
                for (i, (ty_a, t_a)) in group.iter().enumerate() {
                    for (ty_b, t_b) in group.iter().skip(i + 1) {
                        if t_b.saturating_sub(*t_a) > window {
                            break;
                        }
                        if ty_a != ty_b {
                            let key = if ty_a <= ty_b {
                                (attr, *ty_a, *ty_b)
                            } else {
                                (attr, *ty_b, *ty_a)
                            };
                            *pair_counts.entry(key).or_insert(0.0) += 1.0;
                        }
                    }
                }
            }
        }
        let map = pair_counts
            .into_iter()
            .map(|((attr, a, b), m)| {
                let n_a = type_counts.get(&a).copied().unwrap_or(0.0).max(1.0);
                let n_b = type_counts.get(&b).copied().unwrap_or(0.0).max(1.0);
                let sigma = (m * units / (n_a * n_b)).clamp(1e-9, 1.0);
                ((attr, a, b), sigma)
            })
            .collect();
        PairSelectivities {
            map,
            fallback: 1e-6,
        }
    }

    /// A random trace in trace order: up to five sparse type ids, runs of
    /// equal timestamps, and per attribute an `Int`, `Str`, `Float` or no
    /// value, from domains small enough that keys repeat. `Str("1")` and
    /// `Int(1)` both occur and are different keys.
    fn random_trace(rng: &mut StdRng) -> Vec<Event> {
        let len = match rng.gen_range(0..4) {
            0 => 0,
            1 => rng.gen_range(1..20),
            _ => rng.gen_range(20..300),
        };
        let types: Vec<u16> = (0..rng.gen_range(1..=5))
            .map(|_| rng.gen_range(0..40))
            .collect();
        let max_step = rng.gen_range(0..=5u64);
        let mut time = rng.gen_range(0..3u64);
        (0..len)
            .map(|seq| {
                time += rng.gen_range(0..=max_step);
                let mut pairs = Vec::new();
                for attr in 0..4 {
                    let value = match rng.gen_range(0..5) {
                        0 => continue,
                        1 => Value::Float(rng.gen_range(0..3) as f64),
                        2 => Value::Str(rng.gen_range(0..3i64).to_string()),
                        _ => Value::Int(rng.gen_range(0..4)),
                    };
                    pairs.push((AttrId(attr), value));
                }
                let ty = EventTypeId(types[rng.gen_range(0..types.len())]);
                Event::with_payload(seq, ty, time, NodeId(0), Payload::from_pairs(pairs))
            })
            .collect()
    }

    /// The σ map by key, each σ by its bits.
    fn sigma_bits(sel: &PairSelectivities) -> Vec<((AttrId, EventTypeId, EventTypeId), u64)> {
        let mut bits: Vec<_> = sel.map.iter().map(|(&k, s)| (k, s.to_bits())).collect();
        bits.sort_unstable();
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The linear pass yields the pairwise reference's σ map bit for
        /// bit, for windows from 0 to beyond the trace's span and 1-3
        /// profiled attributes (a repeat and an attribute no event carries
        /// included).
        #[test]
        fn estimate_equals_pairwise_reference(
            seed in any::<u64>(),
            window_kind in 0u8..4,
            attr_count in 1usize..=3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let events = random_trace(&mut rng);
            let span = match (events.first(), events.last()) {
                (Some(first), Some(last)) => last.time - first.time,
                _ => 0,
            };
            let window = match window_kind {
                0 => 0,
                1 => rng.gen_range(0..=span),
                2 => span,
                _ => span + rng.gen_range(1..100u64),
            };
            let attrs: Vec<AttrId> = (0..attr_count).map(|_| AttrId(rng.gen_range(0..5))).collect();
            let duration = rng.gen_range(0..2_000);
            let got = PairSelectivities::estimate(&events, window, &attrs, duration);
            let want = pairwise_reference(&events, window, &attrs, duration);
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(sigma_bits(&got), sigma_bits(&want));
        }
    }

    #[test]
    fn empty_trace_profiles_nothing() {
        let sel = PairSelectivities::estimate(&[], 10, &[AttrId(0), AttrId(1)], 100);
        assert!(sel.is_empty());
        assert_eq!(
            sel.get(AttrId(0), EventTypeId(0), EventTypeId(1)),
            sel.fallback
        );
    }
}

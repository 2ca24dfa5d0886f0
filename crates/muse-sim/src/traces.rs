//! Poisson event traces for an event-sourced network (§7.1: "event
//! generation follows a Poisson distribution").
//!
//! Every `(node, type)` pair with `type ∈ f(node)` emits an independent
//! Poisson process at rate `r(type)` (scaled by [`TraceConfig::rate_scale`]
//! so high-rate synthetic networks stay executable). Events carry a single
//! integer `key` attribute drawn uniformly from `0..key_domain`, so an
//! equality predicate between two events has selectivity `1 / key_domain`.

use crate::dist::exponential;
use muse_core::event::{Event, Payload, Timestamp, Value};
use muse_core::network::Network;
use muse_core::types::{AttrId, EventTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The attribute id of the uniform key carried by synthetic events.
pub const KEY_ATTR: AttrId = AttrId(0);

/// The attribute id of the uniform band value (used by the multi-tenant
/// family workloads, see `workload_gen::BAND_ATTR`).
pub const BAND_ATTR: AttrId = AttrId(1);

/// Configuration of the trace generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Trace horizon in time units.
    pub duration: f64,
    /// Ticks of the discrete [`Timestamp`] clock per time unit.
    pub ticks_per_unit: f64,
    /// Rates are multiplied by this factor before generation.
    pub rate_scale: f64,
    /// Domain of the `key` attribute (0 = no payload).
    pub key_domain: u32,
    /// Domain of the `band` attribute carried as `AttrId(1)` (0 = absent).
    /// Family workload variants discriminate on this attribute.
    #[serde(default)]
    pub band_domain: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            duration: 100.0,
            ticks_per_unit: 1_000.0,
            rate_scale: 1.0,
            key_domain: 0,
            band_domain: 0,
            seed: 0,
        }
    }
}

/// Generates the interleaved global trace of the network: all local traces
/// merged, sorted by timestamp, with sequence numbers assigned in trace
/// order (ties broken deterministically, §2.1).
pub fn generate_traces(network: &Network, config: &TraceConfig) -> Vec<Event> {
    assert!(config.duration > 0.0 && config.ticks_per_unit > 0.0 && config.rate_scale > 0.0);
    let mut rng = StdRng::seed_from_u64(config.seed);
    // (tick, node, type, key, band) tuples, then sorted and sequenced.
    let mut raw: Vec<(Timestamp, u16, u16, u32, u32)> = Vec::new();
    for node in network.nodes() {
        for ty in network.generated_types(node).iter() {
            let rate = network.rate(ty) * config.rate_scale;
            if rate <= 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                t += exponential(&mut rng, rate);
                if t >= config.duration {
                    break;
                }
                let tick = (t * config.ticks_per_unit) as Timestamp;
                let key = if config.key_domain > 0 {
                    rng.gen_range(0..config.key_domain)
                } else {
                    0
                };
                let band = if config.band_domain > 0 {
                    rng.gen_range(0..config.band_domain)
                } else {
                    0
                };
                raw.push((tick, node.0, ty.0, key, band));
            }
        }
    }
    // Deterministic global order: timestamp, then node, type, key, band.
    raw.sort_unstable();
    raw.into_iter()
        .enumerate()
        .map(|(seq, (tick, node, ty, key, band))| {
            let key = (config.key_domain > 0).then_some((KEY_ATTR, Value::Int(key as i64)));
            let band = (config.band_domain > 0).then_some((BAND_ATTR, Value::Int(band as i64)));
            Event::with_payload(
                seq as u64,
                EventTypeId(ty),
                tick,
                muse_core::types::NodeId(node),
                Payload::from_pairs(key.into_iter().chain(band)),
            )
        })
        .collect()
}

/// Splits a global trace into per-node local traces (returned indexed by
/// node id). Order within each local trace follows the global trace.
pub fn split_by_node(events: &[Event], num_nodes: usize) -> Vec<Vec<Event>> {
    let mut out = vec![Vec::new(); num_nodes];
    for e in events {
        out[e.origin.index()].push(e.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::network::NetworkBuilder;
    use muse_core::types::NodeId;

    fn network() -> Network {
        NetworkBuilder::new(2, 2)
            .node(NodeId(0), [EventTypeId(0)])
            .node(NodeId(1), [EventTypeId(0), EventTypeId(1)])
            .rate(EventTypeId(0), 5.0)
            .rate(EventTypeId(1), 1.0)
            .build()
    }

    #[test]
    fn events_sorted_and_sequenced() {
        let events = generate_traces(&network(), &TraceConfig::default());
        assert!(!events.is_empty());
        for (i, w) in events.windows(2).enumerate() {
            assert!(w[0].time <= w[1].time, "at {i}");
        }
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn event_counts_scale_with_rate() {
        let cfg = TraceConfig {
            duration: 200.0,
            seed: 1,
            ..Default::default()
        };
        let events = generate_traces(&network(), &cfg);
        let count_a = events.iter().filter(|e| e.ty == EventTypeId(0)).count() as f64;
        let count_b = events.iter().filter(|e| e.ty == EventTypeId(1)).count() as f64;
        // Type 0: two producers at rate 5 → expected 2000; type 1: 200.
        assert!((count_a / 2000.0 - 1.0).abs() < 0.15, "{count_a}");
        assert!((count_b / 200.0 - 1.0).abs() < 0.3, "{count_b}");
    }

    #[test]
    fn origins_respect_network() {
        let events = generate_traces(&network(), &TraceConfig::default());
        let net = network();
        for e in &events {
            assert!(net.generates(e.origin, e.ty));
        }
    }

    #[test]
    fn keys_generated_in_domain() {
        let cfg = TraceConfig {
            key_domain: 10,
            duration: 20.0,
            ..Default::default()
        };
        let events = generate_traces(&network(), &cfg);
        for e in &events {
            match e.payload.get(KEY_ATTR) {
                Some(Value::Int(k)) => assert!((0..10).contains(k)),
                other => panic!("missing key: {other:?}"),
            }
        }
    }

    #[test]
    fn bands_generated_in_domain() {
        let cfg = TraceConfig {
            key_domain: 10,
            band_domain: 4,
            duration: 20.0,
            ..Default::default()
        };
        let events = generate_traces(&network(), &cfg);
        for e in &events {
            match e.payload.get(BAND_ATTR) {
                Some(Value::Int(b)) => assert!((0..4).contains(b)),
                other => panic!("missing band: {other:?}"),
            }
        }
    }

    #[test]
    fn no_payload_without_domain() {
        let events = generate_traces(&network(), &TraceConfig::default());
        assert!(events.iter().all(|e| e.payload.is_empty()));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = generate_traces(&network(), &TraceConfig::default());
        let b = generate_traces(&network(), &TraceConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn split_by_node_partitions() {
        let events = generate_traces(&network(), &TraceConfig::default());
        let split = split_by_node(&events, 2);
        assert_eq!(split[0].len() + split[1].len(), events.len());
        for e in &split[0] {
            assert_eq!(e.origin, NodeId(0));
        }
    }

    #[test]
    fn rate_scale_reduces_volume() {
        let base = generate_traces(&network(), &TraceConfig::default());
        let scaled = generate_traces(
            &network(),
            &TraceConfig {
                rate_scale: 0.1,
                ..Default::default()
            },
        );
        assert!(scaled.len() * 5 < base.len());
    }
}

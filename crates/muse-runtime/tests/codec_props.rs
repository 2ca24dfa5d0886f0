//! Property suite for the binary wire codec.
//!
//! Two invariants over randomized matches (all three value kinds, varied
//! payload shapes and entry counts):
//! 1. `decode_match(encode_match(m)) == Some(m)` — lossless roundtrip,
//! 2. `encoded_len(m) == encode_match(m).len()` — the arithmetic size the
//!    executors use for byte accounting stays in lockstep with the actual
//!    encoder (the batched send path never encodes, so this equality is
//!    what keeps `bytes_sent` honest).

use muse_core::event::{Event, Payload, Value};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId};
use muse_runtime::codec::{decode_match, encode_match, encoded_event_len, encoded_len};
use muse_runtime::matcher::Match;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0u8..3) {
        0 => Value::Int(rng.gen::<u64>() as i64),
        // Finite, exactly representable floats (roundtrip uses equality).
        1 => Value::Float((rng.gen::<u32>() as f64 - 2_147_483_648.0) / 8.0),
        _ => {
            let len = rng.gen_range(0usize..16);
            let s: String = (0..len)
                .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                .collect();
            Value::Str(s)
        }
    }
}

fn random_event(rng: &mut StdRng) -> Event {
    let mut payload = Payload::new();
    for _ in 0..rng.gen_range(0usize..6) {
        payload.set(AttrId(rng.gen_range(0u8..12)), random_value(rng));
    }
    Event::with_payload(
        rng.gen::<u64>(),
        EventTypeId(rng.gen_range(0u16..64)),
        rng.gen::<u64>(),
        NodeId(rng.gen_range(0u16..32)),
        payload,
    )
}

fn random_match(rng: &mut StdRng, max_entries: usize) -> Match {
    let n = rng.gen_range(0..=max_entries);
    Match::new(
        (0..n)
            .map(|_| (PrimId(rng.gen_range(0u8..16)), random_event(rng)))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn match_roundtrips_losslessly(seed in any::<u64>(), max_entries in 0usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_match(&mut rng, max_entries);
        let decoded = decode_match(encode_match(&m));
        prop_assert_eq!(decoded.as_ref(), Some(&m));
    }

    #[test]
    fn encoded_len_equals_wire_bytes(seed in any::<u64>(), max_entries in 0usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_match(&mut rng, max_entries);
        let wire = encode_match(&m);
        prop_assert_eq!(encoded_len(&m), wire.len());
        // The per-event size decomposes the match size exactly.
        let from_events: usize = 2 + m
            .entries()
            .iter()
            .map(|(_, e)| 1 + encoded_event_len(e))
            .sum::<usize>();
        prop_assert_eq!(from_events, wire.len());
    }

    #[test]
    fn single_event_roundtrips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_event(&mut rng);
        let m = Match::single(PrimId(rng.gen_range(0u8..16)), e.clone());
        let decoded = decode_match(encode_match(&m));
        prop_assert_eq!(decoded.as_ref().map(|d| d.entries().len()), Some(1));
        prop_assert_eq!(decoded.as_ref().map(|d| &d.entries()[0].1), Some(&e));
    }
}

//! Compact binary wire format for events and matches.
//!
//! Used (a) to account transmitted bytes realistically in the executors
//! ([`encoded_len`] is what a network transmission costs), and (b) as the
//! body encoding of [`crate::checkpoint`] snapshots. The threaded
//! executor's channel messages carry matches by value, not encoded. The
//! format is length-prefixed and self-describing enough for roundtrips; it
//! is not versioned itself — snapshots wrap it in a versioned,
//! plan-fingerprinted envelope (see `checkpoint`).
//!
//! An event's attribute count takes one byte up to 254. A payload can
//! carry one value per attribute id, 256 in all, so larger counts are
//! the escape byte `0xFF` followed by a `u16` count.
//!
//! Every decoder is checked: malformed or truncated bytes decode to
//! `None`, never a panic, and no length prefix sizes a buffer beyond the
//! bytes that remain. A count after the escape must lie in `255..=256`,
//! so each event has one encoding.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use muse_core::event::{Event, Payload, Value};
use muse_core::types::{AttrId, EventTypeId, NodeId, PrimId, MAX_PRIMS};

use crate::matcher::Match;

/// The attribute-count byte that announces a `u16` count.
const WIDE_COUNT: u8 = 0xFF;

/// The smallest attribute count written as [`WIDE_COUNT`] and a `u16`.
const WIDE_COUNTS_FROM: usize = WIDE_COUNT as usize;

/// The most attributes a payload carries: one per (`u8`) attribute id.
const MAX_ATTRS: usize = u8::MAX as usize + 1;

/// Encodes a match.
pub fn encode_match(m: &Match) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + m.len() * 32);
    buf.put_u16(m.len() as u16);
    for (prim, event) in m.entries() {
        buf.put_u8(prim.0);
        encode_event(event, &mut buf);
    }
    buf.freeze()
}

/// Decodes the match at the front of `buf` ([`try_decode_match`] over its
/// bytes); `None` when they are truncated or malformed.
pub fn decode_match(mut buf: impl Buf) -> Option<Match> {
    if buf.chunk().len() == buf.remaining() {
        return try_decode_match(&mut buf.chunk());
    }
    let mut bytes = vec![0; buf.remaining()];
    buf.copy_to_slice(&mut bytes);
    try_decode_match(&mut bytes.as_slice())
}

/// Decodes the match at the front of a byte slice: `None` on truncation, a
/// malformed value, or a primitive id no [`PrimSet`] can hold. Consumes
/// from the front of `buf` exactly as far as the match extends on success.
///
/// [`PrimSet`]: muse_core::types::PrimSet
pub fn try_decode_match(buf: &mut &[u8]) -> Option<Match> {
    let n = try_get_u16(buf)? as usize;
    // Every entry takes more than one byte: a count beyond the remaining
    // bytes is corrupt, and must not size the buffer.
    let mut entries = Vec::with_capacity(n.min(buf.len()));
    for _ in 0..n {
        let prim = PrimId(try_get_u8(buf).filter(|&p| usize::from(p) < MAX_PRIMS)?);
        let event = try_decode_event(buf)?;
        entries.push((prim, event));
    }
    Some(Match::new(entries))
}

/// Decodes the event at the front of a byte slice; see
/// [`try_decode_match`].
pub(crate) fn try_decode_event(buf: &mut &[u8]) -> Option<Event> {
    let seq = try_get_u64(buf)?;
    let ty = EventTypeId(try_get_u16(buf)?);
    let time = try_get_u64(buf)?;
    let origin = NodeId(try_get_u16(buf)?);
    let n_attrs = match try_get_u8(buf)? {
        WIDE_COUNT => match usize::from(try_get_u16(buf)?) {
            n @ WIDE_COUNTS_FROM..=MAX_ATTRS => n,
            _ => return None,
        },
        n => usize::from(n),
    };
    // The pairs stream into the payload's one allocation and stop at the
    // first that does not decode.
    let mut complete = true;
    let payload = Payload::from_pairs((0..n_attrs).map_while(|_| {
        let pair = try_decode_attr(buf);
        complete &= pair.is_some();
        pair
    }));
    complete.then(|| Event::with_payload(seq, ty, time, origin, payload))
}

/// Decodes the `(attribute, value)` pair at the front of a byte slice.
fn try_decode_attr(buf: &mut &[u8]) -> Option<(AttrId, Value)> {
    let attr = AttrId(try_get_u8(buf)?);
    let value = match try_get_u8(buf)? {
        0 => Value::Int(try_get_u64(buf)? as i64),
        1 => Value::Float(f64::from_bits(try_get_u64(buf)?)),
        2 => {
            let len = try_get_u32(buf)? as usize;
            if buf.len() < len {
                return None;
            }
            let (head, rest) = buf.split_at(len);
            let s = String::from_utf8(head.to_vec()).ok()?;
            *buf = rest;
            Value::Str(s)
        }
        _ => return None,
    };
    Some((attr, value))
}

/// Reads a big-endian `u8` from the front of the slice, if present.
pub fn try_get_u8(buf: &mut &[u8]) -> Option<u8> {
    let (head, rest) = buf.split_first()?;
    *buf = rest;
    Some(*head)
}

/// Reads a big-endian `u16` from the front of the slice, if present.
pub fn try_get_u16(buf: &mut &[u8]) -> Option<u16> {
    if buf.len() < 2 {
        return None;
    }
    let (head, rest) = buf.split_at(2);
    *buf = rest;
    Some(u16::from_be_bytes(head.try_into().ok()?))
}

/// Reads a big-endian `u32` from the front of the slice, if present.
pub fn try_get_u32(buf: &mut &[u8]) -> Option<u32> {
    if buf.len() < 4 {
        return None;
    }
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    Some(u32::from_be_bytes(head.try_into().ok()?))
}

/// Reads a big-endian `u64` from the front of the slice, if present.
pub fn try_get_u64(buf: &mut &[u8]) -> Option<u64> {
    if buf.len() < 8 {
        return None;
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    Some(u64::from_be_bytes(head.try_into().ok()?))
}

/// Encodes an event into the buffer.
pub(crate) fn encode_event(e: &Event, buf: &mut BytesMut) {
    buf.put_u64(e.seq);
    buf.put_u16(e.ty.0);
    buf.put_u64(e.time);
    buf.put_u16(e.origin.0);
    let n_attrs = e.payload.len();
    if n_attrs < WIDE_COUNTS_FROM {
        buf.put_u8(n_attrs as u8);
    } else {
        buf.put_u8(WIDE_COUNT);
        buf.put_u16(n_attrs as u16);
    }
    for (attr, value) in e.payload.iter() {
        buf.put_u8(attr.0);
        match value {
            Value::Int(v) => {
                buf.put_u8(0);
                buf.put_i64(*v);
            }
            Value::Float(v) => {
                buf.put_u8(1);
                buf.put_f64(*v);
            }
            Value::Str(s) => {
                buf.put_u8(2);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Encoded size of one event in bytes, computed arithmetically (no buffer
/// is written). Kept in lockstep with the encoder; the equality is
/// asserted by the codec property suite.
pub fn encoded_event_len(e: &Event) -> usize {
    // seq + ty + time + origin + attr count (escaped from 255 on).
    let count = if e.payload.len() < WIDE_COUNTS_FROM {
        1
    } else {
        3
    };
    let mut len = 8 + 2 + 8 + 2 + count;
    for (_, value) in e.payload.iter() {
        // attr id + value tag.
        len += 1 + 1;
        len += match value {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        };
    }
    len
}

/// Encoded size of a match in bytes (what a network transmission costs).
/// Computed arithmetically so the executors' send paths can account bytes
/// without encoding (and allocating) the full wire buffer per match.
pub fn encoded_len(m: &Match) -> usize {
    // Entry count prefix, then one prim id byte per entry plus its event.
    2 + m
        .entries()
        .iter()
        .map(|(_, e)| 1 + encoded_event_len(e))
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::types::PrimSet;

    fn sample_event() -> Event {
        let mut p = Payload::new();
        p.set(AttrId(0), Value::Int(-7));
        p.set(AttrId(3), Value::Float(2.5));
        p.set(AttrId(5), Value::Str("job-42".into()));
        Event::with_payload(99, EventTypeId(4), 123_456, NodeId(17), p)
    }

    #[test]
    fn event_roundtrip() {
        let e = sample_event();
        let mut buf = BytesMut::new();
        encode_event(&e, &mut buf);
        let buf = buf.into_vec();
        let mut bytes: &[u8] = &buf;
        assert_eq!(try_decode_event(&mut bytes), Some(e));
        assert!(bytes.is_empty());
    }

    #[test]
    fn match_roundtrip() {
        let m = Match::new(vec![
            (PrimId(0), sample_event()),
            (PrimId(2), Event::new(5, EventTypeId(1), 10, NodeId(0))),
        ]);
        let encoded = encode_match(&m);
        let back = decode_match(encoded);
        assert_eq!(back, Some(m));
    }

    #[test]
    fn empty_match_roundtrip() {
        let m = Match::new(vec![]);
        assert_eq!(decode_match(encode_match(&m)), Some(m));
    }

    #[test]
    fn malformed_values_decode_to_none() {
        let m = Match::single(PrimId(0), sample_event());
        let encoded = encode_match(&m).chunk().to_vec();
        // The string value's first byte: 2 (count) + 1 (prim) + 21 (event
        // header) + 10 (int attr) + 10 (float attr) + 2 (attr id, tag) + 4
        // (length).
        let str_pos = 2 + 1 + 21 + 10 + 10 + 2 + 4;
        assert_eq!(encoded[str_pos], b'j');
        let mut not_utf8 = encoded.clone();
        not_utf8[str_pos] = 0xff;
        assert_eq!(try_decode_match(&mut not_utf8.as_slice()), None);
        let mut bad_tag = encoded;
        bad_tag[2 + 1 + 21 + 1] = 9;
        assert_eq!(try_decode_match(&mut bad_tag.as_slice()), None);
    }

    #[test]
    fn prim_ids_beyond_a_prim_set_decode_to_none() {
        let m = Match::single(PrimId(1), Event::new(1, EventTypeId(0), 1, NodeId(0)));
        let mut encoded = encode_match(&m).chunk().to_vec();
        for prim in [MAX_PRIMS - 1, MAX_PRIMS, 200, 255] {
            // The prim byte follows the two-byte entry count.
            encoded[2] = prim as u8;
            let prims = try_decode_match(&mut encoded.as_slice()).map(|m| m.prims());
            let want = (prim < MAX_PRIMS).then(|| PrimSet::single(PrimId(prim as u8)));
            assert_eq!(prims, want, "prim {prim}");
        }
    }

    #[test]
    fn encoded_len_reflects_payload() {
        let small = Match::single(PrimId(0), Event::new(1, EventTypeId(0), 1, NodeId(0)));
        let big = Match::single(PrimId(0), sample_event());
        assert!(encoded_len(&big) > encoded_len(&small));
    }

    #[test]
    fn try_decode_roundtrips_and_rejects_truncation() {
        let m = Match::new(vec![
            (PrimId(0), sample_event()),
            (PrimId(2), Event::new(5, EventTypeId(1), 10, NodeId(0))),
        ]);
        let encoded = encode_match(&m).chunk().to_vec();
        let mut slice: &[u8] = &encoded;
        assert_eq!(try_decode_match(&mut slice), Some(m));
        assert!(slice.is_empty(), "decode must consume the exact encoding");
        // Every strict prefix is rejected, never panics.
        for cut in 0..encoded.len() {
            let mut short: &[u8] = &encoded[..cut];
            assert_eq!(try_decode_match(&mut short), None, "prefix len {cut}");
        }
        // A bad value tag is rejected.
        let mut bad = encoded.clone();
        // First attr's tag byte: 2 (count) + 1 (prim) + 21 (event header) + 1 (attr id).
        let tag_pos = 2 + 1 + 21 + 1;
        bad[tag_pos] = 9;
        let mut slice: &[u8] = &bad;
        assert_eq!(try_decode_match(&mut slice), None);
    }

    /// An event carrying the first `n` attribute ids.
    fn with_attrs(n: usize) -> Event {
        let payload = Payload::from_pairs((0..n).map(|a| (AttrId(a as u8), Value::Int(a as i64))));
        Event::with_payload(1, EventTypeId(0), 1, NodeId(0), payload)
    }

    #[test]
    fn wide_attribute_counts_roundtrip() {
        for n in [254, 255, 256] {
            let m = Match::single(PrimId(0), with_attrs(n));
            assert_eq!(m.entries()[0].1.payload.len(), n);
            let encoded = encode_match(&m);
            assert_eq!(encoded_len(&m), encoded.len(), "{n} attributes");
            // The count follows the entry count, prim id and event header.
            let count = encoded.chunk()[2 + 1 + 20];
            assert_eq!(count == WIDE_COUNT, n >= 255, "{n} attributes");
            assert_eq!(decode_match(encoded), Some(m), "{n} attributes");
        }
    }

    #[test]
    fn escaped_counts_outside_the_wide_range_decode_to_none() {
        let m = Match::single(PrimId(0), with_attrs(256));
        let mut encoded = encode_match(&m).chunk().to_vec();
        let at = 2 + 1 + 20 + 1;
        for (count, ok) in [(0u16, false), (254, false), (256, true), (257, false)] {
            encoded[at..at + 2].copy_from_slice(&count.to_be_bytes());
            let decoded = try_decode_match(&mut encoded.as_slice());
            assert_eq!(decoded.is_some(), ok, "escaped count {count}");
        }
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for m in [
            Match::new(vec![]),
            Match::single(PrimId(0), Event::new(1, EventTypeId(0), 1, NodeId(0))),
            Match::new(vec![
                (PrimId(0), sample_event()),
                (PrimId(2), Event::new(5, EventTypeId(1), 10, NodeId(0))),
            ]),
        ] {
            assert_eq!(encoded_len(&m), encode_match(&m).len());
        }
    }
}

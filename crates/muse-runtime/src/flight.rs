//! Crash flight recorder for the threaded executor.
//!
//! Each node shard keeps a bounded ring of recent transport, checkpoint,
//! and injection events. In normal operation the ring costs one enum
//! write per recorded step and is never read; when fault injection
//! crashes a shard, the ring is codec-encoded and published alongside the
//! recovery snapshot, giving a post-mortem timeline of what the shard was
//! doing in the moments before the crash — the black box to the
//! checkpoint's restore point. [`decode_dump`] reads a published dump
//! ([`crate::threaded::ThreadedReport::flight_dumps`]) back and
//! [`render_timeline`] pretty-prints it; no CLI subcommand does either.
//!
//! Records use the same explicit big-endian byte discipline as
//! [`crate::codec`] (and its `try_get_*` readers), so dumps are portable
//! across shards and processes.

use crate::codec::{try_get_u16, try_get_u32, try_get_u64, try_get_u8};
use muse_telemetry::Ring;

/// One recorded step of a shard's recent history. `t` is always wall
/// nanoseconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightRecord {
    /// A source event was injected locally.
    Inject {
        /// Wall nanos since run start.
        t: u64,
        /// Global sequence number of the event.
        seq: u64,
        /// Event type id.
        ty: u16,
        /// Event timestamp in virtual ticks.
        time: u64,
    },
    /// A transport frame was handed to a peer's inbox.
    FrameSent {
        /// Wall nanos since run start.
        t: u64,
        /// Destination node.
        to: u16,
        /// Messages in the frame.
        msgs: u32,
    },
    /// A transport frame was drained from the inbox.
    FrameRecv {
        /// Wall nanos since run start.
        t: u64,
        /// Originating node.
        from: u16,
        /// Messages in the frame.
        msgs: u32,
    },
    /// A checkpoint snapshot of the shard was taken.
    Checkpoint {
        /// Wall nanos since run start.
        t: u64,
        /// Encoded snapshot size.
        bytes: u64,
    },
    /// Fault injection crashed the shard.
    Crash {
        /// Wall nanos since run start.
        t: u64,
        /// Chunk index the crash interrupted.
        chunk: u64,
    },
    /// Recovery from the last snapshot began.
    RecoveryStart {
        /// Wall nanos since run start.
        t: u64,
    },
    /// Recovery finished; processing resumes from `cursor`.
    RecoveryDone {
        /// Wall nanos since run start.
        t: u64,
        /// Restored local-trace cursor.
        cursor: u64,
    },
}

impl FlightRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            FlightRecord::Inject { t, seq, ty, time } => {
                buf.push(0);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&seq.to_be_bytes());
                buf.extend_from_slice(&ty.to_be_bytes());
                buf.extend_from_slice(&time.to_be_bytes());
            }
            FlightRecord::FrameSent { t, to, msgs } => {
                buf.push(1);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&to.to_be_bytes());
                buf.extend_from_slice(&msgs.to_be_bytes());
            }
            FlightRecord::FrameRecv { t, from, msgs } => {
                buf.push(2);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&from.to_be_bytes());
                buf.extend_from_slice(&msgs.to_be_bytes());
            }
            FlightRecord::Checkpoint { t, bytes } => {
                buf.push(3);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&bytes.to_be_bytes());
            }
            FlightRecord::Crash { t, chunk } => {
                buf.push(4);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&chunk.to_be_bytes());
            }
            FlightRecord::RecoveryStart { t } => {
                buf.push(5);
                buf.extend_from_slice(&t.to_be_bytes());
            }
            FlightRecord::RecoveryDone { t, cursor } => {
                buf.push(6);
                buf.extend_from_slice(&t.to_be_bytes());
                buf.extend_from_slice(&cursor.to_be_bytes());
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let tag = try_get_u8(buf)?;
        let t = try_get_u64(buf)?;
        Some(match tag {
            0 => FlightRecord::Inject {
                t,
                seq: try_get_u64(buf)?,
                ty: try_get_u16(buf)?,
                time: try_get_u64(buf)?,
            },
            1 => FlightRecord::FrameSent {
                t,
                to: try_get_u16(buf)?,
                msgs: try_get_u32(buf)?,
            },
            2 => FlightRecord::FrameRecv {
                t,
                from: try_get_u16(buf)?,
                msgs: try_get_u32(buf)?,
            },
            3 => FlightRecord::Checkpoint {
                t,
                bytes: try_get_u64(buf)?,
            },
            4 => FlightRecord::Crash {
                t,
                chunk: try_get_u64(buf)?,
            },
            5 => FlightRecord::RecoveryStart { t },
            6 => FlightRecord::RecoveryDone {
                t,
                cursor: try_get_u64(buf)?,
            },
            _ => return None,
        })
    }

    /// Wall nanoseconds since run start of any record.
    pub fn t(&self) -> u64 {
        match *self {
            FlightRecord::Inject { t, .. }
            | FlightRecord::FrameSent { t, .. }
            | FlightRecord::FrameRecv { t, .. }
            | FlightRecord::Checkpoint { t, .. }
            | FlightRecord::Crash { t, .. }
            | FlightRecord::RecoveryStart { t }
            | FlightRecord::RecoveryDone { t, .. } => t,
        }
    }
}

/// Bounded per-shard ring of recent [`FlightRecord`]s. Capacity 0 disables
/// recording entirely (the non-resilient configuration).
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    ring: Ring<FlightRecord>,
    /// Shard the ring belongs to (stamped into dumps).
    node: u16,
}

/// A decoded flight dump: one shard's recent history at crash time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Shard (node) the dump came from.
    pub node: u16,
    /// Records evicted from the ring before the dump.
    pub dropped: u64,
    /// Retained records, oldest first.
    pub records: Vec<FlightRecord>,
}

impl FlightRing {
    /// Creates a ring for shard `node` holding at most `capacity` records.
    pub fn new(node: u16, capacity: usize) -> Self {
        Self {
            ring: Ring::new(capacity),
            node,
        }
    }

    /// True when recording is disabled (capacity 0).
    pub fn is_disabled(&self) -> bool {
        !self.ring.is_enabled()
    }

    /// Appends a record, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, rec: FlightRecord) {
        self.ring.push(rec);
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Encodes the ring (shard id, eviction count, records) for
    /// publication alongside a recovery snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.ring.len() * 32);
        buf.extend_from_slice(&self.node.to_be_bytes());
        buf.extend_from_slice(&self.ring.dropped().to_be_bytes());
        buf.extend_from_slice(&(self.ring.len() as u32).to_be_bytes());
        for rec in self.ring.records() {
            rec.encode(&mut buf);
        }
        buf
    }
}

/// The smallest encoded record: a tag and `t`.
const MIN_RECORD_BYTES: usize = 1 + 8;

/// Decodes one encoded flight dump; `None` on truncation or an unknown
/// record tag. The record count is untrusted: it sizes the record buffer
/// only as far as the remaining bytes could hold records.
pub fn decode_dump(mut buf: &[u8]) -> Option<FlightDump> {
    let node = try_get_u16(&mut buf)?;
    let dropped = try_get_u64(&mut buf)?;
    let count = try_get_u32(&mut buf)? as usize;
    let mut records = Vec::with_capacity(count.min(buf.len() / MIN_RECORD_BYTES));
    for _ in 0..count {
        records.push(FlightRecord::decode(&mut buf)?);
    }
    Some(FlightDump {
        node,
        dropped,
        records,
    })
}

/// Renders a decoded dump as a human-readable post-mortem timeline,
/// newest events last, timestamps in microseconds since run start.
pub fn render_timeline(dump: &FlightDump) -> String {
    let mut out = format!(
        "flight recorder: node {} — {} records ({} older evicted)\n",
        dump.node,
        dump.records.len(),
        dump.dropped
    );
    for rec in &dump.records {
        let us = rec.t() as f64 / 1_000.0;
        let line = match *rec {
            FlightRecord::Inject { seq, ty, time, .. } => {
                format!("inject       seq {seq} type {ty} @tick {time}")
            }
            FlightRecord::FrameSent { to, msgs, .. } => {
                format!("frame-sent   → node {to} ({msgs} msgs)")
            }
            FlightRecord::FrameRecv { from, msgs, .. } => {
                format!("frame-recv   ← node {from} ({msgs} msgs)")
            }
            FlightRecord::Checkpoint { bytes, .. } => {
                format!("checkpoint   {bytes} bytes")
            }
            FlightRecord::Crash { chunk, .. } => {
                format!("CRASH        at chunk {chunk}")
            }
            FlightRecord::RecoveryStart { .. } => "recovery     start".to_string(),
            FlightRecord::RecoveryDone { cursor, .. } => {
                format!("recovery     done, cursor {cursor}")
            }
        };
        out.push_str(&format!("{us:>12.1}us  {line}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FlightRecord> {
        vec![
            FlightRecord::Inject {
                t: 10,
                seq: 7,
                ty: 2,
                time: 400,
            },
            FlightRecord::FrameSent {
                t: 20,
                to: 1,
                msgs: 3,
            },
            FlightRecord::FrameRecv {
                t: 30,
                from: 1,
                msgs: 5,
            },
            FlightRecord::Checkpoint { t: 40, bytes: 128 },
            FlightRecord::Crash { t: 50, chunk: 4 },
            FlightRecord::RecoveryStart { t: 60 },
            FlightRecord::RecoveryDone { t: 70, cursor: 99 },
            FlightRecord::FrameSent {
                t: 80,
                to: 2,
                msgs: 12,
            },
        ]
    }

    #[test]
    fn dump_roundtrips_every_variant() {
        let mut ring = FlightRing::new(3, 16);
        for rec in sample_records() {
            ring.push(rec);
        }
        let dump = decode_dump(&ring.encode()).unwrap();
        assert_eq!(dump.node, 3);
        assert_eq!(dump.dropped, 0);
        assert_eq!(dump.records, sample_records());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut ring = FlightRing::new(0, 4);
        for i in 0..10 {
            ring.push(FlightRecord::RecoveryStart { t: i });
        }
        assert_eq!(ring.len(), 4);
        let dump = decode_dump(&ring.encode()).unwrap();
        assert_eq!(dump.dropped, 6);
        assert_eq!(dump.records.first().unwrap().t(), 6);
        // Capacity 0 records nothing and says so.
        let mut off = FlightRing::new(0, 0);
        assert!(off.is_disabled());
        off.push(FlightRecord::RecoveryStart { t: 0 });
        assert!(off.is_empty());
        assert_eq!(decode_dump(&off.encode()).unwrap().dropped, 1);
    }

    #[test]
    fn truncated_or_garbage_dump_is_rejected() {
        let mut ring = FlightRing::new(1, 8);
        ring.push(FlightRecord::Crash { t: 5, chunk: 1 });
        let buf = ring.encode();
        assert!(decode_dump(&buf[..buf.len() - 1]).is_none());
        let mut bad = buf.clone();
        bad[2 + 8 + 4] = 0xFF; // clobber the first record tag
        assert!(decode_dump(&bad).is_none());
        // Tag 7 (a retired record kind) is unknown too.
        bad[2 + 8 + 4] = 7;
        assert!(decode_dump(&bad).is_none());
    }

    #[test]
    fn timeline_mentions_every_step() {
        let mut ring = FlightRing::new(2, 16);
        for rec in sample_records() {
            ring.push(rec);
        }
        let text = render_timeline(&decode_dump(&ring.encode()).unwrap());
        for needle in [
            "inject",
            "frame-sent",
            "frame-recv",
            "checkpoint",
            "CRASH",
            "recovery",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }
}

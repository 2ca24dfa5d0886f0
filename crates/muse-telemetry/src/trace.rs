//! Structured trace records for match-lineage reconstruction.
//!
//! Every significant lifecycle step of an event/partial match gets one
//! [`TraceRecord`] in a bounded [`TraceRing`]: injection at a source task,
//! a successful merge inside a join, a message shipped between nodes, and a
//! final emission at a sink. Exported as JSONL, the ring lets a match at a
//! sink be traced back through every node that contributed to it.

use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// One step in a match's lineage. `t` is always in the run's clock domain
/// (virtual ticks in the simulator, wall nanoseconds in the threaded
/// executor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceRecord {
    /// A primitive event entered the system at a source task.
    EventInjected {
        /// Injection timestamp.
        t: u64,
        /// Node the event originated at.
        node: usize,
        /// Source task that accepted it.
        task: usize,
        /// Event type id.
        event_type: u32,
        /// Global sequence number of the event (the lineage key: sink
        /// matches list their constituent events by this id).
        seq: u64,
    },
    /// Two partial matches merged successfully inside a join task.
    MatchMerged {
        /// Merge timestamp.
        t: u64,
        /// Node hosting the join.
        node: usize,
        /// Join task index.
        task: usize,
        /// Number of primitive events in the merged match.
        size: usize,
        /// Event-time span (`last - first`) of the merged match.
        span: u64,
    },
    /// A partial match crossed the network between two nodes.
    MessageShipped {
        /// Ship timestamp.
        t: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Sending task index (one record per remote target node; the
        /// executors ship a match to a node once and multiplex it).
        task: usize,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A complete match was emitted at a sink task.
    SinkMatch {
        /// Emission timestamp.
        t: u64,
        /// Sink node.
        node: usize,
        /// Sink task index.
        task: usize,
        /// Number of primitive events in the match.
        size: usize,
        /// Timestamp of the newest constituent event.
        last_time: u64,
    },
}

impl TraceRecord {
    /// The record's timestamp, whatever its kind.
    pub fn t(&self) -> u64 {
        match self {
            TraceRecord::EventInjected { t, .. }
            | TraceRecord::MatchMerged { t, .. }
            | TraceRecord::MessageShipped { t, .. }
            | TraceRecord::SinkMatch { t, .. } => *t,
        }
    }
}

/// Bounded ring of trace records (oldest evicted first; capacity 0
/// disables tracing entirely).
pub type TraceRing = Ring<TraceRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_roundtrip_as_jsonl() {
        let mut ring = TraceRing::new(8);
        ring.push(TraceRecord::MessageShipped {
            t: 5,
            from: 0,
            to: 1,
            task: 3,
            bytes: 24,
        });
        ring.push(TraceRecord::SinkMatch {
            t: 9,
            node: 1,
            task: 3,
            size: 3,
            last_time: 9,
        });
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let back: Vec<TraceRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].t(), 9);
        assert!(matches!(
            back[0],
            TraceRecord::MessageShipped { bytes: 24, .. }
        ));
    }
}

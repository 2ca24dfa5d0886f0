//! Structured trace records: match lineage and the threaded driver's steps.
//!
//! Every significant lifecycle step of an event/partial match gets one
//! [`TraceRecord`] in a bounded [`TraceRing`]: injection at a source task,
//! a successful merge inside a join, a message shipped between nodes, and a
//! final emission at a sink. Exported as JSONL, the ring lets a match at a
//! sink be traced back through every node that contributed to it.
//!
//! The threaded executor adds its own steps to the same ring: transport
//! frames sent and received, chunk-boundary checkpoints, and the crash and
//! recovery of fault injection. Sorted by `t`, they are the crash timeline
//! of a run — every node's rollback and the chunk's re-run included.

use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// One step in a match's lineage or in the threaded driver's run. `t` is
/// always in the run's clock domain (virtual ticks in the simulator, wall
/// nanoseconds in the threaded executor).
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
        /// Sending task index (one record per destination node the task is
        /// charged for; §4.4 charges a match to a node once).
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
    /// A transport frame was handed to a peer's inbox (threaded executor).
    FrameSent {
        /// Send timestamp.
        t: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Messages in the frame.
        msgs: usize,
    },
    /// A transport frame was taken from a node's inbox (threaded executor).
    FrameReceived {
        /// Receive timestamp.
        t: u64,
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Messages in the frame.
        msgs: usize,
    },
    /// A node saved its chunk-start shard (threaded executor, checkpoint or
    /// fault mode).
    Checkpoint {
        /// Save timestamp.
        t: u64,
        /// Node whose shard was saved.
        node: usize,
        /// Encoded shard size.
        bytes: u64,
    },
    /// Fault injection crashed a node (threaded executor).
    Crash {
        /// Crash timestamp.
        t: u64,
        /// The crashed node.
        node: usize,
        /// Index of the chunk the crash interrupted.
        chunk: u64,
    },
    /// A node began rolling back to its chunk-start shard after a crash;
    /// every node does, not only the crashed one.
    RecoveryStarted {
        /// Rollback start timestamp.
        t: u64,
        /// The node rolling back.
        node: usize,
    },
    /// A node finished its rollback and re-runs the chunk from `cursor`.
    Recovered {
        /// Rollback end timestamp.
        t: u64,
        /// The node that rolled back.
        node: usize,
        /// Restored position in the node's local events.
        cursor: u64,
    },
}

impl TraceRecord {
    /// The record's timestamp, whatever its kind.
    pub fn t(&self) -> u64 {
        match self {
            TraceRecord::EventInjected { t, .. }
            | TraceRecord::MatchMerged { t, .. }
            | TraceRecord::MessageShipped { t, .. }
            | TraceRecord::SinkMatch { t, .. }
            | TraceRecord::FrameSent { t, .. }
            | TraceRecord::FrameReceived { t, .. }
            | TraceRecord::Checkpoint { t, .. }
            | TraceRecord::Crash { t, .. }
            | TraceRecord::RecoveryStarted { t, .. }
            | TraceRecord::Recovered { t, .. } => *t,
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
        let crash = TraceRecord::Crash {
            t: 12,
            node: 2,
            chunk: 4,
        };
        ring.push(crash.clone());
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let back: Vec<TraceRecord> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].t(), 9);
        assert_eq!(back[2], crash);
        assert!(matches!(
            back[0],
            TraceRecord::MessageShipped { bytes: 24, .. }
        ));
    }
}

//! Causal provenance records: the exact witness set behind a sink match.
//!
//! A [`ProvenanceRecord`] is a *self-contained witness* for one sink
//! match: the primitive events that constitute it (lineage keys are the
//! events' global sequence numbers, which the runtime already propagates
//! structurally through partial matches, transport frames, and
//! checkpoints) plus, for NSEQ queries, the absence windows in which no
//! event of the negated type may occur. Replaying only the witness events
//! — and checking the absence windows against the full trace — must
//! reproduce exactly the recorded match; the runtime's test suites assert
//! this closure property.
//!
//! Records are collected in a bounded [`ProvenanceRing`] (the shared
//! [`Ring`] container), and sampled deterministically by match hash
//! ([`sampled`]) so independent executors (and shards of one run) sample
//! identical match sets.

use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// One constituent primitive event of a recorded match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessEvent {
    /// Primitive slot the event is bound to within the query.
    pub prim: u8,
    /// Global sequence number — the lineage key identifying the source
    /// event across tasks, nodes, and checkpoint/restore.
    pub seq: u64,
    /// Node the event originated at.
    pub origin: u16,
    /// Event type id.
    pub ty: u16,
    /// Event timestamp in virtual ticks.
    pub t: u64,
}

/// One absence constraint of an NSEQ match: no event of `ty` (passing the
/// query's linking predicates) occurred strictly inside `(lo, hi)` in
/// trace order. `lo`/`hi` are the timestamps of the bounding witness
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbsenceWindow {
    /// Negated event type id.
    pub ty: u16,
    /// Timestamp of the witness event opening the window.
    pub lo: u64,
    /// Timestamp of the witness event closing the window.
    pub hi: u64,
}

/// A sink match explained back to its contributing source events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Emission timestamp in the run's clock domain.
    pub t: u64,
    /// Sink node.
    pub node: usize,
    /// Sink task index.
    pub task: usize,
    /// Logical query the match was attributed to.
    pub query: u32,
    /// Order-independent hash of the witness sequence numbers — the
    /// record's identity (shared with the executors' transmission
    /// multiplexing, so sim and threaded runs sample identical sets).
    pub match_hash: u64,
    /// The constituent events, in primitive-slot order.
    pub witness: Vec<WitnessEvent>,
    /// NSEQ absence windows (empty for negation-free queries).
    pub absence: Vec<AbsenceWindow>,
}

impl ProvenanceRecord {
    /// The witness sequence numbers, in primitive-slot order (the match
    /// fingerprint the parity suites compare).
    pub fn witness_seqs(&self) -> Vec<u64> {
        self.witness.iter().map(|w| w.seq).collect()
    }
}

/// Whether a match with the given hash is in the deterministic sample.
/// `sample` is the sampling divisor: 0 disables tracing entirely, 1
/// records every sink match, `n` records 1-in-`n` on average.
#[inline]
pub fn sampled(sample: u64, match_hash: u64) -> bool {
    sample != 0 && match_hash.is_multiple_of(sample)
}

/// Bounded ring of provenance records (oldest evicted first; capacity 0
/// disables collection).
pub type ProvenanceRing = Ring<ProvenanceRecord>;

impl Ring<ProvenanceRecord> {
    /// The newest record for `match_hash`, if any is held.
    pub fn find(&self, match_hash: u64) -> Option<&ProvenanceRecord> {
        self.records().rev().find(|r| r.match_hash == match_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, hash: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            t,
            node: 0,
            task: 3,
            query: 0,
            match_hash: hash,
            witness: vec![WitnessEvent {
                prim: 0,
                seq: t,
                origin: 0,
                ty: 1,
                t,
            }],
            absence: vec![],
        }
    }

    #[test]
    fn sampling_is_deterministic_and_gated() {
        assert!(!sampled(0, 42), "0 disables");
        assert!(sampled(1, 42), "1 records everything");
        assert!(sampled(64, 128));
        assert!(!sampled(64, 129));
    }

    #[test]
    fn ring_bounds_drops_and_finds() {
        let mut ring = ProvenanceRing::new(2);
        for t in 0..4 {
            ring.push(rec(t, 100 + t));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        assert!(ring.find(100).is_none(), "evicted");
        assert_eq!(ring.find(103).unwrap().t, 3);
        // Capacity 0 rejects everything.
        let mut off = ProvenanceRing::new(0);
        off.push(rec(0, 1));
        assert!(off.is_empty());
        assert_eq!(off.dropped(), 1);
    }

    #[test]
    fn records_roundtrip_as_jsonl() {
        let mut ring = ProvenanceRing::new(8);
        let mut r = rec(7, 9);
        r.absence.push(AbsenceWindow {
            ty: 2,
            lo: 3,
            hi: 7,
        });
        ring.push(r.clone());
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let back: ProvenanceRecord = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.witness_seqs(), vec![7]);
    }
}

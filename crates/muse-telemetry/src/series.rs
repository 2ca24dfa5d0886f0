//! Labeled per-task time series.
//!
//! Each sample is one [`SeriesRecord`] — a fixed set of instantaneous
//! gauges (queue depth, live partial matches, watermark lag) plus
//! per-interval deltas (inputs, probes, evictions, emitted) for one task at
//! one sample instant. Samples accumulate in a bounded [`SeriesBuffer`]
//! (oldest dropped first, drop count kept) and export as JSONL, one record
//! per line.

use crate::ring::Ring;
use serde::{Deserialize, Serialize};

/// What the series timestamps mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClockDomain {
    /// `t` is the simulator's virtual clock (event-time ticks).
    VirtualTicks,
    /// `t` is wall-clock nanoseconds since run start.
    WallNanos,
}

/// One sample of one task's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesRecord {
    /// Sample timestamp, in the buffer's [`ClockDomain`].
    pub t: u64,
    /// Task index within the deployment.
    pub task: usize,
    /// Node hosting the task.
    pub node: usize,
    /// Human-readable task label (e.g. `"J2@N1 SEQ(A,B)"`).
    pub label: String,
    /// Deliveries the task consumed since the previous sample. Each one
    /// is a join input, so in both executors this equals `inputs`.
    pub queue_depth: u64,
    /// Live (buffered) partial matches in the task's join stores.
    pub live_matches: u64,
    /// Global clock minus the newest timestamp this task has seen.
    pub watermark_lag: u64,
    /// Partial matches received since the previous sample.
    pub inputs: u64,
    /// Store probes since the previous sample.
    pub probes: u64,
    /// Window evictions since the previous sample.
    pub evictions: u64,
    /// Matches emitted since the previous sample.
    pub emitted: u64,
}

/// Bounded FIFO of series samples (capacity 0 disables collection).
pub type SeriesBuffer = Ring<SeriesRecord>;

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, task: usize) -> SeriesRecord {
        SeriesRecord {
            t,
            task,
            node: 0,
            label: format!("T{task}"),
            queue_depth: t % 7,
            live_matches: t % 5,
            watermark_lag: 0,
            inputs: 1,
            probes: 2,
            evictions: 0,
            emitted: 1,
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let mut buf = SeriesBuffer::new(8);
        buf.push(rec(10, 1));
        buf.push(rec(20, 2));
        let mut out = Vec::new();
        buf.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: SeriesRecord = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(back, rec(20, 2));
    }
}

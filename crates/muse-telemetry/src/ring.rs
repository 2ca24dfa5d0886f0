//! The one bounded record container behind every telemetry buffer.
//!
//! Series samples, trace records (match lineage and the threaded driver's
//! steps) and provenance records are all kept the same way: a FIFO with a
//! capacity, evicting the oldest record when full and counting what it
//! lost. [`Ring`] is that container; the record modules name their
//! instantiation (`SeriesBuffer`, `TraceRing`, `ProvenanceRing`). The
//! threaded executor keeps one ring of each kind per node and
//! [`Ring::merge`]s them when the threads join.

use serde::Serialize;
use std::collections::VecDeque;

/// Bounded FIFO of records (oldest evicted first). Capacity 0 disables
/// collection: every push is rejected and counted in [`Ring::dropped`].
#[derive(Debug, Clone)]
pub struct Ring<T> {
    records: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// True when the ring records at all (capacity > 0). Hot paths check
    /// this before constructing a record: the capacity-0 reject inside
    /// [`Self::push`] still pays for building it, which is measurable at
    /// per-event call rates.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Appends a record, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, rec: T) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(rec);
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.records.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted (or rejected) due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Merges per-shard rings into this one, in order of `key` (a stable
    /// sort: equal keys keep this ring's records first, then each shard's
    /// in turn). The newest `capacity` records by `key` stay, whichever
    /// ring held them; the others count as dropped, next to every ring's
    /// own losses.
    pub fn merge<K: Ord>(
        &mut self,
        shards: impl IntoIterator<Item = Ring<T>>,
        key: impl FnMut(&T) -> K,
    ) {
        let mut all = Vec::from(std::mem::take(&mut self.records));
        for shard in shards {
            self.dropped += shard.dropped;
            all.extend(shard.records);
        }
        all.sort_by_key(key);
        let excess = all.len().saturating_sub(self.capacity);
        self.dropped += excess as u64;
        self.records = all.into_iter().skip(excess).collect();
    }
}

impl<T: Serialize> Ring<T> {
    /// Serializes every held record as JSONL into `out`.
    pub fn write_jsonl<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        for rec in &self.records {
            let line = serde_json::to_string(rec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_drops_oldest() {
        let mut ring = Ring::new(3);
        for t in 0..5u64 {
            ring.push(t);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.records().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_counts_every_push_as_dropped() {
        let mut off = Ring::new(0);
        assert!(!off.is_enabled());
        off.push(1u64);
        assert!(off.is_empty());
        assert_eq!(off.dropped(), 1);
        assert!(!Ring::<u64>::default().is_enabled());
    }

    #[test]
    fn merged_shards_read_in_time_order_and_add_drops() {
        let mut a = Ring::new(8);
        a.push((10u64, 'a'));
        let mut b = Ring::new(2);
        for t in [2u64, 4, 10] {
            b.push((t, 'b'));
        }
        a.merge([b], |r| r.0);
        let got: Vec<_> = a.records().copied().collect();
        assert_eq!(got, vec![(4, 'b'), (10, 'a'), (10, 'b')]);
        assert_eq!(a.dropped(), 1);
    }

    /// The shard merged first holds the newest records: they stay, and the
    /// older records of the shard merged last are the ones dropped.
    #[test]
    fn merge_keeps_the_newest_records_of_any_shard() {
        let mut newer = Ring::new(4);
        for t in 10..14u64 {
            newer.push(t);
        }
        let mut older = Ring::new(4);
        for t in 0..4u64 {
            older.push(t);
        }
        let mut merged = Ring::new(4);
        merged.merge([newer, older], |&t| t);
        assert_eq!(
            merged.records().copied().collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
        assert_eq!(merged.dropped(), 4);
    }

    #[test]
    fn jsonl_is_one_record_per_line() {
        let mut ring = Ring::new(8);
        ring.push(10u64);
        ring.push(20u64);
        let mut out = Vec::new();
        ring.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "10\n20\n");
    }
}

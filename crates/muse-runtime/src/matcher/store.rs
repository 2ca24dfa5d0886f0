//! Sorted, window-pruned storage for (partial) matches — the index behind
//! the join engine's slot and forbidden-match buffers.
//!
//! Entries are kept sorted by their earliest constituent timestamp so a
//! probe can binary-search the window-compatible slice instead of scanning
//! the whole buffer. Eviction is split in two:
//!
//! * a *logical horizon* (watermark) that only ever advances and is applied
//!   on every read — readers never observe an entry a retain-per-arrival
//!   strategy would already have dropped, and
//! * a *physical drain* that truncates the dead prefix, but only once the
//!   horizon has advanced by at least a configurable stride, amortizing the
//!   O(n) memmove over many arrivals.
//!
//! Because the horizon is monotone, the set of live entries is always a
//! suffix of the sorted vector; "evict" is a prefix truncation, never a
//! scattered retain.
//!
//! An entry also caches an optional *equality key*: the [`Value::eq_key`]
//! of the one attribute the owning join slot is keyed on (see the join
//! module's "Probe strategy"). The store only carries it — the join decides
//! the key term and compares. `None` means "unknown": the slot is unkeyed,
//! the attribute is missing or `NaN`, or the entry came through the public
//! [`MatchStore::insert`] (forbidden-match stores, unit tests); an unknown
//! key never excludes an entry from a probe. Like the spans, keys are
//! derived from the match and so are not part of [`StoreState`]: a snapshot
//! cannot desynchronize them, and restore recomputes both.
//!
//! [`Value::eq_key`]: muse_core::event::Value::eq_key

use super::Match;
use muse_core::event::Timestamp;

/// A buffered match with its cached time span and equality key (so probes
/// never re-scan the match's events for timestamps or attribute values).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMatch {
    /// Earliest constituent timestamp — the sort key.
    pub first: Timestamp,
    /// Latest constituent timestamp.
    pub last: Timestamp,
    /// Equality key of the owning slot's key term; `None` when unknown.
    pub key: Option<u64>,
    /// The match itself.
    pub m: Match,
}

/// The checkpointable dynamic state of a [`MatchStore`]: the buffered
/// matches in physical entry order (live and not-yet-drained dead alike)
/// plus the eviction bookkeeping. The cached `first`/`last` spans and the
/// equality keys are *not* part of the state — they are recomputed from
/// each match on restore, so a snapshot can never desynchronize them.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// Buffered matches in entry order (sorted by first timestamp, ties in
    /// insertion order).
    pub matches: Vec<Match>,
    /// Logical eviction watermark.
    pub horizon: Timestamp,
    /// Horizon value at the last physical drain.
    pub drained_at: Timestamp,
    /// Dead entries physically dropped so far.
    pub evicted: u64,
}

/// An indexed buffer of matches ordered by [`Match::first_time`], with
/// watermark-based eviction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchStore {
    /// Sorted by `first` (ties keep insertion order).
    entries: Vec<StoredMatch>,
    /// Logical eviction watermark: entries with `first < horizon` are dead.
    horizon: Timestamp,
    /// Horizon value at the last physical drain.
    drained_at: Timestamp,
    /// Dead entries physically dropped so far.
    evicted: u64,
}

impl MatchStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a match, keeping the buffer sorted by first timestamp.
    /// Entries with equal first timestamps keep their insertion order. The
    /// entry's equality key is unknown.
    pub fn insert(&mut self, m: Match) {
        let (first, last) = (m.first_time(), m.last_time());
        self.insert_keyed(StoredMatch {
            first,
            last,
            key: None,
            m,
        });
    }

    /// [`MatchStore::insert`] for a caller that already knows the match's
    /// span and equality key.
    pub(super) fn insert_keyed(&mut self, entry: StoredMatch) {
        let idx = self.entries.partition_point(|e| e.first <= entry.first);
        self.entries.insert(idx, entry);
    }

    /// Index of the first live entry.
    fn live_start(&self) -> usize {
        self.entries.partition_point(|e| e.first < self.horizon)
    }

    /// The live (non-evicted) entries, oldest first.
    pub fn live(&self) -> &[StoredMatch] {
        &self.entries[self.live_start()..]
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.live_start()
    }

    /// `true` when no live entry remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physically buffered entries (live + not-yet-drained dead).
    pub fn physical_len(&self) -> usize {
        self.entries.len()
    }

    /// The live entries that could merge with a probe spanning
    /// `[first, last]` into a match within `window`: exactly those whose
    /// first timestamp lies in `[max(horizon, last − window), first + window]`.
    /// Anything outside would force the merged span beyond the window, so
    /// skipping it cannot change the join's output.
    pub fn compatible(
        &self,
        first: Timestamp,
        last: Timestamp,
        window: Timestamp,
    ) -> &[StoredMatch] {
        let lo = self.horizon.max(last.saturating_sub(window));
        let hi = first.saturating_add(window);
        let start = self.entries.partition_point(|e| e.first < lo);
        let end = self.entries.partition_point(|e| e.first <= hi);
        &self.entries[start..end.max(start)]
    }

    /// Advances the logical horizon (monotone; smaller values are ignored)
    /// and physically truncates the dead prefix once the horizon has moved
    /// at least `stride` past the last drain. Returns the number of entries
    /// dropped by this call.
    pub fn advance_horizon(&mut self, horizon: Timestamp, stride: Timestamp) -> u64 {
        if horizon > self.horizon {
            self.horizon = horizon;
        }
        if self.horizon < self.drained_at.saturating_add(stride.max(1)) {
            return 0;
        }
        let dead = self.live_start();
        if dead > 0 {
            self.entries.drain(..dead);
            self.evicted += dead as u64;
        }
        self.drained_at = self.horizon;
        dead as u64
    }

    /// Current logical horizon.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// Entries physically dropped over the store's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Captures the store's dynamic state for a checkpoint.
    pub fn save_state(&self) -> StoreState {
        StoreState {
            matches: self.entries.iter().map(|e| e.m.clone()).collect(),
            horizon: self.horizon,
            drained_at: self.drained_at,
            evicted: self.evicted,
        }
    }

    /// Rebuilds a store from a saved state. The matches must be in the
    /// order [`MatchStore::save_state`] exported them (already sorted by
    /// first timestamp with insertion-order ties), so no re-sort happens
    /// and tie order — which determines probe order — survives the
    /// round trip exactly. Equality keys are unknown.
    pub fn restore_state(state: StoreState) -> Self {
        Self::restore_keyed(state, |_| None)
    }

    /// [`MatchStore::restore_state`] with every entry's equality key
    /// recomputed by `key`.
    pub(super) fn restore_keyed(state: StoreState, key: impl Fn(&Match) -> Option<u64>) -> Self {
        Self {
            entries: state
                .matches
                .into_iter()
                .map(|m| StoredMatch {
                    first: m.first_time(),
                    last: m.last_time(),
                    key: key(&m),
                    m,
                })
                .collect(),
            horizon: state.horizon,
            drained_at: state.drained_at,
            evicted: state.evicted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::Event;
    use muse_core::types::{EventTypeId, NodeId, PrimId};

    fn m(seq: u64, time: Timestamp) -> Match {
        Match::single(PrimId(0), Event::new(seq, EventTypeId(0), time, NodeId(0)))
    }

    fn firsts(s: &[StoredMatch]) -> Vec<Timestamp> {
        s.iter().map(|e| e.first).collect()
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = MatchStore::new();
        for (seq, t) in [(0, 30), (1, 10), (2, 20), (3, 10)] {
            s.insert(m(seq, t));
        }
        assert_eq!(firsts(s.live()), vec![10, 10, 20, 30]);
        // Equal keys keep insertion order.
        assert_eq!(s.live()[0].m.fingerprint(), vec![1]);
        assert_eq!(s.live()[1].m.fingerprint(), vec![3]);
    }

    #[test]
    fn compatible_slices_by_window() {
        let mut s = MatchStore::new();
        for (seq, t) in [(0, 0), (1, 50), (2, 100), (3, 150), (4, 200)] {
            s.insert(m(seq, t));
        }
        // Probe [100, 100] with window 60: firsts in [40, 160].
        assert_eq!(firsts(s.compatible(100, 100, 60)), vec![50, 100, 150]);
        // Horizon cuts the lower end further.
        s.advance_horizon(120, 1_000_000);
        assert_eq!(firsts(s.compatible(100, 100, 60)), vec![150]);
    }

    #[test]
    fn horizon_is_logical_until_stride_elapses() {
        let mut s = MatchStore::new();
        for (seq, t) in [(0, 0), (1, 10), (2, 90)] {
            s.insert(m(seq, t));
        }
        // Large stride: no physical drain yet, but reads hide the dead.
        assert_eq!(s.advance_horizon(50, 1_000), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.physical_len(), 3);
        assert_eq!(firsts(s.live()), vec![90]);
        assert!(s.compatible(95, 95, 100).iter().all(|e| e.first >= 50));
        // Once the horizon moves ≥ stride past the last drain, it truncates.
        assert_eq!(s.advance_horizon(1_060, 1_000), 3);
        assert_eq!(s.physical_len(), 0);
        assert_eq!(s.evicted(), 3);
    }

    #[test]
    fn horizon_never_regresses() {
        let mut s = MatchStore::new();
        s.insert(m(0, 100));
        s.advance_horizon(150, 1);
        assert_eq!(s.len(), 0);
        // A smaller watermark (out-of-order input) must not resurrect.
        s.advance_horizon(50, 1);
        assert_eq!(s.horizon(), 150);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn save_restore_roundtrip_preserves_everything() {
        let mut s = MatchStore::new();
        for (seq, t) in [(5, 1), (0, 30), (1, 10), (2, 20), (3, 10), (4, 90)] {
            s.insert(m(seq, t));
        }
        // Leave the store mid-lifecycle: one physical drain on record
        // (t=1 dropped), then a logical-only advance that hides the t=10
        // entries without draining them.
        s.advance_horizon(5, 1);
        s.advance_horizon(12, 1_000);
        assert_eq!(s.evicted(), 1);
        assert_eq!(s.physical_len(), 5);
        let restored = MatchStore::restore_state(s.save_state());
        assert_eq!(restored, s);
        // Insertion-order ties survive (seq 1 before seq 3 at t=10), and
        // the hidden-but-buffered dead prefix is included.
        let all: Vec<u64> = restored
            .entries
            .iter()
            .map(|e| e.m.fingerprint()[0])
            .collect();
        assert_eq!(all, vec![1, 3, 2, 0, 4]);
    }
}

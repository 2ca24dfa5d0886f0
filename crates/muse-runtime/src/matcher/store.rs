//! Sorted, window-pruned storage for (partial) matches — the index behind
//! the join engine's slot and forbidden-match buffers.
//!
//! Entries are kept sorted by their earliest constituent timestamp so a
//! probe can binary-search the window-compatible range instead of scanning
//! the whole buffer. Under a time window the state worth keeping is a
//! sliding window, and the store keeps it as one:
//!
//! * an arrival whose first timestamp is at least the newest entry's is
//!   appended at the tail; only an out-of-order arrival binary-searches
//!   for its place;
//! * a *logical horizon* (watermark) that only ever advances hides every
//!   entry below it from reads — readers never observe an entry a
//!   retain-per-arrival strategy would already have dropped. The index of
//!   the first live entry is kept as a field and moves forward with the
//!   horizon, so each entry crosses it once and counting the live entries
//!   searches nothing;
//! * a *physical drain* drops the dead prefix, but only once the horizon
//!   has advanced by at least a configurable stride. The entries sit in a
//!   ring buffer, so the drain pops the prefix without moving the live
//!   suffix.
//!
//! Because the horizon is monotone, the set of live entries is always a
//! suffix of the sorted buffer; "evict" is a prefix drop, never a
//! scattered retain.
//!
//! An entry also caches an optional *equality key*: the [`Value::eq_key`]
//! of the one attribute the owning join slot is keyed on (see the join
//! module's "Probe strategy"). The store only carries it — the join decides
//! the key term and compares. `None` means "unknown": the slot is unkeyed,
//! the attribute is missing or `NaN`, or the entry came through
//! `MatchStore::insert` (forbidden-match stores, unit tests); an unknown
//! key never excludes an entry from a probe. Like the spans, keys are
//! derived from the match and so are not part of [`StoreState`]: a snapshot
//! cannot desynchronize them, and restore recomputes both.
//!
//! [`Value::eq_key`]: muse_core::event::Value::eq_key

use super::{Carried, Match};
use muse_core::event::Timestamp;
use std::collections::vec_deque::{Iter, VecDeque};

/// A buffered match with its cached time span and equality key (so probes
/// never re-scan the match's events for timestamps or attribute values).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredMatch {
    /// Earliest constituent timestamp — the sort key.
    pub first: Timestamp,
    /// Latest constituent timestamp.
    pub last: Timestamp,
    /// Equality key of the owning slot's key term; `None` when unknown.
    pub key: Option<u64>,
    /// The match itself: a single event inline, a larger match shared.
    pub m: Carried,
}

impl StoredMatch {
    /// An entry for `m` under equality key `key`, its span read off `m`.
    pub fn new(m: Carried, key: Option<u64>) -> Self {
        Self {
            first: m.first_time(),
            last: m.last_time(),
            key,
            m,
        }
    }
}

/// The checkpointable dynamic state of a `MatchStore`: the buffered
/// matches in physical entry order (live and not-yet-drained dead alike)
/// plus the eviction watermarks. The eviction count is a counter, not
/// state: a restored store counts from zero. The cached `first`/`last` spans and the
/// equality keys are *not* part of the state — they are recomputed from
/// each match on restore, so a snapshot can never desynchronize them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreState {
    /// Buffered matches in entry order (sorted by first timestamp, ties in
    /// insertion order).
    pub matches: Vec<Match>,
    /// Logical eviction watermark.
    pub horizon: Timestamp,
    /// Horizon value at the last physical drain.
    pub drained_at: Timestamp,
}

/// An indexed buffer of matches ordered by [`Match::first_time`], with
/// watermark-based eviction.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MatchStore {
    /// Sorted by `first` (ties keep insertion order).
    entries: VecDeque<StoredMatch>,
    /// Index of the first live entry: exactly the entries before it have
    /// `first < horizon`.
    live_start: usize,
    /// Logical eviction watermark: entries with `first < horizon` are dead.
    horizon: Timestamp,
    /// Horizon value at the last physical drain.
    drained_at: Timestamp,
    /// Dead entries physically dropped since the store was built or
    /// restored.
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
        self.insert_keyed(StoredMatch::new(m.into(), None));
    }

    /// [`MatchStore::insert`] for a caller that already knows the match's
    /// span and equality key. An in-order arrival is appended; an entry
    /// below the horizon lands in the dead prefix, which grows by one.
    pub(crate) fn insert_keyed(&mut self, entry: StoredMatch) {
        if entry.first < self.horizon {
            self.live_start += 1;
        }
        match self.entries.back() {
            Some(newest) if entry.first < newest.first => {
                let at = self.entries.partition_point(|e| e.first <= entry.first);
                self.entries.insert(at, entry);
            }
            _ => self.entries.push_back(entry),
        }
    }

    /// The live (non-evicted) entries, oldest first.
    pub fn live(&self) -> Iter<'_, StoredMatch> {
        self.entries.range(self.live_start..)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len() - self.live_start
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
    ) -> Iter<'_, StoredMatch> {
        self.compatible_above(self.horizon, first, last, window)
    }

    /// [`MatchStore::compatible`] for a reader whose own horizon is `floor`:
    /// a join reading a buffer the node shares among several joins sees it
    /// through its own watermark, which is never below the buffer's. Only
    /// the live entries are searched, and the upper end not at all when
    /// the newest entry lies within it.
    pub(crate) fn compatible_above(
        &self,
        floor: Timestamp,
        first: Timestamp,
        last: Timestamp,
        window: Timestamp,
    ) -> Iter<'_, StoredMatch> {
        let lo = floor.max(last.saturating_sub(window));
        let hi = first.saturating_add(window);
        let start = if lo <= self.horizon {
            self.live_start
        } else {
            self.partition_from(self.live_start, |e| e.first < lo)
        };
        let end = match self.entries.back() {
            Some(newest) if newest.first > hi => self.partition_from(start, |e| e.first <= hi),
            _ => self.entries.len(),
        };
        self.entries.range(start..end)
    }

    /// The index of the first entry at or after `from` that is not
    /// `below`, for a `below` that holds on a prefix of those entries.
    fn partition_from(&self, from: usize, below: impl Fn(&StoredMatch) -> bool) -> usize {
        let (front, back) = self.entries.as_slices();
        if from >= front.len() {
            return from + back[from - front.len()..].partition_point(below);
        }
        if back.first().is_some_and(&below) {
            front.len() + back.partition_point(below)
        } else {
            from + front[from..].partition_point(below)
        }
    }

    /// Advances the logical horizon (monotone; smaller values are ignored)
    /// and physically drops the dead prefix once the horizon has moved at
    /// least `stride` past the last drain. Returns the number of entries
    /// dropped by this call.
    pub fn advance_horizon(&mut self, horizon: Timestamp, stride: Timestamp) -> u64 {
        if horizon > self.horizon {
            self.horizon = horizon;
            while self
                .entries
                .get(self.live_start)
                .is_some_and(|e| e.first < horizon)
            {
                self.live_start += 1;
            }
        }
        if self.horizon < self.drained_at.saturating_add(stride.max(1)) {
            return 0;
        }
        // Popping one by one costs less than a `drain` of the few dead
        // entries a stride leaves, and nothing at all when there are none.
        let dead = std::mem::take(&mut self.live_start);
        for _ in 0..dead {
            self.entries.pop_front();
        }
        self.evicted += dead as u64;
        self.drained_at = self.horizon;
        dead as u64
    }

    /// Current logical horizon.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// First timestamp of the newest entry (the largest first timestamp
    /// buffered; 0 when empty). A horizon at least one window behind it
    /// never drains that entry, so the value survives every drain.
    pub(crate) fn latest_first(&self) -> Timestamp {
        self.entries.back().map_or(0, |e| e.first)
    }

    /// Entries physically dropped since the store was built or restored.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Captures the store's dynamic state for a checkpoint.
    pub fn save_state(&self) -> StoreState {
        StoreState {
            matches: self.entries.iter().map(|e| e.m.clone().into()).collect(),
            horizon: self.horizon,
            drained_at: self.drained_at,
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
    pub(crate) fn restore_keyed(state: StoreState, key: impl Fn(&Match) -> Option<u64>) -> Self {
        let entries: VecDeque<StoredMatch> = state
            .matches
            .into_iter()
            .map(|m| {
                let key = key(&m);
                StoredMatch::new(m.into(), key)
            })
            .collect();
        Self {
            live_start: entries.partition_point(|e| e.first < state.horizon),
            entries,
            horizon: state.horizon,
            drained_at: state.drained_at,
            evicted: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::event::Event;
    use muse_core::types::{EventTypeId, NodeId, PrimId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn m(seq: u64, time: Timestamp) -> Match {
        Match::single(PrimId(0), Event::new(seq, EventTypeId(0), time, NodeId(0)))
    }

    fn firsts<'a>(s: impl IntoIterator<Item = &'a StoredMatch>) -> Vec<Timestamp> {
        s.into_iter().map(|e| e.first).collect()
    }

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = MatchStore::new();
        for (seq, t) in [(0, 30), (1, 10), (2, 20), (3, 10)] {
            s.insert(m(seq, t));
        }
        assert_eq!(firsts(s.live()), vec![10, 10, 20, 30]);
        // Equal keys keep insertion order.
        let live: Vec<_> = s.live().map(|e| e.m.entries()[0].1.seq).collect();
        assert_eq!(live[..2], [1, 3]);
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
        assert!(s.compatible(95, 95, 100).all(|e| e.first >= 50));
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
        let mut restored = MatchStore::restore_state(s.save_state());
        // The eviction count is a counter, not state: it restarts.
        assert_eq!(restored.evicted(), 0);
        restored.evicted = s.evicted;
        assert_eq!(restored, s);
        // Insertion-order ties survive (seq 1 before seq 3 at t=10), and
        // the hidden-but-buffered dead prefix is included.
        let all: Vec<u64> = restored
            .entries
            .iter()
            .map(|e| e.m.entries()[0].1.seq)
            .collect();
        assert_eq!(all, vec![1, 3, 2, 0, 4]);
    }

    /// The store before it became a sliding window: a sorted `Vec` that
    /// binary-searches every insert and every live-count, and shifts the
    /// live suffix on every drain. [`MatchStore`] must agree with it on
    /// every read and every state.
    #[derive(Debug, Default)]
    struct VecStore {
        entries: Vec<StoredMatch>,
        horizon: Timestamp,
        drained_at: Timestamp,
        evicted: u64,
    }

    impl VecStore {
        fn insert_keyed(&mut self, entry: StoredMatch) {
            let idx = self.entries.partition_point(|e| e.first <= entry.first);
            self.entries.insert(idx, entry);
        }

        fn live_start(&self) -> usize {
            self.entries.partition_point(|e| e.first < self.horizon)
        }

        fn live(&self) -> &[StoredMatch] {
            &self.entries[self.live_start()..]
        }

        fn compatible_above(
            &self,
            floor: Timestamp,
            first: Timestamp,
            last: Timestamp,
            window: Timestamp,
        ) -> &[StoredMatch] {
            let lo = floor.max(self.horizon).max(last.saturating_sub(window));
            let hi = first.saturating_add(window);
            let start = self.entries.partition_point(|e| e.first < lo);
            let end = self.entries.partition_point(|e| e.first <= hi);
            &self.entries[start..end.max(start)]
        }

        fn advance_horizon(&mut self, horizon: Timestamp, stride: Timestamp) -> u64 {
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

        fn save_state(&self) -> StoreState {
            StoreState {
                matches: self.entries.iter().map(|e| e.m.clone().into()).collect(),
                horizon: self.horizon,
                drained_at: self.drained_at,
            }
        }
    }

    /// One step of a store's life; times are relative to a clock that only
    /// inserts move forward.
    enum Op {
        /// Moves the clock `step` on and inserts a match spanning
        /// `[clock − back, clock − back + span]`: in order when `back` is 0
        /// (a tie when `step` is 0 too), out of order otherwise, and below
        /// the horizon when `back` reaches past it.
        Insert { step: u64, back: u64, span: u64 },
        /// Advances the horizon to `clock − lag` (a regression when that
        /// is below the current horizon) with drain stride `stride`.
        Advance { lag: u64, stride: u64 },
        /// Reads the entries compatible with a probe spanning
        /// `[clock − back, clock − back + span]`, at the store's horizon
        /// and above a reader's floor `clock − floor_lag`.
        Read {
            back: u64,
            span: u64,
            window: u64,
            floor_lag: u64,
        },
        /// Saves the state and restores a store from it.
        RoundTrip,
    }

    /// A random step: mostly inserts (three in four in order), then
    /// horizon moves and reads at a quarter each, and round trips.
    fn op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..9) {
            0..=3 => Op::Insert {
                step: rng.gen_range(0..4),
                back: if rng.gen_bool(0.75) {
                    0
                } else {
                    rng.gen_range(0..40)
                },
                span: rng.gen_range(0..6),
            },
            4 | 5 => Op::Advance {
                lag: rng.gen_range(0..60),
                stride: rng.gen_range(1..30),
            },
            6 | 7 => Op::Read {
                back: rng.gen_range(0..50),
                span: rng.gen_range(0..6),
                window: rng.gen_range(0..40),
                floor_lag: rng.gen_range(0..60),
            },
            _ => Op::RoundTrip,
        }
    }

    /// A match of two events spanning `[first, last]`; its sequence number
    /// also gives its key (unknown for every fourth).
    fn spanning(seq: u64, first: Timestamp, last: Timestamp) -> Match {
        let ev = |time| Event::new(seq, EventTypeId(0), time, NodeId(0));
        Match::new(vec![(PrimId(0), ev(first)), (PrimId(1), ev(last))])
    }

    fn key_of(m: &Match) -> Option<u64> {
        let seq = m.entries()[0].1.seq;
        (!seq.is_multiple_of(4)).then_some(seq % 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn sliding_window_store_equals_vec_store(seed in any::<u64>(), steps in 1u64..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut store, mut reference) = (MatchStore::new(), VecStore::default());
            let mut clock: Timestamp = 0;
            for seq in 0..steps {
                match op(&mut rng) {
                    Op::Insert { step, back, span } => {
                        clock += step;
                        let first = clock.saturating_sub(back);
                        let m = spanning(seq, first, first + span);
                        let entry = StoredMatch { first, last: first + span, key: key_of(&m), m: m.into() };
                        store.insert_keyed(entry.clone());
                        reference.insert_keyed(entry);
                    }
                    Op::Advance { lag, stride } => {
                        let horizon = clock.saturating_sub(lag);
                        prop_assert_eq!(
                            store.advance_horizon(horizon, stride),
                            reference.advance_horizon(horizon, stride)
                        );
                    }
                    Op::Read { back, span, window, floor_lag } => {
                        let first = clock.saturating_sub(back);
                        let floor = clock.saturating_sub(floor_lag);
                        let got: Vec<_> = store.compatible(first, first + span, window).collect();
                        let want = reference.compatible_above(0, first, first + span, window);
                        prop_assert_eq!(got, want.iter().collect::<Vec<_>>());
                        let got: Vec<_> =
                            store.compatible_above(floor, first, first + span, window).collect();
                        let want = reference.compatible_above(floor, first, first + span, window);
                        prop_assert_eq!(got, want.iter().collect::<Vec<_>>());
                    }
                    Op::RoundTrip => {
                        store = MatchStore::restore_keyed(store.save_state(), key_of);
                        // A restored store counts its evictions from zero.
                        reference.evicted = 0;
                    }
                }
                prop_assert_eq!(store.live().collect::<Vec<_>>(), reference.live().iter().collect::<Vec<_>>());
                prop_assert_eq!(store.len(), reference.live().len());
                prop_assert_eq!(store.physical_len(), reference.entries.len());
                prop_assert_eq!(store.latest_first(), reference.entries.last().map_or(0, |e| e.first));
                prop_assert_eq!(store.evicted(), reference.evicted);
                prop_assert_eq!(store.horizon(), reference.horizon);
                prop_assert_eq!(store.save_state(), reference.save_state());
            }
        }
    }
}

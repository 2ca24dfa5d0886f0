//! Events and payloads (§2.1 of the paper).
//!
//! An event is an instantiation of an event type with a unique identifier, an
//! occurrence timestamp, an origin node, and a payload of attribute values.
//! The *global trace* of an event-sourced network is the interleaving of all
//! local traces, totally ordered; ties on the timestamp are resolved
//! deterministically by the event's unique sequence number, exactly as the
//! paper's conceptual global trace requires.

use crate::types::{AttrId, EventTypeId, NodeId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical time, in abstract time units (the paper's `e.time ∈ ℕ`).
pub type Timestamp = u64;

/// A payload attribute value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Signed integer value (ids, counters).
    Int(i64),
    /// Floating-point value (measurements).
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// Compares two values of the same variant; mixed variants are unordered
    /// except Int/Float which compare numerically.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// A hashable image of the value under [`Value::partial_cmp_value`]
    /// equality: two values that compare `Some(Equal)` both have a key and
    /// the keys are equal. `NaN` (equal to nothing) has none.
    ///
    /// Only that direction holds. Unequal values may share a key — integers
    /// beyond 2⁵³ that round to one `f64`, a string whose hash meets a
    /// number's bits — so a key match is a hint to compare, never a verdict;
    /// a key mismatch is proof of inequality.
    pub fn eq_key(&self) -> Option<u64> {
        // `Int`/`Float` compare through the integer's `f64` image, so that
        // image is the key; `+ 0.0` folds `-0.0` into `0.0`, which compare
        // equal but differ in bits.
        let num = |f: f64| (!f.is_nan()).then(|| (f + 0.0).to_bits());
        match self {
            Value::Int(i) => num(*i as f64),
            Value::Float(f) => num(*f),
            Value::Str(s) => {
                let mut h = DefaultHasher::new();
                s.hash(&mut h);
                Some(h.finish())
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// An event payload: a sparse list of `(attribute, value)` pairs, sorted by
/// attribute id.
///
/// Payloads are tiny (the cluster-trace events carry two ids), so a sorted
/// vector beats a hash map in both space and lookup time. The pair list is
/// reference-counted: cloning an event — which the executors do once per
/// route on the send path — bumps a refcount instead of copying attribute
/// values, and mutation after sharing falls back to copy-on-write.
#[derive(Debug, Clone, Default)]
pub struct Payload(Option<Arc<Vec<(AttrId, Value)>>>);

impl Payload {
    /// Creates an empty payload (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a payload from `(attribute, value)` pairs.
    pub fn from_pairs(mut pairs: Vec<(AttrId, Value)>) -> Self {
        if pairs.is_empty() {
            return Self(None);
        }
        pairs.sort_by_key(|(a, _)| *a);
        Self(Some(Arc::new(pairs)))
    }

    fn pairs(&self) -> &[(AttrId, Value)] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Sets an attribute value, replacing any previous value (copying the
    /// pair list first if it is shared with another event).
    pub fn set(&mut self, attr: AttrId, value: Value) {
        let pairs = Arc::make_mut(self.0.get_or_insert_with(Default::default));
        match pairs.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => pairs[i].1 = value,
            Err(i) => pairs.insert(i, (attr, value)),
        }
    }

    /// Returns the value of an attribute, if present.
    pub fn get(&self, attr: AttrId) -> Option<&Value> {
        self.pairs()
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| &self.pairs()[i].1)
    }

    /// Number of attributes in the payload.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// Returns `true` if the payload carries no attribute.
    pub fn is_empty(&self) -> bool {
        self.pairs().is_empty()
    }

    /// Iterates over `(attribute, value)` pairs in attribute order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.pairs().iter().map(|(a, v)| (*a, v))
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Serialize for Payload {
    fn to_value(&self) -> serde::Value {
        self.pairs().to_value()
    }
}

impl Deserialize for Payload {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Vec::<(AttrId, Value)>::from_value(v).map(Payload::from_pairs)
    }
}

/// An event: an instantiation of an event type (§2.1).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Globally unique sequence number; doubles as the event's position in
    /// the conceptual global trace (ties on `time` are broken by `seq`).
    pub seq: u64,
    /// The event's type (`e.type`).
    pub ty: EventTypeId,
    /// Occurrence timestamp (`e.time`).
    pub time: Timestamp,
    /// The node that generated the event (`e.origin`).
    pub origin: NodeId,
    /// Attribute values.
    pub payload: Payload,
}

impl Event {
    /// Creates an event without payload.
    pub fn new(seq: u64, ty: EventTypeId, time: Timestamp, origin: NodeId) -> Self {
        Self {
            seq,
            ty,
            time,
            origin,
            payload: Payload::new(),
        }
    }

    /// Creates an event with payload.
    pub fn with_payload(
        seq: u64,
        ty: EventTypeId,
        time: Timestamp,
        origin: NodeId,
        payload: Payload,
    ) -> Self {
        Self {
            seq,
            ty,
            time,
            origin,
            payload,
        }
    }

    /// Total order of events in the global trace: by timestamp, ties broken
    /// deterministically by sequence number.
    #[inline]
    pub fn trace_cmp(&self, other: &Event) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }

    /// The event's position key in the global trace (the paper's `#_t`).
    #[inline]
    pub fn trace_pos(&self) -> (Timestamp, u64) {
        (self.time, self.seq)
    }
}

impl fmt::Debug for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Event#{}({:?}@t{} from {:?})",
            self.seq, self.ty, self.time, self.origin
        )
    }
}

/// Sorts a vector of events into global-trace order.
pub fn sort_into_trace_order(events: &mut [Event]) {
    events.sort_by(Event::trace_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, time: Timestamp) -> Event {
        Event::new(seq, EventTypeId(0), time, NodeId(0))
    }

    #[test]
    fn trace_order_by_time_then_seq() {
        let a = ev(2, 5);
        let b = ev(1, 5);
        let c = ev(0, 7);
        assert_eq!(a.trace_cmp(&b), Ordering::Greater); // same time, higher seq
        assert_eq!(b.trace_cmp(&c), Ordering::Less);
        let mut v = vec![c.clone(), a.clone(), b.clone()];
        sort_into_trace_order(&mut v);
        assert_eq!(v, vec![b, a, c]);
    }

    #[test]
    fn payload_set_get() {
        let mut p = Payload::new();
        assert!(p.is_empty());
        p.set(AttrId(3), Value::Int(7));
        p.set(AttrId(1), Value::Str("x".into()));
        p.set(AttrId(3), Value::Int(9)); // overwrite
        assert_eq!(p.get(AttrId(3)), Some(&Value::Int(9)));
        assert_eq!(p.get(AttrId(1)), Some(&Value::Str("x".into())));
        assert_eq!(p.get(AttrId(0)), None);
        assert_eq!(p.len(), 2);
        // Iteration is in attribute order.
        let attrs: Vec<_> = p.iter().map(|(a, _)| a).collect();
        assert_eq!(attrs, vec![AttrId(1), AttrId(3)]);
    }

    #[test]
    fn payload_from_pairs_sorts() {
        let p = Payload::from_pairs(vec![(AttrId(5), Value::Int(1)), (AttrId(2), Value::Int(2))]);
        assert_eq!(p.get(AttrId(5)), Some(&Value::Int(1)));
        assert_eq!(p.get(AttrId(2)), Some(&Value::Int(2)));
    }

    #[test]
    fn value_comparisons() {
        assert_eq!(
            Value::Int(3).partial_cmp_value(&Value::Int(4)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(3).partial_cmp_value(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Str("a".into()).partial_cmp_value(&Value::Int(1)),
            None
        );
    }

    #[test]
    fn eq_key_agrees_with_value_equality() {
        let pool = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(1.5),
            Value::Int(-1),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Float(9007199254740992.0),
            Value::Int(i64::MIN),
            Value::Float(i64::MIN as f64),
            Value::Int(i64::MAX),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Str("a".into()),
            Value::Str("".into()),
            Value::Str("0".into()),
        ];
        let mut equal_pairs = 0;
        for a in &pool {
            for b in &pool {
                if a.partial_cmp_value(b) == Some(Ordering::Equal) {
                    equal_pairs += 1;
                    assert!(a.eq_key().is_some(), "{a:?} equals {b:?} but has no key");
                    assert_eq!(a.eq_key(), b.eq_key(), "{a:?} equals {b:?}");
                }
            }
        }
        // Every non-NaN value equals itself, plus the cross-variant pairs
        // (0 / 0.0 / -0.0, 1 / 1.0, both 2^53 ints / the float, i64::MIN).
        assert!(equal_pairs > pool.len());
        assert_eq!(Value::Float(f64::NAN).eq_key(), None);
        // Collisions between unequal values are allowed, mismatches are not
        // required — but plainly different small values should not collide.
        assert_ne!(Value::Int(0).eq_key(), Value::Int(1).eq_key());
        assert_ne!(
            Value::Str("a".into()).eq_key(),
            Value::Str("".into()).eq_key()
        );
    }

    #[test]
    fn value_from_conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}

//! Order-independent hashes: of a generated trace (to pin the load) and
//! of a query's match set (to compare executors without sorting millions
//! of fingerprints).

use crate::workloads::Instance;
use muse_core::event::{Event, Value};
use muse_core::types::EventTypeId;
use muse_runtime::matcher::Match;

/// splitmix64's finalizer: a cheap bijective mixer.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of a sequence; order within the sequence matters.
fn seq_hash(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x9e37_79b9_7f4a_7c15, |h, w| mix(h ^ mix(w)))
}

/// A multiset digest: element count plus the wrapping sum of element
/// hashes. Adding elements in any order gives the same digest, and a
/// duplicate changes it (which an xor-fold would miss).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetDigest {
    pub count: u64,
    pub sum: u64,
}

impl SetDigest {
    pub fn add(&mut self, element_hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(element_hash);
    }
}

/// Hash of one match: its fingerprint (sequence numbers in primitive order).
pub fn match_hash(m: &Match) -> u64 {
    seq_hash(m.fingerprint())
}

/// Digest of the match set of each query.
pub fn match_digests(matches: &[Vec<Match>]) -> Vec<SetDigest> {
    matches
        .iter()
        .map(|q| {
            let mut d = SetDigest::default();
            for m in q {
                d.add(match_hash(m));
            }
            d
        })
        .collect()
}

fn event_hash(e: &Event) -> u64 {
    let head = [e.seq, u64::from(e.ty.0), e.time, u64::from(e.origin.0)];
    let payload = e.payload.iter().flat_map(|(attr, v)| {
        let bits = match v {
            Value::Int(i) => *i as u64,
            Value::Float(f) => f.to_bits(),
            Value::Str(s) => seq_hash(s.bytes().map(u64::from)),
        };
        [u64::from(attr.0), bits]
    });
    seq_hash(head.into_iter().chain(payload))
}

/// Digest of a trace: every field and payload attribute of every event,
/// independent of the order the generator emitted them in.
pub fn trace_digest(events: &[Event]) -> SetDigest {
    let mut d = SetDigest::default();
    for e in events {
        d.add(event_hash(e));
    }
    d
}

/// Digest of planning instances: every query's signature and window and
/// every type's rate and producers.
pub fn instances_digest(instances: &[Instance]) -> SetDigest {
    let mut d = SetDigest::default();
    for (network, workload) in instances {
        let queries = workload.queries().iter().flat_map(|q| {
            q.signature()
                .into_bytes()
                .into_iter()
                .map(u64::from)
                .chain([q.window()])
        });
        let types = (0..network.num_types() as u16).flat_map(|t| {
            let ty = EventTypeId(t);
            [network.rate(ty).to_bits(), network.num_producers(ty) as u64]
        });
        d.add(seq_hash(queries.chain(types)));
    }
    d
}

/// How many matches of `reference` are missing from `got`, and how many
/// of `got` are not in `reference`, by exact multiset difference of
/// fingerprints. Only called when the digests differ.
pub fn match_set_difference(reference: &[Match], got: &[Match]) -> (u64, u64) {
    let sorted = |ms: &[Match]| {
        let mut v: Vec<Vec<u64>> = ms.iter().map(Match::fingerprint).collect();
        v.sort_unstable();
        v
    };
    let (r, g) = (sorted(reference), sorted(got));
    let (mut i, mut j, mut missing, mut extra) = (0, 0, 0, 0);
    while i < r.len() && j < g.len() {
        match r[i].cmp(&g[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                extra += 1;
                j += 1;
            }
        }
    }
    (missing + (r.len() - i) as u64, extra + (g.len() - j) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muse_core::types::{NodeId, PrimId};

    fn m(seqs: &[u64]) -> Match {
        Match::new(
            seqs.iter()
                .enumerate()
                .map(|(p, &s)| (PrimId(p as u8), Event::new(s, EventTypeId(0), s, NodeId(0))))
                .collect(),
        )
    }

    #[test]
    fn digest_is_commutative_and_sees_duplicates_and_order_within_a_match() {
        let a = vec![m(&[1, 2]), m(&[3, 4]), m(&[5, 6])];
        let b = vec![m(&[5, 6]), m(&[1, 2]), m(&[3, 4])];
        assert_eq!(match_digests(std::slice::from_ref(&a)), match_digests(&[b]));
        // A duplicate changes the digest; an xor-fold of two equal hashes would cancel.
        let dup = vec![m(&[1, 2]), m(&[3, 4]), m(&[5, 6]), m(&[5, 6])];
        assert_ne!(match_digests(&[a]), match_digests(&[dup]));
        // Which primitive holds which event is part of the match.
        assert_ne!(match_hash(&m(&[1, 2])), match_hash(&m(&[2, 1])));
        // Per query: moving a match to another query is a difference.
        let split = [vec![m(&[1, 2])], vec![m(&[3, 4])]];
        let swapped = [vec![m(&[3, 4])], vec![m(&[1, 2])]];
        assert_ne!(match_digests(&split), match_digests(&swapped));
    }

    #[test]
    fn set_difference_counts_missing_and_extra() {
        let reference = vec![m(&[1, 2]), m(&[3, 4]), m(&[5, 6])];
        let got = vec![m(&[5, 6]), m(&[7, 8]), m(&[1, 2]), m(&[1, 2])];
        assert_eq!(match_set_difference(&reference, &got), (1, 2));
        assert_eq!(match_set_difference(&reference, &reference), (0, 0));
    }

    #[test]
    fn trace_digest_ignores_order_but_not_payload() {
        let mut e1 = Event::new(1, EventTypeId(0), 10, NodeId(0));
        let e2 = Event::new(2, EventTypeId(1), 11, NodeId(1));
        let d = trace_digest(&[e1.clone(), e2.clone()]);
        assert_eq!(d, trace_digest(&[e2.clone(), e1.clone()]));
        e1.payload.set(muse_core::types::AttrId(0), Value::Int(7));
        assert_ne!(d, trace_digest(&[e1, e2]));
    }
}

//! Hostile input to the SASE query parser: whatever the text, `parse_query`
//! returns `Ok` or `Err` and never panics.
//!
//! Three input families, each drawn from one `u64` seed:
//!
//! * token soups over the grammar's own vocabulary — keywords, type names,
//!   aliases, attribute references, operators, units, and numbers at and
//!   beyond the integer and float limits;
//! * arbitrary bytes, decoded lossily as UTF-8 and, separately, mapped onto
//!   printable ASCII;
//! * one-point splices of valid `SEQ`, `AND` and `NSEQ` queries: a valid
//!   prefix, an optional hostile fragment, then the tail of a valid query
//!   cut at any position.

use muse_core::catalog::Catalog;
use muse_core::query::parser::{parse_query, ParserOptions};
use muse_core::types::QueryId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const TYPES: [&str; 4] = ["A", "B", "C", "D"];

/// Keywords, types, aliases, attribute references, operators, units,
/// numbers at and past the `i64`/`f64` limits, and quotes.
#[rustfmt::skip]
const VOCABULARY: &[&str] = &[
    "PATTERN", "pattern", "SEQ", "AND", "OR", "NSEQ", "WHERE", "WITHIN",
    "A", "B", "C", "D", "Unknown", "a", "b", "c", "d", "a.x", "b.y", "c.x", "a.", ".x",
    "(", ")", ",", ".", "=", "==", "!=", "!", "<", "<=", ">", ">=", "{", "}",
    "{0.5}", "{-1}", "{1e400}", "ms", "s", "sec", "min", "h",
    "0", "1", "-1", "30", "0.5", "-0.0", "1.5.2", "--1", "-", "1e309", "NaN", "inf",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "18446744073709551615", "99999999999999999999999",
    "'x'", "\"y\"", "'", "\"", "_", " ",
];

const VALID: [&str; 4] = [
    "PATTERN SEQ(A a, B b, C c) WHERE a.x = b.x AND b.y < 5 {0.2} WITHIN 30s",
    "PATTERN AND(A a, SEQ(B b, D d)) WHERE a.x != d.x WITHIN 1000",
    "PATTERN NSEQ(A a, B b, C c) WHERE a.k = c.k WITHIN 2min",
    "PATTERN SEQ(NSEQ(A a, C c, B b), D d) WHERE b.v >= 'hi' WITHIN 500ms",
];

/// Parses `text` against a fresh catalog with the given options, returning
/// the panic message if the parser panicked.
fn parse_panics(text: &str, auto_register_types: bool) -> Option<String> {
    let mut catalog = Catalog::new();
    for ty in TYPES {
        catalog.add_event_type(ty).unwrap();
    }
    let options = ParserOptions {
        auto_register_types,
        ..ParserOptions::default()
    };
    catch_unwind(AssertUnwindSafe(|| {
        let _ = parse_query(text, QueryId(0), &mut catalog, &options);
    }))
    .err()
    .map(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

/// Up to `max_tokens` vocabulary tokens, most often after the `PATTERN`
/// keyword and a pattern operator so the soup gets past the first token.
fn soup(rng: &mut StdRng, max_tokens: usize) -> String {
    let n = rng.gen_range(0..=max_tokens);
    let mut text =
        String::from(["", "PATTERN ", "PATTERN SEQ(", "PATTERN NSEQ("][rng.gen_range(0..4usize)]);
    for _ in 0..n {
        text.push_str(VOCABULARY[rng.gen_range(0..VOCABULARY.len())]);
        if rng.gen_bool(0.7) {
            text.push(' ');
        }
    }
    text
}

fn bytes(rng: &mut StdRng) -> Vec<u8> {
    let n = rng.gen_range(0..96);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn token_soup_never_panics(seed in any::<u64>(), auto in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = soup(&mut rng, 24);
        let panic = parse_panics(&text, auto);
        prop_assert!(panic.is_none(), "{text:?} panicked: {}", panic.unwrap());
    }

    #[test]
    fn arbitrary_bytes_never_panic(seed in any::<u64>(), auto in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = bytes(&mut rng);
        let lossy = String::from_utf8_lossy(&raw).into_owned();
        let printable: String = raw.iter().map(|b| char::from(b' ' + b % 95)).collect();
        for text in [lossy, printable] {
            let panic = parse_panics(&text, auto);
            prop_assert!(panic.is_none(), "{text:?} panicked: {}", panic.unwrap());
        }
    }

    #[test]
    fn spliced_queries_never_panic(seed in any::<u64>(), auto in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let head = VALID[rng.gen_range(0..VALID.len())];
        let tail = VALID[rng.gen_range(0..VALID.len())];
        // Every query above is ASCII, so every byte offset is a char boundary.
        let cut = rng.gen_range(0..=head.len());
        let resume = rng.gen_range(0..=tail.len());
        let middle = match rng.gen_range(0..3) {
            0 => String::new(),
            1 => soup(&mut rng, 3).replacen("PATTERN", "", 1),
            _ => {
                let raw = bytes(&mut rng);
                let k = rng.gen_range(0..4usize).min(raw.len());
                String::from_utf8_lossy(&raw[..k]).into_owned()
            }
        };
        let text = format!("{}{middle}{}", &head[..cut], &tail[resume..]);
        let panic = parse_panics(&text, auto);
        prop_assert!(panic.is_none(), "{text:?} panicked: {}", panic.unwrap());
    }
}

/// The valid queries the splices start from parse, so a splice that keeps
/// all of one is a valid query.
#[test]
fn splice_bases_are_valid() {
    for text in VALID {
        let mut catalog = Catalog::new();
        for ty in TYPES {
            catalog.add_event_type(ty).unwrap();
        }
        parse_query(text, QueryId(0), &mut catalog, &ParserOptions::default())
            .unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

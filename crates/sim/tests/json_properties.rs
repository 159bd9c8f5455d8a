//! Proptest fuzz coverage for the JSON layer and the two document
//! shapes read through it, [`Record`] (JSONL lines) and
//! [`BenchSnapshot`] (`BENCH_*.json`).
//!
//! Two directions: (1) *round-trip* — any generated [`Value`], record
//! or snapshot serializes to text that parses back to an equal one, and
//! the serialized form is a fixed point of parse ∘ serialize; (2)
//! *robustness* — arbitrary, truncated and mutated inputs may fail to
//! parse but must never panic (the parsers are the trust boundary for
//! every spec, trace, record and snapshot file the tooling reads back).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcp_sim::bench::{BenchRow, BenchSnapshot};
use wcp_sim::json::Value;
use wcp_sim::record::Record;

/// Characters exercising every escape path of the writer and reader.
const STRING_POOL: &[char] = &[
    'a', 'Z', '0', ' ', 'λ', '∞', '"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}', '\u{1}',
    '\u{7f}', '貓',
];

fn arb_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0usize..8))
        .map(|_| STRING_POOL[rng.gen_range(0..STRING_POOL.len())])
        .collect()
}

fn arb_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..5) {
        0 => rng.gen_range(-1000i64..1000) as f64,
        // Integral magnitudes near the 2^53 exactness boundary.
        1 => (rng.gen_range(0u64..9_007_199_254_740_992) / 3) as f64,
        2 => -((rng.gen_range(0u64..9_007_199_254_740_992) / 7) as f64),
        3 => rng.gen_range(-1e9..1e9),
        _ => rng.gen_range(-1.0..1.0) / 1e6,
    }
}

/// A random [`Value`] tree, container arity and depth bounded.
fn arb_value(rng: &mut StdRng, depth: usize) -> Value {
    let top = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0u32..top) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Num(arb_number(rng)),
        3 => Value::Str(arb_string(rng)),
        4 => Value::Array(
            (0..rng.gen_range(0usize..5))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0usize..5))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_members(rng: &mut StdRng, depth: usize) -> Vec<(String, Value)> {
    (0..rng.gen_range(0usize..4))
        .map(|_| (arb_string(rng), arb_value(rng, depth)))
        .collect()
}

fn maybe<T>(rng: &mut StdRng, make: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.gen_bool(0.5).then(|| make(rng))
}

/// A random [`Record`]: every optional field present or absent, payloads
/// arbitrary values.
fn arb_record(rng: &mut StdRng) -> Record {
    Record {
        experiment: arb_string(rng),
        strategy: maybe(rng, arb_string),
        spec: maybe(rng, arb_string),
        adversary: maybe(rng, arb_string),
        extras: arb_members(rng, 2),
        topology: maybe(rng, |rng| arb_value(rng, 2)),
        report: maybe(rng, |rng| arb_value(rng, 3)),
        certificate: maybe(rng, |rng| arb_value(rng, 3)),
        error: maybe(rng, arb_string),
    }
}

/// A random [`BenchSnapshot`] that satisfies the parser's rules: at
/// least one row, unique names, finite positive medians.
fn arb_snapshot(rng: &mut StdRng) -> BenchSnapshot {
    BenchSnapshot {
        shape: arb_members(rng, 2),
        rows: (0..rng.gen_range(1usize..5))
            .map(|i| BenchRow {
                name: format!("{}#{i}", arb_string(rng)),
                median_ns: rng.gen_range(1e-3..1e12),
                answers: arb_members(rng, 2),
                metrics: (0..rng.gen_range(0usize..4))
                    .map(|_| (arb_string(rng), Value::Num(arb_number(rng))))
                    .collect(),
            })
            .collect(),
    }
}

/// Every parser under test, as a must-not-panic probe.
fn parse_all(text: &str) {
    let _ = Value::parse(text);
    let _ = Record::parse(text);
    let _ = BenchSnapshot::parse(text);
}

/// A valid document of any of the three kinds.
fn arb_document(rng: &mut StdRng) -> String {
    match rng.gen_range(0u32..3) {
        0 => arb_value(rng, 3).to_json(),
        1 => arb_record(rng).to_json(),
        _ => arb_snapshot(rng).to_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A record's line parses back field for field, and re-renders to
    /// the same line.
    #[test]
    fn record_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let record = arb_record(&mut rng);
        let line = record.to_json();
        let parsed = Record::parse(&line)
            .unwrap_or_else(|e| panic!("own record rejected: {e}\n{line}"));
        prop_assert_eq!(&parsed, &record);
        prop_assert_eq!(parsed.to_json(), line);
    }

    /// A snapshot's document parses back row for row, and re-renders to
    /// the same bytes.
    #[test]
    fn snapshot_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let snapshot = arb_snapshot(&mut rng);
        let text = snapshot.to_json();
        let parsed = BenchSnapshot::parse(&text)
            .unwrap_or_else(|e| panic!("own snapshot rejected: {e}\n{text}"));
        prop_assert_eq!(&parsed, &snapshot);
        prop_assert_eq!(parsed.to_json(), text);
    }

    /// Truncated and byte-mutated records and snapshots never panic
    /// their parsers.
    #[test]
    fn damaged_records_and_snapshots_never_panic(
        seed in any::<u64>(),
        cut in 0.0f64..1.0,
        pos in 0.0f64..1.0,
        replacement in any::<u8>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_document(&mut rng);
        let boundary = (text.len() as f64 * cut) as usize;
        let boundary = (0..=boundary).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        parse_all(&text[..boundary]);
        let mut bytes = text.into_bytes();
        if !bytes.is_empty() {
            let i = ((bytes.len() - 1) as f64 * pos) as usize;
            bytes[i] = replacement;
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            parse_all(&mutated);
        }
    }

    /// serialize → parse is the identity, and the canonical form is a
    /// fixed point of parse → serialize.
    #[test]
    fn value_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = arb_value(&mut rng, 4);
        let text = value.to_json();
        let parsed = Value::parse(&text)
            .unwrap_or_else(|e| panic!("own output rejected: {e}\n{text}"));
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(parsed.to_json(), text);
    }

    /// Truncating a valid document anywhere never panics the parser
    /// (and, except at full length, never yields a sneaky success of the
    /// same value with trailing garbage).
    #[test]
    fn truncated_documents_error_without_panicking(
        seed in any::<u64>(),
        cut in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_value(&mut rng, 3).to_json();
        let boundary = (text.len() as f64 * cut) as usize;
        let boundary = (0..=boundary).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        let _ = Value::parse(&text[..boundary]); // must return, not panic
    }

    /// Flipping one character of a valid document to arbitrary ASCII
    /// never panics the parser.
    #[test]
    fn mutated_documents_never_panic(
        seed in any::<u64>(),
        pos in 0.0f64..1.0,
        replacement in 0u8..127,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = arb_value(&mut rng, 3).to_json();
        let mut chars: Vec<char> = text.chars().collect();
        if !chars.is_empty() {
            let i = ((chars.len() - 1) as f64 * pos) as usize;
            chars[i] = char::from(replacement);
        }
        let mutated: String = chars.into_iter().collect();
        let _ = Value::parse(&mutated); // must return, not panic
    }

    /// Arbitrary ASCII soup never panics the parser.
    #[test]
    fn random_input_never_panics(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Bias toward JSON punctuation so the soup reaches deep parser paths.
        const POOL: &[u8] = b"{}[]\",:.-+eE0123456789 \t\n\\utrlfans\"";
        let soup: String = (0..len)
            .map(|_| char::from(POOL[rng.gen_range(0..POOL.len())]))
            .collect();
        let _ = Value::parse(&soup); // must return, not panic
    }
}

/// Deterministic regression cases the fuzzers once had to find.
#[test]
fn malformed_corpus_errors_cleanly() {
    for text in [
        "",
        "{",
        "}",
        "[",
        "[1,",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\": 1,}",
        "\"unterminated",
        "\"\\",
        "\"\\u12\"",
        "\"\\ud800\"", // lone surrogate code point
        "\"\\q\"",
        "01x",
        "-",
        "1e",
        "truely",
        "nul",
        "12 34",
        "\u{7f}",
        &"[".repeat(100_000), // must not overflow the stack
        &format!("{}1{}", "[".repeat(600), "]".repeat(600)),
    ] {
        assert!(
            Value::parse(text).is_err(),
            "expected parse error for {text:?}"
        );
    }
}

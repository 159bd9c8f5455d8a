//! Bench-snapshot schema rule: every committed `BENCH_*.json` must be
//! a [`BenchSnapshot`], so a malformed baseline can never silently
//! disable the 25% CI gates.
//!
//! The rule reads each snapshot with [`BenchSnapshot::parse`], the
//! parser the `bench_regression` gate uses, and reports its error: the
//! lint and the gate refuse the same documents. That covers malformed
//! JSON, members outside the one shape, empty rows, duplicate row names
//! (which would skew the per-family means), missing, non-finite or
//! non-positive medians and non-numeric metrics. Bars on particular
//! metrics (peak RSS, lookup rate) are pinned by the committed-snapshot
//! tests in `wcp_bench::regression`.

use crate::{Diagnostic, RuleId};
use std::path::Path;
use wcp_sim::bench::BenchSnapshot;

/// Validates one snapshot document. `file` is only used for labels.
#[must_use]
pub fn validate(file: &str, text: &str) -> Vec<Diagnostic> {
    match BenchSnapshot::parse(text) {
        Ok(_) => Vec::new(),
        Err(message) => vec![diagnostic(file, message)],
    }
}

fn diagnostic(file: &str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line: 1,
        rule: RuleId::BenchSchema,
        message,
    }
}

/// Validates every `BENCH_*.json` committed under `crates/bench/`.
///
/// # Errors
///
/// I/O failures listing the bench directory (unreadable snapshots are
/// diagnostics, not errors).
pub fn check(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let dir = root.join("crates/bench");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut snapshots: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    snapshots.sort();
    if snapshots.is_empty() {
        return Ok(vec![diagnostic(
            "crates/bench",
            "no committed BENCH_*.json snapshots found; the CI regression gates have no baselines"
                .to_string(),
        )]);
    }
    let mut diags = Vec::new();
    for p in snapshots {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&p) {
            Ok(text) => diags.extend(validate(&rel, &text)),
            Err(e) => diags.push(diagnostic(&rel, format!("unreadable snapshot: {e}"))),
        }
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_one_shape_validates() {
        let snapshot = concat!(
            "{\"shape\": {\"n\": 71}, \"rows\": [",
            "{\"name\": \"packed_ladder\", \"median_ns\": 99.5, ",
            "\"answers\": {\"failed\": 34}, \"metrics\": {\"peak_rss_bytes\": 9}}",
            "]}"
        );
        assert_eq!(validate("a.json", snapshot), vec![]);
    }

    #[test]
    fn malformed_documents_fire_with_the_parser_message() {
        for (text, needle) in [
            ("nope", "JSON parse error"),
            ("{}", "\"shape\""),
            ("{\"shape\": {}, \"rows\": []}", "empty"),
            (
                "{\"series\": [{\"name\": \"x\", \"median_ns\": 1}]}",
                "unknown member",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 1}, \
                 {\"name\": \"x\", \"median_ns\": 2}]}",
                "duplicate",
            ),
        ] {
            let diags = validate("x.json", text);
            assert_eq!(diags.len(), 1, "{text}");
            assert_eq!(diags[0].rule, RuleId::BenchSchema);
            assert!(diags[0].message.contains(needle), "{text} => {diags:?}");
        }
    }

    #[test]
    fn committed_snapshots_are_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = check(&root).expect("bench dir readable");
        assert_eq!(diags, vec![]);
    }
}

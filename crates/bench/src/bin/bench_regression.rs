//! `bench_regression` — the CI gate over benchmark snapshots.
//!
//! Compares a fresh `BENCH_*.json` snapshot against its committed
//! baseline — both in the one [`BenchSnapshot`] shape — and exits
//! non-zero when any family's mean time regressed beyond the threshold
//! (default 25%), when a family vanished from the fresh snapshot, or
//! when a row in both snapshots changed one of its deterministic
//! `answers`:
//!
//! ```text
//! BENCH_OUT_DIR=fresh cargo bench -p wcp-bench --bench adversary
//! bench_regression crates/bench/BENCH_adversary.json crates/bench/fresh/BENCH_adversary.json --threshold 25
//! ```
//!
//! A baseline path that does not exist as written is re-anchored at
//! this crate's manifest directory (and the workspace root), where the
//! committed baselines live, so the gate finds them from any working
//! directory. The current snapshot gets no such help: it must exist
//! exactly where it was written, because fresh snapshots carry their
//! baseline's file name and re-anchoring one would gate the baseline
//! against itself. For the same reason a baseline and a current that
//! resolve to the same file are an error. A vacuous gate must not pass.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wcp_bench::regression::{answer_mismatches, compare, FamilyDelta};
use wcp_sim::bench::BenchSnapshot;

/// A nanosecond figure with at least four significant digits: whole
/// nanoseconds from 1 µs up, decimals below, so the sub-10 ns lookup
/// rows print the values the gate compared (`2.175`, not `2`).
fn fmt_ns(ns: f64) -> String {
    if ns == 0.0 || !ns.is_finite() || ns.abs() >= 1000.0 {
        return format!("{ns:.0}");
    }
    let whole_digits = ns.abs().log10().floor() as i32 + 1;
    let decimals = (4 - whole_digits).clamp(0, 9) as usize;
    format!("{ns:.decimals$}")
}

/// One table row of the gate: family, both means, the relative change
/// and the verdict at `threshold` (a fraction).
fn delta_row(d: &FamilyDelta, threshold: f64) -> String {
    let (current, change) = match (d.current_ns, d.change) {
        (Some(c), Some(ch)) => (fmt_ns(c), format!("{:+.1}%", ch * 100.0)),
        _ => ("missing".to_string(), "—".to_string()),
    };
    format!(
        "{:<12} {:>14} {:>14} {:>9}  {}",
        d.family,
        fmt_ns(d.baseline_ns),
        current,
        change,
        if d.regressed(threshold) { "FAIL" } else { "ok" }
    )
}

/// Resolves the baseline argument to an existing file: the path as
/// written, else (for relative paths) re-anchored at the bench crate's
/// manifest directory, the workspace root, or — as a last resort — the
/// bare file name inside the manifest directory.
fn resolve_baseline(path: &str) -> Result<PathBuf, String> {
    let direct = Path::new(path);
    if direct.exists() {
        return Ok(direct.to_path_buf());
    }
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut candidates = Vec::new();
    if direct.is_relative() {
        candidates.push(manifest.join(direct));
        candidates.push(manifest.join("..").join("..").join(direct));
        if let Some(name) = direct.file_name() {
            candidates.push(manifest.join(name));
        }
    }
    for cand in &candidates {
        if cand.exists() {
            println!("note: resolved '{path}' to {}", cand.display());
            return Ok(cand.clone());
        }
    }
    let tried: Vec<String> = std::iter::once(direct.display().to_string())
        .chain(candidates.iter().map(|c| c.display().to_string()))
        .collect();
    Err(format!(
        "snapshot '{path}' is absent (tried: {}) — a gate without its \
         baseline is vacuous; commit the snapshot or fix the path",
        tried.join(", ")
    ))
}

/// Reads and parses one snapshot.
fn load(path: &Path) -> Result<BenchSnapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchSnapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut threshold_pct = 25.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let raw = it
                    .next()
                    .ok_or_else(|| "--threshold needs a percentage".to_string())?;
                threshold_pct = raw
                    .parse()
                    .map_err(|_| format!("invalid threshold '{raw}'"))?;
                if threshold_pct <= 0.0 {
                    return Err("threshold must be positive".to_string());
                }
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        return Err(
            "usage: bench_regression <baseline.json> <current.json> [--threshold PCT]".to_string(),
        );
    };
    let baseline_file = resolve_baseline(baseline_path)?;
    let current_file = PathBuf::from(current_path);
    if !current_file.exists() {
        return Err(format!(
            "current snapshot '{current_path}' is absent — was the bench run, \
             and did it write there? A gate without a fresh snapshot is vacuous"
        ));
    }
    let same = |a: &Path, b: &Path| match (a.canonicalize(), b.canonicalize()) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    if same(&baseline_file, &current_file) {
        return Err(format!(
            "baseline and current snapshot are the same file ({}): the gate \
             would compare the baseline with itself",
            baseline_file.display()
        ));
    }
    let (baseline, current) = (load(&baseline_file)?, load(&current_file)?);
    let threshold = threshold_pct / 100.0;
    let mut failed = false;
    println!(
        "{:<12} {:>14} {:>14} {:>9}  gate(±{threshold_pct}%)",
        "family", "baseline_ns", "current_ns", "change"
    );
    for d in &compare(&baseline, &current) {
        failed |= d.regressed(threshold);
        println!("{}", delta_row(d, threshold));
    }
    for m in answer_mismatches(&baseline, &current) {
        failed = true;
        println!(
            "{}: {} changed from {} to {}  FAIL",
            m.row, m.field, m.baseline, m.current
        );
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(false) => {
            println!("no benchmark regressions");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!("benchmark regression gate FAILED");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(name)
            .display()
            .to_string()
    }

    /// A copy of a committed snapshot under a fresh directory, as a
    /// bench run with `BENCH_OUT_DIR` would leave it.
    fn fresh_copy(name: &str, tag: &str) -> String {
        let dir =
            std::env::temp_dir().join(format!("wcp-bench-regression-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::copy(committed(name), &path).unwrap();
        path.display().to_string()
    }

    #[test]
    fn gate_accepts_a_fresh_copy_of_its_baseline() {
        let fresh = fresh_copy("BENCH_adversary.json", "accept");
        assert_eq!(run(&[committed("BENCH_adversary.json"), fresh]), Ok(false));
    }

    #[test]
    fn missing_baseline_is_a_loud_error_not_a_pass() {
        let err = run(&[
            "no/such/dir/BENCH_definitely_absent.json".to_string(),
            fresh_copy("BENCH_adversary.json", "missing-baseline"),
        ])
        .unwrap_err();
        assert!(err.contains("absent"), "error must name the problem: {err}");
        assert!(
            err.contains("vacuous"),
            "error must explain the risk: {err}"
        );
        assert!(
            err.contains("BENCH_definitely_absent.json"),
            "error must echo the path: {err}"
        );
    }

    #[test]
    fn missing_current_snapshot_is_not_reanchored_onto_the_baseline() {
        // A fresh snapshot that was never written must not resolve to the
        // committed file of the same name: that gated the baseline
        // against itself and passed.
        let err = run(&[
            "crates/bench/BENCH_adversary.json".to_string(),
            "out/BENCH_adversary.json".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("absent"), "{err}");
        assert!(err.contains("out/BENCH_adversary.json"), "{err}");
    }

    #[test]
    fn baseline_and_current_may_not_be_the_same_file() {
        let base = committed("BENCH_adversary.json");
        let err = run(&[base.clone(), base]).unwrap_err();
        assert!(err.contains("same file"), "{err}");
    }

    #[test]
    fn relative_baselines_reanchor_at_the_manifest_dir() {
        // The ci.yml idiom: a workspace-root-relative baseline works no
        // matter which directory the gate binary runs from.
        let resolved = resolve_baseline("crates/bench/BENCH_adversary.json").expect("resolves");
        assert!(resolved.exists());
        let fallback = resolve_baseline("some/stale/cwd/BENCH_adversary.json").expect("resolves");
        assert!(fallback.ends_with("BENCH_adversary.json") && fallback.exists());
    }

    #[test]
    fn rows_print_the_figures_they_gate() {
        let delta = |family: &str, baseline_ns: f64, current_ns: f64| FamilyDelta {
            family: family.to_string(),
            baseline_ns,
            current_ns: Some(current_ns),
            change: Some(current_ns / baseline_ns - 1.0),
        };
        let lookup = delta_row(&delta("closed", 2.175, 1.640), 0.25);
        let cols: Vec<&str> = lookup.split_whitespace().collect();
        assert_eq!(
            cols,
            ["closed", "2.175", "1.640", "-24.6%", "ok"],
            "{lookup}"
        );
        let slow = delta_row(&delta("closed", 3.559, 4.773), 0.25);
        assert!(
            slow.contains(" 3.559 ") && slow.contains(" 4.773 ") && slow.ends_with("FAIL"),
            "{slow}"
        );
        let ladder = delta_row(&delta("ladder", 59_507_263.0, 24_497_081.4), 0.25);
        assert!(
            ladder.contains(" 59507263 ") && ladder.contains(" 24497081 "),
            "{ladder}"
        );
        assert_eq!(fmt_ns(123.456), "123.5");
        assert_eq!(fmt_ns(0.012_346), "0.01235");
        assert_eq!(fmt_ns(0.0), "0");
        let gone = FamilyDelta {
            family: "gone".to_string(),
            baseline_ns: 10.5,
            current_ns: None,
            change: None,
        };
        let row = delta_row(&gone, 0.25);
        assert!(row.contains("10.50") && row.contains("missing"), "{row}");
    }

    #[test]
    fn threshold_validation() {
        let base = committed("BENCH_adversary.json");
        let fresh = fresh_copy("BENCH_adversary.json", "threshold");
        let with = |pct: &str| {
            run(&[
                base.clone(),
                fresh.clone(),
                "--threshold".into(),
                pct.into(),
            ])
        };
        assert!(with("0").is_err());
        assert!(with("x").is_err());
        assert!(run(&["--threshold".into(), "25".into(), base.clone()]).is_err());
        assert_eq!(with("25"), Ok(false));
    }
}

//! `bench_regression` — the CI gate over benchmark snapshots.
//!
//! Compares a fresh snapshot (`BENCH_strategies.json`,
//! `BENCH_adversary.json`, `BENCH_adversary_parallel.json`, … — every
//! schema is understood) against the committed baseline and exits
//! non-zero when any family's mean time regressed beyond the threshold
//! (default 25%), when a family vanished from the fresh snapshot, or
//! when a strategy in both engine-sweep snapshots changed one of its
//! deterministic answers (`lower_bound`, `measured_availability`,
//! `exact`):
//!
//! ```text
//! bench_regression crates/bench/BENCH_strategies.json fresh.json --threshold 25
//! bench_regression crates/bench/BENCH_adversary.json fresh-adv.json --threshold 25
//! ```
//!
//! Snapshot paths that don't exist as written are re-anchored at this
//! crate's manifest directory (and the workspace root) before the gate
//! gives up — benches resolve their default output the same way, so a
//! gate invoked from the wrong directory still finds the real files
//! instead of silently comparing nothing. A baseline that cannot be
//! found anywhere is a hard error: a vacuous gate must not pass.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wcp_bench::regression::{answer_mismatches, compare};

/// Resolves a snapshot argument to an existing file: the path as
/// written, else (for relative paths) re-anchored at the bench crate's
/// manifest directory, the workspace root, or — as a last resort — the
/// bare file name inside the manifest directory, where every committed
/// `BENCH_*.json` baseline lives.
fn resolve(path: &str) -> Result<PathBuf, String> {
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
    let read = |path: &str| {
        let resolved = resolve(path)?;
        std::fs::read_to_string(&resolved)
            .map_err(|e| format!("cannot read {}: {e}", resolved.display()))
    };
    let (baseline, current) = (read(baseline_path)?, read(current_path)?);
    let deltas = compare(&baseline, &current)?;
    let threshold = threshold_pct / 100.0;
    let mut failed = false;
    println!(
        "{:<12} {:>14} {:>14} {:>9}  gate(±{threshold_pct}%)",
        "family", "baseline_ns", "current_ns", "change"
    );
    for d in &deltas {
        let regressed = d.regressed(threshold);
        failed |= regressed;
        let (current, change) = match (d.current_ns, d.change) {
            (Some(c), Some(ch)) => (format!("{c:.0}"), format!("{:+.1}%", ch * 100.0)),
            _ => ("missing".to_string(), "—".to_string()),
        };
        println!(
            "{:<12} {:>14.0} {:>14} {:>9}  {}",
            d.family,
            d.baseline_ns,
            current,
            change,
            if regressed { "FAIL" } else { "ok" }
        );
    }
    for m in answer_mismatches(&baseline, &current)? {
        failed = true;
        println!(
            "{}: {} changed from {} to {}  FAIL",
            m.strategy, m.field, m.baseline, m.current
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

    #[test]
    fn gate_accepts_a_snapshot_against_itself() {
        let base = committed("BENCH_adversary.json");
        assert_eq!(run(&[base.clone(), base]), Ok(false));
    }

    #[test]
    fn missing_baseline_is_a_loud_error_not_a_pass() {
        let err = run(&[
            "no/such/dir/BENCH_definitely_absent.json".to_string(),
            committed("BENCH_adversary.json"),
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
    fn relative_paths_reanchor_at_the_manifest_dir() {
        // The ci.yml idiom: a workspace-root-relative path works no
        // matter which directory the gate binary runs from, because the
        // bare file name re-anchors at the crate's manifest directory.
        let resolved = resolve("crates/bench/BENCH_adversary.json").expect("resolves");
        assert!(resolved.exists());
        let fallback = resolve("some/stale/cwd/BENCH_adversary.json").expect("resolves");
        assert!(fallback.ends_with("BENCH_adversary.json") && fallback.exists());
    }

    #[test]
    fn threshold_validation() {
        let base = committed("BENCH_adversary.json");
        assert!(run(&[base.clone(), base.clone(), "--threshold".into(), "0".into()]).is_err());
        assert!(run(&[base.clone(), base.clone(), "--threshold".into(), "x".into()]).is_err());
        assert!(run(&["--threshold".into(), "25".into(), base.clone()]).is_err());
        assert_eq!(
            run(&[base.clone(), base, "--threshold".into(), "25".into()]),
            Ok(false)
        );
    }
}

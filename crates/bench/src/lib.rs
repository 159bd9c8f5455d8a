//! Shared fixtures for the criterion benchmarks, the one snapshot
//! writer ([`write_snapshot`]) and sampler ([`median_ns`]) the
//! `BENCH_*.json` benches share, plus the [`regression`] analysis CI
//! uses to gate on those snapshots.
//!
//! Every snapshot has the one shape of [`wcp_sim::bench::BenchSnapshot`]:
//! `{"shape": {…}, "rows": [{"name", "median_ns", "answers"?, "metrics"?}]}`.
//!
//! The benchmarks measure the computational pieces behind the paper's
//! experiments: the Combo DP (Sec. III-B1), the design constructions of
//! Sec. III-C, the worst-case adversary behind Definition 1, the
//! Theorem-2 analysis, the unified strategy sweep through the `Engine`
//! facade, and the parallel sweep subsystem's throughput.
//! `cargo bench --workspace` runs them all.

#![forbid(unsafe_code)]

pub mod regression;

use std::path::PathBuf;
use wcp_core::{Placement, PlannerContext, RandomVariant, StrategyKind, SystemParams};
use wcp_sim::bench::{BenchRow, BenchSnapshot};

/// A deterministic mid-size random placement for adversary benchmarks,
/// drawn through the unified strategy API.
///
/// # Panics
///
/// Panics only on invalid hard-coded parameters (i.e. never).
#[must_use]
pub fn fixture_placement(n: u16, b: u64, r: u16) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("fixture parameters are valid");
    StrategyKind::Random {
        seed: 0x000b_e9c4,
        variant: RandomVariant::LoadBalanced,
    }
    .plan(&params, &PlannerContext::default())
    .expect("random strategies always plan")
    .build(&params)
    .expect("fixture placement samples")
}

/// An empty snapshot whose shape is the attacked placement's `n`, `b`,
/// `r` and the adversary's `s`, `k`.
#[must_use]
pub fn attack_snapshot(placement: &Placement, s: u16, k: u16) -> BenchSnapshot {
    BenchSnapshot::new([
        ("n", placement.num_nodes().into()),
        ("b", placement.num_objects().into()),
        ("r", placement.replicas_per_object().into()),
        ("s", s.into()),
        ("k", k.into()),
    ])
}

/// A row timing one evaluation: its median, and the evaluations per
/// second that implies as a metric.
#[must_use]
pub fn eval_row(name: impl Into<String>, median_ns: u128) -> BenchRow {
    let ns = median_ns.max(1) as f64;
    BenchRow::new(name, ns).metric("evals_per_second", 1e9 / ns)
}

/// Writes `snapshot` as `BENCH_{bench}.json` into the directory named by
/// `BENCH_OUT_DIR` (created if missing) when that is set and non-empty,
/// else into this crate's manifest directory, where the committed
/// baselines live. A relative `BENCH_OUT_DIR` resolves against the bench
/// executable's working directory, which `cargo bench` sets to this
/// crate's root.
///
/// Exits the process non-zero when the file cannot be written: a bench
/// run that records nothing must not pass.
pub fn write_snapshot(bench: &str, snapshot: &BenchSnapshot) {
    let dir = match std::env::var("BENCH_OUT_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    };
    let path = dir.join(format!("BENCH_{bench}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, snapshot.to_json())) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Peak resident set size of the current process in bytes, parsed from
/// the `VmHWM` line of `/proc/self/status` (kernel high-water mark, so
/// it is monotone over the process lifetime — sample it right after the
/// workload whose footprint you want to attribute, largest workload
/// last). `None` on non-Linux platforms or if the file is unreadable.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Measures one evaluation series for a `BENCH_*.json` snapshot: the
/// median over batched samples, each batch long enough (~400 µs) to
/// amortize timer and scheduler noise — run-to-run stability is what
/// the CI regression gate needs. Every snapshot-writing bench must use
/// this (not its own scheme) so the gate compares like with like.
pub fn median_ns(mut one: impl FnMut() -> u64) -> u128 {
    use std::hint::black_box;
    use std::time::Instant;
    const SAMPLES: usize = 9;
    const TARGET_SAMPLE_NS: u128 = 400_000;
    // Warmup + calibration.
    let est = {
        let t = Instant::now();
        black_box(one());
        t.elapsed().as_nanos().max(1)
    };
    let iters = (TARGET_SAMPLE_NS / est).clamp(1, 10_000) as u32;
    let mut samples: Vec<u128> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(one());
            }
            t.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    samples.sort_unstable();
    samples[SAMPLES / 2]
}

/// Median of three timed runs, for series that take seconds, where
/// [`median_ns`]'s nine batched samples would dominate the bench's wall
/// time without improving a measurement this long.
pub fn median3_ns(mut one: impl FnMut() -> u64) -> u128 {
    use std::hint::black_box;
    use std::time::Instant;
    let mut samples: Vec<u128> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(one());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[1]
}

//! Throughput of the parallel sweep subsystem: cells per second at 1,
//! half, and all cores, over a fixed mid-size grid driven through the
//! full adversary ladder (`SweepAdversary`, scratch reuse on).
//!
//! Besides the criterion measurements, the run writes a
//! `BENCH_sweep.json` snapshot (into `BENCH_OUT_DIR` when set) so
//! future PRs can track sweep throughput the same way
//! `BENCH_strategies.json` tracks the per-strategy pipeline. CI records
//! it without gating it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wcp_adversary::SweepAdversary;
use wcp_core::sweep::{sweep_with, SweepOptions, SweepSpec};
use wcp_core::StrategyKind;
use wcp_sim::bench::{BenchRow, BenchSnapshot};

/// The benchmark grid: every strategy family over a small n so each
/// cell stays cheap and the cell count (not one giant cell) dominates.
fn bench_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("bench-sweep");
    spec.grid.n = vec![13];
    spec.grid.b = vec![26, 52, 104, 208];
    spec.grid.r = vec![3];
    spec.grid.s = vec![2];
    spec.grid.k = vec![3, 4];
    spec.strategies = vec![
        StrategyKind::Simple { x: 0 },
        StrategyKind::Simple { x: 1 },
        StrategyKind::Combo,
        StrategyKind::parse_spec("random").expect("builtin spec"),
        StrategyKind::Ring,
        StrategyKind::Group,
        StrategyKind::Adaptive,
    ];
    spec
}

/// Deduplicated, sorted `{1, cores/2, cores}`.
fn thread_points() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut points = vec![1, (cores / 2).max(1), cores];
    points.sort_unstable();
    points.dedup();
    points
}

fn options(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        ..SweepOptions::default()
    }
}

fn bench_sweep_throughput(c: &mut Criterion) {
    let spec = bench_spec();
    let cells = spec.cells().len();
    let mut group = c.benchmark_group(format!("sweep_{cells}_cells"));
    group.sample_size(10);
    for threads in thread_points() {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| sweep_with(black_box(&spec), &options(threads), SweepAdversary::new).len());
        });
    }
    group.finish();

    write_snapshot(&spec);
}

/// Records median cells/second per thread count into the JSON snapshot.
fn write_snapshot(spec: &SweepSpec) {
    const RUNS: usize = 5;
    let cells = spec.cells().len();
    let mut snapshot = BenchSnapshot::new([
        ("label", spec.label.as_str().into()),
        ("cells", cells.into()),
    ]);
    for threads in thread_points() {
        let mut ns: Vec<u128> = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                let records = sweep_with(spec, &options(threads), SweepAdversary::new);
                assert_eq!(records.len(), cells);
                t.elapsed().as_nanos()
            })
            .collect();
        ns.sort_unstable();
        let median = ns[RUNS / 2].max(1) as f64;
        snapshot.rows.push(
            BenchRow::new(format!("threads_{threads}"), median)
                .metric("threads", threads as f64)
                .metric("cells_per_second", cells as f64 * 1e9 / median),
        );
    }
    wcp_bench::write_snapshot("sweep", &snapshot);
}

criterion_group!(benches, bench_sweep_throughput);
criterion_main!(benches);

//! Apples-to-apples strategy sweep through the unified `Engine` facade:
//! every `StrategyKind` family runs the identical plan → build → attack
//! pipeline on one parameter set, so future PRs have a perf baseline for
//! the whole surface, not just individual hot paths.
//!
//! Besides the criterion measurements, the run writes a
//! `BENCH_strategies.json` snapshot (into `BENCH_OUT_DIR` when set)
//! with one row per strategy: the median end-to-end pipeline cost, and
//! as answers the claimed lower bound, the measured worst-case
//! availability and whether the adversary was exact.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wcp_core::{Engine, StrategyKind, SystemParams};
use wcp_sim::bench::{BenchRow, BenchSnapshot};

/// One parameter set, small enough that the engine's exhaustive
/// attacker is exact (C(13, 3) = 286 failure sets), so the sweep
/// measures every family end to end in comparable conditions.
fn sweep_params() -> SystemParams {
    SystemParams::new(13, 260, 3, 2, 3).expect("valid sweep parameters")
}

fn bench_strategy_sweep(c: &mut Criterion) {
    let params = sweep_params();
    let engine = Engine::new(params);
    let mut group = c.benchmark_group("engine_sweep_n13_b260");
    group.sample_size(10);
    for kind in StrategyKind::all(&params) {
        group.bench_function(kind.label(), |b| {
            b.iter(|| {
                engine
                    .evaluate(black_box(&kind))
                    .expect("evaluates")
                    .measured_availability
            });
        });
    }
    group.finish();

    write_snapshot(&engine, &params);
}

/// Records one medianized evaluation per strategy into the JSON
/// snapshot.
fn write_snapshot(engine: &Engine, params: &SystemParams) {
    const RUNS: usize = 5;
    let mut snapshot = BenchSnapshot::new([
        ("n", params.n().into()),
        ("b", params.b().into()),
        ("r", params.r().into()),
        ("s", params.s().into()),
        ("k", params.k().into()),
    ]);
    for kind in StrategyKind::all(params) {
        let mut costs: Vec<u128> = (0..RUNS)
            .map(|_| {
                let t = Instant::now();
                let _ = engine.evaluate(&kind).expect("evaluates");
                t.elapsed().as_nanos()
            })
            .collect();
        costs.sort_unstable();
        let report = engine.evaluate(&kind).expect("evaluates");
        snapshot.rows.push(
            BenchRow::new(report.strategy, costs[RUNS / 2] as f64)
                .answer("lower_bound", report.lower_bound.into())
                .answer("measured_availability", report.measured_availability.into())
                .answer("exact", report.exact.into()),
        );
    }
    wcp_bench::write_snapshot("strategies", &snapshot);
}

criterion_group!(benches, bench_strategy_sweep);
criterion_main!(benches);

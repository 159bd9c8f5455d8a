//! Million-object regime throughput: the full auto adversary ladder
//! (every rung on the one failure accounting) on the n = 71-derived
//! shape at b = 10⁵ and b = 10⁶, with peak RSS recorded per shape, plus
//! the certified ladder at both sizes — what the certified scratch
//! adversary runs twice per churn event on the write path.
//!
//! Besides the criterion measurement (b = 10⁵ only — a b = 10⁶ build
//! dominates criterion's warmup budget), the run writes a
//! `BENCH_scale.json` snapshot (into `BENCH_OUT_DIR` when set) whose
//! rows carry `b`, `evals_per_second` and `peak_rss_bytes` as metrics,
//! so CI's 25% gate covers the scale regime and the committed snapshot
//! pins the ≤ 2 GiB peak-RSS acceptance budget (asserted by a unit test
//! in `wcp_bench::regression`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcp_adversary::{AdversaryConfig, AdversaryScratch, Ladder};
use wcp_bench::{eval_row, fixture_placement, median3_ns, median_ns, peak_rss_bytes};
use wcp_sim::bench::BenchSnapshot;

fn bench_scale_ladder(c: &mut Criterion) {
    let placement = fixture_placement(71, 100_000, 3);
    let (s, k) = (2u16, 3u16);
    let config = AdversaryConfig::default();
    let mut scratch = AdversaryScratch::new();

    let mut group = c.benchmark_group("scale_n71_s2_k3");
    group.sample_size(10);
    group.bench_function("ladder_b100k", |b| {
        b.iter(|| {
            Ladder::new(&config)
                .scratch(&mut scratch)
                .run(black_box(&placement), s, k)
                .worst
                .failed
        });
    });
    group.finish();

    write_snapshot(s, k, &config);
}

/// Records the ladder medians and peak RSS at both scale shapes into the
/// JSON snapshot the CI gate consumes. Shapes run in ascending `b`:
/// `VmHWM` is a process-lifetime high-water mark, so each reading is
/// dominated by the largest shape run so far.
fn write_snapshot(s: u16, k: u16, config: &AdversaryConfig) {
    let mut scratch = AdversaryScratch::new();
    let mut snapshot = BenchSnapshot::new([
        ("n", 71u16.into()),
        ("r", 3u16.into()),
        ("s", s.into()),
        ("k", k.into()),
    ]);
    for (name, b, seconds_scale, certified) in [
        ("ladder_b100k", 100_000u64, false, false),
        ("certified_b100k", 100_000, false, true),
        ("ladder_b1m", 1_000_000, true, false),
        ("certified_b1m", 1_000_000, true, true),
    ] {
        let placement = fixture_placement(71, b, 3);
        let one = || {
            let ladder = Ladder::new(config).scratch(&mut scratch);
            let ladder = if certified {
                ladder.certified()
            } else {
                ladder
            };
            ladder.run(&placement, s, k).worst.failed
        };
        let ns = if seconds_scale {
            median3_ns(one)
        } else {
            median_ns(one)
        };
        let rss = peak_rss_bytes().unwrap_or(0);
        snapshot.rows.push(
            eval_row(name, ns)
                .metric("b", b as f64)
                .metric("peak_rss_bytes", rss as f64),
        );
    }
    wcp_bench::write_snapshot("scale", &snapshot);
}

criterion_group!(benches, bench_scale_ladder);
criterion_main!(benches);

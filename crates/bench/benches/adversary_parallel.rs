//! Thread-parallel adversary ladder throughput on the churn acceptance
//! shape (n=71, b=1200, r=3, s=2, k=3): the full ladder at 1, half and
//! all threads plus a fixed 4-thread column, and exact-rung feasibility
//! at k=5 under the frontier-parallel branch-and-bound.
//!
//! Besides the criterion measurements, the run writes a
//! `BENCH_adversary_parallel.json` snapshot (override the path with the
//! `BENCH_ADVERSARY_PARALLEL_OUT` environment variable) in the same
//! `series[].{name, median_ns}` schema `bench_regression` parses, so
//! CI's 25% gate covers the parallel path and the committed snapshot
//! pins the ≥2× four-thread target against the PR 4 serial kernel
//! (asserted by a unit test in `wcp_bench::regression`, not in CI —
//! the CI box exposes a single core).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wcp_adversary::{
    exact_worst_parallel, local_search_worst_with, AdversaryConfig, AdversaryScratch, Ladder,
};
use wcp_bench::{fixture_placement, median_ns, snapshot_out};
use wcp_core::{Parallelism, Placement};

/// The churn acceptance shape from ROADMAP/PR 3: n=71, b=1200, r=3.
fn acceptance_placement() -> Placement {
    fixture_placement(71, 1200, 3)
}

/// The default config with the ladder pinned to `threads`.
fn ladder_cfg(threads: usize) -> AdversaryConfig {
    AdversaryConfig {
        parallelism: Parallelism::new(threads),
        ..AdversaryConfig::default()
    }
}

fn bench_parallel_ladder(c: &mut Criterion) {
    let placement = acceptance_placement();
    let (s, k) = (2u16, 3u16);
    let mut scratch = AdversaryScratch::new();
    let available = Parallelism::default().threads();

    let mut group = c.benchmark_group("adversary_parallel_n71_b1200_s2_k3");
    group.sample_size(20);
    for threads in [1, available.div_ceil(2).max(1), 4] {
        let cfg = ladder_cfg(threads);
        group.bench_function(format!("ladder_{threads}_threads"), |b| {
            b.iter(|| {
                Ladder::new(&cfg)
                    .scratch(&mut scratch)
                    .run(black_box(&placement), s, k)
                    .worst
                    .failed
            });
        });
    }
    group.finish();

    write_snapshot(&placement, s, k);
}

/// Median of three timed runs — for the seconds-scale exact k=5 series,
/// where `median_ns`'s nine batched samples would dominate the bench's
/// wall time without improving a measurement this long.
fn median3_ns(mut one: impl FnMut() -> u64) -> u128 {
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

/// Records the ladder medians at 1/half/all/4 threads and the exact
/// k=5 feasibility run into the JSON snapshot the CI gate consumes.
fn write_snapshot(placement: &Placement, s: u16, k: u16) {
    let mut scratch = AdversaryScratch::new();
    let available = Parallelism::default().threads();
    let half = available.div_ceil(2).max(1);
    let mut series: Vec<(String, u128)> = Vec::new();
    for (label, threads) in [
        ("ladder_t1", 1),
        ("ladder_t_half", half),
        ("ladder_t_all", available),
        ("ladder_t4", 4),
    ] {
        let cfg = ladder_cfg(threads);
        let ns = median_ns(|| {
            Ladder::new(&cfg)
                .scratch(&mut scratch)
                .run(placement, s, k)
                .worst
                .failed
        });
        series.push((format!("{label} (threads={threads})"), ns));
    }

    // Exact-rung feasibility at k=5 on the acceptance shape: LS seeds
    // the incumbent, then the frontier-parallel exact rung proves the
    // optimum with an unbounded budget.
    let k5 = 5u16;
    let cfg5 = ladder_cfg(4);
    let seed = local_search_worst_with(placement, s, k5, &cfg5, &mut scratch).failed;
    let mut exact_k5_failed = 0u64;
    let exact_k5_ns = median3_ns(|| {
        let wc = exact_worst_parallel(placement, s, k5, u64::MAX, seed, Parallelism::new(4))
            .expect("unbounded budget always completes");
        exact_k5_failed = wc.failed.max(seed);
        exact_k5_failed
    });
    series.push(("exact_k5_t4 (threads=4)".to_string(), exact_k5_ns));

    let entries: Vec<String> = series
        .iter()
        .map(|(name, ns)| {
            format!(
                "  {{\"name\": {name:?}, \"median_ns\": {ns}, \"evals_per_second\": {:.1}}}",
                1e9 / (*ns as f64).max(1.0)
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n\"shape\": {{\"n\": {}, \"b\": {}, \"r\": {}, \"s\": {s}, \"k\": {k}}},\n",
            "\"threads_available\": {},\n",
            "\"exact_k5_failed\": {},\n",
            "\"series\": [\n{}\n]\n}}\n"
        ),
        placement.num_nodes(),
        placement.num_objects(),
        placement.replicas_per_object(),
        available,
        exact_k5_failed,
        entries.join(",\n"),
        s = s,
        k = k,
    );
    let path = snapshot_out(
        "BENCH_ADVERSARY_PARALLEL_OUT",
        "BENCH_adversary_parallel.json",
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (threads available: {available}, exact k=5 failed: {exact_k5_failed})",
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

criterion_group!(benches, bench_parallel_ladder);
criterion_main!(benches);

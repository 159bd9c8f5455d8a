//! Thread-parallel adversary ladder throughput on the churn acceptance
//! shape (n=71, b=1200, r=3, s=2, k=3): the full ladder at 1, half and
//! all threads plus a fixed 4-thread column, and exact-rung feasibility
//! at k=5 under the frontier-parallel branch-and-bound.
//!
//! Besides the criterion measurements, the run writes a
//! `BENCH_adversary_parallel.json` snapshot (into `BENCH_OUT_DIR` when
//! set), so CI's 25% gate covers the parallel path and the exact k=5
//! optimum (the `exact_k5_t4` row's `failed` answer) must match the
//! baseline. The committed snapshot pins the ≥2× four-thread target
//! against the PR 4 serial kernel (asserted by a unit test in
//! `wcp_bench::regression`, not in CI — the CI box exposes a single
//! core).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcp_adversary::{
    exact_worst_parallel, local_search_worst_with, AdversaryConfig, AdversaryScratch, Ladder,
};
use wcp_bench::{attack_snapshot, eval_row, fixture_placement, median3_ns, median_ns};
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

/// Records the ladder medians at 1/half/all/4 threads and the exact
/// k=5 feasibility run into the JSON snapshot the CI gate consumes.
fn write_snapshot(placement: &Placement, s: u16, k: u16) {
    let mut scratch = AdversaryScratch::new();
    let available = Parallelism::default().threads();
    let half = available.div_ceil(2).max(1);
    let mut snapshot = attack_snapshot(placement, s, k);
    snapshot
        .shape
        .push(("threads_available".to_string(), available.into()));
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
        snapshot
            .rows
            .push(eval_row(format!("{label} (threads={threads})"), ns));
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
    snapshot.rows.push(
        eval_row("exact_k5_t4 (threads=4)", exact_k5_ns).answer("failed", exact_k5_failed.into()),
    );
    wcp_bench::write_snapshot("adversary_parallel", &snapshot);
}

criterion_group!(benches, bench_parallel_ladder);
criterion_main!(benches);

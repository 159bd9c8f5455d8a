//! Adversary-evaluation throughput: the production ladder vs
//! the scalar reference ladder on the churn acceptance shape
//! (n=71, b=1200, r=3, s=2, k=3), plus the historical Fig. 7-scale
//! ladder group and the quality ablation.
//!
//! Besides the criterion measurements, the run writes a
//! `BENCH_adversary.json` snapshot (into `BENCH_OUT_DIR` when set)
//! recording median evaluation times for both the scalar and packed
//! series — so the kernel's speedup is committed alongside the code and
//! CI's `bench_regression` gate can hold the line on it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcp_adversary::{
    exact_worst_with, greedy_worst_with, local_search_worst_with, reference, AdversaryConfig,
    AdversaryScratch, Ladder,
};
use wcp_bench::{attack_snapshot, eval_row, fixture_placement, median_ns};
use wcp_core::Placement;

/// The churn acceptance shape from ROADMAP/PR 3: n=71, b=1200, r=3.
fn acceptance_placement() -> Placement {
    fixture_placement(71, 1200, 3)
}

/// The scalar baseline for the full auto evaluation: reference local
/// search seeding the reference exact DFS (what `Ladder::run`
/// did before the kernel).
fn scalar_ladder(
    placement: &Placement,
    s: u16,
    k: u16,
    cfg: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> u64 {
    let seed = reference::local_search_worst_with(placement, s, k, cfg, scratch);
    reference::exact_worst(placement, s, k, u64::MAX, seed.failed)
        .expect("completes within budget")
        .failed
        .max(seed.failed)
}

fn bench_kernel_vs_scalar(c: &mut Criterion) {
    let placement = acceptance_placement();
    let (s, k) = (2u16, 3u16);
    let cfg = AdversaryConfig::default();
    let mut scratch = AdversaryScratch::new();

    let mut group = c.benchmark_group("adversary_n71_b1200_s2_k3");
    group.sample_size(20);
    group.bench_function("scalar_greedy", |b| {
        b.iter(|| reference::greedy_worst_with(black_box(&placement), s, k, &mut scratch).failed);
    });
    group.bench_function("packed_greedy", |b| {
        b.iter(|| greedy_worst_with(black_box(&placement), s, k, &mut scratch).failed);
    });
    group.bench_function("scalar_local_search", |b| {
        b.iter(|| {
            reference::local_search_worst_with(black_box(&placement), s, k, &cfg, &mut scratch)
                .failed
        });
    });
    group.bench_function("packed_local_search", |b| {
        b.iter(|| local_search_worst_with(black_box(&placement), s, k, &cfg, &mut scratch).failed);
    });
    group.bench_function("scalar_ladder", |b| {
        b.iter(|| scalar_ladder(black_box(&placement), s, k, &cfg, &mut scratch));
    });
    group.bench_function("packed_ladder", |b| {
        b.iter(|| {
            Ladder::new(&cfg)
                .scratch(&mut scratch)
                .run(black_box(&placement), s, k)
                .worst
                .failed
        });
    });
    group.finish();

    write_snapshot(&placement, s, k, &cfg);
}

fn bench_fig7_scale_ladder(c: &mut Criterion) {
    // The historical mid-size group kept for continuity with earlier
    // PRs' bench output.
    let placement = fixture_placement(31, 2400, 5);
    let (s, k) = (3u16, 4u16);
    let cfg = AdversaryConfig::default();
    let mut scratch = AdversaryScratch::new();

    let mut group = c.benchmark_group("adversary_n31_b2400");
    group.sample_size(10);
    group.bench_function("greedy", |b| {
        b.iter(|| greedy_worst_with(black_box(&placement), s, k, &mut scratch).failed);
    });
    group.bench_function("local_search", |b| {
        b.iter(|| local_search_worst_with(black_box(&placement), s, k, &cfg, &mut scratch).failed);
    });
    group.bench_function("exact_seeded", |b| {
        b.iter(|| {
            let seed = local_search_worst_with(&placement, s, k, &cfg, &mut scratch);
            exact_worst_with(
                black_box(&placement),
                s,
                k,
                u64::MAX,
                seed.failed,
                &mut scratch,
            )
            .expect("completes")
            .failed
            .max(seed.failed)
        });
    });
    group.finish();

    // Quality ablation printed once: greedy and LS vs exact.
    let exact = {
        let seed = local_search_worst_with(&placement, s, k, &cfg, &mut scratch);
        exact_worst_with(&placement, s, k, u64::MAX, seed.failed, &mut scratch)
            .expect("completes")
            .failed
            .max(seed.failed)
    };
    let g = greedy_worst_with(&placement, s, k, &mut scratch).failed;
    let ls = local_search_worst_with(&placement, s, k, &cfg, &mut scratch).failed;
    println!("adversary quality (n=31, b=2400, s=3, k=4): greedy={g} local={ls} exact={exact}");
}

/// Records median scalar vs packed evaluation times into the JSON
/// snapshot the CI regression gate consumes.
fn write_snapshot(placement: &Placement, s: u16, k: u16, cfg: &AdversaryConfig) {
    let mut scratch = AdversaryScratch::new();
    let mut snapshot = attack_snapshot(placement, s, k);
    snapshot.rows = vec![
        eval_row(
            "scalar_greedy",
            median_ns(|| reference::greedy_worst_with(placement, s, k, &mut scratch).failed),
        ),
        eval_row(
            "packed_greedy",
            median_ns(|| greedy_worst_with(placement, s, k, &mut scratch).failed),
        ),
        eval_row(
            "scalar_local_search",
            median_ns(|| {
                reference::local_search_worst_with(placement, s, k, cfg, &mut scratch).failed
            }),
        ),
        eval_row(
            "packed_local_search",
            median_ns(|| local_search_worst_with(placement, s, k, cfg, &mut scratch).failed),
        ),
        eval_row(
            "scalar_ladder",
            median_ns(|| scalar_ladder(placement, s, k, cfg, &mut scratch)),
        ),
        eval_row(
            "packed_ladder",
            median_ns(|| {
                Ladder::new(cfg)
                    .scratch(&mut scratch)
                    .run(placement, s, k)
                    .worst
                    .failed
            }),
        ),
    ];
    wcp_bench::write_snapshot("adversary", &snapshot);
}

criterion_group!(benches, bench_kernel_vs_scalar, bench_fig7_scale_ladder);
criterion_main!(benches);

//! Domain-adversary throughput: the failure-domain ladder vs the flat
//! per-node ladder on the acceptance shape (n=71, b=1200, r=3, s=2,
//! k=3).
//!
//! Three series: the plain node ladder (the baseline every earlier PR
//! tracked), the domain ladder on the *flat* topology (what the unit
//! indirection costs when every unit is one leaf), and the domain
//! ladder on a 12-rack topology (the correlated-failure workload this
//! bench exists to gate). Besides the criterion measurements, the run
//! writes a `BENCH_domains.json` snapshot (into `BENCH_OUT_DIR` when
//! set) that CI's `bench_regression` gate compares against the
//! committed baseline at the 25% threshold.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcp_adversary::{AdversaryConfig, Ladder};
use wcp_bench::{attack_snapshot, eval_row, fixture_placement, median_ns};
use wcp_core::{Placement, Topology};

/// The churn/adversary acceptance shape: n=71, b=1200, r=3.
fn acceptance_placement() -> Placement {
    fixture_placement(71, 1200, 3)
}

fn bench_domain_vs_flat(c: &mut Criterion) {
    let placement = acceptance_placement();
    let (s, k) = (2u16, 3u16);
    let cfg = AdversaryConfig::default();
    let flat = Topology::flat(71);
    let racks = Topology::split(71, &[12]).expect("12 racks over 71 nodes");

    let mut group = c.benchmark_group("domains_n71_b1200_s2_k3");
    group.sample_size(10);
    group.bench_function("node_ladder", |b| {
        b.iter(|| {
            Ladder::new(&cfg)
                .run(black_box(&placement), s, k)
                .worst
                .failed
        });
    });
    group.bench_function("flat_domain_ladder", |b| {
        b.iter(|| {
            Ladder::new(&cfg)
                .run_domain(black_box(&placement), &flat, s, k)
                .worst
                .failed
        });
    });
    group.bench_function("rack_domain_ladder", |b| {
        b.iter(|| {
            Ladder::new(&cfg)
                .run_domain(black_box(&placement), &racks, s, k)
                .worst
                .failed
        });
    });
    group.finish();

    write_snapshot(&placement, &flat, &racks, s, k, &cfg);
}

/// Records the three ladder series into the JSON snapshot the CI
/// regression gate consumes.
fn write_snapshot(
    placement: &Placement,
    flat: &Topology,
    racks: &Topology,
    s: u16,
    k: u16,
    cfg: &AdversaryConfig,
) {
    let mut snapshot = attack_snapshot(placement, s, k);
    snapshot
        .shape
        .push(("racks".to_string(), racks.domains_at(1).into()));
    snapshot.rows = vec![
        eval_row(
            "node_ladder",
            median_ns(|| Ladder::new(cfg).run(placement, s, k).worst.failed),
        ),
        eval_row(
            "flat_domain_ladder",
            median_ns(|| {
                Ladder::new(cfg)
                    .run_domain(placement, flat, s, k)
                    .worst
                    .failed
            }),
        ),
        eval_row(
            "rack_domain_ladder",
            median_ns(|| {
                Ladder::new(cfg)
                    .run_domain(placement, racks, s, k)
                    .worst
                    .failed
            }),
        ),
    ];
    wcp_bench::write_snapshot("domains", &snapshot);
}

criterion_group!(benches, bench_domain_vs_flat);
criterion_main!(benches);

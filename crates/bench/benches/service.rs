//! Serving-layer throughput: zipf-skewed lookups against the epoch
//! snapshot, closed-loop against a churning [`wcp_service`] cluster at
//! the million-object acceptance shape.
//!
//! Besides the criterion measurement (static b = 10⁵ snapshot — the
//! b = 10⁶ closed loop dominates criterion's warmup budget), the run
//! writes a `BENCH_service.json` snapshot (into `BENCH_OUT_DIR` when
//! set) whose rows carry `threads`, `lookups_per_second`,
//! `p99_staleness_epochs` and `peak_rss_bytes` as metrics, so CI's 25%
//! gate covers the serving layer and the committed snapshot pins the
//! ≥ 1M lookups/s single-threaded acceptance floor (asserted by a unit
//! test in `wcp_bench::regression`).
//!
//! The closed-loop rows (`closed_loop_t1` / `_t_half` / `_t_all`) run
//! that many reader threads over YCSB-style zipf request tables while
//! one writer paces a `Fail`/`Recover` pair through the repair thread —
//! lookups/s is sustained across the whole run including the epoch
//! publishes, and `p99_staleness_epochs` is measured from the readers'
//! pinned snapshots against the live published epoch.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wcp_bench::{fixture_placement, peak_rss_bytes};
use wcp_core::engine::ExhaustiveAttacker;
use wcp_core::{
    ClusterEvent, DynamicConfig, DynamicEngine, RandomVariant, StrategyKind, SystemParams,
};
use wcp_service::runtime::{fan_out, serve};
use wcp_service::{ServiceConfig, ServiceEvent, Snapshot};
use wcp_sim::bench::{BenchRow, BenchSnapshot};
use wcp_sim::workload::ZipfSpec;

/// The acceptance shape: the n = 71 cluster at one million objects.
const N: u16 = 71;
const B: u64 = 1_000_000;
const R: u16 = 3;

fn bench_service_lookup(c: &mut Criterion) {
    let placement = fixture_placement(N, 100_000, R);
    let snapshot = Snapshot::from_placement(0, &placement, &[], None);
    let table = ZipfSpec::ycsb(100_000, 0xBE_EF).sampler(0).table(8192);

    let mut group = c.benchmark_group("service_n71");
    group.bench_function("snapshot_lookup_b100k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &object in &table {
                hits += u64::from(snapshot.lookup(black_box(object)).is_some());
            }
            hits
        });
    });
    group.finish();

    write_snapshot();
}

/// One closed-loop run at `threads` readers over the b = 10⁶ engine:
/// returns (total lookups, slowest reader's seconds, p99 staleness).
fn closed_loop(threads: usize) -> (u64, f64, u64) {
    let params = SystemParams::new(N, B, R, 2, 2).expect("acceptance shape is valid");
    let kind = StrategyKind::Random {
        seed: 0x000b_e9c4,
        variant: RandomVariant::LoadBalanced,
    };
    // Capacity counts node *slots*; a few spares beyond the initial
    // membership keep Join legal without bloating the probe space.
    let capacity = N + 4;
    // A budget-capped attacker: the bench measures serving, not attack
    // quality, and the default exhaustive sweep (two attacks per event,
    // each over C(71,2) subsets of a million-object placement) would
    // dominate the closed loop by minutes.
    let attacker = ExhaustiveAttacker { budget: 64 };
    let engine =
        DynamicEngine::with_attacker(params, kind, capacity, DynamicConfig::default(), attacker)
            .expect("engine builds at the acceptance shape");
    let zipf = ZipfSpec::ycsb(B, 0xC0FFEE);
    let stop = AtomicBool::new(false);
    let config = ServiceConfig {
        queue_capacity: 16,
        max_batch: 4,
    };
    let (stats, _, _) = serve(engine, &config, |handle| {
        fan_out(threads + 1, |worker| {
            if worker == 0 {
                handle.enqueue(ServiceEvent::Churn(ClusterEvent::Fail { node: 3 }));
                std::thread::sleep(Duration::from_millis(30));
                handle.enqueue(ServiceEvent::Churn(ClusterEvent::Recover { node: 3 }));
                handle.quiesce();
                std::thread::sleep(Duration::from_millis(30));
                stop.store(true, Ordering::SeqCst);
                (0u64, 0.0f64, Vec::new())
            } else {
                let table = zipf.sampler(worker as u64).table(8192);
                let mut lookups = 0u64;
                let mut hits = 0u64;
                let mut staleness = Vec::new();
                let t = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    let snap = handle.snapshot();
                    staleness.push(handle.published_epoch().saturating_sub(snap.epoch()));
                    for &object in &table {
                        hits += u64::from(snap.lookup(object).is_some());
                    }
                    lookups += table.len() as u64;
                }
                black_box(hits);
                (lookups, t.elapsed().as_secs_f64(), staleness)
            }
        })
    });
    let lookups: u64 = stats.iter().map(|(l, _, _)| l).sum();
    let secs = stats.iter().map(|(_, s, _)| *s).fold(0.0f64, f64::max);
    let mut staleness: Vec<u64> = stats.iter().flat_map(|(_, _, st)| st.clone()).collect();
    staleness.sort_unstable();
    let p99 = staleness
        .get((staleness.len().saturating_sub(1)) * 99 / 100)
        .copied()
        .unwrap_or(0);
    (lookups, secs, p99)
}

/// Records the reader-ladder medians and peak RSS into the JSON
/// snapshot the CI gate consumes. Three samples per row, median by
/// rate — each sample is a full serve lifetime, so criterion-style
/// batching does not apply.
fn write_snapshot() {
    let all = std::thread::available_parallelism().map_or(4, usize::from);
    let ladder = [
        ("closed_loop_t1", 1),
        ("closed_loop_t_half", (all / 2).max(2)),
        ("closed_loop_t_all", all.max(3)),
    ];
    let mut snapshot = BenchSnapshot::new([("n", N.into()), ("b", B.into()), ("r", R.into())]);
    for (name, threads) in ladder {
        let mut samples: Vec<(u64, f64, u64)> = (0..3).map(|_| closed_loop(threads)).collect();
        samples.sort_by(|a, b| {
            let ra = a.0 as f64 / a.1.max(1e-9);
            let rb = b.0 as f64 / b.1.max(1e-9);
            ra.partial_cmp(&rb).expect("rates are finite")
        });
        let (lookups, secs, p99) = samples[1];
        let rate = lookups as f64 / secs.max(1e-9);
        // Per-lookup cost on one reader thread: the gate's timing.
        let ns = 1e9 * threads as f64 / rate.max(1e-9);
        let rss = peak_rss_bytes().unwrap_or(0);
        snapshot.rows.push(
            BenchRow::new(name, ns)
                .metric("threads", threads as f64)
                .metric("lookups_per_second", rate)
                .metric("p99_staleness_epochs", p99 as f64)
                .metric("peak_rss_bytes", rss as f64),
        );
    }
    wcp_bench::write_snapshot("service", &snapshot);
}

criterion_group!(benches, bench_service_lookup);
criterion_main!(benches);

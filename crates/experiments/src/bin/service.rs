//! Placement-as-a-service closed loop: zipf-skewed readers hammer
//! [`wcp_service`] lookups while the repair thread absorbs churn,
//! measuring serving throughput and staleness end to end.
//!
//! ```text
//! service            # reader ladder 1 / half / all hardware threads
//! service --quick    # readers 1 and 2 on a small shape (used by CI)
//! ```
//!
//! Each row serves the same churn trace at a different reader count:
//! one writer paces `Fail`/`Recover` pairs into the queue while the
//! readers cycle a YCSB-style zipf request table ([`ZipfSpec::ycsb`]),
//! refreshing their pinned snapshot between bursts. Reported per row:
//! sustained lookups/s across all readers, p99 staleness in epochs
//! (published epoch minus the epoch a reader was answering from), the
//! repair thread's epoch/applied tallies and peak RSS. Results land in
//! `service.csv` + `service.jsonl` (unified [`Record`] envelope) under
//! [`wcp_sim::results_dir`].

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wcp_bench::peak_rss_bytes;
use wcp_core::{
    ClusterEvent, DynamicConfig, DynamicEngine, RandomVariant, StrategyKind, SystemParams,
};
use wcp_service::runtime::{fan_out, serve, ServeReport};
use wcp_service::{ServiceConfig, ServiceEvent};
use wcp_sim::json::Value;
use wcp_sim::record::Record;
use wcp_sim::workload::ZipfSpec;
use wcp_sim::{csv_safe, results_dir, Csv, JsonLines, Table};

/// One shape for the whole ladder; rows differ only in reader count.
struct Shape {
    n: u16,
    b: u64,
    r: u16,
    s: u16,
    k: u16,
    /// `Fail`/`Recover` pairs the writer paces in.
    churn_pairs: u16,
    /// Gap between enqueued events, so repairs overlap reads.
    pace: Duration,
}

/// What one reader (or the writer, as zeros) brought back.
#[derive(Default)]
struct ReaderStats {
    lookups: u64,
    hits: u64,
    secs: f64,
    staleness: Vec<u64>,
}

fn engine_for(shape: &Shape) -> Result<DynamicEngine, String> {
    let params = SystemParams::new(shape.n, shape.b, shape.r, shape.s, shape.k)
        .map_err(|e| e.to_string())?;
    let kind = StrategyKind::Random {
        seed: 41,
        variant: RandomVariant::LoadBalanced,
    };
    // Capacity counts node *slots*: the initial membership plus a few
    // spares so Join events stay legal.
    let capacity = shape.n + 4;
    DynamicEngine::new(params, kind, capacity, DynamicConfig::default()).map_err(|e| e.to_string())
}

/// Serves one churn run at `readers` concurrent readers; returns the
/// merged reader stats and the repair thread's report.
fn run_ladder_row(
    shape: &Shape,
    readers: usize,
) -> Result<(Vec<ReaderStats>, ServeReport), String> {
    let engine = engine_for(shape)?;
    let zipf = ZipfSpec::ycsb(shape.b, 0xC0FFEE);
    let stop = AtomicBool::new(false);
    let config = ServiceConfig {
        queue_capacity: 64,
        max_batch: 4,
    };
    let (stats, report, _) = serve(engine, &config, |handle| {
        fan_out(handle, readers + 1, |handle, worker| {
            if worker == 0 {
                // The writer: paced Fail/Recover pairs (always legal —
                // each pair restores the membership it found).
                for round in 0..shape.churn_pairs {
                    let node = round % shape.n;
                    handle.enqueue(ServiceEvent::Churn(ClusterEvent::Fail { node }));
                    std::thread::sleep(shape.pace);
                    handle.enqueue(ServiceEvent::Churn(ClusterEvent::Recover { node }));
                    std::thread::sleep(shape.pace);
                }
                handle.quiesce();
                stop.store(true, Ordering::SeqCst);
                ReaderStats::default()
            } else {
                let mut sampler = zipf.sampler(worker as u64);
                let table = sampler.table(8192);
                let mut stats = ReaderStats::default();
                let t = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    let snap = handle.snapshot();
                    stats
                        .staleness
                        .push(handle.published_epoch().saturating_sub(snap.epoch()));
                    for &object in &table {
                        stats.hits += u64::from(snap.lookup(object).is_some());
                    }
                    stats.lookups += table.len() as u64;
                }
                stats.secs = t.elapsed().as_secs_f64();
                stats
            }
        })
    });
    Ok((stats, report))
}

/// The p99 of the merged staleness samples (0 when empty).
fn p99(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[(samples.len() - 1) * 99 / 100]
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let shape = if quick {
        Shape {
            n: 16,
            b: 20_000,
            r: 3,
            s: 2,
            k: 2,
            churn_pairs: 4,
            pace: Duration::from_millis(15),
        }
    } else {
        Shape {
            n: 24,
            b: 150_000,
            r: 3,
            s: 2,
            k: 2,
            churn_pairs: 8,
            pace: Duration::from_millis(25),
        }
    };
    let all = std::thread::available_parallelism().map_or(4, usize::from);
    let ladder: Vec<usize> = if quick {
        vec![1, 2]
    } else {
        let mut l = vec![1, (all / 2).max(2), all.max(3)];
        l.dedup();
        l
    };

    let mut table = Table::new(
        [
            "readers",
            "lookups",
            "lookups_per_sec",
            "p99_staleness_epochs",
            "epochs",
            "applied",
            "peak_rss_mib",
        ]
        .map(String::from)
        .to_vec(),
    );
    table.title(format!(
        "Serving closed loop: zipf(0.99) readers over n={}, b={}, r={} under churn",
        shape.n, shape.b, shape.r
    ));
    let mut csv = Csv::new(
        results_dir().join("service.csv"),
        &[
            "readers",
            "strategy",
            "lookups",
            "lookups_per_second",
            "hit_rate",
            "p99_staleness_epochs",
            "epochs",
            "applied",
            "rejected",
            "peak_rss_bytes",
        ],
    );
    let mut jsonl = JsonLines::new(results_dir().join("service.jsonl"));
    let strategy_label = StrategyKind::Random {
        seed: 41,
        variant: RandomVariant::LoadBalanced,
    }
    .label();

    for readers in ladder {
        let (stats, report) = match run_ladder_row(&shape, readers) {
            Ok(row) => row,
            Err(e) => {
                eprintln!("service: ladder row at {readers} readers failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lookups: u64 = stats.iter().map(|s| s.lookups).sum();
        let hits: u64 = stats.iter().map(|s| s.hits).sum();
        let secs = stats.iter().map(|s| s.secs).fold(0.0f64, f64::max);
        let mut staleness: Vec<u64> = stats.iter().flat_map(|s| s.staleness.clone()).collect();
        let stale99 = p99(&mut staleness);
        let rate = lookups as f64 / secs.max(1e-9);
        let hit_rate = hits as f64 / (lookups as f64).max(1.0);
        let rss = peak_rss_bytes().unwrap_or(0);
        if lookups == 0 {
            eprintln!("service: readers recorded no lookups — the loop never ran");
            return ExitCode::FAILURE;
        }

        table.row(vec![
            readers.to_string(),
            lookups.to_string(),
            format!("{rate:.0}"),
            stale99.to_string(),
            report.epochs.to_string(),
            report.applied.to_string(),
            (rss >> 20).to_string(),
        ]);
        csv.row(&[
            readers.to_string(),
            csv_safe(&strategy_label),
            lookups.to_string(),
            format!("{rate:.0}"),
            format!("{hit_rate:.4}"),
            stale99.to_string(),
            report.epochs.to_string(),
            report.applied.to_string(),
            report.rejected.to_string(),
            rss.to_string(),
        ]);
        jsonl.record(
            Record::new("service")
                .strategy(&strategy_label)
                .extra_u64("readers", readers as u64)
                .extra_u64("objects", shape.b)
                .extra_u64("lookups", lookups)
                .extra("lookups_per_second", Value::Num(rate))
                .extra("hit_rate", Value::Num(hit_rate))
                .extra_u64("p99_staleness_epochs", stale99)
                .extra_u64("epochs", report.epochs)
                .extra_u64("applied", report.applied)
                .extra_u64("rejected", report.rejected)
                .extra_u64("peak_rss_bytes", rss)
                .to_json(),
        );
    }

    println!("{}", table.render());
    if let Err(e) = csv.write() {
        eprintln!("cannot write {}: {e}", csv.path().display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = jsonl.write() {
        eprintln!("cannot write {}: {e}", jsonl.path().display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} and {}",
        csv.path().display(),
        jsonl.path().display()
    );
    ExitCode::SUCCESS
}

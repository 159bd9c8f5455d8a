//! Million-object scale smoke: runs the full auto adversary ladder
//! (every rung on the one failure accounting) on the n = 71-derived
//! shape at catalog-scale object counts, reporting wall time and peak
//! RSS.
//!
//! ```text
//! scale            # b = 100 000 and 1 000 000 (the acceptance shape)
//! scale --quick    # b = 100 000 only (used by CI)
//! ```
//!
//! The acceptance criterion this guards: a full ladder evaluation at
//! `b = 1 000 000, n = 71, r = 3, s = 2, k = 3` completes with peak RSS
//! ≤ 2 GiB. The run exits non-zero if the RSS budget is exceeded, so CI
//! smoke (`--quick`, same budget) and local full runs both enforce it.

use std::process::ExitCode;
use std::time::Instant;
use wcp_adversary::{AdversaryConfig, AdversaryScratch, Ladder};
use wcp_bench::{fixture_placement, peak_rss_bytes};
use wcp_sim::{results_dir, Csv, Table};

/// The RSS ceiling from the scale acceptance criterion.
const RSS_BUDGET_BYTES: u64 = 2 << 30;

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let b_values: &[u64] = if quick {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let (s, k) = (2u16, 3u16);
    let config = AdversaryConfig::default();
    let mut scratch = AdversaryScratch::new();

    let mut table = Table::new(
        ["b", "failed", "exact", "seconds", "peak_rss_mib"]
            .map(String::from)
            .to_vec(),
    );
    table.title("Scale regime: auto ladder at n=71, r=3, s=2, k=3");
    let mut csv = Csv::new(
        results_dir().join("scale.csv"),
        &["b", "failed", "exact", "seconds", "peak_rss_bytes"],
    );
    let mut over_budget = false;
    for &b in b_values {
        let placement = fixture_placement(71, b, 3);
        let t = Instant::now();
        let wc = Ladder::new(&config)
            .scratch(&mut scratch)
            .run(&placement, s, k)
            .worst;
        let secs = t.elapsed().as_secs_f64();
        // VmHWM is a process-lifetime high-water mark; shapes run in
        // ascending b, so the reading after each run is dominated by
        // that run's footprint.
        let rss = peak_rss_bytes().unwrap_or(0);
        over_budget |= rss > RSS_BUDGET_BYTES;
        let row = [
            b.to_string(),
            wc.failed.to_string(),
            wc.exact.to_string(),
            format!("{secs:.3}"),
            (rss >> 20).to_string(),
        ];
        table.row(row.to_vec());
        csv.row(&[
            b.to_string(),
            wc.failed.to_string(),
            wc.exact.to_string(),
            format!("{secs:.3}"),
            rss.to_string(),
        ]);
    }
    println!("{}", table.render());
    csv.write().expect("write CSV");
    println!("wrote {}", csv.path().display());
    if over_budget {
        eprintln!(
            "scale: peak RSS exceeded the {} MiB acceptance budget",
            RSS_BUDGET_BYTES >> 20
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

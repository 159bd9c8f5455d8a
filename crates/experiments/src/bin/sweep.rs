//! `sweep` — evaluate a whole grid of configurations in parallel.
//!
//! The generalization of every figure binary: describe a cartesian grid
//! over `(n, b, r, s, k) × strategies × adversaries` (CLI flags or a
//! JSON spec file, see [`wcp_experiments::spec`]), fan the cells out
//! across all cores through `Engine::sweep`'s work-stealing scheduler
//! with the full exact-with-fallback adversary ladder, and stream the
//! records to CSV and JSON-lines under [`wcp_sim::results_dir`].
//!
//! ```text
//! sweep --n 13,31 --b 260,520 --r 3 --s 2 --k 3,4 \
//!       --strategies combo,ring,random:7 --adversary auto:1000000
//! sweep --spec grid.json --threads 8 --timings
//! sweep --quick          # small built-in smoke grid (used by CI)
//! ```
//!
//! Results are deterministic for any `--threads` value; pass
//! `--timings` to keep per-stage wall-clock costs in the output (at the
//! price of run-to-run byte identity). Without `--threads` the worker
//! count defers to the ambient `WCP_THREADS` environment override
//! (else all cores) — the CI determinism matrix replays `--quick`
//! under several `WCP_THREADS` values and diffs the output bytes.

use std::process::ExitCode;
use wcp_adversary::SweepAdversary;
use wcp_core::sweep::{sweep_with, SweepOptions, SweepRecord, SweepSpec};
use wcp_core::StrategyKind;
use wcp_experiments::spec::parse_sweep_spec;
use wcp_experiments::{parse_adversary, parse_list};
use wcp_sim::{csv_safe, results_dir, Csv, JsonLines, Table};

fn usage() -> String {
    concat!(
        "usage: sweep [--spec FILE] [--n LIST] [--b LIST] [--r LIST] [--s LIST] [--k LIST]\n",
        "             [--strategies LIST] [--adversary auto[:BUDGET]|exhaustive[:BUDGET]]\n",
        "             [--label NAME] [--threads N] [--timings] [--quick]\n",
        "             [--csv PATH] [--json PATH]\n",
        "\n",
        "LISTs are comma separated (e.g. --n 13,31,71). Flags override values\n",
        "from the --spec file regardless of order. Strategy specs:\n",
        "combo, ring, group, adaptive, simple:<x>, random[:<seed>],\n",
        "random-seq[:<seed>], random-unc[:<seed>]. --quick selects a small\n",
        "built-in smoke grid when no grid of your own is given. Without\n",
        "--threads, the WCP_THREADS environment variable picks the worker\n",
        "count (default: all cores); records are identical either way.\n",
    )
    .to_string()
}

struct Cli {
    spec: SweepSpec,
    opts: SweepOptions,
    csv_path: Option<String>,
    json_path: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    // The spec file (if any) is loaded first so that every other flag
    // overrides it, regardless of position on the command line.
    let mut spec = match args.iter().position(|arg| arg == "--spec") {
        Some(pos) => {
            let path = args
                .get(pos + 1)
                .ok_or_else(|| "--spec needs a value".to_string())?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file {path}: {e}"))?;
            parse_sweep_spec(&text)?
        }
        None => SweepSpec::new("sweep"),
    };
    let have_spec_file = args.iter().any(|arg| arg == "--spec");
    let mut opts = SweepOptions::default();
    let mut csv_path = None;
    let mut json_path = None;
    let mut quick = false;
    let mut have_grid = have_spec_file;
    let mut have_label = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--spec" => {
                value("--spec")?; // consumed above
            }
            "--n" => {
                spec.grid.n = parse_list("--n", value("--n")?)?;
                have_grid = true;
            }
            "--b" => {
                spec.grid.b = parse_list("--b", value("--b")?)?;
                have_grid = true;
            }
            "--r" => {
                spec.grid.r = parse_list("--r", value("--r")?)?;
                have_grid = true;
            }
            "--s" => {
                spec.grid.s = parse_list("--s", value("--s")?)?;
                have_grid = true;
            }
            "--k" => {
                spec.grid.k = parse_list("--k", value("--k")?)?;
                have_grid = true;
            }
            "--strategies" => {
                spec.strategies = value("--strategies")?
                    .split(',')
                    .filter(|part| !part.is_empty())
                    .map(|part| StrategyKind::parse_spec(part.trim()).map_err(|e| e.to_string()))
                    .collect::<Result<_, String>>()?;
            }
            "--adversary" => {
                spec.adversaries = vec![parse_adversary(value("--adversary")?)?];
            }
            "--label" => {
                spec.label = value("--label")?.clone();
                have_label = true;
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads value".to_string())?;
            }
            "--timings" => opts.record_timings = true,
            "--quick" => quick = true,
            "--csv" => csv_path = Some(value("--csv")?.clone()),
            "--json" => json_path = Some(value("--json")?.clone()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }

    if quick && !have_grid {
        // The CI smoke grid: every family, tiny instances, exact adversary.
        spec.label = if have_label {
            spec.label
        } else {
            "quick".to_string()
        };
        spec.grid.n = vec![13];
        spec.grid.b = vec![26, 52];
        spec.grid.r = vec![3];
        spec.grid.s = vec![2];
        spec.grid.k = vec![3];
        if spec.strategies.is_empty() {
            spec.strategies = vec![
                StrategyKind::Combo,
                StrategyKind::Simple { x: 1 },
                StrategyKind::Ring,
                StrategyKind::Group,
                StrategyKind::parse_spec("random").expect("builtin spec"),
                StrategyKind::Adaptive,
            ];
        }
    }
    if spec.strategies.is_empty() {
        return Err(format!("no strategies selected\n\n{}", usage()));
    }
    if spec.cells().is_empty() {
        return Err(format!(
            "the spec produces no cells (empty or all-invalid grid)\n\n{}",
            usage()
        ));
    }
    Ok(Cli {
        spec,
        opts,
        csv_path,
        json_path,
    })
}

fn record_row(record: &SweepRecord) -> Vec<String> {
    let p = &record.cell.params;
    let mut row = vec![
        record.cell.index.to_string(),
        p.n().to_string(),
        p.b().to_string(),
        p.r().to_string(),
        p.s().to_string(),
        p.k().to_string(),
        csv_safe(&record.cell.adversary.label()),
    ];
    match &record.outcome {
        Ok(report) => row.extend([
            csv_safe(&report.strategy),
            report.lower_bound.to_string(),
            report.measured_availability.to_string(),
            report.worst_failed.to_string(),
            report.exact.to_string(),
            report.load_stats.max.to_string(),
            report.timings.attack_ns.to_string(),
            String::new(),
        ]),
        Err(e) => row.extend([
            csv_safe(&record.cell.kind.label()),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            csv_safe(e),
        ]),
    }
    row
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let cells = cli.spec.cells();
    eprintln!(
        "sweep '{}': {} cells on {} thread(s)",
        cli.spec.label,
        cells.len(),
        cli.opts.effective_threads().min(cells.len()).max(1)
    );
    let t = std::time::Instant::now();
    let records = sweep_with(&cli.spec, &cli.opts, SweepAdversary::new);
    let elapsed = t.elapsed();

    let header = [
        "index",
        "n",
        "b",
        "r",
        "s",
        "k",
        "adversary",
        "strategy",
        "lb_avail",
        "avail",
        "worst_failed",
        "exact",
        "max_load",
        "attack_ns",
        "error",
    ];
    let mut table = Table::new(header.map(String::from).to_vec());
    table.title(format!("sweep '{}'", cli.spec.label));
    let csv_path = cli
        .csv_path
        .map_or_else(|| results_dir().join("sweep.csv"), Into::into);
    let json_path = cli
        .json_path
        .map_or_else(|| results_dir().join("sweep.jsonl"), Into::into);
    let mut csv = Csv::new(csv_path, &header);
    let mut jsonl = JsonLines::new(json_path);
    let mut failures = 0usize;
    for record in &records {
        let row = record_row(record);
        table.row(row.clone());
        csv.row(&row);
        jsonl.record(record.to_json());
        failures += usize::from(record.outcome.is_err());
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
    println!("wrote {}", csv.path().display());
    println!("wrote {}", jsonl.path().display());
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "{} cells in {:.2}s ({:.1} cells/s), {} failed cells",
        records.len(),
        elapsed.as_secs_f64(),
        records.len() as f64 / secs,
        failures,
    );
    ExitCode::SUCCESS
}

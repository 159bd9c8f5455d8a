//! `churn` — availability over time under cluster churn.
//!
//! The dynamic counterpart of `sweep`: generate (or load) a seeded
//! membership-event trace, replay it through
//! `wcp_core::dynamic::DynamicEngine` for every strategy, and record —
//! per event — worst-case availability (incremental vs the from-scratch
//! oracle) and replicas moved (incremental vs what the full replan would
//! have moved). The sweep axes are trace length × strategy × adversary;
//! per-event records stream to JSON-lines and per-run summaries to CSV
//! under [`wcp_sim::results_dir`].
//!
//! ```text
//! churn --lengths 50,200 --strategies combo,ring,random --adversary auto
//! churn --trace results/churn_trace_200.json --strategies ring
//! churn --quick          # small smoke configuration (used by CI)
//! ```

use std::process::ExitCode;
use wcp_adversary::{AdversaryConfig, ScratchAdversary};
use wcp_core::dynamic::{DynamicConfig, DynamicEngine, MovementReport, StepReport};
use wcp_core::engine::{Attacker, ExhaustiveAttacker};
use wcp_core::{Parallelism, StrategyKind, SystemParams};
use wcp_sim::churn::{ChurnSpec, ChurnTrace};
use wcp_sim::record::Record;
use wcp_sim::{csv_safe, results_dir, Csv, JsonLines, Table};

fn usage() -> String {
    concat!(
        "usage: churn [--quick] [--trace FILE] [--capacity N] [--initial N]\n",
        "             [--b N] [--r N] [--s N] [--k N] [--lengths LIST]\n",
        "             [--strategies LIST] [--adversary auto[:BUDGET]|exhaustive[:BUDGET]]\n",
        "             [--threshold FRACTION] [--seed N] [--csv PATH] [--json PATH]\n",
        "\n",
        "Replays seeded churn traces through the DynamicEngine for every\n",
        "strategy, recording per-event availability and movement. LISTs are\n",
        "comma separated; strategy specs as for `sweep` (combo, ring, group,\n",
        "adaptive, simple:<x>, random[:<seed>], …). --trace replays one stored\n",
        "trace file instead of generating; --quick selects a small smoke\n",
        "configuration when no grid of your own is given.\n",
    )
    .to_string()
}

#[derive(Debug, Clone)]
enum AdversaryChoice {
    Auto { exact_budget: Option<u64> },
    Exhaustive { budget: Option<u64> },
}

impl AdversaryChoice {
    fn label(&self) -> String {
        match self {
            AdversaryChoice::Auto { exact_budget } => {
                format!(
                    "auto({})",
                    exact_budget.unwrap_or_else(|| AdversaryConfig::default().exact_budget)
                )
            }
            AdversaryChoice::Exhaustive { budget } => {
                format!("exhaustive({})", budget.unwrap_or(2_000_000))
            }
        }
    }
}

fn parse_adversary(value: &str) -> Result<AdversaryChoice, String> {
    let (kind, budget) = match value.split_once(':') {
        Some((kind, raw)) => (
            kind,
            Some(
                raw.parse::<u64>()
                    .map_err(|_| format!("invalid adversary budget '{raw}'"))?,
            ),
        ),
        None => (value, None),
    };
    match kind {
        "auto" => Ok(AdversaryChoice::Auto {
            exact_budget: budget,
        }),
        "exhaustive" => Ok(AdversaryChoice::Exhaustive { budget }),
        other => Err(format!(
            "unknown adversary '{other}' (expected auto or exhaustive)"
        )),
    }
}

struct Cli {
    capacity: u16,
    initial: u16,
    b: u64,
    r: u16,
    s: u16,
    k: u16,
    lengths: Vec<usize>,
    strategies: Vec<StrategyKind>,
    adversary: AdversaryChoice,
    threshold: f64,
    seed: u64,
    trace: Option<ChurnTrace>,
    csv_path: Option<String>,
    json_path: Option<String>,
}

fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("invalid {flag} entry '{part}'"))
        })
        .collect()
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        capacity: 80,
        initial: 71,
        b: 1200,
        r: 3,
        s: 2,
        k: 3,
        lengths: vec![50, 200],
        strategies: vec![
            StrategyKind::Combo,
            StrategyKind::Ring,
            StrategyKind::parse_spec("random").expect("builtin spec"),
        ],
        adversary: AdversaryChoice::Auto { exact_budget: None },
        threshold: 0.02,
        seed: 0,
        trace: None,
        csv_path: None,
        json_path: None,
    };
    let mut quick = false;
    let mut have_grid = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("invalid {flag} value '{raw}'"))
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--capacity" => {
                cli.capacity = parse_num("--capacity", value("--capacity")?)?;
                have_grid = true;
            }
            "--initial" => {
                cli.initial = parse_num("--initial", value("--initial")?)?;
                have_grid = true;
            }
            "--b" => {
                cli.b = parse_num("--b", value("--b")?)?;
                have_grid = true;
            }
            "--r" => cli.r = parse_num("--r", value("--r")?)?,
            "--s" => cli.s = parse_num("--s", value("--s")?)?,
            "--k" => cli.k = parse_num("--k", value("--k")?)?,
            "--seed" => cli.seed = parse_num("--seed", value("--seed")?)?,
            "--threshold" => {
                let raw = value("--threshold")?;
                cli.threshold = raw
                    .parse()
                    .map_err(|_| format!("invalid --threshold value '{raw}'"))?;
            }
            "--lengths" => {
                cli.lengths = parse_list("--lengths", value("--lengths")?)?;
                have_grid = true;
            }
            "--strategies" => {
                cli.strategies = value("--strategies")?
                    .split(',')
                    .filter(|part| !part.is_empty())
                    .map(|part| StrategyKind::parse_spec(part.trim()).map_err(|e| e.to_string()))
                    .collect::<Result<_, String>>()?;
            }
            "--adversary" => cli.adversary = parse_adversary(value("--adversary")?)?,
            "--trace" => {
                let path = value("--trace")?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read trace file {path}: {e}"))?;
                cli.trace = Some(ChurnTrace::parse(&text)?);
            }
            "--csv" => cli.csv_path = Some(value("--csv")?.clone()),
            "--json" => cli.json_path = Some(value("--json")?.clone()),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    // The CI smoke configuration — only when no grid of the user's own
    // was given (explicit flags win, as in the sweep binary).
    if quick && !have_grid && cli.trace.is_none() {
        cli.capacity = 16;
        cli.initial = 13;
        cli.b = 26;
        cli.lengths = vec![20];
    }
    if cli.strategies.is_empty() {
        return Err(format!("no strategies selected\n\n{}", usage()));
    }
    if cli.initial > cli.capacity {
        return Err(format!(
            "--initial {} exceeds --capacity {}",
            cli.initial, cli.capacity
        ));
    }
    Ok(cli)
}

/// One (trace, strategy) replay with whichever attacker the CLI chose.
fn run_one<A: Attacker>(
    params: SystemParams,
    kind: &StrategyKind,
    capacity: u16,
    config: DynamicConfig,
    attacker: A,
    trace: &ChurnTrace,
) -> Result<(Vec<StepReport>, MovementReport), String> {
    let mut engine = DynamicEngine::with_attacker(params, kind.clone(), capacity, config, attacker)
        .map_err(|e| e.to_string())?;
    let mut steps = Vec::with_capacity(trace.len());
    for event in &trace.events {
        steps.push(engine.apply(event.into()).map_err(|e| e.to_string())?);
    }
    Ok((steps, *engine.movement()))
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
    let config = DynamicConfig {
        threshold: cli.threshold,
        ..DynamicConfig::default()
    };

    // The traces: one stored file, or one generated per requested length.
    let traces: Vec<ChurnTrace> = match &cli.trace {
        Some(trace) => vec![trace.clone()],
        None => cli
            .lengths
            .iter()
            .map(|&len| {
                ChurnSpec {
                    seed_index: cli.seed,
                    ..ChurnSpec::new(format!("churn-{len}"), cli.capacity, cli.initial, len)
                }
                .generate()
            })
            .collect(),
    };

    let header = [
        "events",
        "strategy",
        "adversary",
        "repairs",
        "replans",
        "moved",
        "replan_moved",
        "movement_ratio",
        "min_avail",
        "final_avail",
        "all_exact",
    ];
    let mut table = Table::new(header.map(String::from).to_vec());
    table.title(format!(
        "churn: capacity={} initial={} b={} r={} s={} k={} threshold={}",
        cli.capacity, cli.initial, cli.b, cli.r, cli.s, cli.k, cli.threshold
    ));
    let csv_path = cli
        .csv_path
        .clone()
        .map_or_else(|| results_dir().join("churn.csv"), Into::into);
    let json_path = cli
        .json_path
        .clone()
        .map_or_else(|| results_dir().join("churn.jsonl"), Into::into);
    let mut csv = Csv::new(csv_path, &header);
    let mut jsonl = JsonLines::new(json_path);

    for trace in &traces {
        // A stored trace carries its own initial membership; generated
        // ones use the CLI's.
        let params = match SystemParams::new(trace.initial_active, cli.b, cli.r, cli.s, cli.k) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("invalid system parameters: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Persist the trace next to the results so any run replays
        // bit-for-bit via --trace.
        let trace_path = results_dir().join(format!("churn_trace_{}.json", trace.len()));
        if let Err(e) = std::fs::create_dir_all(results_dir())
            .and_then(|()| std::fs::write(&trace_path, trace.to_json() + "\n"))
        {
            eprintln!("cannot write {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
        for kind in &cli.strategies {
            let adversary_label = cli.adversary.label();
            let outcome = match &cli.adversary {
                AdversaryChoice::Auto { exact_budget } => {
                    // The ladder is bit-identical at any thread count,
                    // so honoring WCP_THREADS here keeps the replay
                    // byte-for-byte reproducible (the CI determinism
                    // matrix diffs exactly this output).
                    let mut adv = AdversaryConfig {
                        parallelism: Parallelism::from_env(),
                        ..AdversaryConfig::default()
                    };
                    if let Some(budget) = exact_budget {
                        adv.exact_budget = *budget;
                    }
                    run_one(
                        params,
                        kind,
                        trace.capacity,
                        config.clone(),
                        ScratchAdversary::new(adv),
                        trace,
                    )
                }
                AdversaryChoice::Exhaustive { budget } => run_one(
                    params,
                    kind,
                    trace.capacity,
                    config.clone(),
                    ExhaustiveAttacker {
                        budget: budget.unwrap_or_else(|| ExhaustiveAttacker::default().budget),
                    },
                    trace,
                ),
            };
            let (steps, movement) = match outcome {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("churn run failed ({} × {}): {e}", trace.len(), kind.label());
                    return ExitCode::FAILURE;
                }
            };
            for (i, step) in steps.iter().enumerate() {
                let record = Record::new("churn")
                    .strategy(kind.label())
                    .adversary(&adversary_label)
                    .extra_u64("events", trace.len() as u64)
                    .extra_u64("step", i as u64)
                    .report(step.to_value());
                jsonl.record(record.to_json());
            }
            let min_avail = steps.iter().map(|s| s.availability).min().unwrap_or(cli.b);
            let final_avail = steps.last().map_or(cli.b, |s| s.availability);
            let all_exact = steps.iter().all(|s| s.exact && s.oracle_exact);
            let row = vec![
                trace.len().to_string(),
                csv_safe(&kind.label()),
                csv_safe(&adversary_label),
                movement.repairs.to_string(),
                movement.replans.to_string(),
                movement.moved.to_string(),
                movement.replan_moved.to_string(),
                format!("{:.4}", movement.movement_ratio()),
                min_avail.to_string(),
                final_avail.to_string(),
                all_exact.to_string(),
            ];
            table.row(row.clone());
            csv.row(&row);
        }
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
    println!(
        "wrote {} ({} per-event records)",
        jsonl.path().display(),
        jsonl.len()
    );
    ExitCode::SUCCESS
}

//! `perfbench`: the placement service's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! One invocation runs one workload in its own process and prints a
//! table of what it measured and checked, then, as its last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. `--quick` runs the workload at a tiny size.
//! README.md describes the workloads and every metric.

#![forbid(unsafe_code)]

mod adapter;
mod attacker;
mod client;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use workloads::{Run, Workload};

const USAGE: &str =
    "usage: perfbench --workload <serve_hot_1m|churn_certified_100k|certify_k5_families> \
     --seed <n> --seconds <s> --trace <0|1> [--quick]";

fn parse(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Run {
        workload,
        seed,
        seconds,
        trace,
        quick,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let header = format!(
        "workload {} seed {} seconds {} trace {}{} threads_available {}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.quick { " quick" } else { "" },
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let expected: &[(&str, &str)] = if run.trace {
        &layers::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!("{}", workloads::run(&run).render(&header, expected));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_sim::json::Value;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let run = parse(&args(
            "--workload churn_certified_100k --seed 7 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workload, Workload::ChurnCertified100k);
        assert_eq!(
            (run.seed, run.seconds, run.trace, run.quick),
            (7, 30.0, true, false)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload serve_hot_1m --trace 2")).is_err());
        assert!(parse(&args("--workload serve_hot_1m --seconds 0")).is_err());
        assert!(parse(&args("--seed 3")).is_err());
        assert!(parse(&args("--workload serve_hot_1m --seed")).is_err());
    }

    /// Runs every workload at its quick size, untraced and traced: every
    /// check passes, nothing fails, and every listed metric is reported.
    #[test]
    fn every_workload_runs_clean_at_quick_size() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let run = Run {
                    workload,
                    seed: 11,
                    seconds: 0.2,
                    trace,
                    quick: true,
                };
                let expected: &[(&str, &str)] = if trace {
                    &layers::PER_LAYER
                } else {
                    &report::END_TO_END
                };
                let text = workloads::run(&run).render(workload.name(), expected);
                let last = Value::parse(text.lines().last().unwrap()).unwrap();
                assert_eq!(
                    last.get("correct").and_then(Value::as_bool),
                    Some(true),
                    "{text}"
                );
                assert_eq!(
                    last.get("failed").and_then(Value::as_u64),
                    Some(0),
                    "{text}"
                );
                let metrics = last.get("metrics").unwrap();
                for (name, _) in expected {
                    assert!(metrics.get(name).is_some(), "{name} missing:\n{text}");
                }
            }
        }
    }
}

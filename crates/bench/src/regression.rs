//! Benchmark-snapshot regression analysis.
//!
//! CI records fresh `BENCH_strategies.json` / `BENCH_adversary.json` /
//! `BENCH_domains.json` snapshots on every run and compares each
//! against its committed baseline with [`compare`]: per *family* (the name up to its
//! parameter list — `simple(x=0, λ=60)` and `simple(x=1, λ=10)` are
//! both family `simple`; adversary series names are their own
//! families), the mean of the median times must not regress by more
//! than the threshold. Four snapshot schemas are accepted:
//! `strategies[].{strategy, median_pipeline_ns}` (the engine sweep),
//! `series[].{name, median_ns}` (the adversary kernel-vs-scalar bench),
//! `certified[].{name, median_ns, certificate}` (ladder timings
//! that carry their availability certificates along; the gate reads
//! the timings and ignores the certificates — `wcp-verify` owns
//! those), `scale[].{name, b, median_ns, evals_per_second,
//! peak_rss_bytes}` (the million-object regime; the gate reads the
//! timings, the committed-snapshot pin test enforces the RSS budget)
//! and `service[].{name, threads, median_ns, lookups_per_second,
//! p99_staleness_epochs, peak_rss_bytes}` (the serving-layer closed
//! loop; the gate reads the per-lookup timings, the committed-snapshot
//! pin test enforces the single-threaded lookup-rate floor). The
//! engine sweep's answers are deterministic, so [`answer_mismatches`]
//! additionally requires every strategy present in both snapshots to
//! agree on `lower_bound`, `measured_availability` and `exact`. The
//! `bench_regression` binary wraps both checks as a CI-friendly exit
//! code.

use wcp_sim::json::Value;

/// Mean measured cost of one strategy family in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyTime {
    /// Family label (strategy name up to the first `(`).
    pub family: String,
    /// Mean of the family's `median_pipeline_ns` entries.
    pub mean_ns: f64,
    /// Number of strategies aggregated.
    pub strategies: usize,
}

/// The strategy family of a snapshot strategy name.
#[must_use]
pub fn family_of(strategy: &str) -> &str {
    strategy.split('(').next().unwrap_or(strategy).trim()
}

/// Parses a benchmark snapshot (either schema, see the module docs)
/// into per-family mean times, preserving first-appearance order.
///
/// # Errors
///
/// A message when the document is not JSON or matches none of the
/// `strategies[].{strategy, median_pipeline_ns}`,
/// `series[].{name, median_ns}`, `certified[].{name, median_ns}` and
/// `scale[].{name, median_ns, peak_rss_bytes}` shapes.
pub fn family_means(snapshot: &str) -> Result<Vec<FamilyTime>, String> {
    let doc = Value::parse(snapshot).map_err(|e| e.to_string())?;
    let (entries, name_key, ns_key) =
        if let Some(arr) = doc.get("strategies").and_then(Value::as_array) {
            (arr, "strategy", "median_pipeline_ns")
        } else if let Some(arr) = doc.get("series").and_then(Value::as_array) {
            (arr, "name", "median_ns")
        } else if let Some(arr) = doc.get("certified").and_then(Value::as_array) {
            (arr, "name", "median_ns")
        } else if let Some(arr) = doc.get("scale").and_then(Value::as_array) {
            // The scale-regime snapshot: entries additionally carry `b` and
            // `peak_rss_bytes`; the gate reads only the timings.
            (arr, "name", "median_ns")
        } else if let Some(arr) = doc.get("service").and_then(Value::as_array) {
            // The serving-layer snapshot: entries additionally carry
            // `threads`, `lookups_per_second`, `p99_staleness_epochs`
            // and `peak_rss_bytes`; the gate reads only the per-lookup
            // timings.
            (arr, "name", "median_ns")
        } else {
            return Err(
                "snapshot has none of the \"strategies\"/\"series\"/\"certified\"/\"scale\"/\
                 \"service\" arrays"
                    .to_string(),
            );
        };
    let mut families: Vec<FamilyTime> = Vec::new();
    for entry in entries {
        let name = entry
            .get(name_key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("snapshot entry without a \"{name_key}\" name"))?;
        let ns = entry
            .get(ns_key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("entry '{name}' lacks \"{ns_key}\""))?;
        let family = family_of(name);
        match families.iter_mut().find(|f| f.family == family) {
            Some(f) => {
                // Running mean keeps one pass over the entries.
                f.mean_ns += (ns - f.mean_ns) / (f.strategies as f64 + 1.0);
                f.strategies += 1;
            }
            None => families.push(FamilyTime {
                family: family.to_string(),
                mean_ns: ns,
                strategies: 1,
            }),
        }
    }
    if families.is_empty() {
        return Err("snapshot contains no entries".to_string());
    }
    Ok(families)
}

/// One family's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyDelta {
    /// Family label.
    pub family: String,
    /// Baseline mean, nanoseconds.
    pub baseline_ns: f64,
    /// Current mean, nanoseconds (`None` when the family vanished).
    pub current_ns: Option<f64>,
    /// `current / baseline − 1` (positive = slower).
    pub change: Option<f64>,
}

impl FamilyDelta {
    /// Whether this family fails the gate at `threshold` (fractional,
    /// e.g. `0.25`): a mean-time regression beyond it, or a family
    /// missing from the current snapshot.
    #[must_use]
    pub fn regressed(&self, threshold: f64) -> bool {
        match self.change {
            Some(change) => change > threshold,
            None => true,
        }
    }
}

/// Compares two snapshots family by family.
///
/// Families only present in the current snapshot are ignored (new
/// strategies are not regressions); families only present in the
/// baseline count as regressed — a strategy silently dropping out of
/// the benchmark must not pass the gate.
///
/// # Errors
///
/// Parse errors from either snapshot (see [`family_means`]).
pub fn compare(baseline: &str, current: &str) -> Result<Vec<FamilyDelta>, String> {
    let base = family_means(baseline)?;
    let cur = family_means(current)?;
    Ok(base
        .into_iter()
        .map(|b| {
            let current_ns = cur.iter().find(|c| c.family == b.family).map(|c| c.mean_ns);
            FamilyDelta {
                change: current_ns.map(|c| c / b.mean_ns - 1.0),
                family: b.family,
                baseline_ns: b.mean_ns,
                current_ns,
            }
        })
        .collect())
}

/// The deterministic per-strategy answers of a `strategies[]` snapshot.
pub const ANSWER_FIELDS: [&str; 3] = ["lower_bound", "measured_availability", "exact"];

/// One deterministic answer on which two `strategies[]` snapshots
/// disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerMismatch {
    /// The strategy both snapshots list.
    pub strategy: String,
    /// One of [`ANSWER_FIELDS`].
    pub field: &'static str,
    /// The baseline's value, as JSON (`null` when absent).
    pub baseline: String,
    /// The current snapshot's value, as JSON (`null` when absent).
    pub current: String,
}

/// The [`ANSWER_FIELDS`] on which a strategy present in both snapshots
/// differs. Only `strategies[]` snapshots carry answers; for any other
/// schema (in either snapshot) the list is empty, and strategies in only
/// one snapshot are [`compare`]'s business.
///
/// # Errors
///
/// A message when either document is not JSON.
pub fn answer_mismatches(baseline: &str, current: &str) -> Result<Vec<AnswerMismatch>, String> {
    let base_doc = Value::parse(baseline).map_err(|e| e.to_string())?;
    let cur_doc = Value::parse(current).map_err(|e| e.to_string())?;
    let (Some(base), Some(cur)) = (
        base_doc.get("strategies").and_then(Value::as_array),
        cur_doc.get("strategies").and_then(Value::as_array),
    ) else {
        return Ok(Vec::new());
    };
    fn name(entry: &Value) -> Option<&str> {
        entry.get("strategy").and_then(Value::as_str)
    }
    let render = |v: Option<&Value>| v.map_or_else(|| "null".to_string(), Value::to_json);
    let mut mismatches = Vec::new();
    for b in base {
        let Some(strategy) = name(b) else { continue };
        let Some(c) = cur.iter().find(|c| name(c) == Some(strategy)) else {
            continue;
        };
        for field in ANSWER_FIELDS {
            if b.get(field) != c.get(field) {
                mismatches.push(AnswerMismatch {
                    strategy: strategy.to_string(),
                    field,
                    baseline: render(b.get(field)),
                    current: render(c.get(field)),
                });
            }
        }
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(entries: &[(&str, u64)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(name, ns)| format!("  {{\"strategy\": {name:?}, \"median_pipeline_ns\": {ns}}}"))
            .collect();
        format!("{{\n\"strategies\": [\n{}\n]\n}}\n", body.join(",\n"))
    }

    #[test]
    fn families_aggregate_parameterized_strategies() {
        let fams = family_means(&snapshot(&[
            ("simple(x=0, λ=60)", 100),
            ("simple(x=1, λ=10)", 300),
            ("ring", 50),
            ("random(load-balanced)", 70),
        ]))
        .unwrap();
        assert_eq!(fams.len(), 3);
        assert_eq!(fams[0].family, "simple");
        assert_eq!(fams[0].strategies, 2);
        assert!((fams[0].mean_ns - 200.0).abs() < 1e-9);
        assert_eq!(fams[1].family, "ring");
        assert_eq!(fams[2].family, "random");
    }

    #[test]
    fn within_threshold_passes() {
        let base = snapshot(&[("ring", 100), ("combo", 200)]);
        let cur = snapshot(&[("ring", 120), ("combo", 190)]);
        let deltas = compare(&base, &cur).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed(0.25)));
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        // The acceptance scenario: one family 60% slower than baseline
        // must trip the 25% gate while the others stay green.
        let base = snapshot(&[
            ("simple(x=0, λ=60)", 100_000),
            ("simple(x=1, λ=10)", 100_000),
            ("combo", 200_000),
            ("ring", 50_000),
        ]);
        let cur = snapshot(&[
            ("simple(x=0, λ=60)", 160_000),
            ("simple(x=1, λ=10)", 160_000),
            ("combo", 210_000),
            ("ring", 49_000),
        ]);
        let deltas = compare(&base, &cur).unwrap();
        let simple = deltas.iter().find(|d| d.family == "simple").unwrap();
        assert!(simple.regressed(0.25));
        assert!((simple.change.unwrap() - 0.6).abs() < 1e-9);
        assert!(!deltas
            .iter()
            .find(|d| d.family == "combo")
            .unwrap()
            .regressed(0.25));
        assert!(!deltas
            .iter()
            .find(|d| d.family == "ring")
            .unwrap()
            .regressed(0.25));
    }

    #[test]
    fn vanished_family_counts_as_regressed() {
        let base = snapshot(&[("ring", 100), ("combo", 200)]);
        let cur = snapshot(&[("ring", 100)]);
        let deltas = compare(&base, &cur).unwrap();
        let combo = deltas.iter().find(|d| d.family == "combo").unwrap();
        assert_eq!(combo.current_ns, None);
        assert!(combo.regressed(0.25));
    }

    #[test]
    fn new_family_is_not_a_regression() {
        let base = snapshot(&[("ring", 100)]);
        let cur = snapshot(&[("ring", 100), ("teleport", 999_999)]);
        let deltas = compare(&base, &cur).unwrap();
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].regressed(0.25));
    }

    #[test]
    fn committed_baseline_parses() {
        let text = include_str!("../BENCH_strategies.json");
        let fams = family_means(text).unwrap();
        assert!(fams.iter().any(|f| f.family == "simple"));
        assert!(fams.iter().any(|f| f.family == "combo"));
        assert!(fams.iter().all(|f| f.mean_ns > 0.0));
    }

    /// A strategies snapshot with answers: `(name, lower_bound,
    /// measured_availability, exact)`.
    fn answered<S: AsRef<str>>(entries: &[(S, i64, u64, bool)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(name, lb, avail, exact)| {
                let name = name.as_ref();
                format!(
                    "  {{\"strategy\": {name:?}, \"lower_bound\": {lb}, \
                     \"measured_availability\": {avail}, \"exact\": {exact}, \
                     \"median_pipeline_ns\": 1000}}"
                )
            })
            .collect();
        format!("{{\n\"strategies\": [\n{}\n]\n}}\n", body.join(",\n"))
    }

    #[test]
    fn synthetic_answer_mismatch_fails_the_gate() {
        let base = answered(&[("ring", 0, 200, true), ("combo", 230, 230, true)]);
        let same = answered(&[("combo", 230, 230, true), ("ring", 0, 200, true)]);
        assert_eq!(answer_mismatches(&base, &same).unwrap(), Vec::new());
        let cur = answered(&[
            ("ring", 0, 201, false),
            ("combo", 230, 230, true),
            ("teleport", 9, 9, true),
        ]);
        let got = answer_mismatches(&base, &cur).unwrap();
        assert_eq!(
            got,
            vec![
                AnswerMismatch {
                    strategy: "ring".to_string(),
                    field: "measured_availability",
                    baseline: "200".to_string(),
                    current: "201".to_string(),
                },
                AnswerMismatch {
                    strategy: "ring".to_string(),
                    field: "exact",
                    baseline: "true".to_string(),
                    current: "false".to_string(),
                },
            ]
        );
        // A stale bound is caught too; a strategy in one snapshot only
        // is left to the timing gate.
        let stale = answered(&[("ring", 5, 200, true)]);
        let got = answer_mismatches(&stale, &base).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].field, "lower_bound");
        // Snapshots without answers have nothing to compare.
        let timing_only = snapshot(&[("ring", 100)]);
        assert_eq!(
            answer_mismatches(&timing_only, &timing_only).unwrap(),
            Vec::new()
        );
        assert!(answer_mismatches("not json", &base).is_err());
    }

    #[test]
    fn committed_strategies_snapshot_matches_a_fresh_evaluation() {
        // The engine sweep's answers are deterministic: re-evaluate every
        // committed strategy at the snapshot's parameters and gate the
        // committed answers against the fresh ones.
        use wcp_core::{Engine, StrategyKind, SystemParams};
        let committed = include_str!("../BENCH_strategies.json");
        let doc = Value::parse(committed).unwrap();
        let param = |k: &str| {
            doc.get("params")
                .and_then(|p| p.get(k))
                .and_then(Value::as_u64)
                .unwrap()
        };
        let narrow = |k: &str| u16::try_from(param(k)).unwrap();
        let params = SystemParams::new(
            narrow("n"),
            param("b"),
            narrow("r"),
            narrow("s"),
            narrow("k"),
        )
        .unwrap();
        let engine = Engine::new(params);
        let fresh: Vec<(String, i64, u64, bool)> = StrategyKind::all(&params)
            .iter()
            .map(|kind| {
                let report = engine.evaluate(kind).unwrap();
                (
                    report.strategy,
                    report.lower_bound,
                    report.measured_availability,
                    report.exact,
                )
            })
            .collect();
        let mismatches = answer_mismatches(committed, &answered(&fresh)).unwrap();
        assert_eq!(mismatches, Vec::new());
        // Every committed strategy was re-evaluated, none skipped.
        let committed_names = doc.get("strategies").and_then(Value::as_array).unwrap();
        for entry in committed_names {
            let name = entry.get("strategy").and_then(Value::as_str).unwrap();
            assert!(
                fresh.iter().any(|(n, ..)| n == name),
                "{name} not re-evaluated"
            );
        }
    }

    #[test]
    fn series_schema_parses_and_gates() {
        let snap = concat!(
            "{\"shape\": {\"n\": 71}, \"series\": [\n",
            "  {\"name\": \"scalar_ladder\", \"median_ns\": 1000},\n",
            "  {\"name\": \"packed_ladder\", \"median_ns\": 100}\n",
            "]}"
        );
        let fams = family_means(snap).unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].family, "scalar_ladder");
        let regressed = concat!(
            "{\"series\": [\n",
            "  {\"name\": \"scalar_ladder\", \"median_ns\": 1000},\n",
            "  {\"name\": \"packed_ladder\", \"median_ns\": 200}\n",
            "]}"
        );
        let deltas = compare(snap, regressed).unwrap();
        assert!(deltas
            .iter()
            .find(|d| d.family == "packed_ladder")
            .unwrap()
            .regressed(0.25));
        assert!(!deltas
            .iter()
            .find(|d| d.family == "scalar_ladder")
            .unwrap()
            .regressed(0.25));
    }

    #[test]
    fn committed_adversary_snapshot_records_the_kernel_speedup() {
        // The acceptance artifact: both series present, word-parallel
        // ladder ≥ 5× over the scalar baseline on the acceptance shape.
        let text = include_str!("../BENCH_adversary.json");
        let fams = family_means(text).unwrap();
        let ns_of = |name: &str| {
            fams.iter()
                .find(|f| f.family == name)
                .unwrap_or_else(|| panic!("series {name} missing"))
                .mean_ns
        };
        assert!(ns_of("packed_local_search") > 0.0);
        assert!(ns_of("scalar_local_search") > 0.0);
        let speedup = ns_of("scalar_ladder") / ns_of("packed_ladder");
        assert!(
            speedup >= 5.0,
            "committed ladder speedup {speedup:.2}x below the 5x acceptance bar"
        );
    }

    #[test]
    fn committed_parallel_snapshot_beats_the_pr4_kernel_twofold() {
        // The tentpole acceptance pin, asserted on the *committed*
        // snapshot because the CI box exposes a single core: the full
        // ladder at 4 threads must run ≥2× faster than the PR 4 serial
        // kernel's committed 2,394,682 ns on the n=71, b=1200, r=3,
        // s=2, k=3 acceptance shape.
        const PR4_PACKED_LADDER_NS: f64 = 2_394_682.0;
        let text = include_str!("../BENCH_adversary_parallel.json");
        let fams = family_means(text).unwrap();
        let ns_of = |name: &str| {
            fams.iter()
                .find(|f| f.family == name)
                .unwrap_or_else(|| panic!("series {name} missing"))
                .mean_ns
        };
        for name in ["ladder_t1", "ladder_t_half", "ladder_t_all", "exact_k5_t4"] {
            assert!(ns_of(name) > 0.0, "series {name} must be positive");
        }
        let speedup = PR4_PACKED_LADDER_NS / ns_of("ladder_t4");
        assert!(
            speedup >= 2.0,
            "committed 4-thread ladder {speedup:.2}x below the 2x acceptance bar"
        );
        // And the gate itself accepts the snapshot against itself.
        let deltas = compare(text, text).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed(0.25)));
    }

    #[test]
    fn committed_parallel_one_thread_column_matches_the_serial_kernel() {
        // The lane rework must not regress the serial path: the
        // 1-thread ladder column of the parallel snapshot stays within
        // the 25% gate envelope of BENCH_adversary.json's packed
        // ladder (both committed from the same benching run).
        let parallel = family_means(include_str!("../BENCH_adversary_parallel.json")).unwrap();
        let serial = family_means(include_str!("../BENCH_adversary.json")).unwrap();
        let ns_of = |fams: &[FamilyTime], name: &str| {
            fams.iter()
                .find(|f| f.family == name)
                .unwrap_or_else(|| panic!("series {name} missing"))
                .mean_ns
        };
        let t1 = ns_of(&parallel, "ladder_t1");
        let packed = ns_of(&serial, "packed_ladder");
        assert!(
            t1 <= packed * 1.25,
            "1-thread parallel ladder {t1:.0} ns regresses the serial \
             kernel's {packed:.0} ns beyond the 25% gate"
        );
    }

    #[test]
    fn committed_domains_snapshot_records_all_three_ladders() {
        // The failure-domain gate's baseline: node ladder, flat domain
        // ladder and rack domain ladder all present with positive
        // medians, and the flat indirection within a sane envelope of
        // the node ladder (it shares the same kernel; 2x would mean the
        // unit layer regressed badly).
        let text = include_str!("../BENCH_domains.json");
        let fams = family_means(text).unwrap();
        let ns_of = |name: &str| {
            fams.iter()
                .find(|f| f.family == name)
                .unwrap_or_else(|| panic!("series {name} missing"))
                .mean_ns
        };
        assert!(ns_of("rack_domain_ladder") > 0.0);
        let overhead = ns_of("flat_domain_ladder") / ns_of("node_ladder");
        assert!(
            overhead < 2.0,
            "flat domain ladder {overhead:.2}x over the node ladder"
        );
        // And the gate itself accepts the snapshot against itself.
        let deltas = compare(text, text).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed(0.25)));
    }

    #[test]
    fn certified_schema_parses_and_gates() {
        // Regression: snapshots whose entries carry availability
        // certificates used to be rejected as an unknown schema,
        // silently disabling the gate for certified ladder timings.
        let snap = concat!(
            "{\"certified\": [\n",
            "  {\"name\": \"ladder_k3\", \"median_ns\": 1000, ",
            "\"certificate\": {\"v\": 1, \"kind\": \"node\"}},\n",
            "  {\"name\": \"ladder_k5\", \"median_ns\": 4000, \"certificate\": null}\n",
            "]}"
        );
        let fams = family_means(snap).unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].family, "ladder_k3");
        let slower = snap.replace("\"median_ns\": 1000", "\"median_ns\": 1500");
        let deltas = compare(snap, &slower).unwrap();
        assert!(deltas
            .iter()
            .find(|d| d.family == "ladder_k3")
            .unwrap()
            .regressed(0.25));
        assert!(!deltas
            .iter()
            .find(|d| d.family == "ladder_k5")
            .unwrap()
            .regressed(0.25));
    }

    #[test]
    fn scale_schema_parses_and_gates() {
        let snap = concat!(
            "{\"shape\": {\"n\": 71, \"r\": 3, \"s\": 2, \"k\": 3}, \"scale\": [\n",
            "  {\"name\": \"ladder_b100k\", \"b\": 100000, \"median_ns\": 81250000, ",
            "\"evals_per_second\": 12.5, \"peak_rss_bytes\": 11534336},\n",
            "  {\"name\": \"ladder_b1m\", \"b\": 1000000, \"median_ns\": 800000000, ",
            "\"evals_per_second\": 1.25, \"peak_rss_bytes\": 91226112}\n",
            "]}"
        );
        let fams = family_means(snap).unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].family, "ladder_b100k");
        let slower = snap.replace("\"median_ns\": 81250000", "\"median_ns\": 120000000");
        let deltas = compare(snap, &slower).unwrap();
        assert!(deltas
            .iter()
            .find(|d| d.family == "ladder_b100k")
            .unwrap()
            .regressed(0.25));
        assert!(!deltas
            .iter()
            .find(|d| d.family == "ladder_b1m")
            .unwrap()
            .regressed(0.25));
    }

    #[test]
    fn committed_scale_snapshot_fits_the_memory_budget() {
        // The scale acceptance pin: both shapes present with positive
        // medians, and the committed peak RSS at b = 10⁶ within the
        // 2 GiB acceptance budget. The RSS is read from the raw JSON
        // because family_means only carries timings.
        let text = include_str!("../BENCH_scale.json");
        let fams = family_means(text).unwrap();
        let ns_of = |name: &str| {
            fams.iter()
                .find(|f| f.family == name)
                .unwrap_or_else(|| panic!("series {name} missing"))
                .mean_ns
        };
        assert!(ns_of("ladder_b100k") > 0.0);
        assert!(ns_of("ladder_b1m") > 0.0);
        let doc = wcp_sim::json::Value::parse(text).unwrap();
        let entries = doc.get("scale").and_then(Value::as_array).unwrap();
        for entry in entries {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let rss = entry.get("peak_rss_bytes").and_then(Value::as_f64).unwrap();
            assert!(
                rss > 0.0 && rss <= (2u64 << 30) as f64,
                "{name}: committed peak RSS {rss} outside (0, 2 GiB]"
            );
        }
        // And the gate itself accepts the snapshot against itself.
        let deltas = compare(text, text).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed(0.25)));
    }

    #[test]
    fn service_schema_parses_and_gates() {
        let snap = concat!(
            "{\"shape\": {\"n\": 71, \"b\": 1000000, \"r\": 3}, \"service\": [\n",
            "  {\"name\": \"closed_loop_t1\", \"threads\": 1, \"median_ns\": 4, ",
            "\"lookups_per_second\": 250000000, \"p99_staleness_epochs\": 0, ",
            "\"peak_rss_bytes\": 134217728},\n",
            "  {\"name\": \"closed_loop_t_all\", \"threads\": 8, \"median_ns\": 5, ",
            "\"lookups_per_second\": 1600000000, \"p99_staleness_epochs\": 1, ",
            "\"peak_rss_bytes\": 134217728}\n",
            "]}"
        );
        let fams = family_means(snap).unwrap();
        assert_eq!(fams.len(), 2);
        assert_eq!(fams[0].family, "closed_loop_t1");
        let slower = snap.replace("\"median_ns\": 4", "\"median_ns\": 6");
        let deltas = compare(snap, &slower).unwrap();
        assert!(deltas
            .iter()
            .find(|d| d.family == "closed_loop_t1")
            .unwrap()
            .regressed(0.25));
        assert!(!deltas
            .iter()
            .find(|d| d.family == "closed_loop_t_all")
            .unwrap()
            .regressed(0.25));
    }

    #[test]
    fn committed_service_snapshot_sustains_the_lookup_rate() {
        // The serving acceptance pin, on the *committed* snapshot: the
        // closed-loop zipf load test at one reader thread sustains at
        // least 1M lookups/s against the b = 10⁶ snapshot shape, and
        // every entry carries a positive timing and a sane RSS.
        let text = include_str!("../BENCH_service.json");
        let fams = family_means(text).unwrap();
        assert!(fams.iter().any(|f| f.family == "closed_loop_t1"));
        assert!(fams.iter().all(|f| f.mean_ns > 0.0));
        let doc = wcp_sim::json::Value::parse(text).unwrap();
        let entries = doc.get("service").and_then(Value::as_array).unwrap();
        for entry in entries {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let rss = entry.get("peak_rss_bytes").and_then(Value::as_f64).unwrap();
            assert!(rss > 0.0, "{name}: committed peak RSS must be positive");
            let rate = entry
                .get("lookups_per_second")
                .and_then(Value::as_f64)
                .unwrap();
            if name == "closed_loop_t1" {
                assert!(
                    rate >= 1e6,
                    "committed single-threaded rate {rate:.0}/s below the 1M lookups/s bar"
                );
            }
        }
        // And the gate itself accepts the snapshot against itself.
        let deltas = compare(text, text).unwrap();
        assert!(deltas.iter().all(|d| !d.regressed(0.25)));
    }

    #[test]
    fn malformed_snapshots_error() {
        assert!(family_means("{}").is_err());
        assert!(family_means("{\"strategies\": []}").is_err());
        assert!(family_means("{\"series\": []}").is_err());
        assert!(family_means("{\"certified\": []}").is_err());
        assert!(family_means("{\"scale\": []}").is_err());
        assert!(family_means("{\"service\": []}").is_err());
        assert!(family_means("{\"scale\": [{\"name\": \"x\"}]}").is_err());
        assert!(family_means("{\"strategies\": [{\"strategy\": \"x\"}]}").is_err());
        assert!(family_means("{\"series\": [{\"name\": \"x\"}]}").is_err());
        assert!(family_means("{\"certified\": [{\"name\": \"x\"}]}").is_err());
        assert!(family_means("{\"service\": [{\"name\": \"x\"}]}").is_err());
        assert!(family_means("nope").is_err());
    }
}

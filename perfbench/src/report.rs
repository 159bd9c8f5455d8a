//! What one run prints: a table with every metric's sample count, then
//! as the last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use wcp_sim::json::Value;

/// The end-to-end metrics every workload reports untraced, with units.
/// Each workload gives them its own operation; see README.md.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value, `None` when the run produced too few samples.
    pub value: Option<f64>,
    /// How many samples it summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric from `samples` values.
    pub fn new(name: &'static str, value: Option<f64>, samples: usize) -> Self {
        Self {
            name,
            value,
            samples,
        }
    }

    /// A count (one sample).
    pub fn count(name: &'static str, value: u64) -> Self {
        Self::new(name, Some(value as f64), 1)
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Named end-state checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Extra lines for the table (per-family times and the like).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-state check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Renders the table and the final JSON line, reporting exactly the
    /// metrics of `expected`. A missing or unmeasurable metric makes the
    /// run incorrect.
    pub fn render(mut self, header: &str, expected: &[(&'static str, &'static str)]) -> String {
        let mut rows = Vec::new();
        let mut members = Vec::new();
        for &(name, unit) in expected {
            let found = self.metrics.iter().find(|m| m.name == name).cloned();
            let (value, samples) =
                match found.as_ref().and_then(|m| m.value.map(|v| (v, m.samples))) {
                    Some((v, n)) if v.is_finite() => (v, n),
                    _ => {
                        self.check(format!("metric {name} measured"), false);
                        (0.0, 0)
                    }
                };
            rows.push(format!(
                "metric {name:<34} {value:>16.6} {unit:<6} samples={samples}"
            ));
            members.push((
                name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Num(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            ));
        }
        let correct = self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok);
        let mut out = format!("{header}\n");
        for line in &self.notes {
            out.push_str(&format!("note   {line}\n"));
        }
        for (name, ok) in &self.checks {
            out.push_str(&format!(
                "check  {name:<48} {}\n",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        let json = Value::Object(vec![
            ("correct".to_string(), Value::Bool(correct)),
            (
                "attempted".to_string(),
                Value::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Object(members)),
        ]);
        out.push_str(&json.to_json());
        out
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.metrics.push(Metric::new("setup_s", Some(0.25), 3));
        o.check("state", true);
        let text = o.render("workload x", &[("setup_s", "s")]);
        let last = text.lines().last().unwrap();
        let v = Value::parse(last).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(text.contains("samples=3"));
    }

    #[test]
    fn a_missing_metric_or_failure_makes_the_run_incorrect() {
        let o = Outcome::default();
        let text = o.render("x", &[("setup_s", "s")]);
        let v = Value::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        let o = Outcome {
            failed: 1,
            metrics: vec![Metric::new("setup_s", Some(1.0), 1)],
            ..Outcome::default()
        };
        let v = Value::parse(o.render("x", &[("setup_s", "s")]).lines().last().unwrap()).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}

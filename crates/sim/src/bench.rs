//! The one shape every `BENCH_*.json` snapshot has, and its one reader.
//!
//! ```text
//! {"shape": {…},
//!  "rows": [{"name": …, "median_ns": …, "answers": {…}, "metrics": {…}}, …]}
//! ```
//!
//! * `shape` — the fixed inputs of the bench (cluster shape, thresholds,
//!   labels), free-form.
//! * `rows[].name` — unique within the snapshot. The regression gate
//!   averages rows by family, the name up to its first `(`.
//! * `rows[].median_ns` — the gated timing, finite and positive.
//! * `rows[].answers` (optional) — deterministic outputs such as failed
//!   counts or exact flags. The gate requires them equal between a
//!   baseline and a fresh run.
//! * `rows[].metrics` (optional) — numbers reported beside the timing
//!   (rates, peak RSS, thread counts) and not gated.
//!
//! [`BenchSnapshot::parse`] is the single reader: the `bench_regression`
//! gate and wcp-lint's `bench-schema` rule both go through it, so they
//! refuse the same documents. [`BenchSnapshot::to_json`] writes one row
//! per line.

use crate::json::Value;
use std::collections::BTreeSet;

/// One benchmark snapshot (not to be confused with the serving layer's
/// epoch snapshots).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// The bench's fixed inputs, in order.
    pub shape: Vec<(String, Value)>,
    /// The measured rows, in order.
    pub rows: Vec<BenchRow>,
}

/// One measured row of a [`BenchSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Unique row name.
    pub name: String,
    /// The gated timing in nanoseconds.
    pub median_ns: f64,
    /// Deterministic outputs the gate requires unchanged, in order.
    pub answers: Vec<(String, Value)>,
    /// Ungated numbers reported beside the timing, in order; every value
    /// is a [`Value::Num`].
    pub metrics: Vec<(String, Value)>,
}

impl BenchRow {
    /// A row with a timing and no answers or metrics.
    #[must_use]
    pub fn new(name: impl Into<String>, median_ns: f64) -> Self {
        Self {
            name: name.into(),
            median_ns,
            answers: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Appends a deterministic answer.
    #[must_use]
    pub fn answer(mut self, key: impl Into<String>, value: Value) -> Self {
        self.answers.push((key.into(), value));
        self
    }

    /// Appends an ungated metric.
    #[must_use]
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), Value::Num(value)));
        self
    }

    /// An answer by key.
    #[must_use]
    pub fn answer_value(&self, key: &str) -> Option<&Value> {
        self.answers
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// A metric by key.
    #[must_use]
    pub fn metric_value(&self, key: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find_map(|(k, v)| (k == key).then(|| v.as_f64()).flatten())
    }

    fn to_value(&self) -> Value {
        let mut members = vec![
            ("name".to_string(), Value::from(self.name.as_str())),
            ("median_ns".to_string(), Value::Num(self.median_ns)),
        ];
        if !self.answers.is_empty() {
            members.push(("answers".to_string(), Value::Object(self.answers.clone())));
        }
        if !self.metrics.is_empty() {
            members.push(("metrics".to_string(), Value::Object(self.metrics.clone())));
        }
        Value::Object(members)
    }

    fn from_value(index: usize, row: &Value) -> Result<Self, String> {
        let Value::Object(members) = row else {
            return Err(format!("rows[{index}] is not an object"));
        };
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("rows[{index}] lacks a string \"name\""))?;
        let at = format!("rows[{index}] ({name:?})");
        if let Some((key, _)) = members
            .iter()
            .find(|(k, _)| !matches!(k.as_str(), "name" | "median_ns" | "answers" | "metrics"))
        {
            return Err(format!("{at} has an unknown member {key:?}"));
        }
        let median_ns = row
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{at} lacks a numeric \"median_ns\""))?;
        if !(median_ns.is_finite() && median_ns > 0.0) {
            return Err(format!(
                "{at} has a non-positive or non-finite median_ns = {median_ns}"
            ));
        }
        let answers = match row.get("answers") {
            None => Vec::new(),
            Some(Value::Object(answers)) => answers.clone(),
            Some(_) => return Err(format!("{at} \"answers\" is not an object")),
        };
        let metrics = match row.get("metrics") {
            None => Vec::new(),
            Some(Value::Object(metrics)) => {
                if let Some((key, _)) = metrics.iter().find(|(_, v)| v.as_f64().is_none()) {
                    return Err(format!("{at} metric {key:?} is not a number"));
                }
                metrics.clone()
            }
            Some(_) => return Err(format!("{at} \"metrics\" is not an object")),
        };
        Ok(Self {
            name: name.to_string(),
            median_ns,
            answers,
            metrics,
        })
    }
}

impl BenchSnapshot {
    /// A snapshot of `shape` with no rows yet.
    #[must_use]
    pub fn new<const N: usize>(shape: [(&str, Value); N]) -> Self {
        Self {
            shape: shape
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
            rows: Vec::new(),
        }
    }

    /// A shape member by key.
    #[must_use]
    pub fn shape_value(&self, key: &str) -> Option<&Value> {
        self.shape.iter().find_map(|(k, v)| (k == key).then_some(v))
    }

    /// The row named `name`.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the snapshot with one row per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            ("shape".to_string(), Value::Object(self.shape.clone())),
            (
                "rows".to_string(),
                Value::Array(self.rows.iter().map(BenchRow::to_value).collect()),
            ),
        ])
        .to_json_lines()
    }

    /// Reads a snapshot.
    ///
    /// # Errors
    ///
    /// A message naming the first problem: malformed JSON, a member
    /// other than `shape` and `rows` (or, in a row, other than `name`,
    /// `median_ns`, `answers` and `metrics`), no rows, a row without a
    /// string name, a duplicate name (it would skew its family's mean),
    /// a `median_ns` that is not a finite positive number, or a
    /// non-numeric metric.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let Value::Object(members) = &doc else {
            return Err("snapshot is not a JSON object".to_string());
        };
        if let Some((key, _)) = members.iter().find(|(k, _)| k != "shape" && k != "rows") {
            return Err(format!(
                "snapshot has an unknown member {key:?} (only \"shape\" and \"rows\")"
            ));
        }
        let shape = match doc.get("shape") {
            Some(Value::Object(shape)) => shape.clone(),
            _ => return Err("snapshot lacks a \"shape\" object".to_string()),
        };
        let raw_rows = doc
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("snapshot lacks a \"rows\" array")?;
        if raw_rows.is_empty() {
            return Err("\"rows\" is empty: an empty baseline gates nothing".to_string());
        }
        let mut rows: Vec<BenchRow> = Vec::with_capacity(raw_rows.len());
        let mut names = BTreeSet::new();
        for (index, raw) in raw_rows.iter().enumerate() {
            let row = BenchRow::from_value(index, raw)?;
            if !names.insert(row.name.clone()) {
                return Err(format!(
                    "duplicate row name {:?} would skew its family's mean",
                    row.name
                ));
            }
            rows.push(row);
        }
        Ok(Self { shape, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        let mut snap = BenchSnapshot::new([("n", 71u16.into()), ("label", "bench".into())]);
        snap.rows.push(
            BenchRow::new("exact_k5_t4 (threads=4)", 216_664_570.0)
                .answer("failed", 34u64.into())
                .metric("evals_per_second", 4.6),
        );
        snap.rows.push(BenchRow::new("closed_loop_t1", 2.175));
        snap
    }

    #[test]
    fn writes_one_row_per_line_and_reads_it_back() {
        let snap = sample();
        let text = snap.to_json();
        assert_eq!(
            text,
            concat!(
                "{\n\"shape\": {\"n\": 71, \"label\": \"bench\"},\n\"rows\": [\n",
                "  {\"name\": \"exact_k5_t4 (threads=4)\", \"median_ns\": 216664570, ",
                "\"answers\": {\"failed\": 34}, \"metrics\": {\"evals_per_second\": 4.6}},\n",
                "  {\"name\": \"closed_loop_t1\", \"median_ns\": 2.175}\n]\n}\n"
            )
        );
        assert_eq!(BenchSnapshot::parse(&text), Ok(snap.clone()));
        let row = snap.row("exact_k5_t4 (threads=4)").unwrap();
        assert_eq!(row.answer_value("failed"), Some(&Value::Num(34.0)));
        assert_eq!(row.metric_value("evals_per_second"), Some(4.6));
        assert_eq!(snap.shape_value("n"), Some(&Value::Num(71.0)));
    }

    #[test]
    fn parse_refuses_what_the_gate_must_not_read() {
        for (text, needle) in [
            ("nope", "JSON parse error"),
            ("[]", "not a JSON object"),
            (
                "{\"rows\": [{\"name\": \"x\", \"median_ns\": 1}]}",
                "\"shape\"",
            ),
            ("{\"shape\": {}}", "\"rows\""),
            ("{\"shape\": {}, \"rows\": []}", "empty"),
            (
                "{\"shape\": {}, \"rows\": [], \"series\": []}",
                "unknown member \"series\"",
            ),
            ("{\"shape\": {}, \"rows\": [7]}", "not an object"),
            (
                "{\"shape\": {}, \"rows\": [{\"median_ns\": 5}]}",
                "string \"name\"",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\"}]}",
                "numeric \"median_ns\"",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 0}]}",
                "non-positive",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": -3}]}",
                "non-positive",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 1}, \
                 {\"name\": \"x\", \"median_ns\": 2}]}",
                "duplicate",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 1, \
                 \"metrics\": {\"rss\": \"big\"}}]}",
                "not a number",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 1, \
                 \"answers\": 3}]}",
                "\"answers\" is not an object",
            ),
            (
                "{\"shape\": {}, \"rows\": [{\"name\": \"x\", \"median_ns\": 1, \
                 \"certificate\": null}]}",
                "unknown member \"certificate\"",
            ),
        ] {
            let err = BenchSnapshot::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} => {err}");
        }
    }
}

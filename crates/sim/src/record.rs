//! The one JSONL record shape every experiment binary emits.
//!
//! Historically `sweep`, `churn` and `domains` each hand-rolled their
//! own line format and `wcp-verify` grew a parser per shape. [`Record`]
//! replaces the three: one envelope naming the experiment, the strategy
//! (label + rebuildable planner `spec`), the adversary, the
//! experiment-specific scalars (`extras`), and the three optional
//! payloads downstream tools care about — the measurement `report`, a
//! bare `certificate` (only when the record carries one *outside* a
//! report), and the `topology` the run attacked under.
//!
//! The payloads stay opaque [`Value`]s here: `wcp-sim` sits at rank 0
//! and cannot name `wcp_core::Certificate`, so the core report types
//! hand over their `to_value()` trees, and the consumers (`wcp-verify`)
//! re-parse them through the typed constructors.
//! [`Record::certificate`] is the single lookup the verifier uses —
//! it finds a certificate wherever the record put it (embedded in the
//! report, as evaluation and step reports do, or top-level).
//!
//! Writing and parsing round-trip exactly: `Record::parse(r.to_json())`
//! reproduces `r` field for field, including `extras` order.

use crate::json::Value;

/// One experiment result line. Construct with [`Record::new`] plus the
/// builder methods; serialize with [`Record::to_json`]; read back with
/// [`Record::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which binary produced the record (`"sweep"`, `"churn"`,
    /// `"domains"`, `"service"`, …).
    pub experiment: String,
    /// Strategy display label, when the record concerns one placement.
    pub strategy: Option<String>,
    /// Rebuildable planner spec (`StrategyKind::spec`) — present iff
    /// the placement can be reconstructed from parameters alone.
    pub spec: Option<String>,
    /// Adversary label the outcome was measured under.
    pub adversary: Option<String>,
    /// Experiment-specific scalars (cell index, seed, step number,
    /// racks/zones, …), in emission order.
    pub extras: Vec<(String, Value)>,
    /// The failure-domain tree of the run, in `wcp_core::Topology`'s
    /// wire form (`Topology::to_value` / `Topology::from_value`), or a
    /// `{"racks": …, "zones": …}` label for display-only use.
    pub topology: Option<Value>,
    /// The measurement payload (evaluation or step report), verbatim.
    pub report: Option<Value>,
    /// A certificate carried *outside* any report (e.g. a repaired
    /// placement that has no spec to re-evaluate). Prefer
    /// [`Record::certificate`] for reading.
    pub certificate: Option<Value>,
    /// The failure message, for cells that produced no report.
    pub error: Option<String>,
}

impl Record {
    /// An empty record for `experiment`.
    #[must_use]
    pub fn new(experiment: impl Into<String>) -> Self {
        Self {
            experiment: experiment.into(),
            strategy: None,
            spec: None,
            adversary: None,
            extras: Vec::new(),
            topology: None,
            report: None,
            certificate: None,
            error: None,
        }
    }

    /// Sets the strategy label.
    #[must_use]
    pub fn strategy(mut self, label: impl Into<String>) -> Self {
        self.strategy = Some(label.into());
        self
    }

    /// Sets the rebuildable planner spec.
    #[must_use]
    pub fn spec(mut self, spec: impl Into<String>) -> Self {
        self.spec = Some(spec.into());
        self
    }

    /// Sets the adversary label.
    #[must_use]
    pub fn adversary(mut self, label: impl Into<String>) -> Self {
        self.adversary = Some(label.into());
        self
    }

    /// Appends an experiment-specific scalar.
    #[must_use]
    pub fn extra(mut self, key: impl Into<String>, value: Value) -> Self {
        self.extras.push((key.into(), value));
        self
    }

    /// Appends an integer scalar (the common case).
    #[must_use]
    pub fn extra_u64(self, key: impl Into<String>, value: u64) -> Self {
        self.extra(key, Value::Num(value as f64))
    }

    /// Attaches the topology description.
    #[must_use]
    pub fn topology(mut self, topology: Value) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Attaches the report payload (how the core report types expose
    /// themselves: `to_value()`).
    #[must_use]
    pub fn report(mut self, report: Value) -> Self {
        self.report = Some(report);
        self
    }

    /// Attaches a bare certificate, one carried outside any report.
    #[must_use]
    pub fn bare_certificate(mut self, certificate: Value) -> Self {
        self.certificate = Some(certificate);
        self
    }

    /// Marks the record as a failed cell.
    #[must_use]
    pub fn error(mut self, message: impl Into<String>) -> Self {
        self.error = Some(message.into());
        self
    }

    /// The record's certificate, wherever it lives: inside the report
    /// (evaluation/step reports embed theirs) or top-level. `None`
    /// also when the stored certificate is JSON `null`.
    #[must_use]
    pub fn certificate(&self) -> Option<&Value> {
        let embedded = self
            .report
            .as_ref()
            .and_then(|r| r.get("certificate"))
            .or(self.certificate.as_ref());
        match embedded {
            Some(Value::Null) | None => None,
            Some(v) => Some(v),
        }
    }

    /// An extras scalar by key.
    #[must_use]
    pub fn extra_value(&self, key: &str) -> Option<&Value> {
        self.extras
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Renders the record as one JSONL line (canonical key order; empty
    /// fields are omitted, so records stay as terse as the hand-rolled
    /// formats they replaced).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut members: Vec<(String, Value)> =
            vec![("experiment".into(), Value::Str(self.experiment.clone()))];
        for (key, v) in [
            ("strategy", &self.strategy),
            ("spec", &self.spec),
            ("adversary", &self.adversary),
        ] {
            if let Some(s) = v {
                members.push((key.into(), Value::Str(s.clone())));
            }
        }
        if !self.extras.is_empty() {
            members.push(("extras".into(), Value::Object(self.extras.clone())));
        }
        if let Some(t) = &self.topology {
            members.push(("topology".into(), t.clone()));
        }
        if let Some(r) = &self.report {
            members.push(("report".into(), r.clone()));
        }
        if let Some(c) = &self.certificate {
            members.push(("certificate".into(), c.clone()));
        }
        if let Some(e) = &self.error {
            members.push(("error".into(), Value::Str(e.clone())));
        }
        Value::Object(members).to_json()
    }

    /// Parses one JSONL line back into a [`Record`].
    ///
    /// # Errors
    ///
    /// On malformed JSON, a missing/non-string `experiment` field, or
    /// a field of the wrong JSON type.
    pub fn parse(line: &str) -> Result<Self, String> {
        let value = Value::parse(line).map_err(|e| e.to_string())?;
        let experiment = value
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("record has no \"experiment\" field")?
            .to_string();
        let string_field = |key: &str| -> Result<Option<String>, String> {
            match value.get(key) {
                None | Some(Value::Null) => Ok(None),
                Some(Value::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("field \"{key}\" must be a string")),
            }
        };
        let extras = match value.get("extras") {
            None => Vec::new(),
            Some(Value::Object(members)) => members.clone(),
            Some(_) => return Err("field \"extras\" must be an object".into()),
        };
        Ok(Self {
            experiment,
            strategy: string_field("strategy")?,
            spec: string_field("spec")?,
            adversary: string_field("adversary")?,
            extras,
            topology: value.get("topology").cloned(),
            report: value.get("report").cloned(),
            certificate: value.get("certificate").cloned(),
            error: string_field("error")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record::new("sweep")
            .strategy("combo")
            .spec("combo")
            .adversary("auto")
            .extra_u64("index", 3)
            .extra_u64("seed", 41)
            .topology(Value::Object(vec![
                ("racks".into(), Value::Num(4.0)),
                ("zones".into(), Value::Num(2.0)),
            ]))
            .report(Value::object([
                ("params", Value::object([("n", 12u16.into())])),
                ("certificate", Value::object([("kind", "node".into())])),
            ]))
    }

    #[test]
    fn round_trips_field_for_field() {
        let r = sample();
        assert_eq!(Record::parse(&r.to_json()).unwrap(), r);
        let minimal = Record::new("churn");
        assert_eq!(Record::parse(&minimal.to_json()).unwrap(), minimal);
        let failed = Record::new("sweep")
            .strategy("simple(2)")
            .error("no design");
        assert_eq!(Record::parse(&failed.to_json()).unwrap(), failed);
    }

    #[test]
    fn certificate_lookup_prefers_the_report_and_skips_nulls() {
        let embedded = sample();
        assert_eq!(
            embedded.certificate().and_then(|c| c.get("kind")),
            Some(&Value::Str("node".into()))
        );
        let bare =
            Record::new("domains").bare_certificate(Value::object([("kind", "domain".into())]));
        assert_eq!(
            bare.certificate().and_then(|c| c.get("kind")),
            Some(&Value::Str("domain".into()))
        );
        let null_cert = Record::new("churn").report(Value::object([("certificate", Value::Null)]));
        assert_eq!(null_cert.certificate(), None);
        assert_eq!(Record::new("x").certificate(), None);
    }

    #[test]
    fn extras_preserve_order_and_lookup_works() {
        let r = sample();
        let keys: Vec<&str> = r.extras.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["index", "seed"]);
        assert_eq!(r.extra_value("seed").and_then(Value::as_u64), Some(41));
        assert_eq!(r.extra_value("absent"), None);
    }

    #[test]
    fn parse_rejects_malformed_records() {
        assert!(Record::parse("{}").is_err(), "experiment is mandatory");
        assert!(Record::parse("{\"experiment\": 7}").is_err());
        assert!(
            Record::parse("{\"experiment\": \"x\", \"strategy\": []}").is_err(),
            "typed fields reject wrong JSON types"
        );
        assert!(Record::parse("{\"experiment\": \"x\", \"extras\": 3}").is_err());
        assert!(Record::parse("not json").is_err());
    }

    #[test]
    fn empty_fields_are_omitted_from_the_line() {
        let line = Record::new("service").to_json();
        assert_eq!(line, "{\"experiment\": \"service\"}");
    }
}

//! Seeded cluster-churn traces for dynamic-membership experiments.
//!
//! A [`ChurnTrace`] is a replayable sequence of membership events over a
//! fixed universe of node slots: nodes drain ([`ChurnEventKind::Leave`]),
//! crash ([`ChurnEventKind::Fail`]), come back
//! ([`ChurnEventKind::Recover`]) or are provisioned fresh
//! ([`ChurnEventKind::Join`]). Traces are generated deterministically
//! from a [`ChurnSpec`] seed and round-trip through the workspace's
//! JSON layer ([`crate::json`]), so an experiment can be re-run
//! bit-for-bit from its persisted trace file.
//!
//! This crate knows nothing about placements; `wcp_core::dynamic`
//! converts these events into its own `ClusterEvent` model and maintains
//! a live placement across them.

use crate::json::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of one membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEventKind {
    /// A node is provisioned (first activation, or re-activation after a
    /// planned [`Leave`](Self::Leave)).
    Join,
    /// A node drains and leaves in a planned fashion.
    Leave,
    /// A node crashes.
    Fail,
    /// A crashed node comes back.
    Recover,
}

impl ChurnEventKind {
    /// Every kind, in declaration order.
    pub const ALL: [ChurnEventKind; 4] = [
        ChurnEventKind::Join,
        ChurnEventKind::Leave,
        ChurnEventKind::Fail,
        ChurnEventKind::Recover,
    ];

    /// Stable lowercase label (the JSON encoding).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ChurnEventKind::Join => "join",
            ChurnEventKind::Leave => "leave",
            ChurnEventKind::Fail => "fail",
            ChurnEventKind::Recover => "recover",
        }
    }

    /// Parses a [`label`](Self::label) back.
    #[must_use]
    pub fn parse(label: &str) -> Option<ChurnEventKind> {
        ChurnEventKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// One membership event: a kind applied to a node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// What happened.
    pub kind: ChurnEventKind,
    /// The node slot it happened to.
    pub node: u16,
}

impl ChurnEvent {
    /// The event as a JSON object (one JSONL line in trace files).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("kind".into(), Value::Str(self.kind.label().into())),
            ("node".into(), Value::Num(f64::from(self.node))),
        ])
    }

    fn from_value(v: &Value) -> Result<ChurnEvent, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(ChurnEventKind::parse)
            .ok_or_else(|| format!("event needs a \"kind\" of join/leave/fail/recover: {v}"))?;
        let node = v
            .get("node")
            .and_then(Value::as_u64)
            .and_then(|n| u16::try_from(n).ok())
            .ok_or_else(|| format!("event needs a \"node\" slot id: {v}"))?;
        Ok(ChurnEvent { kind, node })
    }

    /// Parses one JSON event object.
    ///
    /// # Errors
    ///
    /// A human-readable message on syntax errors or missing fields.
    pub fn parse(text: &str) -> Result<ChurnEvent, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        ChurnEvent::from_value(&v)
    }
}

/// A replayable membership-event sequence over `capacity` node slots.
///
/// Slots `0..initial_active` start up; slots
/// `initial_active..capacity` start unprovisioned (available to
/// [`ChurnEventKind::Join`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnTrace {
    /// Trace label (mixed into derived seeds and file names).
    pub label: String,
    /// Total node slots that can ever exist.
    pub capacity: u16,
    /// Slots up at time zero (`0..initial_active`).
    pub initial_active: u16,
    /// The event sequence.
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// The trace as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Value::Object(vec![
            ("label".into(), Value::Str(self.label.clone())),
            ("capacity".into(), Value::Num(f64::from(self.capacity))),
            (
                "initial_active".into(),
                Value::Num(f64::from(self.initial_active)),
            ),
            (
                "events".into(),
                Value::Array(self.events.iter().map(|e| e.to_value()).collect()),
            ),
        ])
        .to_json()
    }

    /// Parses a trace document written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// A human-readable message on JSON syntax errors, missing fields or
    /// out-of-range slot numbers.
    pub fn parse(text: &str) -> Result<ChurnTrace, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let field_u16 = |name: &str| -> Result<u16, String> {
            doc.get(name)
                .and_then(Value::as_u64)
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| format!("trace needs a u16 \"{name}\" field"))
        };
        let label = doc
            .get("label")
            .and_then(Value::as_str)
            .unwrap_or("churn")
            .to_string();
        let capacity = field_u16("capacity")?;
        let initial_active = field_u16("initial_active")?;
        if initial_active > capacity {
            return Err(format!(
                "initial_active {initial_active} exceeds capacity {capacity}"
            ));
        }
        let events = doc
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| "trace needs an \"events\" array".to_string())?
            .iter()
            .map(ChurnEvent::from_value)
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(e) = events.iter().find(|e| e.node >= capacity) {
            return Err(format!(
                "event targets slot {} outside capacity {capacity}",
                e.node
            ));
        }
        Ok(ChurnTrace {
            label,
            capacity,
            initial_active,
            events,
        })
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Parameters of a generated churn trace.
///
/// # Examples
///
/// ```
/// use wcp_sim::churn::ChurnSpec;
///
/// let spec = ChurnSpec::new("doc", 16, 13, 50);
/// let trace = spec.generate();
/// assert_eq!(trace.len(), 50);
/// // Seeded generation is reproducible and JSON round-trips exactly.
/// assert_eq!(spec.generate(), trace);
/// let back = wcp_sim::churn::ChurnTrace::parse(&trace.to_json())?;
/// assert_eq!(back, trace);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Trace label; also feeds the RNG seed via [`crate::seed_for`].
    pub label: String,
    /// Total node slots.
    pub capacity: u16,
    /// Slots up at time zero.
    pub initial_active: u16,
    /// The generator never lets the up count drop below this floor
    /// (defaults to `max(initial_active / 2, 1)`).
    pub min_active: u16,
    /// Events to generate.
    pub events: usize,
    /// Extra seed index mixed with the label (see [`crate::seed_for`]).
    pub seed_index: u64,
}

impl ChurnSpec {
    /// A spec with the default activity floor and seed index 0.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        capacity: u16,
        initial_active: u16,
        events: usize,
    ) -> Self {
        let initial_active = initial_active.min(capacity);
        Self {
            label: label.into(),
            capacity,
            initial_active,
            min_active: (initial_active / 2).max(1),
            events,
            seed_index: 0,
        }
    }

    /// Generates the trace deterministically from the spec.
    ///
    /// Every event is *legal* by construction: only up nodes leave or
    /// fail, only failed nodes recover, only drained/unprovisioned slots
    /// join, and the up count never drops below
    /// [`min_active`](Self::min_active).
    #[must_use]
    pub fn generate(&self) -> ChurnTrace {
        #[derive(Clone, Copy, PartialEq)]
        enum Slot {
            Up,
            Failed,
            Drained,
        }
        let mut slots: Vec<Slot> = (0..self.capacity)
            .map(|v| {
                if v < self.initial_active {
                    Slot::Up
                } else {
                    Slot::Drained
                }
            })
            .collect();
        let mut up = usize::from(self.initial_active);
        let mut rng = StdRng::seed_from_u64(crate::seed_for(&self.label, self.seed_index));
        let mut events = Vec::with_capacity(self.events);
        let pick = |slots: &[Slot], want: Slot, rng: &mut StdRng| -> Option<u16> {
            let eligible: Vec<u16> = (0..slots.len())
                .filter(|&v| slots[v] == want)
                .map(|v| v as u16)
                .collect();
            (!eligible.is_empty()).then(|| eligible[rng.gen_range(0..eligible.len())])
        };
        while events.len() < self.events {
            let mut kinds: Vec<ChurnEventKind> = Vec::with_capacity(4);
            if up > usize::from(self.min_active) {
                kinds.push(ChurnEventKind::Leave);
                kinds.push(ChurnEventKind::Fail);
            }
            if slots.contains(&Slot::Failed) {
                kinds.push(ChurnEventKind::Recover);
            }
            if slots.contains(&Slot::Drained) {
                kinds.push(ChurnEventKind::Join);
            }
            let Some(&kind) = (!kinds.is_empty()).then(|| &kinds[rng.gen_range(0..kinds.len())])
            else {
                break; // Fully up at the floor: no legal event exists.
            };
            let (want, next) = match kind {
                ChurnEventKind::Leave => (Slot::Up, Slot::Drained),
                ChurnEventKind::Fail => (Slot::Up, Slot::Failed),
                ChurnEventKind::Recover => (Slot::Failed, Slot::Up),
                ChurnEventKind::Join => (Slot::Drained, Slot::Up),
            };
            let node = pick(&slots, want, &mut rng).expect("kind was checked feasible");
            slots[usize::from(node)] = next;
            match kind {
                ChurnEventKind::Leave | ChurnEventKind::Fail => up -= 1,
                ChurnEventKind::Join | ChurnEventKind::Recover => up += 1,
            }
            events.push(ChurnEvent { kind, node });
        }
        ChurnTrace {
            label: self.label.clone(),
            capacity: self.capacity,
            initial_active: self.initial_active,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_legal() {
        let spec = ChurnSpec::new("t", 20, 15, 200);
        let trace = spec.generate();
        assert_eq!(trace, spec.generate());
        let other = ChurnSpec {
            seed_index: 1,
            ..spec.clone()
        };
        assert_ne!(trace, other.generate());

        // Replay and check legality + the activity floor.
        let mut up: Vec<bool> = (0..20).map(|v| v < 15).collect();
        let mut failed = [false; 20];
        let mut count = 15usize;
        for e in &trace.events {
            let v = usize::from(e.node);
            match e.kind {
                ChurnEventKind::Leave | ChurnEventKind::Fail => {
                    assert!(up[v], "{e:?} on a down node");
                    up[v] = false;
                    failed[v] = e.kind == ChurnEventKind::Fail;
                    count -= 1;
                }
                ChurnEventKind::Recover => {
                    assert!(!up[v] && failed[v], "{e:?} without a crash");
                    up[v] = true;
                    failed[v] = false;
                    count += 1;
                }
                ChurnEventKind::Join => {
                    assert!(!up[v] && !failed[v], "{e:?} on an up/failed node");
                    up[v] = true;
                    count += 1;
                }
            }
            assert!(count >= usize::from(spec.min_active), "floor violated");
        }
    }

    #[test]
    fn trace_json_round_trips() {
        let trace = ChurnSpec::new("rt", 9, 7, 40).generate();
        let back = ChurnTrace::parse(&trace.to_json()).unwrap();
        assert_eq!(back, trace);
        // Per-event JSONL lines parse back too.
        for e in &trace.events {
            assert_eq!(ChurnEvent::parse(&e.to_json()).unwrap(), *e);
        }
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(ChurnTrace::parse("not json").is_err());
        assert!(ChurnTrace::parse(r#"{"capacity": 5}"#).is_err());
        assert!(
            ChurnTrace::parse(r#"{"capacity": 5, "initial_active": 9, "events": []}"#).is_err()
        );
        assert!(ChurnTrace::parse(
            r#"{"capacity": 5, "initial_active": 3,
                "events": [{"kind": "warp", "node": 1}]}"#
        )
        .is_err());
        assert!(ChurnTrace::parse(
            r#"{"capacity": 5, "initial_active": 3,
                "events": [{"kind": "fail", "node": 7}]}"#
        )
        .is_err());
    }

    #[test]
    fn degenerate_spec_saturates() {
        // capacity == initial == min: no legal event can ever fire.
        let spec = ChurnSpec {
            min_active: 3,
            ..ChurnSpec::new("sat", 3, 3, 10)
        };
        assert!(spec.generate().is_empty());
    }
}

//! Cluster-membership events and seeded churn traces.
//!
//! A [`ClusterEvent`] is one membership change of a node slot: it
//! drains ([`ClusterEvent::Leave`]), crashes ([`ClusterEvent::Fail`]),
//! comes back ([`ClusterEvent::Recover`]) or is provisioned fresh
//! ([`ClusterEvent::Join`]). [`ClusterEvent::transition`] is the one
//! slot state machine: the [`Slot`] state an event needs and the state
//! it leaves. The trace generator draws only legal events from it, and
//! `wcp_core::dynamic` (which re-exports the event) rejects illegal ones
//! with it.
//!
//! A [`ChurnTrace`] is a replayable sequence of events over a fixed
//! universe of node slots. Traces are generated deterministically from
//! a [`ChurnSpec`] seed and round-trip through the workspace's JSON
//! layer ([`crate::json`]), so an experiment can be re-run bit-for-bit
//! from its persisted trace file.

use crate::json::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cluster-membership event (the dynamic half of the placement model;
/// the static half — what the adversary does between events — is
/// Definition 1 unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A drained or never-provisioned slot comes up.
    Join {
        /// The slot that joins.
        node: u16,
    },
    /// An up node drains and leaves in a planned fashion. Its replicas
    /// are re-homed just like a crash; the distinction is kept because
    /// operators schedule leaves but not failures.
    Leave {
        /// The node that leaves.
        node: u16,
    },
    /// An up node crashes.
    Fail {
        /// The node that fails.
        node: u16,
    },
    /// A crashed node comes back up.
    Recover {
        /// The node that recovers.
        node: u16,
    },
}

/// The membership state of one node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The node is up and hosts replicas.
    Up,
    /// The node crashed; only [`ClusterEvent::Recover`] brings it back.
    Failed,
    /// The node left, or was never provisioned; only
    /// [`ClusterEvent::Join`] brings it up.
    Drained,
}

/// The event constructors in the generator's draw order. The order is
/// part of every generated trace: the RNG draws an index into the legal
/// ones.
const KINDS: [fn(u16) -> ClusterEvent; 4] = [
    |node| ClusterEvent::Leave { node },
    |node| ClusterEvent::Fail { node },
    |node| ClusterEvent::Recover { node },
    |node| ClusterEvent::Join { node },
];

impl ClusterEvent {
    /// The slot the event touches.
    #[must_use]
    pub fn node(&self) -> u16 {
        match *self {
            ClusterEvent::Join { node }
            | ClusterEvent::Leave { node }
            | ClusterEvent::Fail { node }
            | ClusterEvent::Recover { node } => node,
        }
    }

    /// Stable lowercase label (the JSON encoding of the kind).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ClusterEvent::Join { .. } => "join",
            ClusterEvent::Leave { .. } => "leave",
            ClusterEvent::Fail { .. } => "fail",
            ClusterEvent::Recover { .. } => "recover",
        }
    }

    /// True when the event takes a node down (and repair must re-home
    /// replicas).
    #[must_use]
    pub fn is_departure(&self) -> bool {
        matches!(self, ClusterEvent::Leave { .. } | ClusterEvent::Fail { .. })
    }

    /// The slot state machine: the state the event's slot must be in,
    /// and the state the event leaves it in. Only up nodes leave or
    /// fail, only failed nodes recover, only drained slots join.
    #[must_use]
    pub fn transition(&self) -> (Slot, Slot) {
        match self {
            ClusterEvent::Join { .. } => (Slot::Drained, Slot::Up),
            ClusterEvent::Leave { .. } => (Slot::Up, Slot::Drained),
            ClusterEvent::Fail { .. } => (Slot::Up, Slot::Failed),
            ClusterEvent::Recover { .. } => (Slot::Failed, Slot::Up),
        }
    }

    /// The event as a JSON object, `{"kind": …, "node": …}`.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::object([("kind", self.label().into()), ("node", self.node().into())])
    }

    /// The event as a JSON object (one JSONL line in trace files).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    fn from_value(v: &Value) -> Result<ClusterEvent, String> {
        let make = v
            .get("kind")
            .and_then(Value::as_str)
            .and_then(|label| KINDS.into_iter().find(|make| make(0).label() == label))
            .ok_or_else(|| format!("event needs a \"kind\" of join/leave/fail/recover: {v}"))?;
        let node = v
            .get("node")
            .and_then(Value::as_u64)
            .and_then(|n| u16::try_from(n).ok())
            .ok_or_else(|| format!("event needs a \"node\" slot id: {v}"))?;
        Ok(make(node))
    }

    /// Parses one JSON event object.
    ///
    /// # Errors
    ///
    /// A human-readable message on syntax errors or missing fields.
    pub fn parse(text: &str) -> Result<ClusterEvent, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        ClusterEvent::from_value(&v)
    }
}

/// Lets a borrowed trace feed APIs that take events by value
/// (`engine.apply(event.into())`, `run_trace(&trace.events)`).
impl From<&ClusterEvent> for ClusterEvent {
    fn from(e: &ClusterEvent) -> Self {
        *e
    }
}

/// A replayable membership-event sequence over `capacity` node slots.
///
/// Slots `0..initial_active` start up; slots
/// `initial_active..capacity` start unprovisioned (available to
/// [`ClusterEvent::Join`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnTrace {
    /// Trace label (mixed into derived seeds and file names).
    pub label: String,
    /// Total node slots that can ever exist.
    pub capacity: u16,
    /// Slots up at time zero (`0..initial_active`).
    pub initial_active: u16,
    /// The event sequence.
    pub events: Vec<ClusterEvent>,
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
                Value::Array(self.events.iter().map(ClusterEvent::to_value).collect()),
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
            .map(ClusterEvent::from_value)
            .collect::<Result<Vec<_>, String>>()?;
        if let Some(e) = events.iter().find(|e| e.node() >= capacity) {
            return Err(format!(
                "event targets slot {} outside capacity {capacity}",
                e.node()
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
            // The legal kinds, in draw order: a departure needs the up
            // count above the floor, any other kind a slot in its state.
            let kinds: Vec<fn(u16) -> ClusterEvent> = KINDS
                .into_iter()
                .filter(|make| {
                    let kind = make(0);
                    if kind.is_departure() {
                        up > usize::from(self.min_active)
                    } else {
                        slots.contains(&kind.transition().0)
                    }
                })
                .collect();
            let Some(&make) = (!kinds.is_empty()).then(|| &kinds[rng.gen_range(0..kinds.len())])
            else {
                break; // Fully up at the floor: no legal event exists.
            };
            let (want, next) = make(0).transition();
            let node = pick(&slots, want, &mut rng).expect("kind was checked feasible");
            slots[usize::from(node)] = next;
            let event = make(node);
            if event.is_departure() {
                up -= 1;
            } else {
                up += 1;
            }
            events.push(event);
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
            let v = usize::from(e.node());
            match e {
                ClusterEvent::Leave { .. } | ClusterEvent::Fail { .. } => {
                    assert!(up[v], "{e:?} on a down node");
                    up[v] = false;
                    failed[v] = matches!(e, ClusterEvent::Fail { .. });
                    count -= 1;
                }
                ClusterEvent::Recover { .. } => {
                    assert!(!up[v] && failed[v], "{e:?} without a crash");
                    up[v] = true;
                    failed[v] = false;
                    count += 1;
                }
                ClusterEvent::Join { .. } => {
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
            assert_eq!(ClusterEvent::parse(&e.to_json()).unwrap(), *e);
        }
    }

    #[test]
    fn event_wire_form_is_pinned() {
        assert_eq!(
            ClusterEvent::Fail { node: 7 }.to_json(),
            r#"{"kind": "fail", "node": 7}"#
        );
        // A trace document as earlier releases wrote it (seed 0 of a
        // `churn-8` spec): it parses to the same events, re-renders
        // byte-identically, and the generator still draws it.
        let doc = concat!(
            r#"{"label": "churn-8", "capacity": 8, "initial_active": 6, "events": ["#,
            r#"{"kind": "fail", "node": 3}, {"kind": "recover", "node": 3}, "#,
            r#"{"kind": "leave", "node": 4}, {"kind": "join", "node": 6}, "#,
            r#"{"kind": "fail", "node": 1}, {"kind": "join", "node": 7}, "#,
            r#"{"kind": "fail", "node": 3}, {"kind": "leave", "node": 5}]}"#
        );
        let trace = ChurnTrace::parse(doc).unwrap();
        assert_eq!(
            trace.events,
            [
                ClusterEvent::Fail { node: 3 },
                ClusterEvent::Recover { node: 3 },
                ClusterEvent::Leave { node: 4 },
                ClusterEvent::Join { node: 6 },
                ClusterEvent::Fail { node: 1 },
                ClusterEvent::Join { node: 7 },
                ClusterEvent::Fail { node: 3 },
                ClusterEvent::Leave { node: 5 },
            ]
        );
        assert_eq!(trace.to_json(), doc);
        assert_eq!(ChurnSpec::new("churn-8", 8, 6, 8).generate(), trace);
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

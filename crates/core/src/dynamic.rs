//! Dynamic membership: maintaining a placement across cluster churn.
//!
//! The paper's model is one-shot: place `b` objects on a *static* set of
//! `n` nodes, then let the Definition-1 adversary fail the worst `k`
//! nodes. Real clusters churn — nodes join, drain, crash and come back
//! while objects must stay `k`-failure-safe — and every membership
//! change re-opens the adversary's move: the worst `k`-set must be
//! re-searched against the *current* placement, and the placement itself
//! may need repair before the guarantee means anything (replicas on a
//! dead node are already lost to an adversary who gets that node for
//! free).
//!
//! This module makes that continuous setting first class:
//!
//! * [`ClusterEvent`] — the membership event model
//!   ([`Join`](ClusterEvent::Join) / [`Leave`](ClusterEvent::Leave) /
//!   [`Fail`](ClusterEvent::Fail) / [`Recover`](ClusterEvent::Recover)),
//!   convertible from `wcp_sim::churn` trace events;
//! * [`DynamicEngine`] — wraps the static planning/attack pipeline of
//!   [`crate::Engine`] and keeps a live [`Placement`] valid across an
//!   event stream by **incremental repair**: on a departure it re-homes
//!   only the replicas that lived on the lost node, on an arrival it
//!   drains only enough replicas to pull the newcomer up to the mean
//!   load. After every event it re-runs the Definition-1 adversary (any
//!   [`Attacker`]) against the repaired placement *and* against a
//!   from-scratch replan at the current membership, and falls back to
//!   the replan when incremental availability degrades past the
//!   configured [`DynamicConfig::threshold`] — so bounded movement never
//!   silently costs more than `threshold · b` objects of worst-case
//!   availability;
//! * [`StepReport`] / [`MovementReport`] — per-event and cumulative
//!   accounting of objects moved (incremental vs what a full replan
//!   would have moved) and availability (incremental vs oracle), the
//!   quantities the differential test suite and the `churn` experiment
//!   sweep report.
//!
//! # Node slots
//!
//! The engine works over a fixed universe of `capacity` node *slots*.
//! Slots `0..n` start up; [`ClusterEvent::Join`] activates a drained or
//! never-provisioned slot, so node identities are stable across the
//! whole trace and placements at different times are directly
//! comparable (that is what makes movement accounting well defined).
//! Down slots host no replicas after repair, so attacking the slot-space
//! placement is equivalent to attacking the active sub-cluster.
//!
//! # Examples
//!
//! ```
//! use wcp_core::dynamic::{ClusterEvent, DynamicConfig, DynamicEngine};
//! use wcp_core::{StrategyKind, SystemParams};
//!
//! let params = SystemParams::new(13, 26, 3, 2, 3)?;
//! let mut engine = DynamicEngine::new(
//!     params,
//!     StrategyKind::Ring,
//!     16, // capacity: three spare slots beyond the initial 13
//!     DynamicConfig::default(),
//! )?;
//! let step = engine.apply(ClusterEvent::Fail { node: 4 })?;
//! // Only the failed node's replicas moved …
//! assert_eq!(step.moved, 6); // ring: 13 nodes × 26 objects × 3 replicas → 6 on node 4
//! assert!(step.moved < step.replan_moved);
//! // … and worst-case availability stays within the configured threshold
//! // of a from-scratch replan.
//! assert!(step.availability as f64
//!     >= step.oracle_availability as f64 - 0.02 * 26.0);
//! # Ok::<(), wcp_core::dynamic::DynamicError>(())
//! ```

use crate::certificate::Certificate;
use crate::engine::{Attacker, ExhaustiveAttacker};
use crate::strategy::{PlacementStrategy, PlannerContext, StrategyKind};
use crate::topology::Topology;
use crate::{Placement, PlacementError, RandomVariant, SystemParams};
use std::sync::Arc;
use wcp_sim::json::Value;

/// A cluster-membership event (the dynamic half of the model; the
/// static half — what the adversary does between events — is Definition
/// 1 unchanged).
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

    /// Stable lowercase label (matches `wcp_sim::churn` encoding).
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
}

impl From<wcp_sim::churn::ChurnEvent> for ClusterEvent {
    fn from(e: wcp_sim::churn::ChurnEvent) -> Self {
        use wcp_sim::churn::ChurnEventKind;
        match e.kind {
            ChurnEventKind::Join => ClusterEvent::Join { node: e.node },
            ChurnEventKind::Leave => ClusterEvent::Leave { node: e.node },
            ChurnEventKind::Fail => ClusterEvent::Fail { node: e.node },
            ChurnEventKind::Recover => ClusterEvent::Recover { node: e.node },
        }
    }
}

impl From<&wcp_sim::churn::ChurnEvent> for ClusterEvent {
    fn from(e: &wcp_sim::churn::ChurnEvent) -> Self {
        ClusterEvent::from(*e)
    }
}

/// Errors of the dynamic subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// The event is illegal in the current membership state (e.g.
    /// failing a node that is already down). The engine state is
    /// unchanged.
    InvalidEvent(String),
    /// Applying the event would leave fewer up nodes than the placement
    /// model needs (`active > k` and `active ≥ r`). The event is
    /// rejected and the engine state is unchanged.
    InsufficientNodes {
        /// Up nodes the event would leave.
        active: u16,
        /// Minimum up nodes the model needs.
        need: u16,
    },
    /// An underlying planning/build error.
    Placement(PlacementError),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::InvalidEvent(msg) => write!(f, "invalid cluster event: {msg}"),
            DynamicError::InsufficientNodes { active, need } => write!(
                f,
                "membership too small: {active} up nodes, placement model needs {need}"
            ),
            DynamicError::Placement(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<PlacementError> for DynamicError {
    fn from(e: PlacementError) -> Self {
        DynamicError::Placement(e)
    }
}

/// Tuning of the dynamic engine.
#[derive(Debug, Clone)]
pub struct DynamicConfig {
    /// Availability slack, as a fraction of `b`: incremental repair is
    /// kept as long as its worst-case availability is within
    /// `threshold · b` objects of the from-scratch replan's; beyond
    /// that, the engine adopts the replan.
    pub threshold: f64,
    /// Planner context shared by initial planning and every replan.
    pub ctx: PlannerContext,
    /// Seed of the load-balanced `Random` strategy the engine falls back
    /// to when the configured strategy kind is not constructible at the
    /// current membership size (e.g. a packing slot that only exists at
    /// certain `n`).
    pub fallback_seed: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            threshold: 0.02,
            ctx: PlannerContext::default(),
            fallback_seed: 0xd15c,
        }
    }
}

/// How the engine restored validity after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// Incremental repair was kept: only replicas touching the affected
    /// node moved.
    Repaired,
    /// The engine fell back to a from-scratch replan (incremental
    /// availability degraded past [`DynamicConfig::threshold`]).
    Replanned,
}

impl RepairAction {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RepairAction::Repaired => "repaired",
            RepairAction::Replanned => "replanned",
        }
    }
}

/// The outcome of applying one [`ClusterEvent`].
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// The applied event.
    pub event: ClusterEvent,
    /// Repair kept, or replan adopted.
    pub action: RepairAction,
    /// Up nodes after the event.
    pub active: u16,
    /// Replicas actually moved by the adopted placement (incremental
    /// repair's movement, or the replan diff when the engine fell back).
    pub moved: u64,
    /// Replicas a full replan would have moved relative to the pre-event
    /// placement (the movement cost the incremental path avoided).
    pub replan_moved: u64,
    /// Worst-case availability of the adopted placement.
    pub availability: u64,
    /// Worst-case availability of the from-scratch replan (the oracle).
    pub oracle_availability: u64,
    /// Whether the attack on the adopted placement was proven worst.
    pub exact: bool,
    /// Whether the attack on the oracle placement was proven worst.
    pub oracle_exact: bool,
    /// The oracle strategy's claimed availability lower bound at the
    /// current membership (possibly vacuous).
    pub lower_bound: i64,
    /// The attacker's availability certificate for the *adopted*
    /// placement, when it emitted one (probe attackers report `None`).
    pub certificate: Option<Certificate>,
}

impl StepReport {
    /// The step as one JSON object (jsonl-friendly).
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::object([
            (
                "event",
                Value::object([
                    ("kind", self.event.label().into()),
                    ("node", self.event.node().into()),
                ]),
            ),
            ("action", self.action.label().into()),
            ("active", self.active.into()),
            ("moved", self.moved.into()),
            ("replan_moved", self.replan_moved.into()),
            ("availability", self.availability.into()),
            ("oracle_availability", self.oracle_availability.into()),
            ("exact", self.exact.into()),
            ("oracle_exact", self.oracle_exact.into()),
            ("lower_bound", self.lower_bound.into()),
            (
                "certificate",
                self.certificate
                    .as_ref()
                    .map_or(Value::Null, Certificate::to_value),
            ),
        ])
    }
}

/// Cumulative movement accounting across a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MovementReport {
    /// Events applied.
    pub events: u64,
    /// Events resolved by incremental repair.
    pub repairs: u64,
    /// Events resolved by full replan.
    pub replans: u64,
    /// Replicas moved by the adopted placements.
    pub moved: u64,
    /// Replicas full replans would have moved at every event.
    pub replan_moved: u64,
}

impl MovementReport {
    /// `moved / replan_moved`: the fraction of full-replan movement the
    /// incremental path actually paid (1.0 when no event occurred).
    #[must_use]
    pub fn movement_ratio(&self) -> f64 {
        if self.replan_moved == 0 {
            return 1.0;
        }
        self.moved as f64 / self.replan_moved as f64
    }
}

/// Internal per-slot membership state ([`ClusterEvent::Join`] targets
/// drained slots, [`ClusterEvent::Recover`] failed ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Up,
    Failed,
    Drained,
}

/// The dynamic counterpart of [`crate::Engine`]: a live placement
/// maintained across a [`ClusterEvent`] stream by incremental repair
/// with a differential availability guard.
#[derive(Debug)]
pub struct DynamicEngine<A: Attacker = ExhaustiveAttacker> {
    base: SystemParams,
    kind: StrategyKind,
    config: DynamicConfig,
    attacker: A,
    capacity: u16,
    slots: Vec<Slot>,
    placement: Placement,
    movement: MovementReport,
    topology: Option<Topology>,
}

impl DynamicEngine<ExhaustiveAttacker> {
    /// A dynamic engine with the built-in exhaustive/probing attacker.
    ///
    /// # Errors
    ///
    /// [`DynamicError::Placement`] when the initial plan/build fails;
    /// [`DynamicError::InvalidEvent`] when `capacity < params.n()`.
    pub fn new(
        params: SystemParams,
        kind: StrategyKind,
        capacity: u16,
        config: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        Self::with_attacker(
            params,
            kind,
            capacity,
            config,
            ExhaustiveAttacker::default(),
        )
    }
}

impl<A: Attacker> DynamicEngine<A> {
    /// A dynamic engine with a custom adversary (e.g.
    /// `wcp_adversary::ScratchAdversary`, which reuses its search
    /// buffers across the per-event re-attacks).
    ///
    /// Slots `0..params.n()` start up; `params.n()..capacity` start
    /// drained (available to [`ClusterEvent::Join`]).
    ///
    /// # Errors
    ///
    /// As for [`DynamicEngine::new`].
    pub fn with_attacker(
        params: SystemParams,
        kind: StrategyKind,
        capacity: u16,
        config: DynamicConfig,
        attacker: A,
    ) -> Result<Self, DynamicError> {
        if capacity < params.n() {
            return Err(DynamicError::InvalidEvent(format!(
                "capacity {capacity} is smaller than the initial membership {}",
                params.n()
            )));
        }
        let mut engine = Self {
            base: params,
            kind,
            config,
            attacker,
            capacity,
            slots: (0..capacity)
                .map(|v| {
                    if v < params.n() {
                        Slot::Up
                    } else {
                        Slot::Drained
                    }
                })
                .collect(),
            // Placeholder replaced by the initial plan below.
            placement: Placement::new(capacity, params.r(), Vec::new())?,
            movement: MovementReport::default(),
            topology: None,
        };
        let (strategy, compact) = engine.plan_for(params.n())?;
        let built = strategy.build(&compact)?;
        engine.placement = engine.widen(&built)?;
        Ok(engine)
    }

    /// Attaches a failure-domain tree over the *slot universe*: every
    /// event's slot identifies its domain through this topology, and
    /// repair from then on prefers domain-preserving re-homes — a
    /// departed replica moves to the least-loaded node that does not
    /// co-locate with the object's surviving replicas (least shared
    /// tree depth first), and arrivals drain donors the same way.
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidEvent`] when the topology's node count is
    /// not the engine's `capacity`.
    pub fn with_topology(mut self, topology: Topology) -> Result<Self, DynamicError> {
        if topology.num_nodes() != self.capacity {
            return Err(DynamicError::InvalidEvent(format!(
                "topology spans {} nodes, slot universe has {}",
                topology.num_nodes(),
                self.capacity
            )));
        }
        self.topology = Some(topology);
        Ok(self)
    }

    /// The attached slot-universe topology, if any.
    #[must_use]
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The deepest tree level `node` shares with any member of `set`
    /// other than `skip` (0 without a topology — every re-home is then
    /// domain neutral and repair degenerates to the topology-oblivious
    /// least-loaded choice exactly).
    fn collision_excluding(&self, node: u16, set: &[u16], skip: u16) -> u16 {
        self.topology.as_ref().map_or(0, |t| {
            set.iter()
                .filter(|&&o| o != node && o != skip)
                .map(|&o| t.shared_depth(node, o))
                .max()
                .unwrap_or(0)
        })
    }

    /// The live placement (over the full `capacity` slot space; down
    /// slots host nothing).
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The strategy kind planned initially and at every replan.
    #[must_use]
    pub fn kind(&self) -> &StrategyKind {
        &self.kind
    }

    /// Total node slots.
    #[must_use]
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// The up slots, ascending.
    #[must_use]
    pub fn active(&self) -> Vec<u16> {
        (0..self.capacity)
            .filter(|&v| self.slots[usize::from(v)] == Slot::Up)
            .collect()
    }

    /// Number of up slots.
    #[must_use]
    pub fn active_count(&self) -> u16 {
        self.slots.iter().filter(|&&s| s == Slot::Up).count() as u16
    }

    /// Cumulative movement accounting since construction.
    #[must_use]
    pub fn movement(&self) -> &MovementReport {
        &self.movement
    }

    /// Checks every live-placement invariant: exactly `b` objects of `r`
    /// replicas each, all on up slots (every [`Placement`] row is
    /// sorted, distinct and in range by construction).
    ///
    /// # Errors
    ///
    /// [`DynamicError::Placement`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), DynamicError> {
        let b = self.placement.num_objects() as u64;
        let r = self.placement.replicas_per_object();
        if b != self.base.b() || r != self.base.r() {
            return Err(PlacementError::InvalidPlacement(format!(
                "live placement holds {b} objects of {r} replicas, expected {} of {}",
                self.base.b(),
                self.base.r()
            ))
            .into());
        }
        for (obj, set) in self.placement.rows().enumerate() {
            if let Some(&down) = set
                .iter()
                .find(|&&v| self.slots.get(usize::from(v)) != Some(&Slot::Up))
            {
                return Err(PlacementError::InvalidPlacement(format!(
                    "object {obj} has a replica on down slot {down}"
                ))
                .into());
            }
        }
        Ok(())
    }

    /// Applies one membership event: updates the slot states, repairs
    /// the placement incrementally, re-attacks, and falls back to a
    /// from-scratch replan when incremental availability degrades past
    /// [`DynamicConfig::threshold`]. On any error the engine state is
    /// unchanged (the event is rejected).
    ///
    /// # Errors
    ///
    /// [`DynamicError::InvalidEvent`] on illegal events,
    /// [`DynamicError::InsufficientNodes`] when the event would shrink
    /// the membership below `max(r, k+1)`, and
    /// [`DynamicError::Placement`] on replan failures.
    pub fn apply(&mut self, event: ClusterEvent) -> Result<StepReport, DynamicError> {
        let v = event.node();
        if v >= self.capacity {
            return Err(DynamicError::InvalidEvent(format!(
                "slot {v} outside capacity {}",
                self.capacity
            )));
        }
        let state = self.slots[usize::from(v)];
        let legal = match event {
            ClusterEvent::Join { .. } => state == Slot::Drained,
            ClusterEvent::Recover { .. } => state == Slot::Failed,
            ClusterEvent::Leave { .. } | ClusterEvent::Fail { .. } => state == Slot::Up,
        };
        if !legal {
            return Err(DynamicError::InvalidEvent(format!(
                "{} on slot {v} in state {state:?}",
                event.label()
            )));
        }
        let active_after = if event.is_departure() {
            self.active_count() - 1
        } else {
            self.active_count() + 1
        };
        let need = self.base.r().max(self.base.k() + 1);
        if active_after < need {
            return Err(DynamicError::InsufficientNodes {
                active: active_after,
                need,
            });
        }

        // Commit the membership change, then repair.
        self.slots[usize::from(v)] = match event {
            ClusterEvent::Join { .. } | ClusterEvent::Recover { .. } => Slot::Up,
            ClusterEvent::Leave { .. } => Slot::Drained,
            ClusterEvent::Fail { .. } => Slot::Failed,
        };
        let before = self.placement.clone();
        let (repaired, moved) = if event.is_departure() {
            self.repair_departure(v)?
        } else {
            self.rebalance_arrival(v)?
        };
        let outcome = self
            .attacker
            .attack(&repaired, self.base.s(), self.base.k());
        let availability = self.base.b() - outcome.failed;

        // Differential oracle: a from-scratch replan at the current
        // membership, attacked by the same adversary.
        let (strategy, compact) = self.plan_for(active_after)?;
        let lower_bound = strategy.lower_bound(&compact);
        let oracle = self.widen(&strategy.build(&compact)?)?;
        let oracle_outcome = self.attacker.attack(&oracle, self.base.s(), self.base.k());
        let oracle_availability = self.base.b() - oracle_outcome.failed;
        let replan_moved = movement_between(&before, &oracle);

        let degraded = (oracle_availability.saturating_sub(availability)) as f64
            > self.config.threshold * self.base.b() as f64;
        let oracle_exact = oracle_outcome.exact;
        let (action, adopted, adopted_avail, adopted_exact, adopted_moved, adopted_cert) =
            if degraded {
                (
                    RepairAction::Replanned,
                    oracle,
                    oracle_availability,
                    oracle_exact,
                    replan_moved,
                    oracle_outcome.certificate,
                )
            } else {
                (
                    RepairAction::Repaired,
                    repaired,
                    availability,
                    outcome.exact,
                    moved,
                    outcome.certificate,
                )
            };
        self.placement = adopted;
        self.movement.events += 1;
        self.movement.moved += adopted_moved;
        self.movement.replan_moved += replan_moved;
        match action {
            RepairAction::Repaired => self.movement.repairs += 1,
            RepairAction::Replanned => self.movement.replans += 1,
        }
        Ok(StepReport {
            event,
            action,
            active: active_after,
            moved: adopted_moved,
            replan_moved,
            availability: adopted_avail,
            oracle_availability,
            exact: adopted_exact,
            oracle_exact,
            lower_bound,
            certificate: adopted_cert,
        })
    }

    /// Applies a whole trace, stopping at the first error.
    ///
    /// # Errors
    ///
    /// As for [`apply`](Self::apply); the reports of the successfully
    /// applied prefix are lost (use [`apply`](Self::apply) directly to
    /// keep them).
    pub fn run_trace<I, E>(&mut self, events: I) -> Result<Vec<StepReport>, DynamicError>
    where
        I: IntoIterator<Item = E>,
        E: Into<ClusterEvent>,
    {
        events.into_iter().map(|e| self.apply(e.into())).collect()
    }

    /// Re-homes every replica living on the departed node `v` to the
    /// least-loaded up node not already in the object's set. With a
    /// topology attached, domain preservation ranks first: among the up
    /// candidates, the one sharing the least tree depth with the
    /// object's surviving replicas wins, load and id breaking ties.
    fn repair_departure(&self, v: u16) -> Result<(Placement, u64), DynamicError> {
        let r = self.base.r();
        let mut rows = self.placement.shared_rows();
        let mut loads = self.placement.loads();
        let active = self.active();
        let mut moved = 0u64;
        for set in Arc::make_mut(&mut rows).chunks_exact_mut(usize::from(r)) {
            let Ok(i) = set.binary_search(&v) else {
                continue;
            };
            let target = active
                .iter()
                .copied()
                .filter(|w| set.binary_search(w).is_err())
                .min_by_key(|&w| {
                    (
                        self.collision_excluding(w, set, v),
                        loads[usize::from(w)],
                        w,
                    )
                });
            let Some(w) = target else {
                return Err(DynamicError::InsufficientNodes {
                    active: active.len() as u16,
                    need: r,
                });
            };
            if let Some(slot) = set.get_mut(i) {
                *slot = w;
            }
            set.sort_unstable();
            loads[usize::from(v)] -= 1;
            loads[usize::from(w)] += 1;
            moved += 1;
        }
        Ok((Placement::from_rows(self.capacity, r, rows)?, moved))
    }

    /// Pulls the newly arrived node `v` up to the floor of the mean load
    /// by draining replicas from the heaviest up nodes (bounded
    /// movement: at most `⌊rb/active⌋` replicas). The heaviest donor
    /// (lowest id on ties) that still improves balance hands over its
    /// first eligible object (one holding the donor but not `v`); a
    /// donor with none left gives way to the next heaviest. With a
    /// topology attached, a donor instead hands over the eligible object
    /// whose remaining replicas co-locate least with the newcomer.
    ///
    /// The rebalance only ever replaces a donor by `v` in a set, so a
    /// set's eligibility for any donor can go from true to false but
    /// never back. Each donor therefore keeps a cursor: no set before it
    /// is eligible, so the scan resumes there and still finds the first
    /// eligible object, and a donor found empty stays empty. Without a
    /// topology the whole rebalance walks the table at most once per
    /// donor; the topology path still ranks every eligible set per moved
    /// replica.
    fn rebalance_arrival(&self, v: u16) -> Result<(Placement, u64), DynamicError> {
        let r = self.base.r();
        let stride = usize::from(r);
        let mut rows = self.placement.shared_rows();
        let table = Arc::make_mut(&mut rows);
        let objects = table.len() / stride;
        let mut loads = self.placement.loads();
        let active = self.active();
        let mean_floor = (u64::from(r) * self.base.b()) / active.len().max(1) as u64;
        // Per donor slot: the first object that may still be eligible.
        let mut cursor = vec![0usize; usize::from(self.capacity)];
        let mut moved = 0u64;
        while u64::from(loads[usize::from(v)]) < mean_floor {
            let load = |w: u16| loads.get(usize::from(w)).copied().unwrap_or(0);
            let from = |w: u16| cursor.get(usize::from(w)).copied().unwrap_or(objects);
            let Some(w) = active
                .iter()
                .copied()
                .filter(|&w| w != v && from(w) < objects && load(w) > load(v) + 1)
                .min_by_key(|&w| (std::cmp::Reverse(load(w)), w))
            else {
                break; // No donor can improve balance further.
            };
            let start = from(w);
            let eligible =
                |set: &[u16]| set.binary_search(&w).is_ok() && set.binary_search(&v).is_err();
            let mut candidates = table
                .get(start * stride..)
                .unwrap_or_default()
                .chunks_exact(stride)
                .enumerate()
                .filter(|(_, set)| eligible(set))
                .map(|(i, set)| (start + i, set));
            let donated = if self.topology.is_none() {
                candidates.next()
            } else {
                candidates.min_by_key(|(_, set)| self.collision_excluding(v, set, w))
            }
            .map(|(obj, _)| obj);
            if let Some(next) = cursor.get_mut(usize::from(w)) {
                *next = match donated {
                    None => objects,
                    Some(obj) if self.topology.is_none() => obj + 1,
                    Some(_) => start,
                };
            }
            let Some(set) = donated.and_then(|obj| table.get_mut(obj * stride..(obj + 1) * stride))
            else {
                continue; // This donor is drained of eligible sets.
            };
            if let Some(slot) = set.iter_mut().find(|nd| **nd == w) {
                *slot = v;
            }
            set.sort_unstable();
            loads[usize::from(w)] -= 1;
            loads[usize::from(v)] += 1;
            moved += 1;
        }
        Ok((Placement::from_rows(self.capacity, r, rows)?, moved))
    }

    /// Plans the configured kind at a compact membership of `m` nodes,
    /// falling back to load-balanced `Random` when the kind is not
    /// constructible there.
    ///
    /// The attached slot-universe topology is projected onto the active
    /// slots so topology-aware kinds see the surviving failure domains
    /// at the compact node count. Without the projection the capacity-
    /// sized topology fails the planner's `num_nodes == n` filter and
    /// every replan silently degrades to the flat topology.
    fn plan_for(&self, m: u16) -> Result<(Box<dyn PlacementStrategy>, SystemParams), DynamicError> {
        let need = self.base.r().max(self.base.k() + 1);
        if m < need {
            return Err(DynamicError::InsufficientNodes { active: m, need });
        }
        let compact = SystemParams::new(
            m,
            self.base.b(),
            self.base.r(),
            self.base.s(),
            self.base.k(),
        )?;
        let ctx = match &self.topology {
            Some(topo) => {
                let active = self.active();
                debug_assert_eq!(active.len(), usize::from(m));
                PlannerContext {
                    topology: Some(topo.project(&active)?),
                    ..self.config.ctx.clone()
                }
            }
            None => self.config.ctx.clone(),
        };
        match self.kind.plan(&compact, &ctx) {
            Ok(strategy) => Ok((strategy, compact)),
            Err(PlacementError::Design(_) | PlacementError::InsufficientCapacity { .. }) => {
                let fallback = StrategyKind::Random {
                    seed: self.config.fallback_seed,
                    variant: RandomVariant::LoadBalanced,
                };
                Ok((fallback.plan(&compact, &ctx)?, compact))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Maps a compact placement (nodes `0..m`) onto the up slots of the
    /// full slot space (monotone, so sortedness is preserved).
    fn widen(&self, compact: &Placement) -> Result<Placement, DynamicError> {
        let active = self.active();
        let rows: Vec<u16> = compact
            .rows()
            .flatten()
            .map(|&i| active[usize::from(i)])
            .collect();
        Ok(Placement::from_rows(self.capacity, self.base.r(), rows)?)
    }
}

/// Replicas that must be copied to new homes to turn `old` into `new`:
/// `Σ_objects |new_set ∖ old_set|`. Both placements must hold the same
/// objects in the same order (true for any two placements of one
/// [`DynamicEngine`] history).
#[must_use]
pub fn movement_between(old: &Placement, new: &Placement) -> u64 {
    old.rows()
        .zip(new.rows())
        .map(|(a, b)| b.iter().filter(|w| a.binary_search(w).is_err()).count() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::placement_digest;
    use crate::engine::AttackOutcome;
    use wcp_sim::churn::ChurnSpec;

    fn params(n: u16, b: u64, r: u16, s: u16, k: u16) -> SystemParams {
        SystemParams::new(n, b, r, s, k).unwrap()
    }

    fn ring_engine() -> DynamicEngine {
        DynamicEngine::new(
            params(13, 26, 3, 2, 3),
            StrategyKind::Ring,
            16,
            DynamicConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn initial_state_is_valid() {
        let engine = ring_engine();
        engine.validate().unwrap();
        assert_eq!(engine.active_count(), 13);
        assert_eq!(engine.placement().num_nodes(), 16);
        assert_eq!(engine.placement().num_objects(), 26);
    }

    #[test]
    fn departure_moves_only_touched_replicas() {
        let mut engine = ring_engine();
        let load_before = engine.placement().loads()[4];
        let step = engine.apply(ClusterEvent::Fail { node: 4 }).unwrap();
        engine.validate().unwrap();
        assert_eq!(step.moved, u64::from(load_before));
        assert_eq!(engine.placement().loads()[4], 0);
        assert_eq!(step.active, 12);
        assert!(step.replan_moved >= step.moved);
    }

    #[test]
    fn arrival_rebalances_toward_mean() {
        let mut engine = ring_engine();
        let step = engine.apply(ClusterEvent::Join { node: 13 }).unwrap();
        engine.validate().unwrap();
        // 26·3 replicas over 14 nodes: mean floor 5.
        assert_eq!(u64::from(engine.placement().loads()[13]), step.moved.min(5));
        assert!(step.moved >= 4, "newcomer should absorb load, got {step:?}");
    }

    #[test]
    fn illegal_events_leave_state_unchanged() {
        let mut engine = ring_engine();
        let before = engine.placement().clone();
        assert!(matches!(
            engine.apply(ClusterEvent::Recover { node: 3 }), // up, not failed
            Err(DynamicError::InvalidEvent(_))
        ));
        assert!(matches!(
            engine.apply(ClusterEvent::Join { node: 3 }), // already up
            Err(DynamicError::InvalidEvent(_))
        ));
        assert!(matches!(
            engine.apply(ClusterEvent::Fail { node: 20 }), // outside capacity
            Err(DynamicError::InvalidEvent(_))
        ));
        assert_eq!(engine.placement(), &before);
        assert_eq!(engine.movement().events, 0);
    }

    #[test]
    fn membership_floor_is_enforced() {
        // n = 4, k = 3: a single departure would leave active = 3 ≤ k.
        let mut engine = DynamicEngine::new(
            params(4, 8, 2, 1, 3),
            StrategyKind::Ring,
            4,
            DynamicConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            engine.apply(ClusterEvent::Fail { node: 0 }),
            Err(DynamicError::InsufficientNodes { active: 3, need: 4 })
        ));
        engine.validate().unwrap();
    }

    #[test]
    fn leave_then_join_round_trips_membership() {
        let mut engine = ring_engine();
        engine.apply(ClusterEvent::Leave { node: 2 }).unwrap();
        // A drained node re-joins (Recover would be illegal).
        assert!(matches!(
            engine.apply(ClusterEvent::Recover { node: 2 }),
            Err(DynamicError::InvalidEvent(_))
        ));
        engine.apply(ClusterEvent::Join { node: 2 }).unwrap();
        engine.validate().unwrap();
        assert_eq!(engine.active_count(), 13);
    }

    #[test]
    fn availability_stays_within_threshold_of_oracle() {
        let trace = ChurnSpec::new("dyn-core", 16, 13, 25).generate();
        let mut engine = DynamicEngine::new(
            params(13, 26, 3, 2, 3),
            StrategyKind::Ring,
            16,
            DynamicConfig::default(),
        )
        .unwrap();
        for event in &trace.events {
            let step = engine.apply(event.into()).unwrap();
            engine.validate().unwrap();
            assert!(
                step.availability as f64 >= step.oracle_availability as f64 - 0.02 * 26.0 - 1e-9,
                "{step:?}"
            );
        }
        let m = engine.movement();
        assert_eq!(m.events, 25);
        assert_eq!(m.repairs + m.replans, m.events);
    }

    #[test]
    fn fallback_planner_covers_unconstructible_sizes() {
        // Combo needs constructible packings; churned sizes won't always
        // have them, so the engine must fall back rather than error.
        let trace = ChurnSpec::new("dyn-combo", 16, 13, 10).generate();
        let mut engine = DynamicEngine::new(
            params(13, 26, 3, 2, 3),
            StrategyKind::Combo,
            16,
            DynamicConfig::default(),
        )
        .unwrap();
        for event in &trace.events {
            engine.apply(event.into()).unwrap();
            engine.validate().unwrap();
        }
    }

    /// Replica pairs sharing any failure domain, summed over objects.
    fn collisions(placement: &Placement, topo: &Topology) -> u64 {
        placement
            .rows()
            .map(|set| {
                let mut c = 0u64;
                for (i, &a) in set.iter().enumerate() {
                    for &b in &set[i + 1..] {
                        if topo.shared_depth(a, b) > 0 {
                            c += 1;
                        }
                    }
                }
                c
            })
            .sum()
    }

    #[test]
    fn topology_must_span_the_slot_universe() {
        let engine = ring_engine(); // capacity 16
        assert!(matches!(
            engine.with_topology(Topology::flat(13)),
            Err(DynamicError::InvalidEvent(_))
        ));
        let engine = ring_engine();
        let engine = engine.with_topology(Topology::flat(16)).unwrap();
        assert!(engine.topology().is_some());
    }

    #[test]
    fn topology_steers_rehomes_away_from_colliding_racks() {
        // Same seeded placement, same event, two engines: the
        // topology-aware one must end with no more rack collisions, at
        // identical movement cost (domain steering only changes *where*
        // a replica lands, never how many move).
        let topo = Topology::split(12, &[4]).unwrap();
        let p = params(12, 24, 3, 2, 2);
        let kind = StrategyKind::Random {
            seed: 11,
            variant: RandomVariant::LoadBalanced,
        };
        let mk = || {
            DynamicEngine::new(p, kind.clone(), 12, DynamicConfig::default()).expect("constructs")
        };
        let mut aware = mk().with_topology(topo.clone()).unwrap();
        let mut oblivious = mk();
        assert_eq!(aware.placement(), oblivious.placement());
        let sa = aware.apply(ClusterEvent::Fail { node: 0 }).unwrap();
        let so = oblivious.apply(ClusterEvent::Fail { node: 0 }).unwrap();
        aware.validate().unwrap();
        oblivious.validate().unwrap();
        if sa.action == RepairAction::Repaired && so.action == RepairAction::Repaired {
            assert_eq!(sa.moved, so.moved);
            let ca = collisions(aware.placement(), &topo);
            let co = collisions(oblivious.placement(), &topo);
            assert!(ca <= co, "aware {ca} collisions > oblivious {co}");
        }
    }

    #[test]
    fn replan_oracle_plans_against_projected_topology() {
        // Regression: the replan oracle used to plan with the engine's
        // *config* context and never consulted the attached
        // slot-universe topology, so a domain-spread oracle silently
        // degraded to flat least-loaded assignment — byte-identical to
        // a topology-oblivious engine's and full of rack collisions.
        // A negative threshold forces the oracle to be adopted, making
        // the oracle's planning observable through the placement.
        let topo = Topology::split(12, &[4]).unwrap();
        let p = params(12, 24, 3, 2, 2);
        let config = DynamicConfig {
            threshold: -1.0,
            ..DynamicConfig::default()
        };
        let mk = || {
            DynamicEngine::new(p, StrategyKind::DomainSpread, 12, config.clone())
                .expect("constructs")
        };
        let mut aware = mk().with_topology(topo.clone()).unwrap();
        let mut oblivious = mk();
        let sa = aware.apply(ClusterEvent::Fail { node: 0 }).unwrap();
        let so = oblivious.apply(ClusterEvent::Fail { node: 0 }).unwrap();
        aware.validate().unwrap();
        oblivious.validate().unwrap();
        assert_eq!(sa.action, RepairAction::Replanned);
        assert_eq!(so.action, RepairAction::Replanned);
        // Slots 1..12 keep all four racks alive, so a projected
        // domain-spread replan is collision-free; the flat-fallback
        // oracle packs contiguous (rack-sharing) slots instead.
        assert_eq!(collisions(aware.placement(), &topo), 0);
        assert!(
            collisions(oblivious.placement(), &topo) > 0,
            "oblivious oracle unexpectedly rack-free; test shape too weak"
        );
        assert_ne!(aware.placement(), oblivious.placement());
    }

    #[test]
    fn topology_aware_arrival_prefers_separated_donations() {
        let topo = Topology::split(16, &[4]).unwrap();
        let mut aware = ring_engine().with_topology(topo.clone()).unwrap();
        let mut oblivious = ring_engine();
        let sa = aware.apply(ClusterEvent::Join { node: 13 }).unwrap();
        let so = oblivious.apply(ClusterEvent::Join { node: 13 }).unwrap();
        aware.validate().unwrap();
        if sa.action == RepairAction::Repaired && so.action == RepairAction::Repaired {
            // Donor draining is load-driven, so the movement bound is
            // identical; only the donated objects differ.
            assert_eq!(sa.moved, so.moved);
            assert!(
                collisions(aware.placement(), &topo) <= collisions(oblivious.placement(), &topo)
            );
        }
    }

    #[test]
    fn flat_topology_changes_nothing() {
        // An attached flat topology must reproduce the oblivious engine
        // decision for decision across a whole trace. The topology path
        // ranks every eligible set, the oblivious one takes the first
        // after each donor's cursor, so this is also the cursor's
        // differential against a full scan.
        let trace = ChurnSpec::new("dyn-flat-topo", 16, 13, 15).generate();
        let mut flat = ring_engine().with_topology(Topology::flat(16)).unwrap();
        let mut plain = ring_engine();
        for event in &trace.events {
            let a = flat.apply(event.into()).unwrap();
            let b = plain.apply(event.into()).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(flat.placement(), plain.placement());
    }

    /// An attacker that fails nothing, so repair is always adopted.
    struct NoAttack;

    impl Attacker for NoAttack {
        fn attack(&self, _placement: &Placement, _s: u16, _k: u16) -> AttackOutcome {
            AttackOutcome {
                failed: 0,
                nodes: Vec::new(),
                exact: false,
                certificate: None,
            }
        }
    }

    #[test]
    fn arrival_cursor_matches_full_scan_on_long_rows() {
        // The cursor differential on a shape where donors hand over many
        // objects each: with every repair adopted, a flat topology's
        // full ranking and the oblivious cursor must leave the same
        // placement after every event.
        let kind = StrategyKind::Random {
            seed: 3,
            variant: RandomVariant::LoadBalanced,
        };
        let mk = || {
            DynamicEngine::with_attacker(
                params(31, 2_000, 3, 2, 3),
                kind.clone(),
                34,
                DynamicConfig::default(),
                NoAttack,
            )
            .unwrap()
        };
        let mut flat = mk().with_topology(Topology::flat(34)).unwrap();
        let mut plain = mk();
        let trace = ChurnSpec::new("dyn-cursor", 34, 31, 20).generate();
        let mut arrivals = 0;
        for event in &trace.events {
            let event = ClusterEvent::from(event);
            let a = flat.apply(event).unwrap();
            let b = plain.apply(event).unwrap();
            assert_eq!(a, b, "{event:?}");
            assert_eq!(flat.placement(), plain.placement(), "{event:?}");
            arrivals += usize::from(!event.is_departure() && a.moved > 0);
        }
        assert!(arrivals >= 3, "trace too short to exercise arrivals");
    }

    #[test]
    fn golden_repair_digests() {
        // Digests recorded when every arrival scan restarted at object 0:
        // the per-donor cursor must hand over the very same objects.
        let kind = StrategyKind::Random {
            seed: 0x5eed,
            variant: RandomVariant::LoadBalanced,
        };
        let mut engine = DynamicEngine::with_attacker(
            params(71, 20_000, 3, 2, 3),
            kind,
            75,
            DynamicConfig::default(),
            NoAttack,
        )
        .unwrap();
        assert_eq!(placement_digest(engine.placement()), 0xbad8_06e5_1ae8_9d06);
        let steps = [
            (ClusterEvent::Fail { node: 5 }, 845, 0x477b_336f_2e5b_9a0f),
            (ClusterEvent::Join { node: 71 }, 845, 0x0f8f_3a85_4689_68c0),
            (
                ClusterEvent::Recover { node: 5 },
                833,
                0x09fb_53b9_6325_32e3,
            ),
            (ClusterEvent::Leave { node: 40 }, 833, 0x4d57_b402_1fd2_484f),
            (ClusterEvent::Join { node: 72 }, 833, 0x6ce8_a5d4_fe62_c863),
        ];
        for (event, moved, digest) in steps {
            let step = engine.apply(event).unwrap();
            engine.validate().unwrap();
            assert_eq!(step.action, RepairAction::Repaired, "{event:?}");
            assert_eq!(step.moved, moved, "{event:?}");
            assert_eq!(placement_digest(engine.placement()), digest, "{event:?}");
        }
    }

    #[test]
    fn movement_between_counts_rehomed_replicas() {
        let old = Placement::new(6, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let new = Placement::new(6, 2, vec![vec![0, 4], vec![2, 3]]).unwrap();
        assert_eq!(movement_between(&old, &new), 1);
        assert_eq!(movement_between(&old, &old), 0);
    }

    #[test]
    fn step_reports_serialize() {
        let mut engine = ring_engine();
        let step = engine.apply(ClusterEvent::Fail { node: 0 }).unwrap();
        let json = step.to_value().to_json();
        assert!(json.contains("\"kind\": \"fail\""));
        assert!(json.contains("\"action\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

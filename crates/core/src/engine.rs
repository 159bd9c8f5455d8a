//! The [`Engine`] facade: plan → build → attack → report in one call.
//!
//! Experiments, benchmarks and serving layers all want the same
//! pipeline: plan a strategy for some [`SystemParams`], materialize the
//! [`Placement`], subject it to a worst-case adversary, and collect the
//! guarantee, the measurement, the witness and the costs in one
//! serializable record. [`Engine::evaluate`] is that pipeline;
//! [`EvaluationReport`] is the record.
//!
//! The adversary is pluggable through the [`Attacker`] trait so this
//! crate stays free of a dependency cycle: `wcp-adversary` implements
//! [`Attacker`] for its `AdversaryConfig` (exact branch-and-bound with
//! heuristic fallback), while the built-in [`ExhaustiveAttacker`]
//! enumerates all `C(n, k)` failure sets when affordable and falls back
//! to deterministic probes (heaviest-loaded nodes, consecutive arcs)
//! otherwise.

use crate::certificate::Certificate;
use crate::strategy::{PlacementStrategy, PlannerContext, StrategyKind};
use crate::{Placement, PlacementError, SystemParams};
use std::time::Instant;
use wcp_combin::KSubsets;
use wcp_sim::json::Value;

/// The outcome of one adversary run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Objects failed by the chosen node set.
    pub failed: u64,
    /// The failing node set found (sorted, size `k`).
    pub nodes: Vec<u16>,
    /// Whether `failed` is provably the maximum.
    pub exact: bool,
    /// Independently checkable evidence for the claim (the adversary
    /// ladder emits one; probe attackers report `None`).
    pub certificate: Option<Certificate>,
}

/// A worst-case node-failure adversary (Definition 1 made pluggable).
///
/// Implementations *maximize* failed objects; a heuristic attacker can
/// only under-estimate the damage, i.e. over-estimate availability —
/// reports carry the [`AttackOutcome::exact`] flag for this reason.
pub trait Attacker {
    /// Finds (an approximation of) the worst set of `k` failed nodes.
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> AttackOutcome;
}

/// The built-in attacker: exhaustive enumeration within a subset
/// budget, deterministic probes beyond it.
#[derive(Debug, Clone)]
pub struct ExhaustiveAttacker {
    /// Maximum number of `k`-subsets to enumerate exactly.
    pub budget: u64,
}

impl Default for ExhaustiveAttacker {
    fn default() -> Self {
        Self { budget: 2_000_000 }
    }
}

impl Attacker for ExhaustiveAttacker {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> AttackOutcome {
        let n = placement.num_nodes();
        assert!(k <= n, "k must be ≤ n");
        let space = wcp_combin::binomial(u64::from(n), u64::from(k)).unwrap_or(u128::MAX);
        if space <= u128::from(self.budget) {
            let mut best = AttackOutcome {
                failed: 0,
                nodes: (0..k).collect(),
                exact: true,
                certificate: None,
            };
            for subset in KSubsets::new(n, k) {
                let failed = placement.failed_objects(&subset, s);
                if failed > best.failed {
                    best.failed = failed;
                    best.nodes = subset;
                }
            }
            return best;
        }
        // Probe ladder: k heaviest-loaded nodes, then every k-arc of
        // consecutive nodes (strong against ring-like placements).
        let loads = placement.cached_loads();
        let mut by_load: Vec<u16> = (0..n).collect();
        by_load
            .sort_by_key(|&nd| std::cmp::Reverse(loads.get(usize::from(nd)).copied().unwrap_or(0)));
        let mut heavy: Vec<u16> = by_load.into_iter().take(usize::from(k)).collect();
        heavy.sort_unstable();
        let mut best = AttackOutcome {
            failed: placement.failed_objects(&heavy, s),
            nodes: heavy,
            exact: false,
            certificate: None,
        };
        for start in 0..n {
            // Widened arithmetic: start + j can exceed u16::MAX when
            // n + k > 65536.
            let mut arc: Vec<u16> = (0..k)
                .map(|j| ((u32::from(start) + u32::from(j)) % u32::from(n)) as u16)
                .collect();
            arc.sort_unstable();
            let failed = placement.failed_objects(&arc, s);
            if failed > best.failed {
                best.failed = failed;
                best.nodes = arc;
            }
        }
        best
    }
}

/// Per-node load statistics of a placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadStats {
    /// Minimum replicas on any node.
    pub min: u32,
    /// Maximum replicas on any node.
    pub max: u32,
    /// Mean replicas per node (`rb/n`).
    pub mean: f64,
}

impl LoadStats {
    /// Computes the statistics of a placement's node loads.
    #[must_use]
    pub fn of(placement: &Placement) -> Self {
        let loads = placement.cached_loads();
        let total: u64 = loads.iter().map(|&l| u64::from(l)).sum();
        Self {
            min: loads.iter().copied().min().unwrap_or(0),
            max: loads.iter().copied().max().unwrap_or(0),
            mean: total as f64 / loads.len().max(1) as f64,
        }
    }
}

/// Wall-clock cost of each pipeline stage, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timings {
    /// Strategy planning (0 when a pre-planned strategy was supplied).
    pub plan_ns: u64,
    /// Placement materialization.
    pub build_ns: u64,
    /// Adversary search.
    pub attack_ns: u64,
}

/// The serializable outcome of one full pipeline run, rendered by
/// [`to_value`](Self::to_value).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// The planned strategy's [`PlacementStrategy::name`].
    pub strategy: String,
    /// The evaluated system parameters.
    pub params: SystemParams,
    /// The strategy's claimed availability lower bound (possibly
    /// negative, i.e. vacuous).
    pub lower_bound: i64,
    /// Objects surviving the attacker's worst failure set.
    pub measured_availability: u64,
    /// Objects killed by that set (`b − measured_availability`).
    pub worst_failed: u64,
    /// The failing node set found.
    pub witness: Vec<u16>,
    /// Whether the attacker proved the worst case.
    pub exact: bool,
    /// Node-load statistics of the built placement.
    pub load_stats: LoadStats,
    /// Stage costs.
    pub timings: Timings,
    /// The attacker's availability certificate, when it emitted one.
    pub certificate: Option<Certificate>,
}

impl EvaluationReport {
    /// The report as a JSON object. `load_stats.mean` is rounded to
    /// three decimals.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let witness = self.witness.iter().map(|&node| node.into()).collect();
        // Parsing the `{:.3}` rendering gives the nearest f64 to the
        // rounded decimal, the number the JSONL has always carried.
        let mean = format!("{:.3}", self.load_stats.mean)
            .parse()
            .unwrap_or(self.load_stats.mean);
        Value::object([
            ("strategy", self.strategy.as_str().into()),
            (
                "params",
                Value::object([
                    ("n", self.params.n().into()),
                    ("b", self.params.b().into()),
                    ("r", self.params.r().into()),
                    ("s", self.params.s().into()),
                    ("k", self.params.k().into()),
                ]),
            ),
            ("lower_bound", self.lower_bound.into()),
            ("measured_availability", self.measured_availability.into()),
            ("worst_failed", self.worst_failed.into()),
            ("witness", Value::Array(witness)),
            ("exact", self.exact.into()),
            (
                "load_stats",
                Value::object([
                    ("min", self.load_stats.min.into()),
                    ("max", self.load_stats.max.into()),
                    ("mean", mean.into()),
                ]),
            ),
            (
                "timings_ns",
                Value::object([
                    ("plan", self.timings.plan_ns.into()),
                    ("build", self.timings.build_ns.into()),
                    ("attack", self.timings.attack_ns.into()),
                ]),
            ),
            (
                "certificate",
                self.certificate
                    .as_ref()
                    .map_or(Value::Null, Certificate::to_value),
            ),
        ])
    }

    /// Renders the report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// The facade running plan → build → attack → report for any
/// [`StrategyKind`].
///
/// # Examples
///
/// ```
/// use wcp_core::{Engine, StrategyKind, SystemParams};
///
/// let params = SystemParams::new(13, 26, 3, 2, 3)?;
/// let engine = Engine::new(params);
/// let report = engine.evaluate(&StrategyKind::Combo)?;
/// assert!(report.exact); // C(13,3) is tiny — enumerated exhaustively
/// assert!(report.measured_availability as i64 >= report.lower_bound);
/// assert!(report.to_json().contains("\"strategy\": \"combo\""));
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine<A: Attacker = ExhaustiveAttacker> {
    params: SystemParams,
    ctx: PlannerContext,
    attacker: A,
}

impl Engine<ExhaustiveAttacker> {
    /// An engine with the built-in exhaustive/probing attacker.
    #[must_use]
    pub fn new(params: SystemParams) -> Self {
        Self::with_attacker(params, ExhaustiveAttacker::default())
    }
}

impl<A: Attacker> Engine<A> {
    /// An engine with a custom adversary (e.g.
    /// `wcp_adversary::AdversaryConfig`, which implements [`Attacker`]).
    #[must_use]
    pub fn with_attacker(params: SystemParams, attacker: A) -> Self {
        Self {
            params,
            ctx: PlannerContext::default(),
            attacker,
        }
    }

    /// Replaces the planner context.
    #[must_use]
    pub fn with_context(mut self, ctx: PlannerContext) -> Self {
        self.ctx = ctx;
        self
    }

    /// The evaluated parameters.
    #[must_use]
    pub fn params(&self) -> &SystemParams {
        &self.params
    }

    /// The planner context in use.
    #[must_use]
    pub fn context(&self) -> &PlannerContext {
        &self.ctx
    }

    /// Runs the full pipeline for one strategy kind.
    ///
    /// # Errors
    ///
    /// Planning and build errors ([`PlacementError`]); also
    /// [`PlacementError::InvalidPlacement`] if a strategy materializes
    /// the wrong number of objects (a strategy bug the facade refuses to
    /// report around).
    pub fn evaluate(&self, kind: &StrategyKind) -> Result<EvaluationReport, PlacementError> {
        // lint:allow(determinism, wall-clock timings are telemetry; they never feed a decision)
        let t = Instant::now();
        let strategy = kind.plan(&self.params, &self.ctx)?;
        let plan_ns = t.elapsed().as_nanos() as u64;
        self.run(strategy.as_ref(), plan_ns)
    }

    /// Runs build → attack → report for an already planned strategy
    /// (`timings.plan_ns` is 0).
    ///
    /// # Errors
    ///
    /// Build errors, as for [`evaluate`](Self::evaluate).
    pub fn evaluate_strategy(
        &self,
        strategy: &dyn PlacementStrategy,
    ) -> Result<EvaluationReport, PlacementError> {
        self.run(strategy, 0)
    }

    /// Evaluates one representative of every strategy family
    /// ([`StrategyKind::all`]), skipping kinds whose packing slot is not
    /// constructible at these parameters.
    ///
    /// # Errors
    ///
    /// Propagates every error except [`PlacementError::Design`] (an
    /// unconstructible slot merely drops that kind from the sweep).
    pub fn evaluate_all(&self) -> Result<Vec<EvaluationReport>, PlacementError> {
        let mut reports = Vec::new();
        for kind in StrategyKind::all(&self.params) {
            match self.evaluate(&kind) {
                Ok(report) => reports.push(report),
                Err(PlacementError::Design(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(reports)
    }

    fn run(
        &self,
        strategy: &dyn PlacementStrategy,
        plan_ns: u64,
    ) -> Result<EvaluationReport, PlacementError> {
        // lint:allow(determinism, wall-clock timings are telemetry; they never feed a decision)
        let t = Instant::now();
        let placement = strategy.build(&self.params)?;
        let build_ns = t.elapsed().as_nanos() as u64;
        if placement.num_objects() as u64 != self.params.b() {
            return Err(PlacementError::InvalidPlacement(format!(
                "strategy '{}' built {} objects, expected {}",
                strategy.name(),
                placement.num_objects(),
                self.params.b()
            )));
        }
        // lint:allow(determinism, wall-clock timings are telemetry; they never feed a decision)
        let t = Instant::now();
        let outcome = self
            .attacker
            .attack(&placement, self.params.s(), self.params.k());
        let attack_ns = t.elapsed().as_nanos() as u64;
        Ok(EvaluationReport {
            strategy: strategy.name().to_string(),
            params: self.params,
            lower_bound: strategy.lower_bound(&self.params),
            measured_availability: self.params.b() - outcome.failed,
            worst_failed: outcome.failed,
            witness: outcome.nodes,
            exact: outcome.exact,
            load_stats: LoadStats::of(&placement),
            timings: Timings {
                plan_ns,
                build_ns,
                attack_ns,
            },
            certificate: outcome.certificate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomVariant;

    fn params(n: u16, b: u64, r: u16, s: u16, k: u16) -> SystemParams {
        SystemParams::new(n, b, r, s, k).unwrap()
    }

    #[test]
    fn exhaustive_attacker_matches_brute_force_semantics() {
        let p = params(10, 30, 3, 2, 3);
        let placement = StrategyKind::Ring
            .plan(&p, &PlannerContext::default())
            .unwrap()
            .build(&p)
            .unwrap();
        let wc = ExhaustiveAttacker::default().attack(&placement, 2, 3);
        assert!(wc.exact);
        assert_eq!(placement.failed_objects(&wc.nodes, 2), wc.failed);
        // k consecutive failures on a ring kill (b/n)·(k−s+1+min(r−s,n−k)).
        assert_eq!(wc.failed, 3 * (3 - 2 + 1 + 1));
    }

    #[test]
    fn probe_fallback_is_well_formed() {
        let p = params(64, 200, 3, 2, 8);
        let placement = StrategyKind::Random {
            seed: 1,
            variant: RandomVariant::LoadBalanced,
        }
        .plan(&p, &PlannerContext::default())
        .unwrap()
        .build(&p)
        .unwrap();
        let tight = ExhaustiveAttacker { budget: 10 };
        let wc = tight.attack(&placement, 2, 8);
        assert!(!wc.exact);
        assert_eq!(wc.nodes.len(), 8);
        assert_eq!(placement.failed_objects(&wc.nodes, 2), wc.failed);
    }

    #[test]
    fn evaluate_reports_are_consistent() {
        let p = params(13, 26, 3, 2, 3);
        let engine = Engine::new(p);
        for kind in StrategyKind::all(&p) {
            let report = engine.evaluate(&kind).expect("evaluates");
            assert_eq!(
                report.measured_availability + report.worst_failed,
                p.b(),
                "{}",
                report.strategy
            );
            assert!(report.exact, "{}", report.strategy);
            assert!(
                report.measured_availability as i64 >= report.lower_bound,
                "{}: measured {} < claimed {}",
                report.strategy,
                report.measured_availability,
                report.lower_bound
            );
            assert_eq!(report.witness.len(), usize::from(p.k()));
        }
    }

    #[test]
    fn evaluate_all_sweeps_every_family() {
        let p = params(13, 26, 3, 2, 3);
        let reports = Engine::new(p).evaluate_all().expect("sweep");
        let names: Vec<&str> = reports.iter().map(|r| r.strategy.as_str()).collect();
        for expected in [
            "combo",
            "ring",
            "group",
            "adaptive",
            "random(load-balanced)",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
        assert!(names.iter().filter(|n| n.starts_with("simple")).count() >= 2);
    }

    #[test]
    fn json_is_syntactically_sound() {
        let p = params(13, 26, 3, 2, 3);
        let report = Engine::new(p).evaluate(&StrategyKind::Group).unwrap();
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"strategy\"",
            "\"params\"",
            "\"lower_bound\"",
            "\"measured_availability\"",
            "\"witness\"",
            "\"load_stats\"",
            "\"timings_ns\"",
        ] {
            assert!(json.contains(key), "{key} missing in {json}");
        }
    }
}

//! The parallel parameter-sweep subsystem.
//!
//! The paper's experiments (Figs. 2–7) are grids over
//! `(n, b, r, s, k, strategy)`; each figure binary used to hand-roll its
//! own nested loops and evaluate one configuration at a time on one
//! core. This module turns "a grid of configurations" into a value —
//! [`SweepSpec`] — and "evaluate them all" into one call —
//! [`Engine::sweep`] / [`sweep_with`] — that fans the cells out across
//! worker threads via [`std::thread::scope`] with work-stealing chunk
//! claiming.
//!
//! Every cell runs [`Engine`]'s pipeline: it plans its strategy with the
//! default [`PlannerContext`], then the engine's one build → attack →
//! report stage runs with the worker's [`CellAttacker`], so a cell's
//! [`EvaluationReport`] (and its error) is exactly what
//! [`Engine::evaluate`] returns with that attacker. Topology-aware
//! studies, which plan every cell against its own failure-domain tree,
//! drive [`Engine`] directly (see the `domains` experiment binary).
//!
//! # Determinism
//!
//! Cell enumeration order is fixed by the spec, every cell carries a
//! stable seed derived with [`wcp_sim::seed_for`] from the spec label
//! and the cell index, and results are written back by cell index — so
//! a sweep over `N` threads returns *byte-identical* records to the
//! serial run. The only nondeterministic observable, wall-clock
//! timings, is zeroed unless [`SweepOptions::record_timings`] is set.
//!
//! # Attackers
//!
//! Workers evaluate many cells back to back, which is exactly where
//! adversaries win by reusing their scratch buffers instead of
//! reallocating per evaluation. The per-worker state lives behind
//! [`CellAttacker`]: the sweep creates one per worker thread and hands
//! it every cell that worker claims. The built-in
//! [`DefaultCellAttacker`] wraps [`ExhaustiveAttacker`]; the
//! `wcp-adversary` crate provides the full
//! exact-with-heuristic-fallback ladder with buffer reuse.

use crate::engine::{evaluate_planned, AttackOutcome, Attacker, ExhaustiveAttacker, Timings};
use crate::strategy::{PlannerContext, StrategyKind};
use crate::{Engine, EvaluationReport, Placement, SystemParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Declarative choice of worst-case adversary for a sweep cell.
///
/// The spec only *names* the adversary; resolution happens in the
/// [`CellAttacker`] driving the sweep, so `wcp-core` stays free of a
/// dependency on the search crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// Plain enumeration of all `C(n, k)` failure sets within `budget`
    /// subsets, deterministic probes beyond it (the engine's built-in
    /// [`ExhaustiveAttacker`]).
    Exhaustive {
        /// Maximum number of `k`-subsets to enumerate exactly.
        budget: u64,
    },
    /// The full ladder: exact branch-and-bound within `exact_budget`
    /// node expansions, greedy + multi-restart local search beyond it.
    /// Resolved by `wcp-adversary`'s sweep attacker; the built-in
    /// [`DefaultCellAttacker`] degrades it to `Exhaustive` with the same
    /// budget.
    Auto {
        /// Node-expansion budget for the exact DFS.
        exact_budget: u64,
        /// Local-search restarts.
        restarts: u32,
        /// Improvement-step cap per restart.
        max_steps: u32,
    },
}

impl Default for AdversarySpec {
    fn default() -> Self {
        AdversarySpec::Auto {
            exact_budget: 20_000_000,
            restarts: 4,
            max_steps: 200,
        }
    }
}

impl AdversarySpec {
    /// Stable display label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AdversarySpec::Exhaustive { budget } => format!("exhaustive({budget})"),
            AdversarySpec::Auto { exact_budget, .. } => format!("auto({exact_budget})"),
        }
    }
}

/// Cartesian value lists for the system parameters of a sweep.
///
/// Combinations that violate the model constraints (`s ≤ r ≤ n`,
/// `s ≤ k < n`, …) are skipped silently during enumeration, so a grid
/// may list e.g. `k = [2, 3, 4]` next to `s = [2, 3]` without guarding
/// `k ≥ s` by hand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParamGrid {
    /// Node counts.
    pub n: Vec<u16>,
    /// Object counts.
    pub b: Vec<u64>,
    /// Replication degrees.
    pub r: Vec<u16>,
    /// Fatality thresholds.
    pub s: Vec<u16>,
    /// Failure counts planned for.
    pub k: Vec<u16>,
}

impl ParamGrid {
    /// Expands the grid into every *valid* [`SystemParams`] combination,
    /// in `n → b → r → s → k` nesting order.
    #[must_use]
    pub fn expand(&self) -> Vec<SystemParams> {
        let mut out = Vec::new();
        for &n in &self.n {
            for &b in &self.b {
                for &r in &self.r {
                    for &s in &self.s {
                        for &k in &self.k {
                            if let Ok(p) = SystemParams::new(n, b, r, s, k) {
                                out.push(p);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// A declarative sweep: parameter grids times strategies times
/// adversaries, plus fully explicit cells for irregular shapes.
///
/// # Examples
///
/// ```
/// use wcp_core::sweep::{SweepOptions, SweepSpec};
/// use wcp_core::{Engine, StrategyKind};
///
/// let mut spec = SweepSpec::new("doc");
/// spec.grid.n = vec![13];
/// spec.grid.b = vec![26, 52];
/// spec.grid.r = vec![3];
/// spec.grid.s = vec![2];
/// spec.grid.k = vec![3];
/// spec.strategies = vec![StrategyKind::Combo, StrategyKind::Ring];
/// let records = Engine::sweep(&spec, &SweepOptions::default());
/// assert_eq!(records.len(), 4); // 2 b-values × 2 strategies
/// assert!(records.iter().all(|r| r.outcome.is_ok()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Label mixed into every per-cell seed (see [`wcp_sim::seed_for`]).
    pub label: String,
    /// Cartesian parameter grid.
    pub grid: ParamGrid,
    /// Parameter points appended verbatim after the grid expansion.
    pub explicit_params: Vec<SystemParams>,
    /// Strategy kinds evaluated at every parameter point.
    pub strategies: Vec<StrategyKind>,
    /// Adversaries evaluated for every `(params, strategy)` pair.
    pub adversaries: Vec<AdversarySpec>,
    /// Fully explicit cells appended after the grid-generated ones
    /// (irregular shapes such as per-draw random seeds).
    pub explicit_cells: Vec<(SystemParams, StrategyKind, AdversarySpec)>,
}

impl SweepSpec {
    /// An empty spec with the default [`AdversarySpec`] and no grid.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            grid: ParamGrid::default(),
            explicit_params: Vec::new(),
            strategies: Vec::new(),
            adversaries: vec![AdversarySpec::default()],
            explicit_cells: Vec::new(),
        }
    }

    /// Enumerates the sweep's cells in their canonical order: grid
    /// parameters, then explicit parameters, × strategies ×
    /// adversaries, followed by the explicit cells. Each cell's seed is
    /// `seed_for(label, index)`.
    #[must_use]
    pub fn cells(&self) -> Vec<SweepCell> {
        let params = self.grid.expand().into_iter();
        let mut cells = Vec::new();
        for p in params.chain(self.explicit_params.iter().copied()) {
            for kind in &self.strategies {
                for adversary in &self.adversaries {
                    cells.push((p, kind.clone(), adversary.clone()));
                }
            }
        }
        cells.extend(self.explicit_cells.iter().cloned());
        cells
            .into_iter()
            .enumerate()
            .map(|(index, (params, kind, adversary))| SweepCell {
                index,
                seed: wcp_sim::seed_for(&self.label, index as u64),
                params,
                kind,
                adversary,
            })
            .collect()
    }
}

/// One fully resolved configuration of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in the spec's canonical enumeration.
    pub index: usize,
    /// The system parameters.
    pub params: SystemParams,
    /// The strategy to plan and build.
    pub kind: StrategyKind,
    /// The adversary to attack with.
    pub adversary: AdversarySpec,
    /// Stable per-cell seed (`seed_for(spec.label, index)`), for
    /// heuristic adversaries and any other cell-local randomness.
    pub seed: u64,
}

/// The outcome of one sweep cell: the full [`EvaluationReport`], or the
/// error that stopped the pipeline (e.g. a packing slot that is not
/// constructible at the cell's parameters).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The evaluated cell.
    pub cell: SweepCell,
    /// Report, or a rendered [`crate::PlacementError`].
    pub outcome: Result<EvaluationReport, String>,
}

impl SweepRecord {
    /// Renders the record as one JSON object (jsonl-friendly), in the
    /// workspace-wide [`wcp_sim::record::Record`] envelope that
    /// `wcp-verify` parses.
    #[must_use]
    pub fn to_json(&self) -> String {
        use wcp_sim::json::Value;
        use wcp_sim::record::Record;
        let record = Record::new("sweep")
            .strategy(self.cell.kind.label())
            .spec(self.cell.kind.spec())
            .adversary(self.cell.adversary.label())
            .extra_u64("index", self.cell.index as u64)
            .extra_u64("seed", self.cell.seed);
        match &self.outcome {
            Ok(report) => record.report(report.to_value()).to_json(),
            Err(e) => record
                .extra(
                    "params",
                    Value::object([
                        ("n", self.cell.params.n().into()),
                        ("b", self.cell.params.b().into()),
                        ("r", self.cell.params.r().into()),
                        ("s", self.cell.params.s().into()),
                        ("k", self.cell.params.k().into()),
                    ]),
                )
                .error(e.clone())
                .to_json(),
        }
    }
}

/// Execution knobs of a sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` (the default) defers to the ambient
    /// [`Parallelism`](crate::Parallelism) configuration — the
    /// `WCP_THREADS` environment override, else all available cores.
    pub threads: usize,
    /// Keep wall-clock timings in the reports. Off by default so that
    /// repeated runs — serial or parallel — produce byte-identical
    /// records.
    pub record_timings: bool,
}

impl SweepOptions {
    /// The resolved worker count: `threads`, or the ambient
    /// [`Parallelism`](crate::Parallelism) (`WCP_THREADS`, else all
    /// available cores). Records are byte-identical either way.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        crate::Parallelism::from_env().threads()
    }
}

/// Per-worker adversary state for a sweep.
///
/// One instance is created per worker thread and handed every cell that
/// worker claims, so implementations can keep scratch buffers (failure
/// counters, inverted indices) alive across cells instead of
/// reallocating per evaluation.
pub trait CellAttacker {
    /// Finds (an approximation of) the worst `k`-node failure set for
    /// one cell's placement.
    fn attack_cell(
        &mut self,
        cell: &SweepCell,
        placement: &Placement,
        s: u16,
        k: u16,
    ) -> AttackOutcome;
}

/// The built-in per-worker attacker: resolves every [`AdversarySpec`]
/// to the engine's [`ExhaustiveAttacker`] (an [`AdversarySpec::Auto`]
/// cell uses its `exact_budget` as the subset budget).
#[derive(Debug, Clone, Default)]
pub struct DefaultCellAttacker;

impl CellAttacker for DefaultCellAttacker {
    fn attack_cell(
        &mut self,
        cell: &SweepCell,
        placement: &Placement,
        s: u16,
        k: u16,
    ) -> AttackOutcome {
        let budget = match cell.adversary {
            AdversarySpec::Exhaustive { budget } => budget,
            AdversarySpec::Auto { exact_budget, .. } => exact_budget,
        };
        ExhaustiveAttacker { budget }.attack(placement, s, k)
    }
}

/// Runs one cell through [`Engine`]'s plan → build → attack → report
/// with a per-worker attacker, zeroing the timings unless
/// [`SweepOptions::record_timings`] is set.
fn evaluate_cell<C: CellAttacker>(
    cell: &SweepCell,
    opts: &SweepOptions,
    attacker: &mut C,
) -> SweepRecord {
    // lint:allow(determinism, wall-clock timings are telemetry; zeroed unless requested and never feed a decision)
    let t = Instant::now();
    let outcome = cell
        .kind
        .plan(&cell.params, &PlannerContext::default())
        .and_then(|strategy| {
            let plan_ns = t.elapsed().as_nanos() as u64;
            evaluate_planned(
                &cell.params,
                strategy.as_ref(),
                plan_ns,
                |placement, s, k| attacker.attack_cell(cell, placement, s, k),
            )
        });
    SweepRecord {
        cell: cell.clone(),
        outcome: outcome
            .map(|mut report| {
                if !opts.record_timings {
                    report.timings = Timings::default();
                }
                report
            })
            .map_err(|e| e.to_string()),
    }
}

/// Fans `count` index-addressed tasks across `threads` workers with
/// work-stealing chunk claiming, returning the results in index order.
///
/// This is the one threading primitive of the workspace: the sweep, the
/// parallel adversary ladder and any future fan-out all go through it.
/// Each worker builds its own state once via `make` (scratch buffers
/// survive across the tasks that worker claims), claims indices in
/// chunks off a shared atomic cursor (dynamic work stealing — cheap
/// tasks don't leave a thread idle behind an expensive one), and writes
/// results back by index — so the returned vector is identical for any
/// thread count whenever `work(state, i)` is a pure function of `i`.
///
/// `threads` is clamped to `1..=count`; `threads == 1` runs inline on
/// the calling thread with no pool at all.
pub fn run_indexed<S, T, F, W>(count: usize, threads: usize, make: F, work: W) -> Vec<T>
where
    T: Send,
    F: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.min(count).max(1);
    if threads == 1 {
        let mut state = make();
        return (0..count).map(|index| work(&mut state, index)).collect();
    }
    // Chunked claiming: big enough to amortize the atomic, small enough
    // that stragglers still get stolen from.
    let chunk = (count / (threads * 8)).clamp(1, 64);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = make();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= count {
                        break;
                    }
                    let end = (start + chunk).min(count);
                    for (index, slot) in (start..end).zip(&slots[start..end]) {
                        let result = work(&mut state, index);
                        *slot.lock().expect("no worker panics holding the slot") = Some(result);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding the slot")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

/// Evaluates every cell of `spec` across worker threads, with one
/// [`CellAttacker`] built per worker by `make`.
///
/// Workers claim cells via [`run_indexed`] and write records back by
/// cell index, so the returned vector is in canonical cell order
/// regardless of scheduling.
pub fn sweep_with<C, F>(spec: &SweepSpec, opts: &SweepOptions, make: F) -> Vec<SweepRecord>
where
    C: CellAttacker,
    F: Fn() -> C + Sync,
{
    let cells = spec.cells();
    run_indexed(
        cells.len(),
        opts.effective_threads(),
        make,
        |attacker, index| evaluate_cell(&cells[index], opts, attacker),
    )
}

impl Engine<ExhaustiveAttacker> {
    /// Evaluates a whole [`SweepSpec`] in parallel with the built-in
    /// attacker ([`DefaultCellAttacker`]); see [`sweep_with`] to plug in
    /// the `wcp-adversary` ladder.
    ///
    /// Deterministic: the records are byte-identical for any thread
    /// count (timings are zeroed unless
    /// [`SweepOptions::record_timings`]).
    #[must_use]
    pub fn sweep(spec: &SweepSpec, opts: &SweepOptions) -> Vec<SweepRecord> {
        sweep_with(spec, opts, || DefaultCellAttacker)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("test-sweep");
        spec.grid.n = vec![10, 13];
        spec.grid.b = vec![26];
        spec.grid.r = vec![3];
        spec.grid.s = vec![2, 3];
        spec.grid.k = vec![2, 3];
        spec.strategies = vec![StrategyKind::Ring, StrategyKind::Group];
        spec.adversaries = vec![AdversarySpec::Exhaustive { budget: 1_000_000 }];
        spec
    }

    #[test]
    fn grid_skips_invalid_combinations() {
        let spec = small_spec();
        let cells = spec.cells();
        // Per n: (s=2, k∈{2,3}) valid, (s=3, k=3) valid, (s=3, k=2)
        // invalid (k < s) → 3 params × 2 strategies.
        assert_eq!(cells.len(), 2 * 3 * 2);
        assert!(cells.iter().all(|c| c.params.k() >= c.params.s()));
    }

    #[test]
    fn cell_indices_and_seeds_are_canonical() {
        let cells = small_spec().cells();
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, wcp_sim::seed_for("test-sweep", i as u64));
        }
    }

    #[test]
    fn explicit_cells_follow_grid_cells() {
        let mut spec = small_spec();
        let p = SystemParams::new(9, 18, 3, 2, 3).unwrap();
        spec.explicit_cells
            .push((p, StrategyKind::Combo, AdversarySpec::default()));
        let cells = spec.cells();
        let last = cells.last().unwrap();
        assert_eq!(last.params, p);
        assert_eq!(last.kind, StrategyKind::Combo);
        assert_eq!(last.index, cells.len() - 1);
    }

    #[test]
    fn parallel_equals_serial() {
        let spec = small_spec();
        let serial = Engine::sweep(
            &spec,
            &SweepOptions {
                threads: 1,
                ..SweepOptions::default()
            },
        );
        let parallel = Engine::sweep(
            &spec,
            &SweepOptions {
                threads: 4,
                ..SweepOptions::default()
            },
        );
        assert_eq!(serial, parallel);
        let serial_json: Vec<String> = serial.iter().map(SweepRecord::to_json).collect();
        let parallel_json: Vec<String> = parallel.iter().map(SweepRecord::to_json).collect();
        assert_eq!(serial_json, parallel_json);
    }

    #[test]
    fn failed_cells_report_errors_not_panics() {
        let mut spec = SweepSpec::new("err");
        // Simple(x=2) needs x < s = 2 → every cell errors.
        spec.explicit_params = vec![SystemParams::new(13, 26, 3, 2, 3).unwrap()];
        spec.strategies = vec![StrategyKind::Simple { x: 2 }];
        let records = Engine::sweep(&spec, &SweepOptions::default());
        assert_eq!(records.len(), 1);
        let err = records[0].outcome.as_ref().unwrap_err();
        assert!(err.contains("invalid parameters"), "{err}");
        assert!(records[0].to_json().contains("\"error\""));
    }

    #[test]
    fn timings_zeroed_by_default_and_kept_on_request() {
        let mut spec = SweepSpec::new("t");
        spec.explicit_params = vec![SystemParams::new(13, 26, 3, 2, 3).unwrap()];
        spec.strategies = vec![StrategyKind::Ring];
        let plain = Engine::sweep(&spec, &SweepOptions::default());
        assert_eq!(
            plain[0].outcome.as_ref().unwrap().timings,
            Timings::default()
        );
        let timed = Engine::sweep(
            &spec,
            &SweepOptions {
                record_timings: true,
                ..SweepOptions::default()
            },
        );
        assert!(timed[0].outcome.as_ref().unwrap().timings.build_ns > 0);
    }

    #[test]
    fn sweep_matches_engine_evaluate() {
        // A cell runs the engine's pipeline: the whole report (timings
        // zeroed) and a failing cell's error are the engine's.
        let p = SystemParams::new(13, 26, 3, 2, 3).unwrap();
        let engine = Engine::new(p);
        let mut kinds = StrategyKind::all(&p);
        kinds.push(StrategyKind::Simple { x: 2 });
        let mut spec = SweepSpec::new("x");
        spec.explicit_params = vec![p];
        spec.strategies = kinds.clone();
        spec.adversaries = vec![AdversarySpec::Exhaustive { budget: 2_000_000 }];
        let records = Engine::sweep(&spec, &SweepOptions::default());
        assert_eq!(records.len(), kinds.len());
        for (record, kind) in records.iter().zip(&kinds) {
            let direct = engine.evaluate(kind).map(|report| EvaluationReport {
                timings: Timings::default(),
                ..report
            });
            assert_eq!(
                record.outcome,
                direct.map_err(|e| e.to_string()),
                "{}",
                kind.label()
            );
        }
        assert!(records.last().unwrap().outcome.is_err());
    }
}

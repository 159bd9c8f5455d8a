//! Worst-case node-failure adversaries.
//!
//! Definition 1 of the paper measures a placement by the number of objects
//! surviving the *worst* set of `k` failed nodes. Finding that set is an
//! NP-hard covering problem in general, so this crate offers a ladder of
//! adversaries:
//!
//! * [`exact_worst`] — branch-and-bound DFS over node subsets with an
//!   admissible "still-failable objects" bound, exact whenever its node
//!   budget suffices (it reports whether it completed);
//! * [`greedy_worst`] — marginal-gain greedy, `O(k·n·ℓ)`;
//! * [`local_search_worst`] — steepest-ascent swap search with seeded
//!   restarts, the workhorse for large instances;
//! * [`Ladder`] — the builder-style entry point to the auto policy used
//!   by experiments: exact when affordable, otherwise greedy + local
//!   search (still labelled `exact: false`), optionally certified,
//!   optionally reusing caller scratch.
//!
//! Every rung runs one schedule (see the `parallel` module's source):
//! per-restart RNG streams and a deterministic combination, run inline
//! at one thread and fanned across [`AdversaryConfig::parallelism`]
//! workers otherwise, so every entry point returns the same answer and
//! certificate at any thread count.
//!
//! All adversaries *maximize failed objects*; availability is
//! `b − failed`. A heuristic adversary can only under-estimate the damage,
//! i.e. over-estimate availability — experiment reports carry the `exact`
//! flag for this reason.
//!
//! Every adversary also has a `_with` variant threading an
//! [`AdversaryScratch`] so batch callers reuse the failure-accounting
//! buffers across evaluations; [`SweepAdversary`] packages that as the
//! per-worker attacker of `wcp_core`'s parallel sweep subsystem.
//!
//! Every rung of the ladder runs on one failure accounting,
//! [`PackedCounts`]: a CSR index of each node's co-host rows plus, per
//! node, how many of its objects sit at each hit level, and a
//! histogram of objects by hit level (see the type's docs for the
//! design). The scalar
//! [`FailureCounts`] backend remains as the reference oracle, and the
//! scalar ladder in [`mod@reference`] is the differential-testing
//! oracle and the benchmark baseline for both budget models.
//!
//! The ladder is written once, over a *move set*: one move per node for
//! [`Ladder::run`], one per failure unit of a `wcp_core::Topology`
//! (leaves, racks, zones — failing an internal node fails its whole
//! leaf set) for [`Ladder::run_domain`]. Both run the same greedy seed,
//! restart schedule, exact DFS, frontier split and ledger; the
//! [`mod@domain`] module only adds leaf coverage, and a flat topology
//! runs the node move set itself. [`DomainAttacker`] plugs the domain
//! ladder into the `Engine` pipeline.

#![forbid(unsafe_code)]

mod certify;
mod counts;
pub mod domain;
mod exact;
mod ladder;
mod parallel;
mod pool;
pub mod reference;
mod search;

pub use counts::{FailureCounts, PackedCounts};
pub use domain::{
    domain_exact_worst, domain_greedy_worst, domain_local_search_worst, DomainAttacker,
    DomainWorstCase,
};
pub use exact::{exact_worst, exact_worst_with};
pub use ladder::{DomainLadderOutcome, Ladder, LadderOutcome};
pub use parallel::exact_worst_parallel;
pub use search::{greedy_worst, greedy_worst_with, local_search_worst, local_search_worst_with};

use wcp_core::engine::{Attacker, ExhaustiveAttacker};
use wcp_core::sweep::{AdversarySpec, CellAttacker, SweepCell};
use wcp_core::{Parallelism, Placement};

/// Reusable adversary working memory: the [`PackedCounts`] failure
/// accounting plus the search/DFS side buffers (swap corrections,
/// candidate orderings, leaf coverage), all of whose allocations
/// survive across evaluations. The `_with` adversary
/// entry points and [`Ladder::scratch`] rebind it to each new
/// placement in place — under either budget model — so a sweep over
/// thousands of cells of the same `(n, b, r)` shape performs no
/// per-cell allocation beyond the placement itself.
///
/// The scalar [`FailureCounts`] oracle binding ([`AdversaryScratch::bind`])
/// is kept alongside for the [`mod@reference`] ladder.
#[derive(Debug, Default)]
pub struct AdversaryScratch {
    fc: Option<FailureCounts>,
    packed: Option<PackedCounts>,
    /// The node move set's per-candidate swap corrections.
    deltas: Vec<i64>,
    /// The unit move set's leaf coverage.
    cover: domain::CoverState,
    climb: search::ClimbScratch,
    dfs: exact::DfsScratch,
}

impl AdversaryScratch {
    /// Empty scratch; buffers materialize on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds the scalar reference backend to a placement/threshold,
    /// reusing previous allocations when present.
    pub fn bind(&mut self, placement: &Placement, s: u16) -> &mut FailureCounts {
        if let Some(fc) = &mut self.fc {
            fc.rebind(placement, s);
        }
        self.fc
            .get_or_insert_with(|| FailureCounts::new(placement, s))
    }
}

/// Tuning for the auto adversary.
#[derive(Debug, Clone)]
pub struct AdversaryConfig {
    /// Node-expansion budget for the exact DFS; `exact_worst` aborts (and
    /// the auto policy falls back) beyond it.
    pub exact_budget: u64,
    /// Local-search restarts (first restart seeds from greedy, the rest
    /// from random `k`-sets).
    pub restarts: u32,
    /// Cap on improvement steps per restart.
    pub max_steps: u32,
    /// RNG seed for restarts.
    pub seed: u64,
    /// Worker threads for the ladder (default: one). At one thread the
    /// restarts and the exact DFS run inline on the caller's scratch; at
    /// more, the restarts fan out and the exact rung splits its root
    /// frontier. Every restart draws from its own RNG stream, so the
    /// answer, witness and certificate are bit-identical for every
    /// thread count. See the `parallel` module's docs in the source for
    /// the determinism argument.
    pub parallelism: Parallelism,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        Self {
            exact_budget: 20_000_000,
            restarts: 4,
            max_steps: 200,
            seed: 0xadb7_7557,
            parallelism: Parallelism::single(),
        }
    }
}

/// [`AdversaryConfig`] *is* an [`wcp_core::engine::Attacker`]: plugging
/// it into [`wcp_core::Engine`] makes the facade's attack stage the full
/// exact-with-heuristic-fallback [`Ladder`].
///
/// # Examples
///
/// ```
/// use wcp_adversary::AdversaryConfig;
/// use wcp_core::{Engine, StrategyKind, SystemParams};
///
/// let params = SystemParams::new(13, 26, 3, 2, 3)?;
/// let engine = Engine::with_attacker(params, AdversaryConfig::default());
/// let report = engine.evaluate(&StrategyKind::Combo)?;
/// assert!(report.exact);
/// assert!(report.measured_availability as i64 >= report.lower_bound);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
impl wcp_core::engine::Attacker for AdversaryConfig {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::engine::AttackOutcome {
        Ladder::new(self)
            .certified()
            .run(placement, s, k)
            .into_attack()
    }
}

/// An [`wcp_core::engine::Attacker`] that owns its scratch: the full
/// [`Ladder`] with one [`AdversaryScratch`] reused across every attack.
///
/// This is the attacker to hand `wcp_core::dynamic::DynamicEngine`,
/// which re-attacks after every membership event — across a long churn
/// trace the failure-accounting buffers are allocated once instead of
/// per event. Single-threaded by design (the scratch lives in a
/// [`RefCell`](std::cell::RefCell)); parallel sweeps use the per-worker
/// [`SweepAdversary`] instead.
///
/// # Examples
///
/// ```
/// use wcp_adversary::ScratchAdversary;
/// use wcp_core::dynamic::{ClusterEvent, DynamicConfig, DynamicEngine};
/// use wcp_core::{StrategyKind, SystemParams};
///
/// let params = SystemParams::new(13, 26, 3, 2, 3)?;
/// let mut engine = DynamicEngine::with_attacker(
///     params,
///     StrategyKind::Ring,
///     16,
///     DynamicConfig::default(),
///     ScratchAdversary::default(),
/// )?;
/// let step = engine.apply(ClusterEvent::Fail { node: 2 })?;
/// assert!(step.exact && step.oracle_exact);
/// # Ok::<(), wcp_core::dynamic::DynamicError>(())
/// ```
#[derive(Debug, Default)]
pub struct ScratchAdversary {
    config: AdversaryConfig,
    scratch: std::cell::RefCell<AdversaryScratch>,
}

impl ScratchAdversary {
    /// A scratch-reusing attacker with the given ladder tuning.
    #[must_use]
    pub fn new(config: AdversaryConfig) -> Self {
        Self {
            config,
            scratch: std::cell::RefCell::new(AdversaryScratch::new()),
        }
    }
}

impl wcp_core::engine::Attacker for ScratchAdversary {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::engine::AttackOutcome {
        Ladder::new(&self.config)
            .scratch(&mut self.scratch.borrow_mut())
            .certified()
            .run(placement, s, k)
            .into_attack()
    }
}

/// The outcome of an adversary run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCase {
    /// Objects failed by the chosen node set.
    pub failed: u64,
    /// The failing node set found (sorted, size `k`).
    pub nodes: Vec<u16>,
    /// Whether the value is provably the maximum.
    pub exact: bool,
}

/// Worst-case availability: `(survivors, witness)` under the auto
/// adversary.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{availability, AdversaryConfig};
/// use wcp_core::Placement;
///
/// let p = Placement::new(4, 2, vec![vec![0, 1], vec![2, 3]])?;
/// let (avail, wc) = availability(&p, 1, 1, &AdversaryConfig::default());
/// assert_eq!(avail, 1); // one node failure kills exactly one object
/// assert!(wc.exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn availability(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> (u64, WorstCase) {
    let wc = Ladder::new(config).run(placement, s, k).worst;
    (placement.num_objects() as u64 - wc.failed, wc)
}

/// The per-worker sweep adversary: resolves an [`AdversarySpec::Auto`]
/// cell to the full exact-with-fallback ladder, reusing one
/// [`AdversaryScratch`] across every cell the worker evaluates, and an
/// [`AdversarySpec::Exhaustive`] cell to the engine's plain subset
/// enumeration ([`ExhaustiveAttacker`]), as `churn` does.
///
/// Heuristic stages are seeded with the cell's stable seed, so sweep
/// results are byte-identical for any thread count.
///
/// # Examples
///
/// ```
/// use wcp_adversary::SweepAdversary;
/// use wcp_core::sweep::{sweep_with, SweepOptions, SweepSpec};
/// use wcp_core::{StrategyKind, SystemParams};
///
/// let mut spec = SweepSpec::new("doc");
/// spec.explicit_params = vec![SystemParams::new(13, 26, 3, 2, 3)?];
/// spec.strategies = vec![StrategyKind::Combo];
/// let records = sweep_with(&spec, &SweepOptions::default(), SweepAdversary::new);
/// assert!(records[0].outcome.as_ref().unwrap().exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Default)]
pub struct SweepAdversary {
    scratch: AdversaryScratch,
}

impl SweepAdversary {
    /// A fresh per-worker adversary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl CellAttacker for SweepAdversary {
    fn attack_cell(
        &mut self,
        cell: &SweepCell,
        placement: &Placement,
        s: u16,
        k: u16,
    ) -> wcp_core::engine::AttackOutcome {
        let config = match cell.adversary {
            AdversarySpec::Exhaustive { budget } => {
                return ExhaustiveAttacker { budget }.attack(placement, s, k);
            }
            AdversarySpec::Auto {
                exact_budget,
                restarts,
                max_steps,
            } => AdversaryConfig {
                exact_budget,
                restarts,
                max_steps,
                seed: cell.seed,
                // Sweeps already parallelize across cells; nesting the
                // parallel ladder inside each cell would oversubscribe.
                parallelism: Parallelism::single(),
            },
        };
        Ladder::new(&config)
            .scratch(&mut self.scratch)
            .certified()
            .run(placement, s, k)
            .into_attack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;
    use wcp_core::{Placement, RandomStrategy, RandomVariant, SystemParams};

    /// Brute-force reference by full enumeration.
    fn brute_force(p: &Placement, s: u16, k: u16) -> u64 {
        let mut best = 0;
        for subset in KSubsets::new(p.num_nodes(), k) {
            best = best.max(p.failed_objects(&subset, s));
        }
        best
    }

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn auto_matches_brute_force_small() {
        for seed in 0..5u64 {
            let p = random_placement(12, 40, 3, seed);
            for s in 1..=3u16 {
                for k in s..=5u16 {
                    let expect = brute_force(&p, s, k);
                    let wc = Ladder::new(&AdversaryConfig::default()).run(&p, s, k).worst;
                    assert!(wc.exact, "seed={seed} s={s} k={k} should be exact");
                    assert_eq!(wc.failed, expect, "seed={seed} s={s} k={k}");
                    assert_eq!(
                        p.failed_objects(&wc.nodes, s),
                        wc.failed,
                        "witness mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn heuristics_bounded_by_exact() {
        for seed in 0..3u64 {
            let p = random_placement(14, 60, 4, seed);
            for (s, k) in [(2u16, 4u16), (3, 5), (1, 3)] {
                let exact = brute_force(&p, s, k);
                let g = greedy_worst(&p, s, k);
                let ls = local_search_worst(&p, s, k, &AdversaryConfig::default());
                assert!(g.failed <= exact);
                assert!(ls.failed >= g.failed, "LS must not lose to its greedy seed");
                assert!(ls.failed <= exact);
            }
        }
    }

    #[test]
    fn budget_exhaustion_falls_back() {
        let p = random_placement(40, 400, 3, 7);
        let tight = AdversaryConfig {
            exact_budget: 10,
            ..AdversaryConfig::default()
        };
        let wc = Ladder::new(&tight).run(&p, 2, 5).worst;
        assert!(!wc.exact);
        assert_eq!(p.failed_objects(&wc.nodes, 2), wc.failed);
    }

    #[test]
    fn degenerate_k_equals_n() {
        let p = random_placement(8, 20, 3, 1);
        let wc = Ladder::new(&AdversaryConfig::default()).run(&p, 1, 8).worst;
        assert_eq!(wc.failed, 20); // everything dies
    }

    /// The placement the s = 0 checks attack (the accountings disagreed
    /// on it before s = 0 was rejected).
    fn three_objects() -> Placement {
        Placement::new(5, 2, vec![vec![0, 1], vec![0, 2], vec![3, 4]]).unwrap()
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn ladder_rejects_s_zero() {
        let _ = Ladder::new(&AdversaryConfig::default()).run(&three_objects(), 0, 2);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn domain_ladder_rejects_s_zero() {
        let topo = wcp_core::Topology::split(5, &[2]).unwrap();
        let _ = Ladder::new(&AdversaryConfig::default()).run_domain(&three_objects(), &topo, 0, 2);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn exact_rejects_s_zero() {
        let _ = exact_worst(&three_objects(), 0, 2, u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn parallel_exact_rejects_s_zero() {
        let _ = exact_worst_parallel(&three_objects(), 0, 2, u64::MAX, 0, Parallelism::new(2));
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn greedy_rejects_s_zero() {
        let _ = greedy_worst(&three_objects(), 0, 2);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn local_search_rejects_s_zero() {
        let _ = local_search_worst(&three_objects(), 0, 2, &AdversaryConfig::default());
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn domain_functions_reject_s_zero() {
        let topo = wcp_core::Topology::split(5, &[2]).unwrap();
        let _ = domain_exact_worst(&three_objects(), &topo, 0, 2, u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn reference_ladder_rejects_s_zero() {
        let _ = reference::exact_worst(&three_objects(), 0, 2, u64::MAX, 0);
    }

    #[test]
    #[should_panic(expected = "s must be ≥ 1")]
    fn accounting_rejects_s_zero() {
        let _ = PackedCounts::new(&three_objects(), 0);
    }

    #[test]
    fn s_equals_r_requires_full_overlap() {
        // Objects on disjoint node pairs: failing k = 2 nodes kills at most
        // one object at s = 2.
        let p = Placement::new(8, 2, vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]]).unwrap();
        let wc = Ladder::new(&AdversaryConfig::default()).run(&p, 2, 2).worst;
        assert_eq!(wc.failed, 1);
        let wc = Ladder::new(&AdversaryConfig::default()).run(&p, 2, 4).worst;
        assert_eq!(wc.failed, 2);
    }

    #[test]
    fn exhaustive_sweep_cells_enumerate_plainly() {
        // `exhaustive:B` means the engine's plain subset enumeration in
        // a sweep cell too, within budget and beyond it.
        let p = random_placement(14, 60, 3, 5);
        let (s, k) = (2, 3); // C(14, 3) = 364 subsets
        for (budget, exact) in [(1_000, true), (100, false)] {
            let cell = SweepCell {
                index: 0,
                params: SystemParams::new(14, 60, 3, s, k).unwrap(),
                kind: wcp_core::StrategyKind::Ring,
                adversary: AdversarySpec::Exhaustive { budget },
                seed: 1,
            };
            let outcome = SweepAdversary::new().attack_cell(&cell, &p, s, k);
            assert_eq!(outcome, ExhaustiveAttacker { budget }.attack(&p, s, k));
            assert_eq!(outcome.exact, exact, "budget {budget}");
            assert!(outcome.certificate.is_none());
        }
    }
}

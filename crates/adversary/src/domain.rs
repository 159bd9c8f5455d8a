//! The domain adversary: worst-case search over hierarchical failure
//! domains.
//!
//! Under a [`Topology`] the budget-`k` adversary no longer picks `k`
//! individual nodes — it picks `k` *tree nodes* (failure units: leaves,
//! racks, zones; see [`Topology::failure_units`]), and failing an
//! internal unit takes down its whole leaf set at once. An object still
//! dies once `s` of its replicas sit on downed leaves, and overlapping
//! choices (a leaf plus the rack above it) count each leaf once.
//!
//! This module holds only what is specific to that budget model: the
//! unit move set (`UnitModel`) — a unit index plus leaf coverage over
//! the node ladder's [`PackedCounts`] binding, where a leaf joins the
//! failed set on its 0 → 1 coverage transition and leaves it on 1 → 0.
//! A unit's gain, hit supply and failable bound are read off its
//! uncovered leaves' hit-level rows and the hit-level histogram,
//! without adding the leaves. The greedy seed, the restart schedule and
//! climb, the exact DFS with its frontier split, the rungs and the
//! ledger are the node ladder's own code (`Ladder::run_domain` drives
//! it), so the domain ladder honours `parallelism` and
//! `Ladder::scratch` exactly as `Ladder::run` does. A flat topology,
//! where every unit is one leaf, runs the node move set itself. The
//! scalar oracle is the leaf-set ladder in [`crate::reference`]
//! (`tests/domain_differential.rs`).
//!
//! The bounds generalize admissibly: with `m` unit failures left, one
//! unit can add at most `c_max = max_u min(|leaves(u)|, r)` hits to one
//! object, so the histogram/supply bounds are evaluated at `m · c_max`
//! hits; for flat topologies `c_max = 1` recovers the node bounds
//! exactly.

use crate::counts::PackedCounts;
use crate::exact::{self, Branch, DfsScratch};
use crate::ladder::{domain_worst, kernel, Model, Moves};
use crate::search::{self, Climb, ClimbScratch, LadderTrace};
use crate::{AdversaryConfig, AdversaryScratch};
use wcp_core::{Placement, Topology};

/// The outcome of a domain-adversary run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainWorstCase {
    /// Objects failed by the chosen units.
    pub failed: u64,
    /// The chosen failure units (sorted indices into
    /// [`Topology::failure_units`]).
    pub units: Vec<u32>,
    /// The union of leaf nodes the chosen units take down (sorted).
    pub nodes: Vec<u16>,
    /// Whether `failed` is provably the maximum.
    pub exact: bool,
}

/// The immutable per-(placement, topology) unit index: leaf sets,
/// weights (total load of a unit's leaves), and the admissible
/// per-unit hit cap feeding the bounds.
#[derive(Debug)]
pub(crate) struct DomainIndex {
    /// Leaf sets per unit, in [`Topology::failure_units`] order.
    units: Vec<Vec<u16>>,
    /// Total load of each unit's leaves.
    weights: Vec<u64>,
    /// `max_u min(|leaves(u)|, r)` — the most hits one unit can deal a
    /// single object.
    max_unit_hits: u16,
    n: u16,
}

impl DomainIndex {
    /// The index of `topology`'s units over `placement`, for a budget
    /// of `k` units at threshold `s`.
    ///
    /// # Panics
    ///
    /// When the topology's node universe does not match the placement's,
    /// `k` exceeds the unit count, `s = 0` or `s > r`.
    pub(crate) fn new(placement: &Placement, topology: &Topology, s: u16, k: u16) -> Self {
        assert_eq!(
            topology.num_nodes(),
            placement.num_nodes(),
            "topology spans {} nodes, placement has {}",
            topology.num_nodes(),
            placement.num_nodes()
        );
        let loads = placement.cached_loads();
        let r = usize::from(placement.replicas_per_object());
        let units: Vec<Vec<u16>> = topology
            .failure_units()
            .into_iter()
            .map(|u| u.nodes)
            .collect();
        assert!(
            usize::from(k) <= units.len(),
            "k must be ≤ the number of failure units ({})",
            units.len()
        );
        assert!(s >= 1, "s must be ≥ 1");
        assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
        let weights = units
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .map(|&nd| loads.get(usize::from(nd)).map_or(0, |&l| u64::from(l)))
                    .sum()
            })
            .collect();
        let max_unit_hits = units.iter().map(|u| u.len().min(r)).max().unwrap_or(0) as u16;
        Self {
            units,
            weights,
            max_unit_hits,
            n: placement.num_nodes(),
        }
    }

    /// Whether every unit is one leaf (leaves come first, so the units
    /// are then exactly the nodes in order).
    pub(crate) fn is_flat(&self) -> bool {
        self.units.len() == usize::from(self.n)
    }

    fn leaves(&self, u: u32) -> &[u16] {
        self.units.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// The admissible hit budget of `m` more unit failures.
    fn hits(&self, m: u16) -> u16 {
        (u32::from(m) * u32::from(self.max_unit_hits)).min(u32::from(u16::MAX)) as u16
    }
}

/// Chosen-unit and leaf-coverage bookkeeping: a leaf is in the failed
/// set iff its coverage is positive, so overlapping units never
/// double-count a node.
#[derive(Debug, Default)]
pub(crate) struct CoverState {
    chosen: Vec<bool>,
    cover: Vec<u16>,
    /// Uncovered-leaf buffer of the unit gain.
    tmp: Vec<u16>,
    /// The leaves in `tmp`: `1` per node, `0` otherwise.
    open: Vec<u8>,
    /// The hit budget of the last [`Branch::begin_supply`].
    supply_hits: u16,
}

/// The failure-unit budget model over one placement and topology.
pub(crate) struct UnitModel<'p> {
    placement: &'p Placement,
    s: u16,
    index: DomainIndex,
}

impl<'p> UnitModel<'p> {
    pub(crate) fn new(placement: &'p Placement, s: u16, index: DomainIndex) -> Self {
        Self {
            placement,
            s,
            index,
        }
    }
}

impl Model for UnitModel<'_> {
    type Set<'a>
        = UnitMoves<'a>
    where
        Self: 'a;

    fn placement(&self) -> &Placement {
        self.placement
    }

    fn threshold(&self) -> u16 {
        self.s
    }

    fn len(&self) -> usize {
        self.index.units.len()
    }

    fn leaves(&self, ids: &[u32]) -> Vec<u16> {
        let mut nodes: Vec<u16> = ids
            .iter()
            .flat_map(|&u| self.index.leaves(u).iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    fn bind<'a>(
        &'a self,
        scratch: &'a mut AdversaryScratch,
        rebind: bool,
    ) -> (UnitMoves<'a>, &'a mut ClimbScratch, &'a mut DfsScratch) {
        let AdversaryScratch {
            packed,
            cover,
            climb,
            dfs,
            ..
        } = scratch;
        let pc = kernel(packed, self.placement, self.s, rebind);
        cover.chosen.clear();
        cover.chosen.resize(self.index.units.len(), false);
        cover.cover.clear();
        cover.cover.resize(usize::from(self.index.n), 0);
        cover.open.clear();
        cover.open.resize(usize::from(self.index.n), 0);
        let moves = UnitMoves {
            pc,
            idx: &self.index,
            cov: cover,
        };
        (moves, climb, dfs)
    }
}

/// The unit move set: leaf coverage over an accounting binding.
pub(crate) struct UnitMoves<'a> {
    pc: &'a mut PackedCounts,
    idx: &'a DomainIndex,
    cov: &'a mut CoverState,
}

impl UnitMoves<'_> {
    /// Marks unit `u` failed (`on`) or not: a leaf joins the failed set
    /// on its 0 → 1 coverage transition and leaves it on 1 → 0, so
    /// overlapping units never double-count a node.
    fn toggle(&mut self, u: u32, on: bool) {
        if let Some(chosen) = self.cov.chosen.get_mut(u as usize) {
            debug_assert_ne!(*chosen, on, "unit toggled twice");
            *chosen = on;
        }
        for &nd in self.idx.leaves(u) {
            let Some(c) = self.cov.cover.get_mut(usize::from(nd)) else {
                continue;
            };
            match (on, *c) {
                (true, 0) => self.pc.push::<false>(nd),
                (false, 1) => self.pc.remove::<false>(nd),
                _ => {}
            }
            *c = if on { *c + 1 } else { *c - 1 };
        }
    }
}

impl Moves for UnitMoves<'_> {
    fn len(&self) -> usize {
        self.idx.units.len()
    }

    fn weight(&self, m: u32) -> u64 {
        self.idx.weights.get(m as usize).copied().unwrap_or(0)
    }

    fn failed(&self) -> u64 {
        self.pc.failed()
    }

    /// One uncovered leaf is its level `s − 1`; more are one pass over
    /// their co-host rows with the leaves marked, no add/remove churn.
    fn gain(&mut self, m: u32) -> u64 {
        let UnitMoves { pc, idx, cov } = self;
        cov.tmp.clear();
        let open = |nd: &u16| cov.cover.get(usize::from(*nd)) == Some(&0);
        cov.tmp.extend(idx.leaves(m).iter().copied().filter(open));
        match cov.tmp.as_slice() {
            [] => 0,
            &[nd] => pc.gain(nd),
            leaves => {
                let mark = |open: &mut [u8], on: u8| {
                    for &nd in leaves {
                        if let Some(f) = open.get_mut(usize::from(nd)) {
                            *f = on;
                        }
                    }
                };
                mark(&mut cov.open, 1);
                let gain = pc.gain_of(leaves, &cov.open);
                mark(&mut cov.open, 0);
                gain
            }
        }
    }
}

impl Climb for UnitMoves<'_> {
    fn contains(&self, m: u32) -> bool {
        self.cov.chosen.get(m as usize).copied().unwrap_or(false)
    }

    fn add(&mut self, m: u32) {
        self.toggle(m, true);
    }

    fn members(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.idx.units.len() as u32).filter(|&u| self.contains(u)));
    }

    fn best_swap(&mut self, out: u32, floor: u64) -> Option<(u32, u64)> {
        self.toggle(out, false);
        let base = self.pc.failed();
        let mut best = None;
        let mut best_value = floor;
        for inn in 0..self.idx.units.len() as u32 {
            if inn == out || self.contains(inn) {
                continue;
            }
            let value = base + self.gain(inn);
            if value > best_value {
                best_value = value;
                best = Some((inn, value));
            }
        }
        self.toggle(out, true);
        best
    }

    fn swap(&mut self, out: u32, inn: u32) {
        self.toggle(out, false);
        self.toggle(inn, true);
    }
}

impl Branch for UnitMoves<'_> {
    fn prepare(&mut self, _k: u16) {}

    fn failable(&self, remaining: u16) -> u64 {
        self.pc.failable_within(self.idx.hits(remaining))
    }

    fn begin_supply(&mut self, remaining: u16) {
        self.cov.supply_hits = self.idx.hits(remaining);
    }

    /// Σ over the unit's uncovered leaves of hosted failable objects.
    fn supply(&self, m: u32) -> u64 {
        self.idx
            .leaves(m)
            .iter()
            .filter(|&&nd| self.cov.cover.get(usize::from(nd)) == Some(&0))
            .map(|&nd| self.pc.supply(nd, self.cov.supply_hits))
            .sum()
    }

    fn push(&mut self, m: u32) {
        self.toggle(m, true);
    }

    fn pop(&mut self, m: u32) {
        self.toggle(m, false);
    }

    fn enter_pair(&mut self, x: u32) -> (u64, u64) {
        self.toggle(x, true);
        let failed = self.pc.failed();
        (failed, failed + Branch::failable(self, 1))
    }

    fn pair_total(&mut self, _x: u32, failed_x: u64, y: u32) -> u64 {
        failed_x + self.gain(y)
    }

    fn leave_pair(&mut self, x: u32) {
        self.toggle(x, false);
    }

    /// The chosen units plus those of `extra` not chosen (the pair
    /// level's first move is failed already).
    fn witness(&self, extra: &[u32], out: &mut Vec<u32>) {
        self.members(out);
        out.extend(extra.iter().filter(|&&u| !self.contains(u)));
        out.sort_unstable();
    }

    fn root_key(&mut self, m: u32) -> (u64, u64) {
        (self.gain(m), self.weight(m))
    }

    fn root_bound(&mut self, m: u32, k: u16) -> u64 {
        self.toggle(m, true);
        let bound = self.pc.failed() + Branch::failable(self, k - 1);
        self.toggle(m, false);
        bound
    }
}

/// Greedy domain adversary: repeatedly fails the unit killing the most
/// additional objects (ties toward heavier total load, then lower id).
///
/// # Panics
///
/// Panics if `k` exceeds the unit count, `s = 0`, `s > r`, or the
/// topology's node universe mismatches the placement's.
#[must_use]
pub fn domain_greedy_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
) -> DomainWorstCase {
    let model = UnitModel::new(placement, s, DomainIndex::new(placement, topology, s, k));
    domain_worst(
        &model,
        search::greedy_moves(&model, k, &mut AdversaryScratch::new()),
    )
}

/// Steepest-ascent unit swap search with seeded restarts, on
/// `config.parallelism` threads with the same result at any count.
///
/// # Panics
///
/// As for [`domain_greedy_worst`].
#[must_use]
pub fn domain_local_search_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> DomainWorstCase {
    let model = UnitModel::new(placement, s, DomainIndex::new(placement, topology, s, k));
    let verdict = crate::parallel::local_search(
        &model,
        k,
        config,
        &mut AdversaryScratch::new(),
        &mut LadderTrace::default(),
    );
    domain_worst(&model, verdict)
}

/// Exact worst case over all `k`-subsets of failure units, or `None`
/// when the search exceeds `budget` expansions. As in the node ladder,
/// `incumbent` seeds the pruning bound and the returned unit set is
/// empty when no subset beats it.
///
/// # Panics
///
/// As for [`domain_greedy_worst`].
#[must_use]
pub fn domain_exact_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<DomainWorstCase> {
    let model = UnitModel::new(placement, s, DomainIndex::new(placement, topology, s, k));
    exact::exact_moves(&model, k, budget, incumbent, &mut AdversaryScratch::new())
        .map(|v| domain_worst(&model, v))
}

/// An [`wcp_core::engine::Attacker`] spending its budget on failure
/// units of a fixed [`Topology`]: plugging it into
/// [`wcp_core::Engine`] measures availability against correlated
/// rack/zone failures instead of independent node failures. The
/// reported witness is the *leaf union* of the chosen units (its length
/// is typically larger than `k`).
///
/// # Panics
///
/// [`attack`](wcp_core::engine::Attacker::attack) panics — the
/// `Attacker` contract has no error channel — when the topology's node
/// universe does not match the attacked placement's, when `k` exceeds
/// the unit count, or when `s = 0` or `s > r`. Note the contrast with *planning*:
/// a [`wcp_core::PlannerContext`] topology sized for a different `n` is
/// silently ignored (flat fallback), but attacking with a mismatched
/// topology is a hard configuration error, not a degradable one —
/// measuring against the wrong tree would report availability for a
/// different cluster.
///
/// # Examples
///
/// ```
/// use wcp_adversary::DomainAttacker;
/// use wcp_core::{Engine, StrategyKind, SystemParams, Topology};
///
/// let params = SystemParams::new(12, 24, 3, 2, 2)?;
/// let topo = Topology::split(12, &[4])?;
/// let engine = Engine::with_attacker(params, DomainAttacker::new(topo));
/// let report = engine.evaluate(&StrategyKind::DomainSpread)?;
/// assert!(report.exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DomainAttacker {
    topology: Topology,
    config: AdversaryConfig,
}

impl DomainAttacker {
    /// A domain attacker with the default ladder tuning.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self::with_config(topology, AdversaryConfig::default())
    }

    /// A domain attacker with explicit ladder tuning.
    #[must_use]
    pub fn with_config(topology: Topology, config: AdversaryConfig) -> Self {
        Self { topology, config }
    }

    /// The attacked failure-domain tree.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

impl wcp_core::engine::Attacker for DomainAttacker {
    fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::engine::AttackOutcome {
        crate::Ladder::new(&self.config)
            .certified()
            .run_domain(placement, &self.topology, s, k)
            .into_attack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    fn domain_auto_ladder(
        p: &Placement,
        topo: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        crate::Ladder::new(config).run_domain(p, topo, s, k).worst
    }

    /// Failed objects for an explicit unit choice, straight from the
    /// definition (union the leaves, count threshold crossings).
    fn failed_by_units(p: &Placement, topo: &Topology, units: &[u16], s: u16) -> u64 {
        let all = topo.failure_units();
        let mut nodes: Vec<u16> = units
            .iter()
            .flat_map(|&u| all[usize::from(u)].nodes.iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        p.failed_objects(&nodes, s)
    }

    fn brute_force_units(p: &Placement, topo: &Topology, s: u16, k: u16) -> u64 {
        let units = topo.failure_units().len() as u16;
        KSubsets::new(units, k)
            .map(|subset| failed_by_units(p, topo, &subset, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn exact_matches_unit_brute_force() {
        for seed in 0..3u64 {
            let p = random_placement(12, 30, 3, seed);
            let topo = Topology::split(12, &[4]).unwrap();
            for (s, k) in [(1u16, 2u16), (2, 2), (2, 3), (3, 3)] {
                let wc = domain_auto_ladder(&p, &topo, s, k, &AdversaryConfig::default());
                assert!(wc.exact, "seed={seed} s={s} k={k}");
                assert_eq!(
                    wc.failed,
                    brute_force_units(&p, &topo, s, k),
                    "seed={seed} s={s} k={k}"
                );
                assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness");
            }
        }
    }

    #[test]
    fn rack_failures_dominate_node_failures() {
        // A rack choice downs strictly more nodes than a leaf choice, so
        // the domain adversary is at least as damaging as the node one.
        let p = random_placement(15, 60, 3, 9);
        let topo = Topology::split(15, &[5]).unwrap();
        let cfg = AdversaryConfig::default();
        for (s, k) in [(1u16, 2u16), (2, 3)] {
            let node = crate::Ladder::new(&cfg).run(&p, s, k).worst;
            let domain = domain_auto_ladder(&p, &topo, s, k, &cfg);
            assert!(
                domain.failed >= node.failed,
                "s={s} k={k}: domain {} < node {}",
                domain.failed,
                node.failed
            );
        }
    }

    #[test]
    fn overlapping_choices_count_leaves_once() {
        // Choosing a leaf and the rack above it must equal choosing just
        // the rack's leaf set: coverage, not multiset addition.
        let p = random_placement(6, 20, 2, 4);
        let topo = Topology::split(6, &[2]).unwrap();
        // Units: leaves 0..6, rack {0,1,2} = 6, rack {3,4,5} = 7.
        let both = failed_by_units(&p, &topo, &[0, 6], 1);
        let rack_only = failed_by_units(&p, &topo, &[6], 1);
        assert_eq!(both, rack_only);
        // And the exact search at k = 2 is at least the single rack.
        let wc = domain_auto_ladder(&p, &topo, 1, 2, &AdversaryConfig::default());
        assert!(wc.failed >= rack_only);
    }

    #[test]
    fn degenerate_k_covers_every_unit() {
        let p = random_placement(6, 12, 2, 1);
        let topo = Topology::split(6, &[3]).unwrap();
        let units = topo.failure_units().len() as u16;
        let wc = domain_auto_ladder(&p, &topo, 1, units, &AdversaryConfig::default());
        assert_eq!(wc.failed, 12);
        assert_eq!(wc.nodes, (0..6).collect::<Vec<u16>>());
    }

    #[test]
    fn heuristics_are_bounded_by_exact() {
        let p = random_placement(14, 40, 3, 2);
        let topo = Topology::split(14, &[4, 2]).unwrap();
        let cfg = AdversaryConfig::default();
        for (s, k) in [(1u16, 2u16), (2, 3)] {
            let exact = brute_force_units(&p, &topo, s, k);
            let g = domain_greedy_worst(&p, &topo, s, k);
            let ls = domain_local_search_worst(&p, &topo, s, k, &cfg);
            assert!(g.failed <= exact);
            assert!(ls.failed >= g.failed, "LS must not lose to greedy");
            assert!(ls.failed <= exact);
            assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed);
        }
    }

    #[test]
    fn budget_exhaustion_falls_back_to_heuristic() {
        let p = random_placement(24, 120, 3, 7);
        let topo = Topology::split(24, &[8]).unwrap();
        let tight = AdversaryConfig {
            exact_budget: 4,
            ..AdversaryConfig::default()
        };
        let wc = domain_auto_ladder(&p, &topo, 2, 4, &tight);
        assert!(!wc.exact);
        assert_eq!(p.failed_objects(&wc.nodes, 2), wc.failed);
    }

    #[test]
    fn attacker_reports_leaf_union_witness() {
        use wcp_core::engine::Attacker;
        let p = random_placement(12, 24, 3, 3);
        let topo = Topology::split(12, &[4]).unwrap();
        let outcome = DomainAttacker::new(topo.clone()).attack(&p, 2, 2);
        assert_eq!(p.failed_objects(&outcome.nodes, 2), outcome.failed);
        let wc = domain_auto_ladder(&p, &topo, 2, 2, &AdversaryConfig::default());
        assert_eq!(outcome.failed, wc.failed);
        assert_eq!(outcome.nodes, wc.nodes);
    }

    #[test]
    fn unit_gains_match_the_scalar_oracle() {
        // On the golden record's rack, zone and irregular topologies:
        // after every move of a walk that adds units and removes them in
        // any order, each unit outside the set reports the gain, hit
        // supply and failable bound of a `FailureCounts` replay of its
        // uncovered leaves.
        use crate::FailureCounts;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let groups: Vec<Vec<u16>> = vec![
            vec![0],
            vec![1, 2],
            vec![3, 4, 5],
            (6..11).collect(),
            (11..20).collect(),
        ];
        let shapes = [
            (Topology::split(71, &[12]).unwrap(), 1_200u64, 2u64),
            (Topology::split(24, &[6, 2]).unwrap(), 600, 3),
            (Topology::from_groups(20, &groups).unwrap(), 400, 4),
        ];
        for (topo, b, seed) in shapes {
            let p = random_placement(topo.num_nodes(), b, 3, seed);
            let units = topo.failure_units().len() as u32;
            for s in 1..=3u16 {
                let model = UnitModel::new(&p, s, DomainIndex::new(&p, &topo, s, 3));
                let mut scratch = AdversaryScratch::new();
                let (mut ms, _, _) = model.bind(&mut scratch, true);
                let mut rng = StdRng::seed_from_u64(seed * 10 + u64::from(s));
                let mut chosen: Vec<u32> = Vec::new();
                for step in 0..16 {
                    if chosen.len() < 2 || (chosen.len() < 4 && rng.gen_bool(0.6)) {
                        let free: Vec<u32> = (0..units).filter(|u| !chosen.contains(u)).collect();
                        let u = free[rng.gen_range(0..free.len())];
                        ms.add(u);
                        chosen.push(u);
                    } else {
                        let u = chosen.swap_remove(rng.gen_range(0..chosen.len()));
                        Branch::pop(&mut ms, u);
                    }
                    let covered = model.leaves(&chosen);
                    let mut fc = FailureCounts::new(&p, s);
                    covered.iter().for_each(|&nd| fc.add_node(nd));
                    let before = fc.failed();
                    for remaining in 1..=3u16 {
                        let hits = model.index.hits(remaining);
                        let ctx = format!("s={s} step={step} remaining={remaining}");
                        assert_eq!(ms.failable(remaining), fc.failable_within(hits), "{ctx}");
                    }
                    for m in (0..units).filter(|u| !chosen.contains(u)) {
                        let ctx = format!("n={} s={s} step={step} unit={m}", p.num_nodes());
                        let open: Vec<u16> = (model.index.leaves(m).iter().copied())
                            .filter(|nd| !covered.contains(nd))
                            .collect();
                        open.iter().for_each(|&nd| fc.add_node(nd));
                        let gain = fc.failed() - before;
                        open.iter().for_each(|&nd| fc.remove_node(nd));
                        assert_eq!(ms.gain(m), gain, "{ctx}: gain");
                        for remaining in 1..=3u16 {
                            let hits = model.index.hits(remaining);
                            let lo = s.saturating_sub(hits);
                            let supply: u64 = (open.iter())
                                .flat_map(|&nd| fc.objects_on(nd).iter())
                                .filter(|&&obj| {
                                    let row = p.replicas(obj as usize);
                                    let h = row.iter().filter(|&&c| fc.contains(c)).count() as u16;
                                    lo <= h && h < s
                                })
                                .count() as u64;
                            ms.begin_supply(remaining);
                            assert_eq!(ms.supply(m), supply, "{ctx}: supply({remaining})");
                        }
                    }
                }
            }
        }
    }
}

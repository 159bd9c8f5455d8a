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
//! The search ladder mirrors the per-node ladder decision for decision
//! — same greedy tie-breaks, same local-search scan orders and restart
//! schedule (per-restart RNG streams, ties to the smallest witness),
//! same branch-and-bound shape (incumbent seeding, histogram bound,
//! shallow-depth supply bound and live child re-sorting, closed form
//! last level) — so on the **flat** topology it reproduces the node
//! ladder's [`crate::WorstCase`] bit for bit. It runs
//! on the word-parallel [`PackedCounts`] kernel by folding each unit's
//! per-node coverage into ripple-carry `add_node`/`remove_node` updates
//! (a node is added on its 0 → 1 coverage transition only, removed on
//! 1 → 0), with the scalar [`FailureCounts`] backend extended
//! identically as the [`scalar`] reference ladder for the differential
//! suite (`tests/domain_differential.rs`).
//!
//! The bounds generalize admissibly: with `m` unit failures left, one
//! unit can add at most `c_max = max_u min(|leaves(u)|, r)` hits to one
//! object, so the histogram/supply bounds are evaluated at `m · c_max`
//! hits; for flat topologies `c_max = 1` recovers the node bounds
//! exactly.

use crate::certify::{self, rung, trace_hash};
use crate::counts::{FailureCounts, PackedCounts};
use crate::parallel::{rank, restart_rng};
use crate::{AdversaryConfig, DomainLadderOutcome};
use rand::seq::SliceRandom;
use wcp_core::{Certificate, CertificateKind, LedgerEntry, Placement, Rung, RungKind, Topology};

/// Depths at which the DFS re-sorts children by live gain and applies
/// the supply bound (kept equal to the node ladder's constant so flat
/// topologies explore identically).
const SORT_DEPTH: u16 = 2;

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
struct DomainIndex {
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
    fn new(placement: &Placement, topology: &Topology) -> Self {
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
        let weights = units
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .map(|&nd| u64::from(loads[usize::from(nd)]))
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

    fn len(&self) -> usize {
        self.units.len()
    }

    /// The union of the given units' leaves (sorted, deduplicated).
    fn nodes_of(&self, units: &[u32]) -> Vec<u16> {
        let mut nodes: Vec<u16> = units
            .iter()
            .flat_map(|&u| self.units[u as usize].iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// The per-node accounting surface [`PackedCounts`] and
/// [`FailureCounts`] share; the coverage transition logic below is
/// written once against it so the packed and scalar backends cannot
/// drift apart.
trait NodeCounts {
    fn add_node(&mut self, node: u16);
    fn remove_node(&mut self, node: u16);
    fn gain(&self, node: u16) -> u64;
    fn failed(&self) -> u64;
}

impl NodeCounts for PackedCounts {
    fn add_node(&mut self, node: u16) {
        PackedCounts::add_node(self, node);
    }
    fn remove_node(&mut self, node: u16) {
        PackedCounts::remove_node(self, node);
    }
    fn gain(&self, node: u16) -> u64 {
        PackedCounts::gain(self, node)
    }
    fn failed(&self) -> u64 {
        PackedCounts::failed(self)
    }
}

impl NodeCounts for FailureCounts {
    fn add_node(&mut self, node: u16) {
        FailureCounts::add_node(self, node);
    }
    fn remove_node(&mut self, node: u16) {
        FailureCounts::remove_node(self, node);
    }
    fn gain(&self, node: u16) -> u64 {
        FailureCounts::gain(self, node)
    }
    fn failed(&self) -> u64 {
        FailureCounts::failed(self)
    }
}

/// Chosen-unit and leaf-coverage bookkeeping shared by both backends:
/// a leaf is failed in the underlying counts iff its coverage is
/// positive, so overlapping units never double-count a node.
#[derive(Debug, Default)]
struct CoverState {
    chosen: Vec<bool>,
    cover: Vec<u16>,
}

impl CoverState {
    fn reset(&mut self, units: usize, n: u16) {
        self.chosen.clear();
        self.chosen.resize(units, false);
        self.cover.clear();
        self.cover.resize(usize::from(n), 0);
    }

    fn chosen_units(&self) -> Vec<u32> {
        self.chosen
            .iter()
            .enumerate()
            .filter_map(|(u, &c)| c.then_some(u as u32))
            .collect()
    }

    fn failed_nodes(&self) -> Vec<u16> {
        self.cover
            .iter()
            .enumerate()
            .filter_map(|(nd, &c)| (c > 0).then_some(nd as u16))
            .collect()
    }

    /// Fails unit `u` (leaf set `leaves`): each leaf enters the counts
    /// on its 0 → 1 coverage transition only.
    fn fail_unit<C: NodeCounts>(&mut self, counts: &mut C, u: usize, leaves: &[u16]) {
        debug_assert!(!self.chosen[u], "unit already failed");
        self.chosen[u] = true;
        for &nd in leaves {
            let c = &mut self.cover[usize::from(nd)];
            *c += 1;
            if *c == 1 {
                counts.add_node(nd);
            }
        }
    }

    /// Unfails unit `u`: each leaf leaves the counts on its 1 → 0
    /// coverage transition only.
    fn unfail_unit<C: NodeCounts>(&mut self, counts: &mut C, u: usize, leaves: &[u16]) {
        debug_assert!(self.chosen[u], "unit not failed");
        self.chosen[u] = false;
        for &nd in leaves {
            let c = &mut self.cover[usize::from(nd)];
            *c -= 1;
            if *c == 0 {
                counts.remove_node(nd);
            }
        }
    }

    /// Additional failures if the unit with leaf set `leaves` were
    /// failed; `tmp` is scratch for the uncovered leaves. One uncovered
    /// leaf is the backend's maintained `gain` fast path (for the
    /// packed kernel a mask popcount, no add/remove churn); the general
    /// case applies and undoes.
    fn gain_unit<C: NodeCounts>(&self, counts: &mut C, leaves: &[u16], tmp: &mut Vec<u16>) -> u64 {
        tmp.clear();
        tmp.extend(
            leaves
                .iter()
                .copied()
                .filter(|&nd| self.cover[usize::from(nd)] == 0),
        );
        match tmp[..] {
            [] => 0,
            [nd] => counts.gain(nd),
            _ => {
                let before = counts.failed();
                for &nd in tmp.iter() {
                    counts.add_node(nd);
                }
                let after = counts.failed();
                for &nd in tmp.iter().rev() {
                    counts.remove_node(nd);
                }
                after - before
            }
        }
    }
}

/// The backend contract the generic search harness drives: failure
/// accounting at unit granularity, plus the bound queries of the exact
/// DFS. Implemented by the word-parallel kernel wrapper
/// ([`PackedDomainBackend`]) and the scalar reference wrapper
/// ([`ScalarDomainBackend`]); both must agree on every observable,
/// which `tests/domain_differential.rs` asserts.
trait DomainBackend {
    fn index(&self) -> &DomainIndex;
    fn failed(&self) -> u64;
    fn chosen(&self, u: usize) -> bool;
    fn chosen_units(&self) -> Vec<u32>;
    fn failed_nodes(&self) -> Vec<u16>;
    fn fail_unit(&mut self, u: usize);
    fn unfail_unit(&mut self, u: usize);
    /// Additional failures if `u` were failed (non-mutating overall;
    /// may internally apply and undo).
    fn gain_unit(&mut self, u: usize) -> u64;
    /// Objects within `hits` more replica hits of failing.
    fn failable_within_hits(&self, hits: u16) -> u64;
    /// Prepares [`unit_supply`](Self::unit_supply) queries at `hits`.
    fn begin_supply(&mut self, hits: u16);
    /// Σ over the unit's uncovered leaves of hosted failable objects.
    fn unit_supply(&self, u: usize) -> u64;
    /// Empties the failed set.
    fn clear(&mut self);
}

/// [`DomainBackend`] on the word-parallel [`PackedCounts`] kernel.
#[derive(Debug)]
struct PackedDomainBackend {
    idx: DomainIndex,
    pc: PackedCounts,
    cov: CoverState,
    failable: Vec<u64>,
    tmp: Vec<u16>,
}

impl PackedDomainBackend {
    fn new(placement: &Placement, topology: &Topology, s: u16) -> Self {
        let idx = DomainIndex::new(placement, topology);
        let mut cov = CoverState::default();
        cov.reset(idx.len(), idx.n);
        Self {
            idx,
            pc: PackedCounts::new(placement, s),
            cov,
            failable: Vec::new(),
            tmp: Vec::new(),
        }
    }
}

impl DomainBackend for PackedDomainBackend {
    fn index(&self) -> &DomainIndex {
        &self.idx
    }

    fn failed(&self) -> u64 {
        self.pc.failed()
    }

    fn chosen(&self, u: usize) -> bool {
        self.cov.chosen[u]
    }

    fn chosen_units(&self) -> Vec<u32> {
        self.cov.chosen_units()
    }

    fn failed_nodes(&self) -> Vec<u16> {
        self.cov.failed_nodes()
    }

    fn fail_unit(&mut self, u: usize) {
        self.cov.fail_unit(&mut self.pc, u, &self.idx.units[u]);
    }

    fn unfail_unit(&mut self, u: usize) {
        self.cov.unfail_unit(&mut self.pc, u, &self.idx.units[u]);
    }

    fn gain_unit(&mut self, u: usize) -> u64 {
        debug_assert!(!self.cov.chosen[u]);
        self.cov
            .gain_unit(&mut self.pc, &self.idx.units[u], &mut self.tmp)
    }

    fn failable_within_hits(&self, hits: u16) -> u64 {
        self.pc.failable_within(hits)
    }

    fn begin_supply(&mut self, hits: u16) {
        self.pc.failable_mask_into(hits, &mut self.failable);
    }

    fn unit_supply(&self, u: usize) -> u64 {
        self.idx.units[u]
            .iter()
            .filter(|&&nd| self.cov.cover[usize::from(nd)] == 0)
            .map(|&nd| self.pc.and_popcount_row(nd, &self.failable))
            .sum()
    }

    fn clear(&mut self) {
        self.pc.clear();
        self.cov.reset(self.idx.len(), self.idx.n);
    }
}

/// [`DomainBackend`] on the scalar [`FailureCounts`] oracle — the
/// reference the packed backend is differentially tested against.
#[derive(Debug)]
struct ScalarDomainBackend {
    idx: DomainIndex,
    fc: FailureCounts,
    cov: CoverState,
    supply_hits: u16,
    tmp: Vec<u16>,
}

impl ScalarDomainBackend {
    fn new(placement: &Placement, topology: &Topology, s: u16) -> Self {
        let idx = DomainIndex::new(placement, topology);
        let mut cov = CoverState::default();
        cov.reset(idx.len(), idx.n);
        Self {
            idx,
            fc: FailureCounts::new(placement, s),
            cov,
            supply_hits: 0,
            tmp: Vec::new(),
        }
    }
}

impl DomainBackend for ScalarDomainBackend {
    fn index(&self) -> &DomainIndex {
        &self.idx
    }

    fn failed(&self) -> u64 {
        self.fc.failed()
    }

    fn chosen(&self, u: usize) -> bool {
        self.cov.chosen[u]
    }

    fn chosen_units(&self) -> Vec<u32> {
        self.cov.chosen_units()
    }

    fn failed_nodes(&self) -> Vec<u16> {
        self.cov.failed_nodes()
    }

    fn fail_unit(&mut self, u: usize) {
        self.cov.fail_unit(&mut self.fc, u, &self.idx.units[u]);
    }

    fn unfail_unit(&mut self, u: usize) {
        self.cov.unfail_unit(&mut self.fc, u, &self.idx.units[u]);
    }

    fn gain_unit(&mut self, u: usize) -> u64 {
        debug_assert!(!self.cov.chosen[u]);
        self.cov
            .gain_unit(&mut self.fc, &self.idx.units[u], &mut self.tmp)
    }

    fn failable_within_hits(&self, hits: u16) -> u64 {
        self.fc.failable_within(hits)
    }

    fn begin_supply(&mut self, hits: u16) {
        self.supply_hits = hits;
    }

    fn unit_supply(&self, u: usize) -> u64 {
        let s = self.fc.threshold();
        let lo = s.saturating_sub(self.supply_hits);
        self.idx.units[u]
            .iter()
            .filter(|&&nd| self.cov.cover[usize::from(nd)] == 0)
            .map(|&nd| {
                self.fc
                    .objects_on(nd)
                    .iter()
                    .filter(|&&obj| {
                        let h = self.fc.hit_count(obj as usize);
                        h >= lo && h < s
                    })
                    .count() as u64
            })
            .sum()
    }

    fn clear(&mut self) {
        self.fc.clear();
        self.cov.reset(self.idx.len(), self.idx.n);
    }
}

/// The admissible hit budget of `m` more unit failures.
fn hits_budget(remaining: u16, c_max: u16) -> u16 {
    (u32::from(remaining) * u32::from(c_max)).min(u32::from(u16::MAX)) as u16
}

/// Snapshot of the backend's current choice as a heuristic outcome.
fn snapshot<B: DomainBackend>(be: &B, exact: bool) -> DomainWorstCase {
    DomainWorstCase {
        failed: be.failed(),
        units: be.chosen_units(),
        nodes: be.failed_nodes(),
        exact,
    }
}

/// Greedy ascent over units (the unit analogue of the node greedy:
/// highest gain, then heaviest total load, then lowest id). Leaves the
/// chosen set in `be`.
fn greedy_units<B: DomainBackend>(be: &mut B, k: u16) {
    debug_assert_eq!(be.failed(), 0, "greedy requires an empty set");
    let u_count = be.index().len();
    for _ in 0..usize::from(k).min(u_count) {
        let mut best_unit = None;
        let mut best_key = (0u64, 0u64);
        for u in 0..u_count {
            if be.chosen(u) {
                continue;
            }
            let key = (be.gain_unit(u), be.index().weights[u]);
            if best_unit.is_none() || key > best_key {
                best_key = key;
                best_unit = Some(u);
            }
        }
        be.fail_unit(best_unit.expect("k ≤ units leaves a choice"));
    }
}

/// Best-improvement unit swaps until a local optimum (or step cap) —
/// the unit analogue of the node ladder's climb, same scan orders and
/// strict-improvement tie-breaks.
fn climb_units<B: DomainBackend>(be: &mut B, max_steps: u32, all: u64) {
    let u_count = be.index().len();
    for _ in 0..max_steps {
        let current = be.failed();
        if current == all {
            return;
        }
        let members = be.chosen_units();
        let mut best: Option<(u32, u32, u64)> = None; // (out, in, value)
        for &out in &members {
            be.unfail_unit(out as usize);
            let base = be.failed();
            for inn in 0..u_count {
                if be.chosen(inn) || inn as u32 == out {
                    continue;
                }
                let value = base + be.gain_unit(inn);
                if value > current && best.is_none_or(|(_, _, v)| value > v) {
                    best = Some((out, inn as u32, value));
                }
            }
            be.fail_unit(out as usize);
        }
        match best {
            Some((out, inn, _)) => {
                be.unfail_unit(out as usize);
                be.fail_unit(inn as usize);
            }
            None => return,
        }
    }
}

/// Per-rung decision record of the unit ladder, consumed by the
/// certificate prover.
#[derive(Debug, Default)]
struct UnitTrace {
    /// The greedy seed's outcome before any climbing.
    greedy: Option<DomainWorstCase>,
    /// Each climb pass's `(failed, leaf witness)`, in restart order.
    restarts: Vec<(u64, Vec<u16>)>,
}

/// Greedy seed plus steepest-ascent restarts (the unit analogue of the
/// node local search, same restart schedule). Expects an empty backend.
fn local_search_units<B: DomainBackend>(
    be: &mut B,
    k: u16,
    config: &AdversaryConfig,
    all: u64,
) -> DomainWorstCase {
    local_search_units_traced(be, k, config, all, &mut UnitTrace::default())
}

/// [`local_search_units`] recording the per-rung decision trace. This
/// *is* the implementation — the untraced entry point passes a
/// discarded trace — so certified and uncertified ladders cannot drift.
/// Restart 0 climbs from the greedy set, restart `t > 0` from a random
/// unit set drawn from its own stream; every restart runs, and the best
/// keeps the most failed objects, ties to the smallest unit set.
fn local_search_units_traced<B: DomainBackend>(
    be: &mut B,
    k: u16,
    config: &AdversaryConfig,
    all: u64,
    trace: &mut UnitTrace,
) -> DomainWorstCase {
    let u_count = be.index().len();
    if usize::from(k) >= u_count {
        for u in 0..u_count {
            be.fail_unit(u);
        }
        return snapshot(be, false);
    }
    let mut best = snapshot(be, false);
    for t in 0..config.restarts.max(1) as usize {
        if t == 0 {
            greedy_units(be, k);
            trace.greedy = Some(snapshot(be, false));
        } else {
            be.clear();
            let mut perm: Vec<u32> = (0..u_count as u32).collect();
            perm.shuffle(&mut restart_rng(config.seed, t));
            for &u in perm.iter().take(usize::from(k)) {
                be.fail_unit(u as usize);
            }
        }
        if config.restarts > 0 {
            climb_units(be, config.max_steps, all);
        }
        let snap = snapshot(be, false);
        trace.restarts.push((snap.failed, snap.nodes.clone()));
        if t == 0 || rank(snap.failed, &snap.units) > rank(best.failed, &best.units) {
            best = snap;
        }
    }
    best
}

/// Branch-and-bound DFS over unit subsets (the unit analogue of the
/// node exact search: incumbent seeding, histogram bound at the unit
/// hit budget, shallow-depth supply bound + live child re-sorting,
/// closed-form last level). Returns `None` on budget exhaustion;
/// `best_units` is empty when no subset beat the incumbent. Expects an
/// empty backend.
fn exact_units<B: DomainBackend>(
    be: &mut B,
    k: u16,
    budget: u64,
    incumbent: u64,
    all: u64,
) -> Option<(u64, Vec<u32>)> {
    let u_count = be.index().len();
    if usize::from(k) >= u_count {
        for u in 0..u_count {
            be.fail_unit(u);
        }
        return Some((be.failed(), be.chosen_units()));
    }
    let mut order: Vec<u32> = (0..u_count as u32).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(be.index().weights[u as usize]));
    let c_max = be.index().max_unit_hits;
    let mut search = DomainSearch {
        be,
        k,
        best: incumbent,
        best_units: Vec::new(),
        expansions: 0,
        budget,
        all,
        c_max,
        sort_bufs: vec![Vec::new(); usize::from(SORT_DEPTH)],
        keys: Vec::new(),
        tops: Vec::new(),
    };
    if search.dfs(&order, 0) {
        Some((search.best, search.best_units))
    } else {
        None
    }
}

struct DomainSearch<'a, B: DomainBackend> {
    be: &'a mut B,
    k: u16,
    best: u64,
    best_units: Vec<u32>,
    expansions: u64,
    budget: u64,
    all: u64,
    c_max: u16,
    sort_bufs: Vec<Vec<u32>>,
    keys: Vec<(u64, u64, u32)>,
    tops: Vec<u64>,
}

impl<B: DomainBackend> DomainSearch<'_, B> {
    /// Returns `false` on budget exhaustion.
    fn dfs(&mut self, cands: &[u32], depth: u16) -> bool {
        if depth == self.k {
            // Only reachable for k = 0; positive k closes below.
            if self.be.failed() > self.best {
                self.best = self.be.failed();
                self.best_units = self.be.chosen_units();
            }
            return true;
        }
        let remaining = self.k - depth;
        let failed = self.be.failed();
        if remaining == 1 {
            if self.best >= self.all {
                return true;
            }
            for &u in cands {
                self.expansions += 1;
                if self.expansions > self.budget {
                    return false;
                }
                let total = failed + self.be.gain_unit(u as usize);
                if total > self.best {
                    self.best = total;
                    self.best_units = self.be.chosen_units();
                    self.best_units.push(u);
                    self.best_units.sort_unstable();
                }
            }
            return true;
        }
        let hits = hits_budget(remaining, self.c_max);
        let bound = failed + self.be.failable_within_hits(hits);
        if bound <= self.best || self.best >= self.all {
            return true;
        }
        if depth < SORT_DEPTH {
            self.be.begin_supply(hits);
            let supply = self.supply_bound(cands, remaining);
            if failed + supply <= self.best {
                return true;
            }
            let mut buf = std::mem::take(&mut self.sort_bufs[usize::from(depth)]);
            self.order_by_live_gain(cands, &mut buf);
            let ok = self.expand(&buf, depth, remaining);
            self.sort_bufs[usize::from(depth)] = buf;
            ok
        } else {
            self.expand(cands, depth, remaining)
        }
    }

    fn expand(&mut self, cands: &[u32], depth: u16, remaining: u16) -> bool {
        let last = cands.len() - usize::from(remaining) + 1;
        for (pos, &u) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            self.be.fail_unit(u as usize);
            let ok = self.dfs(&cands[pos + 1..], depth + 1);
            self.be.unfail_unit(u as usize);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Sorts `cands` into `buf` by decreasing `(gain, weight, unit)`
    /// under the current partial failure set.
    fn order_by_live_gain(&mut self, cands: &[u32], buf: &mut Vec<u32>) {
        self.keys.clear();
        for &u in cands {
            let gain = self.be.gain_unit(u as usize);
            self.keys
                .push((gain, self.be.index().weights[u as usize], u));
        }
        self.keys.sort_unstable_by(|a, b| b.cmp(a));
        buf.clear();
        buf.extend(self.keys.iter().map(|&(_, _, u)| u));
    }

    /// Admissible hit-supply bound: at most the sum of the `remaining`
    /// largest unit supplies among the candidates (each newly failed
    /// object consumes at least one supplied hit).
    fn supply_bound(&mut self, cands: &[u32], remaining: u16) -> u64 {
        let m = usize::from(remaining);
        self.tops.clear();
        for &u in cands {
            let supply = self.be.unit_supply(u as usize);
            if self.tops.len() < m {
                let at = self.tops.partition_point(|&t| t < supply);
                self.tops.insert(at, supply);
            } else if let Some(&min) = self.tops.first() {
                if supply > min {
                    self.tops.remove(0);
                    let at = self.tops.partition_point(|&t| t < supply);
                    self.tops.insert(at, supply);
                }
            }
        }
        self.tops.iter().sum()
    }
}

/// The unit-budget driver behind `Ladder::run_domain` (certified or
/// not) and the scalar oracle: local search seeds the exact rung, whose
/// verdict stands when it completes within budget. Returns the verdict
/// and the rungs that led to it. Expects an empty backend.
fn domain_ladder<B: DomainBackend>(
    be: &mut B,
    k: u16,
    config: &AdversaryConfig,
    all: u64,
) -> (DomainWorstCase, Vec<Rung>) {
    let u_count = be.index().len();
    if k == 0 || usize::from(k) >= u_count {
        // Degenerate budgets need no search: k = 0 fails nothing,
        // k ≥ units fails every unit. One exact rung.
        if k > 0 {
            for u in 0..u_count {
                be.fail_unit(u);
            }
        }
        let worst = snapshot(be, true);
        let rungs = vec![rung(
            RungKind::Exact,
            worst.failed,
            &worst.nodes,
            &worst.units,
            0,
        )];
        return (worst, rungs);
    }
    let mut trace = UnitTrace::default();
    let heuristic = local_search_units_traced(be, k, config, all, &mut trace);
    be.clear();
    let exact = exact_units(be, k, config.exact_budget, heuristic.failed, all);
    let mut rungs = Vec::with_capacity(3);
    if let Some(g) = trace.greedy {
        let hash = trace_hash(&[(g.failed, g.nodes.clone())]);
        rungs.push(rung(RungKind::Greedy, g.failed, &g.nodes, &g.units, hash));
    }
    let hash = trace_hash(&trace.restarts);
    let h = &heuristic;
    rungs.push(rung(
        RungKind::LocalSearch,
        h.failed,
        &h.nodes,
        &h.units,
        hash,
    ));
    let worst = match exact {
        Some((failed, units)) if failed > heuristic.failed => {
            let nodes = be.index().nodes_of(&units);
            DomainWorstCase {
                failed,
                units,
                nodes,
                exact: true,
            }
        }
        Some(_) => DomainWorstCase {
            exact: true,
            ..heuristic
        },
        None => heuristic,
    };
    if worst.exact {
        let w = &worst;
        rungs.push(rung(RungKind::Exact, w.failed, &w.nodes, &w.units, 0));
    }
    (worst, rungs)
}

fn check_shape(placement: &Placement, topology: &Topology, s: u16, k: u16) {
    let units = topology.failure_units().len();
    assert!(
        usize::from(k) <= units,
        "k must be ≤ the number of failure units ({units})"
    );
    assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
}

/// Greedy domain adversary: repeatedly fails the unit killing the most
/// additional objects (ties toward heavier total load, then lower id).
///
/// # Panics
///
/// Panics if `k` exceeds the unit count, `s > r`, or the topology's
/// node universe mismatches the placement's.
#[must_use]
pub fn domain_greedy_worst(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
) -> DomainWorstCase {
    check_shape(placement, topology, s, k);
    let mut be = PackedDomainBackend::new(placement, topology, s);
    greedy_units(&mut be, k);
    snapshot(&be, false)
}

/// Steepest-ascent unit swap search with seeded restarts.
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
    check_shape(placement, topology, s, k);
    let mut be = PackedDomainBackend::new(placement, topology, s);
    local_search_units(&mut be, k, config, placement.num_objects() as u64)
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
    check_shape(placement, topology, s, k);
    let mut be = PackedDomainBackend::new(placement, topology, s);
    let all = placement.num_objects() as u64;
    exact_units(&mut be, k, budget, incumbent, all).map(|(failed, units)| {
        let nodes = be.index().nodes_of(&units);
        DomainWorstCase {
            failed,
            units,
            nodes,
            exact: true,
        }
    })
}

/// The exact rung's post-hoc bound ledger over failure units: one
/// admissible bound per root child of the branch-and-bound tree, in the
/// canonical `(gain, weight, unit)` descending root order (the order
/// `DomainSearch::order_by_live_gain` derives at the empty set),
/// covering the `units − k + 1` children the root frame expands. The
/// bound generalizes the node ledger's: after failing the root unit,
/// the remaining `k − 1` units add at most `c_max` hits each per
/// object. Degenerate budgets need no search and get no ledger.
fn unit_ledger<B: DomainBackend>(be: &mut B, k: u16) -> Vec<LedgerEntry> {
    let u_count = be.index().len();
    if k == 0 || usize::from(k) >= u_count {
        return Vec::new();
    }
    be.clear();
    let c_max = be.index().max_unit_hits;
    let hits = hits_budget(k - 1, c_max);
    let mut keys: Vec<(u64, u64, u32)> = Vec::with_capacity(u_count);
    for u in 0..u_count {
        let gain = be.gain_unit(u);
        keys.push((gain, be.index().weights[u], u as u32));
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    let roots = u_count - usize::from(k) + 1;
    let mut ledger = Vec::with_capacity(roots);
    for &(_, _, u) in keys.iter().take(roots) {
        be.fail_unit(u as usize);
        let bound = be.failed() + be.failable_within_hits(hits);
        be.unfail_unit(u as usize);
        ledger.push(LedgerEntry { root: u, bound });
    }
    ledger
}

/// Runs the packed unit ladder behind `Ladder::run_domain`, sealing
/// its certificate when `certified`. The certificate's rung witnesses
/// carry both the chosen unit ids and their leaf union; the verifier
/// needs the same [`Topology`] to re-check them.
///
/// # Panics
///
/// As for [`domain_greedy_worst`].
pub(crate) fn run_ladder(
    placement: &Placement,
    topology: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    certified: bool,
) -> DomainLadderOutcome {
    check_shape(placement, topology, s, k);
    let mut be = PackedDomainBackend::new(placement, topology, s);
    let (worst, rungs) = domain_ladder(&mut be, k, config, placement.num_objects() as u64);
    let certificate = certified.then(|| Certificate {
        ledger: if worst.exact {
            unit_ledger(&mut be, k)
        } else {
            Vec::new()
        },
        rungs,
        claimed_failed: worst.failed,
        exact: worst.exact,
        ..certify::base_certificate(placement, CertificateKind::Domain, s, k)
    });
    DomainLadderOutcome { worst, certificate }
}

/// The scalar reference ladder over failure units: identical decisions
/// to the packed entry points, running on [`FailureCounts`] — the
/// oracle side of `tests/domain_differential.rs`.
pub mod scalar {
    use super::{
        check_shape, domain_ladder, exact_units, greedy_units, local_search_units, snapshot,
        DomainWorstCase, ScalarDomainBackend,
    };
    use crate::AdversaryConfig;
    use wcp_core::{Placement, Topology};

    /// Scalar mirror of [`super::domain_greedy_worst`].
    #[must_use]
    pub fn domain_greedy_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
    ) -> DomainWorstCase {
        check_shape(placement, topology, s, k);
        let mut be = ScalarDomainBackend::new(placement, topology, s);
        greedy_units(&mut be, k);
        snapshot(&be, false)
    }

    /// Scalar mirror of [`super::domain_local_search_worst`].
    #[must_use]
    pub fn domain_local_search_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        check_shape(placement, topology, s, k);
        let mut be = ScalarDomainBackend::new(placement, topology, s);
        local_search_units(&mut be, k, config, placement.num_objects() as u64)
    }

    /// Scalar mirror of [`super::domain_exact_worst`].
    #[must_use]
    pub fn domain_exact_worst(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        budget: u64,
        incumbent: u64,
    ) -> Option<DomainWorstCase> {
        check_shape(placement, topology, s, k);
        let mut be = ScalarDomainBackend::new(placement, topology, s);
        let all = placement.num_objects() as u64;
        exact_units(&mut be, k, budget, incumbent, all).map(|(failed, units)| {
            let nodes = be.idx.nodes_of(&units);
            DomainWorstCase {
                failed,
                units,
                nodes,
                exact: true,
            }
        })
    }

    /// Scalar mirror of the packed domain ladder behind
    /// [`crate::Ladder::run_domain`].
    #[must_use]
    pub fn domain_worst_case_failures(
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
        config: &AdversaryConfig,
    ) -> DomainWorstCase {
        check_shape(placement, topology, s, k);
        let mut be = ScalarDomainBackend::new(placement, topology, s);
        domain_ladder(&mut be, k, config, placement.num_objects() as u64).0
    }
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
/// the unit count, or when `s > r`. Note the contrast with *planning*:
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
}

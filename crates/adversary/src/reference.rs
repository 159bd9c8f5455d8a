//! The scalar reference ladder: greedy, local search and a plain exact
//! DFS on [`FailureCounts`], over *leaf-set moves* — a move fails a set
//! of leaf nodes: one node for the node budget, one failure unit of a
//! [`Topology`] (a leaf, a rack's leaves, a zone's leaves) for the
//! domain budget.
//!
//! These are the *oracle* implementations the kernel ladder is
//! differentially tested against (`tests/packed_differential.rs`,
//! `tests/domain_differential.rs`) and the baseline series recorded in
//! `BENCH_adversary.json`. The heuristics are deliberately kept
//! decision-identical to the production ladder: same scan orders, same
//! strict-improvement tie-breaking, same restart schedule (per-restart
//! RNG streams, every restart run, ties to the smallest witness) — so
//! the property suites can assert full equality, not just equal
//! objective values. The exact DFS keeps only the static weight order
//! and the histogram bound, so it agrees with the production DFS on the
//! optimum, not necessarily on the witness.

use crate::counts::FailureCounts;
use crate::parallel::{rank, restart_rng};
use crate::{AdversaryConfig, AdversaryScratch, DomainWorstCase, WorstCase};
use rand::seq::SliceRandom;
use wcp_core::{Placement, Topology};

/// Leaf-set moves over scalar failure accounting, with leaf coverage so
/// overlapping moves count each leaf once.
struct Moves<'a> {
    fc: &'a mut FailureCounts,
    leaves: Vec<Vec<u16>>,
    /// Each move's leaves' total load.
    weights: Vec<u64>,
    /// The most hits one move deals an object: `max min(|leaves|, r)`.
    c_max: u16,
    /// Objects in the placement.
    all: u64,
    chosen: Vec<bool>,
    cover: Vec<u16>,
}

/// A search result: the damage and the moves that deal it.
type Found = (u64, Vec<u32>);

impl<'a> Moves<'a> {
    /// Moves with the given leaf sets (one per node when `None`) over
    /// an empty `fc` bound to `placement` at threshold `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s = 0`, as the production ladder does.
    fn new(
        fc: &'a mut FailureCounts,
        placement: &Placement,
        s: u16,
        units: Option<&Topology>,
    ) -> Self {
        assert!(s >= 1, "s must be ≥ 1");
        let leaves: Vec<Vec<u16>> = match units {
            Some(topology) => {
                assert_eq!(topology.num_nodes(), placement.num_nodes(), "topology size");
                topology
                    .failure_units()
                    .into_iter()
                    .map(|u| u.nodes)
                    .collect()
            }
            None => (0..placement.num_nodes()).map(|nd| vec![nd]).collect(),
        };
        let loads = placement.cached_loads();
        let load = |nd: &u16| loads.get(usize::from(*nd)).map_or(0, |&l| u64::from(l));
        let r = usize::from(placement.replicas_per_object());
        Self {
            fc,
            weights: leaves
                .iter()
                .map(|set| set.iter().map(load).sum())
                .collect(),
            c_max: leaves.iter().map(|set| set.len().min(r)).max().unwrap_or(0) as u16,
            all: placement.num_objects() as u64,
            chosen: vec![false; leaves.len()],
            cover: vec![0; usize::from(placement.num_nodes())],
            leaves,
        }
    }

    fn len(&self) -> usize {
        self.leaves.len()
    }

    fn set(&self, m: usize) -> &[u16] {
        self.leaves.get(m).map_or(&[], Vec::as_slice)
    }

    fn chosen(&self, m: usize) -> bool {
        self.chosen.get(m).copied().unwrap_or(false)
    }

    /// Marks move `m` failed (`on`) or not; a leaf enters the counts on
    /// its 0 → 1 coverage transition and leaves them on 1 → 0.
    fn toggle(&mut self, m: usize, on: bool) {
        if let Some(c) = self.chosen.get_mut(m) {
            *c = on;
        }
        for &nd in self.leaves.get(m).map_or(&[] as &[u16], Vec::as_slice) {
            let Some(c) = self.cover.get_mut(usize::from(nd)) else {
                continue;
            };
            match (on, *c) {
                (true, 0) => self.fc.add_node(nd),
                (false, 1) => self.fc.remove_node(nd),
                _ => {}
            }
            *c = if on { *c + 1 } else { *c - 1 };
        }
    }

    /// Additional failures if move `m` joined the set: one uncovered
    /// leaf is the scalar `gain`, more apply and undo.
    fn gain(&mut self, m: usize) -> u64 {
        let open: Vec<u16> = self
            .set(m)
            .iter()
            .copied()
            .filter(|&nd| self.cover.get(usize::from(nd)) == Some(&0))
            .collect();
        match open.as_slice() {
            [] => 0,
            &[nd] => self.fc.gain(nd),
            leaves => {
                let before = self.fc.failed();
                leaves.iter().for_each(|&nd| self.fc.add_node(nd));
                let after = self.fc.failed();
                leaves.iter().rev().for_each(|&nd| self.fc.remove_node(nd));
                after - before
            }
        }
    }

    fn weight(&self, m: usize) -> u64 {
        self.weights.get(m).copied().unwrap_or(0)
    }

    fn clear(&mut self) {
        self.fc.clear();
        self.chosen.fill(false);
        self.cover.fill(0);
    }

    fn found(&self) -> Found {
        let ids = (0..self.len()).filter(|&m| self.chosen(m));
        (self.fc.failed(), ids.map(|m| m as u32).collect())
    }

    fn fail_all(&mut self) -> Found {
        for m in 0..self.len() {
            if !self.chosen(m) {
                self.toggle(m, true);
            }
        }
        self.found()
    }

    /// The leaf union of moves `ids` (sorted).
    fn leaves_of(&self, ids: &[u32]) -> Vec<u16> {
        let mut nodes: Vec<u16> = ids
            .iter()
            .flat_map(|&m| self.set(m as usize).iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    fn node_worst(&self, (failed, ids): Found, exact: bool) -> WorstCase {
        let nodes = self.leaves_of(&ids);
        WorstCase {
            failed,
            nodes,
            exact,
        }
    }

    fn domain_worst(&self, (failed, units): Found, exact: bool) -> DomainWorstCase {
        let nodes = self.leaves_of(&units);
        DomainWorstCase {
            failed,
            units,
            nodes,
            exact,
        }
    }
}

/// Greedy ascent: `k` times, fails the move with the largest
/// `(gain, weight)`, ties to the lower id.
fn greedy(ms: &mut Moves, k: u16) -> Found {
    for _ in 0..usize::from(k).min(ms.len()) {
        let mut best = None;
        let mut best_key = (0u64, 0u64);
        for m in 0..ms.len() {
            if ms.chosen(m) {
                continue;
            }
            let key = (ms.gain(m), ms.weight(m));
            if best.is_none() || key > best_key {
                best_key = key;
                best = Some(m);
            }
        }
        let Some(m) = best else { break };
        ms.toggle(m, true);
    }
    ms.found()
}

/// Best-improvement swaps until a local optimum (or step cap) — the
/// `O(k·len·ℓ)`-per-step full re-scan the production climb's one-pass
/// swap values replace.
fn climb(ms: &mut Moves, max_steps: u32) {
    for _ in 0..max_steps {
        let (current, members) = ms.found();
        if current == ms.all {
            return;
        }
        let mut best: Option<(usize, usize, u64)> = None; // (out, in, value)
        for out in members.into_iter().map(|m| m as usize) {
            ms.toggle(out, false);
            let base = ms.fc.failed();
            for inn in 0..ms.len() {
                if ms.chosen(inn) || inn == out {
                    continue;
                }
                let value = base + ms.gain(inn);
                if value > current && best.is_none_or(|(_, _, v)| value > v) {
                    best = Some((out, inn, value));
                }
            }
            ms.toggle(out, true);
        }
        let Some((out, inn, _)) = best else { return };
        ms.toggle(out, false);
        ms.toggle(inn, true);
    }
}

/// Greedy seed plus steepest-ascent restarts: restart 0 climbs from the
/// greedy set, restart `t > 0` from a random `k`-set drawn from its own
/// stream; the best keeps the most failed objects, ties to the smallest
/// move set.
fn local_search(ms: &mut Moves, k: u16, config: &AdversaryConfig) -> Found {
    if usize::from(k) >= ms.len() {
        return ms.fail_all();
    }
    let mut best = (0, Vec::new());
    for t in 0..config.restarts.max(1) as usize {
        ms.clear();
        if t == 0 {
            greedy(ms, k);
        } else {
            let mut perm: Vec<u32> = (0..ms.len() as u32).collect();
            perm.shuffle(&mut restart_rng(config.seed, t));
            for &m in perm.iter().take(usize::from(k)) {
                ms.toggle(m as usize, true);
            }
        }
        if config.restarts > 0 {
            climb(ms, config.max_steps);
        }
        let found = ms.found();
        if t == 0 || rank(found.0, &found.1) > rank(best.0, &best.1) {
            best = found;
        }
    }
    best
}

/// Plain exact DFS: children in decreasing weight order, pruned by the
/// histogram bound at `remaining · c_max` hits only. `None` on budget
/// exhaustion.
fn exact(ms: &mut Moves, k: u16, budget: u64, incumbent: u64) -> Option<Found> {
    if usize::from(k) >= ms.len() {
        return Some(ms.fail_all());
    }
    let mut order: Vec<usize> = (0..ms.len()).collect();
    order.sort_by_key(|&m| std::cmp::Reverse(ms.weight(m)));
    let mut best = (incumbent, Vec::new());
    let mut expansions = 0;
    dfs(ms, &order, 0, k, &mut best, &mut expansions, budget).then_some(best)
}

/// One DFS frame over `order[from..]` with `k` moves left to choose;
/// `false` on budget exhaustion.
fn dfs(
    ms: &mut Moves,
    order: &[usize],
    from: usize,
    k: u16,
    best: &mut Found,
    expansions: &mut u64,
    budget: u64,
) -> bool {
    if k == 0 {
        if ms.fc.failed() > best.0 {
            *best = ms.found();
        }
        return true;
    }
    let hits = (u32::from(k) * u32::from(ms.c_max)).min(u32::from(u16::MAX)) as u16;
    if ms.fc.failed() + ms.fc.failable_within(hits) <= best.0 || best.0 >= ms.all {
        return true;
    }
    let last = (order.len() + 1).saturating_sub(usize::from(k));
    for (pos, &m) in order.iter().enumerate().take(last).skip(from) {
        *expansions += 1;
        if *expansions > budget {
            return false;
        }
        ms.toggle(m, true);
        let ok = dfs(ms, order, pos + 1, k - 1, best, expansions, budget);
        ms.toggle(m, false);
        if !ok {
            return false;
        }
    }
    true
}

/// The failure units of `topology` as moves, checking the shape.
fn units<'a>(
    fc: &'a mut FailureCounts,
    p: &Placement,
    topo: &Topology,
    s: u16,
    k: u16,
) -> Moves<'a> {
    assert!(s <= p.replicas_per_object(), "s must be ≤ r");
    let ms = Moves::new(fc, p, s, Some(topo));
    assert!(usize::from(k) <= ms.len(), "k must be ≤ the unit count");
    ms
}

/// Scalar greedy adversary (see [`crate::greedy_worst`] for semantics).
///
/// # Panics
///
/// Panics if `s = 0`, as the production ladder does.
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch (scalar backend).
///
/// # Panics
///
/// As for [`greedy_worst`].
#[must_use]
pub fn greedy_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let mut ms = Moves::new(scratch.bind(placement, s), placement, s, None);
    let found = greedy(&mut ms, k);
    ms.node_worst(found, false)
}

/// Scalar local search (see [`crate::local_search_worst`]).
///
/// # Panics
///
/// As for [`greedy_worst`].
#[must_use]
pub fn local_search_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> WorstCase {
    local_search_worst_with(placement, s, k, config, &mut AdversaryScratch::new())
}

/// [`local_search_worst`] reusing the caller's scratch (scalar backend).
///
/// # Panics
///
/// As for [`greedy_worst`].
#[must_use]
pub fn local_search_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let mut ms = Moves::new(scratch.bind(placement, s), placement, s, None);
    let found = local_search(&mut ms, k, config);
    ms.node_worst(found, false)
}

/// Scalar exact DFS with the load-ordered children and the
/// `failable_within` bound only (no supply bound, no live re-sorting) —
/// see [`crate::exact_worst`].
///
/// # Panics
///
/// As for [`greedy_worst`].
#[must_use]
pub fn exact_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<WorstCase> {
    let mut fc = FailureCounts::new(placement, s);
    let mut ms = Moves::new(&mut fc, placement, s, None);
    let found = exact(&mut ms, k, budget, incumbent)?;
    Some(ms.node_worst(found, true))
}

/// Scalar greedy over failure units (see [`crate::domain_greedy_worst`]).
///
/// # Panics
///
/// Panics if `s = 0`, `s > r`, `k` exceeds the unit count, or the
/// topology's node universe mismatches the placement's.
#[must_use]
pub fn domain_greedy_worst(p: &Placement, topo: &Topology, s: u16, k: u16) -> DomainWorstCase {
    let mut fc = FailureCounts::new(p, s);
    let mut ms = units(&mut fc, p, topo, s, k);
    let found = greedy(&mut ms, k);
    ms.domain_worst(found, false)
}

/// Scalar local search over failure units (see
/// [`crate::domain_local_search_worst`]).
///
/// # Panics
///
/// Panics if `s = 0`, `s > r`, `k` exceeds the unit count, or the
/// topology's node universe mismatches the placement's.
#[must_use]
pub fn domain_local_search_worst(
    p: &Placement,
    topo: &Topology,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> DomainWorstCase {
    let mut fc = FailureCounts::new(p, s);
    let mut ms = units(&mut fc, p, topo, s, k);
    let found = local_search(&mut ms, k, config);
    ms.domain_worst(found, false)
}

/// Scalar exact DFS over failure units (see
/// [`crate::domain_exact_worst`]): the same optimum, not necessarily
/// the same witness.
///
/// # Panics
///
/// Panics if `s = 0`, `s > r`, `k` exceeds the unit count, or the
/// topology's node universe mismatches the placement's.
#[must_use]
pub fn domain_exact_worst(
    p: &Placement,
    topo: &Topology,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<DomainWorstCase> {
    let mut fc = FailureCounts::new(p, s);
    let mut ms = units(&mut fc, p, topo, s, k);
    let found = exact(&mut ms, k, budget, incumbent)?;
    Some(ms.domain_worst(found, true))
}

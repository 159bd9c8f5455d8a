//! Exact worst-case search: branch-and-bound DFS over move subsets,
//! written once for every budget model ([`Branch`]).
//!
//! Upgrades over the scalar reference DFS
//! ([`crate::reference::exact_worst`]):
//!
//! * every number a frame reads comes from [`PackedCounts`]' hit-level
//!   tables in `O(1)` per candidate: the failed count and the histogram
//!   bound from the hit-level histogram, and per node its gain, its hit
//!   supply and what it exposes to a partner. Each add/remove shifts
//!   the tables in `O(load·r)` by streaming the node's co-host row; the
//!   unit move set adds and removes a unit's uncovered leaves;
//! * alongside the histogram bound, shallow depths apply a **hit-supply
//!   bound**: every newly failed object needs at least one more replica
//!   hit, and the `m` remaining moves can supply at most the sum of the
//!   `m` largest supplies among the live candidates — an admissible cap
//!   that prunes whole subtrees the histogram bound cannot;
//! * shallow depths **re-sort their candidate children by live gain**
//!   (then weight), so the incumbent-beating sets are explored first and
//!   the bounds bite sooner. Each frame orders only its own candidate
//!   slice, which preserves exactly-once subset enumeration;
//! * the last level closes in one sweep under an `O(1)` ceiling, and the
//!   bottom two levels in one fused loop over candidate pairs: the node
//!   move set reads the pair-correction matrix, which its pushes and
//!   pops keep along the DFS path, instead of adding and removing the
//!   first node of each pair.
//!
//! A failure-unit move deals up to `c_max` hits to one object, so the
//! unit move set evaluates every bound at `m · c_max` hits; with
//! `c_max = 1` that is the node bound.

use crate::ladder::{node, Model, Moves, NodeModel, NodeMoves, Verdict};
use crate::pool::SharedBound;
use crate::{AdversaryScratch, WorstCase};
use std::cmp::Reverse;
use wcp_core::Placement;

/// Depths at which the DFS re-sorts children by live gain and applies
/// the supply bound. Shallow frames dominate the search tree's branch
/// choices; deeper frames keep the cheap static order.
const SORT_DEPTH: u16 = 2;

/// What the exact DFS needs from a move set. Moves are ids
/// `0..len()`; every query is about the current failed set and moves
/// outside it.
pub(crate) trait Branch: Moves {
    /// Readies the move set for a `k`-move search.
    fn prepare(&mut self, k: u16);
    /// Admissible cap on the objects `remaining` more moves can add.
    fn failable(&self, remaining: u16) -> u64;
    /// Readies [`Branch::supply`] for `remaining` more moves.
    fn begin_supply(&mut self, remaining: u16);
    /// The hits `m` can supply to objects failable within the
    /// remaining moves.
    fn supply(&self, m: u32) -> u64;
    /// Adds `m` to the set.
    fn push(&mut self, m: u32);
    /// Removes `m`, the last move pushed.
    fn pop(&mut self, m: u32);
    /// Opens the pair level at `x`: returns the failed count with `x`
    /// in the set and an admissible ceiling on what one more move can
    /// reach from there.
    fn enter_pair(&mut self, x: u32) -> (u64, u64);
    /// The failed count of the set plus `x` and `y`, given the
    /// `failed_x` that [`Branch::enter_pair`] returned.
    fn pair_total(&mut self, x: u32, failed_x: u64, y: u32) -> u64;
    /// Closes the pair level [`Branch::enter_pair`] opened.
    fn leave_pair(&mut self, x: u32);
    /// The sorted union of the current set and `extra` into `out`.
    fn witness(&self, extra: &[u32], out: &mut Vec<u32>);
    /// `(gain, weight)` of `m` at the empty set: the root frame's
    /// order key.
    fn root_key(&mut self, m: u32) -> (u64, u64);
    /// The admissible bound on any `k`-set whose first move in root
    /// order is `m`: `failed({m}) + failable(k − 1)` at `{m}`.
    fn root_bound(&mut self, m: u32, k: u16) -> u64;
}

/// Reusable buffers for the exact DFS.
#[derive(Debug, Default)]
pub(crate) struct DfsScratch {
    /// Root candidate ordering.
    order: Vec<u32>,
    /// Per-shallow-depth candidate buffers for live re-sorting.
    sort_bufs: Vec<Vec<u32>>,
    /// `(gain, weight, move)` sort keys.
    keys: Vec<(u64, u64, u32)>,
    /// Top-`m` supply accumulator.
    tops: Vec<u64>,
    /// Expansions of the last serial search, read by the tests that pin
    /// the search's decision sequence.
    pub(crate) expansions: u64,
}

/// The node fast path: every number a frame reads is one or two table
/// reads, and a push or pop also moves the pair matrix.
impl Branch for NodeMoves<'_> {
    fn prepare(&mut self, k: u16) {
        if k >= 2 {
            self.pc.ensure_pairs();
        }
    }

    #[inline]
    fn failable(&self, remaining: u16) -> u64 {
        self.pc.failable_within(remaining)
    }

    fn begin_supply(&mut self, remaining: u16) {
        self.supply_within = remaining;
    }

    fn supply(&self, m: u32) -> u64 {
        self.pc.supply(node(m), self.supply_within)
    }

    fn push(&mut self, m: u32) {
        self.pc.push::<true>(node(m));
    }

    fn pop(&mut self, m: u32) {
        self.pc.remove::<true>(node(m));
    }

    /// The child's eq-ceiling without adding `x`: `x`'s gain leaves the
    /// `hits = s − 1` set and its level `s − 2` joins it.
    #[inline]
    fn enter_pair(&mut self, x: u32) -> (u64, u64) {
        let pc = &*self.pc;
        let gx = pc.gain(node(x));
        let failed_x = pc.failed() + gx;
        (
            failed_x,
            failed_x + (pc.failable_within(1) - gx + pc.exposure(node(x))),
        )
    }

    /// `gain({x, y}) = gain(x) + gain(y) + correction(x, y)`: three
    /// table reads, no add/remove churn.
    #[inline]
    fn pair_total(&mut self, x: u32, failed_x: u64, y: u32) -> u64 {
        let pc = &*self.pc;
        (failed_x + pc.gain(node(y)))
            .wrapping_add_signed(i64::from(pc.correction(node(x), node(y))))
    }

    #[inline]
    fn leave_pair(&mut self, _x: u32) {}

    fn witness(&self, extra: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.pc.iter_members().map(u32::from));
        out.extend_from_slice(extra);
        out.sort_unstable();
    }

    /// At the empty set a node's gain is its whole load at `s = 1` and
    /// nothing otherwise: no table query.
    fn root_key(&mut self, m: u32) -> (u64, u64) {
        let load = self.weight(m);
        (if self.pc.threshold() == 1 { load } else { 0 }, load)
    }

    fn root_bound(&mut self, m: u32, k: u16) -> u64 {
        let b = self.pc.num_objects() as u64;
        crate::certify::root_bound(self.weight(m), b, self.pc.threshold(), k)
    }
}

/// Finds the exact maximum number of failed objects over all `k`-subsets
/// of nodes, or `None` if the search exceeds `budget` node expansions.
///
/// `incumbent` is a known-achievable value (e.g. from local search) used
/// as the initial pruning bound — the returned `WorstCase.nodes` is empty
/// and `failed == incumbent` when no subset beats the incumbent (the
/// caller already has a witness).
///
/// When `k ≥ n` the search degenerates: the returned node set is all `n`
/// nodes (`min(k, n)` entries — there are no more distinct nodes to
/// fail) and `failed` is computed over exactly that returned set.
///
/// # Examples
///
/// ```
/// use wcp_adversary::exact_worst;
/// use wcp_core::Placement;
///
/// let p = Placement::new(5, 2, vec![vec![0, 1], vec![0, 2], vec![3, 4]])?;
/// let wc = exact_worst(&p, 1, 2, 1_000_000, 0).unwrap();
/// assert_eq!(wc.failed, 3); // nodes {0, 3} (or {0, 4}) touch all objects
/// assert!(wc.exact);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
///
/// # Panics
///
/// Panics if `s = 0`.
#[must_use]
pub fn exact_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<WorstCase> {
    exact_worst_with(
        placement,
        s,
        k,
        budget,
        incumbent,
        &mut AdversaryScratch::new(),
    )
}

/// [`exact_worst`] reusing the caller's scratch buffers (the DFS's
/// failure accounting and ordering buffers are rebuilt in place instead
/// of reallocated).
///
/// # Panics
///
/// Panics if `s = 0`.
#[must_use]
pub fn exact_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    scratch: &mut AdversaryScratch,
) -> Option<WorstCase> {
    let model = NodeModel::new(placement, s);
    exact_moves(&model, k, budget, incumbent, scratch).map(|v| model.worst(v))
}

/// The serial exact search over `model`'s moves on a fresh binding of
/// `scratch`; `k` at or above the move count fails every move.
pub(crate) fn exact_moves<M: Model>(
    model: &M,
    k: u16,
    budget: u64,
    incumbent: u64,
    scratch: &mut AdversaryScratch,
) -> Option<Verdict> {
    if usize::from(k) >= model.len() {
        return Some(model.all_moves());
    }
    let all = model.placement().num_objects() as u64;
    let (mut ms, _, ds) = model.bind(scratch, true);
    run_dfs(&mut ms, ds, k, budget, incumbent, all).map(|(failed, ids)| Verdict {
        failed,
        ids,
        exact: true,
    })
}

/// The canonical root order: every move by decreasing
/// `(gain, weight, id)` at the empty set — the order the serial root
/// frame sorts its children by, the frontier split hands out and the
/// certificate ledger records.
pub(crate) fn root_order<B: Branch>(ms: &mut B) -> Vec<u32> {
    let mut keys: Vec<(u64, u64, u32)> = (0..ms.len() as u32)
        .map(|m| {
            let (gain, weight) = ms.root_key(m);
            (gain, weight, m)
        })
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.into_iter().map(|(_, _, m)| m).collect()
}

/// Runs the branch-and-bound DFS over an empty move set: the best value
/// and its witness (empty when nothing beat `incumbent`), or `None` on
/// budget exhaustion.
pub(crate) fn run_dfs<B: Branch>(
    ms: &mut B,
    ds: &mut DfsScratch,
    k: u16,
    budget: u64,
    incumbent: u64,
    all: u64,
) -> Option<(u64, Vec<u32>)> {
    // Static fallback order: decreasing weight (stable, so equal
    // weights keep ascending ids).
    let mut order = std::mem::take(&mut ds.order);
    order.clear();
    order.extend(0..ms.len() as u32);
    order.sort_by_key(|&m| Reverse(ms.weight(m)));
    let found = dfs_rooted(ms, ds, &order, None, k, budget, incumbent, all, None);
    ds.order = order;
    found
}

/// The DFS over the empty move set's subsets of `order`; with a
/// `root_pos`, only the subtree rooted at `order[root_pos]` — the unit of
/// work of the frontier-parallel exact search in [`crate::parallel`],
/// which pushes the root, searches the strictly-later candidates at
/// depth 1 and pops it again, pruning additionally against `shared`
/// (strictly below it only — see [`SharedBound`]). Returns the
/// `(best, witness)` over the local incumbent, or `None` on budget
/// exhaustion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dfs_rooted<B: Branch>(
    ms: &mut B,
    ds: &mut DfsScratch,
    order: &[u32],
    root_pos: Option<usize>,
    k: u16,
    budget: u64,
    incumbent: u64,
    all: u64,
    shared: Option<&SharedBound>,
) -> Option<(u64, Vec<u32>)> {
    debug_assert_eq!(ms.failed(), 0, "DFS requires an empty failed set");
    if ds.sort_bufs.len() < usize::from(SORT_DEPTH) {
        ds.sort_bufs.resize_with(usize::from(SORT_DEPTH), Vec::new);
    }
    ms.prepare(k);
    let mut search = Search::new(ms, ds, k, budget, incumbent, all, shared);
    let completed = match root_pos {
        None => search.dfs(order, 0),
        Some(pos) => {
            let Some(&root) = order.get(pos) else {
                return Some((incumbent, Vec::new()));
            };
            search.expansions = 1; // the root expansion itself
            search.ms.push(root);
            let ok = search.dfs(order.get(pos + 1..).unwrap_or(&[]), 1);
            search.ms.pop(root);
            ok
        }
    };
    let Search {
        best,
        best_ids,
        expansions,
        ..
    } = search;
    if root_pos.is_none() {
        ds.expansions = expansions;
    }
    completed.then_some((best, best_ids))
}

struct Search<'a, B> {
    ms: &'a mut B,
    ds: &'a mut DfsScratch,
    k: u16,
    best: u64,
    best_ids: Vec<u32>,
    expansions: u64,
    budget: u64,
    all: u64,
    /// Cross-worker incumbent for the frontier-parallel search; `None`
    /// on the serial path. Pruning against it is *strictly below* only,
    /// and local recording still uses the local `best`, which is what
    /// keeps the combined optimum and witness thread-count-invariant.
    shared: Option<&'a SharedBound>,
}

impl<'a, B: Branch> Search<'a, B> {
    fn new(
        ms: &'a mut B,
        ds: &'a mut DfsScratch,
        k: u16,
        budget: u64,
        incumbent: u64,
        all: u64,
        shared: Option<&'a SharedBound>,
    ) -> Self {
        Self {
            ms,
            ds,
            k,
            best: incumbent,
            best_ids: Vec::new(),
            expansions: 0,
            budget,
            all,
            shared,
        }
    }

    /// Whether a frame that can reach at most `ceiling` is closed: it
    /// cannot beat the incumbent, or sits below every other worker's
    /// proven value.
    #[inline]
    fn closed(&self, ceiling: u64) -> bool {
        ceiling <= self.best || self.shared.is_some_and(|shared| ceiling < shared.get())
    }

    /// Records a new best: the current set plus `extra`.
    fn record(&mut self, total: u64, extra: &[u32]) {
        self.best = total;
        self.ms.witness(extra, &mut self.best_ids);
        if let Some(shared) = self.shared {
            shared.tighten(total);
        }
    }

    /// Returns `false` on budget exhaustion. `cands` is this frame's
    /// candidate suffix; children recurse on strictly later candidates,
    /// so every `k`-subset is visited exactly once.
    fn dfs(&mut self, cands: &[u32], depth: u16) -> bool {
        let failed = self.ms.failed();
        if depth == self.k {
            // Only reachable for k = 0; positive k closes at
            // `remaining == 1` below.
            if failed > self.best {
                self.record(failed, &[]);
            }
            return true;
        }
        let remaining = self.k - depth;
        if remaining == 1 {
            // Closed-form last level: one more move fails exactly
            // `gain(m)` more objects — no add/remove churn, and the
            // bottom level is the bulk of the combination tree. Its
            // `O(1)` ceiling, `failable(1)`, bounds every candidate's
            // gain, so a frame that cannot beat the incumbent skips the
            // sweep.
            if self.best >= self.all || self.closed(failed + self.ms.failable(1)) {
                return true;
            }
            for &m in cands {
                self.expansions += 1;
                if self.expansions > self.budget {
                    return false;
                }
                let total = failed + self.ms.gain(m);
                if total > self.best {
                    self.record(total, &[m]);
                }
            }
            return true;
        }
        // Histogram bound: everything failed plus everything failable
        // within the remaining moves.
        if self.best >= self.all || self.closed(failed + self.ms.failable(remaining)) {
            return true;
        }
        if depth >= SORT_DEPTH {
            return self.expand(cands, depth, remaining);
        }
        // Supply bound: the remaining moves can add at most one hit per
        // (leaf, hosted failable object) pair, and each new failure
        // needs at least one such hit.
        self.ms.begin_supply(remaining);
        let supply = self.supply_bound(cands, remaining);
        if self.closed(failed + supply) {
            return true;
        }
        let slot = usize::from(depth);
        let mut buf = self
            .ds
            .sort_bufs
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default();
        self.order_by_live_gain(cands, &mut buf);
        let ok = self.expand(&buf, depth, remaining);
        if let Some(kept) = self.ds.sort_bufs.get_mut(slot) {
            *kept = buf;
        }
        ok
    }

    /// Iterates this frame's children in `cands` order; a
    /// `remaining == 2` frame closes its two levels in
    /// [`Search::expand_pairs`].
    fn expand(&mut self, cands: &[u32], depth: u16, remaining: u16) -> bool {
        if remaining == 2 {
            return self.expand_pairs(cands);
        }
        let last = (cands.len() + 1).saturating_sub(usize::from(remaining));
        for (pos, &m) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            self.ms.push(m);
            let ok = self.dfs(cands.get(pos + 1..).unwrap_or(&[]), depth + 1);
            self.ms.pop(m);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Closes the bottom **two** levels in one fused sweep: for each
    /// first move `x`, the pair level's ceiling, then `total(x, y)` for
    /// every later candidate `y`. Enumeration order, pruning ceilings,
    /// budget accounting and recording match the unfused recursion
    /// exactly, so results (and witnesses) are unchanged.
    fn expand_pairs(&mut self, cands: &[u32]) -> bool {
        let last = cands.len().saturating_sub(1);
        for (pos, &x) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            if self.best >= self.all {
                continue;
            }
            let (failed_x, ceiling) = self.ms.enter_pair(x);
            let ok = self.closed(ceiling)
                || self.close_pairs(x, failed_x, cands.get(pos + 1..).unwrap_or(&[]));
            self.ms.leave_pair(x);
            if !ok {
                return false;
            }
        }
        true
    }

    /// The last level under first move `x`: `false` on budget
    /// exhaustion.
    fn close_pairs(&mut self, x: u32, failed_x: u64, tail: &[u32]) -> bool {
        for &y in tail {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            let total = self.ms.pair_total(x, failed_x, y);
            if total > self.best {
                self.record(total, &[x, y]);
            }
        }
        true
    }

    /// Sorts `cands` into `buf` by decreasing `(gain, weight, id)` under
    /// the current partial failure set.
    fn order_by_live_gain(&mut self, cands: &[u32], buf: &mut Vec<u32>) {
        self.ds.keys.clear();
        for &m in cands {
            let key = (self.ms.gain(m), self.ms.weight(m), m);
            self.ds.keys.push(key);
        }
        self.ds.keys.sort_unstable_by(|a, b| b.cmp(a));
        buf.clear();
        buf.extend(self.ds.keys.iter().map(|&(_, _, m)| m));
    }

    /// Admissible hit-supply bound: at most the sum of the `remaining`
    /// largest supplies among the candidates.
    fn supply_bound(&mut self, cands: &[u32], remaining: u16) -> u64 {
        let m = usize::from(remaining);
        let tops = &mut self.ds.tops;
        tops.clear();
        for &c in cands {
            let supply = self.ms.supply(c);
            // Keep the m largest supplies (ascending insertion into a
            // tiny buffer; m ≤ k).
            if tops.len() < m {
                let at = tops.partition_point(|&t| t < supply);
                tops.insert(at, supply);
            } else if let Some(&min) = tops.first() {
                if supply > min {
                    tops.remove(0);
                    let at = tops.partition_point(|&t| t < supply);
                    tops.insert(at, supply);
                }
            }
        }
        tops.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;
    use wcp_core::{Placement, RandomStrategy, RandomVariant, SystemParams};

    fn brute_force(p: &Placement, s: u16, k: u16) -> u64 {
        KSubsets::new(p.num_nodes(), k)
            .map(|subset| p.failed_objects(&subset, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn matches_brute_force() {
        for seed in 0..4u64 {
            let params = SystemParams::new(13, 50, 3, 1, 1).unwrap();
            let p = RandomStrategy::new(seed, RandomVariant::LoadBalanced)
                .place(&params)
                .unwrap();
            // s = 4 exceeds r: nothing can fail.
            for s in 1..=4u16 {
                for k in s.min(3)..=6u16 {
                    let wc = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                    assert_eq!(wc.failed, brute_force(&p, s, k), "seed={seed} s={s} k={k}");
                    assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness");
                }
            }
        }
    }

    #[test]
    fn sts_structure_worst_case() {
        // STS(13) as a Simple(1,1) placement with r = s = 3: five failed
        // nodes can contain at most two whole triples (they must share
        // exactly one point), so the exact adversary reports 2.
        let sts = wcp_designs::sts::steiner_triple_system(13).unwrap();
        let p = Placement::new(13, 3, sts.into_blocks()).unwrap();
        let wc = exact_worst(&p, 3, 5, u64::MAX, 0).unwrap();
        assert_eq!(wc.failed, 2);
        // With k = 6 one can hit two disjoint triples (6 points) but also
        // try 3 pairwise-intersecting ones; brute force confirms.
        let wc6 = exact_worst(&p, 3, 6, u64::MAX, 0).unwrap();
        assert_eq!(wc6.failed, brute_force(&p, 3, 6));
    }

    #[test]
    fn incumbent_prunes_without_witness() {
        let p = Placement::new(5, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        // Optimal is 1 at k=2, s=2; pass incumbent = 1 (already optimal):
        // search confirms exactness, returns incumbent value, no witness.
        let wc = exact_worst(&p, 2, 2, u64::MAX, 1).unwrap();
        assert_eq!(wc.failed, 1);
        assert!(wc.nodes.is_empty());
    }

    #[test]
    fn budget_abort() {
        let params = SystemParams::new(40, 200, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(5, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        assert!(exact_worst(&p, 2, 6, 5, 0).is_none());
    }

    #[test]
    fn early_exit_when_everything_dies() {
        // k large enough to fail all objects: the all-objects short-circuit
        // keeps the search cheap.
        let params = SystemParams::new(20, 100, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(2, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        let wc = exact_worst(&p, 1, 19, 100_000, 0).unwrap();
        assert_eq!(wc.failed, 100);
    }

    #[test]
    fn degenerate_k_at_least_n_failed_matches_returned_nodes() {
        // Regression: the k ≥ n branch must compute `failed` over the
        // node set it actually returns (all n nodes), for every k ≥ n.
        let params = SystemParams::new(8, 20, 3, 1, 1).unwrap();
        let p = RandomStrategy::new(1, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        for (s, k) in [(1u16, 8u16), (2, 9), (3, 200)] {
            let wc = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
            assert!(wc.exact);
            assert_eq!(wc.nodes.len(), usize::from(k.min(8)), "k={k}");
            assert_eq!(
                wc.failed,
                p.failed_objects(&wc.nodes, s),
                "failed must be over the returned set (s={s}, k={k})"
            );
        }
    }
}

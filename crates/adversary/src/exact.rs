//! Exact worst-case search: DFS over node combinations with
//! branch-and-bound pruning, running on the word-parallel kernel.
//!
//! Three upgrades over the scalar reference DFS
//! ([`crate::reference::exact_worst`]):
//!
//! * all accounting (add/remove/bounds) runs on [`PackedCounts`], so a
//!   node expansion costs `O((b/64)·log r)` word operations;
//! * alongside the histogram bound (`failable_within`), shallow depths
//!   apply a **hit-supply bound** built from row/failable-set overlaps:
//!   every newly failed object needs at least one more replica hit, and
//!   the `m` remaining failures can supply at most the sum of the `m`
//!   largest `|row(nd) ∩ failable|` among the live candidates — an
//!   admissible cap that prunes whole subtrees the histogram bound
//!   cannot;
//! * shallow depths **re-sort their candidate children by live gain**
//!   (then load), so the incumbent-beating sets are explored first and
//!   the bounds bite sooner. Each frame orders only its own candidate
//!   slice, which preserves exactly-once subset enumeration.

use crate::counts::PackedCounts;
use crate::pool::SharedBound;
use crate::{AdversaryScratch, WorstCase};
use wcp_core::Placement;

/// Depths at which the DFS re-sorts children by live gain and applies
/// the supply bound. Shallow frames dominate the search tree's branch
/// choices; deeper frames keep the cheap static order.
const SORT_DEPTH: u16 = 2;

/// Reusable buffers for the exact DFS.
#[derive(Debug, Default)]
pub(crate) struct DfsScratch {
    /// Root candidate ordering.
    order: Vec<u16>,
    /// Per-shallow-depth candidate buffers for live re-sorting.
    sort_bufs: Vec<Vec<u16>>,
    /// `(gain, load, node)` sort keys.
    keys: Vec<(u64, u32, u16)>,
    /// Failable-object mask for the supply bound.
    failable: Vec<u64>,
    /// Top-`m` supply accumulator.
    tops: Vec<u64>,
    /// Per-node gain table for the batched bottom-level sweeps.
    gains: Vec<u64>,
    /// `hits = s − 2` mask for the fused pair sweep's ceilings.
    eq_lo: Vec<u64>,
    /// Pairwise gain correction, `pair[lo·n + hi]` for node pair
    /// `lo < hi`: `+1` per object at `hits = s − 2` hosted by both,
    /// `−1` per object at `hits = s − 1` hosted by both — exactly the
    /// difference between `gain({x, y})` and `gain(x) + gain(y)`.
    /// Built once per binding at the empty failed set and delta-shifted
    /// along the DFS path (see [`Search::pair_shift`]).
    pair: Vec<i32>,
    /// Binding key `(n, b, s)` of the cached root pair matrix; cleared
    /// on rebinding.
    pair_key: Option<(u16, usize, u16)>,
}

impl DfsScratch {
    /// Drops the cached root pair matrix (the kernel is being rebound,
    /// possibly to a different placement with the same shape).
    pub(crate) fn invalidate_pair_cache(&mut self) {
        self.pair_key = None;
    }
}

/// Bottom-level frames with at least this many candidates compute all
/// gains in one batched `eq_sm1` scan ([`PackedCounts::gains_into`],
/// `O(b/64 + eq·r)`) instead of per-candidate row intersections
/// (`O(cands · b/64)`). Below it, the frame is too small for the scan
/// to amortize. The threshold is a pure function of the frame, so the
/// choice — and the search result — stays deterministic.
const GAIN_BATCH_MIN: usize = 8;

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
#[must_use]
pub fn exact_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    scratch: &mut AdversaryScratch,
) -> Option<WorstCase> {
    let n = placement.num_nodes();
    if k >= n {
        return Some(degenerate_all_nodes(placement, s, k));
    }
    let b = placement.num_objects() as u64;
    let (pc, _, ds) = scratch.bind_packed(placement, s);
    run_dfs(pc, ds, k, budget, incumbent, b)
}

/// The `k ≥ n` degenerate case: every node fails. The returned set
/// holds all `n` distinct nodes and `failed` is computed over that same
/// set.
pub(crate) fn degenerate_all_nodes(placement: &Placement, s: u16, k: u16) -> WorstCase {
    let n = placement.num_nodes();
    let nodes: Vec<u16> = (0..n).collect();
    let failed = placement.failed_objects(&nodes, s);
    debug_assert_eq!(nodes.len(), usize::from(k.min(n)));
    WorstCase {
        failed,
        nodes,
        exact: true,
    }
}

/// Runs the branch-and-bound DFS over an empty, bound kernel.
pub(crate) fn run_dfs(
    pc: &mut PackedCounts,
    ds: &mut DfsScratch,
    k: u16,
    budget: u64,
    incumbent: u64,
    b: u64,
) -> Option<WorstCase> {
    debug_assert_eq!(pc.failed(), 0, "DFS requires an empty failed set");
    let n = pc.num_nodes();
    // Static fallback order: decreasing load (stable, so equal loads
    // keep ascending node order).
    ds.order.clear();
    ds.order.extend(0..n);
    ds.order.sort_by_key(|&nd| std::cmp::Reverse(pc.load(nd)));
    if ds.sort_bufs.len() < usize::from(SORT_DEPTH) {
        ds.sort_bufs.resize_with(usize::from(SORT_DEPTH), Vec::new);
    }
    if k >= 2 {
        ensure_pair_matrix(pc, ds);
    }

    let order = std::mem::take(&mut ds.order);
    let mut search = Search {
        pc,
        ds,
        k,
        best: incumbent,
        best_nodes: Vec::new(),
        expansions: 0,
        budget,
        all_objects: b,
        shared: None,
    };
    let completed = search.dfs(&order, 0);
    let (best, best_nodes) = (search.best, search.best_nodes);
    search.ds.order = order;
    if completed {
        Some(WorstCase {
            failed: best,
            nodes: best_nodes,
            exact: true,
        })
    } else {
        None
    }
}

/// Explores the subtree rooted at `order[root_pos]` — the unit of work
/// of the frontier-parallel exact search in [`crate::parallel`]. The
/// kernel must be empty and bound; the root node is added, its subtree
/// searched over the strictly-later candidates at depth 1, and the root
/// removed again. Returns the subtree's `(best, witness)` over the
/// local incumbent, or `None` on budget exhaustion. Pruning additionally
/// consults `shared` (strictly below it only — see [`SharedBound`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dfs_rooted(
    pc: &mut PackedCounts,
    ds: &mut DfsScratch,
    order: &[u16],
    root_pos: usize,
    k: u16,
    budget: u64,
    incumbent: u64,
    b: u64,
    shared: &SharedBound,
) -> Option<(u64, Vec<u16>)> {
    debug_assert_eq!(pc.failed(), 0, "rooted DFS requires an empty failed set");
    debug_assert!(k >= 1, "k = 0 has no root to branch on");
    if ds.sort_bufs.len() < usize::from(SORT_DEPTH) {
        ds.sort_bufs.resize_with(usize::from(SORT_DEPTH), Vec::new);
    }
    let Some(&root) = order.get(root_pos) else {
        return Some((incumbent, Vec::new()));
    };
    if k >= 2 {
        ensure_pair_matrix(pc, ds);
    }
    let tail = order.get(root_pos + 1..).unwrap_or(&[]);
    let mut search = Search {
        pc,
        ds,
        k,
        best: incumbent,
        best_nodes: Vec::new(),
        expansions: 1, // the root expansion itself
        budget,
        all_objects: b,
        shared: Some(shared),
    };
    if k >= 3 {
        search.pair_shift(root, 1);
    }
    search.pc.add_node(root);
    let completed = search.dfs(tail, 1);
    search.pc.remove_node(root);
    if k >= 3 {
        search.pair_shift(root, -1);
    }
    let (best, best_nodes) = (search.best, search.best_nodes);
    completed.then_some((best, best_nodes))
}

struct Search<'a> {
    pc: &'a mut PackedCounts,
    ds: &'a mut DfsScratch,
    k: u16,
    best: u64,
    best_nodes: Vec<u16>,
    expansions: u64,
    budget: u64,
    all_objects: u64,
    /// Cross-worker incumbent for the frontier-parallel search; `None`
    /// on the serial path. Pruning against it is *strictly below* only,
    /// and local recording still uses the local `best`, which is what
    /// keeps the combined optimum and witness thread-count-invariant.
    shared: Option<&'a SharedBound>,
}

impl Search<'_> {
    /// Returns `false` on budget exhaustion. `cands` is this frame's
    /// candidate suffix; children recurse on strictly later candidates,
    /// so every `k`-subset is visited exactly once.
    fn dfs(&mut self, cands: &[u16], depth: u16) -> bool {
        if depth == self.k {
            // Only reachable for k = 0 (serial) or k = 1 rooted frames;
            // positive-k serial search closes at `remaining == 1` below.
            let failed = self.pc.failed();
            if failed > self.best {
                self.best = failed;
                self.pc.collect_nodes(&mut self.best_nodes);
                if let Some(shared) = self.shared {
                    shared.tighten(failed);
                }
            }
            return true;
        }
        let remaining = self.k - depth;
        let failed = self.pc.failed();
        if remaining == 1 {
            // Closed-form last level: adding one more node fails
            // exactly `gain(nd) = |row(nd) ∩ {hits = s − 1}|` more
            // objects, so the best completion is a masked-popcount
            // sweep over the candidates — no add/remove churn, and the
            // bottom level is the bulk of the combination tree.
            if self.best >= self.all_objects {
                return true;
            }
            // O(1) level ceiling: gain(nd) ≤ |{hits = s − 1}| for every
            // candidate, and `failable_within(1)` is exactly that
            // eq-count. A frame whose ceiling cannot beat the incumbent
            // skips the whole candidate sweep — the dominant cost of
            // the combination tree's bottom level.
            let ceiling = failed + self.pc.failable_within(1);
            if ceiling <= self.best {
                return true;
            }
            if let Some(shared) = self.shared {
                if ceiling < shared.get() {
                    return true;
                }
            }
            let batched = cands.len() >= GAIN_BATCH_MIN;
            if batched {
                self.pc.gains_into(&mut self.ds.gains);
            }
            for &nd in cands {
                self.expansions += 1;
                if self.expansions > self.budget {
                    return false;
                }
                let gain = if batched {
                    self.ds.gains.get(usize::from(nd)).copied().unwrap_or(0)
                } else {
                    self.pc.gain(nd)
                };
                let total = failed + gain;
                if total > self.best {
                    self.best = total;
                    self.pc.collect_nodes(&mut self.best_nodes);
                    self.best_nodes.push(nd);
                    self.best_nodes.sort_unstable();
                    if let Some(shared) = self.shared {
                        shared.tighten(total);
                    }
                }
            }
            return true;
        }
        // Histogram bound: everything failed plus everything failable
        // within the remaining failures.
        let bound = failed + self.pc.failable_within(remaining);
        if bound <= self.best || self.best >= self.all_objects {
            return true; // pruned (or already optimal)
        }
        if let Some(shared) = self.shared {
            if bound < shared.get() {
                return true; // below every other worker's proven value
            }
        }
        if depth < SORT_DEPTH {
            // Supply bound: the remaining failures can add at most one
            // hit per (node, hosted failable object) pair, and each new
            // failure needs at least one such hit.
            let supply = self.supply_bound(cands, remaining);
            if failed + supply <= self.best {
                return true;
            }
            if let Some(shared) = self.shared {
                if failed + supply < shared.get() {
                    return true;
                }
            }
            let mut buf = std::mem::take(&mut self.ds.sort_bufs[usize::from(depth)]);
            self.order_by_live_gain(cands, &mut buf);
            let ok = if remaining == 2 {
                self.expand_pairs(&buf)
            } else {
                self.expand(&buf, depth, remaining)
            };
            self.ds.sort_bufs[usize::from(depth)] = buf;
            ok
        } else if remaining == 2 {
            self.expand_pairs(cands)
        } else {
            self.expand(cands, depth, remaining)
        }
    }

    /// Closes the bottom **two** levels in one fused sweep. A
    /// `remaining == 2` frame needs `max gain({x, y})` over candidate
    /// pairs, and rippling every `x` through the counter planes just to
    /// re-derive gains is the dominant cost of the whole search tree.
    /// Instead `gain({x, y})` decomposes as
    /// `gain(x) + gain(y) + pair[x, y]` — one gain-table build per
    /// frame plus an O(1) lookup per pair into the path-maintained
    /// correction matrix, with no add/remove churn at all. Enumeration
    /// order, pruning ceilings, budget accounting, and recording match
    /// the unfused recursion exactly, so results (and witnesses) are
    /// unchanged.
    fn expand_pairs(&mut self, cands: &[u16]) -> bool {
        let failed = self.pc.failed();
        let eq_count = self.pc.failable_within(1);
        self.pc.gains_into(&mut self.ds.gains);
        self.pc.eq_sm2_into(&mut self.ds.eq_lo);
        let n = usize::from(self.pc.num_nodes());
        let last = cands.len().saturating_sub(1);
        for (pos, &x) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            if self.best >= self.all_objects {
                continue;
            }
            // `gain(x)` straight from the table; the `hits = s − 2`
            // overlap bounds what x can newly expose to its partner.
            let gx = self.ds.gains.get(usize::from(x)).copied().unwrap_or(0);
            let dp_pop = self.pc.and_popcount_row(x, &self.ds.eq_lo);
            let failed_x = failed + gx;
            // The child's eq-ceiling, identical to the unfused
            // `failed + failable_within(1)` after adding x.
            let ceiling = failed_x + (eq_count - gx + dp_pop);
            if ceiling <= self.best {
                continue;
            }
            if let Some(shared) = self.shared {
                if ceiling < shared.get() {
                    continue;
                }
            }
            let tail = cands.get(pos + 1..).unwrap_or(&[]);
            for &y in tail {
                self.expansions += 1;
                if self.expansions > self.budget {
                    return false;
                }
                let gy = self.ds.gains.get(usize::from(y)).copied().unwrap_or(0);
                let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
                let corr = self
                    .ds
                    .pair
                    .get(usize::from(lo) * n + usize::from(hi))
                    .copied()
                    .unwrap_or(0);
                let total = (failed_x + gy).wrapping_add_signed(i64::from(corr));
                if total > self.best {
                    self.best = total;
                    self.pc.collect_nodes(&mut self.best_nodes);
                    self.best_nodes.push(x);
                    self.best_nodes.push(y);
                    self.best_nodes.sort_unstable();
                    if let Some(shared) = self.shared {
                        shared.tighten(total);
                    }
                }
            }
        }
        true
    }

    /// Iterates this frame's children in `cands` order. Only reached
    /// with `remaining ≥ 3` (the pair level closes in
    /// [`Search::expand_pairs`]), so every child subtree contains a pair
    /// frame and the pair matrix is shifted across each add/remove.
    fn expand(&mut self, cands: &[u16], depth: u16, remaining: u16) -> bool {
        let last = cands.len() - usize::from(remaining) + 1;
        for (pos, &nd) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            self.pair_shift(nd, 1);
            self.pc.add_node(nd);
            let ok = self.dfs(&cands[pos + 1..], depth + 1);
            self.pc.remove_node(nd);
            self.pair_shift(nd, -1);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Shifts the pair-correction matrix for `nd` joining (`dir = 1`)
    /// or having left (`dir = −1`) the failed set: each of its objects
    /// moves one hit level, and only levels `s − 2` and `s − 1` carry
    /// weight. Both calls happen with `nd` *outside* the failed set, so
    /// they see the same hit counts and cancel exactly.
    fn pair_shift(&mut self, nd: u16, dir: i32) {
        let pc = &*self.pc;
        let ds = &mut *self.ds;
        let s = pc.threshold();
        let n = usize::from(pc.num_nodes());
        for &obj in pc.row_objects(nd) {
            let obj = obj as usize;
            let h = pc.hit_count(obj);
            let delta = dir * (pair_weight(h + 1, s) - pair_weight(h, s));
            if delta != 0 {
                bump_pairs(&mut ds.pair, n, pc.hosts_of(obj), delta);
            }
        }
    }

    /// Sorts `cands` into `buf` by decreasing `(gain, load, node)` under
    /// the current partial failure set.
    fn order_by_live_gain(&mut self, cands: &[u16], buf: &mut Vec<u16>) {
        let pc = &*self.pc;
        self.ds.keys.clear();
        self.ds
            .keys
            .extend(cands.iter().map(|&nd| (pc.gain(nd), pc.load(nd), nd)));
        self.ds.keys.sort_unstable_by(|a, b| b.cmp(a));
        buf.clear();
        buf.extend(self.ds.keys.iter().map(|&(_, _, nd)| nd));
    }

    /// Admissible hit-supply bound: at most the sum of the `remaining`
    /// largest `|row(nd) ∩ failable|` overlaps among the candidates.
    fn supply_bound(&mut self, cands: &[u16], remaining: u16) -> u64 {
        let m = usize::from(remaining);
        self.pc.failable_mask_into(remaining, &mut self.ds.failable);
        self.ds.tops.clear();
        for &nd in cands {
            let supply = self.pc.and_popcount_row(nd, &self.ds.failable);
            // Keep the m largest supplies (ascending insertion into a
            // tiny buffer; m ≤ k).
            if self.ds.tops.len() < m {
                let at = self.ds.tops.partition_point(|&t| t < supply);
                self.ds.tops.insert(at, supply);
            } else if let Some(&min) = self.ds.tops.first() {
                if supply > min {
                    self.ds.tops.remove(0);
                    let at = self.ds.tops.partition_point(|&t| t < supply);
                    self.ds.tops.insert(at, supply);
                }
            }
        }
        self.ds.tops.iter().sum()
    }
}

/// An object's weight in the pair-correction matrix at hit count `h`:
/// `+1` one hit below the gain set (`h = s − 2`), `−1` inside it
/// (`h = s − 1`), `0` elsewhere.
fn pair_weight(h: u16, s: u16) -> i32 {
    if h + 2 == s {
        1
    } else if h + 1 == s {
        -1
    } else {
        0
    }
}

/// Adds `delta` to the pair-matrix entry of every host pair of one
/// object (canonical `lo < hi` indexing).
fn bump_pairs(pair: &mut [i32], n: usize, hosts: &[u16], delta: i32) {
    for (i, &a) in hosts.iter().enumerate() {
        for &b in hosts.get(i + 1..).unwrap_or(&[]) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            if let Some(slot) = pair.get_mut(usize::from(lo) * n + usize::from(hi)) {
                *slot += delta;
            }
        }
    }
}

/// Builds (or reuses) the empty-set pair-correction matrix for the
/// current binding. Must be called with an empty failed set; the DFS
/// keeps the matrix current from there via balanced
/// [`Search::pair_shift`] calls, so a cached matrix is already back in
/// its root state.
fn ensure_pair_matrix(pc: &PackedCounts, ds: &mut DfsScratch) {
    let key = (pc.num_nodes(), pc.num_objects(), pc.threshold());
    if ds.pair_key == Some(key) {
        return;
    }
    let n = usize::from(pc.num_nodes());
    ds.pair.clear();
    ds.pair.resize(n * n, 0);
    let w0 = pair_weight(0, pc.threshold());
    if w0 != 0 {
        for obj in 0..pc.num_objects() {
            bump_pairs(&mut ds.pair, n, pc.hosts_of(obj), w0);
        }
    }
    ds.pair_key = Some(key);
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
            for s in 1..=3u16 {
                for k in s..=6u16 {
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

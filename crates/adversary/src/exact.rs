//! Exact worst-case search: DFS over node combinations with
//! branch-and-bound pruning, running on the word-parallel kernel.
//!
//! Upgrades over the scalar reference DFS
//! ([`crate::reference::exact_worst`]):
//!
//! * the failed count and the histogram bound run on [`PackedCounts`]
//!   (an add/remove is one ripple-carry pass of `O((b/64)·log r)` word
//!   operations), while every per-candidate number a frame reads — the
//!   candidate's gain, its hit supply, what it exposes to a partner —
//!   comes from **hit-level counts kept along the DFS path**
//!   ([`PathTables`]): each add/remove shifts them in `O(load·r)` by
//!   streaming the node's CSR co-host row, so a frame costs `O(1)` per
//!   candidate instead of a `b/64`-word masked popcount;
//! * alongside the histogram bound (`failable_within`), shallow depths
//!   apply a **hit-supply bound**: every newly failed object needs at
//!   least one more replica hit, and the `m` remaining failures can
//!   supply at most the sum of the `m` largest `|row(nd) ∩ failable|`
//!   among the live candidates — an admissible cap that prunes whole
//!   subtrees the histogram bound cannot;
//! * shallow depths **re-sort their candidate children by live gain**
//!   (then load), so the incumbent-beating sets are explored first and
//!   the bounds bite sooner. Each frame orders only its own candidate
//!   slice, which preserves exactly-once subset enumeration;
//! * the bottom two levels close in one fused sweep over candidate
//!   pairs, reading the path-maintained pair-correction matrix instead
//!   of adding and removing the first node of each pair.

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
    /// Top-`m` supply accumulator.
    tops: Vec<u64>,
    /// The per-node counts every frame reads, kept along the path.
    path: PathTables,
    /// Node expansions of the last serial search, read by the tests that
    /// pin the search's decision sequence.
    pub(crate) expansions: u64,
}

impl DfsScratch {
    /// Drops the cached root path tables (the kernel is being rebound,
    /// possibly to a different placement with the same shape).
    pub(crate) fn invalidate_path_tables(&mut self) {
        self.path.key = None;
    }
}

/// Per-node counts kept along the DFS path, so that a frame reads every
/// per-candidate number in `O(1)`:
///
/// * `levels[nd·(r+1) + h] = |row(nd) ∩ {hits = h}|` — a candidate's
///   gain is its level `s − 1`, its hit supply within `m` more failures
///   the sum of levels `s − m ..= s − 1`, and what it exposes to a pair
///   partner its level `s − 2`;
/// * `pair[lo·n + hi]` for node pair `lo < hi`: `+1` per object at
///   `hits = s − 2` hosted by both, `−1` per object at `hits = s − 1`
///   hosted by both — exactly the difference between `gain({x, y})` and
///   `gain(x) + gain(y)`.
///
/// Both start at the empty failed set (every object at level 0), are
/// cached per binding under one key, and are shifted by every add and
/// remove of the search ([`PathTables::shift`]). A shift leaves the
/// shifted node's own row and pairs alone, and it updates failed
/// co-hosts' rows off by one level; neither is read while that node is
/// failed, and because the DFS removes nodes in reverse order of adding
/// them, the balanced shifts restore every entry exactly.
#[derive(Debug, Default)]
pub(crate) struct PathTables {
    levels: Vec<u32>,
    pair: Vec<i32>,
    /// Levels per node (`r + 1`).
    stride: usize,
    /// Nodes `n` (the pair matrix's row length).
    n: usize,
    /// The threshold `s`.
    s: usize,
    /// Binding key `(n, b, s)` of the cached tables; cleared on
    /// rebinding.
    key: Option<(u16, usize, u16)>,
}

impl PathTables {
    /// Resets the tables to the empty failed set of `pc`'s binding
    /// unless they are cached for it already; with `pairs`, also builds
    /// the pair matrix and has `pc` fill the co-host rows the shifts
    /// stream (only searches with `k ≥ 2` read the matrix or shift).
    /// Must be called with an empty failed set.
    fn ensure(&mut self, pc: &mut PackedCounts, pairs: bool) {
        let key = (pc.num_nodes(), pc.num_objects(), pc.threshold());
        if self.key != Some(key) {
            self.n = usize::from(pc.num_nodes());
            self.stride = usize::from(pc.replicas_per_object()) + 1;
            self.s = usize::from(pc.threshold());
            self.levels.clear();
            self.levels.resize(self.n * self.stride, 0);
            for (nd, row) in (0..pc.num_nodes()).zip(self.levels.chunks_exact_mut(self.stride)) {
                if let Some(level0) = row.first_mut() {
                    *level0 = pc.load(nd);
                }
            }
            self.pair.clear();
            self.key = Some(key);
        }
        if pairs {
            pc.ensure_cohosts();
        }
        if pairs && self.pair.is_empty() {
            self.pair.resize(self.n * self.n, 0);
            let w0 = pair_weight(0, self.s);
            if w0 != 0 {
                for obj in 0..pc.num_objects() {
                    // Rows are ascending: `a < b` is the canonical order.
                    let hosts = pc.hosts_of(obj);
                    for (i, &a) in hosts.iter().enumerate() {
                        let row = usize::from(a) * self.n;
                        for &b in hosts.get(i + 1..).unwrap_or(&[]) {
                            if let Some(slot) = self.pair.get_mut(row + usize::from(b)) {
                                *slot += w0;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `|row(nd) ∩ {hits = h}|` for a node outside the failed set; `0`
    /// for levels above `r`.
    fn level(&self, nd: u16, h: usize) -> u64 {
        if h >= self.stride {
            return 0;
        }
        self.levels
            .get(usize::from(nd) * self.stride + h)
            .map_or(0, |&c| u64::from(c))
    }

    /// Objects `nd` fails if it joins the failed set (level `s − 1`).
    fn gain(&self, nd: u16) -> u64 {
        self.s.checked_sub(1).map_or(0, |h| self.level(nd, h))
    }

    /// Objects `nd` would move into the gain set (level `s − 2`), the
    /// most it can add to a partner's gain.
    fn exposure(&self, nd: u16) -> u64 {
        self.s.checked_sub(2).map_or(0, |h| self.level(nd, h))
    }

    /// `|row(nd) ∩ {s − m ≤ hits < s}|`: the hits `nd` can supply to
    /// objects still failable within `m` more failures.
    fn supply(&self, nd: u16, m: u16) -> u64 {
        let lo = self.s.saturating_sub(usize::from(m));
        (lo..self.s).map(|h| self.level(nd, h)).sum()
    }

    /// `gain({x, y}) − gain(x) − gain(y)` for two distinct nodes outside
    /// the failed set.
    fn correction(&self, x: u16, y: u16) -> i32 {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        self.pair
            .get(usize::from(lo) * self.n + usize::from(hi))
            .copied()
            .unwrap_or(0)
    }

    /// Shifts the tables for `nd` joining (`dir = 1`) or having left
    /// (`dir = −1`) the failed set; both calls happen with `nd` outside
    /// the set. Dispatches on the co-hosts per object (`r − 1`) so the
    /// common replication factors stream with a constant row width.
    fn shift(&mut self, pc: &PackedCounts, nd: u16, dir: i32) {
        match self.stride.saturating_sub(2) {
            0 => {} // r = 1: objects have no co-hosts
            1 => self.shift_rows(pc, nd, dir, 1),
            2 => self.shift_rows(pc, nd, dir, 2),
            3 => self.shift_rows(pc, nd, dir, 3),
            others => self.shift_rows(pc, nd, dir, others),
        }
    }

    /// [`PathTables::shift`] over co-host rows of `width = r − 1`.
    /// Streams `nd`'s co-host row: an object's hit level is the number
    /// of its failed co-hosts, each co-host's count moves from that
    /// level to the next, and each co-host pair's correction moves by
    /// the weight difference of the two levels — one branch-free pass
    /// with no plane gathers. Always inlined, so each constant `width`
    /// of [`PathTables::shift`] gets its own unrolled copy.
    #[inline(always)]
    fn shift_rows(&mut self, pc: &PackedCounts, nd: u16, dir: i32, width: usize) {
        let members = pc.members();
        let (stride, n, s) = (self.stride, self.n, self.s);
        // Two's-complement ±1 for the unsigned level counts.
        let step = dir as u32;
        for co in pc.cohost_row(nd).chunks_exact(width) {
            let h = co.iter().map(|&c| members.bit(c)).sum::<u64>() as usize;
            for &c in co {
                let at = usize::from(c) * stride + h;
                if let Some([from, to]) = self.levels.get_mut(at..at + 2) {
                    *from = from.wrapping_sub(step);
                    *to = to.wrapping_add(step);
                }
            }
            let delta = dir * (pair_weight(h + 1, s) - pair_weight(h, s));
            // Co-host rows are ascending, so `a < b` is already the
            // canonical pair order.
            for (i, &a) in co.iter().enumerate() {
                let row = usize::from(a) * n;
                for &b in co.get(i + 1..).unwrap_or(&[]) {
                    if let Some(slot) = self.pair.get_mut(row + usize::from(b)) {
                        *slot += delta;
                    }
                }
            }
        }
    }
}

/// An object's weight in the pair-correction matrix at hit count `h`:
/// `+1` one hit below the gain set (`h = s − 2`), `−1` inside it
/// (`h = s − 1`), `0` elsewhere.
fn pair_weight(h: usize, s: usize) -> i32 {
    i32::from(h + 2 == s) - i32::from(h + 1 == s)
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
    ds.path.ensure(pc, k >= 2);

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
    search.ds.expansions = search.expansions;
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
    ds.path.ensure(pc, k >= 2);
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
    // k = 1 closes at the root itself; any deeper frame reads the
    // shifted tables.
    let shifted = k >= 2;
    if shifted {
        search.ds.path.shift(search.pc, root, 1);
    }
    search.pc.add_node(root);
    let completed = search.dfs(tail, 1);
    search.pc.remove_node(root);
    if shifted {
        search.ds.path.shift(search.pc, root, -1);
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
            // exactly `gain(nd)` more objects, read off the path
            // tables — no add/remove churn, and the bottom level is the
            // bulk of the combination tree.
            if self.best >= self.all_objects {
                return true;
            }
            // O(1) level ceiling: gain(nd) ≤ |{hits = s − 1}| for every
            // candidate, and `failable_within(1)` is exactly that
            // eq-count. A frame whose ceiling cannot beat the incumbent
            // skips the whole candidate sweep.
            let ceiling = failed + self.pc.failable_within(1);
            if ceiling <= self.best {
                return true;
            }
            if let Some(shared) = self.shared {
                if ceiling < shared.get() {
                    return true;
                }
            }
            for &nd in cands {
                self.expansions += 1;
                if self.expansions > self.budget {
                    return false;
                }
                let total = failed + self.ds.path.gain(nd);
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
        if depth >= SORT_DEPTH {
            return if remaining == 2 {
                self.expand_pairs(cands)
            } else {
                self.expand(cands, depth, remaining)
            };
        }
        // Supply bound: the remaining failures can add at most one hit
        // per (node, hosted failable object) pair, and each new failure
        // needs at least one such hit.
        let supply = self.supply_bound(cands, remaining);
        if failed + supply <= self.best {
            return true;
        }
        if let Some(shared) = self.shared {
            if failed + supply < shared.get() {
                return true;
            }
        }
        let slot = usize::from(depth);
        let mut buf = self
            .ds
            .sort_bufs
            .get_mut(slot)
            .map(std::mem::take)
            .unwrap_or_default();
        self.order_by_live_gain(cands, &mut buf);
        let ok = if remaining == 2 {
            self.expand_pairs(&buf)
        } else {
            self.expand(&buf, depth, remaining)
        };
        if let Some(kept) = self.ds.sort_bufs.get_mut(slot) {
            *kept = buf;
        }
        ok
    }

    /// Closes the bottom **two** levels in one fused sweep. A
    /// `remaining == 2` frame needs `max gain({x, y})` over candidate
    /// pairs, and `gain({x, y})` decomposes as
    /// `gain(x) + gain(y) + correction(x, y)` — three reads of the path
    /// tables per pair, with no add/remove churn at all. Enumeration
    /// order, pruning ceilings, budget accounting, and recording match
    /// the unfused recursion exactly, so results (and witnesses) are
    /// unchanged.
    fn expand_pairs(&mut self, cands: &[u16]) -> bool {
        let failed = self.pc.failed();
        let eq_count = self.pc.failable_within(1);
        let last = cands.len().saturating_sub(1);
        for (pos, &x) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            if self.best >= self.all_objects {
                continue;
            }
            let gx = self.ds.path.gain(x);
            let failed_x = failed + gx;
            // The child's eq-ceiling, identical to the unfused
            // `failed + failable_within(1)` after adding x: x's gain
            // leaves the `hits = s − 1` set and its level `s − 2`
            // joins it.
            let ceiling = failed_x + (eq_count - gx + self.ds.path.exposure(x));
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
                let path = &self.ds.path;
                let total =
                    (failed_x + path.gain(y)).wrapping_add_signed(i64::from(path.correction(x, y)));
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
    /// [`Search::expand_pairs`]), so every child subtree reads the path
    /// tables, which are shifted across each add/remove.
    fn expand(&mut self, cands: &[u16], depth: u16, remaining: u16) -> bool {
        let last = cands.len() - usize::from(remaining) + 1;
        for (pos, &nd) in cands.iter().enumerate().take(last) {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            self.ds.path.shift(self.pc, nd, 1);
            self.pc.add_node(nd);
            let ok = self.dfs(cands.get(pos + 1..).unwrap_or(&[]), depth + 1);
            self.pc.remove_node(nd);
            self.ds.path.shift(self.pc, nd, -1);
            if !ok {
                return false;
            }
        }
        true
    }

    /// Sorts `cands` into `buf` by decreasing `(gain, load, node)` under
    /// the current partial failure set.
    fn order_by_live_gain(&mut self, cands: &[u16], buf: &mut Vec<u16>) {
        let (pc, path) = (&*self.pc, &self.ds.path);
        self.ds.keys.clear();
        self.ds
            .keys
            .extend(cands.iter().map(|&nd| (path.gain(nd), pc.load(nd), nd)));
        self.ds.keys.sort_unstable_by(|a, b| b.cmp(a));
        buf.clear();
        buf.extend(self.ds.keys.iter().map(|&(_, _, nd)| nd));
    }

    /// Admissible hit-supply bound: at most the sum of the `remaining`
    /// largest `|row(nd) ∩ failable|` overlaps among the candidates.
    fn supply_bound(&mut self, cands: &[u16], remaining: u16) -> u64 {
        let m = usize::from(remaining);
        let DfsScratch { tops, path, .. } = &mut *self.ds;
        tops.clear();
        for &nd in cands {
            let supply = path.supply(nd, remaining);
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

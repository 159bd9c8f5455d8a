//! Exact worst-case search: branch-and-bound DFS over move subsets,
//! written once for every budget model ([`Branch`]).
//!
//! Upgrades over the scalar reference DFS
//! ([`crate::reference::exact_worst`]):
//!
//! * the node move set keeps the search's whole failure accounting in
//!   **hit-level counts kept along the DFS path** ([`PathTables`]): its
//!   failed set, a histogram of objects by hit count (the failed count
//!   and the histogram bound), and per node the counts every
//!   per-candidate number a frame needs comes from — the candidate's
//!   gain, its hit supply, what it exposes to a partner. Each add/remove
//!   shifts them in `O(load·r)` by streaming the node's CSR co-host row,
//!   and a remove that empties the set resets them (the pair matrix from
//!   a kept copy) instead when that writes fewer words, so a frame costs
//!   `O(1)` per candidate and the bit-sliced kernel is never touched. The unit move set runs the
//!   failed count and the histogram bound on [`PackedCounts`] (an
//!   add/remove is one ripple-carry pass of `O((b/64)·log r)` word
//!   operations);
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
//!   move set reads the path-maintained pair-correction matrix instead
//!   of adding and removing the first node of each pair.
//!
//! A failure-unit move deals up to `c_max` hits to one object, so the
//! unit move set evaluates every bound at `m · c_max` hits; with
//! `c_max = 1` that is the node bound.

use crate::bitmap::NodeSet;
use crate::counts::PackedCounts;
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
    /// Objects the current set fails.
    fn failed(&self) -> u64;
    /// Admissible cap on the objects `remaining` more moves can add.
    fn failable(&self, remaining: u16) -> u64;
    /// Objects `m` fails if it joins the set.
    fn gain(&mut self, m: u32) -> u64;
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

/// The node fast path: the DFS's failed set and every number a frame
/// reads live in the path tables; the kernel stays cleared.
impl Branch for NodeMoves<'_> {
    fn prepare(&mut self, k: u16) {
        self.path.ensure(self.pc, k >= 2);
    }

    #[inline]
    fn failed(&self) -> u64 {
        self.path.failed()
    }

    #[inline]
    fn failable(&self, remaining: u16) -> u64 {
        self.path.failable(remaining)
    }

    #[inline]
    fn gain(&mut self, m: u32) -> u64 {
        self.path.gain(node(m))
    }

    fn begin_supply(&mut self, remaining: u16) {
        self.supply_within = remaining;
    }

    fn supply(&self, m: u32) -> u64 {
        self.path.supply(node(m), self.supply_within)
    }

    fn push(&mut self, m: u32) {
        self.path.push(self.pc, node(m));
    }

    fn pop(&mut self, m: u32) {
        self.path.pop(self.pc, node(m));
    }

    /// The child's eq-ceiling without adding `x`: `x`'s gain leaves the
    /// `hits = s − 1` set and its level `s − 2` joins it.
    #[inline]
    fn enter_pair(&mut self, x: u32) -> (u64, u64) {
        let path = &*self.path;
        let gx = path.gain(node(x));
        let failed_x = path.failed() + gx;
        (
            failed_x,
            failed_x + (path.failable(1) - gx + path.exposure(node(x))),
        )
    }

    /// `gain({x, y}) = gain(x) + gain(y) + correction(x, y)`: three
    /// reads of the path tables, no add/remove churn.
    #[inline]
    fn pair_total(&mut self, x: u32, failed_x: u64, y: u32) -> u64 {
        let path = &*self.path;
        (failed_x + path.gain(node(y)))
            .wrapping_add_signed(i64::from(path.correction(node(x), node(y))))
    }

    #[inline]
    fn leave_pair(&mut self, _x: u32) {}

    fn witness(&self, extra: &[u32], out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.path.members.iter_present().map(u32::from));
        out.extend_from_slice(extra);
        out.sort_unstable();
    }

    /// At the empty set a node's gain is its whole load at `s = 1` and
    /// nothing otherwise: no kernel query.
    fn root_key(&mut self, m: u32) -> (u64, u64) {
        let load = self.weight(m);
        (if self.pc.threshold() == 1 { load } else { 0 }, load)
    }

    fn root_bound(&mut self, m: u32, k: u16) -> u64 {
        let b = self.pc.num_objects() as u64;
        crate::certify::root_bound(self.weight(m), b, self.pc.threshold(), k)
    }
}

/// The node DFS's own failure accounting, kept along the DFS path so
/// that a frame reads every number in `O(1)`:
///
/// * `members`, the failed set, and `hist[h]`, the objects at `h` hits
///   (`h = 0..=r`): the failed count is the histogram's tail from `s`
///   and the objects failable within `m` more failures its levels
///   `s − m ..= s − 1`, clamped to `0..=r` like the kernel's
///   comparators;
/// * `levels[nd·(r+1) + h] = |row(nd) ∩ {hits = h}|` — a candidate's
///   gain is its level `s − 1`, its hit supply within `m` more failures
///   the sum of levels `s − m ..= s − 1`, and what it exposes to a pair
///   partner its level `s − 2`;
/// * `pair[lo·n + hi]` for node pair `lo < hi`: `+1` per object at
///   `hits = s − 2` hosted by both, `−1` per object at `hits = s − 1`
///   hosted by both — exactly the difference between `gain({x, y})` and
///   `gain(x) + gain(y)`.
///
/// All of it starts at the empty failed set (every object at level 0),
/// is cached per binding under one key, and is shifted by every add and
/// remove of the search ([`PathTables::push`], [`PathTables::pop`]). A
/// shift leaves the shifted node's own row and pairs alone, and it
/// updates failed co-hosts' rows off by one level; neither is read
/// while that node is failed, and because the DFS removes nodes in
/// reverse order of adding them, the balanced shifts restore every
/// entry exactly. A pop that empties the set instead resets the tables,
/// the pair matrix from the copy `ensure` keeps, whenever that writes
/// fewer words than the reverse shift would update.
#[derive(Debug, Default)]
pub(crate) struct PathTables {
    levels: Vec<u32>,
    pair: Vec<i32>,
    hist: Vec<u64>,
    members: NodeSet,
    /// Nodes in `members`.
    depth: usize,
    /// `pair` at the empty failed set.
    empty_pair: Vec<i32>,
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
    /// Drops the cached tables (the kernel is being rebound, possibly
    /// to a different placement with the same shape).
    pub(crate) fn invalidate(&mut self) {
        self.key = None;
    }

    /// Resets the tables to the empty failed set of `pc`'s binding
    /// unless they are cached for it already; with `pairs`, also builds
    /// the pair matrix and has `pc` fill the co-host rows the shifts
    /// stream (only searches with `k ≥ 2` read the matrix or shift).
    /// Must be called with an empty failed set.
    pub(crate) fn ensure(&mut self, pc: &mut PackedCounts, pairs: bool) {
        let key = (pc.num_nodes(), pc.num_objects(), pc.threshold());
        if self.key != Some(key) {
            self.n = usize::from(pc.num_nodes());
            self.stride = usize::from(pc.replicas_per_object()) + 1;
            self.s = usize::from(pc.threshold());
            self.reset_levels(pc);
            self.members.reset(self.n);
            self.depth = 0;
            self.pair.clear();
            self.empty_pair.clear();
            self.key = Some(key);
        }
        if pairs {
            pc.ensure_cohosts();
        }
        if pairs && self.pair.is_empty() {
            self.pair.resize(self.n * self.n, 0);
            let w0 = pair_weight(0, self.s);
            match self.stride - 1 {
                2 => self.count_pairs(pc, w0, 2),
                3 => self.count_pairs(pc, w0, 3),
                4 => self.count_pairs(pc, w0, 4),
                r => self.count_pairs(pc, w0, r),
            }
            self.empty_pair.clone_from(&self.pair);
        }
    }

    /// Adds `w0` to the pair entry of every two hosts sharing an object:
    /// one pass over the placement's rows of `r` hosts. Always inlined,
    /// so each constant `r` of [`PathTables::ensure`] gets its own
    /// unrolled copy.
    #[inline(always)]
    fn count_pairs(&mut self, pc: &PackedCounts, w0: i32, r: usize) {
        if w0 == 0 {
            return;
        }
        for row in pc.rows() {
            // Rows are ascending: `a < b` is the canonical order.
            let Some(hosts) = row.get(..r) else { continue };
            for (i, &a) in hosts.iter().enumerate() {
                let at = usize::from(a) * self.n;
                for &b in hosts.get(i + 1..).unwrap_or(&[]) {
                    if let Some(slot) = self.pair.get_mut(at + usize::from(b)) {
                        *slot += w0;
                    }
                }
            }
        }
    }

    /// Resets `levels` and `hist` to the empty failed set: every object
    /// at level 0.
    fn reset_levels(&mut self, pc: &PackedCounts) {
        self.levels.clear();
        self.levels.resize(self.n * self.stride, 0);
        for (nd, row) in (0..pc.num_nodes()).zip(self.levels.chunks_exact_mut(self.stride)) {
            if let Some(level0) = row.first_mut() {
                *level0 = pc.load(nd);
            }
        }
        self.hist.clear();
        self.hist.resize(self.stride, 0);
        if let Some(h0) = self.hist.first_mut() {
            *h0 = pc.num_objects() as u64;
        }
    }

    /// Objects the failed set fails.
    fn failed(&self) -> u64 {
        self.hist.get(self.s..).map_or(0, |t| t.iter().sum())
    }

    /// Objects failable within `m` more failures: levels
    /// `s − m ..= s − 1`, clamped to `0..=r`.
    fn failable(&self, m: u16) -> u64 {
        let lo = self.s.saturating_sub(usize::from(m));
        self.hist
            .get(lo..self.s.min(self.stride))
            .map_or(0, |t| t.iter().sum())
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

    /// Adds `nd` to the failed set.
    fn push(&mut self, pc: &PackedCounts, nd: u16) {
        self.shift(pc, nd, 1);
        self.members.insert(nd);
        self.depth += 1;
    }

    /// Removes `nd`, the last node pushed. A pop that empties the set
    /// resets the tables when that is cheaper: `n·(n + r + 1)` words
    /// against the `load(nd)·((r − 1) + C(r − 1, 2)) = load(nd)·C(r, 2)`
    /// level and pair updates of the reverse shift.
    fn pop(&mut self, pc: &PackedCounts, nd: u16) {
        self.members.remove(nd);
        self.depth -= 1;
        let r = self.stride - 1;
        let stream = pc.load(nd) as usize * r * r.saturating_sub(1) / 2;
        if self.depth == 0 && self.n * (self.n + self.stride) < stream {
            self.reset_levels(pc);
            self.pair.clone_from(&self.empty_pair);
        } else {
            self.shift(pc, nd, -1);
        }
    }

    /// Shifts the tables for `nd` joining (`dir = 1`) or having left
    /// (`dir = −1`) the failed set; both calls happen with `nd` outside
    /// the set. `nd`'s own row counts its objects by hit level, so the
    /// histogram moves by that row; the rest dispatches on the co-hosts
    /// per object (`r − 1`) so the common replication factors stream
    /// with a constant row width.
    fn shift(&mut self, pc: &PackedCounts, nd: u16, dir: i32) {
        let at = usize::from(nd) * self.stride;
        let row = self.levels.get(at..at + self.stride).unwrap_or(&[]);
        for (h, &moved) in row.iter().enumerate() {
            let d = i64::from(dir) * i64::from(moved);
            if let Some([from, to]) = self.hist.get_mut(h..h + 2) {
                *from = from.wrapping_add_signed(-d);
                *to = to.wrapping_add_signed(d);
            }
        }
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
        let members = &self.members;
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
    use crate::FailureCounts;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wcp_combin::KSubsets;
    use wcp_core::{Placement, RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

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

    /// Every path-table answer against the scalar oracle replaying the
    /// same failed set (exposure and supply straight from the
    /// placement's rows).
    fn assert_path_matches(ms: &NodeMoves<'_>, fc: &mut FailureCounts, p: &Placement, ctx: &str) {
        let path = &*ms.path;
        let s = path.s as u16;
        let members: Vec<u16> = path.members.iter_present().collect();
        assert_eq!(members, fc.nodes(), "{ctx}: members");
        assert_eq!(Branch::failed(ms), fc.failed(), "{ctx}: failed");
        for m in 0..=6u16 {
            assert_eq!(
                path.failable(m),
                fc.failable_within(m),
                "{ctx}: failable({m})"
            );
        }
        let outside: Vec<u16> = (0..p.num_nodes()).filter(|&nd| !fc.contains(nd)).collect();
        for &x in &outside {
            assert_eq!(path.gain(x), fc.gain(x), "{ctx}: gain({x})");
            let hits: Vec<u16> = (fc.objects_on(x).iter())
                .map(|&obj| {
                    let row = p.replicas(obj as usize);
                    row.iter().filter(|&&c| fc.contains(c)).count() as u16
                })
                .collect();
            let at = |lo: u16| hits.iter().filter(|&&h| lo <= h && h < s).count() as u64;
            let exposure = hits.iter().filter(|&&h| h + 2 == s).count() as u64;
            assert_eq!(path.exposure(x), exposure, "{ctx}: exposure({x})");
            for m in 1..=s {
                assert_eq!(path.supply(x, m), at(s - m), "{ctx}: supply({x}, {m})");
            }
            fc.add_node(x);
            for &y in outside.iter().filter(|&&y| y > x) {
                let pair = fc.gain(y) as i64;
                fc.remove_node(x);
                let alone = fc.gain(y) as i64;
                fc.add_node(x);
                let got = i64::from(path.correction(x, y));
                assert_eq!(got, pair - alone, "{ctx}: correction({x}, {y})");
            }
            fc.remove_node(x);
        }
    }

    #[test]
    fn path_tables_match_the_scalar_oracle_on_seeded_walks() {
        // n = 8: b = 400 puts every root pop at r ≥ 2 on the copy side
        // of `n·(n + r + 1)` against `load·C(r, 2)`, and b = 16 every
        // root pop on the reverse-shift side.
        let n = 8u16;
        let mut pops = [0u32; 2];
        for r in 1..=5u16 {
            for b in [16u64, 400] {
                let p = random_placement(n, b, r, u64::from(r) * 31 + b);
                for s in 1..=r {
                    let model = NodeModel::new(&p, s);
                    let mut scratch = AdversaryScratch::new();
                    let (mut ms, _, _) = model.bind(&mut scratch, true);
                    ms.prepare(4);
                    let mut fc = FailureCounts::new(&p, s);
                    let mut rng = StdRng::seed_from_u64(u64::from(r * 10 + s) ^ b);
                    let mut stack: Vec<u16> = Vec::new();
                    for step in 0..40 {
                        let grow = stack.is_empty() || (stack.len() < 5 && rng.gen_bool(0.6));
                        let ctx = format!("r={r} s={s} b={b} step={step}");
                        if grow {
                            let free: Vec<u16> = (0..n).filter(|&nd| !fc.contains(nd)).collect();
                            let nd = free[rng.gen_range(0..free.len())];
                            ms.push(u32::from(nd));
                            fc.add_node(nd);
                            stack.push(nd);
                        } else if let Some(nd) = stack.pop() {
                            if stack.is_empty() {
                                let (r, n) = (usize::from(r), usize::from(n));
                                let stream = ms.pc.load(nd) as usize * r * (r - 1) / 2;
                                let copy = n * (n + r + 1);
                                pops[usize::from(copy < stream)] += 1;
                            }
                            ms.pop(u32::from(nd));
                            fc.remove_node(nd);
                        }
                        assert_path_matches(&ms, &mut fc, &p, &ctx);
                    }
                    while let Some(nd) = stack.pop() {
                        ms.pop(u32::from(nd));
                        fc.remove_node(nd);
                    }
                    // Unwound, the tables equal a fresh binding's.
                    let mut fresh = AdversaryScratch::new();
                    let (mut clean, _, _) = model.bind(&mut fresh, true);
                    clean.prepare(4);
                    let (got, want) = (&*ms.path, &*clean.path);
                    assert_eq!(got.levels, want.levels, "r={r} s={s} b={b}");
                    assert_eq!(got.pair, want.pair, "r={r} s={s} b={b}");
                    assert_eq!(got.hist, want.hist, "r={r} s={s} b={b}");
                }
            }
        }
        assert!(
            pops.iter().all(|&count| count > 0),
            "both root-pop paths ran: {pops:?}"
        );
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

//! The heuristic rungs, written once for every budget model
//! ([`Climb`]): greedy and steepest-ascent swap local search.
//!
//! Both are available in two forms: the plain entry points
//! ([`greedy_worst`], [`local_search_worst`]) that allocate their own
//! failure accounting, and `_with` variants threading an
//! [`AdversaryScratch`] so callers evaluating many placements back to
//! back (the sweep and churn subsystems) reuse the buffers instead of
//! reallocating per evaluation. The restart schedule itself — per-restart
//! RNG streams, run inline or fanned across threads — lives in
//! [`crate::parallel`]; this module holds its loops and the node move
//! set's fast path.
//!
//! Decision-making is identical to the scalar ladder preserved in
//! [`crate::reference`] — same scan orders, same strict-improvement
//! tie-breaks, same restart schedule — so the two produce the same
//! [`WorstCase`], just at very different speeds: node gains come from
//! the maintained `hits = s − 1` bitmap, and the node swap search keeps
//! an incremental gain table that is delta-updated from the two swapped
//! nodes' CSR rows instead of re-deriving every `(out, in)` pair from
//! scratch each step.

use crate::counts::PackedCounts;
use crate::ladder::{node, Model, Moves, NodeModel, NodeMoves, Verdict};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use wcp_core::Placement;

/// What the heuristic rungs need from a move set.
pub(crate) trait Climb: Moves {
    /// Objects the current set fails.
    fn failed(&self) -> u64;
    /// Whether `m` is in the set.
    fn contains(&self, m: u32) -> bool;
    /// Objects `m` fails if it joins the set.
    fn gain(&mut self, m: u32) -> u64;
    /// Adds `m` to the set.
    fn add(&mut self, m: u32);
    /// The set's moves, ascending, into `out`.
    fn members(&self, out: &mut Vec<u32>);
    /// Readies one swap step of [`climb`].
    fn begin_step(&mut self);
    /// The best move to swap in for member `out`: the first outside the
    /// set (ascending, `out` excluded) whose failed count after the swap
    /// is the largest above `floor`, with that count. Leaves the set as
    /// it found it.
    fn best_swap(&mut self, out: u32, floor: u64) -> Option<(u32, u64)>;
    /// Replaces member `out` by `inn`.
    fn swap(&mut self, out: u32, inn: u32);
}

/// Reusable buffers of the heuristic rungs, for any move set.
#[derive(Debug, Default)]
pub(crate) struct ClimbScratch {
    /// Members buffer (one per climb step, never reallocated).
    pub(crate) members: Vec<u32>,
    /// Shuffle buffer for random restarts.
    pub(crate) perm: Vec<u32>,
}

/// The node move set's delta-maintained gain table.
#[derive(Debug, Default)]
pub(crate) struct GainTable {
    /// `gains[nd] = |row(nd) ∩ {hits = s − 1}|` for every node,
    /// maintained across swaps (`i64` so the hot value scan adds it to
    /// the sparse corrections without casts; always non-negative).
    gains: Vec<i64>,
    /// Per-`out` gain corrections, sparse (bulk-zeroed per candidate —
    /// a few hundred bytes, cheaper than tracking dirty entries).
    delta: Vec<i64>,
    /// Snapshot of the `hits = s − 1` bitmap across a swap.
    eq_prev: Vec<u64>,
    /// The `hits = s` bitmap of the current step (loss mask).
    eq_s: Vec<u64>,
}

/// Per-rung decision record the certificate prover consumes: the greedy
/// seed's outcome plus each climb pass's outcome, in restart order.
/// Recorded by the restart schedule in [`crate::parallel`], whose entries
/// are keyed by restart index and so are the same at any thread count.
#[derive(Debug, Default)]
pub(crate) struct LadderTrace {
    /// `(failed, moves)` of the greedy seed before any climbing.
    pub greedy: Option<(u64, Vec<u32>)>,
    /// `(failed, moves)` after each climb pass, in restart order.
    pub restarts: Vec<(u64, Vec<u32>)>,
}

/// Greedy ascent into an empty move set: `k` times, adds the move that
/// fails the most additional objects, ties toward the heavier move,
/// then the lower id.
pub(crate) fn greedy<C: Climb>(ms: &mut C, k: u16) {
    let len = ms.len() as u32;
    for _ in 0..usize::from(k).min(ms.len()) {
        let mut best = None;
        let mut best_key = (0u64, 0u64);
        for m in 0..len {
            if ms.contains(m) {
                continue;
            }
            let key = (ms.gain(m), ms.weight(m));
            if best.is_none() || key > best_key {
                best_key = key;
                best = Some(m);
            }
        }
        let Some(m) = best else { return };
        ms.add(m);
    }
}

/// Seeds a random `k`-set into an empty move set: the first `k` entries
/// of a shuffled move permutation — the random-restart primitive of the
/// schedule in [`crate::parallel`].
pub(crate) fn seed_random<C: Climb>(ms: &mut C, perm: &mut Vec<u32>, k: u16, rng: &mut StdRng) {
    perm.clear();
    perm.extend(0..ms.len() as u32);
    perm.shuffle(rng);
    for &m in perm.iter().take(usize::from(k)) {
        ms.add(m);
    }
}

/// Applies best-improvement swaps until a local optimum (or step cap):
/// each step values every `(out, in)` pair and applies the strictly best
/// one, ties to the earliest `out`, then the lowest `in`.
pub(crate) fn climb<C: Climb>(ms: &mut C, members: &mut Vec<u32>, max_steps: u32, all: u64) {
    for _ in 0..max_steps {
        let current = ms.failed();
        if current == all {
            return;
        }
        ms.begin_step();
        ms.members(members);
        let mut best: Option<(u32, u32, u64)> = None; // (out, in, value)
        for &out in members.iter() {
            let floor = best.map_or(current, |(_, _, value)| value);
            if let Some((inn, value)) = ms.best_swap(out, floor) {
                best = Some((out, inn, value));
            }
        }
        let Some((out, inn, value)) = best else {
            return;
        };
        ms.swap(out, inn);
        debug_assert_eq!(ms.failed(), value, "swap value drifted");
    }
}

impl GainTable {
    /// Resets the table to an *empty* kernel's: at `s = 1` every object
    /// sits one hit from failing, so a node's gain is its load;
    /// otherwise no object does, so all gains are zero. `O(n)` — no
    /// bitmap scan.
    pub(crate) fn reset(&mut self, pc: &PackedCounts) {
        debug_assert_eq!(pc.failed(), 0, "gain table reset requires an empty set");
        let n = pc.num_nodes();
        self.gains.clear();
        if pc.threshold() == 1 {
            self.gains.extend((0..n).map(|nd| i64::from(pc.load(nd))));
        } else {
            self.gains.resize(usize::from(n), 0);
        }
        self.delta.clear();
        self.delta.resize(usize::from(n), 0);
    }
}

impl NodeMoves<'_> {
    /// Copies the current `hits = s − 1` mask into the swap snapshot.
    fn snapshot_eq(&mut self) {
        self.gains.eq_prev.clear();
        self.gains.eq_prev.extend_from_slice(self.pc.eq_sm1_words());
    }

    /// Folds the XOR between the snapshot and the live `hits = s − 1`
    /// mask into the gain table: each flipped object adjusts the gain of
    /// its `r` hosts by ±1. After any single add/remove/swap the diff is
    /// confined to the touched nodes' rows, so this is a handful of
    /// popcount-sparse words.
    fn fold_eq_flips(&mut self) {
        let (pc, t) = (&*self.pc, &mut *self.gains);
        for (w, (&prev, &now)) in t.eq_prev.iter().zip(pc.eq_sm1_words()).enumerate() {
            let mut diff = prev ^ now;
            while diff != 0 {
                let bit = diff.trailing_zeros() as usize;
                diff &= diff - 1;
                let d: i64 = if now >> bit & 1 == 1 { 1 } else { -1 };
                bump(&mut t.gains, pc.hosts_of(w * 64 + bit), d);
            }
        }
        #[cfg(debug_assertions)]
        for (nd, &gain) in (0..pc.num_nodes()).zip(&t.gains) {
            let live = pc.and_popcount_row(nd, pc.eq_sm1_words()) as i64;
            assert_eq!(gain, live, "gain table drifted at node {nd}");
        }
    }
}

/// Adds `d` to the table entries of `hosts`.
#[inline]
fn bump(table: &mut [i64], hosts: &[u16], d: i64) {
    for &host in hosts {
        if let Some(g) = table.get_mut(usize::from(host)) {
            *g += d;
        }
    }
}

/// The node fast path: gains come off the delta-maintained table, and a
/// swap is valued without touching the kernel.
impl Climb for NodeMoves<'_> {
    fn failed(&self) -> u64 {
        self.pc.failed()
    }

    fn contains(&self, m: u32) -> bool {
        self.pc.contains(node(m))
    }

    fn gain(&mut self, m: u32) -> u64 {
        self.gains.gains.get(m as usize).map_or(0, |&g| g as u64)
    }

    /// Adds the node while keeping the gain table live: snapshot the
    /// `hits = s − 1` mask, apply the kernel update, then fold the
    /// mask's flipped bits (all within the node's row) into the gains.
    fn add(&mut self, m: u32) {
        self.snapshot_eq();
        self.pc.add_node(node(m));
        self.fold_eq_flips();
    }

    fn members(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.pc.members().iter_present().map(u32::from));
    }

    fn begin_step(&mut self) {
        self.pc.eq_s_into(&mut self.gains.eq_s);
    }

    /// The loss of removing `out` is one popcount of
    /// `row(out) ∩ {hits = s}`; removing it shifts a candidate's gain
    /// only on objects the two rows share, so one sparse walk of
    /// `row(out) ∩ {hits = s}` and `row(out) ∩ {hits = s − 1}` collects
    /// the exact correction of every candidate at once. The candidate
    /// scan is an inlined complement-bitmap walk (`out` is still a
    /// member, so the walk skips it), so its inner loop is loads, adds
    /// and compares only.
    fn best_swap(&mut self, out: u32, floor: u64) -> Option<(u32, u64)> {
        let (pc, t) = (&*self.pc, &mut *self.gains);
        let out = node(out);
        let base = (pc.failed() - pc.and_popcount_row(out, &t.eq_s)) as i64;
        // Objects at s hits drop to s − 1 (candidates hosting them gain
        // on them), objects at s − 1 drop to s − 2 (they stop gaining).
        let words = pc.row_words(out).iter().zip(&t.eq_s).zip(pc.eq_sm1_words());
        for (w, ((&row, &eq_s), &eq_sm1)) in words.enumerate() {
            for (mut bits, d) in [(row & eq_s, 1), (row & eq_sm1, -1)] {
                while bits != 0 {
                    let obj = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    bump(&mut t.delta, pc.hosts_of(obj), d);
                }
            }
        }
        let (member_words, limit) = pc.member_words();
        let mut best_value = floor as i64;
        let mut best = None;
        let last_w = member_words.len().wrapping_sub(1);
        for (wi, &mw) in member_words.iter().enumerate() {
            let mut bits = !mw;
            if wi == last_w {
                bits &= limit;
            }
            while bits != 0 {
                let inn = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (Some(&g), Some(&d)) = (t.gains.get(inn), t.delta.get(inn)) else {
                    continue;
                };
                let value = base + g + d;
                if value > best_value {
                    best_value = value;
                    best = Some((inn as u32, value as u64));
                }
            }
        }
        t.delta.fill(0);
        best
    }

    fn swap(&mut self, out: u32, inn: u32) {
        self.snapshot_eq();
        self.pc.remove_node(node(out));
        self.pc.add_node(node(inn));
        self.fold_eq_flips();
    }
}

/// Greedy adversary: repeatedly fails the node that kills the most
/// additional objects (ties broken toward higher-load nodes, which bring
/// more objects closer to the threshold).
///
/// # Examples
///
/// ```
/// use wcp_adversary::greedy_worst;
/// use wcp_core::Placement;
///
/// let p = Placement::new(6, 2, vec![vec![0, 1], vec![0, 2], vec![0, 3]])?;
/// let wc = greedy_worst(&p, 1, 1);
/// assert_eq!(wc.nodes, vec![0]); // the hub node
/// assert_eq!(wc.failed, 3);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch buffers.
#[must_use]
pub fn greedy_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let model = NodeModel::new(placement, s);
    model.worst(greedy_moves(&model, k, scratch))
}

/// The greedy rung over `model`'s moves on a fresh binding of
/// `scratch`.
pub(crate) fn greedy_moves<M: Model>(model: &M, k: u16, scratch: &mut AdversaryScratch) -> Verdict {
    let (mut ms, cs, _) = model.bind(scratch, true);
    greedy(&mut ms, k);
    ms.members(&mut cs.members);
    Verdict {
        failed: Climb::failed(&ms),
        ids: cs.members.clone(),
        exact: false,
    }
}

/// Steepest-ascent swap local search with restarts: from a seed `k`-set
/// (greedy for the first restart, random thereafter), repeatedly applies
/// the best single swap (one node out, one in) until no swap improves the
/// failed-object count. Restart `t` draws from its own seeded RNG stream
/// and the restarts run on `config.parallelism` threads, with the same
/// result at any thread count.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{local_search_worst, AdversaryConfig};
/// use wcp_core::{Parallelism, Placement};
///
/// let p = Placement::new(6, 3, vec![vec![0, 1, 2], vec![1, 2, 3]])?;
/// let wc = local_search_worst(&p, 2, 2, &AdversaryConfig::default());
/// assert_eq!(wc.failed, 2); // {1,2} kills both objects
/// let four = AdversaryConfig { parallelism: Parallelism::new(4), ..AdversaryConfig::default() };
/// assert_eq!(local_search_worst(&p, 2, 2, &four), wc); // bit-identical at any thread count
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn local_search_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
) -> WorstCase {
    local_search_worst_with(placement, s, k, config, &mut AdversaryScratch::new())
}

/// [`local_search_worst`] reusing the caller's scratch buffers: at one
/// thread a single kernel binding serves the greedy seed and every
/// restart (cleared in place between them, `O(b/64)` instead of a fresh
/// index build), and one gain table rides along the whole way.
#[must_use]
pub fn local_search_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let model = NodeModel::new(placement, s);
    let verdict =
        crate::parallel::local_search(&model, k, config, scratch, &mut LadderTrace::default());
    model.worst(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    use wcp_core::Placement;

    #[test]
    fn greedy_finds_hub() {
        let p =
            Placement::new(10, 2, vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![4, 5]]).unwrap();
        let wc = greedy_worst(&p, 1, 2);
        assert!(wc.nodes.contains(&0));
        assert_eq!(wc.failed, 4); // hub + either of {4,5}
    }

    #[test]
    fn local_search_improves_or_equals_greedy() {
        for seed in 0..6u64 {
            let p = random_placement(25, 150, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (3, 6)] {
                let g = greedy_worst(&p, s, k);
                let ls = local_search_worst(&p, s, k, &AdversaryConfig::default());
                assert!(ls.failed >= g.failed, "seed={seed} s={s} k={k}");
                assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed);
                assert_eq!(ls.nodes.len(), usize::from(k));
            }
        }
    }

    #[test]
    fn shared_scratch_matches_fresh_buffers() {
        // One scratch across a sequence of differently shaped placements
        // must reproduce the fresh-allocation results cell for cell.
        let mut scratch = AdversaryScratch::new();
        let cfg = AdversaryConfig::default();
        for (seed, n, b, r) in [(1u64, 20u16, 80u64, 3u16), (2, 25, 150, 3), (3, 12, 40, 4)] {
            let p = random_placement(n, b, r, seed);
            for (s, k) in [(1u16, 2u16), (2, 4), (2, 5)] {
                let fresh_g = greedy_worst(&p, s, k);
                let reuse_g = greedy_worst_with(&p, s, k, &mut scratch);
                assert_eq!(fresh_g, reuse_g, "greedy n={n} s={s} k={k}");
                let fresh_ls = local_search_worst(&p, s, k, &cfg);
                let reuse_ls = local_search_worst_with(&p, s, k, &cfg, &mut scratch);
                assert_eq!(fresh_ls, reuse_ls, "ls n={n} s={s} k={k}");
            }
        }
    }

    #[test]
    fn kernel_ladder_matches_scalar_reference() {
        // The packed ladder must be decision-identical to the scalar
        // oracle, witness included.
        let cfg = AdversaryConfig::default();
        for seed in 0..4u64 {
            let p = random_placement(22, 120, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (3, 5)] {
                assert_eq!(
                    greedy_worst(&p, s, k),
                    reference::greedy_worst(&p, s, k),
                    "greedy seed={seed} s={s} k={k}"
                );
                assert_eq!(
                    local_search_worst(&p, s, k, &cfg),
                    reference::local_search_worst(&p, s, k, &cfg),
                    "ls seed={seed} s={s} k={k}"
                );
            }
        }
    }

    #[test]
    fn gain_based_swap_value_is_consistent() {
        // Verify the swap valuation by comparing a full recompute.
        let p = random_placement(15, 80, 3, 3);
        let mut pc = PackedCounts::new(&p, 2);
        for nd in [0u16, 3, 7, 11] {
            pc.add_node(nd);
        }
        pc.remove_node(3);
        let base = pc.failed();
        for inn in 0..15u16 {
            if pc.contains(inn) {
                continue;
            }
            let predicted = base + pc.gain(inn);
            pc.add_node(inn);
            assert_eq!(pc.failed(), predicted, "node {inn}");
            pc.remove_node(inn);
        }
    }

    #[test]
    fn k_at_least_n_fails_everything_reachable() {
        let p = random_placement(9, 30, 3, 0);
        let wc = local_search_worst(&p, 2, 9, &AdversaryConfig::default());
        assert_eq!(wc.failed, 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = random_placement(30, 200, 3, 11);
        let cfg = AdversaryConfig::default();
        let a = local_search_worst(&p, 2, 5, &cfg);
        let b = local_search_worst(&p, 2, 5, &cfg);
        assert_eq!(a, b);
    }
}

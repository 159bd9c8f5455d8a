//! Heuristic adversaries on the word-parallel kernel: greedy and
//! steepest-ascent swap local search.
//!
//! Both are available in two forms: the plain entry points
//! ([`greedy_worst`], [`local_search_worst`]) that allocate their own
//! failure accounting, and `_with` variants threading an
//! [`AdversaryScratch`] so callers evaluating many placements back to
//! back (the sweep and churn subsystems) reuse the buffers instead of
//! reallocating per evaluation. The restart schedule itself — per-restart
//! RNG streams, run inline or fanned across threads — lives in
//! [`crate::parallel`]; this module holds its kernel-level primitives.
//!
//! Decision-making is identical to the scalar ladder preserved in
//! [`crate::reference`] — same scan orders, same strict-improvement
//! tie-breaks, same restart schedule — so the two produce the same
//! [`WorstCase`], just at very different speeds: gains come from the
//! maintained `hits = s − 1` bitmap (`O(b/64)` per query), and the swap
//! search keeps an incremental gain table that is delta-updated from the
//! two swapped nodes' CSR rows instead of re-deriving every `(out, in)`
//! pair from scratch each step.

use crate::counts::PackedCounts;
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use wcp_core::Placement;

/// Reusable buffers for the delta-maintained swap search.
#[derive(Debug, Default)]
pub(crate) struct ClimbScratch {
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
    /// Members buffer (replaces a `fc.nodes()` allocation per step).
    members: Vec<u16>,
    /// Shuffle buffer for random restarts.
    perm: Vec<u16>,
}

/// Per-rung decision record the certificate prover consumes: the greedy
/// seed's outcome plus each climb pass's outcome, in restart order.
/// Recorded by the restart schedule in [`crate::parallel`], whose entries
/// are keyed by restart index and so are the same at any thread count.
#[derive(Debug, Default)]
pub(crate) struct LadderTrace {
    /// `(failed, witness)` of the greedy seed before any climbing.
    pub greedy: Option<(u64, Vec<u16>)>,
    /// `(failed, witness)` after each climb pass, in restart order.
    pub restarts: Vec<(u64, Vec<u16>)>,
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
    let (pc, cs, _) = scratch.bind_packed(placement, s);
    greedy_into(pc, cs, k)
}

/// Runs the greedy ascent into `pc` (must be bound and empty); leaves
/// `pc` holding the chosen node set and `cs` holding a live gain table
/// so callers can keep climbing from it. Loads come straight from the
/// kernel's CSR offsets — no per-call `placement.loads()` allocation —
/// and candidate scans walk the non-member bitmap instead of testing
/// `contains` per node.
pub(crate) fn greedy_into(pc: &mut PackedCounts, cs: &mut ClimbScratch, k: u16) -> WorstCase {
    let n = pc.num_nodes();
    reset_gains(pc, cs);
    for _ in 0..k.min(n) {
        let mut best_node = None;
        let mut best_key = (0u64, 0u32);
        for nd in pc.iter_absent() {
            let key = (cs.gains[usize::from(nd)] as u64, pc.load(nd));
            if best_node.is_none() || key > best_key {
                best_key = key;
                best_node = Some(nd);
            }
        }
        add_tracked(pc, cs, best_node.expect("k ≤ n leaves a choice"));
    }
    WorstCase {
        failed: pc.failed(),
        nodes: pc.nodes(),
        exact: false,
    }
}

/// (Re)initializes the gain table for an *empty* failed set: at `s = 1`
/// every object sits one hit from failing, so a node's gain is its
/// load; otherwise no object does, so all gains are zero. `O(n)` —
/// no bitmap scan needed.
fn reset_gains(pc: &PackedCounts, cs: &mut ClimbScratch) {
    debug_assert_eq!(pc.failed(), 0, "gain table reset requires an empty set");
    let n = usize::from(pc.num_nodes());
    cs.gains.clear();
    if pc.threshold() == 1 {
        cs.gains
            .extend((0..n as u16).map(|nd| i64::from(pc.load(nd))));
    } else {
        cs.gains.resize(n, 0);
    }
    cs.delta.clear();
    cs.delta.resize(n, 0);
}

/// Adds `nd` to the failed set while keeping the gain table live:
/// snapshot the `hits = s − 1` mask, apply the kernel update, then fold
/// the mask's flipped bits (all within `nd`'s row) into the gains of
/// each flipped object's hosts.
fn add_tracked(pc: &mut PackedCounts, cs: &mut ClimbScratch, nd: u16) {
    snapshot_eq(pc, cs);
    pc.add_node(nd);
    fold_eq_flips(pc, cs);
}

/// Copies the current `hits = s − 1` mask into the scratch snapshot.
fn snapshot_eq(pc: &PackedCounts, cs: &mut ClimbScratch) {
    cs.eq_prev.clear();
    cs.eq_prev.extend_from_slice(pc.eq_sm1_words());
}

/// Folds the XOR between the snapshot and the live `hits = s − 1` mask
/// into the gain table: each flipped object adjusts the gain of its `r`
/// hosts by ±1. After any single add/remove/swap the diff is confined
/// to the touched nodes' rows, so this is a handful of popcount-sparse
/// words.
fn fold_eq_flips(pc: &PackedCounts, cs: &mut ClimbScratch) {
    let eq_now = pc.eq_sm1_words();
    for (w, (&prev, &now)) in cs.eq_prev.iter().zip(eq_now).enumerate() {
        let mut diff = prev ^ now;
        while diff != 0 {
            let bit = diff.trailing_zeros() as usize;
            diff &= diff - 1;
            let obj = w * 64 + bit;
            let d: i64 = if now >> bit & 1 == 1 { 1 } else { -1 };
            for &host in pc.hosts_of(obj) {
                cs.gains[usize::from(host)] += d;
            }
        }
    }
}

/// Debug-only invariant: `gains[nd] = |row(nd) ∩ {hits = s − 1}|`.
#[cfg(debug_assertions)]
fn assert_gains_live(pc: &PackedCounts, cs: &ClimbScratch) {
    for nd in 0..pc.num_nodes() {
        assert_eq!(
            cs.gains[usize::from(nd)],
            pc.and_popcount_row(nd, pc.eq_sm1_words()) as i64,
            "gain table drifted at node {nd}"
        );
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
    crate::parallel::local_search(
        placement,
        s,
        k,
        config,
        scratch,
        &mut LadderTrace::default(),
    )
}

/// Seeds a random `k`-set into an *empty* `pc` (a fresh gain table, a
/// shuffled node permutation, the first `k` entries failed) — the
/// random-restart primitive of the schedule in [`crate::parallel`].
pub(crate) fn seed_random_set(
    pc: &mut PackedCounts,
    cs: &mut ClimbScratch,
    k: u16,
    rng: &mut StdRng,
) {
    reset_gains(pc, cs);
    cs.perm.clear();
    cs.perm.extend(0..pc.num_nodes());
    cs.perm.shuffle(rng);
    for i in 0..usize::from(k) {
        let nd = cs.perm[i];
        add_tracked(pc, cs, nd);
    }
}

/// Applies best-improvement swaps until a local optimum (or step cap).
///
/// Instead of the reference implementation's full re-scan — remove each
/// member, re-derive every candidate's gain with an `O(ℓ)` walk, add the
/// member back, `O(k·n·ℓ)` per step — this works entirely off the
/// incremental gain table maintained since the seed set was built
/// (delta-updated after every applied swap from the two swapped nodes'
/// rows via [`fold_eq_flips`]), plus per-`out` corrections:
///
/// * the loss of removing `out` is one popcount of
///   `row(out) ∩ {hits = s}`;
/// * removing `out` shifts a candidate `inn`'s gain only on objects the
///   two rows share, so one sparse walk of `row(out) ∩ {hits = s}` and
///   `row(out) ∩ {hits = s − 1}` accumulates the exact correction for
///   every candidate at once.
pub(crate) fn climb(pc: &mut PackedCounts, cs: &mut ClimbScratch, max_steps: u32, all: u64) {
    #[cfg(debug_assertions)]
    assert_gains_live(pc, cs);
    for _ in 0..max_steps {
        let current = pc.failed();
        if current == all {
            return;
        }
        pc.eq_s_into(&mut cs.eq_s);
        pc.collect_nodes(&mut cs.members);
        let mut best: Option<(u16, u16, u64)> = None; // (out, in, value)
        for idx in 0..cs.members.len() {
            let out = cs.members[idx];
            // Objects at exactly s hits drop below threshold when `out`
            // is removed iff `out` hosts them.
            let loss = pc.and_popcount_row(out, &cs.eq_s);
            let base = current - loss;
            // Corrections: removing `out` lowers counts on row(out) by
            // one, so candidates hosting an object there gain on it iff
            // it sat at s hits (now s − 1) and stop gaining iff it sat
            // at s − 1 (now s − 2).
            let row = pc.row_words(out);
            let eq_sm1 = pc.eq_sm1_words();
            for w in 0..row.len() {
                let mut plus = row[w] & cs.eq_s[w];
                while plus != 0 {
                    let obj = w * 64 + plus.trailing_zeros() as usize;
                    plus &= plus - 1;
                    for &host in pc.hosts_of(obj) {
                        cs.delta[usize::from(host)] += 1;
                    }
                }
                let mut minus = row[w] & eq_sm1[w];
                while minus != 0 {
                    let obj = w * 64 + minus.trailing_zeros() as usize;
                    minus &= minus - 1;
                    for &host in pc.hosts_of(obj) {
                        cs.delta[usize::from(host)] -= 1;
                    }
                }
            }
            // Candidate scan: inlined complement-bitmap walk so the
            // inner loop is loads + adds + compares only.
            let (member_words, limit) = pc.member_words();
            let gains = cs.gains.as_slice();
            let delta = cs.delta.as_slice();
            let base_i = base as i64;
            let current_i = current as i64;
            let mut best_value = best.map_or(current_i, |(_, _, v)| v as i64);
            let last_w = member_words.len().wrapping_sub(1);
            for (wi, &mw) in member_words.iter().enumerate() {
                let mut bits = !mw;
                if wi == last_w {
                    bits &= limit;
                }
                while bits != 0 {
                    let inn = (wi << 6) + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let value = base_i + gains[inn] + delta[inn];
                    if value > current_i && value > best_value {
                        best_value = value;
                        best = Some((out, inn as u16, value as u64));
                    }
                }
            }
            cs.delta.fill(0);
        }
        let Some((out, inn, value)) = best else {
            return;
        };
        snapshot_eq(pc, cs);
        pc.remove_node(out);
        pc.add_node(inn);
        debug_assert_eq!(pc.failed(), value, "delta-maintained swap value drifted");
        fold_eq_flips(pc, cs);
        #[cfg(debug_assertions)]
        assert_gains_live(pc, cs);
    }
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

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
//! [`WorstCase`], just at very different speeds: a node's gain is one
//! read of its hit-level row in [`crate::PackedCounts`], and the node
//! swap search values every `(out, in)` pair of a step from one pass
//! over each member's co-host row instead of re-deriving each pair
//! from scratch.

use crate::ladder::{node, Model, Moves, NodeModel, NodeMoves, Verdict};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use wcp_core::Placement;

/// What the heuristic rungs need from a move set.
pub(crate) trait Climb: Moves {
    /// Whether `m` is in the set.
    fn contains(&self, m: u32) -> bool;
    /// Adds `m` to the set.
    fn add(&mut self, m: u32);
    /// The set's moves, ascending, into `out`.
    fn members(&self, out: &mut Vec<u32>);
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

/// The node fast path: gains are level reads, and a swap is valued
/// from one pass over the outgoing node's co-host row.
impl Climb for NodeMoves<'_> {
    fn contains(&self, m: u32) -> bool {
        self.pc.contains(node(m))
    }

    fn add(&mut self, m: u32) {
        self.pc.push::<false>(node(m));
    }

    fn members(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.pc.iter_members().map(u32::from));
    }

    /// Removing `out` recovers its objects at exactly `s` hits, and it
    /// changes a candidate's gain only on objects the two share, so one
    /// pass over `out`'s co-host row yields the value of every
    /// candidate: `failed − loss(out) + gain(in) + delta[in]`. The
    /// candidate scan walks the membership bytes in node order (`out`
    /// is still a member, so the walk skips it).
    fn best_swap(&mut self, out: u32, floor: u64) -> Option<(u32, u64)> {
        let (pc, delta) = (&*self.pc, &mut **self.deltas);
        let loss = pc.swap_deltas(node(out), delta);
        let base = (pc.failed() - loss) as i64;
        let mut best_value = floor as i64;
        let mut best = None;
        for (inn, (&member, &d)) in pc.members().iter().zip(delta.iter()).enumerate() {
            if member == 1 {
                continue;
            }
            let value = base + pc.gain(inn as u16) as i64 + d;
            if value > best_value {
                best_value = value;
                best = Some((inn as u32, value as u64));
            }
        }
        delta.fill(0);
        best
    }

    fn swap(&mut self, out: u32, inn: u32) {
        self.pc.remove::<false>(node(out));
        self.pc.push::<false>(node(inn));
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
///
/// # Panics
///
/// Panics if `s = 0`.
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch buffers.
///
/// # Panics
///
/// Panics if `s = 0`.
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
        failed: ms.failed(),
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
///
/// # Panics
///
/// Panics if `s = 0`.
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
/// thread a single binding serves the greedy seed and every restart
/// (cleared in place between them, `O(n·r)` instead of a fresh index
/// build).
///
/// # Panics
///
/// Panics if `s = 0`.
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
    fn swap_values_match_the_scalar_oracle() {
        // Every (out, in) value the climb composes — failed − loss(out)
        // + gain(in) + delta[in] — against a scalar replay of the
        // swapped set, on sets reached by adds and out-of-order removes
        // (so the members' own level rows have drifted).
        use crate::FailureCounts;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 12u16;
        for r in 1..=5u16 {
            let p = random_placement(n, 300, r, u64::from(r) * 7);
            for s in 1..=r + 1 {
                let model = NodeModel::new(&p, s);
                let mut scratch = AdversaryScratch::new();
                let (ms, _, _) = model.bind(&mut scratch, true);
                let mut rng = StdRng::seed_from_u64(u64::from(r * 10 + s));
                let mut members: Vec<u16> = Vec::new();
                for round in 0..12 {
                    let grow = members.len() < 2 || (members.len() < 6 && rng.gen_bool(0.6));
                    if grow {
                        let free: Vec<u16> = (0..n).filter(|nd| !members.contains(nd)).collect();
                        let nd = free[rng.gen_range(0..free.len())];
                        ms.pc.add_node(nd);
                        members.push(nd);
                    } else {
                        let nd = members.swap_remove(rng.gen_range(0..members.len()));
                        ms.pc.remove_node(nd);
                    }
                    for &out in &members {
                        let loss = ms.pc.swap_deltas(out, ms.deltas);
                        for inn in (0..n).filter(|nd| !members.contains(nd)) {
                            let value = (ms.pc.failed() - loss + ms.pc.gain(inn)) as i64
                                + ms.deltas[usize::from(inn)];
                            let mut fc = FailureCounts::new(&p, s);
                            for &nd in members.iter().filter(|&&nd| nd != out) {
                                fc.add_node(nd);
                            }
                            fc.add_node(inn);
                            let ctx = format!("r={r} s={s} round={round} out={out} in={inn}");
                            assert_eq!(value, fc.failed() as i64, "{ctx}");
                        }
                        ms.deltas.fill(0);
                    }
                }
            }
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

//! The ladder's one schedule: multi-restart local search and the exact
//! rung, each run inline on the caller's scratch at one thread and
//! fanned across workers at more. The schedule is *thread-count
//! invariant*: for a fixed configuration the returned
//! `(failed, witness, exact)` — and the decision trace a certificate
//! records — is bit-identical whether the ladder runs on 1 thread or 64.
//!
//! ## Why the results are deterministic
//!
//! **Local search** gives every restart its own RNG stream, seeded by
//! [`restart_seed`] from `(config.seed, restart index)`, so a restart's
//! climb trajectory depends only on its index. Restart 0 climbs from
//! the greedy set. Every restart always runs (no cross-restart early
//! exit), and the combination scans results in restart order keeping
//! the best under the deterministic order "more failed wins, ties break
//! to the lexicographically smallest witness". One thread simply runs
//! the restarts in index order on the caller's scratch.
//!
//! **Exact search** runs the serial DFS at one thread (and at `k ≤ 1`,
//! where the root frame is a single closed-form sweep). At more it
//! splits the root frontier: task `i` explores the subtree rooted at
//! the `i`-th child of the deterministic root order — the same
//! `(gain, weight, id)` descending key the serial DFS sorts its root
//! frame by. Workers share the incumbent through a monotone
//! [`SharedBound`] and prune strictly *below* it, so a subtree whose
//! bound equals the optimum (and may therefore contain the first
//! optimum-achieving witness in root order) is never discarded; local
//! recording still compares against the task-local best only. The
//! combination keeps the first strict improvement in root order, which
//! is exactly the witness the serial DFS records last — the returned
//! optimum *and witness* match the serial search whenever both complete
//! (pruned-node counts do vary with scheduling; only the answer is
//! invariant, so budget-edge aborts should be treated as inexact the
//! same way the serial rung's are).
//!
//! The schedule is generic over the budget model ([`Model`]), so node
//! and failure-unit ladders fan out the same way.
//!
//! The fan-out reuses `wcp_core`'s work-stealing scope and the atomics
//! live in [`crate::pool`]; this module contains no thread or ordering
//! code of its own.

use crate::exact::{self, Branch};
use crate::ladder::{Model, Moves, NodeModel, Verdict};
use crate::pool::{fan_out, SharedBound};
use crate::search::{self, Climb, LadderTrace};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use wcp_core::{Parallelism, Placement};

/// A fan-out worker's scratch, bound to the placement by its first task
/// and only cleared between tasks — one index build per *worker*, not
/// per task.
#[derive(Default)]
struct Worker {
    scratch: AdversaryScratch,
    bound: bool,
}

/// Splitmix64-style mix of `(seed, restart index)`: decorrelated,
/// index-addressable restart streams, so restart `t` draws the same
/// numbers no matter which worker runs it.
fn restart_seed(seed: u64, restart: u64) -> u64 {
    let mut z = seed ^ restart.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Restart `t`'s RNG stream.
pub(crate) fn restart_rng(seed: u64, t: usize) -> StdRng {
    StdRng::seed_from_u64(restart_seed(seed, t as u64))
}

/// The schedule's combination key: more failed wins, ties break to the
/// lexicographically smallest witness. Every ladder combines its
/// restarts by it.
pub(crate) fn rank<T: Ord>(failed: u64, witness: &[T]) -> (u64, Reverse<&[T]>) {
    (failed, Reverse(witness))
}

/// One restart's outcome: the greedy seed (restart 0 only), then the
/// climbed set's damage and moves.
type Restart = (Option<(u64, Vec<u32>)>, u64, Vec<u32>);

/// Runs restart `t` on `scratch`, binding it when `*bound` is unset.
/// Requires `k` below the move count.
fn restart<M: Model>(
    model: &M,
    scratch: &mut AdversaryScratch,
    bound: &mut bool,
    k: u16,
    config: &AdversaryConfig,
    t: usize,
) -> Restart {
    let rebind = !std::mem::replace(bound, true);
    let all = model.placement().num_objects() as u64;
    let (mut ms, cs, _) = model.bind(scratch, rebind);
    // Restart 0 climbs from the greedy set, the rest from a random set
    // drawn from their own streams.
    let greedy = if t == 0 {
        search::greedy(&mut ms, k);
        ms.members(&mut cs.members);
        Some((ms.failed(), cs.members.clone()))
    } else {
        search::seed_random(&mut ms, &mut cs.perm, k, &mut restart_rng(config.seed, t));
        None
    };
    // restarts = 0 keeps the bare greedy set.
    if config.restarts > 0 {
        search::climb(&mut ms, &mut cs.members, config.max_steps, all);
    }
    ms.members(&mut cs.members);
    (greedy, ms.failed(), cs.members.clone())
}

/// Multi-restart local search over `model`'s moves: restart 0 climbs
/// from the greedy seed, restarts `1..restarts` from random `k`-sets,
/// run inline on `scratch` at one thread and fanned across
/// `config.parallelism` workers otherwise. Records the per-rung decision
/// trace for the certificate prover; trace entries are keyed by restart
/// index, so the trace — like the result — is thread-count invariant.
pub(crate) fn local_search<M: Model>(
    model: &M,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
    trace: &mut LadderTrace,
) -> Verdict {
    if usize::from(k) >= model.len() {
        return Verdict {
            exact: false,
            ..model.all_moves()
        };
    }
    let restarts = config.restarts.max(1) as usize;
    let threads = config.parallelism.threads();
    let results: Vec<Restart> = if threads == 1 {
        let mut bound = false;
        (0..restarts)
            .map(|t| restart(model, scratch, &mut bound, k, config, t))
            .collect()
    } else {
        fan_out(restarts, threads, Worker::default, |w, t| {
            restart(model, &mut w.scratch, &mut w.bound, k, config, t)
        })
    };
    let mut best = Verdict::default();
    for (t, (greedy, failed, ids)) in results.into_iter().enumerate() {
        if greedy.is_some() {
            trace.greedy = greedy;
        }
        if t == 0 || rank(failed, &ids) > rank(best.failed, &best.ids) {
            best.failed = failed;
            best.ids.clone_from(&ids);
        }
        trace.restarts.push((failed, ids));
    }
    best
}

/// The ladder's two searches: [`local_search`], then the exact rung
/// seeded with its incumbent on the caller's accounting. Returns the
/// heuristic and, when the exact rung completed within budget, its
/// `(best, witness)`. Requires `0 < k` below the move count.
pub(crate) fn search_rungs<M: Model>(
    model: &M,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
    trace: &mut LadderTrace,
) -> (Verdict, Option<(u64, Vec<u32>)>) {
    let heuristic = local_search(model, k, config, scratch, trace);
    // One-thread restarts leave the caller's accounting bound (one index
    // build per evaluation, not two); fanned-out restarts never touch it.
    let rebind = config.parallelism.threads() > 1;
    let exact = exact_rung(
        model,
        scratch,
        rebind,
        k,
        config.exact_budget,
        heuristic.failed,
        config.parallelism,
    );
    (heuristic, exact)
}

/// The exact rung on `scratch`'s accounting — bound afresh when `rebind`,
/// otherwise the binding an earlier stage made: the serial DFS at one
/// thread, the frontier split across `parallelism` workers otherwise.
/// The root order comes from the caller's binding, so the split builds
/// one index per worker and none besides. Requires `k` below the move
/// count.
pub(crate) fn exact_rung<M: Model>(
    model: &M,
    scratch: &mut AdversaryScratch,
    rebind: bool,
    k: u16,
    budget: u64,
    incumbent: u64,
    parallelism: Parallelism,
) -> Option<(u64, Vec<u32>)> {
    let all = model.placement().num_objects() as u64;
    let (mut ms, _, ds) = model.bind(scratch, rebind);
    // k = 0 has no root frame to split, and at k = 1 the root frame is
    // the serial DFS's closed-form bottom level: one sweep in static
    // weight order, which a split (ordered by live gain) would resolve
    // to a different witness among tied moves.
    if parallelism.threads() == 1 || k <= 1 {
        return exact::run_dfs(&mut ms, ds, k, budget, incumbent, all);
    }
    if incumbent >= all || ms.failable(k) <= incumbent {
        return Some((incumbent, Vec::new()));
    }
    // The serial root frame expands children 0 ..= len − k of the
    // canonical root order; one task per child, each exploring that
    // child's whole subtree.
    let order = exact::root_order(&mut ms);
    let tasks = ms.len() - usize::from(k) + 1;
    let shared = SharedBound::new(incumbent);
    let results = fan_out(tasks, parallelism.threads(), Worker::default, |w, t| {
        let rebind = !std::mem::replace(&mut w.bound, true);
        let (mut ms, _, ds) = model.bind(&mut w.scratch, rebind);
        let shared = Some(&shared);
        exact::dfs_rooted(
            &mut ms,
            ds,
            &order,
            Some(t),
            k,
            budget,
            incumbent,
            all,
            shared,
        )
    });
    let mut best = (incumbent, Vec::new());
    for task in results {
        // Any subtree aborting on budget makes the whole search inexact.
        let (failed, ids) = task?;
        if failed > best.0 {
            best = (failed, ids);
        }
    }
    Some(best)
}

/// Exact worst case on `parallelism.threads()` workers: the serial DFS
/// at one thread, otherwise the root frame's children fan across the
/// workers, each searching its subtree with the full `budget` while
/// sharing the incumbent through a monotone `SharedBound` (see the
/// `pool` module's source).
///
/// Returns the same `(failed, witness)` as [`crate::exact_worst`] for
/// every thread count (see the module docs for the argument), or `None`
/// if any subtree exhausts its budget.
///
/// # Examples
///
/// ```
/// use wcp_adversary::{exact_worst, exact_worst_parallel};
/// use wcp_core::{Parallelism, Placement};
///
/// let p = Placement::new(5, 2, vec![vec![0, 1], vec![0, 2], vec![3, 4]])?;
/// let serial = exact_worst(&p, 1, 2, 1_000_000, 0).unwrap();
/// let par = exact_worst_parallel(&p, 1, 2, 1_000_000, 0, Parallelism::new(4)).unwrap();
/// assert_eq!(par, serial); // optimum AND witness
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
///
/// # Panics
///
/// Panics if `s = 0`.
#[must_use]
pub fn exact_worst_parallel(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
    parallelism: Parallelism,
) -> Option<WorstCase> {
    let model = NodeModel::new(placement, s);
    if k >= placement.num_nodes() {
        return Some(model.worst(model.all_moves()));
    }
    let mut scratch = AdversaryScratch::new();
    let (failed, ids) = exact_rung(
        &model,
        &mut scratch,
        true,
        k,
        budget,
        incumbent,
        parallelism,
    )?;
    Some(model.worst(Verdict {
        failed,
        ids,
        exact: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_worst, local_search_worst, Ladder};
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    fn threads(t: usize) -> AdversaryConfig {
        AdversaryConfig {
            parallelism: Parallelism::new(t),
            ..AdversaryConfig::default()
        }
    }

    #[test]
    fn exact_matches_serial_including_witness() {
        // b = 2,000 on 12 nodes puts the root pops on the copy side of
        // the path tables' restore rule; s = 4 exceeds r.
        for (n, b, seeds, threads) in [
            (14, 60, 0..3u64, &[1usize, 2, 3, 8][..]),
            (12, 2_000, 0..2, &[1, 2, 8]),
        ] {
            for seed in seeds {
                let p = random_placement(n, b, 3, seed);
                for (s, k) in [(1u16, 3u16), (2, 4), (2, 5), (3, 4), (4, 3)] {
                    let serial = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                    for &t in threads {
                        let par = exact_worst_parallel(&p, s, k, u64::MAX, 0, Parallelism::new(t))
                            .unwrap();
                        assert_eq!(
                            par, serial,
                            "n={n} b={b} seed={seed} s={s} k={k} threads={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_with_incumbent_confirms_without_witness() {
        let p = Placement::new(5, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let wc = exact_worst_parallel(&p, 2, 2, u64::MAX, 1, Parallelism::new(4)).unwrap();
        assert_eq!(wc.failed, 1);
        assert!(wc.nodes.is_empty() && wc.exact);
    }

    #[test]
    fn ladder_is_thread_count_invariant() {
        for seed in 0..3u64 {
            let p = random_placement(16, 80, 3, seed);
            for (s, k) in [(1u16, 2u16), (2, 4), (3, 5)] {
                let reference = Ladder::new(&threads(1)).run(&p, s, k).worst;
                for t in [2usize, 5, 8] {
                    let got = Ladder::new(&threads(t)).run(&p, s, k).worst;
                    assert_eq!(got, reference, "seed={seed} s={s} k={k} threads={t}");
                }
            }
        }
    }

    #[test]
    fn parallel_heuristic_never_beats_exact() {
        for seed in 0..3u64 {
            let p = random_placement(13, 50, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4)] {
                let exact = exact_worst(&p, s, k, u64::MAX, 0).unwrap();
                let ls = local_search_worst(&p, s, k, &threads(4));
                assert!(ls.failed <= exact.failed);
                assert_eq!(p.failed_objects(&ls.nodes, s), ls.failed, "witness");
            }
        }
    }

    #[test]
    fn degenerate_and_zero_k() {
        let p = random_placement(8, 20, 3, 1);
        let all = Ladder::new(&threads(4)).run(&p, 1, 8).worst;
        assert_eq!(all.failed, 20);
        assert!(all.exact);
        let none = Ladder::new(&threads(4)).run(&p, 1, 0).worst;
        assert_eq!((none.failed, none.exact), (0, true));
    }

    #[test]
    fn ties_break_to_the_smallest_witness() {
        assert!(rank(4, &[5u16, 6]) > rank(3, &[0, 1]));
        assert!(rank(3, &[0u16, 2]) > rank(3, &[1, 2]));
        assert!(rank(3, &[1u16, 2]) < rank(3, &[0, 2]));
    }
}

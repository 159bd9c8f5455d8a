//! The scalar reference ladder: the pre-kernel greedy, local-search and
//! exact-DFS adversaries running on [`FailureCounts`].
//!
//! These are the *oracle* implementations the word-parallel kernel is
//! differentially tested against (`tests/packed_differential.rs`) and
//! the baseline series recorded in `BENCH_adversary.json`. They are
//! deliberately kept decision-identical to the production ladder in
//! `search.rs`: same scan orders, same strict-improvement tie-breaking,
//! same restart schedule (per-restart RNG streams, every restart run,
//! ties to the smallest witness) — so the property suite can assert
//! full `WorstCase` equality, not just equal objective values.

use crate::counts::FailureCounts;
use crate::parallel::{rank, restart_rng};
use crate::{AdversaryConfig, AdversaryScratch, WorstCase};
use rand::seq::SliceRandom;
use wcp_core::Placement;

/// Scalar greedy adversary (see [`crate::greedy_worst`] for semantics).
#[must_use]
pub fn greedy_worst(placement: &Placement, s: u16, k: u16) -> WorstCase {
    greedy_worst_with(placement, s, k, &mut AdversaryScratch::new())
}

/// [`greedy_worst`] reusing the caller's scratch (scalar backend).
#[must_use]
pub fn greedy_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let fc = scratch.bind(placement, s);
    greedy_into(fc, placement, k)
}

/// Runs the greedy ascent into `fc` (must be bound to `placement` and
/// empty); leaves `fc` holding the chosen node set.
fn greedy_into(fc: &mut FailureCounts, placement: &Placement, k: u16) -> WorstCase {
    let n = placement.num_nodes();
    let loads = placement.cached_loads();
    for _ in 0..k.min(n) {
        let mut best_node = None;
        let mut best_key = (0u64, 0u32);
        for nd in 0..n {
            if fc.contains(nd) {
                continue;
            }
            let key = (fc.gain(nd), loads[usize::from(nd)]);
            if best_node.is_none() || key > best_key {
                best_key = key;
                best_node = Some(nd);
            }
        }
        fc.add_node(best_node.expect("k ≤ n leaves a choice"));
    }
    WorstCase {
        failed: fc.failed(),
        nodes: fc.nodes(),
        exact: false,
    }
}

/// Scalar local search (see [`crate::local_search_worst`]).
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
#[must_use]
pub fn local_search_worst_with(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> WorstCase {
    let n = placement.num_nodes();
    if k >= n {
        let nodes: Vec<u16> = (0..n).collect();
        let failed = placement.failed_objects(&nodes, s);
        return WorstCase {
            failed,
            nodes,
            exact: false,
        };
    }
    let b = placement.num_objects() as u64;
    let fc = scratch.bind(placement, s);
    let mut best = WorstCase {
        failed: 0,
        nodes: Vec::new(),
        exact: false,
    };
    for t in 0..config.restarts.max(1) as usize {
        if t == 0 {
            greedy_into(fc, placement, k);
        } else {
            fc.clear();
            let mut nodes: Vec<u16> = (0..n).collect();
            nodes.shuffle(&mut restart_rng(config.seed, t));
            for &nd in nodes.iter().take(usize::from(k)) {
                fc.add_node(nd);
            }
        }
        if config.restarts > 0 {
            climb(fc, n, config.max_steps, b);
        }
        let nodes = fc.nodes();
        if t == 0 || rank(fc.failed(), &nodes) > rank(best.failed, &best.nodes) {
            best.failed = fc.failed();
            best.nodes = nodes;
        }
    }
    best
}

/// Best-improvement swaps until a local optimum (or step cap) — the
/// `O(k·n·ℓ)`-per-step full re-scan the kernel's delta-maintained climb
/// replaces.
fn climb(fc: &mut FailureCounts, n: u16, max_steps: u32, all: u64) {
    for _ in 0..max_steps {
        if fc.failed() == all {
            return;
        }
        let current = fc.failed();
        let members = fc.nodes();
        let mut best: Option<(u16, u16, u64)> = None; // (out, in, value)
        for &out in &members {
            fc.remove_node(out);
            let base = fc.failed();
            for inn in 0..n {
                if fc.contains(inn) || inn == out {
                    continue;
                }
                let value = base + fc.gain(inn);
                if value > current && best.is_none_or(|(_, _, v)| value > v) {
                    best = Some((out, inn, value));
                }
            }
            fc.add_node(out);
        }
        match best {
            Some((out, inn, _)) => {
                fc.remove_node(out);
                fc.add_node(inn);
            }
            None => return,
        }
    }
}

/// Scalar exact DFS with the load-ordered children and the
/// `failable_within` bound only (no supply bound, no live re-sorting) —
/// see [`crate::exact_worst`].
#[must_use]
pub fn exact_worst(
    placement: &Placement,
    s: u16,
    k: u16,
    budget: u64,
    incumbent: u64,
) -> Option<WorstCase> {
    let n = placement.num_nodes();
    if k >= n {
        let nodes: Vec<u16> = (0..n).collect();
        let failed = placement.failed_objects(&nodes, s);
        return Some(WorstCase {
            failed,
            nodes,
            exact: true,
        });
    }
    let loads = placement.cached_loads();
    let mut order: Vec<u16> = (0..n).collect();
    order.sort_by_key(|&nd| std::cmp::Reverse(loads[usize::from(nd)]));

    let mut fc = FailureCounts::new(placement, s);
    let b = placement.num_objects() as u64;
    let mut search = Search {
        fc: &mut fc,
        order: &order,
        k,
        best: incumbent,
        best_nodes: Vec::new(),
        expansions: 0,
        budget,
        all_objects: b,
    };
    if search.dfs(0, 0) {
        let (best, best_nodes) = (search.best, search.best_nodes);
        Some(WorstCase {
            failed: best,
            nodes: best_nodes,
            exact: true,
        })
    } else {
        None
    }
}

struct Search<'a> {
    fc: &'a mut FailureCounts,
    order: &'a [u16],
    k: u16,
    best: u64,
    best_nodes: Vec<u16>,
    expansions: u64,
    budget: u64,
    all_objects: u64,
}

impl Search<'_> {
    /// Returns `false` on budget exhaustion.
    fn dfs(&mut self, from: usize, depth: u16) -> bool {
        if depth == self.k {
            if self.fc.failed() > self.best {
                self.best = self.fc.failed();
                self.best_nodes = self.fc.nodes();
            }
            return true;
        }
        let remaining = self.k - depth;
        let bound = self.fc.failed() + self.fc.failable_within(remaining);
        if bound <= self.best || self.best >= self.all_objects {
            return true;
        }
        let last = self.order.len() - usize::from(remaining) + 1;
        for pos in from..last {
            self.expansions += 1;
            if self.expansions > self.budget {
                return false;
            }
            let nd = self.order[pos];
            self.fc.add_node(nd);
            let ok = self.dfs(pos + 1, depth + 1);
            self.fc.remove_node(nd);
            if !ok {
                return false;
            }
        }
        true
    }
}

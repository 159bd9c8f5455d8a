//! Compressed histogram backend for the million-object regime.
//!
//! At catalog scale the per-object state of [`crate::PackedCounts`]
//! stops paying for itself in the heuristic rungs: a greedy or swap
//! step only ever needs *aggregate* quantities — gains, losses and swap
//! corrections — and objects sharing a replica set contribute to all of
//! them identically. This backend collapses every group of objects with
//! the same replica set into one **weighted class** (at `n = 71, r = 3`
//! there are at most `C(71, 3) = 57 155` classes no matter whether `b`
//! is `10³` or `10⁷`), then runs per-(node, load-class) counts: hits,
//! the sub-threshold histogram and the maintained gain table all live
//! per class, weighted by class size.
//!
//! Decision-making is *identical* to the packed ladder (same scan
//! orders, same strict-improvement tie-breaks, same restart schedule): a
//! node's gain is the weighted sum of its classes at `hits = s − 1`,
//! which equals the packed popcount over objects bit for bit, so the
//! greedy and local-search rungs return the same [`WorstCase`] — and
//! record the same [`LadderTrace`] — from either backend. The
//! differential suite pins this against both [`crate::PackedCounts`]
//! and the scalar [`crate::FailureCounts`] oracle.
//!
//! The restart schedule in [`crate::parallel`] runs its heuristic rungs
//! here when `b` reaches [`crate::AdversaryConfig::hist_threshold`];
//! the exact rung always falls back to the packed planes (its
//! branch-and-bound needs the per-object masks for admissible bounds
//! and witnesses).

use crate::WorstCase;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use wcp_core::Placement;

/// Weighted-class failure accounting: the histogram backend's analogue
/// of [`crate::PackedCounts`], with `O(classes)` state instead of
/// `O(b)` bitmap words and `O(row classes · r)` update cost.
#[derive(Debug, Default, Clone)]
pub(crate) struct HistogramCounts {
    s: u16,
    r: u16,
    n: u16,
    /// Total object count (the weights sum to it).
    b: u64,
    /// Objects per class.
    weight: Vec<u64>,
    /// Failed replicas per class.
    hits: Vec<u16>,
    /// Host nodes per class (flat, stride `r`, each slice sorted).
    class_nodes: Vec<u16>,
    /// CSR inverted index node → classes: offsets (`n + 1`) + flat ids.
    csr_off: Vec<u32>,
    csr_cls: Vec<u32>,
    /// Objects per node (weighted class sum — equals the placement
    /// load, the greedy tie-break key).
    loads: Vec<u32>,
    /// Weighted count of failed objects (`hits ≥ s`).
    failed: u64,
    /// `hist[j]` = weighted count of classes with `hits = j < s`.
    hist: Vec<u64>,
    /// Failed-node membership.
    in_set: Vec<bool>,
    /// Maintained gain table: `gains[nd]` = weighted count of `nd`'s
    /// classes at `hits = s − 1` — the histogram twin of the packed
    /// ladder's delta-maintained [`crate::search::ClimbScratch`] gains.
    gains: Vec<i64>,
    /// Reusable sort buffer for class construction: the object ids in
    /// class order.
    sort_idx: Vec<u32>,
    /// The radix passes' scatter target (the two swap roles per pass).
    radix_idx: Vec<u32>,
}

impl HistogramCounts {
    /// Rebinds to another placement/threshold, reusing every
    /// allocation. Classes are formed by sorting object ids by replica
    /// set and merging adjacent equals — deterministic, no hashing. The
    /// sort is a stable radix sort ([`sort_by_rows`], `O(r·(b + n))`),
    /// not a comparison sort; it yields the same lexicographic class
    /// order, so class ids and every later decision are unchanged.
    pub(crate) fn rebind(&mut self, placement: &Placement, s: u16) {
        let n = placement.num_nodes();
        let b = placement.num_objects();
        let r = placement.replicas_per_object();
        self.s = s;
        self.r = r;
        self.n = n;
        self.b = b as u64;
        let stride = usize::from(r);
        let mut sort_idx = std::mem::take(&mut self.sort_idx);
        // The CSR offsets are rebuilt below; until then they serve as
        // the radix passes' bucket counts.
        sort_by_rows(
            placement,
            &mut sort_idx,
            &mut self.radix_idx,
            &mut self.csr_off,
        );
        self.weight.clear();
        self.class_nodes.clear();
        for &obj in &sort_idx {
            let set = placement.replicas(obj as usize);
            let len = self.class_nodes.len();
            let same = len >= stride
                && self
                    .class_nodes
                    .get(len - stride..)
                    .is_some_and(|last| last == set);
            if same {
                if let Some(w) = self.weight.last_mut() {
                    *w += 1;
                }
            } else {
                self.weight.push(1);
                self.class_nodes.extend_from_slice(set);
            }
        }
        self.sort_idx = sort_idx;
        let classes = self.weight.len();
        self.hits.clear();
        self.hits.resize(classes, 0);
        let Self {
            class_nodes,
            csr_off,
            csr_cls,
            weight,
            loads,
            ..
        } = self;
        csr_off.clear();
        csr_off.resize(usize::from(n) + 1, 0);
        loads.clear();
        loads.resize(usize::from(n), 0);
        for (c, hosts) in class_nodes.chunks_exact(stride).enumerate() {
            let w = weight.get(c).copied().unwrap_or(0) as u32;
            for &nd in hosts {
                if let Some(count) = csr_off.get_mut(usize::from(nd) + 1) {
                    *count += 1;
                }
                if let Some(load) = loads.get_mut(usize::from(nd)) {
                    *load += w;
                }
            }
        }
        let mut acc = 0u32;
        for slot in csr_off.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
        csr_cls.clear();
        csr_cls.resize(csr_off.last().copied().unwrap_or(0) as usize, 0);
        // Cursor fill: classes are visited ascending, so rows come out
        // sorted (same invariant as the packed CSR).
        for (c, hosts) in class_nodes.chunks_exact(stride).enumerate() {
            for &nd in hosts {
                if let Some(cursor) = csr_off.get_mut(usize::from(nd)) {
                    let at = *cursor as usize;
                    *cursor += 1;
                    if let Some(slot) = csr_cls.get_mut(at) {
                        *slot = c as u32;
                    }
                }
            }
        }
        let mut prev = 0u32;
        for slot in csr_off.iter_mut() {
            prev = std::mem::replace(slot, prev);
        }
        self.in_set.clear();
        self.in_set.resize(usize::from(n), false);
        self.hist.clear();
        self.hist.resize(usize::from(s), 0);
        self.failed = 0;
        if let Some(first) = self.hist.first_mut() {
            *first = self.b;
        }
        self.reset_gains();
    }

    /// Empties the failed set (`O(classes + n)`).
    pub(crate) fn clear(&mut self) {
        self.hits.fill(0);
        self.in_set.fill(false);
        self.failed = 0;
        self.hist.fill(0);
        if let Some(first) = self.hist.first_mut() {
            *first = self.b;
        }
        self.reset_gains();
    }

    /// (Re)derives the gain table for an empty failed set: at `s = 1`
    /// every class sits one hit from failing, so a node's gain is its
    /// load; otherwise zero — mirroring the packed `reset_gains`.
    fn reset_gains(&mut self) {
        self.gains.clear();
        if self.s == 1 {
            self.gains.extend(self.loads.iter().map(|&l| i64::from(l)));
        } else {
            self.gains.resize(usize::from(self.n), 0);
        }
    }

    /// Weighted count of failed objects.
    pub(crate) fn failed(&self) -> u64 {
        self.failed
    }

    /// Number of distinct replica-set classes (the compression ratio's
    /// denominator — bounded by `C(n, r)` independent of `b`).
    #[cfg(test)]
    pub(crate) fn num_classes(&self) -> usize {
        self.weight.len()
    }

    pub(crate) fn num_nodes(&self) -> u16 {
        self.n
    }

    pub(crate) fn contains(&self, node: u16) -> bool {
        self.in_set.get(usize::from(node)).copied().unwrap_or(false)
    }

    /// Objects on `node` (weighted, equals the placement load).
    pub(crate) fn load(&self, node: u16) -> u32 {
        self.loads.get(usize::from(node)).copied().unwrap_or(0)
    }

    /// Maintained gain: weighted objects that would newly fail if
    /// `node` were added (`O(1)` — the table rides along every update).
    pub(crate) fn gain(&self, node: u16) -> u64 {
        self.gain_i64(node).max(0) as u64
    }

    fn gain_i64(&self, node: u16) -> i64 {
        self.gains.get(usize::from(node)).copied().unwrap_or(0)
    }

    /// The current failed-node set (sorted ascending).
    pub(crate) fn nodes(&self) -> Vec<u16> {
        self.in_set
            .iter()
            .enumerate()
            .filter_map(|(i, &inside)| inside.then_some(i as u16))
            .collect()
    }

    /// [`HistogramCounts::nodes`] into a reusable buffer.
    fn collect_nodes(&self, out: &mut Vec<u16>) {
        out.clear();
        out.extend(
            self.in_set
                .iter()
                .enumerate()
                .filter_map(|(i, &inside)| inside.then_some(i as u16)),
        );
    }

    /// The node's CSR row of class ids (ascending).
    fn row_classes(&self, node: u16) -> &[u32] {
        let i = usize::from(node);
        let lo = self.csr_off.get(i).copied().unwrap_or(0) as usize;
        let hi = self.csr_off.get(i + 1).copied().unwrap_or(0) as usize;
        self.csr_cls.get(lo..hi).unwrap_or(&[])
    }

    /// Marks `node` failed, keeping histogram, failed count and gain
    /// table live: a class leaves the gain set when it crosses from
    /// `s − 1` to `s` hits and enters it when it reaches `s − 1`, each
    /// transition adjusting the gains of *all* its hosts by `±weight` —
    /// exactly what the packed ladder's `fold_eq_flips` does per object.
    pub(crate) fn add_node(&mut self, node: u16) {
        debug_assert!(!self.contains(node), "node already failed");
        let Self {
            s,
            r,
            hits,
            weight,
            class_nodes,
            csr_off,
            csr_cls,
            gains,
            hist,
            in_set,
            failed,
            ..
        } = self;
        let s = usize::from(*s);
        let stride = usize::from(*r);
        if let Some(slot) = in_set.get_mut(usize::from(node)) {
            *slot = true;
        }
        let i = usize::from(node);
        let lo = csr_off.get(i).copied().unwrap_or(0) as usize;
        let hi = csr_off.get(i + 1).copied().unwrap_or(0) as usize;
        let row: &[u32] = csr_cls.get(lo..hi).unwrap_or(&[]);
        for &c in row {
            let c = c as usize;
            let w = weight.get(c).copied().unwrap_or(0);
            let Some(h_slot) = hits.get_mut(c) else {
                continue;
            };
            let h = usize::from(*h_slot);
            *h_slot += 1;
            if h < s {
                if let Some(bucket) = hist.get_mut(h) {
                    *bucket -= w;
                }
                if h + 1 < s {
                    if let Some(bucket) = hist.get_mut(h + 1) {
                        *bucket += w;
                    }
                } else {
                    *failed += w;
                }
            }
            let d: i64 = if h + 1 == s {
                -(w as i64) // left the gain set (now at s hits)
            } else if h + 2 == s {
                w as i64 // entered the gain set (now at s − 1 hits)
            } else {
                continue;
            };
            let hosts = class_nodes.get(c * stride..(c + 1) * stride).unwrap_or(&[]);
            for &nd2 in hosts {
                if let Some(g) = gains.get_mut(usize::from(nd2)) {
                    *g += d;
                }
            }
        }
    }

    /// Unmarks `node` (the exact inverse of [`HistogramCounts::add_node`]).
    pub(crate) fn remove_node(&mut self, node: u16) {
        debug_assert!(self.contains(node), "node not failed");
        let Self {
            s,
            r,
            hits,
            weight,
            class_nodes,
            csr_off,
            csr_cls,
            gains,
            hist,
            in_set,
            failed,
            ..
        } = self;
        let s = usize::from(*s);
        let stride = usize::from(*r);
        if let Some(slot) = in_set.get_mut(usize::from(node)) {
            *slot = false;
        }
        let i = usize::from(node);
        let lo = csr_off.get(i).copied().unwrap_or(0) as usize;
        let hi = csr_off.get(i + 1).copied().unwrap_or(0) as usize;
        let row: &[u32] = csr_cls.get(lo..hi).unwrap_or(&[]);
        for &c in row {
            let c = c as usize;
            let w = weight.get(c).copied().unwrap_or(0);
            let Some(h_slot) = hits.get_mut(c) else {
                continue;
            };
            *h_slot -= 1;
            let h = usize::from(*h_slot);
            if h < s {
                if h + 1 < s {
                    if let Some(bucket) = hist.get_mut(h + 1) {
                        *bucket -= w;
                    }
                } else {
                    *failed -= w;
                }
                if let Some(bucket) = hist.get_mut(h) {
                    *bucket += w;
                }
            }
            let d: i64 = if h + 1 == s {
                w as i64 // re-entered the gain set (back to s − 1 hits)
            } else if h + 2 == s {
                -(w as i64) // left the gain set (down to s − 2 hits)
            } else {
                continue;
            };
            let hosts = class_nodes.get(c * stride..(c + 1) * stride).unwrap_or(&[]);
            for &nd2 in hosts {
                if let Some(g) = gains.get_mut(usize::from(nd2)) {
                    *g += d;
                }
            }
        }
    }

    /// One walk of `out`'s class row computing the removal loss
    /// (weighted classes at exactly `s` hits) while accumulating the
    /// per-candidate swap corrections into `delta`: a class at `s` hits
    /// re-enters the gain set when `out` leaves (`+weight` to its
    /// hosts), a class at `s − 1` hits drops out of it (`−weight`) —
    /// the weighted mirror of the packed climb's two sparse bit-walks.
    fn fold_out_deltas(&self, out: u16, delta: &mut [i64]) -> u64 {
        let s = usize::from(self.s);
        let stride = usize::from(self.r);
        let mut loss = 0u64;
        for &c in self.row_classes(out) {
            let c = c as usize;
            let h = usize::from(self.hits.get(c).copied().unwrap_or(0));
            let w = self.weight.get(c).copied().unwrap_or(0);
            let d: i64 = if h == s {
                loss += w;
                w as i64
            } else if h + 1 == s {
                -(w as i64)
            } else {
                continue;
            };
            let hosts = self
                .class_nodes
                .get(c * stride..(c + 1) * stride)
                .unwrap_or(&[]);
            for &nd2 in hosts {
                if let Some(slot) = delta.get_mut(usize::from(nd2)) {
                    *slot += d;
                }
            }
        }
        loss
    }
}

/// Sorts object ids by replica set, lexicographically, into `ids`: a
/// stable LSD counting sort with one pass per row column, last column
/// first, each pass `O(b + n)` (`spare` is the scatter target, `counts`
/// the per-node buckets). Stability makes the passes compose into the
/// lexicographic order, with equal sets left in id order.
fn sort_by_rows(
    placement: &Placement,
    ids: &mut Vec<u32>,
    spare: &mut Vec<u32>,
    counts: &mut Vec<u32>,
) {
    let b = placement.num_objects();
    let n = usize::from(placement.num_nodes());
    ids.clear();
    ids.extend(0..b as u32);
    spare.clear();
    spare.resize(b, 0);
    let key = |obj: u32, col: usize| {
        placement
            .row(obj as usize)
            .and_then(|set| set.get(col))
            .map_or(0, |&nd| usize::from(nd))
    };
    for col in (0..usize::from(placement.replicas_per_object())).rev() {
        counts.clear();
        counts.resize(n + 1, 0);
        for &obj in ids.iter() {
            if let Some(count) = counts.get_mut(key(obj, col) + 1) {
                *count += 1;
            }
        }
        // Prefix sums: `counts[nd]` becomes bucket `nd`'s first slot.
        let mut acc = 0u32;
        for slot in counts.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
        for &obj in ids.iter() {
            if let Some(at) = counts.get_mut(key(obj, col)) {
                if let Some(slot) = spare.get_mut(*at as usize) {
                    *slot = obj;
                }
                *at += 1;
            }
        }
        std::mem::swap(ids, spare);
    }
}

/// Reusable side buffers for the histogram ladder (the gain table lives
/// inside [`HistogramCounts`] itself, maintained across every update).
#[derive(Debug, Default)]
pub(crate) struct HistClimbScratch {
    /// Per-`out` swap corrections, bulk-zeroed per candidate.
    delta: Vec<i64>,
    /// Members buffer for the climb's swap scan.
    members: Vec<u16>,
    /// Shuffle buffer for random restarts.
    perm: Vec<u16>,
}

/// Greedy ascent on the histogram backend — decision-identical to
/// [`crate::search`]'s `greedy_into`: same ascending candidate scan,
/// same `(gain, load)` key, same strict-improvement tie-break.
pub(crate) fn greedy_hist_into(hc: &mut HistogramCounts, k: u16) -> WorstCase {
    let n = hc.num_nodes();
    for _ in 0..k.min(n) {
        let mut best_node = None;
        let mut best_key = (0u64, 0u32);
        for nd in 0..n {
            if hc.contains(nd) {
                continue;
            }
            let key = (hc.gain(nd), hc.load(nd));
            if best_node.is_none() || key > best_key {
                best_key = key;
                best_node = Some(nd);
            }
        }
        let Some(nd) = best_node else {
            break; // unreachable for k ≤ n, but a stop beats a panic
        };
        hc.add_node(nd);
    }
    WorstCase {
        failed: hc.failed(),
        nodes: hc.nodes(),
        exact: false,
    }
}

/// Seeds a random `k`-set into an *empty* backend, consuming the RNG
/// stream exactly like the packed `seed_random_set` (one shuffle of the
/// same-length permutation), so restart trajectories agree.
pub(crate) fn seed_random_hist(
    hc: &mut HistogramCounts,
    hs: &mut HistClimbScratch,
    k: u16,
    rng: &mut StdRng,
) {
    hs.perm.clear();
    hs.perm.extend(0..hc.num_nodes());
    hs.perm.shuffle(rng);
    for i in 0..usize::from(k) {
        let Some(&nd) = hs.perm.get(i) else {
            break;
        };
        hc.add_node(nd);
    }
}

/// Best-improvement swap climb on the histogram backend, mirroring the
/// packed [`crate::search`] `climb` decision for decision: per member
/// `out`, one row walk yields the loss and all candidate corrections,
/// then the ascending candidate scan keeps the best strictly improving
/// `(out, in, value)` across all `out`s.
pub(crate) fn climb_hist(
    hc: &mut HistogramCounts,
    hs: &mut HistClimbScratch,
    max_steps: u32,
    all: u64,
) {
    let n = usize::from(hc.num_nodes());
    hs.delta.clear();
    hs.delta.resize(n, 0);
    for _ in 0..max_steps {
        let current = hc.failed();
        if current == all {
            return;
        }
        hc.collect_nodes(&mut hs.members);
        let mut best: Option<(u16, u16, u64)> = None;
        for idx in 0..hs.members.len() {
            let Some(&out) = hs.members.get(idx) else {
                break;
            };
            let loss = hc.fold_out_deltas(out, &mut hs.delta);
            let base_i = (current - loss) as i64;
            let current_i = current as i64;
            let mut best_value = best.map_or(current_i, |(_, _, v)| v as i64);
            for (inn, &d) in hs.delta.iter().enumerate() {
                let inn = inn as u16;
                if hc.contains(inn) {
                    continue;
                }
                let value = base_i + hc.gain_i64(inn) + d;
                if value > current_i && value > best_value {
                    best_value = value;
                    best = Some((out, inn, value as u64));
                }
            }
            hs.delta.fill(0);
        }
        let Some((out, inn, value)) = best else {
            return; // local optimum
        };
        hc.remove_node(out);
        hc.add_node(inn);
        debug_assert_eq!(hc.failed(), value, "histogram swap value drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::LadderTrace;
    use crate::{AdversaryConfig, AdversaryScratch, FailureCounts};
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    /// Classes formed the way `rebind` formed them before the radix
    /// sort: comparison-sort the ids by row, merge adjacent equals.
    fn comparison_sort_classes(p: &Placement) -> (Vec<u64>, Vec<u16>) {
        let mut ids: Vec<usize> = (0..p.num_objects()).collect();
        ids.sort_unstable_by(|&x, &y| p.replicas(x).cmp(p.replicas(y)));
        let mut weight: Vec<u64> = Vec::new();
        let mut rows: Vec<&[u16]> = Vec::new();
        for obj in ids {
            let set = p.replicas(obj);
            if rows.last() == Some(&set) {
                *weight.last_mut().unwrap() += 1;
            } else {
                weight.push(1);
                rows.push(set);
            }
        }
        (weight, rows.concat())
    }

    /// The radix classes — weights, host rows and the node → class CSR
    /// — equal the comparison-sort reference's.
    fn assert_classes_match_reference(p: &Placement) {
        let shape = (p.num_nodes(), p.num_objects(), p.replicas_per_object());
        let (weight, class_nodes) = comparison_sort_classes(p);
        let mut hc = HistogramCounts::default();
        hc.rebind(p, 1);
        assert_eq!(hc.weight, weight, "weights {shape:?}");
        assert_eq!(hc.class_nodes, class_nodes, "class rows {shape:?}");
        let stride = usize::from(p.replicas_per_object());
        for nd in 0..p.num_nodes() {
            let expected: Vec<u32> = class_nodes
                .chunks_exact(stride)
                .enumerate()
                .filter(|(_, hosts)| hosts.contains(&nd))
                .map(|(c, _)| c as u32)
                .collect();
            assert_eq!(hc.row_classes(nd), expected, "CSR row {nd} {shape:?}");
        }
    }

    #[test]
    fn radix_classes_match_comparison_sort() {
        let uniform = |n: u16, b: u64, r: u16, seed: u64| {
            let params = SystemParams::new(n, b, r, 1, 1).unwrap();
            RandomStrategy::new(seed, RandomVariant::Unconstrained)
                .place(&params)
                .unwrap()
        };
        let shapes = [
            random_placement(8, 400, 1, 0),    // r = 1, heavy duplication
            random_placement(8, 400, 2, 3),    // few classes, large weights
            random_placement(12, 700, 6, 5),   // r = 6
            random_placement(300, 2000, 3, 7), // node ids past one byte
            uniform(300, 1500, 6, 9),          // r = 6, n = 300
            uniform(71, 3000, 3, 11),          // mostly singleton classes
            random_placement(5, 1, 2, 1),      // b = 1
            Placement::new(300, 3, vec![vec![3, 17, 299]; 500]).unwrap(), // one row
            Placement::new(9, 1, vec![vec![8]; 3]).unwrap(),
        ];
        for p in &shapes {
            assert_classes_match_reference(p);
        }
        // Rebinding one backend across shapes leaves nothing behind.
        let mut hc = HistogramCounts::default();
        for p in shapes.iter().rev() {
            hc.rebind(p, 1);
            let (weight, class_nodes) = comparison_sort_classes(p);
            assert_eq!(hc.weight, weight);
            assert_eq!(hc.class_nodes, class_nodes);
        }
    }

    #[test]
    fn classes_compress_and_weights_sum() {
        // 400 objects on 8 nodes with r = 2: at most C(8,2) = 28 classes.
        let p = random_placement(8, 400, 2, 3);
        let mut hc = HistogramCounts::default();
        hc.rebind(&p, 1);
        assert!(hc.num_classes() <= 28, "classes = {}", hc.num_classes());
        assert_eq!(hc.weight.iter().sum::<u64>(), 400);
        let loads = p.cached_loads();
        for nd in 0..8u16 {
            assert_eq!(hc.load(nd), loads[usize::from(nd)], "load({nd})");
        }
    }

    #[test]
    fn histogram_mirrors_scalar_on_every_walk() {
        for seed in 0..3u64 {
            let p = random_placement(12, 200, 3, seed);
            for s in 1..=3u16 {
                let mut fc = FailureCounts::new(&p, s);
                let mut hc = HistogramCounts::default();
                hc.rebind(&p, s);
                for nd in 0..12u16 {
                    fc.add_node(nd);
                    hc.add_node(nd);
                    assert_eq!(hc.failed(), fc.failed(), "s={s} add {nd}");
                    assert_eq!(hc.nodes(), fc.nodes(), "s={s} add {nd}");
                    for cand in 0..12u16 {
                        if !fc.contains(cand) {
                            assert_eq!(hc.gain(cand), fc.gain(cand), "s={s} gain({cand})");
                        }
                    }
                }
                for nd in (0..12u16).rev() {
                    fc.remove_node(nd);
                    hc.remove_node(nd);
                    assert_eq!(hc.failed(), fc.failed(), "s={s} remove {nd}");
                    for cand in 0..12u16 {
                        if !fc.contains(cand) {
                            assert_eq!(hc.gain(cand), fc.gain(cand), "s={s} gain({cand})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clear_and_rebind_reset_everything() {
        let p = random_placement(10, 120, 3, 1);
        let mut hc = HistogramCounts::default();
        hc.rebind(&p, 2);
        hc.add_node(0);
        hc.add_node(3);
        hc.clear();
        assert_eq!(hc.failed(), 0);
        assert_eq!(hc.nodes(), Vec::<u16>::new());
        let fresh_gain: Vec<u64> = (0..10).map(|nd| hc.gain(nd)).collect();
        let q = random_placement(9, 90, 2, 2);
        hc.rebind(&q, 1);
        let mut fc = FailureCounts::new(&q, 1);
        hc.add_node(4);
        fc.add_node(4);
        assert_eq!(hc.failed(), fc.failed());
        // Rebind back: gains must match the fresh table again.
        hc.rebind(&p, 2);
        let again: Vec<u64> = (0..10).map(|nd| hc.gain(nd)).collect();
        assert_eq!(fresh_gain, again);
    }

    #[test]
    fn hist_ladder_matches_packed_ladder() {
        // Force both backends on the same shapes: traces and results
        // must be identical, witness included.
        let cfg_hist = AdversaryConfig {
            hist_threshold: 0,
            ..AdversaryConfig::default()
        };
        let cfg_packed = AdversaryConfig {
            hist_threshold: u64::MAX,
            ..AdversaryConfig::default()
        };
        for seed in 0..4u64 {
            let p = random_placement(22, 150, 3, seed);
            for (s, k) in [(1u16, 3u16), (2, 4), (3, 5)] {
                let mut tr_h = LadderTrace::default();
                let mut tr_p = LadderTrace::default();
                let h = crate::parallel::local_search(
                    &p,
                    s,
                    k,
                    &cfg_hist,
                    &mut AdversaryScratch::new(),
                    &mut tr_h,
                );
                let pk = crate::parallel::local_search(
                    &p,
                    s,
                    k,
                    &cfg_packed,
                    &mut AdversaryScratch::new(),
                    &mut tr_p,
                );
                assert_eq!(h, pk, "seed={seed} s={s} k={k}");
                assert_eq!(
                    tr_h.greedy, tr_p.greedy,
                    "greedy trace seed={seed} s={s} k={k}"
                );
                assert_eq!(
                    tr_h.restarts, tr_p.restarts,
                    "restart trace seed={seed} s={s} k={k}"
                );
            }
        }
    }
}

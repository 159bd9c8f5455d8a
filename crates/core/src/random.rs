//! Random replica placement (Definition 4) and the unconstrained variant
//! `Random′` from the proof of Theorem 2.
//!
//! `Random` draws a placement that puts at most `⌈ℓ⌉ = ⌈rb/n⌉` replicas on
//! any node. Sampling exactly uniformly over that set is intractable; as
//! in prior empirical work we sample objects sequentially, choosing each
//! object's `r` distinct nodes weighted by remaining node capacity, and
//! restart on the (rare) dead ends. `Random′` drops the load cap — each
//! object picks `r` distinct nodes uniformly — which is the process
//! Theorem 2 analyzes (the two coincide as `ℓ → ∞`).
//!
//! The capped draw keeps the per-node weights in a Fenwick tree, so an
//! object costs `O(r log n)` rather than two `O(n)` scans per replica:
//! each replica takes one ticket in `0..total` and descends the tree to
//! the node whose prefix-sum interval holds it — the node a linear scan
//! would pick — so placements depend only on the seed, never on the
//! data structure.

use crate::{Placement, PlacementError, SystemParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which sampling process to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomVariant {
    /// Definition 4 with capacity-weighted sampling: at most `⌈rb/n⌉`
    /// replicas per node, nodes drawn proportionally to remaining
    /// capacity (keeps the placement close to uniform over the capped
    /// set).
    LoadBalanced,
    /// Definition 4 with *unweighted* sequential sampling: each replica
    /// picks uniformly among nodes with remaining capacity. Near the end
    /// of a tight placement the few nodes with spare capacity attract all
    /// remaining objects, creating correlated hot spots — an artifact the
    /// paper's Fig. 7 error curves exhibit, so its reproduction offers
    /// this variant.
    SequentialUniform,
    /// `Random′` of Theorem 2: no load cap.
    Unconstrained,
}

impl RandomVariant {
    /// The variant's display name, shared by
    /// [`crate::PlacementStrategy::name`] and
    /// [`crate::StrategyKind::label`] so the two can never drift apart.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RandomVariant::LoadBalanced => "random(load-balanced)",
            RandomVariant::SequentialUniform => "random(sequential-uniform)",
            RandomVariant::Unconstrained => "random(unconstrained)",
        }
    }
}

/// One attempt at a load-capped draw (see
/// [`RandomStrategy::try_place_balanced`]).
type CappedAttempt = fn(
    &RandomStrategy,
    &SystemParams,
    bool,
    &mut StdRng,
) -> Result<Option<Placement>, PlacementError>;

/// A seeded random placement strategy.
///
/// # Examples
///
/// ```
/// use wcp_core::{RandomStrategy, RandomVariant, SystemParams};
///
/// let params = SystemParams::new(71, 600, 3, 2, 3)?;
/// let placement = RandomStrategy::new(7, RandomVariant::LoadBalanced).place(&params)?;
/// assert_eq!(placement.num_objects(), 600);
/// // Load cap: ⌈3·600/71⌉ = 26.
/// assert!(placement.max_load() <= 26);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomStrategy {
    seed: u64,
    variant: RandomVariant,
}

impl RandomStrategy {
    /// Creates a strategy with the given RNG seed (placements are
    /// deterministic given seed and parameters).
    #[must_use]
    pub fn new(seed: u64, variant: RandomVariant) -> Self {
        Self { seed, variant }
    }

    /// The load cap `⌈rb/n⌉` of Definition 4 for these parameters.
    #[must_use]
    pub fn load_cap(params: &SystemParams) -> u32 {
        let total = u64::from(params.r()) * params.b();
        u32::try_from(total.div_ceil(u64::from(params.n()))).expect("load cap fits u32")
    }

    /// Draws a placement.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] only for degenerate inputs that
    /// [`SystemParams`] already rejects; sampling itself cannot fail (the
    /// load-balanced variant restarts on dead ends, and a deterministic
    /// round-robin fallback guarantees termination).
    pub fn place(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        self.place_by(params, Self::try_place_balanced)
    }

    /// [`RandomStrategy::place`] with the capped variants' single attempt
    /// supplied by the caller (the tests pass the linear-scan reference).
    fn place_by(
        &self,
        params: &SystemParams,
        attempt: CappedAttempt,
    ) -> Result<Placement, PlacementError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.variant {
            RandomVariant::Unconstrained => self.place_unconstrained(params, &mut rng),
            RandomVariant::LoadBalanced | RandomVariant::SequentialUniform => {
                let weighted = self.variant == RandomVariant::LoadBalanced;
                for _attempt in 0..100 {
                    if let Some(p) = attempt(self, params, weighted, &mut rng)? {
                        return Ok(p);
                    }
                }
                // Deterministic fallback: round-robin satisfies the cap.
                let b = usize::try_from(params.b()).expect("b fits usize");
                let n = usize::from(params.n());
                let r = usize::from(params.r());
                let mut rows: Vec<u16> = (0..b * r).map(|i| (i % n) as u16).collect();
                for set in rows.chunks_exact_mut(r) {
                    set.sort_unstable();
                }
                Placement::from_rows(params.n(), params.r(), rows)
            }
        }
    }

    fn place_unconstrained(
        &self,
        params: &SystemParams,
        rng: &mut StdRng,
    ) -> Result<Placement, PlacementError> {
        let b = usize::try_from(params.b()).expect("b fits usize");
        let n = params.n();
        let r = usize::from(params.r());
        let mut rows = Vec::with_capacity(b * r);
        let mut set: Vec<u16> = Vec::with_capacity(r);
        for _ in 0..b {
            set.clear();
            while set.len() < r {
                let nd = rng.gen_range(0..n);
                if !set.contains(&nd) {
                    set.push(nd);
                }
            }
            set.sort_unstable();
            rows.extend_from_slice(&set);
        }
        Placement::from_rows(n, params.r(), rows)
    }

    /// One attempt at a load-capped draw; `None` on a dead end (fewer
    /// than `r` nodes still have capacity). `weighted` selects
    /// capacity-proportional vs uniform-among-eligible node choice.
    ///
    /// A drawn node's weight is zeroed for the object's remaining
    /// replicas (distinctness) and restored from its decremented
    /// capacity once the object is placed.
    fn try_place_balanced(
        &self,
        params: &SystemParams,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Option<Placement>, PlacementError> {
        let b = usize::try_from(params.b()).expect("b fits usize");
        let r = usize::from(params.r());
        let cap = Self::load_cap(params);
        let weight_of = |c: u32| -> u64 {
            if weighted {
                u64::from(c)
            } else {
                u64::from(c > 0)
            }
        };
        let mut remaining = vec![cap; usize::from(params.n())];
        let mut tree = Fenwick::new(remaining.iter().map(|&c| weight_of(c)));
        let mut rows = Vec::with_capacity(b * r);
        let mut set: Vec<u16> = Vec::with_capacity(r);
        for _ in 0..b {
            set.clear();
            for _ in 0..r {
                let total = tree.total();
                if total == 0 {
                    return Ok(None);
                }
                let nd = tree.find(rng.gen_range(0..total));
                tree.set(nd, 0);
                set.push(nd as u16);
            }
            for &nd in &set {
                let nd = usize::from(nd);
                if let Some(c) = remaining.get_mut(nd) {
                    *c -= 1;
                    tree.set(nd, weight_of(*c));
                }
            }
            set.sort_unstable();
            rows.extend_from_slice(&set);
        }
        Ok(Some(Placement::from_rows(params.n(), params.r(), rows)?))
    }
}

/// A Fenwick (binary indexed) tree over per-node draw weights: `O(log n)`
/// point updates and an `O(log n)` descent from a ticket to its node.
#[derive(Debug)]
struct Fenwick {
    /// The current weight of each node.
    weights: Vec<u64>,
    /// One-based partial sums: `tree[i]` covers nodes `i − lowbit(i)..i`.
    tree: Vec<u64>,
    /// The sum of every weight.
    total: u64,
    /// The largest power of two not above the node count (the
    /// descent's first stride).
    top: usize,
}

impl Fenwick {
    /// Builds the tree over `weights` in `O(n)`.
    fn new(weights: impl IntoIterator<Item = u64>) -> Self {
        let weights: Vec<u64> = weights.into_iter().collect();
        let n = weights.len();
        let mut tree = vec![0u64; n + 1];
        for (slot, &w) in tree.iter_mut().skip(1).zip(&weights) {
            *slot = w;
        }
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            let carry = tree.get(i).copied().unwrap_or(0);
            if let Some(slot) = tree.get_mut(parent) {
                *slot += carry;
            }
        }
        let total = weights.iter().sum();
        let top = if n == 0 { 0 } else { 1 << n.ilog2() };
        Self {
            weights,
            tree,
            total,
            top,
        }
    }

    fn total(&self) -> u64 {
        self.total
    }

    /// Sets node `nd`'s weight.
    fn set(&mut self, nd: usize, weight: u64) {
        let Some(old) = self.weights.get_mut(nd) else {
            return;
        };
        let delta = weight.wrapping_sub(*old);
        *old = weight;
        self.total = self.total.wrapping_add(delta);
        let mut i = nd + 1;
        while let Some(slot) = self.tree.get_mut(i) {
            *slot = slot.wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// The smallest node whose inclusive prefix sum exceeds `ticket`
    /// (`ticket < total`): the node a left-to-right scan that subtracts
    /// each positive weight from the ticket stops at.
    fn find(&self, mut ticket: u64) -> usize {
        let mut pos = 0;
        let mut step = self.top;
        while step > 0 {
            if let Some(&partial) = self.tree.get(pos + step) {
                if partial <= ticket {
                    pos += step;
                    ticket -= partial;
                }
            }
            step >>= 1;
        }
        pos
    }
}

impl crate::PlacementStrategy for RandomStrategy {
    fn name(&self) -> &str {
        self.variant.label()
    }

    /// Random placement offers only probabilistic guarantees (Theorem 2);
    /// its deterministic worst-case bound is the vacuous 0.
    fn lower_bound(&self, _params: &SystemParams) -> i64 {
        0
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        self.place(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::placement_digest;
    use proptest::prelude::*;

    fn params(n: u16, b: u64, r: u16) -> SystemParams {
        SystemParams::new(n, b, r, 2, 3).unwrap()
    }

    /// The linear-scan draw the Fenwick tree replaced, kept as the
    /// reference it must match ticket for ticket: two `O(n)` scans per
    /// replica, one for the total and one to walk the ticket down.
    fn try_place_balanced_scan(
        _strategy: &RandomStrategy,
        params: &SystemParams,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Option<Placement>, PlacementError> {
        let b = usize::try_from(params.b()).unwrap();
        let n = usize::from(params.n());
        let r = usize::from(params.r());
        let cap = RandomStrategy::load_cap(params);
        let mut remaining = vec![cap; n];
        let mut rows = Vec::with_capacity(b * r);
        let mut set: Vec<u16> = Vec::with_capacity(r);
        for _ in 0..b {
            set.clear();
            for _ in 0..r {
                let weight_of = |nd: usize, c: u32| -> u64 {
                    if c == 0 || set.contains(&(nd as u16)) {
                        0
                    } else if weighted {
                        u64::from(c)
                    } else {
                        1
                    }
                };
                let total: u64 = remaining
                    .iter()
                    .enumerate()
                    .map(|(nd, &c)| weight_of(nd, c))
                    .sum();
                if total == 0 {
                    return Ok(None);
                }
                let mut ticket = rng.gen_range(0..total);
                let mut chosen = None;
                for (nd, &c) in remaining.iter().enumerate() {
                    let w = weight_of(nd, c);
                    if w == 0 {
                        continue;
                    }
                    if ticket < w {
                        chosen = Some(nd);
                        break;
                    }
                    ticket -= w;
                }
                let Some(nd) = chosen else {
                    return Ok(None);
                };
                set.push(nd as u16);
            }
            for &nd in &set {
                remaining[usize::from(nd)] -= 1;
            }
            set.sort_unstable();
            rows.extend_from_slice(&set);
        }
        Ok(Some(Placement::from_rows(params.n(), params.r(), rows)?))
    }

    /// Whether the first Fenwick attempt dead-ends, forcing a restart.
    fn first_attempt_dead_ends(strategy: &RandomStrategy, params: &SystemParams) -> bool {
        let weighted = strategy.variant == RandomVariant::LoadBalanced;
        let mut rng = StdRng::seed_from_u64(strategy.seed);
        strategy
            .try_place_balanced(params, weighted, &mut rng)
            .unwrap()
            .is_none()
    }

    const CAPPED: [RandomVariant; 2] = [
        RandomVariant::LoadBalanced,
        RandomVariant::SequentialUniform,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The Fenwick draw picks exactly the node the linear scan picks,
        /// for both capped variants, every node count up to 300 and
        /// tight shapes (`b = c·n`, every node filled to its cap) whose
        /// dead ends force restarts.
        #[test]
        fn fenwick_draw_matches_linear_scan(
            n in 2u16..=300,
            r_pick in 1u16..=6,
            b_loose in 1u64..=160,
            fill in 0u64..=2,
            seed in any::<u64>(),
        ) {
            let r = r_pick.min(n);
            // fill = 0: an arbitrary b; otherwise a tight b = fill·n.
            let b = if fill == 0 { b_loose } else { fill * u64::from(n) };
            let p = SystemParams::new(n, b, r, 1, 1).unwrap();
            for variant in CAPPED {
                let strategy = RandomStrategy::new(seed, variant);
                let fenwick = strategy.place(&p).unwrap();
                let scan = strategy.place_by(&p, try_place_balanced_scan).unwrap();
                prop_assert_eq!(fenwick, scan, "n={} b={} r={} {:?}", n, b, r, variant);
            }
        }
    }

    #[test]
    fn restarting_seeds_match_linear_scan() {
        // Tight shapes dead-end often; pin that restarts (and the
        // round-robin fallback, when all 100 attempts dead-end) replay
        // the reference's RNG stream exactly.
        let mut restarted = 0;
        for (n, b, r) in [(10u16, 10u64, 5u16), (13, 26, 4), (7, 14, 6), (31, 31, 3)] {
            let p = SystemParams::new(n, b, r, 1, 1).unwrap();
            for seed in 0..6u64 {
                for variant in CAPPED {
                    let strategy = RandomStrategy::new(seed, variant);
                    restarted += usize::from(first_attempt_dead_ends(&strategy, &p));
                    assert_eq!(
                        strategy.place(&p).unwrap(),
                        strategy.place_by(&p, try_place_balanced_scan).unwrap(),
                        "n={n} b={b} r={r} seed={seed} {variant:?}"
                    );
                }
            }
        }
        assert!(restarted > 0, "no case restarted; the shapes are too loose");
    }

    #[test]
    fn golden_placement_digests() {
        // Digests of the linear-scan draw, recorded before the Fenwick
        // tree replaced it.
        use RandomVariant::{LoadBalanced, SequentialUniform};
        let cases = [
            (0x5eed, LoadBalanced, (71, 20_000, 3), 0xbcd0_be93_0494_6b4a),
            (
                0x5eed,
                SequentialUniform,
                (71, 20_000, 3),
                0x55c2_b6d4_584f_db64,
            ),
            (7, LoadBalanced, (200, 5_000, 4), 0x9e94_f3b0_f413_d3c0),
            (4, SequentialUniform, (31, 600, 5), 0x0ec4_d2cf_2735_8792),
            (0, LoadBalanced, (10, 10, 5), 0xa5de_095f_bd6d_0661),
            (
                0x5eed,
                LoadBalanced,
                (71, 100_000, 3),
                0xe8d3_95aa_3ddd_df97,
            ),
        ];
        for (seed, variant, (n, b, r), digest) in cases {
            let p = SystemParams::new(n, b, r, 1, 1).unwrap();
            let placement = RandomStrategy::new(seed, variant).place(&p).unwrap();
            assert_eq!(
                placement_digest(&placement),
                digest,
                "seed={seed} {variant:?} ({n}, {b}, {r})"
            );
        }
    }

    #[test]
    fn load_cap_respected() {
        for (n, b, r) in [(31u16, 600u64, 5u16), (71, 1200, 3), (11, 100, 4)] {
            let p = params(n, b, r);
            let cap = RandomStrategy::load_cap(&p);
            let placement = RandomStrategy::new(1, RandomVariant::LoadBalanced)
                .place(&p)
                .unwrap();
            assert!(placement.max_load() <= cap, "n={n} b={b} r={r}");
            assert_eq!(placement.num_objects(), b as usize);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = params(31, 300, 3);
        let a = RandomStrategy::new(9, RandomVariant::LoadBalanced)
            .place(&p)
            .unwrap();
        let b = RandomStrategy::new(9, RandomVariant::LoadBalanced)
            .place(&p)
            .unwrap();
        assert_eq!(a, b);
        let c = RandomStrategy::new(10, RandomVariant::LoadBalanced)
            .place(&p)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unconstrained_has_distinct_replicas() {
        let p = params(31, 500, 5);
        let placement = RandomStrategy::new(3, RandomVariant::Unconstrained)
            .place(&p)
            .unwrap();
        for set in placement.rows() {
            assert!(set.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sequential_uniform_respects_cap() {
        let p = params(31, 600, 5);
        let cap = RandomStrategy::load_cap(&p);
        let placement = RandomStrategy::new(4, RandomVariant::SequentialUniform)
            .place(&p)
            .unwrap();
        assert!(placement.max_load() <= cap);
        assert_eq!(placement.num_objects(), 600);
    }

    #[test]
    fn tight_capacity_instance_terminates() {
        // b·r exactly equals n·cap: the sampler must finish (possibly via
        // restart/fallback).
        let p = SystemParams::new(10, 10, 5, 2, 3).unwrap(); // ℓ = 5 exactly
        let placement = RandomStrategy::new(0, RandomVariant::LoadBalanced)
            .place(&p)
            .unwrap();
        assert!(placement.max_load() <= 5);
    }

    #[test]
    fn spread_looks_random() {
        // Not a statistical test — just check the placement isn't the
        // degenerate round-robin fallback (which would have max-min ≤ 1
        // *and* perfectly sequential sets).
        let p = params(71, 2000, 3);
        let placement = RandomStrategy::new(42, RandomVariant::LoadBalanced)
            .place(&p)
            .unwrap();
        let distinct: std::collections::HashSet<_> = placement.rows().collect();
        assert!(distinct.len() > 1500, "suspiciously few distinct sets");
    }
}

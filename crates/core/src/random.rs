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
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.variant {
            RandomVariant::Unconstrained => self.place_unconstrained(params, &mut rng),
            RandomVariant::LoadBalanced | RandomVariant::SequentialUniform => {
                let weighted = self.variant == RandomVariant::LoadBalanced;
                for _attempt in 0..100 {
                    if let Some(p) = self.try_place_balanced(params, weighted, &mut rng)? {
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
    fn try_place_balanced(
        &self,
        params: &SystemParams,
        weighted: bool,
        rng: &mut StdRng,
    ) -> Result<Option<Placement>, PlacementError> {
        let b = usize::try_from(params.b()).expect("b fits usize");
        let n = usize::from(params.n());
        let r = usize::from(params.r());
        let cap = Self::load_cap(params);
        let mut remaining = vec![cap; n];
        let mut rows = Vec::with_capacity(b * r);
        let mut set: Vec<u16> = Vec::with_capacity(r);
        for _ in 0..b {
            set.clear();
            for _ in 0..r {
                // Draw over nodes not yet in this set with remaining
                // capacity; weight = capacity or 1.
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

    fn params(n: u16, b: u64, r: u16) -> SystemParams {
        SystemParams::new(n, b, r, 2, 3).unwrap()
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

//! The `Simple(x, λ)` placement strategy (Definition 2).
//!
//! A `Simple(x, λ)` placement is exactly a `(x+1)-(n, r, λ)` packing: no
//! `x+1` nodes jointly host more than `λ` objects. Placements are
//! materialized from a base unit packing (index `μ`) by Observation 1:
//! copy the unit `λ/μ` times and hand out blocks in round-robin order, so
//! no block is used more than `⌈b/capacity⌉ ≤ λ/μ` times.

use crate::{Placement, PlacementError, SystemParams, UnitSpec};
use wcp_designs::registry::RegistryConfig;

/// A planned `Simple(x, λ)` strategy.
///
/// # Examples
///
/// ```
/// use wcp_core::{SimpleStrategy, SystemParams};
/// use wcp_designs::registry::RegistryConfig;
///
/// // n = 71, r = 3, x = 1: STS(69)-backed, as in the paper's Fig. 2.
/// let params = SystemParams::new(71, 1000, 3, 2, 3)?;
/// let strat = SimpleStrategy::plan_constructive(1, &params, &RegistryConfig::default())?;
/// assert_eq!(strat.lambda(), 2); // 1000 objects need 2 copies of STS(69)
/// let placement = strat.build(1000)?;
/// assert_eq!(placement.num_objects(), 1000);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimpleStrategy {
    spec: UnitSpec,
    lambda: u64,
    n: u16,
    r: u16,
    name: String,
}

impl SimpleStrategy {
    /// Wraps an explicit spec with a chosen `λ` (must be a multiple of the
    /// spec's `μ`; use [`UnitSpec::units_for`] to size it).
    #[must_use]
    pub fn from_spec(spec: UnitSpec, lambda: u64, n: u16, r: u16) -> Self {
        let name = format!("simple(x={}, λ={lambda})", spec.x);
        Self {
            spec,
            lambda,
            n,
            r,
            name,
        }
    }

    /// Plans a `Simple(x, λ)` for `params.b()` objects with minimal `λ`
    /// (Eqn. 1), using the best constructible unit packing.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Design`] if nothing is constructible at this `x`;
    /// [`PlacementError::InsufficientCapacity`] if `b` exceeds what any
    /// `λ` can host (cannot happen while capacity grows with `λ`).
    pub fn plan_constructive(
        x: u16,
        params: &SystemParams,
        config: &RegistryConfig,
    ) -> Result<Self, PlacementError> {
        let profile = crate::PackingProfile::constructive(params, config)?;
        if x >= profile.s() {
            return Err(PlacementError::InvalidParams(format!(
                "x must satisfy x < s, got x={x}, s={}",
                profile.s()
            )));
        }
        let spec = profile.spec(x).clone();
        let d = spec
            .units_for(params.b())
            .ok_or(PlacementError::InsufficientCapacity {
                requested: params.b(),
                capacity: 0,
            })?;
        let lambda = d * spec.mu;
        Ok(Self::from_spec(spec, lambda, params.n(), params.r()))
    }

    /// The packing index `λ`.
    #[must_use]
    pub fn lambda(&self) -> u64 {
        self.lambda
    }

    /// The overlap bound `x`.
    #[must_use]
    pub fn x(&self) -> u16 {
        self.spec.x
    }

    /// The sub-system size `n_x` actually used.
    #[must_use]
    pub fn nx(&self) -> u16 {
        self.spec.nx
    }

    /// Objects this strategy can host (Lemma 1 / achieved capacity).
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.spec.capacity(self.lambda / self.spec.mu.max(1))
    }

    /// Availability lower bound for `b` objects (Lemma 2).
    #[must_use]
    pub fn lower_bound(&self, b: u64, k: u16, s: u16) -> i64 {
        crate::lb_avail_si(b, self.lambda, k, s, self.spec.x)
    }

    /// Materializes the placement for `b` objects on the full node set
    /// (blocks live on nodes `0..n_x`; nodes `n_x..n` stay empty, the
    /// slight load imbalance the paper's Observation 2 discusses).
    ///
    /// # Errors
    ///
    /// [`PlacementError::InsufficientCapacity`] when `b` exceeds
    /// [`capacity`](Self::capacity); [`PlacementError::Design`] when the
    /// spec has no constructive backing (paper-profile slots with `x > 0`).
    pub fn build(&self, b: u64) -> Result<Placement, PlacementError> {
        let cap = self.capacity();
        if b > cap {
            return Err(PlacementError::InsufficientCapacity {
                requested: b,
                capacity: cap,
            });
        }
        let b_us = usize::try_from(b).expect("b fits usize");
        if self.spec.x == 0 {
            return round_robin(self.n, self.spec.nx, self.r, b_us);
        }
        let unit = self.spec.unit.as_ref().ok_or_else(|| {
            PlacementError::Design(format!(
                "spec '{}' carries no constructive unit",
                self.spec.provenance
            ))
        })?;
        let unit_cap = usize::try_from(unit.capacity().min(b)).expect("fits");
        let base = unit.materialize(unit_cap)?;
        let base_blocks = base.blocks();
        let mut sets = Vec::with_capacity(b_us);
        for i in 0..b_us {
            sets.push(base_blocks[i % base_blocks.len()].clone());
        }
        Placement::new(self.n, self.r, sets)
    }
}

impl crate::PlacementStrategy for SimpleStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    /// Lemma 2 at the given parameters' `(b, k, s)`.
    fn lower_bound(&self, params: &SystemParams) -> i64 {
        self.lower_bound(params.b(), params.k(), params.s())
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        self.build(params.b())
    }
}

/// `Simple(0, λ)` realization: hand nodes out in one circular sweep, so
/// every node's load is within 1 of `rb/n_x` and never exceeds `λ`.
fn round_robin(n: u16, nx: u16, r: u16, b: usize) -> Result<Placement, PlacementError> {
    let nx_us = usize::from(nx);
    let mut sets = Vec::with_capacity(b);
    let mut cursor = 0usize;
    for _ in 0..b {
        let mut set: Vec<u16> = (0..usize::from(r))
            .map(|j| ((cursor + j) % nx_us) as u16)
            .collect();
        set.sort_unstable();
        sets.push(set);
        cursor = (cursor + usize::from(r)) % nx_us;
    }
    Placement::new(n, r, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_designs::verify;
    use wcp_designs::BlockDesign;

    fn params(n: u16, b: u64, r: u16, s: u16, k: u16) -> SystemParams {
        SystemParams::new(n, b, r, s, k).unwrap()
    }

    #[test]
    fn sts_backed_simple_is_a_packing() {
        let p = params(71, 1500, 3, 2, 3);
        let strat = SimpleStrategy::plan_constructive(1, &p, &RegistryConfig::default()).unwrap();
        assert_eq!(strat.nx(), 69);
        assert_eq!(strat.lambda(), 2); // 1500 ≤ 2·782
        let placement = strat.build(1500).unwrap();
        // The multiset of replica sets is a 2-(71,3,2) packing.
        let design =
            BlockDesign::new(71, 3, placement.rows().map(<[u16]>::to_vec).collect()).unwrap();
        assert!(verify::is_t_packing(&design, 2, 2));
        assert!(!verify::is_t_packing(&design, 2, 1)); // λ=2 really needed
    }

    #[test]
    fn minimal_lambda_matches_eqn1() {
        // Eqn. 1: (λ−μ)·cap/μ < b ≤ λ·cap/μ.
        let p = params(71, 783, 3, 2, 3);
        let strat = SimpleStrategy::plan_constructive(1, &p, &RegistryConfig::default()).unwrap();
        assert_eq!(strat.lambda(), 2); // 782 < 783 ≤ 1564
        let p = params(71, 782, 3, 2, 3);
        let strat = SimpleStrategy::plan_constructive(1, &p, &RegistryConfig::default()).unwrap();
        assert_eq!(strat.lambda(), 1);
    }

    #[test]
    fn load_cap_strategy() {
        let p = params(31, 100, 5, 2, 3);
        let strat = SimpleStrategy::plan_constructive(0, &p, &RegistryConfig::default()).unwrap();
        // λ0 = ceil(100·5/31) = 17.
        assert_eq!(strat.lambda(), 17);
        let placement = strat.build(100).unwrap();
        assert!(placement.max_load() <= 17);
        assert_eq!(placement.num_objects(), 100);
        // Round-robin is near-perfectly balanced.
        let loads = placement.loads();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 1, "loads {loads:?}");
    }

    #[test]
    fn capacity_enforced() {
        let p = params(71, 782, 3, 2, 3);
        let strat = SimpleStrategy::plan_constructive(1, &p, &RegistryConfig::default()).unwrap();
        assert!(matches!(
            strat.build(800),
            Err(PlacementError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn lower_bound_formula() {
        let p = params(71, 1500, 3, 2, 5);
        let strat = SimpleStrategy::plan_constructive(1, &p, &RegistryConfig::default()).unwrap();
        // λ = 2, x = 1, k = 5, s = 2: penalty ⌊2·10/1⌋ = 20.
        assert_eq!(strat.lower_bound(1500, 5, 2), 1480);
    }

    #[test]
    fn replica_sets_have_distinct_nodes() {
        // Round-robin wrap-around must still produce distinct nodes.
        let placement = round_robin(10, 7, 5, 50).unwrap();
        for set in placement.rows() {
            assert!(set.windows(2).all(|w| w[0] < w[1]), "{set:?}");
        }
    }
}

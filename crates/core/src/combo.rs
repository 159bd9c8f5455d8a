//! The `Combo(⟨λ_x⟩)` placement strategy and the dynamic program of
//! Sec. III-B1 (Eqns. 5–7).
//!
//! A Combo placement divides the `b` objects across `Simple(x, λ_x)`
//! sub-placements for `x ∈ [s]`, subject to the capacity constraint
//! (Eqn. 3). The DP chooses `⟨λ_x⟩` to maximize the availability lower
//! bound `lbAvail_co` (Lemma 3) for a *target* number of node failures
//! `k`; Sec. III-B2 (and our Fig. 3 reproduction) shows the choice is not
//! very sensitive to `k`.

use crate::bounds::lb_avail_co;
use crate::simple::SimpleStrategy;
use crate::{PackingProfile, Placement, PlacementError, SystemParams};
use wcp_combin::binomial;

/// The output of the DP: the per-`x` unit counts and object allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComboPlan {
    /// `λ_x = d_x·μ_x` for `x ∈ [s]`.
    pub lambdas: Vec<u64>,
    /// Objects assigned to each `Simple(x, λ_x)` sub-placement.
    pub objects: Vec<u64>,
    /// The maximized lower bound `lbAvail_co(⟨λ_x⟩)` (Eqn. 4); clamped at
    /// 0 like the recurrence.
    pub lb_avail: u64,
}

/// Runs the DP (Eqns. 5–7) over `profile` for `b` objects and target
/// failure count `k`, returning the optimal `⟨λ_x⟩`.
///
/// Runtime is `O(s·b·d_max)` where `d_max` is the largest unit count any
/// single slot may need; memory `O(s·b)`.
///
/// # Errors
///
/// [`PlacementError::InsufficientCapacity`] when not even the `x = 0` slot
/// can absorb the remaining objects (only possible with degenerate
/// profiles), and [`PlacementError::InvalidParams`] for `k < s`.
///
/// # Examples
///
/// ```
/// use wcp_core::{combo_plan, PackingProfile, SystemParams};
///
/// let params = SystemParams::new(71, 1200, 3, 2, 3)?;
/// let profile = PackingProfile::paper(&params)?;
/// let plan = combo_plan(&profile, &params)?;
/// // 1200 objects fit in two copies of STS(69) (782 each): λ1 = 2.
/// assert_eq!(plan.lambdas, vec![0, 2]);
/// assert_eq!(plan.lb_avail, 1200 - 2 * 3); // penalty ⌊2·C(3,2)/C(2,2)⌋
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
pub fn combo_plan(
    profile: &PackingProfile,
    params: &SystemParams,
) -> Result<ComboPlan, PlacementError> {
    let s = profile.s();
    let k = params.k();
    let b = params.b();
    if k < s {
        return Err(PlacementError::InvalidParams(format!(
            "target failures k={k} below fatality threshold s={s}"
        )));
    }
    let b_us = usize::try_from(b)
        .map_err(|_| PlacementError::InvalidParams("b too large for the DP table".into()))?;

    // Penalty of d units at slot x: ⌊d·μ_x·C(k, x+1)/C(s, x+1)⌋.
    let pen = |x: u16, d: u64| -> i64 {
        let num = binomial(u64::from(k), u64::from(x) + 1).expect("small");
        let den = binomial(u64::from(s), u64::from(x) + 1).expect("small");
        let spec = profile.spec(x);
        i64::try_from(u128::from(d) * u128::from(spec.mu) * num / den).expect("penalty fits i64")
    };

    // dp[x][b'] = best lbAvail placing b' objects with slots 0..=x;
    // choice[x][b'] = chosen d at slot x.
    let mut dp_prev: Vec<i64> = vec![0; b_us + 1];
    let mut choices: Vec<Vec<u32>> = Vec::with_capacity(usize::from(s));

    // Base case x = 0 (Eqn. 6): all b' objects go to Simple(0, λ0) with the
    // minimal λ0 whose capacity reaches b'.
    {
        let spec = profile.spec(0);
        let mut choice0 = vec![0u32; b_us + 1];
        for bp in 1..=b_us {
            let d = spec
                .units_for(bp as u64)
                .ok_or(PlacementError::InsufficientCapacity {
                    requested: bp as u64,
                    capacity: 0,
                })?;
            choice0[bp] = u32::try_from(d).expect("unit count fits u32");
            dp_prev[bp] = (bp as i64 - pen(0, d)).max(0);
        }
        choices.push(choice0);
    }

    // Inductive case (Eqn. 7).
    for x in 1..s {
        let spec = profile.spec(x);
        let mut dp_cur = vec![0i64; b_us + 1];
        let mut choice = vec![0u32; b_us + 1];
        for bp in 1..=b_us {
            // d = 0: delegate everything to smaller x.
            let mut best = dp_prev[bp];
            let mut best_d = 0u64;
            if let Some(d_max) = spec.units_for(bp as u64) {
                for d in 1..=d_max {
                    let cap = spec.capacity(d);
                    let placed = cap.min(bp as u64);
                    let rest = bp as u64 - placed;
                    let cand =
                        dp_prev[usize::try_from(rest).expect("fits")] + placed as i64 - pen(x, d);
                    if cand > best {
                        best = cand;
                        best_d = d;
                    }
                }
            }
            dp_cur[bp] = best.max(0);
            choice[bp] = u32::try_from(best_d).expect("unit count fits u32");
        }
        dp_prev = dp_cur;
        choices.push(choice);
    }

    // Backtrack from x = s−1.
    let mut lambdas = vec![0u64; usize::from(s)];
    let mut objects = vec![0u64; usize::from(s)];
    let mut bp = b;
    for x in (1..s).rev() {
        let d = u64::from(choices[usize::from(x)][usize::try_from(bp).expect("fits")]);
        let spec = profile.spec(x);
        let placed = spec.capacity(d).min(bp);
        lambdas[usize::from(x)] = d * spec.mu;
        objects[usize::from(x)] = placed;
        bp -= placed;
    }
    if bp > 0 {
        let spec = profile.spec(0);
        let d = u64::from(choices[0][usize::try_from(bp).expect("fits")]);
        lambdas[0] = d * spec.mu;
        objects[0] = bp;
    }

    let lb = lb_avail_co(&lambdas, b, k, s).max(0) as u64;
    Ok(ComboPlan {
        lambdas,
        objects,
        lb_avail: lb,
    })
}

/// A planned Combo strategy, ready to materialize placements.
#[derive(Debug, Clone)]
pub struct ComboStrategy {
    profile: PackingProfile,
    plan: ComboPlan,
}

impl ComboStrategy {
    /// Plans against the constructive registry profile.
    ///
    /// # Errors
    ///
    /// Propagates profile and DP errors.
    pub fn plan_constructive(
        params: &SystemParams,
        config: &wcp_designs::registry::RegistryConfig,
    ) -> Result<Self, PlacementError> {
        let profile = PackingProfile::constructive(params, config)?;
        let plan = combo_plan(&profile, params)?;
        Ok(Self { profile, plan })
    }

    /// The chosen `⟨λ_x⟩` and allocation.
    #[must_use]
    pub fn plan(&self) -> &ComboPlan {
        &self.plan
    }

    /// The profile planned against.
    #[must_use]
    pub fn profile(&self) -> &PackingProfile {
        &self.profile
    }

    /// The maximized availability lower bound.
    #[must_use]
    pub fn lower_bound(&self) -> u64 {
        self.plan.lb_avail
    }

    /// Materializes the Combo placement: each `Simple(x, λ_x)`
    /// sub-placement is built and concatenated (they share the node set,
    /// Definition 3).
    ///
    /// # Errors
    ///
    /// [`PlacementError::Design`] when the profile cannot materialize a
    /// slot the plan uses (paper profile slots without constructions).
    pub fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        let mut placement = Placement::new(params.n(), params.r(), Vec::new())?;
        for x in (0..self.profile.s()).rev() {
            let objs = self.plan.objects[usize::from(x)];
            if objs == 0 {
                continue;
            }
            let lambda = self.plan.lambdas[usize::from(x)];
            let simple = SimpleStrategy::from_spec(
                self.profile.spec(x).clone(),
                lambda,
                params.n(),
                params.r(),
            );
            placement.extend(simple.build(objs)?)?;
        }
        Ok(placement)
    }
}

impl crate::PlacementStrategy for ComboStrategy {
    fn name(&self) -> &str {
        "combo"
    }

    /// Lemma 3 for the planned `⟨λ_x⟩`, re-evaluated at the given
    /// parameters' `(b, k)` (the Fig. 3 sensitivity study evaluates a
    /// plan at failure counts other than the one it was planned for).
    fn lower_bound(&self, params: &SystemParams) -> i64 {
        lb_avail_co(&self.plan.lambdas, params.b(), params.k(), params.s())
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        ComboStrategy::build(self, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_designs::registry::RegistryConfig;

    fn params(n: u16, b: u64, r: u16, s: u16, k: u16) -> SystemParams {
        SystemParams::new(n, b, r, s, k).unwrap()
    }

    #[test]
    fn dp_prefers_large_x_when_lambda_small() {
        // n = 71, r = 3, s = 2, b = 600: one STS(69) copy (782 ≥ 600)
        // suffices; λ1 = 1.
        let p = params(71, 600, 3, 2, 3);
        let prof = PackingProfile::paper(&p).unwrap();
        let plan = combo_plan(&prof, &p).unwrap();
        assert_eq!(plan.lambdas, vec![0, 1]);
        assert_eq!(plan.objects, vec![0, 600]);
        assert_eq!(plan.lb_avail, 600 - 3); // ⌊C(3,2)/C(2,2)⌋ = 3
    }

    #[test]
    fn dp_matches_paper_combo_fig10_case() {
        // Fig. 10b (r = s = 3, n = 71): at b = 600 and k = 3 a single index
        // unit suffices, with penalty ⌊C(3,2)/C(3,2)⌋ = ⌊C(3,3)/C(3,3)⌋ = 1
        // whether it lands on x = 1 (STS(69)) or x = 2 (complete triples) —
        // the two plans tie at lbAvail = 599 and the DP may return either.
        let p = params(71, 600, 3, 3, 3);
        let prof = PackingProfile::paper(&p).unwrap();
        let plan = combo_plan(&prof, &p).unwrap();
        assert_eq!(plan.lb_avail, 600 - 1);
        assert_eq!(plan.lambdas.iter().sum::<u64>(), 1);
        assert_eq!(plan.lambdas[0], 0);
        // At k = 5 the tie breaks: x = 2's penalty is C(5,3) = 10 vs
        // x = 1's ⌊C(5,2)/C(3,2)⌋ = 3, so the DP must use x = 1.
        let p5 = params(71, 600, 3, 3, 5);
        let plan5 = combo_plan(&prof, &p5).unwrap();
        assert_eq!(plan5.lambdas, vec![0, 1, 0]);
        assert_eq!(plan5.lb_avail, 600 - 3);
    }

    #[test]
    fn dp_switches_to_lower_x_when_b_grows() {
        // Same system, more objects: the x = 2 slot's λ2 would have to
        // grow (hurting the bound superlinearly in k), so the DP mixes or
        // switches to x = 1 copies. Verify against brute force.
        let p = params(31, 4800, 3, 3, 5);
        let prof = PackingProfile::paper(&p).unwrap();
        let plan = combo_plan(&prof, &p).unwrap();
        let brute = brute_force_best(&prof, &p);
        assert_eq!(plan.lb_avail, brute, "DP {:?} vs brute {}", plan, brute);
    }

    /// Brute force over (d1, d2) for s = 3 profiles (d0 forced minimal).
    fn brute_force_best(prof: &PackingProfile, p: &SystemParams) -> u64 {
        let b = p.b();
        let mut best = 0i64;
        let s = prof.s();
        assert_eq!(s, 3);
        let (sp0, sp1, sp2) = (prof.spec(0), prof.spec(1), prof.spec(2));
        let d1_max = sp1.units_for(b).unwrap();
        for d1 in 0..=d1_max {
            let placed1 = sp1.capacity(d1).min(b);
            let d2_max = sp2.units_for(b - placed1).unwrap();
            for d2 in 0..=d2_max {
                let placed2 = sp2.capacity(d2).min(b - placed1);
                let rest = b - placed1 - placed2;
                let d0 = sp0.units_for(rest).unwrap();
                let lambdas = [d0 * sp0.mu, d1 * sp1.mu, d2 * sp2.mu];
                let lb = crate::lb_avail_co(&lambdas, b, p.k(), p.s());
                best = best.max(lb);
            }
        }
        best.max(0) as u64
    }

    #[test]
    fn dp_matches_brute_force_across_parameters() {
        for (n, b, r, k) in [
            (71u16, 1200u64, 5u16, 4u16),
            (71, 2400, 5, 6),
            (31, 600, 4, 3),
            (257, 4800, 5, 8),
            (31, 9600, 3, 4),
        ] {
            let p = params(n, b, r, 3, k);
            let prof = PackingProfile::paper(&p).unwrap();
            let plan = combo_plan(&prof, &p).unwrap();
            assert_eq!(
                plan.lb_avail,
                brute_force_best(&prof, &p),
                "mismatch at n={n} b={b} r={r} k={k}"
            );
        }
    }

    #[test]
    fn allocation_covers_all_objects() {
        for b in [600u64, 1200, 4800, 9600, 38_400] {
            let p = params(257, b, 5, 3, 6);
            let prof = PackingProfile::paper(&p).unwrap();
            let plan = combo_plan(&prof, &p).unwrap();
            assert_eq!(plan.objects.iter().sum::<u64>(), b, "b={b}");
            // Each slot's allocation respects its λ capacity.
            for x in 0..3u16 {
                let spec = prof.spec(x);
                let lam = plan.lambdas[usize::from(x)];
                assert!(plan.objects[usize::from(x)] <= spec.capacity(lam / spec.mu));
            }
        }
    }

    #[test]
    fn constructive_build_roundtrip() {
        let p = params(71, 900, 3, 2, 3);
        let strat = ComboStrategy::plan_constructive(&p, &RegistryConfig::default()).unwrap();
        let placement = strat.build(&p).unwrap();
        assert_eq!(placement.num_objects(), 900);
        assert_eq!(placement.num_nodes(), 71);
        // Every adversarial k-set kills at least as many objects as the
        // bound predicts... i.e. bound must hold for sampled failure sets.
        let lb = strat.lower_bound();
        for probe in [[0u16, 1, 2], [10, 30, 50], [68, 69, 70]] {
            let failed = placement.failed_objects(&probe, p.s());
            assert!(
                900 - failed >= lb,
                "bound {lb} violated by probe {probe:?} ({failed} failed)"
            );
        }
    }

    #[test]
    fn s1_degenerates_to_load_cap() {
        let p = params(71, 710, 5, 1, 3);
        let prof = PackingProfile::paper(&p).unwrap();
        let plan = combo_plan(&prof, &p).unwrap();
        // λ0 = ceil(710·5/71) = 50; penalty ⌊50·3/1⌋ = 150.
        assert_eq!(plan.lambdas, vec![50]);
        assert_eq!(plan.lb_avail, 710 - 150);
    }
}

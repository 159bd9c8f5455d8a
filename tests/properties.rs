//! Property-based end-to-end invariants over randomly drawn small
//! systems: whatever the parameters, bounds must hold and structures must
//! verify.

use proptest::prelude::*;
use worst_case_placement::designs::{
    registry::RegistryConfig as DRegistryConfig, verify, BlockDesign,
};
use worst_case_placement::prelude::*;

/// Strategy for drawing valid small system parameters.
fn small_params() -> impl Strategy<Value = (u16, u64, u16, u16, u16)> {
    // n in 8..=16, r in 2..=4, s in 1..=r, k in s..=min(6, n-1), b in 10..=80
    (8u16..=16, 10u64..=80, 2u16..=4).prop_flat_map(|(n, b, r)| {
        (1u16..=r).prop_flat_map(move |s| (s..=6.min(n - 1)).prop_map(move |k| (n, b, r, s, k)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Combo: plan → build → exact attack ≥ lower bound, always.
    #[test]
    fn combo_bound_always_holds((n, b, r, s, k) in small_params()) {
        let params = SystemParams::new(n, b, r, s, k).expect("strategy draws valid params");
        let combo = ComboStrategy::plan_constructive(&params, &RegistryConfig::default())
            .expect("plan");
        let placement = combo.build(&params).expect("build");
        prop_assert_eq!(placement.num_objects() as u64, b);
        let (avail, wc) = availability(&placement, s, k, &AdversaryConfig::default());
        prop_assert!(wc.exact, "instances this small must be exact");
        prop_assert!(
            avail >= combo.lower_bound(),
            "bound {} violated by measured {}", combo.lower_bound(), avail
        );
    }

    /// The multiset of replica sets of a Simple(x, λ) placement really is
    /// a (x+1)-(n, r, λ) packing.
    #[test]
    fn simple_placements_are_packings((n, b, r, s, k) in small_params(), x in 1u16..3) {
        prop_assume!(x < s);
        let params = SystemParams::new(n, b, r, s, k).expect("valid");
        let Ok(strategy) = SimpleStrategy::plan_constructive(x, &params, &RegistryConfig::default()) else {
            return Ok(()); // nothing constructible at this size — fine
        };
        let placement = strategy.build(b).expect("build");
        let design = BlockDesign::new(n, r, placement.rows().map(<[u16]>::to_vec).collect()).expect("valid blocks");
        prop_assert!(
            verify::is_t_packing(&design, x + 1, strategy.lambda()),
            "λ = {} exceeded", strategy.lambda()
        );
    }

    /// Random placements respect the Definition-4 load cap and produce
    /// valid replica sets.
    #[test]
    fn random_placement_valid((n, b, r, _s, _k) in small_params(), seed in any::<u64>()) {
        let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
        let placement = RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .expect("sample");
        prop_assert!(placement.max_load() <= RandomStrategy::load_cap(&params));
        prop_assert_eq!(placement.num_objects() as u64, b);
    }

    /// prAvail (Theorem-2 limit) is monotone: more failures never help,
    /// larger thresholds never hurt.
    #[test]
    fn pr_avail_monotone(n in 20u16..100, r in 2u16..=5, b in 100u64..2000) {
        let mut prev = u64::MAX;
        for k in 2..=8u16 {
            let pa = pr_avail(n, k, r, 2, b);
            prop_assert!(pa <= prev);
            prev = pa;
        }
        let mut prev = 0u64;
        for s in 1..=r {
            let pa = pr_avail(n, 4, r, s, b);
            prop_assert!(pa >= prev);
            prev = pa;
        }
    }

    /// The registry never lies: whatever it claims, materialization
    /// delivers a packing of the declared strength and at least
    /// min(request, capacity) blocks.
    #[test]
    fn registry_units_verify(t in 1u16..=4, r in 2u16..=5, v_max in 8u16..40) {
        prop_assume!(t <= r);
        let cfg = DRegistryConfig::default();
        if let Some(unit) = worst_case_placement::designs::registry::best_unit_packing(t, r, v_max, 200, &cfg) {
            let want = unit.capacity().min(200) as usize;
            let design = unit.materialize(200).expect("materialize");
            prop_assert!(design.num_blocks() >= want, "promised {want}, got {}", design.num_blocks());
            prop_assert!(verify::is_t_packing(&design, t, 1));
        }
    }
}

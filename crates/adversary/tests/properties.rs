//! Property-based tests for the adversary ladder.

use proptest::prelude::*;
use wcp_adversary::{
    exact_worst, exact_worst_parallel, greedy_worst, local_search_worst, AdversaryConfig,
    AdversaryScratch, Ladder, ScratchAdversary, SweepAdversary, WorstCase,
};
use wcp_combin::KSubsets;
use wcp_core::engine::{AttackOutcome, Attacker};
use wcp_core::sweep::{sweep_with, AdversarySpec, SweepOptions, SweepSpec};
use wcp_core::{Parallelism, Placement, RandomStrategy, RandomVariant, StrategyKind, SystemParams};

fn brute_force(p: &Placement, s: u16, k: u16) -> u64 {
    KSubsets::new(p.num_nodes(), k)
        .map(|subset| p.failed_objects(&subset, s))
        .max()
        .unwrap_or(0)
}

fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("sample")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The exact search equals brute force on any small instance.
    #[test]
    fn exact_equals_brute_force(
        n in 8u16..14,
        b in 10u64..60,
        r in 2u16..=4,
        s in 1u16..=4,
        k in 1u16..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(s <= r && k < n && r <= n);
        let p = placement(n, b, r, seed);
        let wc = exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
        prop_assert_eq!(wc.failed, brute_force(&p, s, k));
        prop_assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness mismatch");
    }

    /// Heuristics never exceed the true optimum, and the auto policy with
    /// unlimited budget is exact.
    #[test]
    fn ladder_ordering(
        n in 8u16..14,
        b in 10u64..60,
        r in 2u16..=4,
        k in 1u16..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(k < n && r <= n);
        let s = r.min(2);
        let p = placement(n, b, r, seed);
        let truth = brute_force(&p, s, k);
        let g = greedy_worst(&p, s, k);
        let ls = local_search_worst(&p, s, k, &AdversaryConfig::default());
        let auto = Ladder::new(&AdversaryConfig::default()).run(&p, s, k).worst;
        prop_assert!(g.failed <= truth);
        prop_assert!(ls.failed <= truth);
        prop_assert!(g.failed <= ls.failed);
        prop_assert!(auto.exact);
        prop_assert_eq!(auto.failed, truth);
    }

    /// Buffer reuse is invisible: one scratch carried across a random
    /// sequence of instances reproduces fresh-allocation results.
    #[test]
    fn scratch_reuse_is_observationally_pure(
        first in (8u16..14, 10u64..50, 2u16..=4, 1u16..=4, any::<u64>()),
        second in (8u16..14, 10u64..50, 2u16..=4, 1u16..=4, any::<u64>()),
        third in (8u16..14, 10u64..50, 2u16..=4, 1u16..=4, any::<u64>()),
    ) {
        let cfg = AdversaryConfig::default();
        let mut scratch = AdversaryScratch::new();
        for (n, b, r, k, seed) in [first, second, third] {
            prop_assume!(k < n && r <= n);
            let s = r.min(2);
            let p = placement(n, b, r, seed);
            let fresh = Ladder::new(&cfg).run(&p, s, k).worst;
            let reused = Ladder::new(&cfg).scratch(&mut scratch).run(&p, s, k).worst;
            prop_assert_eq!(fresh, reused, "n={} b={} r={} k={}", n, b, r, k);
        }
    }

    /// The full-ladder sweep (scratch-reusing `SweepAdversary`) is
    /// deterministic in the thread count, including heuristic cells.
    #[test]
    fn ladder_sweep_parallel_equals_serial(
        n in 9u16..14,
        b in 12u64..40,
        threads in 2usize..7,
        budget in 1u64..2000,
    ) {
        let mut spec = SweepSpec::new("adv-prop");
        spec.grid.n = vec![n];
        spec.grid.b = vec![b, b * 2];
        spec.grid.r = vec![3];
        spec.grid.s = vec![1, 2];
        spec.grid.k = vec![2, 4];
        spec.strategies = vec![
            StrategyKind::Ring,
            StrategyKind::Random { seed: 1, variant: RandomVariant::LoadBalanced },
        ];
        // A tiny exact budget forces the heuristic fallback on some
        // cells, exercising the seeded local search under parallelism.
        spec.adversaries = vec![AdversarySpec::Auto {
            exact_budget: budget,
            restarts: 2,
            max_steps: 40,
        }];
        let serial = sweep_with(
            &spec,
            &SweepOptions { threads: 1, ..SweepOptions::default() },
            SweepAdversary::new,
        );
        let parallel = sweep_with(
            &spec,
            &SweepOptions { threads, ..SweepOptions::default() },
            SweepAdversary::new,
        );
        prop_assert_eq!(serial, parallel);
    }

    /// The frontier-parallel exact rung returns the serial rung's
    /// result — optimum AND witness — for every thread count, across
    /// random shapes.
    #[test]
    fn parallel_exact_equals_serial(
        n in 8u16..14,
        b in 10u64..60,
        r in 2u16..=4,
        s in 1u16..=4,
        k in 1u16..=5,
        threads in 1usize..=8,
        seed in any::<u64>(),
    ) {
        prop_assume!(s <= r && k < n && r <= n);
        let p = placement(n, b, r, seed);
        let serial = exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
        let par = exact_worst_parallel(&p, s, k, u64::MAX, 0, Parallelism::new(threads))
            .expect("no budget");
        prop_assert_eq!(par, serial, "threads={}", threads);
    }

    /// Stale shared bounds cannot change the answer: whatever incumbent
    /// seeds the search — far below, just below, at, or above the
    /// optimum — parallel equals serial at every thread count. The
    /// `optimum − 1` seed is the monotone-tightening stress case: every
    /// worker can improve by at most one, so near-simultaneous
    /// `tighten` calls race on the same value, and if a late smaller
    /// publish could *lower* the shared bound (i.e. if tightening were
    /// not monotone via `fetch_max`), sibling subtrees holding the
    /// first optimum-achieving witness in root order would be
    /// over-pruned and the equality here would not survive.
    #[test]
    fn stale_shared_bounds_cannot_change_the_answer(
        n in 8u16..13,
        b in 10u64..50,
        r in 2u16..=4,
        k in 1u16..=4,
        threads in 2usize..=8,
        seed in any::<u64>(),
    ) {
        prop_assume!(k < n && r <= n);
        let s = r.min(2);
        let p = placement(n, b, r, seed);
        let truth = brute_force(&p, s, k);
        for incumbent in [0, truth.saturating_sub(1), truth, truth + 1] {
            let serial = exact_worst(&p, s, k, u64::MAX, incumbent).expect("no budget");
            let par =
                exact_worst_parallel(&p, s, k, u64::MAX, incumbent, Parallelism::new(threads))
                    .expect("no budget");
            prop_assert_eq!(par, serial, "incumbent={} threads={}", incumbent, threads);
        }
    }

    /// The one-schedule contract: every node-ladder entry point — the
    /// plain and certified `Ladder` at 1, 2, 3 and 8 threads, the
    /// engine-facing `AdversaryConfig` attacker, and scratch-owning
    /// `ScratchAdversary`s (including the default one) carried across a
    /// sequence of placements — returns the same `WorstCase` and
    /// byte-identical certificate JSON, and the local search rung alone
    /// is thread-count invariant too.
    #[test]
    fn every_entry_point_is_thread_count_invariant(
        first in (8u16..16, 10u64..80, 2u16..=4, 0u16..=5, any::<u64>()),
        second in (8u16..16, 10u64..80, 2u16..=4, 0u16..=5, any::<u64>()),
        third in (8u16..16, 10u64..80, 2u16..=4, 0u16..=5, any::<u64>()),
    ) {
        let reference_cfg = AdversaryConfig::default();
        let configs: Vec<AdversaryConfig> = [1usize, 2, 3, 8]
            .into_iter()
            .map(|threads| AdversaryConfig {
                parallelism: Parallelism::new(threads),
                ..AdversaryConfig::default()
            })
            .collect();
        let default_attacker = ScratchAdversary::default();
        let attackers: Vec<ScratchAdversary> =
            configs.iter().cloned().map(ScratchAdversary::new).collect();
        let mut scratches: Vec<AdversaryScratch> =
            configs.iter().map(|_| AdversaryScratch::new()).collect();
        // Every entry point reduces to (verdict, certificate JSON).
        let outcome = |out: AttackOutcome| {
            let json = out.certificate.as_ref().map(|c| c.to_json());
            (WorstCase { failed: out.failed, nodes: out.nodes, exact: out.exact }, json)
        };
        for (n, b, r, k, seed) in [first, second, third] {
            let s = r.min(2);
            let p = placement(n, b, r, seed);
            let expect = outcome(Ladder::new(&reference_cfg).certified().run(&p, s, k).into_attack());
            prop_assert_eq!(outcome(default_attacker.attack(&p, s, k)), expect.clone());
            let ls = local_search_worst(&p, s, k, &reference_cfg);
            for ((cfg, attacker), scratch) in configs.iter().zip(&attackers).zip(&mut scratches) {
                let ctx = format!("n={n} b={b} r={r} k={k} {cfg:?}");
                let plain = Ladder::new(cfg).run(&p, s, k);
                prop_assert_eq!(&plain.worst, &expect.0, "plain {}", ctx);
                let certified = Ladder::new(cfg).scratch(scratch).certified().run(&p, s, k);
                prop_assert_eq!(outcome(certified.into_attack()), expect.clone(), "certified {}", ctx);
                prop_assert_eq!(outcome(attacker.attack(&p, s, k)), expect.clone(), "scratch {}", ctx);
                prop_assert_eq!(outcome(cfg.attack(&p, s, k)), expect.clone(), "engine {}", ctx);
                prop_assert_eq!(local_search_worst(&p, s, k, cfg), ls.clone(), "local search {}", ctx);
            }
        }
    }

    /// Monotonicity: more failures never kill fewer objects; higher
    /// thresholds never kill more.
    #[test]
    fn worst_case_monotone(n in 9u16..14, b in 10u64..50, seed in any::<u64>()) {
        let p = placement(n, b, 3, seed);
        let cfg = AdversaryConfig::default();
        let mut prev = 0u64;
        for k in 1..=5u16 {
            let wc = Ladder::new(&cfg).run(&p, 2, k).worst;
            prop_assert!(wc.failed >= prev, "k={}", k);
            prev = wc.failed;
        }
        let mut prev = u64::MAX;
        for s in 1..=3u16 {
            let wc = Ladder::new(&cfg).run(&p, s, 4).worst;
            prop_assert!(wc.failed <= prev, "s={}", s);
            prev = wc.failed;
        }
    }
}

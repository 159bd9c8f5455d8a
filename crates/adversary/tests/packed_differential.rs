//! Differential property suite: the [`PackedCounts`] hit-level
//! accounting must be observationally identical to the scalar
//! [`FailureCounts`] oracle — on every accounting observable
//! (`add_node`/`remove_node`/`gain`/`failable_within`/`failed`/`nodes`/
//! `contains`) across random placements, shapes, and operation walks,
//! including scratch-style rebind reuse across mismatched
//! `(n, b, r, s)` — and the production search ladder must reproduce
//! the scalar reference ladder's results.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use wcp_adversary::{
    exact_worst, exact_worst_parallel, greedy_worst, local_search_worst, reference,
    AdversaryConfig, FailureCounts, Ladder, PackedCounts,
};
use wcp_core::{Parallelism, Placement, RandomStrategy, RandomVariant, SystemParams};

fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("sample")
}

/// Asserts every observable of the two backends agrees.
fn assert_observably_equal(fc: &FailureCounts, pc: &PackedCounts, n: u16, ctx: &str) {
    assert_eq!(pc.failed(), fc.failed(), "{ctx}: failed");
    assert_eq!(pc.nodes(), fc.nodes(), "{ctx}: nodes");
    for m in 0..=6u16 {
        assert_eq!(
            pc.failable_within(m),
            fc.failable_within(m),
            "{ctx}: failable_within({m})"
        );
    }
    for nd in 0..n {
        assert_eq!(pc.contains(nd), fc.contains(nd), "{ctx}: contains({nd})");
        if !fc.contains(nd) {
            assert_eq!(pc.gain(nd), fc.gain(nd), "{ctx}: gain({nd})");
        }
    }
}

/// Drives both backends through an identical random add/remove walk.
fn random_walk(fc: &mut FailureCounts, pc: &mut PackedCounts, p: &Placement, s: u16, seed: u64) {
    let n = p.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut members: Vec<u16> = Vec::new();
    for step in 0..80 {
        let remove = !members.is_empty() && (members.len() == usize::from(n) || rng.gen_bool(0.4));
        if remove {
            let at = rng.gen_range(0..members.len());
            let nd = members.swap_remove(at);
            fc.remove_node(nd);
            pc.remove_node(nd);
        } else {
            let mut nd = rng.gen_range(0..n);
            while members.contains(&nd) {
                nd = rng.gen_range(0..n);
            }
            members.push(nd);
            fc.add_node(nd);
            pc.add_node(nd);
        }
        assert_eq!(pc.failed(), fc.failed(), "step {step}: failed");
        if step % 8 == 0 {
            assert_observably_equal(fc, pc, n, &format!("s={s} step={step}"));
        }
    }
    assert_observably_equal(fc, pc, n, &format!("s={s} final"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel ≡ scalar on random walks over random placements,
    /// including `s > r` (nothing can ever fail) and word-boundary
    /// object counts.
    #[test]
    fn kernel_is_observationally_identical(
        n in 4u16..30,
        b in 1u64..200,
        r in 1u16..=5,
        s in 1u16..=6,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n);
        let p = placement(n, b, r, seed);
        let mut fc = FailureCounts::new(&p, s);
        let mut pc = PackedCounts::new(&p, s);
        assert_observably_equal(&fc, &pc, n, "fresh");
        random_walk(&mut fc, &mut pc, &p, s, seed ^ 0x9e37_79b9);
        // clear() must behave like a fresh build on both backends.
        fc.clear();
        pc.clear();
        assert_observably_equal(&fc, &pc, n, "cleared");
    }

    /// One kernel + one scalar oracle rebound across a sequence of
    /// mismatched shapes (growing and shrinking n, b, r, s) stay
    /// observationally identical — buffer reuse is invisible.
    #[test]
    fn rebind_reuse_across_mismatched_shapes(
        first in (4u16..30, 1u64..150, 1u16..=5, 1u16..=4, any::<u64>()),
        second in (4u16..30, 1u64..150, 1u16..=5, 1u16..=4, any::<u64>()),
        third in (4u16..30, 1u64..150, 1u16..=5, 1u16..=4, any::<u64>()),
    ) {
        let mut fc: Option<FailureCounts> = None;
        let mut pc: Option<PackedCounts> = None;
        for (i, (n, b, r, s, seed)) in [first, second, third].into_iter().enumerate() {
            prop_assume!(r <= n);
            let p = placement(n, b, r, seed);
            match (&mut fc, &mut pc) {
                (Some(fc), Some(pc)) => {
                    fc.rebind(&p, s);
                    pc.rebind(&p, s);
                }
                _ => {
                    fc = Some(FailureCounts::new(&p, s));
                    pc = Some(PackedCounts::new(&p, s));
                }
            }
            let (fc, pc) = (fc.as_mut().unwrap(), pc.as_mut().unwrap());
            assert_observably_equal(fc, pc, n, &format!("shape {i} fresh"));
            random_walk(fc, pc, &p, s, seed.wrapping_add(i as u64));
        }
    }

    /// The kernel-backed heuristic ladder reproduces the scalar
    /// reference ladder exactly — same failed counts, same witnesses.
    #[test]
    fn search_ladder_matches_reference(
        n in 6u16..22,
        b in 4u64..120,
        r in 2u16..=4,
        k in 1u16..=6,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n);
        let p = placement(n, b, r, seed);
        let cfg = AdversaryConfig::default();
        for s in 1..=r {
            prop_assert_eq!(
                greedy_worst(&p, s, k),
                reference::greedy_worst(&p, s, k),
                "greedy s={} k={}", s, k
            );
            prop_assert_eq!(
                local_search_worst(&p, s, k, &cfg),
                reference::local_search_worst(&p, s, k, &cfg),
                "local search s={} k={}", s, k
            );
        }
    }

    /// The upgraded exact DFS (supply bound, live child ordering,
    /// path-maintained hit levels and pair corrections) and the
    /// reference DFS agree on the optimum, and the kernel witness
    /// achieves it; the frontier split at 2 and 8 threads returns the
    /// serial optimum *and* witness. The shapes reach every branch of
    /// the path tables: `r = 1` (no co-hosts), every `s ≤ r` (levels
    /// `s − 1` and `s − 2` in and out of range), and rows spanning
    /// several words.
    #[test]
    fn exact_matches_reference(
        n in 6u16..14,
        b in 4u64..300,
        r in 1u16..=5,
        k in 1u16..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n);
        let p = placement(n, b, r, seed);
        for s in 1..=r {
            let kernel = exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
            let oracle = reference::exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
            prop_assert_eq!(kernel.failed, oracle.failed, "s={} k={}", s, k);
            prop_assert!(kernel.exact && oracle.exact);
            prop_assert_eq!(
                p.failed_objects(&kernel.nodes, s), kernel.failed,
                "kernel witness s={} k={}", s, k
            );
            for threads in [2usize, 8] {
                let split = exact_worst_parallel(
                    &p, s, k, u64::MAX, 0, Parallelism::new(threads),
                ).expect("no budget");
                prop_assert_eq!(&split, &kernel, "threads={} s={} k={}", threads, s, k);
            }
        }
    }
}

/// Catalog scale: at b = 70,000 the production greedy, local-search
/// and full-ladder rungs must still reproduce the scalar reference ladder — same greedy and
/// local-search `WorstCase`, the exact optimum — with every witness
/// recounting to its claim.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scalar reference at b = 70,000 takes ~17 s in debug; run with --release"
)]
fn catalog_scale_ladder_matches_reference() {
    let cfg = AdversaryConfig::default();
    for (n, seed) in [(12u16, 0x7000u64), (14, 0x7001), (16, 0x7002)] {
        let p = placement(n, 70_000, 3, seed);
        for s in 1..=3u16 {
            for k in 1..=3u16 {
                let ctx = format!("n={n} s={s} k={k}");
                let greedy = greedy_worst(&p, s, k);
                assert_eq!(greedy, reference::greedy_worst(&p, s, k), "greedy {ctx}");
                let ls = local_search_worst(&p, s, k, &cfg);
                assert_eq!(
                    ls,
                    reference::local_search_worst(&p, s, k, &cfg),
                    "local search {ctx}"
                );
                let ladder = Ladder::new(&cfg).run(&p, s, k).worst;
                let oracle = reference::exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
                assert!(ladder.exact && oracle.exact, "exact {ctx}");
                assert_eq!(ladder.failed, oracle.failed, "ladder {ctx}");
                for wc in [&greedy, &ls, &ladder] {
                    assert_eq!(p.failed_objects(&wc.nodes, s), wc.failed, "witness {ctx}");
                }
            }
        }
    }
}

/// The acceptance shape (n=71, b=1200, r=3, s=2, k=3): kernel and
/// reference ladders agree end to end; sized for CI, exercised harder
/// by the benchmark.
#[test]
fn acceptance_shape_parity() {
    let p = placement(71, 1200, 3, 0xace5);
    let cfg = AdversaryConfig::default();
    let kernel = local_search_worst(&p, 2, 3, &cfg);
    let oracle = reference::local_search_worst(&p, 2, 3, &cfg);
    assert_eq!(kernel, oracle);
    assert_eq!(p.failed_objects(&kernel.nodes, 2), kernel.failed);
    assert_eq!(greedy_worst(&p, 2, 3), reference::greedy_worst(&p, 2, 3));
}

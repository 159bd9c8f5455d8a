//! Differential property suite for the histogram backend: above the
//! `hist_threshold` the heuristic rungs run on per-(node, load-class)
//! counts instead of per-object bit-planes, and that backend swap must
//! be *decision-invisible* — identical failed counts, witnesses and
//! exactness to the packed kernel and to the scalar reference ladder.
//!
//! The shapes are random subsamples of larger placements (see
//! [`Placement::subsample`]): subsampling preserves per-object replica
//! sets exactly, so class weights shrink but the class structure — and
//! any backend disagreement hiding in it — survives into a shape cheap
//! enough for the scalar oracle.

use proptest::prelude::*;
use wcp_adversary::{
    local_search_worst_with, reference, AdversaryConfig, AdversaryScratch, Ladder,
};
use wcp_core::{Placement, RandomStrategy, RandomVariant, SystemParams};

fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("sample")
}

/// Every object count takes the histogram path.
fn hist_cfg() -> AdversaryConfig {
    AdversaryConfig {
        hist_threshold: 0,
        ..AdversaryConfig::default()
    }
}

/// No object count takes the histogram path.
fn packed_cfg() -> AdversaryConfig {
    AdversaryConfig {
        hist_threshold: u64::MAX,
        ..AdversaryConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Histogram ≡ packed ≡ scalar on the local-search rung, across
    /// random subsampled shapes and every `s ≤ r`.
    #[test]
    fn hist_local_search_matches_packed_and_scalar(
        n in 5u16..26,
        b in 40u64..600,
        r in 1u16..=4,
        k in 1u16..=5,
        stride in 1usize..16,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n);
        let p = placement(n, b, r, seed).subsample(stride);
        let mut hist_scratch = AdversaryScratch::new();
        let mut packed_scratch = AdversaryScratch::new();
        for s in 1..=r {
            let hist = local_search_worst_with(&p, s, k, &hist_cfg(), &mut hist_scratch);
            let packed = local_search_worst_with(&p, s, k, &packed_cfg(), &mut packed_scratch);
            prop_assert_eq!(&hist, &packed, "hist vs packed, s={} k={}", s, k);
            let scalar = reference::local_search_worst(&p, s, k, &hist_cfg());
            prop_assert_eq!(&hist, &scalar, "hist vs scalar, s={} k={}", s, k);
            prop_assert_eq!(
                p.failed_objects(&hist.nodes, s), hist.failed,
                "witness recount s={} k={}", s, k
            );
        }
    }

    /// The full auto ladder (heuristic rungs + exact rung + merge) gives
    /// the same verdict whichever backend the heuristic rungs use — the
    /// exact rung falls back to packed planes either way — and the
    /// verdict's witness recounts correctly under the scalar oracle.
    #[test]
    fn hist_auto_ladder_matches_packed_ladder(
        n in 5u16..20,
        b in 40u64..400,
        r in 2u16..=4,
        k in 1u16..=4,
        stride in 1usize..12,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n);
        let p = placement(n, b, r, seed).subsample(stride);
        let mut hist_scratch = AdversaryScratch::new();
        let mut packed_scratch = AdversaryScratch::new();
        for s in 1..=r.min(3) {
            let hist = Ladder::new(&hist_cfg()).scratch(&mut hist_scratch).run(&p, s, k).worst;
            let packed = Ladder::new(&packed_cfg()).scratch(&mut packed_scratch).run(&p, s, k).worst;
            prop_assert_eq!(&hist, &packed, "auto ladder, s={} k={}", s, k);
            prop_assert_eq!(
                p.failed_objects(&hist.nodes, s), hist.failed,
                "auto witness recount s={} k={}", s, k
            );
        }
    }
}

/// The backend-selection threshold itself: just below it the ladder
/// binds packed planes, at and above it the histogram — and both give
/// the same verdict on the same placement.
#[test]
fn threshold_boundary_is_decision_invisible() {
    let p = placement(23, 500, 3, 0x5ca1e);
    let below = AdversaryConfig {
        hist_threshold: 501,
        ..AdversaryConfig::default()
    };
    let at = AdversaryConfig {
        hist_threshold: 500,
        ..AdversaryConfig::default()
    };
    assert!(!below.uses_histogram(p.num_objects()));
    assert!(at.uses_histogram(p.num_objects()));
    let mut s1 = AdversaryScratch::new();
    let mut s2 = AdversaryScratch::new();
    assert_eq!(
        Ladder::new(&below).scratch(&mut s1).run(&p, 2, 3).worst,
        Ladder::new(&at).scratch(&mut s2).run(&p, 2, 3).worst,
    );
}

/// A scratch whose histogram state was bound once keeps agreeing with
/// the scalar oracle when rebound across mismatched shapes — buffer
/// reuse is invisible, mirroring the packed kernel's rebind guarantee.
#[test]
fn hist_rebind_reuse_across_mismatched_shapes() {
    let shapes: [(u16, u64, u16, u16, usize); 4] = [
        (12, 300, 3, 3, 2),
        (7, 80, 2, 2, 1),
        (19, 500, 4, 4, 5),
        (9, 64, 3, 2, 3),
    ];
    let mut scratch = AdversaryScratch::new();
    for (i, (n, b, r, k, stride)) in shapes.into_iter().enumerate() {
        let p = placement(n, b, r, 0xbeef ^ i as u64).subsample(stride);
        for s in 1..=r {
            let hist = local_search_worst_with(&p, s, k, &hist_cfg(), &mut scratch);
            let scalar = reference::local_search_worst(&p, s, k, &hist_cfg());
            assert_eq!(hist, scalar, "shape {i}, s={s}");
        }
    }
}

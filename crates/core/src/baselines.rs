//! Baseline placement strategies from the systems literature, for
//! comparison against the paper's packing-based ones.
//!
//! * [`ring_placement`] — chained declustering / consecutive placement:
//!   object `i` lives on nodes `{i, i+1, …, i+r−1} (mod n)`. Ubiquitous
//!   in practice (consistent hashing with `r` successors); its worst case
//!   is easy for an adversary — `k` *consecutive* failures wipe out every
//!   object whose window covers `s` of them ([`ring_worst_failures`]
//!   gives the closed form, proven tight in the tests).
//! * [`group_placement`] — disjoint replica groups (the "copyset"-style
//!   extreme): nodes are split into `⌊n/r⌋` groups of `r`; each object
//!   picks one group. Minimizes the *number* of affected objects per
//!   failure pattern but concentrates damage: `k` failures inside one
//!   group kill *all* of its objects at `s ≤ k`.
//!
//! Both are `O(b)` to build and make instructive comparison points in the
//! examples and tests: the paper's `Simple`/`Combo` placements dominate
//! ring placement at every parameter we exercise, while group placement
//! wins or loses depending on how `b/⌊n/r⌋` compares to the packing
//! bound — exactly the overlap trade-off the paper's introduction
//! discusses.

use crate::{Placement, PlacementError, SystemParams};

/// Chained-declustering placement: object `i` on `r` consecutive nodes
/// starting at `i mod n`.
///
/// # Errors
///
/// Propagates [`Placement::from_rows`] validation (never fails for valid
/// [`SystemParams`]).
///
/// # Examples
///
/// ```
/// use wcp_core::{baselines::ring_placement, SystemParams};
///
/// let params = SystemParams::new(10, 20, 3, 2, 3)?;
/// let p = ring_placement(&params)?;
/// assert_eq!(p.replicas(0), &[0, 1, 2]);
/// assert_eq!(p.replicas(9), &[0, 1, 9]); // wraps around
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
pub fn ring_placement(params: &SystemParams) -> Result<Placement, PlacementError> {
    let n = usize::from(params.n());
    let r = usize::from(params.r());
    let b = usize::try_from(params.b()).expect("b fits usize");
    let mut rows: Vec<u16> = (0..b * r).map(|i| ((i / r + i % r) % n) as u16).collect();
    for set in rows.chunks_exact_mut(r) {
        set.sort_unstable();
    }
    Placement::from_rows(params.n(), params.r(), rows)
}

/// Disjoint-group placement: node groups `{0..r}, {r..2r}, …`; object `i`
/// uses group `i mod ⌊n/r⌋`.
///
/// # Errors
///
/// Propagates [`Placement::from_rows`] validation.
pub fn group_placement(params: &SystemParams) -> Result<Placement, PlacementError> {
    let n = usize::from(params.n());
    let r = usize::from(params.r());
    let groups = n / r;
    let b = usize::try_from(params.b()).expect("b fits usize");
    // Entry j of object i's row is node (i mod groups)·r + j.
    let rows: Vec<u16> = (0..b * r)
        .map(|i| (i / r % groups * r + i % r) as u16)
        .collect();
    Placement::from_rows(params.n(), params.r(), rows)
}

/// Single-arc worst-case failures for [`ring_placement`], with `b` a
/// multiple of `n` (every start offset equally loaded): failing `k`
/// **consecutive** nodes kills exactly
/// `(b/n)·(k − s + 1 + min(r − s, n − k))` objects when `k ≥ s` — the
/// `k−s+1` windows fully determined inside the failed arc plus the
/// windows entering it from the left with overlap ≥ s.
///
/// The single arc is provably the adversary's optimum at `s = r`
/// (windows must lie fully inside the failed set; `m` arcs contain at
/// most `k − m(r−1)` windows). At `s < r` it is **not** always optimal,
/// even under majority thresholds `2s − 1 ≥ r`: splitting gains outright
/// for `2s − 1 < r` (each length-`s` arc buys `r − 2s + 1` extra kills;
/// see the `splitting_beats_single_arc` test), and at the boundary
/// `2s − 1 = r` unit-gap patterns such as `{0, 1, 3, 4}` at
/// `(n, r, s, k) = (9, 3, 2, 4)` let windows straddle a gap while still
/// collecting `s` hits (see `unit_gaps_beat_single_arc_at_boundary`).
/// Treat the value as the damage of one concrete attack — a lower bound
/// on the true worst case — unless `s = r`.
///
/// # Panics
///
/// Debug-asserts the regime and divisibility assumptions.
#[must_use]
pub fn ring_worst_failures(params: &SystemParams) -> u64 {
    let (n, r, s, k, b) = (
        u64::from(params.n()),
        u64::from(params.r()),
        u64::from(params.s()),
        u64::from(params.k()),
        params.b(),
    );
    debug_assert!(b.is_multiple_of(n), "closed form assumes b ≡ 0 (mod n)");
    if k < s {
        return 0;
    }
    let per_offset = b / n;
    // Start offsets killed by the arc [0, k): starts 0..=k−s hit ≥ s
    // failed nodes from inside; starts n−1, n−2, … (windows entering the
    // arc from the left) contribute while the overlap r − (n − start) ≥ s,
    // bounded by r − s and by not double-counting offsets already inside.
    let inside = k - s + 1;
    let entering = (r - s).min(n - k);
    per_offset * (inside + entering)
}

/// Worst-case failed objects for [`group_placement`], in closed form.
///
/// An object's replicas are exactly its group's `r` nodes, so the
/// adversary kills a whole group by failing any `s` of its nodes; with a
/// budget of `k` nodes it wipes out the `⌊k/s⌋` most-loaded groups and
/// gains nothing from the `k mod s < s` leftover nodes. Round-robin
/// assignment makes the first `b mod ⌊n/r⌋` groups one object heavier.
#[must_use]
pub fn group_worst_failures(params: &SystemParams) -> u64 {
    let groups = u64::from(params.n() / params.r());
    let killed = (u64::from(params.k()) / u64::from(params.s())).min(groups);
    let per = params.b() / groups;
    let heavier = params.b() % groups;
    if killed <= heavier {
        killed * (per + 1)
    } else {
        heavier * (per + 1) + (killed - heavier) * per
    }
}

/// [`ring_placement`] behind the unified [`crate::PlacementStrategy`]
/// API.
///
/// Its lower bound is the *exact* worst case `b − ring_worst_failures`
/// when that is provable — `s = r` (a window dies only when fully
/// contained in the failed set, and among any `m` failed arcs the
/// contained-window count `k − m(r−1)` is maximized by one arc) with
/// `b ≡ 0 (mod n)` — and the vacuous 0 otherwise. At `s < r` even the
/// single-arc regime `2s − 1 ≥ r` is not safe: see the counterexample
/// on [`ring_worst_failures`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStrategy;

impl crate::PlacementStrategy for RingStrategy {
    fn name(&self) -> &str {
        "ring"
    }

    fn lower_bound(&self, params: &SystemParams) -> i64 {
        let (n, b) = (u64::from(params.n()), params.b());
        if params.s() == params.r() && b.is_multiple_of(n) {
            b as i64 - ring_worst_failures(params) as i64
        } else {
            0
        }
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        ring_placement(params)
    }
}

/// [`group_placement`] behind the unified [`crate::PlacementStrategy`]
/// API; its lower bound is the exact `b −` [`group_worst_failures`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStrategy;

impl crate::PlacementStrategy for GroupStrategy {
    fn name(&self) -> &str {
        "group"
    }

    fn lower_bound(&self, params: &SystemParams) -> i64 {
        params.b() as i64 - group_worst_failures(params) as i64
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        group_placement(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_combin::KSubsets;

    fn brute_force(p: &Placement, s: u16, k: u16) -> u64 {
        KSubsets::new(p.num_nodes(), k)
            .map(|subset| p.failed_objects(&subset, s))
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn unit_gaps_beat_single_arc_at_boundary() {
        // At 2s − 1 = r the single-arc formula is NOT the worst case for
        // every k: with (n, r, s, k) = (9, 3, 2, 4) the pattern
        // {0, 1, 3, 4} kills 5 window offsets (windows straddle the unit
        // gap with 2 hits) against the arc's 4.
        let params = SystemParams::new(9, 27, 3, 2, 4).unwrap();
        let p = ring_placement(&params).unwrap();
        assert_eq!(p.failed_objects(&[0, 1, 3, 4], 2), 15);
        assert_eq!(ring_worst_failures(&params), 12); // single arc only
        assert_eq!(brute_force(&p, 2, 4), 15);
    }

    #[test]
    fn ring_closed_form_matches_brute_force() {
        // Points where the single arc happens to be optimal.
        for (n, r, s, k) in [
            (10u16, 3u16, 2u16, 3u16),
            (10, 3, 3, 4),
            (10, 2, 2, 2),
            (12, 4, 3, 5),
            (12, 5, 3, 4),
            (11, 5, 4, 6),
            (11, 5, 5, 7),
        ] {
            let b = u64::from(n) * 3;
            let params = SystemParams::new(n, b, r, s, k).unwrap();
            let p = ring_placement(&params).unwrap();
            assert_eq!(
                ring_worst_failures(&params),
                brute_force(&p, s, k),
                "n={n} r={r} s={s} k={k}"
            );
        }
    }

    #[test]
    fn splitting_beats_single_arc() {
        // Outside the regime (s = 1): two isolated failures kill 2r
        // windows, strictly more than one arc of 2 (r + 1).
        let params = SystemParams::new(9, 27, 3, 1, 2).unwrap();
        let p = ring_placement(&params).unwrap();
        let single_arc_kills = 3 * (2 - 1 + 1 + 2u64); // (b/n)·(inside + entering)
        let actual = brute_force(&p, 1, 2);
        assert!(actual > single_arc_kills, "{actual} vs {single_arc_kills}");
        assert_eq!(actual, 18); // 2 nodes × r=3 windows × 3 objects each
    }

    #[test]
    fn group_placement_damage_is_concentrated() {
        // k = r failures aimed at one group kill exactly the objects of
        // that group (b/groups of them) at any s ≤ r.
        let params = SystemParams::new(12, 120, 3, 2, 3).unwrap();
        let p = group_placement(&params).unwrap();
        let per_group = 120 / (12 / 3);
        assert_eq!(brute_force(&p, 2, 3), per_group);
        // …but k < s failures spread across groups kill nothing.
        assert_eq!(brute_force(&p, 2, 1), 0);
    }

    #[test]
    fn ring_loads_are_balanced() {
        let params = SystemParams::new(10, 50, 3, 2, 3).unwrap();
        let p = ring_placement(&params).unwrap();
        let loads = p.loads();
        assert_eq!(loads.iter().sum::<u32>(), 150);
        assert!(loads.iter().all(|&l| l == 15));
    }

    #[test]
    fn group_closed_form_matches_brute_force() {
        for (n, b, r, s, k) in [
            (12u16, 120u64, 3u16, 2u16, 3u16),
            (12, 121, 3, 2, 5),
            (12, 50, 4, 2, 6),
            (15, 33, 5, 3, 7),
            (10, 40, 3, 1, 4),
            (9, 27, 3, 3, 8),
        ] {
            let params = SystemParams::new(n, b, r, s, k).unwrap();
            let p = group_placement(&params).unwrap();
            assert_eq!(
                group_worst_failures(&params),
                brute_force(&p, s, k),
                "n={n} b={b} r={r} s={s} k={k}"
            );
        }
    }

    #[test]
    fn baseline_strategy_bounds_are_tight_or_vacuous() {
        use crate::PlacementStrategy;
        let ring = RingStrategy;
        // Ring at s = r: the single-arc bound is provably exact.
        let params = SystemParams::new(10, 30, 3, 3, 4).unwrap();
        let p = ring.build(&params).unwrap();
        assert_eq!(ring.lower_bound(&params), 30 - brute_force(&p, 3, 4) as i64);
        // At s < r the ring claims only the vacuous 0 (see
        // `unit_gaps_beat_single_arc_at_boundary`).
        let params2 = SystemParams::new(10, 30, 3, 2, 3).unwrap();
        assert_eq!(ring.lower_bound(&params2), 0);
        // Group bound is always exact.
        let group = GroupStrategy;
        let pg = group.build(&params2).unwrap();
        assert_eq!(
            group.lower_bound(&params2),
            30 - brute_force(&pg, 2, 3) as i64
        );
    }

    #[test]
    fn packing_beats_ring_under_attack() {
        // The motivating comparison: same parameters, exact adversary,
        // STS-backed Simple placement loses fewer objects than the ring.
        use wcp_designs::registry::RegistryConfig;
        let params = SystemParams::new(13, 26, 3, 2, 4).unwrap();
        let ring = ring_placement(&params).unwrap();
        let ring_failed = brute_force(&ring, 2, 4);
        let simple =
            crate::SimpleStrategy::plan_constructive(1, &params, &RegistryConfig::default())
                .unwrap()
                .build(26)
                .unwrap();
        let simple_failed = brute_force(&simple, 2, 4);
        assert!(
            simple_failed < ring_failed,
            "packing {simple_failed} vs ring {ring_failed}"
        );
    }
}

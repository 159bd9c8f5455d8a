//! Differential test oracle for the dynamic-membership subsystem.
//!
//! The incremental path (`DynamicEngine` repairing a live placement
//! event by event) is checked against the from-scratch path (a fresh
//! `Engine` plan → build → exact attack at the current membership — the
//! oracle): after *every* event of a churn trace,
//!
//! 1. the repaired placement must satisfy every `Placement` invariant
//!    plus the dynamic one (no replica on a down slot),
//! 2. its worst-case availability under the exact adversary must be
//!    within the configured degradation threshold of the oracle's, and
//! 3. for deterministic strategies the engine's internal oracle must
//!    *equal* an independently computed `Engine` evaluation (the
//!    differential check proper).
//!
//! The acceptance-scale trace (n = 71, b = 1200, r = 3, s = 2, k = 3,
//! 200 events) additionally bounds movement: incremental repair must
//! move < 20% of the replicas the per-event full replans would have.

use proptest::prelude::*;
use worst_case_placement::prelude::*;

/// The exact adversary used everywhere in this suite (default budgets
/// prove the worst case at every size exercised here).
fn attacker() -> ScratchAdversary {
    ScratchAdversary::new(AdversaryConfig::default())
}

/// Replays `trace` through a `DynamicEngine`, asserting the per-event
/// invariants; returns the movement report.
fn replay_checked(
    params: SystemParams,
    kind: StrategyKind,
    trace: &ChurnTrace,
    threshold: f64,
    cross_check_oracle: bool,
) -> MovementReport {
    let config = DynamicConfig { threshold };
    let mut engine =
        DynamicEngine::with_attacker(params, kind.clone(), trace.capacity, config, attacker())
            .expect("initial plan");
    let slack = threshold * params.b() as f64;
    for (i, event) in trace.events.iter().enumerate() {
        let step = engine.apply(event.into()).expect("legal trace event");
        engine.validate().unwrap_or_else(|e| {
            panic!(
                "{}: invariants violated after event {i} ({event:?}): {e}",
                kind.label()
            )
        });
        assert!(
            step.exact && step.oracle_exact,
            "{}: event {i} not attacked exactly: {step:?}",
            kind.label()
        );
        assert!(
            step.availability as f64 >= step.oracle_availability as f64 - slack - 1e-9,
            "{}: event {i} degrades past threshold: {step:?}",
            kind.label()
        );
        // The attacker is sound: re-counting the witness equals the claim.
        if cross_check_oracle {
            // The from-scratch Engine is the oracle: at the current
            // membership, planning the same deterministic strategy on the
            // compact node set and attacking it exactly must reproduce the
            // engine's internal oracle availability.
            let compact =
                SystemParams::new(step.active, params.b(), params.r(), params.s(), params.k())
                    .expect("active membership is a valid size");
            let oracle = Engine::with_attacker(compact, AdversaryConfig::default())
                .evaluate(&kind)
                .expect("oracle evaluates");
            assert!(oracle.exact);
            assert_eq!(
                oracle.measured_availability,
                step.oracle_availability,
                "{}: event {i}: internal oracle diverges from from-scratch Engine",
                kind.label()
            );
        }
    }
    *engine.movement()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every event of a random trace keeps the incrementally repaired
    /// placement valid and within threshold of the from-scratch oracle,
    /// and the engine's internal oracle matches an independent `Engine`
    /// evaluation (ring is deterministic, so equality is exact).
    #[test]
    fn repaired_placement_tracks_the_oracle(
        n in 10u16..14,
        spare in 0u16..4,
        b in 20u64..50,
        events in 10usize..25,
        seed in 0u64..1000,
    ) {
        let params = SystemParams::new(n, b, 3, 2, 3).expect("valid");
        let trace = ChurnSpec {
            seed_index: seed,
            ..ChurnSpec::new("diff-prop", n + spare, n, events)
        }
        .generate();
        let movement = replay_checked(params, StrategyKind::Ring, &trace, 0.05, true);
        prop_assert_eq!(movement.events, trace.len() as u64);
        prop_assert_eq!(movement.repairs + movement.replans, movement.events);
    }

    /// The same invariants hold for the seeded Random strategy (whose
    /// replans the engine plans with the same seed, keeping the internal
    /// oracle reproducible).
    #[test]
    fn random_strategy_tracks_the_oracle(
        seed in 0u64..500,
        events in 10usize..20,
    ) {
        let params = SystemParams::new(12, 36, 3, 2, 3).expect("valid");
        let kind = StrategyKind::Random { seed: 0x5eed, variant: RandomVariant::LoadBalanced };
        let trace = ChurnSpec {
            seed_index: seed,
            ..ChurnSpec::new("diff-rand", 15, 12, events)
        }
        .generate();
        let movement = replay_checked(params, kind, &trace, 0.05, true);
        prop_assert_eq!(movement.events, trace.len() as u64);
    }
}

/// A mid-size trace that runs in debug builds too: every strategy-family
/// representative survives churn with the differential guarantees.
#[test]
fn medium_trace_all_families() {
    let params = SystemParams::new(31, 120, 3, 2, 3).expect("valid");
    let trace = ChurnSpec::new("diff-medium", 36, 31, 30).generate();
    for kind in [
        StrategyKind::Combo,
        StrategyKind::Ring,
        StrategyKind::Group,
        StrategyKind::parse_spec("random").expect("builtin"),
    ] {
        // Combo/Group replan through the fallback at unconstructible
        // sizes, so only deterministic always-constructible kinds get the
        // exact-equality oracle cross-check.
        let cross_check = kind == StrategyKind::Ring;
        replay_checked(params, kind, &trace, 0.05, cross_check);
    }
}

/// The acceptance-scale criterion (exact adversary at n = 71 is
/// release-only; CI runs this via `cargo test --release`): on a
/// 200-event seeded trace at (n=71, b=1200, r=3, s=2, k=3), incremental
/// repair moves < 20% of what per-event full replans would move, while
/// availability stays within the configured threshold of the oracle at
/// every event.
#[cfg_attr(
    debug_assertions,
    ignore = "exact adversary at n=71/b=1200 × 200 events is release-only; CI runs cargo test --release --test dynamic_differential"
)]
#[test]
fn acceptance_200_event_trace() {
    let params = SystemParams::new(71, 1200, 3, 2, 3).expect("valid");
    let trace = ChurnSpec::new("acceptance", 80, 71, 200).generate();
    assert_eq!(trace.len(), 200);
    let movement = replay_checked(params, StrategyKind::Combo, &trace, 0.05, false);
    assert_eq!(movement.events, 200);
    assert!(
        movement.movement_ratio() < 0.20,
        "incremental repair moved {} of {} replicas full replans would ({}%)",
        movement.moved,
        movement.replan_moved,
        movement.movement_ratio() * 100.0
    );
}

/// Rejected events must not corrupt the engine: after an error the
/// placement still validates and further legal events apply cleanly.
#[test]
fn errors_do_not_poison_the_engine() {
    let params = SystemParams::new(13, 26, 3, 2, 3).expect("valid");
    let mut engine = DynamicEngine::with_attacker(
        params,
        StrategyKind::Ring,
        16,
        DynamicConfig::default(),
        attacker(),
    )
    .expect("plans");
    assert!(engine.apply(ClusterEvent::Join { node: 5 }).is_err()); // already up
    assert!(engine.apply(ClusterEvent::Recover { node: 14 }).is_err()); // never failed
    assert!(engine.apply(ClusterEvent::Fail { node: 99 }).is_err()); // out of range
    engine
        .validate()
        .expect("state unchanged by rejected events");
    let step = engine.apply(ClusterEvent::Fail { node: 5 }).expect("legal");
    assert_eq!(step.active, 12);
    engine.validate().expect("valid after repair");
}

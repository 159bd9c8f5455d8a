//! Trait-conformance suite: every registered `StrategyKind`, on a grid
//! of small `(n, r, s, k)` instances, must
//!
//! 1. build a structurally valid placement (`r` distinct in-range nodes
//!    per object, exactly `b` objects),
//! 2. respect its load cap where it claims one (Definition 4 for the
//!    Random family), and
//! 3. measure — under the *exact* adversary — worst-case availability at
//!    least its claimed `lower_bound` (Lemmas 2–3 for the packing
//!    strategies, the closed forms for ring/group, the vacuous 0 for
//!    Random).

use worst_case_placement::prelude::*;

/// The conformance grid: small enough for the exact adversary
/// everywhere, wide enough to hit every `x < s` slot, `s = r`, `s = 1`,
/// and both baselines' regimes.
fn grid() -> Vec<SystemParams> {
    let mut grid = Vec::new();
    for (n, b, r) in [(9u16, 27u64, 3u16), (12, 40, 3), (13, 26, 3), (16, 64, 4)] {
        for s in 1..=r.min(3) {
            for k in [s, s + 2] {
                if k < n {
                    grid.push(SystemParams::new(n, b, r, s, k).expect("valid grid point"));
                }
            }
        }
    }
    grid
}

fn check_structure(placement: &Placement, params: &SystemParams, name: &str) {
    assert_eq!(
        placement.num_objects() as u64,
        params.b(),
        "{name}: object count"
    );
    assert_eq!(placement.num_nodes(), params.n(), "{name}: node count");
    for (obj, set) in placement.rows().enumerate() {
        assert_eq!(
            set.len(),
            usize::from(params.r()),
            "{name}: object {obj} replica count"
        );
        assert!(
            set.windows(2).all(|w| w[0] < w[1]),
            "{name}: object {obj} nodes not distinct/sorted: {set:?}"
        );
        assert!(
            set.last().is_none_or(|&nd| nd < params.n()),
            "{name}: object {obj} node out of range: {set:?}"
        );
    }
}

/// The headline conformance property: plan → build → exact attack, and
/// `measured ≥ lower_bound`, for every strategy family on every grid
/// point.
#[test]
fn measured_availability_dominates_claimed_bound() {
    for params in grid() {
        let engine = Engine::with_attacker(params, AdversaryConfig::default());
        for kind in StrategyKind::all(&params) {
            let report = match engine.evaluate(&kind) {
                Ok(report) => report,
                // Not every x-slot is constructible at every tiny size.
                Err(PlacementError::Design(_)) => continue,
                Err(e) => panic!("{}: unexpected error {e}", kind.label()),
            };
            assert!(
                report.exact,
                "{}: grid instances must be exactly attackable",
                report.strategy
            );
            assert!(
                report.measured_availability as i64 >= report.lower_bound,
                "{} violates its bound at n={} b={} r={} s={} k={}: measured {} < claimed {}",
                report.strategy,
                params.n(),
                params.b(),
                params.r(),
                params.s(),
                params.k(),
                report.measured_availability,
                report.lower_bound
            );
        }
    }
}

/// Structural validity of everything every kind builds, plus the Random
/// family's Definition-4 load cap.
#[test]
fn placements_are_structurally_valid() {
    let ctx = PlannerContext::default();
    for params in grid() {
        for kind in StrategyKind::all(&params) {
            let strategy = match kind.plan(&params, &ctx) {
                Ok(strategy) => strategy,
                Err(PlacementError::Design(_)) => continue,
                Err(e) => panic!("{}: unexpected error {e}", kind.label()),
            };
            let placement = strategy.build(&params).expect("builds");
            check_structure(&placement, &params, strategy.name());
        }
    }
}

/// Definition 4: the load-balanced Random variants never exceed
/// `⌈rb/n⌉` replicas per node.
#[test]
fn random_family_respects_load_cap() {
    let ctx = PlannerContext::default();
    for params in grid() {
        let cap = RandomStrategy::load_cap(&params);
        for (seed, variant) in [
            (1u64, RandomVariant::LoadBalanced),
            (2, RandomVariant::SequentialUniform),
        ] {
            let placement = StrategyKind::Random { seed, variant }
                .plan(&params, &ctx)
                .expect("plans")
                .build(&params)
                .expect("builds");
            assert!(
                placement.max_load() <= cap,
                "variant {variant:?} exceeded cap {cap} at n={} b={}",
                params.n(),
                params.b()
            );
        }
    }
}

/// The baselines' closed-form bounds are not just valid but *tight*
/// (they claim the exact worst case) wherever they claim more than the
/// vacuous 0 — the adversary must not find anything worse.
#[test]
fn baseline_bounds_are_tight_when_nonvacuous() {
    for params in grid() {
        let engine = Engine::with_attacker(params, AdversaryConfig::default());
        for kind in [StrategyKind::Ring, StrategyKind::Group] {
            let report = engine.evaluate(&kind).expect("evaluates");
            assert!(report.exact);
            if report.lower_bound > 0 {
                assert_eq!(
                    report.measured_availability as i64,
                    report.lower_bound,
                    "{} closed form not tight at n={} b={} r={} s={} k={}",
                    report.strategy,
                    params.n(),
                    params.b(),
                    params.r(),
                    params.s(),
                    params.k()
                );
            }
        }
    }
}

/// Dynamic conformance: every registered family also survives a short
/// churn trace through the `DynamicEngine` — after every event the live
/// placement validates, the attack is exact, and availability stays
/// within the configured threshold of the engine's from-scratch oracle.
#[test]
fn every_family_survives_churn_through_the_dynamic_engine() {
    let params = SystemParams::new(13, 26, 3, 2, 3).expect("valid");
    let trace = ChurnSpec::new("conformance-dyn", 16, 13, 8).generate();
    let config = DynamicConfig { threshold: 0.05 };
    let slack = config.threshold * params.b() as f64;
    for kind in StrategyKind::all(&params) {
        let mut engine = match DynamicEngine::with_attacker(
            params,
            kind.clone(),
            trace.capacity,
            config.clone(),
            AdversaryConfig::default(),
        ) {
            Ok(engine) => engine,
            // Not every x-slot is constructible at the initial size.
            Err(DynamicError::Placement(PlacementError::Design(_))) => continue,
            Err(e) => panic!("{}: unexpected error {e}", kind.label()),
        };
        for (i, event) in trace.events.iter().enumerate() {
            let step = engine
                .apply(event.into())
                .unwrap_or_else(|e| panic!("{}: event {i} failed: {e}", kind.label()));
            engine
                .validate()
                .unwrap_or_else(|e| panic!("{}: invalid after event {i}: {e}", kind.label()));
            assert!(
                step.exact && step.oracle_exact,
                "{}: event {i} must be exactly attackable",
                kind.label()
            );
            assert!(
                step.availability as f64 >= step.oracle_availability as f64 - slack - 1e-9,
                "{}: event {i} degrades past threshold: {step:?}",
                kind.label()
            );
        }
        assert_eq!(
            engine.movement().events,
            trace.len() as u64,
            "{}",
            kind.label()
        );
    }
}

/// Topology-aware conformance: `DomainSpread` planned against real
/// (non-flat) topologies — nested zones, uneven racks, fan-out-1
/// chains — builds structurally valid placements, never co-locates two
/// replicas of one object in a rack when racks ≥ r, and degenerates to
/// its flat planning exactly when no topology is supplied.
#[test]
fn domain_spread_conforms_across_topologies() {
    let topologies = [
        Topology::split(12, &[4]).expect("4 racks"),
        Topology::split(13, &[5, 2]).expect("uneven racks in 2 zones"),
        // Fan-out-1 chain: every node its own rack, one zone above.
        Topology::split(9, &[9, 1]).expect("chain"),
    ];
    for topo in topologies {
        let n = topo.num_nodes();
        let params = SystemParams::new(n, u64::from(n) * 3, 3, 2, 3).expect("valid");
        let ctx = PlannerContext {
            topology: Some(topo.clone()),
        };
        let placement = StrategyKind::DomainSpread
            .plan(&params, &ctx)
            .expect("plans")
            .build(&params)
            .expect("builds");
        check_structure(&placement, &params, "domain-spread");
        if topo.num_levels() > 0 && topo.domains_at(1) >= params.r() {
            for set in placement.rows() {
                let mut racks: Vec<u16> = set.iter().map(|&nd| topo.domain_of(nd, 1)).collect();
                racks.sort_unstable();
                racks.dedup();
                assert_eq!(
                    racks.len(),
                    usize::from(params.r()),
                    "replicas share a rack under {topo:?}: {set:?}"
                );
            }
        }
    }
    // No topology in the context ⇒ the strategy plans against the flat
    // tree; supplying the flat tree explicitly must be identical.
    let params = SystemParams::new(12, 36, 3, 2, 3).expect("valid");
    let implicit = StrategyKind::DomainSpread
        .plan(&params, &PlannerContext::default())
        .expect("plans")
        .build(&params)
        .expect("builds");
    let explicit = StrategyKind::DomainSpread
        .plan(
            &params,
            &PlannerContext {
                topology: Some(Topology::flat(12)),
            },
        )
        .expect("plans")
        .build(&params)
        .expect("builds");
    assert_eq!(implicit, explicit);
}

/// The repair wrapper conformance: every family's placement, wrapped in
/// `DomainRepaired`, stays structurally valid and ends rack-collision
/// free when racks ≥ r.
#[test]
fn domain_repair_wrapper_conforms_for_every_family() {
    let topo = Topology::split(12, &[4]).expect("4 racks");
    let params = SystemParams::new(12, 36, 3, 2, 3).expect("valid");
    let ctx = PlannerContext {
        topology: Some(topo.clone()),
    };
    for kind in StrategyKind::all(&params) {
        let inner = match kind.plan(&params, &ctx) {
            Ok(strategy) => strategy,
            Err(PlacementError::Design(_)) => continue,
            Err(e) => panic!("{}: unexpected error {e}", kind.label()),
        };
        let wrapped = DomainRepaired::new(inner, topo.clone());
        let placement = wrapped.build(&params).expect("repairs");
        check_structure(&placement, &params, wrapped.name());
        for set in placement.rows() {
            let mut racks: Vec<u16> = set.iter().map(|&nd| topo.domain_of(nd, 1)).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(
                racks.len(),
                usize::from(params.r()),
                "{}: unresolved collision {set:?}",
                wrapped.name()
            );
        }
    }
}

/// Every family evaluated under the *domain* adversary: the engine
/// pipeline accepts a `DomainAttacker`, the witness leaf set achieves
/// the reported damage, and the domain adversary is never weaker than
/// the per-node adversary on the same placement (a rack superset of
/// every leaf choice is always available).
#[test]
fn domain_adversary_dominates_node_adversary_for_every_family() {
    let topo = Topology::split(12, &[4]).expect("4 racks");
    let params = SystemParams::new(12, 36, 3, 2, 2).expect("valid");
    let ctx = PlannerContext {
        topology: Some(topo.clone()),
    };
    let node_engine =
        Engine::with_attacker(params, AdversaryConfig::default()).with_context(ctx.clone());
    let domain_engine = Engine::with_attacker(params, DomainAttacker::new(topo)).with_context(ctx);
    for kind in StrategyKind::all(&params) {
        let node = match node_engine.evaluate(&kind) {
            Ok(report) => report,
            Err(PlacementError::Design(_)) => continue,
            Err(e) => panic!("{}: unexpected error {e}", kind.label()),
        };
        let domain = domain_engine.evaluate(&kind).expect("evaluates");
        assert!(
            domain.exact,
            "{}: grid instance must be exact",
            kind.label()
        );
        assert!(
            domain.measured_availability <= node.measured_availability,
            "{}: domain adversary weaker than node adversary ({} > {})",
            kind.label(),
            domain.measured_availability,
            node.measured_availability
        );
    }
}

/// Reports serialize to JSON for every family (the serving-layer
/// contract of `EvaluationReport`).
#[test]
fn every_report_serializes() {
    let params = SystemParams::new(13, 26, 3, 2, 3).expect("valid");
    let engine = Engine::with_attacker(params, AdversaryConfig::default());
    for report in engine.evaluate_all().expect("sweep") {
        let json = report.to_json();
        assert!(json.contains(&format!("\"strategy\": {:?}", report.strategy)));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

//! Differential property suite for the domain adversary:
//!
//! 1. **flat ≡ node**: on the flat topology the unit move set must
//!    reproduce the per-node adversary's [`WorstCase`] *bit for bit* —
//!    same failed count, same witness node set, same exactness — for
//!    greedy, local search and the exact DFS, and the certified domain
//!    ladder must return the node ladder's outcome and certificate,
//!    relabelled, at every exact budget;
//! 2. **kernel ≡ scalar reference**: across random multi-level
//!    topologies and placements, the kernel's unit heuristics reproduce
//!    the scalar leaf-set ladder in [`reference`] exactly, and its
//!    exact rung reaches the reference optimum;
//! 3. the exact domain search must match brute-force enumeration over
//!    all `k`-subsets of failure units.
//!
//! [`WorstCase`]: wcp_adversary::WorstCase

use proptest::prelude::*;
use wcp_adversary::{
    domain_exact_worst, domain_greedy_worst, domain_local_search_worst, exact_worst, greedy_worst,
    local_search_worst, reference, AdversaryConfig, Ladder,
};
use wcp_adversary::{DomainLadderOutcome, DomainWorstCase, LadderOutcome};
use wcp_combin::KSubsets;
use wcp_core::{CertificateKind, Placement, RandomStrategy, RandomVariant, SystemParams, Topology};

fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("sample")
}

/// A seeded two-level topology over `n` nodes: `racks` bottom domains,
/// optionally grouped into `zones`.
fn topology(n: u16, racks: u16, zones: u16) -> Topology {
    if zones > 0 {
        Topology::split(n, &[racks, zones]).expect("valid split")
    } else {
        Topology::split(n, &[racks]).expect("valid split")
    }
}

/// The leaf union of an explicit unit subset, from the definition.
fn leaves_of(topo: &Topology, units: impl IntoIterator<Item = usize>) -> Vec<u16> {
    let all = topo.failure_units();
    let mut nodes: Vec<u16> = units
        .into_iter()
        .flat_map(|u| all[u].nodes.iter().copied())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Failed objects for an explicit unit subset, from the definition.
fn failed_by_units(p: &Placement, topo: &Topology, units: &[u16], s: u16) -> u64 {
    p.failed_objects(&leaves_of(topo, units.iter().map(|&u| usize::from(u))), s)
}

/// Unit brute force: the most objects any `k` failure units fail.
fn brute_force_units(p: &Placement, topo: &Topology, s: u16, k: u16) -> u64 {
    let units = topo.failure_units().len() as u16;
    KSubsets::new(units, k)
        .map(|subset| failed_by_units(p, topo, &subset, s))
        .max()
        .unwrap_or(0)
}

/// A node-ladder outcome as the flat topology's domain outcome: every
/// node is its own unit, and the certificate is a domain certificate
/// whose rungs record their witness nodes as units.
fn relabelled(node: LadderOutcome) -> DomainLadderOutcome {
    let units = |nodes: &[u16]| nodes.iter().map(|&nd| u32::from(nd)).collect::<Vec<u32>>();
    let certificate = node.certificate.map(|mut cert| {
        cert.kind = CertificateKind::Domain;
        for rung in &mut cert.rungs {
            rung.units = units(&rung.witness);
        }
        cert
    });
    DomainLadderOutcome {
        worst: DomainWorstCase {
            failed: node.worst.failed,
            units: units(&node.worst.nodes),
            nodes: node.worst.nodes,
            exact: node.worst.exact,
        },
        certificate,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat topology ≡ the per-node adversary, WorstCase bit for bit,
    /// across the whole ladder; at the default and two starved exact
    /// budgets the certified domain ladder is the node ladder,
    /// relabelled.
    #[test]
    fn flat_topology_reproduces_node_adversary(
        n in 6u16..24,
        b in 4u64..150,
        r in 2u16..=4,
        k in 1u16..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n && k < n);
        let p = placement(n, b, r, seed);
        let flat = Topology::flat(n);
        let cfg = AdversaryConfig::default();
        for s in 1..=r {
            let node = greedy_worst(&p, s, k);
            let dom = domain_greedy_worst(&p, &flat, s, k);
            prop_assert_eq!(&dom.nodes, &node.nodes, "greedy witness s={} k={}", s, k);
            prop_assert_eq!(dom.failed, node.failed, "greedy s={} k={}", s, k);
            let units: Vec<u32> = dom.nodes.iter().map(|&nd| u32::from(nd)).collect();
            prop_assert_eq!(&dom.units, &units, "flat units are the leaves");

            let node = local_search_worst(&p, s, k, &cfg);
            let dom = domain_local_search_worst(&p, &flat, s, k, &cfg);
            prop_assert_eq!(&dom.nodes, &node.nodes, "ls witness s={} k={}", s, k);
            prop_assert_eq!((dom.failed, dom.exact), (node.failed, node.exact));

            let node = exact_worst(&p, s, k, u64::MAX, 0).expect("no budget");
            let dom = domain_exact_worst(&p, &flat, s, k, u64::MAX, 0).expect("no budget");
            prop_assert_eq!(&dom.nodes, &node.nodes, "exact witness s={} k={}", s, k);
            prop_assert_eq!((dom.failed, dom.exact), (node.failed, node.exact));

            for exact_budget in [cfg.exact_budget, 3, 5] {
                let budgeted = AdversaryConfig { exact_budget, ..AdversaryConfig::default() };
                let node = Ladder::new(&budgeted).certified().run(&p, s, k);
                let dom = Ladder::new(&budgeted).certified().run_domain(&p, &flat, s, k);
                prop_assert_eq!(
                    dom, relabelled(node),
                    "ladder s={} k={} budget={}", s, k, exact_budget
                );
            }
        }
    }

    /// Kernel ≡ scalar reference across random multi-level topologies:
    /// full `DomainWorstCase` equality for the heuristic rungs, the
    /// reference optimum for the exact rung and the ladder.
    #[test]
    fn packed_domain_ladder_matches_scalar_reference(
        n in 6u16..22,
        b in 4u64..120,
        r in 2u16..=4,
        racks in 2u16..=6,
        zones in 0u16..=2,
        k in 1u16..=4,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n && racks <= n && (zones == 0 || zones <= racks));
        let p = placement(n, b, r, seed);
        let topo = topology(n, racks, zones);
        let cfg = AdversaryConfig::default();
        for s in 1..=r {
            prop_assert_eq!(
                domain_greedy_worst(&p, &topo, s, k),
                reference::domain_greedy_worst(&p, &topo, s, k),
                "greedy s={} k={}", s, k
            );
            prop_assert_eq!(
                domain_local_search_worst(&p, &topo, s, k, &cfg),
                reference::domain_local_search_worst(&p, &topo, s, k, &cfg),
                "local search s={} k={}", s, k
            );
            let kernel = domain_exact_worst(&p, &topo, s, k, u64::MAX, 0).expect("no budget");
            let oracle = reference::domain_exact_worst(&p, &topo, s, k, u64::MAX, 0)
                .expect("no budget");
            prop_assert!(kernel.exact && oracle.exact);
            prop_assert_eq!(kernel.failed, oracle.failed, "exact s={} k={}", s, k);
            prop_assert_eq!(
                &kernel.nodes, &leaves_of(&topo, kernel.units.iter().map(|&u| u as usize)),
                "exact witness s={} k={}", s, k
            );
            prop_assert_eq!(p.failed_objects(&kernel.nodes, s), kernel.failed);
            let ladder = Ladder::new(&cfg).run_domain(&p, &topo, s, k).worst;
            prop_assert_eq!(
                (ladder.failed, ladder.exact), (oracle.failed, true),
                "ladder s={} k={}", s, k
            );
            prop_assert_eq!(p.failed_objects(&ladder.nodes, s), ladder.failed);
        }
    }

    /// The exact domain search equals brute force over unit subsets,
    /// and its witness achieves the reported damage.
    #[test]
    fn exact_domain_search_matches_unit_brute_force(
        n in 6u16..14,
        b in 4u64..50,
        r in 2u16..=3,
        racks in 2u16..=4,
        k in 1u16..=3,
        seed in any::<u64>(),
    ) {
        prop_assume!(r <= n && racks <= n);
        let p = placement(n, b, r, seed);
        let topo = topology(n, racks, 0);
        for s in 1..=r {
            let expect = brute_force_units(&p, &topo, s, k);
            let wc = Ladder::new(&AdversaryConfig::default())
                .run_domain(&p, &topo, s, k)
                .worst;
            prop_assert!(wc.exact, "s={} k={}", s, k);
            prop_assert_eq!(wc.failed, expect, "s={} k={}", s, k);
            prop_assert_eq!(
                p.failed_objects(&wc.nodes, s), wc.failed,
                "witness s={} k={}", s, k
            );
        }
    }

    /// A starved exact budget: the ladder's witness recounts to its
    /// claim, its units cover exactly that witness, and when the bounds
    /// still close the search the exact verdict equals the unit brute
    /// force.
    #[test]
    fn budget_exhaustion_parity(
        n in 10u16..20,
        b in 30u64..100,
        racks in 2u16..=5,
        seed in any::<u64>(),
    ) {
        prop_assume!(racks <= n);
        let p = placement(n, b, 3, seed);
        let topo = topology(n, racks, 0);
        let tight = AdversaryConfig { exact_budget: 3, ..AdversaryConfig::default() };
        let wc = Ladder::new(&tight).run_domain(&p, &topo, 2, 3).worst;
        prop_assert_eq!(p.failed_objects(&wc.nodes, 2), wc.failed);
        prop_assert_eq!(&wc.nodes, &leaves_of(&topo, wc.units.iter().map(|&u| u as usize)));
        if wc.exact {
            prop_assert_eq!(wc.failed, brute_force_units(&p, &topo, 2, 3));
        }
    }
}

/// The acceptance shape (n=71, b=1200, r=3, s=2, k=3): flat parity with
/// the node ladder, and the rack topology strictly dominates it.
#[test]
fn acceptance_shape_flat_parity_and_rack_domination() {
    let p = placement(71, 1200, 3, 0xd0d0);
    let cfg = AdversaryConfig::default();
    let node = Ladder::new(&cfg).run(&p, 2, 3).worst;
    let flat = Ladder::new(&cfg)
        .run_domain(&p, &Topology::flat(71), 2, 3)
        .worst;
    assert_eq!(flat.nodes, node.nodes);
    assert_eq!(flat.failed, node.failed);
    assert_eq!(flat.exact, node.exact);

    let racks = Topology::split(71, &[12]).unwrap();
    let dom = Ladder::new(&cfg).run_domain(&p, &racks, 2, 3).worst;
    assert!(
        dom.failed > node.failed,
        "three rack failures ({} objects) should beat three node failures ({})",
        dom.failed,
        node.failed
    );
    assert_eq!(p.failed_objects(&dom.nodes, 2), dom.failed);
}

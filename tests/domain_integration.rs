//! Fault-domain extension, end to end: the paper's guarantees lifted to
//! rack-level correlated failures and verified by the exact adversary.

use worst_case_placement::core::domains::{domain_placement, project};
use worst_case_placement::prelude::*;

#[test]
fn domain_bound_holds_under_exact_adversary() {
    // 84 nodes in 21 racks of 4; replicas in 3 distinct racks; object
    // fails once 2 racks are gone; plan for 3 rack failures.
    let racks = Topology::split(84, &[21]).unwrap();
    let (placement, bound) =
        domain_placement(&racks, 200, 3, 2, 3, &RegistryConfig::default()).unwrap();
    let projected = project(&placement, &racks).unwrap();
    let (avail, wc) = availability(&projected, 2, 3, &AdversaryConfig::default());
    assert!(wc.exact);
    assert!(avail >= bound, "domain bound {bound} violated: {avail}");
}

#[test]
fn domain_failures_dominate_node_failures() {
    // Failing k whole racks is at least as damaging as failing k nodes.
    let racks = Topology::split(30, &[10]).unwrap();
    let (placement, _) = domain_placement(&racks, 90, 3, 2, 2, &RegistryConfig::default()).unwrap();
    let projected = project(&placement, &racks).unwrap();
    let cfg = AdversaryConfig::default();
    let (avail_domain, _) = availability(&projected, 2, 2, &cfg);
    let (avail_node, _) = availability(&placement, 2, 2, &cfg);
    assert!(avail_domain <= avail_node);
}

#[test]
fn rack_aware_beats_rack_oblivious() {
    // A rack-oblivious random placement can put two replicas of one
    // object into the same rack; against rack failures the domain-aware
    // packing must do at least as well in the worst case.
    let racks = Topology::split(40, &[10]).unwrap();
    let b = 120u64;
    let (aware, _) = domain_placement(&racks, b, 3, 2, 3, &RegistryConfig::default()).unwrap();
    let aware_proj = project(&aware, &racks).unwrap();

    let params = SystemParams::new(40, b, 3, 2, 3).unwrap();
    let oblivious = RandomStrategy::new(99, RandomVariant::LoadBalanced)
        .place(&params)
        .unwrap();
    // Project manually, allowing duplicate domains (count a domain once;
    // an object with 2 replicas in a failed rack loses both).
    let mut worst_oblivious = 0u64;
    let cfg = AdversaryConfig::default();
    // Domain-level failure of a set D kills the object if ≥ s replicas
    // sit in D; evaluate by brute force over all 2-of-10 rack subsets.
    for d1 in 0..10u16 {
        for d2 in d1 + 1..10 {
            let failed_nodes: Vec<u16> = (0..40u16)
                .filter(|&nd| {
                    let d = racks.domain_of(nd, 1);
                    d == d1 || d == d2
                })
                .collect();
            worst_oblivious = worst_oblivious.max(oblivious.failed_objects(&failed_nodes, 2));
        }
    }
    let (aware_avail, wc) = availability(&aware_proj, 2, 2, &cfg);
    assert!(wc.exact);
    let aware_worst = b - aware_avail;
    assert!(
        aware_worst <= worst_oblivious,
        "rack-aware worst {aware_worst} vs oblivious {worst_oblivious}"
    );
}

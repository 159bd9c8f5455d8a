//! End-to-end properties of the prover/verifier split: every
//! certificate the certified ladder emits — across adversary models,
//! random shapes and thread counts — must pass verification after a
//! JSON round trip; every tampered variant must be rejected (at the
//! digest seal when the body is edited in place, at the semantic
//! checks when the attacker re-seals); and exact claims must equal
//! brute-force enumeration on shapes small enough to enumerate.

use proptest::prelude::*;
use wcp_adversary::{AdversaryConfig, Ladder};
use wcp_combin::KSubsets;
use wcp_core::{
    Certificate, Parallelism, Placement, RandomStrategy, RandomVariant, SystemParams, Topology,
};
use wcp_verify::{verify_domain, verify_node};

fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("sample")
}

/// The thread matrix every property walks: the one ladder schedule on
/// 1, 2 and 8 workers.
fn thread_matrix(seed: u64) -> Vec<AdversaryConfig> {
    [1, 2, 8]
        .into_iter()
        .map(|threads| AdversaryConfig {
            seed,
            parallelism: Parallelism::new(threads),
            ..AdversaryConfig::default()
        })
        .collect()
}

/// Round-trips a certificate through its sealed JSON form — what the
/// experiment binaries persist and `wcp-verify` reads back.
fn roundtrip(cert: &Certificate) -> Certificate {
    Certificate::from_json(&cert.to_json()).expect("sealed JSON round-trips")
}

fn brute_force_node(p: &Placement, s: u16, k: u16) -> u64 {
    let mut worst = 0;
    KSubsets::new(p.num_nodes(), k.min(p.num_nodes())).for_each(|set| {
        worst = worst.max(p.failed_objects(set, s));
        true
    });
    worst
}

fn brute_force_domain(p: &Placement, topo: &Topology, s: u16, k: u16) -> u64 {
    let units: Vec<Vec<u16>> = topo.failure_units().into_iter().map(|u| u.nodes).collect();
    let mut worst = 0;
    KSubsets::new(units.len() as u16, k.min(units.len() as u16)).for_each(|set| {
        let mut nodes: Vec<u16> = set
            .iter()
            .flat_map(|&u| units[usize::from(u)].iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        worst = worst.max(p.failed_objects(&nodes, s));
        true
    });
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Node-adversary certificates from random shapes verify on every
    /// thread count, agree across the matrix, and — being exact on
    /// these small shapes within the default budget — match the
    /// brute-force enumeration of all k-subsets.
    #[test]
    fn node_certificates_verify_across_threads(
        n in 6u16..=13,
        b_per_n in 2u64..=4,
        seed in 0u64..1 << 20,
        s in 1u16..=2,
        k_off in 0u16..=2,
    ) {
        let r = 3.min(n);
        let s = s.min(r);
        let k = (s + k_off).min(n);
        let p = placement(n, b_per_n * u64::from(n), r, seed);
        let brute = brute_force_node(&p, s, k);
        for config in thread_matrix(seed) {
            let out = Ladder::new(&config).certified().run(&p, s, k);
            let (wc, cert) = (out.worst, out.certificate.unwrap());
            let cert = roundtrip(&cert);
            let report = verify_node(&cert, &p).map_err(TestCaseError::fail)?;
            prop_assert_eq!(report.claimed_failed, wc.failed);
            prop_assert_eq!(report.exact, wc.exact);
            if wc.exact {
                prop_assert_eq!(wc.failed, brute, "exact claim vs brute force");
            } else {
                prop_assert!(wc.failed <= brute);
            }
        }
    }

    /// Domain-adversary certificates (one- and two-level topologies)
    /// verify on every thread count and exact claims match brute force
    /// over unit k-subsets.
    #[test]
    fn domain_certificates_verify_across_threads(
        n in 6u16..=12,
        b_per_n in 2u64..=3,
        seed in 0u64..1 << 20,
        racks in 2u16..=4,
        two_level in 0u16..=1,
        k in 0u16..=3,
    ) {
        let r = 3.min(n);
        let s = 2.min(r);
        let counts: Vec<u16> = if two_level == 1 && racks >= 4 {
            vec![racks, 2]
        } else {
            vec![racks]
        };
        let topo = Topology::split(n, &counts).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let units = topo.failure_units().len() as u16;
        let k = k.min(units);
        let p = placement(n, b_per_n * u64::from(n), r, seed);
        let brute = brute_force_domain(&p, &topo, s, k);
        for config in thread_matrix(seed) {
            let out = Ladder::new(&config).certified().run_domain(&p, &topo, s, k);
            let (wc, cert) = (out.worst, out.certificate.unwrap());
            let cert = roundtrip(&cert);
            let report = verify_domain(&cert, &p, &topo).map_err(TestCaseError::fail)?;
            prop_assert_eq!(report.claimed_failed, wc.failed);
            if wc.exact {
                prop_assert_eq!(wc.failed, brute, "exact claim vs brute force");
            }
        }
    }
}

/// In-place body edits (no reseal) die on the digest before any
/// semantic check runs: the serialized form is self-sealing.
#[test]
fn serialized_tampering_breaks_the_seal() {
    let p = placement(14, 50, 3, 0x7a3);
    let out = Ladder::new(&AdversaryConfig::default())
        .certified()
        .run(&p, 2, 3);
    let (wc, cert) = (out.worst, out.certificate.unwrap());
    assert!(wc.failed > 0, "shape must have a non-trivial worst case");
    let json = cert.to_json();
    let tampered = json.replacen(
        &format!("\"claimed_failed\": {}", cert.claimed_failed),
        &format!("\"claimed_failed\": {}", cert.claimed_failed + 1),
        1,
    );
    assert_ne!(json, tampered, "tamper site must exist");
    let err = Certificate::from_json(&tampered).unwrap_err();
    assert!(err.contains("digest mismatch"), "{err}");
}

/// An attacker who re-seals (recomputes the digest over the edited
/// body, here by re-serializing the mutated certificate) gets past the
/// seal but dies on the semantic re-scoring: the swapped witness no
/// longer fails the claimed count.
#[test]
fn resealed_witness_swap_is_rejected_semantically() {
    let p = placement(14, 50, 3, 0x7a4);
    let out = Ladder::new(&AdversaryConfig::default())
        .certified()
        .run(&p, 2, 3);
    let (wc, mut cert) = (out.worst, out.certificate.unwrap());
    assert!(wc.failed > 0);
    // Claim the worst case is achieved by attacking nothing at all.
    cert.rungs.last_mut().unwrap().witness.clear();
    let resealed = roundtrip(&cert);
    let err = verify_node(&resealed, &p).unwrap_err();
    assert!(err.contains("re-scores"), "{err}");
}

/// A re-sealed ledger truncation — hiding part of the root frontier so
/// a pruned subtree is never accounted for — is caught by the frontier
/// coverage check.
#[test]
fn resealed_ledger_truncation_is_rejected() {
    let p = placement(14, 50, 3, 0x7a5);
    let out = Ladder::new(&AdversaryConfig::default())
        .certified()
        .run(&p, 2, 3);
    let (wc, mut cert) = (out.worst, out.certificate.unwrap());
    assert!(wc.exact && !cert.ledger.is_empty());
    cert.ledger.pop();
    let resealed = roundtrip(&cert);
    let err = verify_node(&resealed, &p).unwrap_err();
    assert!(err.contains("frontier"), "{err}");
}

/// The domain tamper surface: re-sealed unit swaps must fail the
/// witness/leaf-union consistency check.
#[test]
fn resealed_domain_unit_swap_is_rejected() {
    let p = placement(12, 40, 3, 0x7a6);
    let topo = Topology::split(12, &[4]).unwrap();
    let out = Ladder::new(&AdversaryConfig::default())
        .certified()
        .run_domain(&p, &topo, 2, 2);
    let (wc, mut cert) = (out.worst, out.certificate.unwrap());
    assert!(wc.failed > 0 && !wc.units.is_empty());
    // Point the last rung at different units (rotating within the
    // 16-unit universe: 12 leaves + 4 racks) while keeping the now
    // inconsistent leaf witness and its score.
    let unit_count = topo.failure_units().len() as u32;
    let last = cert.rungs.last_mut().unwrap();
    for u in &mut last.units {
        *u = (*u + 1) % unit_count;
    }
    last.units.sort_unstable();
    last.units.dedup();
    let resealed = roundtrip(&cert);
    let err = verify_domain(&resealed, &p, &topo).unwrap_err();
    assert!(
        err.contains("leaf union") || err.contains("unit") || err.contains("re-scores"),
        "{err}"
    );
}

/// The acceptance shape (n=71, b=1200, r=3, s=2, k ≤ 5): the full
/// ladder's certificate for every budget verifies after a JSON round
/// trip, and the canonical tamper moves are all rejected.
/// The exact budget is trimmed so the debug-mode DFS either closes
/// fast or falls back to a (still verifiable) heuristic certificate.
#[test]
fn acceptance_shape_certificates_verify_and_tampering_fails() {
    let p = placement(71, 1200, 3, 0x5ea1);
    let config = AdversaryConfig {
        exact_budget: 300_000,
        ..AdversaryConfig::default()
    };
    for k in 1u16..=5 {
        let out = Ladder::new(&config).certified().run(&p, 2, k);
        let (wc, cert) = (out.worst, out.certificate.unwrap());
        let cert = roundtrip(&cert);
        let report = verify_node(&cert, &p)
            .unwrap_or_else(|e| panic!("k={k}: fresh certificate rejected: {e}"));
        assert_eq!(report.claimed_failed, wc.failed, "k={k}");
        assert_eq!(report.exact, wc.exact, "k={k}");
        // k = 1 under s = 2 legitimately fails nothing on a
        // collision-free placement; from k = 2 on, objects must fall.
        assert!(k < 2 || wc.failed > 0, "k={k}: some objects must fall");

        // Tamper 1: in-place body edit → digest seal.
        let json = cert.to_json();
        let tampered = json.replacen(
            &format!("\"claimed_failed\": {}", cert.claimed_failed),
            &format!("\"claimed_failed\": {}", cert.claimed_failed + 1),
            1,
        );
        assert!(
            Certificate::from_json(&tampered)
                .unwrap_err()
                .contains("digest"),
            "k={k}: body edit must break the seal"
        );

        // Tamper 2: re-sealed inflated claim → witness re-scoring.
        let mut inflated = cert.clone();
        inflated.claimed_failed += 1;
        inflated.rungs.last_mut().unwrap().failed += 1;
        assert!(
            verify_node(&roundtrip(&inflated), &p)
                .unwrap_err()
                .contains("re-scores"),
            "k={k}: inflated claim must fail re-scoring"
        );

        // Tamper 3: re-sealed witness swap → re-scoring (an emptied
        // witness only scores differently when the claim is positive).
        if wc.failed > 0 {
            let mut swapped = cert.clone();
            swapped.rungs.last_mut().unwrap().witness.clear();
            assert!(
                verify_node(&roundtrip(&swapped), &p)
                    .unwrap_err()
                    .contains("re-scores"),
                "k={k}: emptied witness must fail re-scoring"
            );
        }

        // Tamper 4: re-sealed ledger truncation → frontier coverage
        // (exact certificates only; heuristic ones carry no ledger).
        if wc.exact && !cert.ledger.is_empty() {
            let mut cut = cert.clone();
            cut.ledger.pop();
            assert!(
                verify_node(&roundtrip(&cut), &p)
                    .unwrap_err()
                    .contains("frontier"),
                "k={k}: truncated ledger must fail frontier coverage"
            );
        }

        // Tamper 5: certificate presented against the wrong placement.
        let other = placement(71, 1200, 3, 0x5ea2);
        assert!(
            verify_node(&cert, &other).unwrap_err().contains("digest"),
            "k={k}: wrong placement must fail the binding"
        );
    }

    // The domain ladder on the same shape (12 racks, as the adversary
    // acceptance suite splits it).
    let topo = Topology::split(71, &[12]).unwrap();
    let out = Ladder::new(&config).certified().run_domain(&p, &topo, 2, 3);
    let (wc, cert) = (out.worst, out.certificate.unwrap());
    let cert = roundtrip(&cert);
    let report = verify_domain(&cert, &p, &topo).expect("domain certificate verifies");
    assert_eq!(report.claimed_failed, wc.failed);
}

type Edit = fn(&mut Certificate, &Placement, Option<&Topology>);

/// Every tamper move, applied to one exact certificate of each budget
/// model: ledger edits, claim inflation, and edits to the last rung's
/// moves (a domain rung's unit ids, a node rung's witness nodes) and
/// witness.
const EDITS: [(&str, Edit); 8] = [
    ("raise one ledger bound", |cert, _, _| {
        cert.ledger[0].bound += 1
    }),
    ("drop the last ledger entry", |cert, _, _| {
        cert.ledger.pop();
    }),
    ("swap two ledger roots", |cert, _, _| cert.ledger.swap(0, 1)),
    ("inflate the claim and the last rung", |cert, _, _| {
        cert.claimed_failed += 1;
        cert.rungs.last_mut().unwrap().failed += 1;
    }),
    ("empty the last rung's moves", |cert, _, topo| {
        let last = cert.rungs.last_mut().unwrap();
        match topo {
            Some(_) => last.units.clear(),
            None => last.witness.clear(),
        }
    }),
    ("add a move beyond k", |cert, p, topo| {
        // A consistent extra move: the witness is the new leaf union
        // and every claim re-scores, so only the budget can object.
        let last = cert.rungs.last_mut().unwrap();
        match topo {
            Some(topo) => {
                let units = topo.failure_units();
                let extra = (0..).find(|u| !last.units.contains(u)).unwrap();
                last.units.push(extra);
                last.units.sort_unstable();
                last.witness = last
                    .units
                    .iter()
                    .flat_map(|&u| units[u as usize].nodes.iter().copied())
                    .collect();
                last.witness.sort_unstable();
                last.witness.dedup();
            }
            None => {
                let extra = (0..).find(|nd| !last.witness.contains(nd)).unwrap();
                last.witness.push(extra);
                last.witness.sort_unstable();
            }
        }
        last.failed = p.failed_objects(&last.witness, cert.s);
        cert.claimed_failed = last.failed;
    }),
    ("repeat a move", |cert, _, topo| {
        let last = cert.rungs.last_mut().unwrap();
        match topo {
            Some(_) => {
                let first = last.units[0];
                *last.units.last_mut().unwrap() = first;
            }
            None => {
                let first = last.witness[0];
                *last.witness.last_mut().unwrap() = first;
            }
        }
    }),
    ("reverse the last rung's witness", |cert, _, _| {
        cert.rungs.last_mut().unwrap().witness.reverse();
    }),
];

/// The tamper matrix over both budget models: every edit in [`EDITS`],
/// re-sealed through JSON, is rejected on an exact node certificate
/// and on an exact domain certificate, and so is each certificate
/// checked against the wrong placement; the untampered certificates
/// verify.
#[test]
fn tamper_matrix_rejects_every_edit_in_both_budget_models() {
    let node_p = placement(14, 50, 3, 0x7a7);
    let domain_p = placement(12, 40, 3, 0x7a8);
    let topo = Topology::split(12, &[4]).unwrap();
    let config = AdversaryConfig::default();
    let node = Ladder::new(&config).certified().run(&node_p, 2, 3);
    let domain = Ladder::new(&config)
        .certified()
        .run_domain(&domain_p, &topo, 2, 2);
    let cases = [
        (node.certificate.unwrap(), node_p, None),
        (domain.certificate.unwrap(), domain_p, Some(&topo)),
    ];
    for (cert, p, topo) in &cases {
        let topo = *topo;
        let check = |cert: &Certificate, p: &Placement| match topo {
            Some(topo) => verify_domain(cert, p, topo),
            None => verify_node(cert, p),
        };
        let model = cert.kind.label();
        let last = cert.rungs.last().unwrap();
        assert!(
            cert.exact && cert.ledger.len() >= 2 && last.witness.len() >= 2,
            "{model}: the matrix needs an exact certificate with a ledger and a wide witness"
        );
        check(&roundtrip(cert), p)
            .unwrap_or_else(|e| panic!("{model}: untampered certificate rejected: {e}"));
        for (name, edit) in EDITS {
            let mut tampered = cert.clone();
            edit(&mut tampered, p, topo);
            assert_ne!(
                &tampered, cert,
                "{model}: '{name}' must change the certificate"
            );
            let verdict = check(&roundtrip(&tampered), p);
            assert!(verdict.is_err(), "{model}: '{name}' verified: {verdict:?}");
        }
        let other = placement(p.num_nodes(), p.num_objects() as u64, 3, 0x7a9);
        let err = check(&roundtrip(cert), &other).unwrap_err();
        assert!(err.contains("digest"), "{model}: wrong placement: {err}");
    }
}

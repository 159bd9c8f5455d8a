//! The prover side of the availability-certificate split.
//!
//! Both budget models run one driver whether or not a certificate is
//! requested: the driver returns its verdict together with the rungs
//! that led to it — each rung's witness with a replayable
//! decision-trace hash — so `Ladder::certified()` only adds what the
//! `wcp-verify` crate needs beyond them to re-check the verdict
//! without re-running the search: when the exact rung completed, a
//! per-root-child **bound ledger** for the branch-and-bound tree, and
//! the seal binding the claim to the placement.
//!
//! The ledger is computed *post hoc* on the accounting binding the exact
//! rung just searched. Both the serial DFS root frame (depth 0 is below
//! its re-sort depth) and the parallel frontier split order root
//! children by the same total key — `(gain, weight, id)` descending at
//! the empty set — and expand exactly the first `len − k + 1` of them, so
//! re-deriving that order after the search reproduces the true root
//! frontier. For each root child `x` the recorded bound is the same
//! admissible bound the DFS prunes with one level down:
//!
//! ```text
//! bound(x) = failed({x}) + failable_within(k − 1)   (evaluated at {x})
//! ```
//!
//! For the node move set, with no node failed every object sits at zero
//! hits, and with `x` alone failed exactly the objects on `x` sit at
//! one, so both the root key and `bound(x)` are functions of `load(x)`,
//! `b`, `s` and `k` ([`root_bound`]): the whole ledger costs
//! `O(n log n)`, with no accounting update per root. A failure unit is
//! failed and restored on the accounting once per root, and its
//! `failable_within` counts `(k − 1) · c_max` hits.
//!
//! No attack whose set contains `x` as its first element (in root
//! order) can fail more than `bound(x)` objects: the remaining `k − 1`
//! moves add at most one hit each (a unit at most `c_max`) per object.
//! The verifier recomputes both the order and every bound on the scalar
//! [`crate::FailureCounts`] oracle, so an accounting bug skewing either turns
//! into a certificate rejection instead of a silently wrong verdict.
//!
//! Every bound is also ≤ the root-level bound `failable_within(k)` at
//! the empty set, so whenever the search confirmed the incumbent
//! without expanding (the root short-circuit), the ledger still proves
//! optimality outright.

use crate::exact::{root_order, Branch};
use crate::ladder::Model;
use crate::AdversaryScratch;
use wcp_core::{
    placement_digest, Certificate, CertificateKind, Fnv, LedgerEntry, Placement, Rung, RungKind,
};

/// FNV-1a over `(index, failed, witness)` triples in execution order —
/// the replayable decision-trace hash stored in heuristic rungs.
pub(crate) fn trace_hash(entries: &[(u64, Vec<u16>)]) -> u64 {
    let mut h = Fnv::new();
    for (i, (failed, nodes)) in entries.iter().enumerate() {
        h.write_u64(i as u64);
        h.write_u64(*failed);
        h.write_u64(nodes.len() as u64);
        for &nd in nodes {
            h.write_u64(u64::from(nd));
        }
    }
    h.finish()
}

/// One rung of a run's record (`units` is empty for node budgets).
pub(crate) fn rung(
    kind: RungKind,
    failed: u64,
    witness: &[u16],
    units: &[u32],
    trace: u64,
) -> Rung {
    Rung {
        kind,
        failed,
        witness: witness.to_vec(),
        units: units.to_vec(),
        trace,
    }
}

/// A certificate bound to `placement` with no evidence or claim yet;
/// callers fill in the rungs, ledger and claim of their run.
pub(crate) fn base_certificate(
    placement: &Placement,
    kind: CertificateKind,
    s: u16,
    k: u16,
) -> Certificate {
    Certificate {
        kind,
        n: placement.num_nodes(),
        b: placement.num_objects() as u64,
        r: placement.replicas_per_object(),
        s,
        k,
        placement: placement_digest(placement),
        rungs: Vec::new(),
        ledger: Vec::new(),
        claimed_failed: 0,
        exact: false,
    }
}

/// The exact rung's post-hoc bound ledger: one admissible bound per
/// root child of the branch-and-bound tree, in the canonical
/// `(gain, weight, id)` descending root order, covering exactly the
/// `len − k + 1` children the root frame expands. Reads the accounting
/// binding the exact rung searched on, cleared; degenerate budgets
/// (`k = 0` or every move) need no search and get no ledger.
pub(crate) fn ledger<M: Model>(
    model: &M,
    scratch: &mut AdversaryScratch,
    k: u16,
) -> Vec<LedgerEntry> {
    let len = model.len();
    if k == 0 || usize::from(k) >= len {
        return Vec::new();
    }
    let (mut ms, _, _) = model.bind(scratch, false);
    let roots = len - usize::from(k) + 1;
    let mut order = root_order(&mut ms);
    order.truncate(roots);
    order
        .into_iter()
        .map(|root| LedgerEntry {
            root,
            bound: ms.root_bound(root, k),
        })
        .collect()
}

/// `failed({x}) + failable_within(k − 1)` evaluated at the one-node set
/// `{x}` of a node with `load` objects among `b`, for `1 ≤ k`: the
/// objects on `x` sit at one hit, every other object at zero.
pub(crate) fn root_bound(load: u64, b: u64, s: u16, k: u16) -> u64 {
    let failed = if s == 1 { load } else { 0 };
    let m = k - 1;
    if m == 0 {
        return failed;
    }
    // Failable within m more failures: s − m ≤ hits < s.
    let lo = s.saturating_sub(m);
    let untouched = if lo == 0 { b - load } else { 0 };
    let touched = if lo <= 1 && s >= 2 { load } else { 0 };
    failed + untouched + touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdversaryConfig, Ladder};
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn certified_result_matches_uncertified_ladder() {
        for seed in 0..3u64 {
            let p = random_placement(16, 70, 3, seed);
            for (s, k) in [(1u16, 0u16), (1, 3), (2, 4), (3, 5), (2, 16)] {
                let config = AdversaryConfig::default();
                let plain = Ladder::new(&config).run(&p, s, k).worst;
                let out = Ladder::new(&config).certified().run(&p, s, k);
                let (wc, cert) = (out.worst, out.certificate.expect("certified"));
                assert_eq!(wc, plain, "seed={seed} s={s} k={k}");
                assert_eq!(cert.claimed_failed, wc.failed);
                assert_eq!(cert.exact, wc.exact);
            }
        }
    }

    #[test]
    fn rung_claims_are_monotone_and_ledger_sized() {
        let p = random_placement(14, 60, 3, 7);
        let out = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 4);
        let (wc, cert) = (out.worst, out.certificate.expect("certified"));
        assert!(wc.exact, "small shape should complete exactly");
        for pair in cert.rungs.windows(2) {
            assert!(pair[0].failed <= pair[1].failed, "rungs must be monotone");
        }
        assert_eq!(cert.ledger.len(), 14 - 4 + 1);
        // Every witness re-scores to its claim straight from the
        // definition (the verifier crate re-checks this via the scalar
        // oracle; this is the in-crate smoke test).
        for rung in &cert.rungs {
            assert_eq!(p.failed_objects(&rung.witness, 2), rung.failed);
        }
    }

    #[test]
    fn certificate_json_round_trips_through_core() {
        let p = random_placement(12, 40, 3, 1);
        let cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .expect("certified");
        let back = Certificate::from_json(&cert.to_json()).expect("parses");
        assert_eq!(back, cert);
    }

    #[test]
    fn root_bound_matches_the_kernel_at_every_shape() {
        // The closed form against adding each root to the kernel and
        // reading the bound off it.
        for (n, b, r, seed) in [
            (9u16, 40u64, 3u16, 1u64),
            (12, 70, 4, 2),
            (7, 30, 1, 3),
            (10, 65, 2, 4),
        ] {
            let p = random_placement(n, b, r, seed);
            for s in 1..=r {
                let mut pc = crate::PackedCounts::new(&p, s);
                for k in 1..n {
                    for nd in 0..n {
                        pc.add_node(nd);
                        let kernel = pc.failed() + pc.failable_within(k - 1);
                        pc.remove_node(nd);
                        let load = u64::from(pc.load(nd));
                        assert_eq!(
                            root_bound(load, b, s, k),
                            kernel,
                            "r={r} s={s} k={k} nd={nd}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trace_hash_is_order_sensitive() {
        let a = vec![(3u64, vec![1u16, 2]), (5, vec![0, 4])];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_ne!(trace_hash(&a), trace_hash(&b));
    }
}

//! The verifier side of the availability-certificate split.
//!
//! `wcp-adversary`'s certified ladder entry points emit a compact
//! [`Certificate`] alongside every worst-case verdict; this crate
//! re-checks such a certificate **without re-running the search**, in
//! time linear in the certificate itself (`O(n)` for the bound ledger,
//! `O(witness)` per rung — never the exponential search the prover
//! paid for).
//!
//! # What is proven, and what is trusted
//!
//! Deliberately, nothing here touches the hit-level tables of
//! [`PackedCounts`](wcp_adversary::PackedCounts), the one failure
//! accounting every rung of the prover ran on. Every witness is
//! re-scored through [`Placement::failed_objects`] — the definitional
//! scalar path — and every ledger bound is recomputed on the scalar
//! [`FailureCounts`] oracle. An accounting bug that skewed a count, a
//! gain or a histogram bound therefore surfaces as a certificate
//! *rejection* here instead of a silently wrong verdict; the
//! prover/verifier split is only worth having because the two sides do
//! not share the fast path.
//!
//! A certificate passing [`verify_node`] / [`verify_domain`]
//! establishes, unconditionally:
//!
//! * every rung's witness really fails its claimed object count
//!   against this placement (so the final claim is **achievable**);
//! * the rung claims are monotone up the ladder and the certificate's
//!   headline claim is the last rung's;
//! * when the exact rung is present, the bound ledger covers the full
//!   canonical root frontier of the branch-and-bound tree and each
//!   recorded bound equals its recomputation from scratch.
//!
//! When additionally every ledger bound is ≤ the claim, optimality is
//! **proven outright** ([`VerifyReport::proven_optimal`]): each entry
//! is an admissible upper bound for every failure set starting at that
//! root (first element in canonical order), the frontier covers all
//! `k`-sets, and the claim is achievable — so no set can beat it. When
//! some root's bound exceeds the claim, closing that subtree relied on
//! the prover's deeper exploration; such roots are counted in
//! [`VerifyReport::trusted_roots`] rather than re-searched (that would
//! defeat the `O(witness)` contract). The heuristic rungs' `trace`
//! hashes are replay anchors for a determinism audit, not something a
//! linear-time verifier can recompute; they are carried, not checked.

#![forbid(unsafe_code)]

use wcp_adversary::FailureCounts;
use wcp_core::{placement_digest, Certificate, CertificateKind, Placement, RungKind, Topology};

/// What a successful verification established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The certificate's adversary model.
    pub kind: CertificateKind,
    /// The headline worst-case claim that was re-checked.
    pub claimed_failed: u64,
    /// Whether the certificate claims exactness.
    pub exact: bool,
    /// Exactness was proven outright: every recomputed ledger bound is
    /// ≤ the (re-scored, achievable) claim. Always `false` for
    /// heuristic certificates.
    pub proven_optimal: bool,
    /// Ledger roots whose bound exceeds the claim — their subtrees'
    /// exclusion rests on the prover's search, not on this
    /// verification.
    pub trusted_roots: usize,
    /// Rungs checked.
    pub rungs: usize,
}

fn fail(msg: impl Into<String>) -> Result<(), String> {
    Err(msg.into())
}

/// Placement-free sanity of a certificate: parameter ranges, rung
/// ordering and monotonicity, witness well-formedness, ledger/exactness
/// consistency. Both full verifiers run this first; callers without a
/// rebuildable placement (e.g. mid-churn snapshots read back from
/// JSONL) can still run it alone.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn verify_structure(cert: &Certificate) -> Result<(), String> {
    if cert.s == 0 || cert.s > cert.r {
        return fail(format!("threshold s={} outside 1..=r={}", cert.s, cert.r));
    }
    if cert.r > cert.n {
        return fail(format!("replication r={} exceeds n={}", cert.r, cert.n));
    }
    if cert.kind == CertificateKind::Node && cert.k > cert.n {
        return fail(format!("node budget k={} exceeds n={}", cert.k, cert.n));
    }
    if cert.rungs.is_empty() {
        return fail("certificate has no rungs");
    }
    if cert.claimed_failed > cert.b {
        return fail(format!(
            "claims {} failed objects of {}",
            cert.claimed_failed, cert.b
        ));
    }
    let rank = |kind: RungKind| match kind {
        RungKind::Greedy => 0u8,
        RungKind::LocalSearch => 1,
        RungKind::Exact => 2,
    };
    let mut prev: Option<&wcp_core::Rung> = None;
    for (i, rung) in cert.rungs.iter().enumerate() {
        if rung.failed > cert.b {
            return fail(format!(
                "rung {i} claims {} of {} objects",
                rung.failed, cert.b
            ));
        }
        if let Some(p) = prev {
            if rank(rung.kind) <= rank(p.kind) {
                return fail(format!("rung {i} breaks the ladder order"));
            }
            if rung.failed < p.failed {
                return fail(format!(
                    "rung {i} claims {} < previous rung's {}",
                    rung.failed, p.failed
                ));
            }
        }
        let mut seen = vec![false; usize::from(cert.n)];
        for &nd in &rung.witness {
            let Some(slot) = seen.get_mut(usize::from(nd)) else {
                return fail(format!("rung {i} witness node {nd} outside 0..{}", cert.n));
            };
            if std::mem::replace(slot, true) {
                return fail(format!("rung {i} witness repeats node {nd}"));
            }
        }
        if cert.kind == CertificateKind::Node && !rung.units.is_empty() {
            return fail(format!(
                "rung {i} of a node certificate names failure units"
            ));
        }
        prev = Some(rung);
    }
    let Some(last) = cert.rungs.last() else {
        return fail("certificate has no rungs");
    };
    if last.failed != cert.claimed_failed {
        return fail(format!(
            "headline claim {} is not the last rung's {}",
            cert.claimed_failed, last.failed
        ));
    }
    if cert.exact != (last.kind == RungKind::Exact) {
        return fail("exactness flag disagrees with the final rung's kind");
    }
    if !cert.exact && !cert.ledger.is_empty() {
        return fail("heuristic certificate carries a bound ledger");
    }
    Ok(())
}

/// Binds a certificate to the placement it claims to describe.
fn check_binding(cert: &Certificate, placement: &Placement) -> Result<(), String> {
    if cert.n != placement.num_nodes()
        || cert.b != placement.num_objects() as u64
        || cert.r != placement.replicas_per_object()
    {
        return fail(format!(
            "certificate shape (n={}, b={}, r={}) does not match the placement \
             (n={}, b={}, r={})",
            cert.n,
            cert.b,
            cert.r,
            placement.num_nodes(),
            placement.num_objects(),
            placement.replicas_per_object()
        ));
    }
    let digest = placement_digest(placement);
    if cert.placement != digest {
        return fail(format!(
            "placement digest {:#018x} does not match the certificate's {:#018x}",
            digest, cert.placement
        ));
    }
    Ok(())
}

/// Re-scores every rung witness through the definitional scalar path.
fn check_rung_scores(cert: &Certificate, placement: &Placement) -> Result<(), String> {
    for (i, rung) in cert.rungs.iter().enumerate() {
        let scored = placement.failed_objects(&rung.witness, cert.s);
        if scored != rung.failed {
            return fail(format!(
                "rung {i} witness re-scores to {scored}, certificate claims {}",
                rung.failed
            ));
        }
    }
    Ok(())
}

/// Verifies a node-adversary certificate against the placement it was
/// issued for, in `O(n + witness)` time.
///
/// # Errors
///
/// A description of the first check that failed: structural invariants,
/// placement binding, a witness re-scoring to a different count, or a
/// ledger whose roots or bounds disagree with their scalar
/// recomputation.
pub fn verify_node(cert: &Certificate, placement: &Placement) -> Result<VerifyReport, String> {
    verify_structure(cert)?;
    if cert.kind != CertificateKind::Node {
        return Err("expected a node certificate".into());
    }
    check_binding(cert, placement)?;
    check_rung_scores(cert, placement)?;
    let n = cert.n;
    let k = cert.k;
    for (i, rung) in cert.rungs.iter().enumerate() {
        if rung.witness.len() > usize::from(k) {
            return Err(format!(
                "rung {i} witness uses {} nodes, budget is {k}",
                rung.witness.len()
            ));
        }
    }
    let mut report = VerifyReport {
        kind: CertificateKind::Node,
        claimed_failed: cert.claimed_failed,
        exact: cert.exact,
        proven_optimal: false,
        trusted_roots: 0,
        rungs: cert.rungs.len(),
    };
    if !cert.exact {
        return Ok(report);
    }
    // Degenerate budgets prove themselves: k = 0 admits only the empty
    // set, and failing every node dominates any other choice (failure
    // is monotone in the failed set).
    if k == 0 {
        if cert.claimed_failed != 0 || cert.rungs.first().is_some_and(|r| !r.witness.is_empty()) {
            return Err("k = 0 certificate must claim the empty attack".into());
        }
        if !cert.ledger.is_empty() {
            return Err("k = 0 certificate needs no ledger".into());
        }
        report.proven_optimal = true;
        return Ok(report);
    }
    if k >= n {
        let all_down = cert
            .rungs
            .last()
            .is_some_and(|last| last.witness.len() == usize::from(n));
        if !all_down {
            return Err(format!(
                "k = {k} ≥ n = {n} certificate must witness all nodes down"
            ));
        }
        if !cert.ledger.is_empty() {
            return Err("all-nodes certificate needs no ledger".into());
        }
        report.proven_optimal = true;
        return Ok(report);
    }
    // The canonical root frontier: every k-set's first element (in
    // (gain, load, node) descending order at the empty set) lies within
    // the first n − k + 1 positions, so these entries cover all
    // attacks. Order and bounds are recomputed from scratch on the
    // scalar oracle — equality with the recorded ledger is the
    // cross-kernel check.
    let roots = usize::from(n - k) + 1;
    if cert.ledger.len() != roots {
        return Err(format!(
            "ledger covers {} roots, the frontier has {roots}",
            cert.ledger.len()
        ));
    }
    let mut fc = FailureCounts::new(placement, cert.s);
    let loads = placement.cached_loads();
    let mut keys: Vec<(u64, u32, u16)> = (0..n)
        .map(|nd| {
            (
                fc.gain(nd),
                loads.get(usize::from(nd)).copied().unwrap_or(0),
                nd,
            )
        })
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    for (i, (&(_, _, nd), entry)) in keys.iter().take(roots).zip(&cert.ledger).enumerate() {
        if entry.root != u32::from(nd) {
            return Err(format!(
                "ledger entry {i} roots at node {}, canonical order expects {nd}",
                entry.root
            ));
        }
        fc.add_node(nd);
        let bound = fc.failed() + fc.failable_within(k - 1);
        fc.remove_node(nd);
        if bound != entry.bound {
            return Err(format!(
                "ledger bound for root {nd} recomputes to {bound}, certificate \
                 records {} (kernel divergence or tampering)",
                entry.bound
            ));
        }
        if bound > cert.claimed_failed {
            report.trusted_roots += 1;
        }
    }
    report.proven_optimal = report.trusted_roots == 0;
    Ok(report)
}

/// Verifies a domain-adversary certificate against the placement *and*
/// the topology it was issued for, in `O(units · leaves + witness)`
/// time.
///
/// # Errors
///
/// As for [`verify_node`], plus unit-specific checks: every rung's
/// witness must be exactly the leaf union of its chosen units, and the
/// ledger's canonical order and bounds are recomputed over the
/// topology's failure units.
pub fn verify_domain(
    cert: &Certificate,
    placement: &Placement,
    topology: &Topology,
) -> Result<VerifyReport, String> {
    verify_structure(cert)?;
    if cert.kind != CertificateKind::Domain {
        return Err("expected a domain certificate".into());
    }
    if topology.num_nodes() != placement.num_nodes() {
        return Err(format!(
            "topology spans {} nodes, placement has {}",
            topology.num_nodes(),
            placement.num_nodes()
        ));
    }
    check_binding(cert, placement)?;
    check_rung_scores(cert, placement)?;
    let units: Vec<Vec<u16>> = topology
        .failure_units()
        .into_iter()
        .map(|u| u.nodes)
        .collect();
    let u_count = units.len();
    let k = cert.k;
    if usize::from(k) > u_count {
        return Err(format!(
            "unit budget k={k} exceeds the topology's {u_count} failure units"
        ));
    }
    for (i, rung) in cert.rungs.iter().enumerate() {
        if rung.units.len() > usize::from(k) {
            return Err(format!(
                "rung {i} fails {} units, budget is {k}",
                rung.units.len()
            ));
        }
        let mut seen = vec![false; u_count];
        let mut union: Vec<u16> = Vec::new();
        for &u in &rung.units {
            let (Some(slot), Some(leaves)) = (seen.get_mut(u as usize), units.get(u as usize))
            else {
                return Err(format!("rung {i} names unit {u} outside 0..{u_count}"));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("rung {i} repeats unit {u}"));
            }
            union.extend_from_slice(leaves);
        }
        union.sort_unstable();
        union.dedup();
        if union != rung.witness {
            return Err(format!(
                "rung {i} witness is not the leaf union of its units"
            ));
        }
    }
    let mut report = VerifyReport {
        kind: CertificateKind::Domain,
        claimed_failed: cert.claimed_failed,
        exact: cert.exact,
        proven_optimal: false,
        trusted_roots: 0,
        rungs: cert.rungs.len(),
    };
    if !cert.exact {
        return Ok(report);
    }
    if k == 0 {
        if cert.claimed_failed != 0 || cert.rungs.first().is_some_and(|r| !r.units.is_empty()) {
            return Err("k = 0 certificate must claim the empty attack".into());
        }
        if !cert.ledger.is_empty() {
            return Err("k = 0 certificate needs no ledger".into());
        }
        report.proven_optimal = true;
        return Ok(report);
    }
    if usize::from(k) >= u_count {
        let all_down = cert
            .rungs
            .last()
            .is_some_and(|last| last.units.len() == u_count);
        if !all_down {
            return Err(format!(
                "k = {k} ≥ {u_count} units: certificate must witness all units down"
            ));
        }
        if !cert.ledger.is_empty() {
            return Err("all-units certificate needs no ledger".into());
        }
        report.proven_optimal = true;
        return Ok(report);
    }
    let roots = u_count - usize::from(k) + 1;
    if cert.ledger.len() != roots {
        return Err(format!(
            "ledger covers {} roots, the unit frontier has {roots}",
            cert.ledger.len()
        ));
    }
    // Scalar mirror of the prover's unit index: weights are leaf-load
    // sums, the admissible per-unit hit cap is max_u min(|leaves|, r),
    // and a unit's gain/damage at the empty set is the plain failure
    // delta of downing its leaves.
    let loads = placement.cached_loads();
    let weights: Vec<u64> = units
        .iter()
        .map(|leaves| {
            leaves
                .iter()
                .map(|&nd| u64::from(loads.get(usize::from(nd)).copied().unwrap_or(0)))
                .sum()
        })
        .collect();
    let r = usize::from(cert.r);
    let c_max = units.iter().map(|u| u.len().min(r)).max().unwrap_or(0) as u16;
    let hits = (u32::from(k - 1) * u32::from(c_max)).min(u32::from(u16::MAX)) as u16;
    fn down(fc: &mut FailureCounts, leaves: &[u16]) {
        for &nd in leaves {
            fc.add_node(nd);
        }
    }
    fn up(fc: &mut FailureCounts, leaves: &[u16]) {
        for &nd in leaves.iter().rev() {
            fc.remove_node(nd);
        }
    }
    let mut fc = FailureCounts::new(placement, cert.s);
    let mut keys: Vec<(u64, u64, u32)> = Vec::with_capacity(u_count);
    for ((u, leaves), &weight) in units.iter().enumerate().zip(&weights) {
        down(&mut fc, leaves);
        let gain = fc.failed();
        up(&mut fc, leaves);
        keys.push((gain, weight, u as u32));
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    for (i, (&(_, _, u), entry)) in keys.iter().take(roots).zip(&cert.ledger).enumerate() {
        if entry.root != u {
            return Err(format!(
                "ledger entry {i} roots at unit {}, canonical order expects {u}",
                entry.root
            ));
        }
        let Some(leaves) = units.get(u as usize) else {
            return Err(format!(
                "ledger entry {i} roots at unit {u} outside 0..{u_count}"
            ));
        };
        down(&mut fc, leaves);
        let bound = fc.failed() + fc.failable_within(hits);
        up(&mut fc, leaves);
        if bound != entry.bound {
            return Err(format!(
                "ledger bound for unit {u} recomputes to {bound}, certificate \
                 records {} (kernel divergence or tampering)",
                entry.bound
            ));
        }
        if bound > cert.claimed_failed {
            report.trusted_roots += 1;
        }
    }
    report.proven_optimal = report.trusted_roots == 0;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_adversary::{AdversaryConfig, Ladder};
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn accepts_fresh_node_certificates() {
        for seed in 0..3u64 {
            let p = random_placement(16, 70, 3, seed);
            for (s, k) in [(1u16, 0u16), (1, 3), (2, 4), (3, 5), (2, 16)] {
                let out = Ladder::new(&AdversaryConfig::default())
                    .certified()
                    .run(&p, s, k);
                let (wc, cert) = (out.worst, out.certificate.unwrap());
                let report = verify_node(&cert, &p).expect("fresh certificate verifies");
                assert_eq!(report.claimed_failed, wc.failed);
                assert_eq!(report.exact, wc.exact);
                if wc.exact {
                    assert!(
                        report.proven_optimal || report.trusted_roots > 0,
                        "exactness must be proven or explicitly trusted"
                    );
                }
            }
        }
    }

    #[test]
    fn accepts_fresh_domain_certificates() {
        let p = random_placement(12, 40, 3, 5);
        let topo = Topology::split(12, &[4, 2]).unwrap();
        for k in [0u16, 1, 2, 3] {
            let out = Ladder::new(&AdversaryConfig::default())
                .certified()
                .run_domain(&p, &topo, 2, k);
            let (wc, cert) = (out.worst, out.certificate.unwrap());
            let report = verify_domain(&cert, &p, &topo).expect("fresh certificate verifies");
            assert_eq!(report.claimed_failed, wc.failed);
        }
    }

    #[test]
    fn rejects_wrong_placement() {
        let p = random_placement(14, 50, 3, 1);
        let other = random_placement(14, 50, 3, 2);
        let cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .unwrap();
        let err = verify_node(&cert, &other).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn rejects_inflated_claim_with_reseal() {
        // Tampering that re-seals the digest must still die on the
        // semantic checks: the witness no longer re-scores to the claim.
        let p = random_placement(14, 50, 3, 3);
        let mut cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .unwrap();
        cert.claimed_failed += 1;
        cert.rungs.last_mut().unwrap().failed += 1;
        let err = verify_node(&cert, &p).unwrap_err();
        assert!(err.contains("re-scores"), "{err}");
    }

    #[test]
    fn rejects_truncated_ledger() {
        let p = random_placement(14, 50, 3, 4);
        let out = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3);
        let (wc, mut cert) = (out.worst, out.certificate.unwrap());
        assert!(wc.exact);
        cert.ledger.pop();
        let err = verify_node(&cert, &p).unwrap_err();
        assert!(err.contains("frontier"), "{err}");
    }

    #[test]
    fn rejects_edited_ledger_bound() {
        let p = random_placement(14, 50, 3, 6);
        let out = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3);
        let (wc, mut cert) = (out.worst, out.certificate.unwrap());
        assert!(wc.exact);
        cert.ledger[0].bound = cert.claimed_failed.saturating_sub(1);
        let err = verify_node(&cert, &p).unwrap_err();
        assert!(err.contains("recomputes"), "{err}");
    }

    #[test]
    fn structure_rejects_non_monotone_rungs() {
        let p = random_placement(14, 50, 3, 8);
        let mut cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .unwrap();
        assert!(cert.rungs.len() >= 2);
        cert.rungs[0].failed = cert.claimed_failed + 1;
        let err = verify_structure(&cert).unwrap_err();
        assert!(err.contains("claims"), "{err}");
    }
}

//! The verifier side of the availability-certificate split.
//!
//! `wcp-adversary`'s certified ladder entry points emit a compact
//! [`Certificate`] alongside every worst-case verdict; this crate
//! re-checks such a certificate **without re-running the search**. The
//! check costs `O(b·r)` whatever the certificate's size: one placement
//! digest for the binding, one re-score per rung, and one
//! [`FailureCounts`] build for the bound ledger — never the exponential
//! search the prover paid for.
//!
//! # One check for both budget models
//!
//! A node is the failure unit of one leaf, so a node certificate is a
//! failure-unit certificate over the `n` one-leaf units
//! `[0], [1], …, [n − 1]`. [`verify_node`] reads a rung's moves off its
//! witness; [`verify_domain`] reads them off the rung's unit ids over
//! [`Topology::failure_units`]. Both hand their units and moves to one
//! private check, which holds every rule once: the per-rung budget;
//! distinct, in-range moves; the witness as the sorted leaf union of
//! the moves; the `k = 0` and every-unit budgets; the ledger's length,
//! its canonical `(gain, weight, id)` root order, and each root's
//! recomputed bound.
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
//! re-run the search the split exists to avoid). The heuristic rungs'
//! `trace` hashes are replay anchors for a determinism audit, not
//! something the verifier can recompute without re-running the prover;
//! they are carried, not checked.

#![forbid(unsafe_code)]

use wcp_adversary::FailureCounts;
use wcp_core::{
    placement_digest, Certificate, CertificateKind, Placement, Rung, RungKind, Topology,
};

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
    let mut prev: Option<&Rung> = None;
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
/// issued for: the one failure-unit check over the `n` one-leaf units,
/// with each rung's moves read off its witness. Costs `O(b·r)`.
///
/// # Errors
///
/// A description of the first check that failed: structural invariants,
/// placement binding, a witness re-scoring to a different count, a
/// witness over budget or not sorted, or a ledger whose roots or bounds
/// disagree with their scalar recomputation.
pub fn verify_node(cert: &Certificate, placement: &Placement) -> Result<VerifyReport, String> {
    let units: Vec<[u16; 1]> = (0..placement.num_nodes()).map(|nd| [nd]).collect();
    verify_units(cert, CertificateKind::Node, placement, &units, |rung| {
        rung.witness.iter().map(|&nd| u32::from(nd)).collect()
    })
}

/// Verifies a domain-adversary certificate against the placement *and*
/// the topology it was issued for: the one failure-unit check over
/// [`Topology::failure_units`], with each rung's moves read off its unit
/// ids. Costs `O(b·r)`.
///
/// # Errors
///
/// As for [`verify_node`], plus a topology that spans a different node
/// count, a budget above the unit count, and unit ids out of range,
/// repeated, or whose leaf union is not the rung's witness.
pub fn verify_domain(
    cert: &Certificate,
    placement: &Placement,
    topology: &Topology,
) -> Result<VerifyReport, String> {
    if topology.num_nodes() != placement.num_nodes() {
        return Err(format!(
            "topology spans {} nodes, placement has {}",
            topology.num_nodes(),
            placement.num_nodes()
        ));
    }
    let units: Vec<Vec<u16>> = topology
        .failure_units()
        .into_iter()
        .map(|u| u.nodes)
        .collect();
    verify_units(cert, CertificateKind::Domain, placement, &units, |rung| {
        rung.units.clone()
    })
}

/// The one certificate check behind both budget models: `units[u]` is
/// failure unit `u`'s sorted leaf set, and `moves` reads the unit ids a
/// rung spent its budget on.
fn verify_units<L: AsRef<[u16]>>(
    cert: &Certificate,
    kind: CertificateKind,
    placement: &Placement,
    units: &[L],
    moves: impl Fn(&Rung) -> Vec<u32>,
) -> Result<VerifyReport, String> {
    verify_structure(cert)?;
    if cert.kind != kind {
        return Err(format!("expected a {} certificate", kind.label()));
    }
    check_binding(cert, placement)?;
    check_rung_scores(cert, placement)?;
    let k = cert.k;
    let all = units.len();
    if usize::from(k) > all {
        return Err(format!("budget k={k} exceeds the {all} failure units"));
    }
    let leaves = |u: u32| units.get(u as usize).map(AsRef::as_ref);
    for (i, rung) in cert.rungs.iter().enumerate() {
        let chosen = moves(rung);
        if chosen.len() > usize::from(k) {
            return Err(format!(
                "rung {i} fails {} units, budget is {k}",
                chosen.len()
            ));
        }
        let mut seen = vec![false; all];
        let mut union: Vec<u16> = Vec::new();
        for &u in &chosen {
            let (Some(slot), Some(set)) = (seen.get_mut(u as usize), leaves(u)) else {
                return Err(format!("rung {i} names unit {u} outside 0..{all}"));
            };
            if std::mem::replace(slot, true) {
                return Err(format!("rung {i} repeats unit {u}"));
            }
            union.extend_from_slice(set);
        }
        union.sort_unstable();
        union.dedup();
        if union != rung.witness {
            return Err(format!(
                "rung {i} witness is not the sorted leaf union of its units"
            ));
        }
    }
    let mut report = VerifyReport {
        kind,
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
    // attack, and failing every unit dominates any other choice
    // (failure is monotone in the failed set).
    if k == 0 || usize::from(k) >= all {
        let want = if k == 0 { 0 } else { all };
        let last = cert.rungs.last().map_or(0, |last| moves(last).len());
        if last != want || (k == 0 && cert.claimed_failed != 0) {
            return Err(format!(
                "k = {k} certificate over {all} units must fail {want} of them"
            ));
        }
        if !cert.ledger.is_empty() {
            return Err(format!(
                "k = {k} certificate over {all} units needs no ledger"
            ));
        }
        report.proven_optimal = true;
        return Ok(report);
    }
    // The canonical root frontier: every k-set's first unit (in
    // (gain, weight, id) descending order at the empty set) lies within
    // the first `all − k + 1` positions, so these entries cover every
    // attack. Order and bounds are recomputed from scratch on the
    // scalar oracle — equality with the recorded ledger is the
    // cross-kernel check.
    let roots = all - usize::from(k) + 1;
    if cert.ledger.len() != roots {
        return Err(format!(
            "ledger covers {} roots, the frontier has {roots}",
            cert.ledger.len()
        ));
    }
    // Scalar mirror of the prover's unit index: weights are leaf-load
    // sums, a unit's gain is the failure delta of downing its leaves,
    // and the admissible per-unit hit cap is c_max = max min(|leaves|, r)
    // — 1 when every unit is one leaf.
    let loads = placement.cached_loads();
    let load = |nd: u16| u64::from(loads.get(usize::from(nd)).copied().unwrap_or(0));
    let r = usize::from(cert.r);
    let c_max = units
        .iter()
        .map(|u| u.as_ref().len().min(r))
        .max()
        .unwrap_or(0) as u16;
    let hits = (u32::from(k - 1) * u32::from(c_max)).min(u32::from(u16::MAX)) as u16;
    let mut fc = FailureCounts::new(placement, cert.s);
    let mut keys: Vec<(u64, u64, u32)> = Vec::with_capacity(all);
    for (u, set) in units.iter().enumerate() {
        let set = set.as_ref();
        let gain = match set {
            &[nd] => fc.gain(nd),
            _ => with_down(&mut fc, set, FailureCounts::failed),
        };
        keys.push((gain, set.iter().map(|&nd| load(nd)).sum(), u as u32));
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    for (i, (&(_, _, u), entry)) in keys.iter().take(roots).zip(&cert.ledger).enumerate() {
        if entry.root != u {
            return Err(format!(
                "ledger entry {i} roots at unit {}, canonical order expects {u}",
                entry.root
            ));
        }
        let set = leaves(u).unwrap_or_default();
        let bound = with_down(&mut fc, set, |fc| fc.failed() + fc.failable_within(hits));
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

/// Downs `leaves`, reads `f` off the counts, and brings them back up.
fn with_down<T>(fc: &mut FailureCounts, leaves: &[u16], f: impl Fn(&FailureCounts) -> T) -> T {
    leaves.iter().for_each(|&nd| fc.add_node(nd));
    let out = f(fc);
    leaves.iter().rev().for_each(|&nd| fc.remove_node(nd));
    out
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

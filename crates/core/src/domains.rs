//! Fault domains: correlated failures of whole racks / zones.
//!
//! The paper's adversary fails `k` individual nodes. Real deployments
//! lose *fault domains* — a rack's switch or a zone's power feed takes
//! every node in it down together. This module lifts the paper's theory
//! to that model by projection:
//!
//! * a [`FaultDomains`] map assigns each node to a domain;
//! * [`domain_placement`] builds a placement whose replica sets live in
//!   `r` *distinct domains*, by planning a `Simple`/`Combo` packing over
//!   the domains (treating each domain as a super-node) and then
//!   spreading replicas across the nodes of each chosen domain
//!   round-robin;
//! * [`project`] maps any node-level placement to the domain level, so
//!   the node-level adversary/bounds apply verbatim with `n = #domains`
//!   and `k = #failed domains`: an object loses a replica to a domain
//!   failure iff its projected set hits the domain, so
//!   `Avail_domains(π) = Avail(project(π))` — Lemma 2/3 bounds carry
//!   over unchanged.
//!
//! The worst-case guarantee against `k` domain failures is therefore
//! exactly the paper's guarantee computed over domains; all adversaries
//! in `wcp-adversary` work on the projected placement as-is.

use crate::{ComboStrategy, Placement, PlacementError, SystemParams};

/// A mapping of nodes to fault domains.
///
/// # Examples
///
/// ```
/// use wcp_core::domains::FaultDomains;
///
/// // 12 nodes in 4 racks of 3.
/// let fd = FaultDomains::uniform(12, 4)?;
/// assert_eq!(fd.num_domains(), 4);
/// assert_eq!(fd.domain_of(7), 2);
/// assert_eq!(fd.nodes_in(2), vec![6, 7, 8]);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDomains {
    domain_of: Vec<u16>,
    num_domains: u16,
}

impl FaultDomains {
    /// Builds from an explicit node → domain map.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] if any domain id is out of range
    /// or some domain is empty.
    pub fn new(domain_of: Vec<u16>, num_domains: u16) -> Result<Self, PlacementError> {
        let mut seen = vec![false; usize::from(num_domains)];
        for &d in &domain_of {
            if d >= num_domains {
                return Err(PlacementError::InvalidParams(format!(
                    "domain id {d} out of range 0..{num_domains}"
                )));
            }
            seen[usize::from(d)] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err(PlacementError::InvalidParams(
                "every domain must contain at least one node".into(),
            ));
        }
        Ok(Self {
            domain_of,
            num_domains,
        })
    }

    /// Splits `n` nodes into `domains` near-equal contiguous domains.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] for `domains = 0` or
    /// `domains > n`.
    pub fn uniform(n: u16, domains: u16) -> Result<Self, PlacementError> {
        if domains == 0 || domains > n {
            return Err(PlacementError::InvalidParams(format!(
                "need 1 ≤ domains ≤ n, got domains={domains}, n={n}"
            )));
        }
        // Contiguous blocks of size ⌈n/d⌉ then ⌊n/d⌋ (balanced split).
        let base = n / domains;
        let extra = n % domains;
        let mut map = Vec::with_capacity(usize::from(n));
        for d in 0..domains {
            let size = base + u16::from(d < extra);
            map.extend(std::iter::repeat_n(d, usize::from(size)));
        }
        Self::new(map, domains)
    }

    /// Number of domains.
    #[must_use]
    pub fn num_domains(&self) -> u16 {
        self.num_domains
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u16 {
        self.domain_of.len() as u16
    }

    /// The domain of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    #[must_use]
    pub fn domain_of(&self, node: u16) -> u16 {
        self.domain_of[usize::from(node)]
    }

    /// The nodes of one domain (ascending).
    #[must_use]
    pub fn nodes_in(&self, domain: u16) -> Vec<u16> {
        self.domain_of
            .iter()
            .enumerate()
            .filter_map(|(nd, &d)| (d == domain).then_some(nd as u16))
            .collect()
    }
}

/// Projects a node-level placement to domain level: each replica set maps
/// to the set of domains it touches. Replica sets that use a domain twice
/// are rejected (they would weaken the failure threshold semantics).
///
/// # Errors
///
/// [`PlacementError::InvalidPlacement`] if shapes mismatch or an object
/// has two replicas in one domain.
pub fn project(placement: &Placement, domains: &FaultDomains) -> Result<Placement, PlacementError> {
    if placement.num_nodes() != domains.num_nodes() {
        return Err(PlacementError::InvalidPlacement(format!(
            "placement has {} nodes, domain map {}",
            placement.num_nodes(),
            domains.num_nodes()
        )));
    }
    let mut projected = Vec::with_capacity(placement.num_objects());
    for (obj, set) in placement.rows().enumerate() {
        let mut dset: Vec<u16> = set.iter().map(|&nd| domains.domain_of(nd)).collect();
        dset.sort_unstable();
        if dset.windows(2).any(|w| w[0] == w[1]) {
            return Err(PlacementError::InvalidPlacement(format!(
                "object {obj} has two replicas in one fault domain"
            )));
        }
        projected.push(dset);
    }
    Placement::new(
        domains.num_domains(),
        placement.replicas_per_object(),
        projected,
    )
}

/// A domain-aware strategy: plans a Combo packing *over domains* and
/// realizes it on nodes by cycling through each domain's nodes.
#[derive(Debug)]
pub struct DomainStrategy {
    domains: FaultDomains,
    inner: ComboStrategy,
    domain_params: SystemParams,
}

impl DomainStrategy {
    /// Plans for `b` objects, `r` replicas in distinct domains, objects
    /// failing at `s` *domain* losses, against `k` worst-case domain
    /// failures.
    ///
    /// # Errors
    ///
    /// Parameter validation and planning errors ([`SystemParams::new`],
    /// [`ComboStrategy::plan_constructive`]).
    pub fn plan(
        domains: FaultDomains,
        b: u64,
        r: u16,
        s: u16,
        k: u16,
        config: &wcp_designs::registry::RegistryConfig,
    ) -> Result<Self, PlacementError> {
        let domain_params = SystemParams::new(domains.num_domains(), b, r, s, k)?;
        let inner = ComboStrategy::plan_constructive(&domain_params, config)?;
        Ok(Self {
            domains,
            inner,
            domain_params,
        })
    }

    /// The worst-case availability guarantee against `k` domain failures.
    #[must_use]
    pub fn lower_bound(&self) -> u64 {
        self.inner.lower_bound()
    }

    /// Materializes the node-level placement.
    ///
    /// # Errors
    ///
    /// Propagates the inner build.
    pub fn build(&self) -> Result<Placement, PlacementError> {
        let domain_placement = self.inner.build(&self.domain_params)?;
        // Within each domain, hand out nodes round-robin so load inside a
        // domain stays balanced.
        let per_domain: Vec<Vec<u16>> = (0..self.domains.num_domains())
            .map(|d| self.domains.nodes_in(d))
            .collect();
        let mut cursor = vec![0usize; usize::from(self.domains.num_domains())];
        let mut sets = Vec::with_capacity(domain_placement.num_objects());
        for dset in domain_placement.rows() {
            let mut set: Vec<u16> = dset
                .iter()
                .map(|&d| {
                    let nodes = &per_domain[usize::from(d)];
                    let c = &mut cursor[usize::from(d)];
                    let nd = nodes[*c % nodes.len()];
                    *c += 1;
                    nd
                })
                .collect();
            set.sort_unstable();
            sets.push(set);
        }
        Placement::new(self.domains.num_nodes(), self.domain_params.r(), sets)
    }
}

/// Convenience: plan and build in one call.
///
/// # Errors
///
/// See [`DomainStrategy::plan`] / [`DomainStrategy::build`].
pub fn domain_placement(
    domains: FaultDomains,
    b: u64,
    r: u16,
    s: u16,
    k: u16,
    config: &wcp_designs::registry::RegistryConfig,
) -> Result<(Placement, u64), PlacementError> {
    let strategy = DomainStrategy::plan(domains, b, r, s, k, config)?;
    let placement = strategy.build()?;
    let bound = strategy.lower_bound();
    Ok((placement, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_designs::registry::RegistryConfig;

    #[test]
    fn uniform_split_balanced() {
        let fd = FaultDomains::uniform(13, 4).unwrap();
        let sizes: Vec<usize> = (0..4).map(|d| fd.nodes_in(d).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 13);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn invalid_maps_rejected() {
        assert!(FaultDomains::new(vec![0, 1, 5], 3).is_err()); // id out of range
        assert!(FaultDomains::new(vec![0, 0, 2], 3).is_err()); // domain 1 empty
        assert!(FaultDomains::uniform(5, 0).is_err());
        assert!(FaultDomains::uniform(5, 6).is_err());
    }

    #[test]
    fn projection_counts_domain_failures() {
        let fd = FaultDomains::uniform(12, 4).unwrap();
        // One object on nodes {0, 3, 6} = domains {0, 1, 2}.
        let p = Placement::new(12, 3, vec![vec![0, 3, 6]]).unwrap();
        let proj = project(&p, &fd).unwrap();
        assert_eq!(proj.replicas(0), &[0, 1, 2]);
        // Failing domains {0, 1} kills the object at s = 2.
        assert_eq!(proj.failed_objects(&[0, 1], 2), 1);
    }

    #[test]
    fn projection_rejects_same_domain_replicas() {
        let fd = FaultDomains::uniform(12, 4).unwrap();
        let p = Placement::new(12, 3, vec![vec![0, 1, 6]]).unwrap(); // 0,1 same rack
        assert!(project(&p, &fd).is_err());
    }

    #[test]
    fn domain_strategy_builds_and_balances() {
        // 84 nodes in 21 racks of 4; replicas in 3 distinct racks.
        let fd = FaultDomains::uniform(84, 21).unwrap();
        let (placement, bound) =
            domain_placement(fd.clone(), 200, 3, 2, 3, &RegistryConfig::default()).unwrap();
        assert_eq!(placement.num_objects(), 200);
        assert!(bound > 0);
        // Every replica set spans three distinct racks.
        let projected = project(&placement, &fd).unwrap();
        assert_eq!(projected.num_objects(), 200);
        // Node-level load stays balanced within the domain imbalance.
        let loads = placement.loads();
        let max = loads.iter().max().unwrap();
        assert!(*max <= 3 * (200 * 3 / 84 + 1) as u32);
    }
    // Adversarial end-to-end checks live in tests/domain_integration.rs
    // (an integration test links the real rlib, avoiding the
    // dev-dependency cycle with wcp-adversary).
}

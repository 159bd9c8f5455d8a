//! Fault domains by projection: correlated failures of whole racks,
//! read off a [`Topology`]'s level-1 domains.
//!
//! The paper's adversary fails `k` individual nodes. Real deployments
//! lose *fault domains* — a rack's switch or a zone's power feed takes
//! every node in it down together. This module lifts the paper's theory
//! to that model by projection onto a topology's bottom internal level:
//!
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
//! in `wcp-adversary` work on the projected placement as-is. A flat
//! topology has no domains to project onto.

use crate::{ComboStrategy, Placement, PlacementError, SystemParams, Topology};

/// The level-1 domain count of `topology`, or an error for a flat one.
fn domain_count(topology: &Topology) -> Result<u16, PlacementError> {
    if topology.is_flat() {
        return Err(PlacementError::InvalidParams(
            "a flat topology has no fault domains".into(),
        ));
    }
    Ok(topology.domains_at(1))
}

/// Projects a node-level placement onto `topology`'s level-1 domains:
/// each replica set maps to the set of domains it touches. Replica sets
/// that use a domain twice are rejected (they would weaken the failure
/// threshold semantics).
///
/// # Errors
///
/// [`PlacementError::InvalidParams`] for a flat topology;
/// [`PlacementError::InvalidPlacement`] if shapes mismatch or an object
/// has two replicas in one domain.
pub fn project(placement: &Placement, topology: &Topology) -> Result<Placement, PlacementError> {
    let domains = domain_count(topology)?;
    if placement.num_nodes() != topology.num_nodes() {
        return Err(PlacementError::InvalidPlacement(format!(
            "placement has {} nodes, topology {}",
            placement.num_nodes(),
            topology.num_nodes()
        )));
    }
    let mut projected = Vec::with_capacity(placement.num_objects());
    for (obj, set) in placement.rows().enumerate() {
        let mut dset: Vec<u16> = set.iter().map(|&nd| topology.domain_of(nd, 1)).collect();
        dset.sort_unstable();
        if dset.windows(2).any(|w| w.first() == w.get(1)) {
            return Err(PlacementError::InvalidPlacement(format!(
                "object {obj} has two replicas in one fault domain"
            )));
        }
        projected.push(dset);
    }
    Placement::new(domains, placement.replicas_per_object(), projected)
}

/// A domain-aware strategy: plans a Combo packing *over* a topology's
/// level-1 domains and realizes it on nodes by cycling through each
/// domain's nodes.
#[derive(Debug)]
pub struct DomainStrategy {
    /// The nodes of each level-1 domain (ascending).
    domains: Vec<Vec<u16>>,
    n: u16,
    inner: ComboStrategy,
    domain_params: SystemParams,
}

impl DomainStrategy {
    /// Plans for `b` objects, `r` replicas in distinct level-1 domains of
    /// `topology`, objects failing at `s` *domain* losses, against `k`
    /// worst-case domain failures.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] for a flat topology, plus
    /// parameter validation and planning errors ([`SystemParams::new`],
    /// [`ComboStrategy::plan_constructive`]).
    pub fn plan(
        topology: &Topology,
        b: u64,
        r: u16,
        s: u16,
        k: u16,
        config: &wcp_designs::registry::RegistryConfig,
    ) -> Result<Self, PlacementError> {
        let count = domain_count(topology)?;
        let domain_params = SystemParams::new(count, b, r, s, k)?;
        let inner = ComboStrategy::plan_constructive(&domain_params, config)?;
        Ok(Self {
            domains: (0..count).map(|d| topology.nodes_in(1, d)).collect(),
            n: topology.num_nodes(),
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
        let mut cursor = vec![0usize; self.domains.len()];
        let mut sets = Vec::with_capacity(domain_placement.num_objects());
        for dset in domain_placement.rows() {
            let mut set: Vec<u16> = dset
                .iter()
                .filter_map(|&d| {
                    let nodes = self.domains.get(usize::from(d))?;
                    let c = cursor.get_mut(usize::from(d))?;
                    let nd = nodes.get(*c % nodes.len()).copied();
                    *c += 1;
                    nd
                })
                .collect();
            set.sort_unstable();
            sets.push(set);
        }
        Placement::new(self.n, self.domain_params.r(), sets)
    }
}

/// Convenience: plan and build in one call.
///
/// # Errors
///
/// See [`DomainStrategy::plan`] / [`DomainStrategy::build`].
pub fn domain_placement(
    topology: &Topology,
    b: u64,
    r: u16,
    s: u16,
    k: u16,
    config: &wcp_designs::registry::RegistryConfig,
) -> Result<(Placement, u64), PlacementError> {
    let strategy = DomainStrategy::plan(topology, b, r, s, k, config)?;
    let placement = strategy.build()?;
    let bound = strategy.lower_bound();
    Ok((placement, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_designs::registry::RegistryConfig;

    #[test]
    fn projection_counts_domain_failures() {
        let topo = Topology::split(12, &[4]).unwrap();
        // One object on nodes {0, 3, 6} = domains {0, 1, 2}.
        let p = Placement::new(12, 3, vec![vec![0, 3, 6]]).unwrap();
        let proj = project(&p, &topo).unwrap();
        assert_eq!(proj.replicas(0), &[0, 1, 2]);
        // Failing domains {0, 1} kills the object at s = 2.
        assert_eq!(proj.failed_objects(&[0, 1], 2), 1);
    }

    #[test]
    fn projection_rejects_same_domain_replicas() {
        let topo = Topology::split(12, &[4]).unwrap();
        let p = Placement::new(12, 3, vec![vec![0, 1, 6]]).unwrap(); // 0,1 same rack
        assert!(project(&p, &topo).is_err());
    }

    #[test]
    fn flat_topologies_have_no_domains() {
        let p = Placement::new(12, 3, vec![vec![0, 3, 6]]).unwrap();
        let flat = Topology::flat(12);
        assert!(matches!(
            project(&p, &flat),
            Err(PlacementError::InvalidParams(_))
        ));
        assert!(matches!(
            domain_placement(&flat, 20, 3, 2, 2, &RegistryConfig::default()),
            Err(PlacementError::InvalidParams(_))
        ));
    }

    #[test]
    fn domain_strategy_builds_and_balances() {
        // 84 nodes in 21 racks of 4; replicas in 3 distinct racks.
        let topo = Topology::split(84, &[21]).unwrap();
        let (placement, bound) =
            domain_placement(&topo, 200, 3, 2, 3, &RegistryConfig::default()).unwrap();
        assert_eq!(placement.num_objects(), 200);
        assert!(bound > 0);
        // Every replica set spans three distinct racks.
        let projected = project(&placement, &topo).unwrap();
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

//! Hierarchical failure domains: zone → rack → node trees and
//! topology-aware placement.
//!
//! The paper's adversary fails `k` individual nodes, but real clusters
//! fail along correlated boundaries: a rack's switch or a zone's power
//! feed takes every node under it down at once (Mills, Znati & Melhem's
//! hierarchical-failure-domain model). This module makes that structure
//! first class:
//!
//! * [`Topology`] — a multi-level tree over the node universe
//!   (`zone → rack → node`), with the flat single-level tree
//!   ([`Topology::flat`]) as the degenerate case that reproduces the
//!   paper's per-node model exactly;
//! * [`FailureUnit`] — the adversary's choices under a topology: every
//!   tree node (a leaf, a rack, a zone), each carrying the set of leaf
//!   nodes it takes down ([`Topology::failure_units`]);
//! * [`DomainSpreadStrategy`] — a [`PlacementStrategy`] that spreads
//!   each object's `r` replicas across maximally separated domains
//!   (minimum shared tree depth first, then load);
//! * [`DomainRepaired`] / [`repair_domain_collisions`] — a wrapper that
//!   post-processes *any* strategy's placement, re-homing replicas that
//!   collide inside one failure domain.
//!
//! The domain-level adversary itself (budget-`k` over failure units)
//! lives in `wcp-adversary`; the single-level projection view of the
//! same idea is [`crate::domains`].

use crate::strategy::PlacementStrategy;
use crate::{Placement, PlacementError, SystemParams};
use wcp_sim::json::Value;

/// A hierarchical failure-domain tree over nodes `0..n`.
///
/// The tree is stored bottom-up as one parent map per internal level:
/// level 0 is the nodes themselves, level 1 their racks, level 2 the
/// zones above the racks, and so on. Domains at each level partition the
/// level below (every entry has exactly one parent, every domain is
/// non-empty), so domains nest: two nodes in one rack are necessarily in
/// one zone.
///
/// # Examples
///
/// ```
/// use wcp_core::Topology;
///
/// // 12 nodes in 4 racks of 3, racks in 2 zones of 2.
/// let topo = Topology::split(12, &[4, 2])?;
/// assert_eq!(topo.num_levels(), 2);
/// assert_eq!(topo.domain_of(7, 1), 2); // node 7 sits in rack 2 …
/// assert_eq!(topo.domain_of(7, 2), 1); // … which sits in zone 1
/// assert_eq!(topo.nodes_in(1, 2), vec![6, 7, 8]);
/// // The adversary's choices: 12 leaves + 4 racks + 2 zones.
/// assert_eq!(topo.failure_units().len(), 18);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    n: u16,
    /// `maps[0][node]` is the node's level-1 domain; `maps[i][d]` is
    /// level-`i` domain `d`'s level-`i+1` parent.
    maps: Vec<Vec<u16>>,
    /// Domains per internal level (`counts[i]` for level `i + 1`).
    counts: Vec<u16>,
}

impl Topology {
    /// The flat topology: no internal levels, every node its own
    /// failure domain. Under it the domain adversary degenerates to the
    /// paper's per-node adversary.
    #[must_use]
    pub fn flat(n: u16) -> Self {
        Self {
            n,
            maps: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Builds a topology from explicit bottom-up parent maps:
    /// `maps[0]` assigns each of the `n` nodes a level-1 domain,
    /// `maps[i]` assigns each level-`i` domain a level-`i+1` parent.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] when a map's length does not
    /// match the level below, or some domain id is skipped (an empty
    /// domain).
    pub fn new(n: u16, maps: Vec<Vec<u16>>) -> Result<Self, PlacementError> {
        let mut counts = Vec::with_capacity(maps.len());
        let mut below = usize::from(n);
        for (level, map) in maps.iter().enumerate() {
            if map.len() != below {
                return Err(PlacementError::InvalidParams(format!(
                    "level-{} map covers {} entries, level below has {below}",
                    level + 1,
                    map.len()
                )));
            }
            let domains = map.iter().copied().max().map_or(0, |m| m + 1);
            if domains == 0 {
                return Err(PlacementError::InvalidParams(format!(
                    "level {} has no domains",
                    level + 1
                )));
            }
            let mut seen = vec![false; usize::from(domains)];
            for &d in map {
                seen[usize::from(d)] = true;
            }
            if let Some(empty) = seen.iter().position(|&s| !s) {
                return Err(PlacementError::InvalidParams(format!(
                    "domain {empty} at level {} is empty",
                    level + 1
                )));
            }
            counts.push(domains);
            below = usize::from(domains);
        }
        Ok(Self { n, maps, counts })
    }

    /// A single rack level from explicit node groups. Groups must
    /// partition `0..n`.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] on overlapping groups, empty
    /// groups, out-of-range nodes, or nodes not covered by any group.
    pub fn from_groups(n: u16, groups: &[Vec<u16>]) -> Result<Self, PlacementError> {
        const UNASSIGNED: u16 = u16::MAX;
        let mut map = vec![UNASSIGNED; usize::from(n)];
        for (d, group) in groups.iter().enumerate() {
            if group.is_empty() {
                return Err(PlacementError::InvalidParams(format!(
                    "domain {d} is empty"
                )));
            }
            for &nd in group {
                if nd >= n {
                    return Err(PlacementError::InvalidParams(format!(
                        "domain {d} contains node {nd} outside 0..{n}"
                    )));
                }
                if map[usize::from(nd)] != UNASSIGNED {
                    return Err(PlacementError::InvalidParams(format!(
                        "node {nd} appears in domains {} and {d}",
                        map[usize::from(nd)]
                    )));
                }
                map[usize::from(nd)] = d as u16;
            }
        }
        if let Some(nd) = map.iter().position(|&d| d == UNASSIGNED) {
            return Err(PlacementError::InvalidParams(format!(
                "node {nd} belongs to no domain"
            )));
        }
        Self::new(n, vec![map])
    }

    /// A balanced tree by near-equal contiguous splits: `counts[0]`
    /// racks over the nodes, `counts[1]` zones over the racks, and so
    /// on (bottom-up).
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] when a level asks for zero
    /// domains or more domains than the level below has entries.
    pub fn split(n: u16, counts: &[u16]) -> Result<Self, PlacementError> {
        let mut maps = Vec::with_capacity(counts.len());
        let mut below = n;
        for &domains in counts {
            if domains == 0 || domains > below {
                return Err(PlacementError::InvalidParams(format!(
                    "need 1 ≤ domains ≤ {below}, got {domains}"
                )));
            }
            let base = below / domains;
            let extra = below % domains;
            let mut map = Vec::with_capacity(usize::from(below));
            for d in 0..domains {
                let size = base + u16::from(d < extra);
                map.extend(std::iter::repeat_n(d, usize::from(size)));
            }
            maps.push(map);
            below = domains;
        }
        Self::new(n, maps)
    }

    /// Projects the topology onto a surviving node subset: node
    /// `active[i]` of the original universe becomes node `i` of the
    /// projected one, keeping its domain chain. Domains emptied by the
    /// projection disappear; surviving domains are renumbered densely
    /// per level in order of first appearance (ascending `active`), so
    /// the result satisfies [`Topology::new`]'s no-empty-domain
    /// invariant. Co-location is preserved exactly: two active nodes
    /// share a projected domain iff they shared the original one.
    ///
    /// This is what lets a slot-universe topology follow a dynamic
    /// membership: replanning at `m` active slots needs a topology over
    /// exactly those `m` compact nodes.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] when `active` is empty, not
    /// strictly ascending, or references a node outside `0..n`.
    pub fn project(&self, active: &[u16]) -> Result<Self, PlacementError> {
        if active.is_empty() {
            return Err(PlacementError::InvalidParams(
                "cannot project a topology onto zero nodes".into(),
            ));
        }
        if active.windows(2).any(|w| w[0] >= w[1]) || *active.last().unwrap() >= self.n {
            return Err(PlacementError::InvalidParams(format!(
                "active nodes must be strictly ascending within 0..{}",
                self.n
            )));
        }
        let mut maps = Vec::with_capacity(self.maps.len());
        // Surviving entries of the level below, by original id
        // (level 0: the active nodes themselves).
        let mut below: Vec<u16> = active.to_vec();
        for (level, map) in self.maps.iter().enumerate() {
            let mut dense = vec![u16::MAX; usize::from(self.counts[level])];
            let mut survivors = Vec::new();
            let mut projected = Vec::with_capacity(below.len());
            for &orig in &below {
                let parent = map[usize::from(orig)];
                let slot = &mut dense[usize::from(parent)];
                if *slot == u16::MAX {
                    *slot = survivors.len() as u16;
                    survivors.push(parent);
                }
                projected.push(*slot);
            }
            maps.push(projected);
            below = survivors;
        }
        Self::new(active.len() as u16, maps)
    }

    /// Number of leaf nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u16 {
        self.n
    }

    /// Number of internal levels (0 for the flat topology).
    #[must_use]
    pub fn num_levels(&self) -> u16 {
        self.maps.len() as u16
    }

    /// The one wire form of a topology, as experiment records embed it:
    /// `{"maps": [[…], …]}`, the exact bottom-up parent maps
    /// ([`Topology::new`]'s input), so a reader rebuilds the tree even
    /// when its racks are irregular.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let levels = self
            .maps
            .iter()
            .map(|map| Value::Array(map.iter().map(|&p| p.into()).collect()))
            .collect();
        Value::object([("maps", Value::Array(levels))])
    }

    /// Reads [`Topology::to_value`]'s form back as a tree over `n`
    /// leaves. A `{"racks": …, "zones": …}` display label, which sweep
    /// records attach, carries no exact tree and reads as `Ok(None)`.
    ///
    /// # Errors
    ///
    /// A message when the value is neither form, or when its maps are
    /// not a valid tree over `n` leaves.
    pub fn from_value(value: &Value, n: u16) -> Result<Option<Self>, String> {
        if let Some(levels) = value.get("maps").and_then(Value::as_array) {
            let maps: Vec<Vec<u16>> = levels
                .iter()
                .map(|level| {
                    level
                        .as_array()
                        .ok_or("topology map levels must be arrays")?
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .and_then(|d| u16::try_from(d).ok())
                                .ok_or("topology map entries must be u16 integers")
                        })
                        .collect()
                })
                .collect::<Result<_, _>>()?;
            return Self::new(n, maps).map(Some).map_err(|e| e.to_string());
        }
        if value.get("racks").is_some() {
            return Ok(None);
        }
        Err("topology must carry a \"maps\" or \"racks\" field".into())
    }

    /// True when the topology has no internal levels.
    #[must_use]
    pub fn is_flat(&self) -> bool {
        self.maps.is_empty()
    }

    /// Number of domains at internal level `level` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds [`num_levels`](Self::num_levels).
    #[must_use]
    pub fn domains_at(&self, level: u16) -> u16 {
        self.counts[usize::from(level) - 1]
    }

    /// The domain hosting `node` at internal level `level` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if the node or level is out of range.
    #[must_use]
    pub fn domain_of(&self, node: u16, level: u16) -> u16 {
        let mut d = self.maps[0][usize::from(node)];
        for map in &self.maps[1..usize::from(level)] {
            d = map[usize::from(d)];
        }
        d
    }

    /// The nodes under domain `domain` of internal level `level`
    /// (ascending).
    ///
    /// # Panics
    ///
    /// Panics if the level is out of range.
    #[must_use]
    pub fn nodes_in(&self, level: u16, domain: u16) -> Vec<u16> {
        (0..self.n)
            .filter(|&nd| self.domain_of(nd, level) == domain)
            .collect()
    }

    /// How many tree levels two nodes share: 0 when they meet only at
    /// the (implicit) root, up to [`num_levels`](Self::num_levels) when
    /// they sit in one bottom-level domain. Because domains nest, this
    /// is a co-location severity: same rack ⇒ larger than same zone
    /// only.
    #[must_use]
    pub fn shared_depth(&self, a: u16, b: u16) -> u16 {
        let levels = self.num_levels();
        for level in 1..=levels {
            if self.domain_of(a, level) == self.domain_of(b, level) {
                // Nesting: sharing level ℓ implies sharing every level
                // above, so a and b share all levels from ℓ up.
                return levels - level + 1;
            }
        }
        0
    }

    /// Every choice the domain adversary can spend budget on: all `n`
    /// leaves (level 0) followed by every internal domain, level by
    /// level. Units whose leaf set duplicates an earlier unit's (the
    /// fan-out-1 chains: a rack with one node, a zone with one rack) are
    /// emitted once, at their lowest level.
    #[must_use]
    pub fn failure_units(&self) -> Vec<FailureUnit> {
        let mut units: Vec<FailureUnit> = (0..self.n)
            .map(|nd| FailureUnit {
                level: 0,
                id: nd,
                nodes: vec![nd],
            })
            .collect();
        let mut seen: std::collections::BTreeSet<Vec<u16>> =
            units.iter().map(|u| u.nodes.clone()).collect();
        for level in 1..=self.num_levels() {
            for domain in 0..self.domains_at(level) {
                let nodes = self.nodes_in(level, domain);
                if seen.insert(nodes.clone()) {
                    units.push(FailureUnit {
                        level,
                        id: domain,
                        nodes,
                    });
                }
            }
        }
        units
    }
}

/// One choice of the domain adversary: a tree node and the leaf set it
/// fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureUnit {
    /// Tree level: 0 for a leaf node, 1 for a rack, 2 for a zone, …
    pub level: u16,
    /// Domain id within its level (the node id for leaves).
    pub id: u16,
    /// The leaf nodes this unit takes down (ascending).
    pub nodes: Vec<u16>,
}

/// A topology-aware strategy spreading each object's `r` replicas
/// across maximally separated failure domains: replicas are chosen one
/// at a time, minimizing first the deepest tree level shared with the
/// already-chosen replicas, then node load, then node id.
///
/// Under the flat topology this degenerates to deterministic
/// least-loaded assignment. Its
/// [`lower_bound`](PlacementStrategy::lower_bound) is the projection
/// bound of the placement it builds — sound under the *domain*
/// adversary, where the strategy's value shows up: replicas never
/// share a rack as long as racks outnumber `r`.
#[derive(Debug, Clone)]
pub struct DomainSpreadStrategy {
    topology: Topology,
}

impl DomainSpreadStrategy {
    /// A spread strategy over the given topology.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        Self { topology }
    }

    /// The topology the strategy spreads over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }
}

/// The projection (counting) availability bound under the domain
/// adversary, read off a concretely built placement.
///
/// Preconditions: the topology has at most one internal level, and
/// every object's replicas land on pairwise-distinct bottom-level
/// units (nodes when flat, racks otherwise). Then any failure unit
/// holds at most one replica of each object, so any `k` failed units
/// hold at most `L_k` replicas — the `k` heaviest unit loads — while
/// every killed object absorbs at least `s` of them:
/// `failed ≤ ⌊L_k / s⌋`. Mixed leaf/rack attacks are covered
/// because a leaf's load never exceeds its rack's and units inside one
/// rack are disjoint, so any `k` units are dominated by the `k`
/// heaviest racks.
///
/// Returns the vacuous 0 when a precondition fails (deeper topologies,
/// or a replica collision inside one unit).
fn projection_bound(topology: &Topology, placement: &Placement, params: &SystemParams) -> i64 {
    if topology.num_levels() > 1 {
        return 0;
    }
    let flat = topology.is_flat();
    let units = if flat {
        usize::from(params.n())
    } else {
        usize::from(topology.domains_at(1))
    };
    let mut loads = vec![0u64; units];
    let mut seen: Vec<u16> = Vec::with_capacity(usize::from(params.r()));
    for set in placement.rows() {
        seen.clear();
        for &nd in set {
            let unit = if flat { nd } else { topology.domain_of(nd, 1) };
            if seen.contains(&unit) {
                return 0; // Colliding replicas: the counting argument is void.
            }
            seen.push(unit);
            loads[usize::from(unit)] += 1;
        }
    }
    loads.sort_unstable_by(|a, b| b.cmp(a));
    let l_k: u64 = loads.iter().take(usize::from(params.k())).sum();
    (params.b() as i64 - (l_k / u64::from(params.s())) as i64).max(0)
}

impl PlacementStrategy for DomainSpreadStrategy {
    fn name(&self) -> &str {
        "domain-spread"
    }

    /// The projection bound of the placement this strategy determinis-
    /// tically builds — not a closed form, but sound under the domain
    /// adversary (and a fortiori under the paper's node adversary,
    /// whose attacks are a subset of the unit attacks). 0 when the
    /// placement cannot be built or spread collision-free.
    fn lower_bound(&self, params: &SystemParams) -> i64 {
        match self.build(params) {
            Ok(placement) => projection_bound(&self.topology, &placement, params),
            Err(_) => 0,
        }
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        if self.topology.num_nodes() != params.n() {
            return Err(PlacementError::InvalidParams(format!(
                "topology spans {} nodes, system has {}",
                self.topology.num_nodes(),
                params.n()
            )));
        }
        let n = params.n();
        let r = usize::from(params.r());
        let mut loads = vec![0u32; usize::from(n)];
        let mut sets = Vec::with_capacity(params.b() as usize);
        for _ in 0..params.b() {
            let mut set: Vec<u16> = Vec::with_capacity(r);
            for _ in 0..r {
                let mut best: Option<(u16, u32, u16)> = None;
                for nd in 0..n {
                    if set.contains(&nd) {
                        continue;
                    }
                    let collision = set
                        .iter()
                        .map(|&c| self.topology.shared_depth(nd, c))
                        .max()
                        .unwrap_or(0);
                    let key = (collision, loads[usize::from(nd)], nd);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let (_, _, nd) = best.expect("r ≤ n leaves a choice");
                loads[usize::from(nd)] += 1;
                set.push(nd);
            }
            set.sort_unstable();
            sets.push(set);
        }
        Placement::new(n, params.r(), sets)
    }
}

/// Re-homes replicas that collide inside a failure domain: for each
/// object, as long as some replica shares a domain with another and a
/// strictly less-colliding node exists, the worst-colliding replica
/// moves to the node minimizing (shared depth with the rest, load, id).
/// Returns the repaired placement and the number of replicas moved.
///
/// Collisions that cannot be resolved (fewer bottom-level domains than
/// `r`) are left at the least-colliding arrangement found.
///
/// # Errors
///
/// [`PlacementError::InvalidParams`] when the topology's node count
/// does not match the placement's.
pub fn repair_domain_collisions(
    placement: &Placement,
    topology: &Topology,
) -> Result<(Placement, u64), PlacementError> {
    if topology.num_nodes() != placement.num_nodes() {
        return Err(PlacementError::InvalidParams(format!(
            "topology spans {} nodes, placement has {}",
            topology.num_nodes(),
            placement.num_nodes()
        )));
    }
    let n = placement.num_nodes();
    let r = placement.replicas_per_object();
    let mut rows = placement.shared_rows();
    let mut loads = placement.loads();
    let mut moved = 0u64;
    for set in std::sync::Arc::make_mut(&mut rows).chunks_exact_mut(usize::from(r)) {
        // Up to r passes: each moves the worst-colliding replica if a
        // strictly better home exists.
        for _ in 0..r {
            let collision = |v: u16, others: &[u16]| -> u16 {
                others
                    .iter()
                    .filter(|&&o| o != v)
                    .map(|&o| topology.shared_depth(v, o))
                    .max()
                    .unwrap_or(0)
            };
            let Some((worst_at, worst)) = set
                .iter()
                .enumerate()
                .map(|(i, &v)| (i, collision(v, set)))
                .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
            else {
                break;
            };
            if worst == 0 {
                break;
            }
            let out = set[worst_at];
            let others: Vec<u16> = set.iter().copied().filter(|&v| v != out).collect();
            let target = (0..n)
                .filter(|nd| set.binary_search(nd).is_err())
                .map(|nd| (collision(nd, &others), loads[usize::from(nd)], nd))
                .min();
            let Some((new_collision, _, target)) = target else {
                break;
            };
            if new_collision >= worst {
                break;
            }
            if let Some(slot) = set.get_mut(worst_at) {
                *slot = target;
            }
            set.sort_unstable();
            loads[usize::from(out)] -= 1;
            loads[usize::from(target)] += 1;
            moved += 1;
        }
    }
    Ok((Placement::from_rows(n, r, rows)?, moved))
}

/// Any strategy made topology aware: builds the inner placement, then
/// [`repair_domain_collisions`] re-homes same-domain replicas. The
/// inner strategy's bound is not preserved by the rewrite; the wrapper
/// instead claims the projection bound of its own repaired placement
/// (0 when repairs could not clear every collision).
pub struct DomainRepaired {
    inner: Box<dyn PlacementStrategy>,
    topology: Topology,
    name: String,
}

impl DomainRepaired {
    /// Wraps a planned strategy with post-build domain repair.
    #[must_use]
    pub fn new(inner: Box<dyn PlacementStrategy>, topology: Topology) -> Self {
        let name = format!("domain-repaired({})", inner.name());
        Self {
            inner,
            topology,
            name,
        }
    }
}

impl std::fmt::Debug for DomainRepaired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainRepaired")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .finish_non_exhaustive()
    }
}

impl PlacementStrategy for DomainRepaired {
    fn name(&self) -> &str {
        &self.name
    }

    /// The projection bound of the repaired placement (see
    /// [`DomainSpreadStrategy::lower_bound`]): sound under the domain
    /// adversary, 0 when unbuildable or still colliding after repair.
    fn lower_bound(&self, params: &SystemParams) -> i64 {
        match self.build(params) {
            Ok(placement) => projection_bound(&self.topology, &placement, params),
            Err(_) => 0,
        }
    }

    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError> {
        let inner = self.inner.build(params)?;
        let (repaired, _) = repair_domain_collisions(&inner, &self.topology)?;
        Ok(repaired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlannerContext, RandomStrategy, RandomVariant, StrategyKind};

    #[test]
    fn split_builds_nested_levels() {
        let topo = Topology::split(13, &[4, 2]).unwrap();
        assert_eq!(topo.num_nodes(), 13);
        assert_eq!(topo.num_levels(), 2);
        assert_eq!(topo.domains_at(1), 4);
        assert_eq!(topo.domains_at(2), 2);
        // Near-equal contiguous: 4+3+3+3 nodes, 2+2 racks.
        let sizes: Vec<usize> = (0..4).map(|d| topo.nodes_in(1, d).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3, 3]);
        // Nesting: same rack implies same zone.
        for a in 0..13 {
            for b in 0..13 {
                if topo.domain_of(a, 1) == topo.domain_of(b, 1) {
                    assert_eq!(topo.domain_of(a, 2), topo.domain_of(b, 2));
                }
            }
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let irregular = Topology::new(7, vec![vec![0, 0, 1, 2, 2, 2, 1], vec![0, 1, 1]]).unwrap();
        for topo in [
            irregular,
            Topology::split(12, &[4, 2]).unwrap(),
            Topology::flat(5),
        ] {
            let n = topo.num_nodes();
            let read = Topology::from_value(&Value::parse(&topo.to_value().to_json()).unwrap(), n);
            assert_eq!(read, Ok(Some(topo)));
        }
        let label = Value::object([("racks", 4u64.into()), ("zones", 0u64.into())]);
        assert_eq!(Topology::from_value(&label, 12), Ok(None));
        let split = Value::object([("split", Value::Array(vec![4u64.into()]))]);
        assert!(Topology::from_value(&split, 12).is_err());
        let short = Topology::split(12, &[4]).unwrap().to_value();
        assert!(Topology::from_value(&short, 13).is_err());
    }

    #[test]
    fn invalid_topologies_rejected() {
        // Wrong map length.
        assert!(Topology::new(4, vec![vec![0, 0, 1]]).is_err());
        // Skipped (empty) domain id.
        assert!(Topology::new(4, vec![vec![0, 0, 2, 2]]).is_err());
        // Second level not covering the first level's domains.
        assert!(Topology::new(4, vec![vec![0, 0, 1, 1], vec![0]]).is_err());
        // Split bounds.
        assert!(Topology::split(5, &[0]).is_err());
        assert!(Topology::split(5, &[6]).is_err());
        assert!(Topology::split(6, &[3, 4]).is_err());
    }

    #[test]
    fn explicit_groups_validate_overlap_and_coverage() {
        let topo = Topology::from_groups(6, &[vec![0, 3], vec![1, 4], vec![2, 5]]).unwrap();
        assert_eq!(topo.domain_of(4, 1), 1);
        assert_eq!(topo.nodes_in(1, 0), vec![0, 3]);
        // Overlap.
        assert!(Topology::from_groups(4, &[vec![0, 1], vec![1, 2, 3]]).is_err());
        // Empty group.
        assert!(Topology::from_groups(2, &[vec![0, 1], vec![]]).is_err());
        // Uncovered node.
        assert!(Topology::from_groups(4, &[vec![0, 1], vec![2]]).is_err());
        // Out of range.
        assert!(Topology::from_groups(3, &[vec![0, 1], vec![2, 3]]).is_err());
    }

    #[test]
    fn flat_units_are_exactly_the_leaves() {
        let topo = Topology::flat(5);
        assert!(topo.is_flat());
        let units = topo.failure_units();
        assert_eq!(units.len(), 5);
        for (i, u) in units.iter().enumerate() {
            assert_eq!(u.level, 0);
            assert_eq!(u.nodes, vec![i as u16]);
        }
        assert_eq!(topo.shared_depth(0, 1), 0);
    }

    #[test]
    fn fanout_one_chains_deduplicate() {
        // 3 nodes, 3 racks (one node each), 1 zone: the rack units
        // duplicate the leaves and are dropped; the zone survives.
        let topo = Topology::split(3, &[3, 1]).unwrap();
        let units = topo.failure_units();
        assert_eq!(units.len(), 4);
        assert_eq!(units[3].level, 2);
        assert_eq!(units[3].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn shared_depth_ranks_colocations() {
        let topo = Topology::split(12, &[4, 2]).unwrap();
        // Nodes 0,1 share rack 0 (and zone 0): depth 2.
        assert_eq!(topo.shared_depth(0, 1), 2);
        // Nodes 0 and 3: racks 0 vs 1, both zone 0: depth 1.
        assert_eq!(topo.shared_depth(0, 3), 1);
        // Nodes 0 and 11: different zones: depth 0.
        assert_eq!(topo.shared_depth(0, 11), 0);
        assert_eq!(topo.shared_depth(5, 5), 2);
    }

    #[test]
    fn project_preserves_colocation_with_dense_ids() {
        // racks {0,1,2}..{9,10,11}; zones {racks 0,1} and {racks 2,3}.
        let topo = Topology::split(12, &[4, 2]).unwrap();
        let active = [1u16, 2, 5, 6, 10, 11];
        let proj = topo.project(&active).unwrap();
        assert_eq!(proj.num_nodes(), 6);
        assert_eq!(proj.num_levels(), 2);
        // Co-location survives projection exactly: node i of the
        // projection is node active[i] of the original.
        for (i, &a) in active.iter().enumerate() {
            for (j, &b) in active.iter().enumerate() {
                assert_eq!(
                    proj.shared_depth(i as u16, j as u16),
                    topo.shared_depth(a, b),
                    "depth mismatch projecting ({a}, {b})"
                );
            }
        }
        // All four racks and both zones keep at least one node.
        assert_eq!(proj.domains_at(1), 4);
        assert_eq!(proj.domains_at(2), 2);
    }

    #[test]
    fn project_drops_emptied_domains() {
        let topo = Topology::split(8, &[4]).unwrap();
        // Rack 1 ({2, 3}) loses both nodes and disappears.
        let proj = topo.project(&[0, 1, 4, 5, 6, 7]).unwrap();
        assert_eq!(proj.domains_at(1), 3);
        // Full membership projects to the identity.
        let all: Vec<u16> = (0..8).collect();
        assert_eq!(topo.project(&all).unwrap(), topo);
    }

    #[test]
    fn project_rejects_bad_subsets() {
        let topo = Topology::split(8, &[4]).unwrap();
        assert!(topo.project(&[]).is_err());
        assert!(topo.project(&[3, 1]).is_err());
        assert!(topo.project(&[1, 1]).is_err());
        assert!(topo.project(&[0, 8]).is_err());
    }

    #[test]
    fn spread_strategy_avoids_rack_collisions() {
        let topo = Topology::split(12, &[4]).unwrap();
        let params = SystemParams::new(12, 40, 3, 2, 3).unwrap();
        let placement = DomainSpreadStrategy::new(topo.clone())
            .build(&params)
            .unwrap();
        assert_eq!(placement.num_objects(), 40);
        for set in placement.rows() {
            let mut racks: Vec<u16> = set.iter().map(|&nd| topo.domain_of(nd, 1)).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "replicas share a rack: {set:?}");
        }
        // Load stays balanced: 120 replicas over 12 nodes.
        assert!(placement.max_load() <= 11);
    }

    /// Brute-force worst-case availability under the domain adversary:
    /// every `k`-subset of failure units, by bitmask (test shapes keep
    /// the unit count small).
    fn exact_domain_availability(placement: &Placement, topo: &Topology, s: u16, k: u16) -> u64 {
        let units = topo.failure_units();
        assert!(units.len() < 22, "test shape too large for brute force");
        let mut worst = 0;
        for mask in 0u32..(1 << units.len()) {
            if mask.count_ones() != u32::from(k) {
                continue;
            }
            let mut nodes: Vec<u16> = units
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .flat_map(|(_, u)| u.nodes.iter().copied())
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            worst = worst.max(placement.failed_objects(&nodes, s));
        }
        placement.num_objects() as u64 - worst
    }

    #[test]
    fn spread_bound_is_tight_on_flat_balanced_shapes() {
        // Flat, n = 6, b = 6, r = 3: least-loaded assignment packs the
        // sets {0,1,2} and {3,4,5} three times each. Node loads are all
        // 3, so L_2 = 6 and the bound claims b − ⌊6/2⌋ = 3 — exactly
        // what failing nodes {0, 1} achieves.
        let topo = Topology::flat(6);
        let params = SystemParams::new(6, 6, 3, 2, 2).unwrap();
        let strategy = DomainSpreadStrategy::new(topo.clone());
        let bound = strategy.lower_bound(&params);
        assert_eq!(bound, 3);
        let placement = strategy.build(&params).unwrap();
        assert_eq!(exact_domain_availability(&placement, &topo, 2, 2), 3);
    }

    #[test]
    fn spread_bound_is_sound_on_small_exhaustive_shapes() {
        // Every valid (s, k) on a 12-node rack topology: the claimed
        // bound never exceeds the brute-forced worst case.
        let topo = Topology::split(12, &[4]).unwrap();
        for (s, k) in [(1u16, 1u16), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)] {
            let params = SystemParams::new(12, 12, 3, s, k).unwrap();
            let strategy = DomainSpreadStrategy::new(topo.clone());
            let bound = strategy.lower_bound(&params);
            let placement = strategy.build(&params).unwrap();
            let exact = exact_domain_availability(&placement, &topo, s, k);
            assert!(
                bound >= 0 && bound as u64 <= exact,
                "bound {bound} exceeds exact {exact} at s={s} k={k}"
            );
        }
    }

    #[test]
    fn spread_bound_is_vacuous_only_when_preconditions_fail() {
        let params = SystemParams::new(12, 12, 3, 2, 2).unwrap();
        // Two-level topologies are outside the counting argument.
        let deep = Topology::split(12, &[4, 2]).unwrap();
        assert_eq!(DomainSpreadStrategy::new(deep).lower_bound(&params), 0);
        // Fewer racks than r forces a collision, voiding the argument.
        let cramped = Topology::split(12, &[2]).unwrap();
        assert_eq!(DomainSpreadStrategy::new(cramped).lower_bound(&params), 0);
    }

    #[test]
    fn repaired_wrapper_claims_the_projection_bound() {
        let topo = Topology::split(12, &[4]).unwrap();
        let params = SystemParams::new(12, 12, 3, 2, 2).unwrap();
        let inner = StrategyKind::Random {
            seed: 7,
            variant: RandomVariant::LoadBalanced,
        }
        .plan(&params, &PlannerContext::default())
        .unwrap();
        let wrapper = DomainRepaired::new(inner, topo.clone());
        let bound = wrapper.lower_bound(&params);
        assert!(bound > 0, "repaired placement should earn a real bound");
        let placement = wrapper.build(&params).unwrap();
        let exact = exact_domain_availability(&placement, &topo, 2, 2);
        assert!(bound as u64 <= exact, "bound {bound} exceeds exact {exact}");
        // With fewer racks than r the repairs cannot clear collisions
        // and the wrapper must fall back to the vacuous claim.
        let cramped = Topology::split(12, &[2]).unwrap();
        let inner = StrategyKind::Random {
            seed: 7,
            variant: RandomVariant::LoadBalanced,
        }
        .plan(&params, &PlannerContext::default())
        .unwrap();
        assert_eq!(DomainRepaired::new(inner, cramped).lower_bound(&params), 0);
    }

    #[test]
    fn spread_strategy_rejects_mismatched_topology() {
        let params = SystemParams::new(12, 40, 3, 2, 3).unwrap();
        assert!(DomainSpreadStrategy::new(Topology::flat(9))
            .build(&params)
            .is_err());
    }

    #[test]
    fn repair_removes_collisions_when_capacity_allows() {
        let topo = Topology::split(12, &[4]).unwrap();
        let params = SystemParams::new(12, 30, 3, 2, 3).unwrap();
        // A rack-oblivious random placement collides often.
        let oblivious = RandomStrategy::new(7, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        let (repaired, moved) = repair_domain_collisions(&oblivious, &topo).unwrap();
        assert!(moved > 0, "expected at least one collision to repair");
        for set in repaired.rows() {
            let mut racks: Vec<u16> = set.iter().map(|&nd| topo.domain_of(nd, 1)).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "unresolved collision: {set:?}");
        }
        // Idempotent once clean.
        let (again, moved_again) = repair_domain_collisions(&repaired, &topo).unwrap();
        assert_eq!(moved_again, 0);
        assert_eq!(again, repaired);
    }

    #[test]
    fn repair_is_identity_on_flat_topologies() {
        let params = SystemParams::new(9, 20, 3, 2, 3).unwrap();
        let placement = RandomStrategy::new(3, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        let (repaired, moved) = repair_domain_collisions(&placement, &Topology::flat(9)).unwrap();
        assert_eq!(moved, 0);
        assert_eq!(repaired, placement);
        // Mismatched universe is rejected.
        assert!(repair_domain_collisions(&placement, &Topology::flat(8)).is_err());
    }

    #[test]
    fn repaired_wrapper_builds_through_the_trait() {
        let topo = Topology::split(12, &[4]).unwrap();
        let params = SystemParams::new(12, 24, 3, 2, 3).unwrap();
        let inner = StrategyKind::Ring
            .plan(&params, &PlannerContext::default())
            .unwrap();
        let wrapped = DomainRepaired::new(inner, topo.clone());
        assert_eq!(wrapped.name(), "domain-repaired(ring)");
        assert_eq!(wrapped.lower_bound(&params), 0);
        let placement = wrapped.build(&params).unwrap();
        for set in placement.rows() {
            let mut racks: Vec<u16> = set.iter().map(|&nd| topo.domain_of(nd, 1)).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "ring collision survived repair: {set:?}");
        }
    }
}

//! Adaptive placement under object churn — the extension the paper leaves
//! as future work ("an algorithm to adapt our placements as new objects
//! come and go would be an interesting advance", Sec. IV-D).
//!
//! [`AdaptivePlacer`] maintains a Combo-style placement incrementally:
//!
//! * **adds** draw replica sets from the planned `Simple(x, λ_x)` units,
//!   recycling freed blocks first (zero marginal penalty) and otherwise
//!   choosing the slot with the lowest *amortized penalty density* —
//!   Lemma-2 penalty per index unit divided by blocks per index unit —
//!   which is how the DP allocates in the static case;
//! * **removes** return the block to a free list — the packing property
//!   is monotone under deletion, so removal never degrades the bound;
//! * the Lemma-3 lower bound is re-evaluated after every operation from
//!   the *actual* per-slot indices in use, so the guarantee tracks the
//!   live population rather than a stale plan;
//! * when the live bound drifts too far from what a fresh DP plan would
//!   give (`replan_threshold`), the placer reports that a re-plan is
//!   worthwhile (`needs_replan`), letting operators schedule migration
//!   instead of being forced into it.

use crate::bounds::lb_avail_co;
use crate::{PackingProfile, PlacementError, SystemParams};
use std::collections::BTreeMap;

/// Identifier assigned to each live object.
pub type ObjectId = u64;

/// One placement slot: a materialized unit packing plus usage accounting.
#[derive(Debug, Clone)]
struct Slot {
    /// Blocks of one unit copy (sorted node sets).
    blocks: Vec<Vec<u16>>,
    /// Next fresh (never-used) block index, counting across copies:
    /// index `i` maps to `blocks[i % blocks.len()]` in copy `i / len`.
    next_fresh: u64,
    /// Freed block indices available for reuse (LIFO).
    free: Vec<u64>,
    /// Live objects on this slot: object id → block index.
    live: BTreeMap<ObjectId, u64>,
    /// `μ` of the unit (λ grows in multiples of it).
    mu: u64,
}

impl Slot {
    /// The slot's current effective index λ: how often the most-reused
    /// block is in use, times μ. With round-robin handout this is
    /// `⌈(highest index in use + 1)/blocks⌉·μ`.
    fn lambda_in_use(&self) -> u64 {
        if self.blocks.is_empty() {
            return 0;
        }
        let max_idx = self.live.values().max().copied();
        match max_idx {
            None => 0,
            Some(m) => (m / self.blocks.len() as u64 + 1) * self.mu,
        }
    }
}

/// An incrementally maintained worst-case-availability placement.
///
/// # Examples
///
/// ```
/// use wcp_core::adaptive::AdaptivePlacer;
/// use wcp_core::SystemParams;
/// use wcp_designs::registry::RegistryConfig;
///
/// let params = SystemParams::new(71, 600, 3, 2, 3)?;
/// let mut placer = AdaptivePlacer::new(&params, &RegistryConfig::default(), 0.05)?;
/// let a = placer.add_object()?;
/// let b = placer.add_object()?;
/// assert_eq!(placer.len(), 2);
/// placer.remove_object(a)?;
/// let c = placer.add_object()?; // reuses a's block
/// assert_eq!(placer.replicas(c).unwrap().len(), 3);
/// // With only 2 live objects the Lemma-3 bound (2 − ⌊C(3,2)⌋) is still
/// // vacuous — it becomes meaningful as the population grows.
/// assert_eq!(placer.lower_bound(), 2 - 3);
/// # drop(b);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug)]
pub struct AdaptivePlacer {
    params: SystemParams,
    slots: Vec<Slot>,
    next_id: ObjectId,
    replan_threshold: f64,
}

impl AdaptivePlacer {
    /// Builds the placer from the constructive profile sized for
    /// `params.b()` expected objects (the live population may exceed it;
    /// slots grow λ as needed).
    ///
    /// `replan_threshold` is the tolerated relative regret before
    /// [`needs_replan`](Self::needs_replan) fires (e.g. `0.05` = 5% of
    /// the ideal bound).
    ///
    /// # Errors
    ///
    /// Propagates profile construction and materialization errors.
    pub fn new(
        params: &SystemParams,
        config: &wcp_designs::registry::RegistryConfig,
        replan_threshold: f64,
    ) -> Result<Self, PlacementError> {
        let profile = PackingProfile::constructive(params, config)?;
        let mut slots = Vec::new();
        for x in 0..profile.s() {
            let spec = profile.spec(x);
            let blocks = if x == 0 {
                // Round-robin blocks over all nodes (one "copy" = a sweep
                // with per-node load exactly 1·r/n — i.e. capacity ⌊n/r⌋
                // blocks per λ unit; fresh indices extend the sweep).
                let n = usize::from(params.n());
                let r = usize::from(params.r());
                (0..n / r)
                    .map(|i| {
                        let mut set: Vec<u16> = (0..r).map(|j| ((i * r + j) % n) as u16).collect();
                        set.sort_unstable();
                        set
                    })
                    .collect()
            } else if let Some(unit) = &spec.unit {
                let limit = usize::try_from(unit.capacity().min(params.b())).unwrap_or(usize::MAX);
                unit.materialize(limit)?.into_blocks()
            } else {
                Vec::new()
            };
            slots.push(Slot {
                blocks,
                next_fresh: 0,
                free: Vec::new(),
                live: BTreeMap::new(),
                mu: spec.mu,
            });
        }
        Ok(Self {
            params: *params,
            slots,
            next_id: 0,
            replan_threshold,
        })
    }

    /// Live object count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.live.len()).sum()
    }

    /// True when no objects are placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current per-slot `λ_x` actually in use.
    #[must_use]
    pub fn lambdas(&self) -> Vec<u64> {
        self.slots.iter().map(Slot::lambda_in_use).collect()
    }

    /// The Lemma-3 lower bound for the *live* population under the
    /// current λ usage.
    #[must_use]
    pub fn lower_bound(&self) -> i64 {
        lb_avail_co(
            &self.lambdas(),
            self.len() as u64,
            self.params.k(),
            self.params.s(),
        )
    }

    /// Amortized cost of placing one more object on slot `x`: zero while
    /// reusable or already-paid-for blocks exist, else the Lemma-2
    /// penalty of one more index unit spread over the blocks it buys.
    fn placement_cost(&self, x: usize) -> Option<f64> {
        let slot = &self.slots[x];
        if slot.blocks.is_empty() {
            return None;
        }
        if !slot.free.is_empty() {
            return Some(0.0); // reuse is always free
        }
        let lam_now = slot.lambda_in_use();
        let lam_next = (slot.next_fresh / slot.blocks.len() as u64 + 1) * slot.mu;
        if lam_next <= lam_now {
            return Some(0.0); // next fresh block stays within current λ
        }
        let k = u64::from(self.params.k());
        let s = u64::from(self.params.s());
        let t = x as u64 + 1;
        let pen_per_unit = wcp_combin::binomial(k, t).expect("small") as f64
            / wcp_combin::binomial(s, t).expect("small") as f64
            * slot.mu as f64;
        Some(pen_per_unit / slot.blocks.len() as f64)
    }

    /// Places a new object, returning its id.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InsufficientCapacity`] when no slot can host
    /// another object (cannot happen while the `x = 0` sweep exists).
    pub fn add_object(&mut self) -> Result<ObjectId, PlacementError> {
        // Choose the slot with the smallest amortized cost; ties go to
        // the largest x (strongest packing).
        let mut best: Option<(f64, usize)> = None;
        for x in (0..self.slots.len()).rev() {
            if let Some(cost) = self.placement_cost(x) {
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, x));
                }
            }
        }
        let Some((_, x)) = best else {
            return Err(PlacementError::InsufficientCapacity {
                requested: self.len() as u64 + 1,
                capacity: self.len() as u64,
            });
        };
        let slot = &mut self.slots[x];
        let idx = match slot.free.pop() {
            Some(i) => i,
            None => {
                let i = slot.next_fresh;
                slot.next_fresh += 1;
                i
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        slot.live.insert(id, idx);
        Ok(id)
    }

    /// Removes an object, freeing its block for reuse.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidPlacement`] for unknown ids.
    pub fn remove_object(&mut self, id: ObjectId) -> Result<(), PlacementError> {
        for slot in &mut self.slots {
            if let Some(idx) = slot.live.remove(&id) {
                slot.free.push(idx);
                return Ok(());
            }
        }
        Err(PlacementError::InvalidPlacement(format!(
            "unknown object id {id}"
        )))
    }

    /// The replica set of a live object.
    #[must_use]
    pub fn replicas(&self, id: ObjectId) -> Option<&[u16]> {
        for slot in &self.slots {
            if let Some(&idx) = slot.live.get(&id) {
                return Some(&slot.blocks[usize::try_from(idx).ok()? % slot.blocks.len()]);
            }
        }
        None
    }

    /// Exports the live placement (object order = ascending id).
    ///
    /// # Errors
    ///
    /// Never fails for placer-produced data; kept fallible for the
    /// [`crate::Placement`] constructor.
    pub fn snapshot(&self) -> Result<crate::Placement, PlacementError> {
        let mut entries: Vec<(ObjectId, Vec<u16>)> = Vec::with_capacity(self.len());
        for slot in &self.slots {
            for (&id, &idx) in &slot.live {
                entries.push((
                    id,
                    slot.blocks[usize::try_from(idx).expect("fits") % slot.blocks.len()].clone(),
                ));
            }
        }
        entries.sort_by_key(|(id, _)| *id);
        crate::Placement::new(
            self.params.n(),
            self.params.r(),
            entries.into_iter().map(|(_, b)| b).collect(),
        )
    }

    /// True when a fresh DP plan for the live population would beat the
    /// live bound by more than the configured threshold — the signal to
    /// re-plan and migrate.
    ///
    /// # Errors
    ///
    /// Propagates DP errors for degenerate live populations.
    pub fn needs_replan(&self) -> Result<bool, PlacementError> {
        let live = self.len() as u64;
        if live == 0 {
            return Ok(false);
        }
        let params = self.params.with_b(live)?;
        let profile = PackingProfile::constructive(
            &params,
            &wcp_designs::registry::RegistryConfig::default(),
        )?;
        let ideal = crate::combo_plan(&profile, &params)?.lb_avail;
        let current = self.lower_bound().max(0) as u64;
        Ok((ideal as f64 - current as f64) > self.replan_threshold * ideal as f64)
    }
}

/// An [`AdaptivePlacer`] behind the unified
/// [`crate::PlacementStrategy`] API: the placer's *live* population and
/// λ usage, frozen into a strategy whose `build` exports the snapshot.
///
/// Obtain one either from [`AdaptiveSnapshot::plan`] (fills a fresh
/// placer with `params.b()` objects, the path [`crate::StrategyKind`]
/// uses) or [`AdaptiveSnapshot::from_placer`] (wraps a placer that has
/// lived through churn).
#[derive(Debug)]
pub struct AdaptiveSnapshot {
    placer: AdaptivePlacer,
}

impl AdaptiveSnapshot {
    /// Builds a placer for `params`, fills it with `params.b()` objects
    /// and freezes it.
    ///
    /// # Errors
    ///
    /// Propagates placer construction and placement errors.
    pub fn plan(
        params: &SystemParams,
        config: &wcp_designs::registry::RegistryConfig,
        replan_threshold: f64,
    ) -> Result<Self, PlacementError> {
        let mut placer = AdaptivePlacer::new(params, config, replan_threshold)?;
        for _ in 0..params.b() {
            placer.add_object()?;
        }
        Ok(Self { placer })
    }

    /// Wraps an existing placer (e.g. after a churn workload).
    #[must_use]
    pub fn from_placer(placer: AdaptivePlacer) -> Self {
        Self { placer }
    }

    /// The wrapped placer.
    #[must_use]
    pub fn placer(&self) -> &AdaptivePlacer {
        &self.placer
    }

    /// Unwraps the placer for further churn.
    #[must_use]
    pub fn into_placer(self) -> AdaptivePlacer {
        self.placer
    }
}

impl crate::PlacementStrategy for AdaptiveSnapshot {
    fn name(&self) -> &str {
        "adaptive"
    }

    /// The Lemma-3 bound for the live population's λ usage, evaluated at
    /// the given parameters' `(k, s)`.
    fn lower_bound(&self, params: &SystemParams) -> i64 {
        lb_avail_co(
            &self.placer.lambdas(),
            self.placer.len() as u64,
            params.k(),
            params.s(),
        )
    }

    fn build(&self, _params: &SystemParams) -> Result<crate::Placement, PlacementError> {
        self.placer.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_designs::registry::RegistryConfig;
    use wcp_designs::{verify, BlockDesign};

    fn placer(n: u16, b: u64, r: u16, s: u16, k: u16) -> AdaptivePlacer {
        let params = SystemParams::new(n, b, r, s, k).unwrap();
        AdaptivePlacer::new(&params, &RegistryConfig::default(), 0.05).unwrap()
    }

    #[test]
    fn add_prefers_strong_slots() {
        let mut p = placer(71, 600, 3, 2, 3);
        for _ in 0..600 {
            p.add_object().unwrap();
        }
        // All 600 fit in one STS(69) copy: λ = [0, 1].
        assert_eq!(p.lambdas(), vec![0, 1]);
        assert_eq!(p.lower_bound(), 600 - 3);
    }

    #[test]
    fn churn_reuses_blocks() {
        let mut p = placer(71, 100, 3, 2, 3);
        let ids: Vec<_> = (0..100).map(|_| p.add_object().unwrap()).collect();
        let before = p.lambdas();
        // Remove half, add half back: λ must not grow.
        for &id in ids.iter().step_by(2) {
            p.remove_object(id).unwrap();
        }
        for _ in 0..50 {
            p.add_object().unwrap();
        }
        assert_eq!(p.len(), 100);
        assert_eq!(p.lambdas(), before, "churn must not inflate λ");
    }

    #[test]
    fn snapshot_is_valid_packing() {
        let mut p = placer(71, 900, 3, 2, 3);
        for _ in 0..900 {
            p.add_object().unwrap();
        }
        let placement = p.snapshot().unwrap();
        assert_eq!(placement.num_objects(), 900);
        let lam = p.lambdas()[1];
        let design =
            BlockDesign::new(71, 3, placement.rows().map(<[u16]>::to_vec).collect()).unwrap();
        assert!(verify::is_t_packing(&design, 2, lam));
    }

    #[test]
    fn bound_tracks_live_population() {
        let mut p = placer(71, 1600, 3, 2, 3);
        for _ in 0..1600 {
            p.add_object().unwrap();
        }
        // 1600 > 2·782: λ1 = 3 in use (last sweep partially filled).
        assert_eq!(p.lambdas()[1], 3);
        assert_eq!(
            p.lower_bound(),
            lb_avail_co(&p.lambdas(), 1600, 3, 2),
            "bound must be recomputed from live λs"
        );
        // Removing the later objects shrinks λ usage back to 1 copy and
        // the bound becomes the single-copy one.
        for id in (782..1600).rev() {
            p.remove_object(id).unwrap();
        }
        assert_eq!(p.lambdas()[1], 1);
        assert_eq!(p.lower_bound(), 782 - 3);
    }

    #[test]
    fn replan_signal_fires_after_heavy_churn() {
        let mut p = placer(71, 400, 3, 3, 5);
        for _ in 0..400 {
            p.add_object().unwrap();
        }
        assert!(
            !p.needs_replan().unwrap(),
            "fresh fill must not demand a replan"
        );
        // Heavy churn keeps the call functional regardless of outcome.
        for id in 0..399 {
            let _ = p.remove_object(id);
        }
        let _ = p.needs_replan().unwrap();
    }

    #[test]
    fn snapshot_strategy_matches_placer() {
        use crate::PlacementStrategy;
        let params = SystemParams::new(71, 300, 3, 2, 3).unwrap();
        let snap = AdaptiveSnapshot::plan(&params, &RegistryConfig::default(), 0.05).unwrap();
        assert_eq!(snap.name(), "adaptive");
        assert_eq!(snap.lower_bound(&params), snap.placer().lower_bound());
        let placement = snap.build(&params).unwrap();
        assert_eq!(placement.num_objects(), 300);
        // Churned placers freeze too.
        let mut placer = snap.into_placer();
        placer.remove_object(0).unwrap();
        let snap = AdaptiveSnapshot::from_placer(placer);
        assert_eq!(snap.build(&params).unwrap().num_objects(), 299);
    }

    #[test]
    fn unknown_id_rejected() {
        let mut p = placer(31, 50, 3, 2, 3);
        assert!(p.remove_object(99).is_err());
    }

    #[test]
    fn overflow_grows_lambda_not_panics() {
        // Tiny system: capacity per copy is small, adds must keep working
        // by growing λ.
        let mut p = placer(9, 20, 3, 2, 2);
        for _ in 0..200 {
            p.add_object().unwrap();
        }
        assert_eq!(p.len(), 200);
        let placement = p.snapshot().unwrap();
        assert_eq!(placement.num_objects(), 200);
    }
}

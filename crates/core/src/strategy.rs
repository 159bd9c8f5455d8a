//! The unified [`PlacementStrategy`] abstraction.
//!
//! The paper's whole point is comparing placement strategies —
//! `Simple(x, λ)`, `Combo(⟨λ_x⟩)`, load-balanced `Random`, and naive
//! baselines — under one worst-case availability metric (Definition 1).
//! This module gives every strategy family one API:
//!
//! * [`PlacementStrategy`] — an object-safe trait over *planned*
//!   strategies: a [`name`](PlacementStrategy::name), an availability
//!   [`lower_bound`](PlacementStrategy::lower_bound), and a
//!   [`build`](PlacementStrategy::build) that materializes a
//!   [`Placement`]. Implemented by [`SimpleStrategy`], [`ComboStrategy`],
//!   [`RandomStrategy`], the ring/group baselines
//!   ([`crate::RingStrategy`], [`crate::GroupStrategy`]) and adaptive
//!   snapshots ([`crate::AdaptiveSnapshot`]);
//! * [`StrategyKind`] — a declarative registry of the strategy families,
//!   whose [`plan`](StrategyKind::plan) turns `(params, context)` into a
//!   boxed [`PlacementStrategy`];
//! * [`PlannerContext`] — the planning-time input shared by every
//!   family (the failure-domain tree topology-aware kinds plan against).
//!
//! The [`crate::engine`] module drives the full plan → build → attack →
//! report pipeline on top of this trait.

use crate::adaptive::AdaptiveSnapshot;
use crate::baselines::{GroupStrategy, RingStrategy};
use crate::topology::{DomainSpreadStrategy, Topology};
use crate::{
    ComboStrategy, Placement, PlacementError, RandomStrategy, RandomVariant, SimpleStrategy,
    SystemParams,
};
use wcp_designs::registry::RegistryConfig;

/// A planned replica-placement strategy, ready to materialize and to
/// state its worst-case availability guarantee.
///
/// The trait is object safe; heterogeneous collections of strategies
/// (`Vec<Box<dyn PlacementStrategy>>`) are the intended use, see
/// [`StrategyKind::plan`].
pub trait PlacementStrategy {
    /// Human-readable strategy identifier (stable enough for reports and
    /// benchmark ids).
    fn name(&self) -> &str;

    /// The availability the strategy *guarantees* under the worst
    /// `params.k()` node failures (Lemmas 2–3 for the packing
    /// strategies; exact closed forms for the baselines; 0 — the vacuous
    /// bound — for strategies with only probabilistic guarantees).
    ///
    /// May be negative when the formula's penalty exceeds `b` (the paper
    /// plots such vacuous bounds in Fig. 10).
    fn lower_bound(&self, params: &SystemParams) -> i64;

    /// Materializes the placement for `params.b()` objects.
    ///
    /// # Errors
    ///
    /// [`PlacementError`] when the strategy cannot host `params.b()`
    /// objects or a backing design cannot be materialized.
    fn build(&self, params: &SystemParams) -> Result<Placement, PlacementError>;
}

/// Planning-time configuration shared by every strategy family (the
/// packing families always plan with the default [`RegistryConfig`]).
#[derive(Debug, Clone, Default)]
pub struct PlannerContext {
    /// The failure-domain tree topology-aware strategies plan against.
    /// `None` — or a topology sized for a different node count than the
    /// planned parameters (e.g. a dynamic replan at churned membership)
    /// — falls back to the flat topology, which reproduces the
    /// topology-oblivious behavior exactly.
    pub topology: Option<Topology>,
}

/// The registry of strategy families, i.e. *how to obtain* a
/// [`PlacementStrategy`] for given parameters.
///
/// # Examples
///
/// ```
/// use wcp_core::{PlannerContext, StrategyKind, SystemParams};
///
/// let params = SystemParams::new(71, 600, 3, 2, 3)?;
/// let strategy = StrategyKind::Combo.plan(&params, &PlannerContext::default())?;
/// assert_eq!(strategy.name(), "combo");
/// assert!(strategy.lower_bound(&params) > 500);
/// assert_eq!(strategy.build(&params)?.num_objects(), 600);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyKind {
    /// `Simple(x, λ)` (Definition 2) with minimal `λ`, constructively
    /// backed.
    Simple {
        /// The overlap bound `x < s`.
        x: u16,
    },
    /// `Combo(⟨λ_x⟩)` (Definition 3) planned by the DP of Sec. III-B1.
    Combo,
    /// Load-balanced random placement (Definition 4) or one of its
    /// variants.
    Random {
        /// RNG seed (placements are deterministic given seed and
        /// parameters).
        seed: u64,
        /// The sampling process.
        variant: RandomVariant,
    },
    /// Chained declustering: object `i` on `r` consecutive nodes.
    Ring,
    /// Disjoint replica groups (copyset-style).
    Group,
    /// Snapshot of an [`crate::adaptive::AdaptivePlacer`] filled with
    /// `params.b()` objects.
    Adaptive,
    /// Topology-aware spread: each object's replicas in maximally
    /// separated failure domains ([`DomainSpreadStrategy`], planned
    /// against [`PlannerContext::topology`]).
    DomainSpread,
}

impl StrategyKind {
    /// One representative of every strategy family, for conformance
    /// sweeps and apples-to-apples benchmarks: `Simple(x)` for each
    /// `x < s`, Combo, load-balanced Random, ring, group, and the
    /// adaptive snapshot.
    #[must_use]
    pub fn all(params: &SystemParams) -> Vec<StrategyKind> {
        let mut kinds: Vec<StrategyKind> = (0..params.s())
            .map(|x| StrategyKind::Simple { x })
            .collect();
        kinds.extend([
            StrategyKind::Combo,
            StrategyKind::Random {
                seed: 0x5eed,
                variant: RandomVariant::LoadBalanced,
            },
            StrategyKind::Ring,
            StrategyKind::Group,
            StrategyKind::Adaptive,
            StrategyKind::DomainSpread,
        ]);
        kinds
    }

    /// The kind's display label (matches the planned strategy's
    /// [`PlacementStrategy::name`] up to planned details such as `λ`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Simple { x } => format!("simple(x={x})"),
            StrategyKind::Combo => "combo".into(),
            StrategyKind::Random { variant, .. } => variant.label().into(),
            StrategyKind::Ring => "ring".into(),
            StrategyKind::Group => "group".into(),
            StrategyKind::Adaptive => "adaptive".into(),
            StrategyKind::DomainSpread => "domain-spread".into(),
        }
    }

    /// Parses a compact spec string, the format sweep specs and CLI
    /// flags use: `combo`, `ring`, `group`, `adaptive`, `domain-spread`,
    /// `simple:<x>`, `random[:<seed>]` (load-balanced),
    /// `random-seq[:<seed>]`, `random-unc[:<seed>]`. The default seed is
    /// `0x5eed`.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] on unknown names or malformed
    /// numeric suffixes.
    ///
    /// # Examples
    ///
    /// ```
    /// use wcp_core::StrategyKind;
    ///
    /// assert_eq!(StrategyKind::parse_spec("combo")?, StrategyKind::Combo);
    /// assert_eq!(
    ///     StrategyKind::parse_spec("simple:1")?,
    ///     StrategyKind::Simple { x: 1 }
    /// );
    /// assert!(StrategyKind::parse_spec("frobnicate").is_err());
    /// # Ok::<(), wcp_core::PlacementError>(())
    /// ```
    pub fn parse_spec(spec: &str) -> Result<StrategyKind, PlacementError> {
        let bad = |msg: String| PlacementError::InvalidParams(msg);
        let (name, arg) = match spec.split_once(':') {
            Some((name, arg)) => (name, Some(arg)),
            None => (spec, None),
        };
        let seed = |arg: Option<&str>| -> Result<u64, PlacementError> {
            arg.map_or(Ok(0x5eed), |a| {
                a.parse()
                    .map_err(|_| bad(format!("invalid seed '{a}' in strategy spec '{spec}'")))
            })
        };
        match name {
            "combo" => Ok(StrategyKind::Combo),
            "ring" => Ok(StrategyKind::Ring),
            "group" => Ok(StrategyKind::Group),
            "adaptive" => Ok(StrategyKind::Adaptive),
            "domain-spread" => Ok(StrategyKind::DomainSpread),
            "simple" => {
                let arg = arg.ok_or_else(|| bad(format!("'{spec}' needs an x: simple:<x>")))?;
                let x = arg
                    .parse()
                    .map_err(|_| bad(format!("invalid x '{arg}' in strategy spec '{spec}'")))?;
                Ok(StrategyKind::Simple { x })
            }
            "random" => Ok(StrategyKind::Random {
                seed: seed(arg)?,
                variant: RandomVariant::LoadBalanced,
            }),
            "random-seq" => Ok(StrategyKind::Random {
                seed: seed(arg)?,
                variant: RandomVariant::SequentialUniform,
            }),
            "random-unc" => Ok(StrategyKind::Random {
                seed: seed(arg)?,
                variant: RandomVariant::Unconstrained,
            }),
            _ => Err(bad(format!(
                "unknown strategy spec '{spec}' (expected combo, ring, group, adaptive, \
                 domain-spread, simple:<x>, random[:<seed>], random-seq[:<seed>] or \
                 random-unc[:<seed>])"
            ))),
        }
    }

    /// The kind's spec string: the exact inverse of
    /// [`parse_spec`](Self::parse_spec), so a kind survives a
    /// round-trip through persisted records (unlike
    /// [`label`](Self::label), which drops the random seed). Sweep
    /// JSONL records carry it so `wcp-verify` can rebuild the cell's
    /// placement when re-checking its certificate.
    ///
    /// # Examples
    ///
    /// ```
    /// use wcp_core::{RandomVariant, StrategyKind};
    ///
    /// let kind = StrategyKind::Random {
    ///     seed: 7,
    ///     variant: RandomVariant::SequentialUniform,
    /// };
    /// assert_eq!(kind.spec(), "random-seq:7");
    /// assert_eq!(StrategyKind::parse_spec(&kind.spec()).unwrap(), kind);
    /// ```
    #[must_use]
    pub fn spec(&self) -> String {
        match self {
            StrategyKind::Simple { x } => format!("simple:{x}"),
            StrategyKind::Combo => "combo".into(),
            StrategyKind::Random { seed, variant } => {
                let name = match variant {
                    RandomVariant::LoadBalanced => "random",
                    RandomVariant::SequentialUniform => "random-seq",
                    RandomVariant::Unconstrained => "random-unc",
                };
                format!("{name}:{seed}")
            }
            StrategyKind::Ring => "ring".into(),
            StrategyKind::Group => "group".into(),
            StrategyKind::Adaptive => "adaptive".into(),
            StrategyKind::DomainSpread => "domain-spread".into(),
        }
    }

    /// Plans this kind for `params`, returning the unified strategy
    /// object.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Design`] when a packing slot is not
    /// constructible at these parameters; [`PlacementError::InvalidParams`]
    /// for kind/parameter mismatches (e.g. `Simple { x ≥ s }`).
    pub fn plan(
        &self,
        params: &SystemParams,
        ctx: &PlannerContext,
    ) -> Result<Box<dyn PlacementStrategy>, PlacementError> {
        let registry = RegistryConfig::default();
        Ok(match self {
            StrategyKind::Simple { x } => {
                Box::new(SimpleStrategy::plan_constructive(*x, params, &registry)?)
            }
            StrategyKind::Combo => Box::new(ComboStrategy::plan_constructive(params, &registry)?),
            StrategyKind::Random { seed, variant } => {
                Box::new(RandomStrategy::new(*seed, *variant))
            }
            StrategyKind::Ring => Box::new(RingStrategy),
            StrategyKind::Group => Box::new(GroupStrategy),
            // The snapshot is boxed frozen, so the placer's re-plan
            // threshold is never read.
            StrategyKind::Adaptive => Box::new(AdaptiveSnapshot::plan(params, &registry, 0.05)?),
            StrategyKind::DomainSpread => {
                let topology = ctx
                    .topology
                    .as_ref()
                    .filter(|t| t.num_nodes() == params.n())
                    .cloned()
                    .unwrap_or_else(|| Topology::flat(params.n()));
                Box::new(DomainSpreadStrategy::new(topology))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u16, b: u64, r: u16, s: u16, k: u16) -> SystemParams {
        SystemParams::new(n, b, r, s, k).unwrap()
    }

    #[test]
    fn all_covers_every_family() {
        let p = params(31, 100, 3, 2, 3);
        let kinds = StrategyKind::all(&p);
        assert!(kinds.contains(&StrategyKind::Simple { x: 0 }));
        assert!(kinds.contains(&StrategyKind::Simple { x: 1 }));
        assert!(kinds.contains(&StrategyKind::Combo));
        assert!(kinds.contains(&StrategyKind::Ring));
        assert!(kinds.contains(&StrategyKind::Group));
        assert!(kinds.contains(&StrategyKind::Adaptive));
        assert!(kinds.contains(&StrategyKind::DomainSpread));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, StrategyKind::Random { .. })));
    }

    #[test]
    fn spec_round_trips_every_kind() {
        let p = params(31, 100, 3, 2, 3);
        let mut kinds = StrategyKind::all(&p);
        kinds.push(StrategyKind::Random {
            seed: 0xfeed_beef,
            variant: RandomVariant::Unconstrained,
        });
        kinds.push(StrategyKind::Random {
            seed: 42,
            variant: RandomVariant::SequentialUniform,
        });
        for kind in kinds {
            assert_eq!(
                StrategyKind::parse_spec(&kind.spec()).unwrap(),
                kind,
                "spec '{}' must round-trip",
                kind.spec()
            );
        }
    }

    #[test]
    fn every_kind_plans_and_builds_on_a_small_system() {
        let p = params(13, 26, 3, 2, 3);
        let ctx = PlannerContext::default();
        for kind in StrategyKind::all(&p) {
            let strategy = kind.plan(&p, &ctx).expect("plans");
            let placement = strategy.build(&p).expect("builds");
            assert_eq!(placement.num_objects(), 26, "{}", strategy.name());
            assert_eq!(placement.num_nodes(), 13, "{}", strategy.name());
        }
    }

    #[test]
    fn planned_names_are_distinct() {
        let p = params(13, 26, 3, 2, 3);
        let ctx = PlannerContext::default();
        let names: Vec<String> = StrategyKind::all(&p)
            .iter()
            .map(|k| k.plan(&p, &ctx).expect("plans").name().to_string())
            .collect();
        let distinct: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "{names:?}");
    }

    #[test]
    fn spec_strings_round_trip() {
        for (spec, kind) in [
            ("combo", StrategyKind::Combo),
            ("ring", StrategyKind::Ring),
            ("group", StrategyKind::Group),
            ("adaptive", StrategyKind::Adaptive),
            ("domain-spread", StrategyKind::DomainSpread),
            ("simple:0", StrategyKind::Simple { x: 0 }),
            ("simple:2", StrategyKind::Simple { x: 2 }),
            (
                "random:7",
                StrategyKind::Random {
                    seed: 7,
                    variant: crate::RandomVariant::LoadBalanced,
                },
            ),
            (
                "random-seq",
                StrategyKind::Random {
                    seed: 0x5eed,
                    variant: crate::RandomVariant::SequentialUniform,
                },
            ),
            (
                "random-unc:3",
                StrategyKind::Random {
                    seed: 3,
                    variant: crate::RandomVariant::Unconstrained,
                },
            ),
        ] {
            assert_eq!(StrategyKind::parse_spec(spec).unwrap(), kind, "{spec}");
        }
        assert!(StrategyKind::parse_spec("simple").is_err());
        assert!(StrategyKind::parse_spec("simple:x").is_err());
        assert!(StrategyKind::parse_spec("random:notanumber").is_err());
        assert!(StrategyKind::parse_spec("bogus").is_err());
    }

    #[test]
    fn simple_x_out_of_range_rejected() {
        let p = params(13, 26, 3, 2, 3);
        assert!(StrategyKind::Simple { x: 2 }
            .plan(&p, &PlannerContext::default())
            .is_err());
    }

    #[test]
    fn trait_bound_matches_inherent_bounds() {
        let p = params(71, 900, 3, 2, 4);
        let registry = RegistryConfig::default();
        let combo = ComboStrategy::plan_constructive(&p, &registry).unwrap();
        assert_eq!(
            PlacementStrategy::lower_bound(&combo, &p),
            combo.lower_bound() as i64
        );
        let simple = SimpleStrategy::plan_constructive(1, &p, &registry).unwrap();
        assert_eq!(
            PlacementStrategy::lower_bound(&simple, &p),
            simple.lower_bound(p.b(), p.k(), p.s())
        );
    }
}

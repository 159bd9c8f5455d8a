//! # worst-case-placement
//!
//! A from-scratch Rust implementation of **"Replica Placement for
//! Availability in the Worst Case"** (Li, Gao & Reiter, ICDCS 2015): place
//! `b` objects, each replicated on `r` of `n` nodes, so that an adversary
//! who knows the placement and fails the worst `k` nodes kills as few
//! objects as possible (an object dies once `s` of its replicas do).
//!
//! The headline idea: build placements from *t-packings* — block designs
//! in which no `x+1` nodes jointly host more than `λ` objects — instead
//! of placing replicas randomly. This library implements the paper's
//! whole stack:
//!
//! * [`core`] — the `Simple(x, λ)` and `Combo(⟨λ_x⟩)` strategies, the
//!   availability-maximizing dynamic program, load-balanced random
//!   placement, the Lemma-1/2/3 capacity and availability bounds, the
//!   unified `PlacementStrategy` trait every family implements, the
//!   `Engine` facade running plan → build → attack → report in one call,
//!   the `dynamic` subsystem maintaining a live placement across
//!   cluster churn by incremental repair, and the `topology` module's
//!   hierarchical failure domains (zone → rack → node trees) with
//!   topology-aware spread/repair strategies;
//! * [`designs`] — every design family the strategies need, built from
//!   scratch (Steiner triple systems, finite-geometry line designs,
//!   Hermitian unitals, Boolean/doubled quadruple systems, Möbius subline
//!   designs, greedy packings), plus the existence catalog, chunk
//!   decomposition and a provenance-carrying registry;
//! * [`gf`] — finite fields `GF(p^k)` and the projective/affine
//!   geometries behind the constructions;
//! * [`adversary`] — exact branch-and-bound and local-search worst-case
//!   failure search (Definition 1 made executable), at node granularity
//!   and over whole failure domains (the budget spent on racks/zones);
//! * [`analysis`] — the closed forms: c-competitiveness (Theorem 1),
//!   the worst-case vulnerability of random placement (Theorem 2,
//!   Definitions 5–6) and the `s = 1` bound (Lemma 4);
//! * [`combin`] / [`sim`] — combinatorics and experiment substrates;
//! * [`service`] — the serving layer: epoch-snapshotted placements
//!   behind the `PlacementProvider` trait, published by a repair thread
//!   that batches churn into `DynamicEngine` repairs.
//!
//! The `wcp-experiments` crate regenerates every table and figure of the
//! paper's evaluation; see EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! ## Example: the Engine facade
//!
//! ```
//! use worst_case_placement::prelude::*;
//!
//! // 71 nodes, 1200 objects, 3-way replication, objects die at 2 replica
//! // losses; plan for 3 simultaneous node failures. The engine plans the
//! // strategy, builds the placement, attacks it with the exact
//! // branch-and-bound adversary, and reports everything in one record.
//! let params = SystemParams::new(71, 1200, 3, 2, 3)?;
//! let engine = Engine::with_attacker(params, AdversaryConfig::default());
//! let report = engine.evaluate(&StrategyKind::Combo)?;
//!
//! // The paper's guarantee holds: measured availability is at least the
//! // DP-optimized lower bound.
//! assert!(report.measured_availability as i64 >= report.lower_bound);
//! assert_eq!(report.witness.len(), 3);
//!
//! // The same pipeline runs every strategy family for comparison …
//! let sweep = engine.evaluate_all()?;
//! assert!(sweep.iter().any(|r| r.strategy == "ring"));
//! // … and every report serializes to JSON.
//! assert!(report.to_json().starts_with('{'));
//! # Ok::<(), worst_case_placement::core::PlacementError>(())
//! ```

#![forbid(unsafe_code)]

/// Runs the README's quickstart as a doctest so the documented
/// entry-point can never drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use wcp_adversary as adversary;
pub use wcp_analysis as analysis;
pub use wcp_combin as combin;
pub use wcp_core as core;
pub use wcp_designs as designs;
pub use wcp_gf as gf;
pub use wcp_service as service;
pub use wcp_sim as sim;

/// The names most programs need, in one import.
pub mod prelude {
    pub use wcp_adversary::{
        availability, AdversaryConfig, DomainAttacker, DomainLadderOutcome, DomainWorstCase,
        Ladder, LadderOutcome, ScratchAdversary, WorstCase,
    };
    pub use wcp_analysis::{competitive_constants, pr_avail, pr_avail_fraction};
    pub use wcp_core::{
        combo_plan, lb_avail_co, lb_avail_si, movement_between, repair_domain_collisions,
        AdaptiveSnapshot, AttackOutcome, Attacker, ClusterEvent, ComboStrategy, DomainRepaired,
        DomainSpreadStrategy, DynamicConfig, DynamicEngine, DynamicError, Engine, EvaluationReport,
        ExhaustiveAttacker, FailureUnit, GroupStrategy, LoadStats, MovementReport, PackingProfile,
        Placement, PlacementError, PlacementStrategy, PlannerContext, RandomStrategy,
        RandomVariant, RepairAction, RingStrategy, SimpleStrategy, StepReport, StrategyKind,
        SystemParams, Timings, Topology,
    };
    pub use wcp_designs::registry::RegistryConfig;
    pub use wcp_service::{
        PlacementProvider, ServiceConfig, ServiceEvent, ServiceHandle, Snapshot,
    };
    pub use wcp_sim::churn::{ChurnSpec, ChurnTrace};
}

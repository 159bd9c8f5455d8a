//! The builder-style entry point to the adversary ladder, and the one
//! driver both budget models run.
//!
//! Historically the ladder was reachable through a 2×2×2 matrix of free
//! functions — certified or not, caller-supplied scratch or not, node
//! or domain budget — and every new axis doubled the surface. [`Ladder`]
//! collapses the matrix into one builder:
//!
//! ```text
//! Ladder::new(&config)                 // plain, fresh scratch
//!     .scratch(&mut scratch)           // reuse buffers across calls
//!     .certified()                     // also emit the Certificate
//!     .run(&placement, s, k)           // node budget  -> LadderOutcome
//!     .run_domain(&placement, &topo, s, k) // unit budget -> DomainLadderOutcome
//! ```
//!
//! Both terminal calls drive the same code: a budget [`Model`] names the
//! moves one unit of budget buys — a node, or a failure unit of a
//! topology — and binds the scratch to a move set for the heuristic
//! rungs ([`Climb`]) and the exact DFS ([`Branch`]). Both move sets run
//! on one failure accounting, [`PackedCounts`]' hit-level tables. The
//! node move set is the fast path (one-pass swap values, the DFS's pair
//! matrix and fused pair level, closed-form root bounds); the unit move
//! set (`crate::domain`) adds leaf coverage over the same binding. A
//! flat topology runs the node move set and only packages its answer
//! as a domain certificate.
//!
//! The builder adds no policy of its own: one driver (greedy →
//! multi-restart local search → exact branch-and-bound) runs whether or
//! not a certificate is requested, and certifying only adds the ledger
//! and the seal afterwards — so the certified and uncertified answers
//! cannot drift.

use crate::certify::{self, trace_hash};
use crate::counts::PackedCounts;
use crate::domain::{DomainIndex, UnitModel};
use crate::exact::{Branch, DfsScratch};
use crate::search::{Climb, ClimbScratch, LadderTrace};
use crate::{parallel, AdversaryConfig, AdversaryScratch, DomainWorstCase, WorstCase};
use wcp_core::{Certificate, CertificateKind, Placement, Rung, RungKind, Topology};

/// One configured adversary-ladder run. See the module docs for the
/// builder grammar; terminal calls are [`Ladder::run`] (node budget)
/// and [`Ladder::run_domain`] (failure-unit budget).
///
/// # Examples
///
/// ```
/// use wcp_adversary::{AdversaryConfig, AdversaryScratch, Ladder};
/// use wcp_core::Placement;
///
/// // Two objects share nodes {0,1}: failing those kills both at s = 2.
/// let p = Placement::new(6, 3, vec![
///     vec![0, 1, 2], vec![0, 1, 3], vec![2, 4, 5],
/// ])?;
/// let config = AdversaryConfig::default();
/// let mut scratch = AdversaryScratch::new();
/// let out = Ladder::new(&config).scratch(&mut scratch).certified().run(&p, 2, 2);
/// assert_eq!(out.worst.failed, 2);
/// assert_eq!(out.worst.nodes, vec![0, 1]);
/// assert!(out.worst.exact);
/// let cert = out.certificate.expect("certified() was requested");
/// assert_eq!(cert.claimed_failed, 2);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug)]
pub struct Ladder<'a> {
    config: &'a AdversaryConfig,
    scratch: Option<&'a mut AdversaryScratch>,
    certified: bool,
}

/// What a node-budget [`Ladder::run`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderOutcome {
    /// The worst failure set and its damage.
    pub worst: WorstCase,
    /// The availability certificate — `Some` iff
    /// [`certified`](Ladder::certified) was requested.
    pub certificate: Option<Certificate>,
}

/// What a unit-budget [`Ladder::run_domain`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainLadderOutcome {
    /// The worst failure-unit set and its damage.
    pub worst: DomainWorstCase,
    /// The availability certificate — `Some` iff
    /// [`certified`](Ladder::certified) was requested.
    pub certificate: Option<Certificate>,
}

impl<'a> Ladder<'a> {
    /// A ladder run with the given tuning, a fresh scratch, and no
    /// certificate.
    #[must_use]
    pub fn new(config: &'a AdversaryConfig) -> Self {
        Self {
            config,
            scratch: None,
            certified: false,
        }
    }

    /// Reuses the caller's [`AdversaryScratch`] so batch callers pay no
    /// per-evaluation allocation.
    #[must_use]
    pub fn scratch(mut self, scratch: &'a mut AdversaryScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Also emit the self-sealed availability [`Certificate`] (rung
    /// witnesses, trace hashes and — when the exact rung completed —
    /// the branch-and-bound ledger) for `wcp-verify` to re-check.
    #[must_use]
    pub fn certified(mut self) -> Self {
        self.certified = true;
        self
    }

    /// Runs the ladder against node failures: the worst set of `k`
    /// failed nodes, where an object dies once `s` of its `r` replicas
    /// are down.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`, `s = 0` or `s > r` (placement shape mismatch).
    #[must_use]
    pub fn run(self, placement: &Placement, s: u16, k: u16) -> LadderOutcome {
        assert!(k <= placement.num_nodes(), "k must be ≤ n");
        assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
        let model = NodeModel::new(placement, s);
        let (worst, certificate) = self.drive(&model, k, CertificateKind::Node);
        LadderOutcome {
            worst: model.worst(worst),
            certificate,
        }
    }

    /// Runs the ladder against correlated failures: the budget is spent
    /// on failure *units* of `topology` (leaves, racks, zones — failing
    /// an internal node fails its whole leaf set).
    ///
    /// # Panics
    ///
    /// Panics when the topology's node universe does not match the
    /// placement's, when `k` exceeds the unit count, or when `s = 0` or
    /// `s > r`.
    #[must_use]
    pub fn run_domain(
        self,
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
    ) -> DomainLadderOutcome {
        let index = DomainIndex::new(placement, topology, s, k);
        if index.is_flat() {
            // Every unit is one leaf: the node move set is the unit move
            // set without the coverage bookkeeping.
            self.run_units(&NodeModel::new(placement, s), k)
        } else {
            self.run_units(&UnitModel::new(placement, s, index), k)
        }
    }

    /// [`Ladder::run_domain`] over `model`, whose moves are the
    /// topology's failure units.
    fn run_units<M: Model>(self, model: &M, k: u16) -> DomainLadderOutcome {
        let (worst, certificate) = self.drive(model, k, CertificateKind::Domain);
        DomainLadderOutcome {
            worst: domain_worst(model, worst),
            certificate,
        }
    }

    /// Runs the driver over `model` on the configured scratch and seals
    /// the certificate of kind `kind` when one was requested (a domain
    /// certificate records each rung's moves as its units).
    fn drive<M: Model>(
        self,
        model: &M,
        k: u16,
        kind: CertificateKind,
    ) -> (Verdict, Option<Certificate>) {
        let mut local = AdversaryScratch::new();
        let scratch = self.scratch.unwrap_or(&mut local);
        let units = kind == CertificateKind::Domain;
        let (worst, rungs) = drive(model, k, self.config, scratch, units);
        let certificate = self.certified.then(|| Certificate {
            ledger: if worst.exact {
                certify::ledger(model, scratch, k)
            } else {
                Vec::new()
            },
            rungs,
            claimed_failed: worst.failed,
            exact: worst.exact,
            ..certify::base_certificate(model.placement(), kind, model.threshold(), k)
        });
        (worst, certificate)
    }
}

/// A verdict over move ids: the damage, the moves that deal it, and
/// whether it is provably the maximum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    pub(crate) failed: u64,
    pub(crate) ids: Vec<u32>,
    pub(crate) exact: bool,
}

/// A budget model: the moves one unit of adversary budget buys, and the
/// move set a scratch binds to for the heuristic rungs and the exact
/// DFS. Moves are ids `0..len()`.
pub(crate) trait Model: Sync {
    /// The move set over a bound scratch.
    type Set<'a>: Climb + Branch
    where
        Self: 'a;

    /// The attacked placement.
    fn placement(&self) -> &Placement;
    /// The threshold `s`.
    fn threshold(&self) -> u16;
    /// Number of moves.
    fn len(&self) -> usize;
    /// The leaf union of moves `ids` (sorted).
    fn leaves(&self, ids: &[u32]) -> Vec<u16>;
    /// The empty move set over `scratch` — bound afresh when `rebind`,
    /// otherwise the binding an earlier stage made, cleared — with the
    /// climb and DFS buffers.
    fn bind<'a>(
        &'a self,
        scratch: &'a mut AdversaryScratch,
        rebind: bool,
    ) -> (Self::Set<'a>, &'a mut ClimbScratch, &'a mut DfsScratch);

    /// Every move failed: the degenerate `k ≥ len` verdict.
    fn all_moves(&self) -> Verdict {
        let ids: Vec<u32> = (0..self.len() as u32).collect();
        Verdict {
            failed: self
                .placement()
                .failed_objects(&self.leaves(&ids), self.threshold()),
            ids,
            exact: true,
        }
    }
}

/// What every move set answers about its moves and the current set.
pub(crate) trait Moves {
    /// Number of moves.
    fn len(&self) -> usize;
    /// A move's tie-break and static-order weight (its leaves' total
    /// load).
    fn weight(&self, m: u32) -> u64;
    /// Objects the current set fails.
    fn failed(&self) -> u64;
    /// Objects `m` fails if it joins the set.
    fn gain(&mut self, m: u32) -> u64;
}

/// A verdict over failure units as a domain worst case.
pub(crate) fn domain_worst<M: Model>(model: &M, verdict: Verdict) -> DomainWorstCase {
    DomainWorstCase {
        failed: verdict.failed,
        nodes: model.leaves(&verdict.ids),
        units: verdict.ids,
        exact: verdict.exact,
    }
}

/// The node budget model: one move per node.
pub(crate) struct NodeModel<'p> {
    placement: &'p Placement,
    s: u16,
}

impl<'p> NodeModel<'p> {
    /// The node budget model of `placement` at threshold `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s = 0`: no object fails at zero hits, and the
    /// accountings need not agree on a threshold no caller can ask for.
    pub(crate) fn new(placement: &'p Placement, s: u16) -> Self {
        assert!(s >= 1, "s must be ≥ 1");
        Self { placement, s }
    }

    /// The verdict as a node worst case.
    pub(crate) fn worst(&self, verdict: Verdict) -> WorstCase {
        WorstCase {
            failed: verdict.failed,
            nodes: self.leaves(&verdict.ids),
            exact: verdict.exact,
        }
    }
}

/// The accounting in `packed`, bound to `(placement, s)` afresh when
/// `rebind` and otherwise cleared to the empty failed set; a scratch
/// that holds no accounting yet binds one.
pub(crate) fn kernel<'a>(
    packed: &'a mut Option<PackedCounts>,
    placement: &Placement,
    s: u16,
    rebind: bool,
) -> &'a mut PackedCounts {
    match packed {
        Some(pc) => {
            if rebind {
                pc.rebind(placement, s);
            } else {
                pc.clear();
            }
            pc
        }
        None => packed.insert(PackedCounts::new(placement, s)),
    }
}

impl Model for NodeModel<'_> {
    type Set<'a>
        = NodeMoves<'a>
    where
        Self: 'a;

    fn placement(&self) -> &Placement {
        self.placement
    }

    fn threshold(&self) -> u16 {
        self.s
    }

    fn len(&self) -> usize {
        usize::from(self.placement.num_nodes())
    }

    fn leaves(&self, ids: &[u32]) -> Vec<u16> {
        ids.iter().map(|&m| node(m)).collect()
    }

    fn bind<'a>(
        &'a self,
        scratch: &'a mut AdversaryScratch,
        rebind: bool,
    ) -> (NodeMoves<'a>, &'a mut ClimbScratch, &'a mut DfsScratch) {
        let AdversaryScratch {
            packed,
            deltas,
            climb,
            dfs,
            ..
        } = scratch;
        let pc = kernel(packed, self.placement, self.s, rebind);
        deltas.clear();
        deltas.resize(usize::from(pc.num_nodes()), 0);
        let moves = NodeMoves {
            pc,
            deltas,
            supply_within: 0,
        };
        (moves, climb, dfs)
    }
}

/// A node move's id as a node.
#[inline]
pub(crate) fn node(m: u32) -> u16 {
    m as u16
}

/// The node move set: the accounting, and the climb's per-candidate
/// swap corrections (all zero between swap valuations).
pub(crate) struct NodeMoves<'a> {
    pub(crate) pc: &'a mut PackedCounts,
    pub(crate) deltas: &'a mut Vec<i64>,
    /// Remaining failures of the last `Branch::begin_supply`.
    pub(crate) supply_within: u16,
}

impl Moves for NodeMoves<'_> {
    fn len(&self) -> usize {
        usize::from(self.pc.num_nodes())
    }

    fn weight(&self, m: u32) -> u64 {
        u64::from(self.pc.load(node(m)))
    }

    #[inline]
    fn failed(&self) -> u64 {
        self.pc.failed()
    }

    #[inline]
    fn gain(&mut self, m: u32) -> u64 {
        self.pc.gain(node(m))
    }
}

/// The one driver behind [`Ladder::run`] and [`Ladder::run_domain`],
/// certified or not: local search seeds the exact rung, whose verdict
/// stands when it completes within budget. Returns the verdict and the
/// rungs that led to it; with `units`, each rung also records its moves
/// as failure units.
fn drive<M: Model>(
    model: &M,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
    units: bool,
) -> (Verdict, Vec<Rung>) {
    let rung = |kind, failed, ids: &[u32], trace| {
        certify::rung(
            kind,
            failed,
            &model.leaves(ids),
            if units { ids } else { &[] },
            trace,
        )
    };
    if k == 0 || usize::from(k) >= model.len() {
        // Degenerate budgets need no search: k = 0 fails nothing, a
        // budget covering every move fails everything. One exact rung.
        let worst = if k == 0 {
            Verdict {
                exact: true,
                ..Verdict::default()
            }
        } else {
            model.all_moves()
        };
        let rungs = vec![rung(RungKind::Exact, worst.failed, &worst.ids, 0)];
        return (worst, rungs);
    }
    // Seed the exact search with the local-search incumbent: a strong
    // lower bound tightens pruning dramatically.
    let mut trace = LadderTrace::default();
    let (heuristic, exact) = parallel::search_rungs(model, k, config, scratch, &mut trace);
    let hashed = |entries: &[(u64, Vec<u32>)]| {
        let leaves: Vec<(u64, Vec<u16>)> = entries
            .iter()
            .map(|(failed, ids)| (*failed, model.leaves(ids)))
            .collect();
        trace_hash(&leaves)
    };
    let mut rungs = Vec::with_capacity(3);
    if let Some(greedy) = trace.greedy {
        let hash = hashed(std::slice::from_ref(&greedy));
        rungs.push(rung(RungKind::Greedy, greedy.0, &greedy.1, hash));
    }
    let hash = hashed(&trace.restarts);
    rungs.push(rung(
        RungKind::LocalSearch,
        heuristic.failed,
        &heuristic.ids,
        hash,
    ));
    let worst = match exact {
        // The DFS only returns a witness when it beats the seed; reuse
        // the heuristic's when the incumbent stood.
        Some((failed, ids)) if failed > heuristic.failed => Verdict {
            failed,
            ids,
            exact: true,
        },
        Some(_) => Verdict {
            exact: true,
            ..heuristic
        },
        None => heuristic,
    };
    if worst.exact {
        rungs.push(rung(RungKind::Exact, worst.failed, &worst.ids, 0));
    }
    (worst, rungs)
}

impl LadderOutcome {
    /// Repackages the outcome as the engine-facing
    /// [`AttackOutcome`](wcp_core::engine::AttackOutcome) — what every
    /// [`Attacker`](wcp_core::engine::Attacker) built on the ladder
    /// returns.
    #[must_use]
    pub fn into_attack(self) -> wcp_core::engine::AttackOutcome {
        wcp_core::engine::AttackOutcome {
            failed: self.worst.failed,
            nodes: self.worst.nodes,
            exact: self.worst.exact,
            certificate: self.certificate,
        }
    }
}

impl DomainLadderOutcome {
    /// As [`LadderOutcome::into_attack`]; the reported node set is the
    /// *leaf union* of the chosen units (typically longer than `k`).
    #[must_use]
    pub fn into_attack(self) -> wcp_core::engine::AttackOutcome {
        wcp_core::engine::AttackOutcome {
            failed: self.worst.failed,
            nodes: self.worst.nodes,
            exact: self.worst.exact,
            certificate: self.certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn scratch_reuse_changes_nothing() {
        let p = random_placement(16, 80, 3, 3);
        let config = AdversaryConfig::default();
        let mut scratch = AdversaryScratch::new();
        let mut last = None;
        for _ in 0..3 {
            let out = Ladder::new(&config)
                .scratch(&mut scratch)
                .certified()
                .run(&p, 2, 4);
            if let Some(prev) = last.replace(out.clone()) {
                assert_eq!(prev, out);
            }
        }
    }

    /// One certified run on a fresh scratch: the certificate digest, the
    /// exact rung's node expansions and whether it completed.
    fn decision_record(p: &Placement, s: u16, k: u16) -> (u64, u64, bool) {
        decision_record_with(&AdversaryConfig::default(), p, s, k)
    }

    /// [`decision_record`] under `config`.
    fn decision_record_with(
        config: &AdversaryConfig,
        p: &Placement,
        s: u16,
        k: u16,
    ) -> (u64, u64, bool) {
        let mut scratch = AdversaryScratch::new();
        let out = Ladder::new(config)
            .scratch(&mut scratch)
            .certified()
            .run(p, s, k);
        let cert = out.certificate.expect("certified run");
        (cert.digest(), scratch.dfs.expansions, out.worst.exact)
    }

    /// The churn benchmark's shape: `up` nodes carrying every replica
    /// among `slots` node ids, the down slots hosting nothing.
    fn churn_placement(slots: u16, up: u16, b: u64, seed: u64) -> Placement {
        let live = random_placement(up, b, 3, seed);
        let down: Vec<u16> = (0..slots - up).map(|i| 5 + i * 17).collect();
        let ids: Vec<u16> = (0..slots).filter(|nd| !down.contains(nd)).collect();
        let rows: Vec<u16> = live
            .rows()
            .flatten()
            .map(|&nd| ids[usize::from(nd)])
            .collect();
        Placement::from_rows(slots, 3, rows).unwrap()
    }

    /// `(n, b, r, seed, s, k)` of a golden run; its record is
    /// `(digest, expansions)`.
    type GoldenShape = (u16, u64, u16, u64, u16, u16);

    /// The golden decision record: certificate digests and exact-rung
    /// expansion counts of certified ladder runs across thresholds,
    /// budgets, replication factors and object counts. A kernel change
    /// that claims to leave every decision alone must leave these
    /// numbers alone. Every run completes exactly.
    const GOLDEN: [(GoldenShape, (u64, u64)); 11] = [
        ((71, 1_200, 3, 1, 2, 3), (0x68ab_1ebb_289a_4125, 59_639)),
        ((71, 1_200, 3, 2, 1, 2), (0x7af6_5b77_4344_326e, 0)),
        ((13, 1_200, 3, 2, 1, 3), (0xc9d2_69fe_cfde_cb60, 363)),
        ((16, 1_200, 4, 2, 1, 4), (0xb829_4503_0ee5_5dbe, 2_379)),
        ((25, 1_200, 2, 2, 1, 3), (0x653a_b98b_8e10_b170, 442)),
        ((31, 1_200, 3, 4, 2, 5), (0x9c42_3e93_f755_e221, 201_375)),
        ((30, 1_200, 5, 8, 3, 4), (0xfb3f_5bc8_7ca2_42d6, 31_464)),
        ((20, 1_200, 1, 9, 1, 3), (0x62f4_93d8_dae7_5cde, 0)),
        ((71, 20_000, 3, 5, 2, 3), (0x9d52_edd7_868f_2d4d, 59_639)),
        ((40, 20_000, 4, 6, 3, 3), (0x3e9c_dde8_259f_6ae6, 10_659)),
        ((50, 20_000, 2, 7, 2, 3), (0xfa63_56e7_957c_7b9e, 20_824)),
    ];

    #[test]
    fn certified_runs_match_the_golden_record() {
        for ((n, b, r, seed, s, k), want) in GOLDEN {
            let (digest, expansions, exact) =
                decision_record(&random_placement(n, b, r, seed), s, k);
            assert!(exact, "n={n} b={b} r={r} s={s} k={k}");
            assert_eq!((digest, expansions), want, "n={n} b={b} r={r} s={s} k={k}");
        }
    }

    /// The golden record's heavy shapes: `k = 5` at the paper's
    /// `n = 71, b = 1200`, the churn benchmark's `b = 10⁵` shape, and
    /// the scale acceptance shape at `b = 10⁶`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "11.8 M expansions; run with --release")]
    fn heavy_shapes_match_the_golden_record() {
        let k5 = decision_record(&random_placement(71, 1_200, 3, 3), 3, 5);
        assert_eq!(k5, (0xd391_328b_c033_b228, 11_779_618, true));
        let churn = decision_record(&churn_placement(75, 71, 100_000, 4242), 2, 3);
        assert_eq!(churn, (0xb0c1_e642_bcc5_16ce, 70_283, true));
        let million = decision_record(&random_placement(71, 1_000_000, 3, 10), 2, 3);
        assert_eq!(million, (0xacb6_5eff_dc89_fbf4, 59_639, true));
    }

    /// Shapes that pin many climbs: each certificate's local-search
    /// trace hash folds every restart's outcome, so 32 restarts at
    /// `r ∈ {4, 5}` record 32 climbs per run. The digest must also come
    /// out of the fanned-out restarts at two workers.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "32 restarts at b ≥ 5,000; run with --release"
    )]
    fn climb_shapes_match_the_golden_record() {
        let config = AdversaryConfig {
            restarts: 32,
            ..AdversaryConfig::default()
        };
        let two = AdversaryConfig {
            parallelism: wcp_core::Parallelism::new(2),
            ..config.clone()
        };
        let shapes: [(GoldenShape, (u64, u64)); 2] = [
            ((30, 5_000, 4, 21, 2, 4), (0x3c6e_5383_9e71_3409, 31_464)),
            ((22, 5_000, 5, 25, 4, 5), (0xc573_ae00_a322_e13e, 33_648)),
        ];
        for ((n, b, r, seed, s, k), want) in shapes {
            let p = random_placement(n, b, r, seed);
            let (digest, expansions, exact) = decision_record_with(&config, &p, s, k);
            assert!(exact, "n={n} b={b} r={r} s={s} k={k}");
            assert_eq!((digest, expansions), want, "n={n} b={b} r={r} s={s} k={k}");
            let (split, _, exact) = decision_record_with(&two, &p, s, k);
            assert!(exact, "two workers: n={n} b={b} r={r} s={s} k={k}");
            assert_eq!(split, digest, "two workers: n={n} b={b} r={r} s={s} k={k}");
        }
    }

    #[test]
    fn into_attack_carries_the_certificate() {
        let p = random_placement(12, 40, 3, 5);
        let config = AdversaryConfig::default();
        let attack = Ladder::new(&config).certified().run(&p, 2, 3).into_attack();
        let cert = attack.certificate.expect("certified run");
        assert_eq!(cert.claimed_failed, attack.failed);
        assert_eq!(p.failed_objects(&attack.nodes, 2), attack.failed);
        let uncert = Ladder::new(&config).run(&p, 2, 3).into_attack();
        assert_eq!(uncert.certificate, None);
        assert_eq!(uncert.failed, attack.failed);
    }
}

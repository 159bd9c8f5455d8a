//! The builder-style entry point to the adversary ladder.
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
//! The builder adds no policy of its own: each budget model has one
//! driver (greedy → multi-restart local search → exact branch-and-bound)
//! that runs whether or not a certificate is requested, and certifying
//! only adds the ledger and the seal afterwards — so the certified and
//! uncertified answers cannot drift.

use crate::certify::{self, rung, trace_hash};
use crate::search::LadderTrace;
use crate::{
    domain, exact, parallel, AdversaryConfig, AdversaryScratch, DomainWorstCase, WorstCase,
};
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
    /// per-evaluation allocation. (Ignored by [`Ladder::run_domain`]:
    /// the domain backends carry their own per-run state.)
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
    /// Panics if `k > n` or `s > r` (placement shape mismatch).
    #[must_use]
    pub fn run(self, placement: &Placement, s: u16, k: u16) -> LadderOutcome {
        let mut local = AdversaryScratch::new();
        let scratch = self.scratch.unwrap_or(&mut local);
        let (worst, rungs) = node_ladder(placement, s, k, self.config, scratch);
        let certificate = self.certified.then(|| Certificate {
            ledger: if worst.exact {
                certify::node_ledger(placement, s, k, scratch)
            } else {
                Vec::new()
            },
            rungs,
            claimed_failed: worst.failed,
            exact: worst.exact,
            ..certify::base_certificate(placement, CertificateKind::Node, s, k)
        });
        LadderOutcome { worst, certificate }
    }

    /// Runs the ladder against correlated failures: the budget is spent
    /// on failure *units* of `topology` (leaves, racks, zones — failing
    /// an internal node fails its whole leaf set).
    ///
    /// # Panics
    ///
    /// Panics when the topology's node universe does not match the
    /// placement's, when `k` exceeds the unit count, or when `s > r`.
    #[must_use]
    pub fn run_domain(
        self,
        placement: &Placement,
        topology: &Topology,
        s: u16,
        k: u16,
    ) -> DomainLadderOutcome {
        domain::run_ladder(placement, topology, s, k, self.config, self.certified)
    }
}

/// The node-budget driver behind [`Ladder::run`], certified or not:
/// local search seeds the exact rung, whose verdict stands when it
/// completes within budget. Returns the verdict and the rungs that led
/// to it.
fn node_ladder(
    placement: &Placement,
    s: u16,
    k: u16,
    config: &AdversaryConfig,
    scratch: &mut AdversaryScratch,
) -> (WorstCase, Vec<Rung>) {
    let n = placement.num_nodes();
    assert!(k <= n, "k must be ≤ n");
    assert!(s <= placement.replicas_per_object(), "s must be ≤ r");
    if k == 0 || k == n {
        // Degenerate budgets need no search: k = 0 fails nothing, k = n
        // fails everything reachable. One exact rung.
        let worst = if k == 0 {
            WorstCase {
                failed: 0,
                nodes: Vec::new(),
                exact: true,
            }
        } else {
            exact::degenerate_all_nodes(placement, s, k)
        };
        let rungs = vec![rung(RungKind::Exact, worst.failed, &worst.nodes, &[], 0)];
        return (worst, rungs);
    }
    // Seed the exact search with the local-search incumbent: a strong
    // lower bound tightens pruning dramatically.
    let mut trace = LadderTrace::default();
    let (heuristic, exact) = parallel::search_rungs(placement, s, k, config, scratch, &mut trace);
    let mut rungs = Vec::with_capacity(3);
    if let Some(greedy) = trace.greedy {
        let hash = trace_hash(std::slice::from_ref(&greedy));
        rungs.push(rung(RungKind::Greedy, greedy.0, &greedy.1, &[], hash));
    }
    let hash = trace_hash(&trace.restarts);
    rungs.push(rung(
        RungKind::LocalSearch,
        heuristic.failed,
        &heuristic.nodes,
        &[],
        hash,
    ));
    let worst = match exact {
        // The DFS only returns node sets when it beats the seed; reuse
        // the heuristic's witness when the incumbent stood.
        Some(ex) if ex.failed > heuristic.failed => ex,
        Some(_) => WorstCase {
            exact: true,
            ..heuristic
        },
        None => heuristic,
    };
    if worst.exact {
        rungs.push(rung(RungKind::Exact, worst.failed, &worst.nodes, &[], 0));
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
        let mut scratch = AdversaryScratch::new();
        let out = Ladder::new(&AdversaryConfig::default())
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

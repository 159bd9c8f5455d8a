//! Construction registry: the best constructible `t-(v, r, 1)` packing
//! with `v ≤ v_max`.
//!
//! The placement layer asks one question of design theory: *"I need a
//! `(x+1)`-packing of `r`-sets over at most `n` points with at least `b`
//! blocks per index unit — give me the best you can actually build."* This
//! module answers it by ranking, for each `(t, r)`:
//!
//! 1. every constructive family instance with `v ≤ v_max`
//!    (Steiner triple systems, AG/PG lines, unitals, Boolean and doubled
//!    quadruple systems, Möbius subline designs, complete designs,
//!    partitions);
//! 2. chunked combinations of those instances (Observation 2), found by
//!    the knapsack DP in [`crate::chunking`];
//! 3. a seeded greedy packing fallback (only when the families cannot meet
//!    the requested block count — e.g. the `4-(v,5,1)` slots, where the
//!    known Steiner systems have no simple construction; see DESIGN.md §3).
//!
//! Each result carries provenance so experiment output can show exactly
//! which design backs which placement (the paper's Fig. 4).

use crate::greedy::{greedy_packing, GreedyConfig};
use crate::{catalog, chunking, complete, lines, mols, sqs, sts, subline, unital};
use crate::{BlockDesign, DesignError};

/// Options controlling registry selection.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Seed for the greedy fallback.
    pub seed: u64,
    /// Maximum number of chunks for Observation-2 decompositions.
    pub max_chunks: usize,
    /// Whether the greedy fallback may be used at all.
    pub allow_greedy: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            seed: 0x9e37_79b9,
            max_chunks: 3,
            allow_greedy: true,
        }
    }
}

/// How a unit packing is materialized.
#[derive(Debug, Clone)]
enum Source {
    Partition,
    Complete,
    AllPairs,
    Sts,
    AgLines { q: u32, d: u32 },
    PgLines { q: u32, d: u32 },
    Unital { q: u32 },
    Sqs { recipe: SqsRecipe },
    Subline { q: u32, d: u32 },
    Transversal { m: u16 },
    Greedy { design: BlockDesign },
    Chunked { parts: Vec<UnitPacking> },
}

/// A quadruple system recipe: a constructible root doubled `doublings`
/// times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqsRecipe {
    root: SqsRoot,
    doublings: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SqsRoot {
    Boolean { d: u32 },
    Subline3 { d: u32 },
}

impl SqsRoot {
    fn v(self) -> u32 {
        match self {
            SqsRoot::Boolean { d } => 1 << d,
            SqsRoot::Subline3 { d } => 3u32.pow(d) + 1,
        }
    }
}

/// A concrete `t-(v, r, 1)` packing the registry can build on demand.
///
/// `capacity` is the number of blocks one copy provides; `Simple(x, λ)`
/// placements replicate copies to reach higher indices (Observation 1).
#[derive(Debug, Clone)]
pub struct UnitPacking {
    t: u16,
    r: u16,
    v: u16,
    capacity: u64,
    maximal: bool,
    provenance: String,
    source: Source,
}

impl UnitPacking {
    /// Packing strength `t = x + 1`.
    #[must_use]
    pub fn t(&self) -> u16 {
        self.t
    }

    /// Block size `r`.
    #[must_use]
    pub fn r(&self) -> u16 {
        self.r
    }

    /// Points used (`n_x` in the paper; `≤ v_max` requested).
    #[must_use]
    pub fn v(&self) -> u16 {
        self.v
    }

    /// Blocks available from one copy of this packing.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// True when `capacity` is the design-theoretic maximum
    /// `⌊C(v,t)/C(r,t)⌋` (or a verified-maximal greedy result).
    #[must_use]
    pub fn is_maximal(&self) -> bool {
        self.maximal
    }

    /// Human-readable provenance ("which design is this").
    #[must_use]
    pub fn provenance(&self) -> &str {
        &self.provenance
    }

    /// Materializes up to `limit` blocks.
    ///
    /// Any prefix of a packing is a packing, so requesting fewer blocks
    /// than `capacity` is always sound.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (none occur for registry-produced
    /// instances; the interface is fallible for forward compatibility).
    pub fn materialize(&self, limit: usize) -> Result<BlockDesign, DesignError> {
        let design = match &self.source {
            Source::Partition => complete::partition(self.v, self.r)?,
            Source::Complete => complete::complete_prefix(self.v, self.r, limit)?,
            Source::AllPairs => complete::complete_prefix(self.v, 2, limit)?,
            Source::Sts => sts::steiner_triple_system(self.v)?,
            Source::AgLines { q, d } => lines::ag_line_design(*q, *d)?,
            Source::PgLines { q, d } => lines::pg_line_design(*q, *d)?,
            Source::Unital { q } => unital::hermitian_unital(*q)?,
            Source::Sqs { recipe } => materialize_sqs(*recipe, limit)?,
            Source::Subline { q, d } => subline::subline_design(*q, *d, limit)?,
            Source::Transversal { m } => mols::transversal_design(self.r, *m)?,
            Source::Greedy { design } => design.clone(),
            Source::Chunked { parts } => {
                let mut blocks: Vec<Vec<u16>> = Vec::new();
                let mut offset = 0u16;
                for part in parts {
                    let remaining = limit.saturating_sub(blocks.len());
                    if remaining == 0 {
                        break;
                    }
                    let d = part.materialize(remaining)?;
                    blocks.extend(d.translated(offset, self.v).into_blocks());
                    offset += part.v;
                }
                return BlockDesign::new(self.v, self.r, blocks);
            }
        };
        let mut blocks = design.into_blocks();
        blocks.truncate(limit);
        BlockDesign::new(self.v, self.r, blocks)
    }
}

fn materialize_sqs(recipe: SqsRecipe, limit: usize) -> Result<BlockDesign, DesignError> {
    let mut design = match recipe.root {
        SqsRoot::Boolean { d } => sqs::boolean_sqs(d)?,
        SqsRoot::Subline3 { d } => subline::subline_design(3, d, limit.max(1))?,
    };
    for _ in 0..recipe.doublings {
        // Truncating the base before doubling keeps intermediate systems
        // bounded: a doubled partial SQS is still a 3-packing, and the
        // type-2 (cross) blocks alone cover any truncation we request.
        let v = design.num_points();
        let mut blocks = design.into_blocks();
        blocks.truncate(limit.max(1));
        design = sqs::double(&BlockDesign::new(v, 4, blocks)?)?;
    }
    let v = design.num_points();
    let mut blocks = design.into_blocks();
    blocks.truncate(limit);
    BlockDesign::new(v, 4, blocks)
}

/// Maximum-capacity formula `⌊C(v,t)/C(r,t)⌋`.
fn max_capacity(t: u16, r: u16, v: u16) -> u64 {
    chunking::design_capacity(t, r, v, 1)
}

/// All constructive single-design candidates for `(t, r)` with `v ≤ v_max`,
/// as (instance, capacity is design-maximum).
fn family_candidates(t: u16, r: u16, v_max: u16) -> Vec<UnitPacking> {
    let mut out: Vec<UnitPacking> = Vec::new();
    let mut push = |v: u16, provenance: String, source: Source| {
        out.push(UnitPacking {
            t,
            r,
            v,
            capacity: max_capacity(t, r, v),
            maximal: true,
            provenance,
            source,
        });
    };
    if r > v_max || t == 0 || t > r {
        return out;
    }
    if t == 1 {
        push(
            v_max,
            format!("partition of {v_max} into {r}-sets"),
            Source::Partition,
        );
        return out;
    }
    if t == r {
        push(
            v_max,
            format!("complete {r}-subset design on {v_max} points (vacuous Steiner)"),
            Source::Complete,
        );
        return out;
    }
    match (t, r) {
        (2, 2) => push(
            v_max,
            format!("all pairs on {v_max} points"),
            Source::AllPairs,
        ),
        (2, 3) => {
            for v in catalog::steiner_sizes(2, 3, 3, v_max) {
                push(v, format!("STS({v})"), Source::Sts);
            }
        }
        (2, 4) => {
            for d in 1..=8u32 {
                let v = 4u64.pow(d);
                if v <= u64::from(v_max) {
                    push(
                        v as u16,
                        format!("AG({d},4) lines 2-({v},4,1)"),
                        Source::AgLines { q: 4, d },
                    );
                }
            }
            for d in 2..=6u32 {
                let v = wcp_gf::geometry::pg_point_count(3, d);
                if v <= u64::from(v_max) {
                    push(
                        v as u16,
                        format!("PG({d},3) lines 2-({v},4,1)"),
                        Source::PgLines { q: 3, d },
                    );
                }
            }
            if 28 <= v_max {
                push(
                    28,
                    "Hermitian unital 2-(28,4,1)".into(),
                    Source::Unital { q: 3 },
                );
            }
        }
        (2, 5) => {
            for d in 1..=4u32 {
                let v = 5u64.pow(d);
                if v <= u64::from(v_max) {
                    push(
                        v as u16,
                        format!("AG({d},5) lines 2-({v},5,1)"),
                        Source::AgLines { q: 5, d },
                    );
                }
            }
            for d in 2..=5u32 {
                let v = wcp_gf::geometry::pg_point_count(4, d);
                if v <= u64::from(v_max) {
                    push(
                        v as u16,
                        format!("PG({d},4) lines 2-({v},5,1)"),
                        Source::PgLines { q: 4, d },
                    );
                }
            }
            if 65 <= v_max {
                push(
                    65,
                    "Hermitian unital 2-(65,5,1)".into(),
                    Source::Unital { q: 4 },
                );
            }
        }
        (3, 4) => {
            // Boolean roots and Möbius roots, plus their doubling closures.
            let mut recipes: Vec<(u16, SqsRecipe)> = Vec::new();
            for d in 2..=9u32 {
                let root = SqsRoot::Boolean { d };
                if root.v() <= u32::from(v_max) {
                    recipes.push((root.v() as u16, SqsRecipe { root, doublings: 0 }));
                }
            }
            for d in 2..=6u32 {
                let root = SqsRoot::Subline3 { d };
                let mut v = root.v();
                let mut doublings = 0;
                while v <= u32::from(v_max) {
                    recipes.push((v as u16, SqsRecipe { root, doublings }));
                    v *= 2;
                    doublings += 1;
                }
            }
            recipes.sort_by_key(|&(v, r)| (v, r.doublings));
            recipes.dedup_by_key(|&mut (v, _)| v);
            for (v, recipe) in recipes {
                let name = match recipe.root {
                    SqsRoot::Boolean { d } => format!("Boolean SQS(2^{d})"),
                    SqsRoot::Subline3 { d } => format!("Möbius 3-(3^{d}+1,4,1)"),
                };
                let prov = if recipe.doublings == 0 {
                    format!("SQS({v}) = {name}")
                } else {
                    format!("SQS({v}) = {name} doubled ×{}", recipe.doublings)
                };
                push(v, prov, Source::Sqs { recipe });
            }
        }
        (3, 5) => {
            for d in 2..=4u32 {
                let v = 4u64.pow(d) + 1;
                if v <= u64::from(v_max) {
                    push(
                        v as u16,
                        format!("Möbius 3-({v},5,1)"),
                        Source::Subline { q: 4, d },
                    );
                }
            }
        }
        _ => {}
    }
    // Transversal designs: 2-(r·m, r, 1) packings with m² blocks (groups
    // leave within-group pairs uncovered, so they are not maximal), for
    // the largest orders with r − 2 MOLS. They often beat chunked unions
    // in the gaps of the Steiner spectra.
    if t == 2 && r >= 3 {
        let mut added = 0;
        let mut m = v_max / r;
        while m >= r && added < 3 {
            if mols::mols_count(m) >= usize::from(r) - 2 {
                out.push(UnitPacking {
                    t,
                    r,
                    v: r * m,
                    capacity: u64::from(m) * u64::from(m),
                    maximal: false,
                    provenance: format!(
                        "transversal design TD({r},{m}) 2-({}, {r}, 1) packing",
                        r * m
                    ),
                    source: Source::Transversal { m },
                });
                added += 1;
            }
            m -= 1;
        }
    }
    out
}

/// Selects the best constructible unit packing for `(t, r)` with
/// `v ≤ v_max`, aiming for at least `needed_blocks` blocks.
///
/// Preference order: the largest-capacity exact family or chunked
/// combination; the greedy fallback is consulted only when those cannot
/// reach `needed_blocks` and is kept only if it actually achieves more.
///
/// Returns `None` when nothing is constructible (e.g. `r > v_max`).
///
/// # Examples
///
/// ```
/// use wcp_designs::registry::{best_unit_packing, RegistryConfig};
///
/// // The paper's n = 71, r = 5, x = 2 slot: Möbius 3-(65,5,1).
/// let unit = best_unit_packing(3, 5, 71, 1000, &RegistryConfig::default()).unwrap();
/// assert_eq!(unit.v(), 65);
/// assert_eq!(unit.capacity(), 4368);
/// ```
#[must_use]
pub fn best_unit_packing(
    t: u16,
    r: u16,
    v_max: u16,
    needed_blocks: u64,
    config: &RegistryConfig,
) -> Option<UnitPacking> {
    let singles = family_candidates(t, r, v_max);
    let mut best: Option<UnitPacking> = singles.iter().max_by_key(|u| u.capacity).cloned();

    // Observation 2: chunked combinations (only helpful for t ≥ 2 families
    // with multiple sizes; partitions/complete designs already use all
    // nodes).
    if config.max_chunks >= 2 && !singles.is_empty() && t >= 2 && t < r {
        // Only maximal candidates enter the knapsack: its capacity model
        // is the Lemma-1 design maximum, which non-maximal packings
        // (transversal designs) do not reach.
        let sizes: Vec<u16> = singles.iter().filter(|u| u.maximal).map(|u| u.v).collect();
        let plan = chunking::best_chunking(v_max, r, t, config.max_chunks, &sizes, 1);
        let single_best = best.as_ref().map_or(0, |u| u.capacity);
        if plan.sizes.len() > 1 && plan.capacity > single_best {
            let parts: Vec<UnitPacking> = plan
                .sizes
                .iter()
                .map(|&v| {
                    singles
                        .iter()
                        .find(|u| u.maximal && u.v == v)
                        .expect("chunk size came from candidate list")
                        .clone()
                })
                .collect();
            let total_v: u16 = plan.sizes.iter().sum();
            let provenance = format!(
                "chunks [{}] (Observation 2)",
                parts
                    .iter()
                    .map(|p| p.provenance.clone())
                    .collect::<Vec<_>>()
                    .join(" + ")
            );
            best = Some(UnitPacking {
                t,
                r,
                v: total_v,
                capacity: plan.capacity,
                maximal: true,
                provenance,
                source: Source::Chunked { parts },
            });
        }
    }

    // Greedy fallback.
    let have = best.as_ref().map_or(0, |u| u.capacity);
    if config.allow_greedy && have < needed_blocks && t >= 2 && r >= t && v_max >= r {
        let greedy_cfg = GreedyConfig {
            seed: config.seed,
            max_blocks: usize::try_from(needed_blocks).unwrap_or(usize::MAX),
            stall_limit: 30_000,
            ..GreedyConfig::default()
        };
        if let Ok(design) = greedy_packing(v_max, r, t, 1, &greedy_cfg) {
            let achieved = design.num_blocks() as u64;
            if achieved > have {
                let saturated = achieved < needed_blocks; // stopped by stall ⇒ maximal-ish
                best = Some(UnitPacking {
                    t,
                    r,
                    v: v_max,
                    capacity: achieved,
                    maximal: false,
                    provenance: format!(
                        "greedy {t}-({v_max},{r},1) packing, {achieved} blocks{}",
                        if saturated { " (saturated)" } else { "" }
                    ),
                    source: Source::Greedy { design },
                });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn sts_slot_matches_paper() {
        // n = 71, r = 3, x = 1 → STS(69), 782 blocks (paper Fig. 4).
        let u = best_unit_packing(2, 3, 71, 100, &RegistryConfig::default()).unwrap();
        assert_eq!(u.v(), 69);
        assert_eq!(u.capacity(), 782);
        assert!(u.provenance().contains("STS(69)"));
        let d = u.materialize(usize::MAX).unwrap();
        assert_eq!(d.num_blocks(), 782);
        assert!(verify::is_t_design(&d, 2, 1));
    }

    #[test]
    fn sqs_slot_matches_paper() {
        // n = 31, r = 4, x = 2 → SQS(28) via the Möbius construction
        // (the paper's n_2 = 28 entry).
        let u = best_unit_packing(3, 4, 31, 100, &RegistryConfig::default()).unwrap();
        assert_eq!(u.v(), 28);
        assert_eq!(u.capacity(), 819);
        let d = u.materialize(200).unwrap();
        assert_eq!(d.num_blocks(), 200);
        assert!(verify::is_t_packing(&d, 3, 1));
    }

    #[test]
    fn unital_slot_matches_paper() {
        // n = 71, r = 5, x = 1 → Hermitian unital 2-(65,5,1) (paper n_1 = 65)
        // when restricted to one chunk; with chunking enabled the registry
        // squeezes out one more block by appending a trivial 5-point chunk.
        let single = RegistryConfig {
            max_chunks: 1,
            ..RegistryConfig::default()
        };
        let u = best_unit_packing(2, 5, 71, 100, &single).unwrap();
        assert_eq!(u.v(), 65);
        assert_eq!(u.capacity(), 208);
        assert!(u.is_maximal());

        let chunked = best_unit_packing(2, 5, 71, 100, &RegistryConfig::default()).unwrap();
        assert_eq!(chunked.v(), 70);
        assert_eq!(chunked.capacity(), 209);
    }

    #[test]
    fn greedy_beats_families_when_more_blocks_needed() {
        // Same slot but demanding more blocks than the unital offers: the
        // greedy fallback on all 71 points can exceed 208 (max is 248).
        let u = best_unit_packing(2, 5, 71, 240, &RegistryConfig::default()).unwrap();
        assert!(u.capacity() >= 208, "capacity {}", u.capacity());
        let d = u.materialize(usize::MAX).unwrap();
        assert!(verify::is_t_packing(&d, 2, 1));
        assert_eq!(d.num_blocks() as u64, u.capacity());
    }

    #[test]
    fn td_wins_at_257_r5() {
        // n = 257, r = 5, x = 1 with greedy disabled: the transversal
        // design TD(5,49) on 245 points (2401 blocks) beats both the best
        // single Steiner family (AG(3,5), 775) and the best chunked union
        // ([125,125,5], 1551) — and lands close to the paper's
        // 2-(245,5,1) slot (2989 max) with a real construction.
        let cfg = RegistryConfig {
            allow_greedy: false,
            ..RegistryConfig::default()
        };
        let u = best_unit_packing(2, 5, 257, 10_000, &cfg).unwrap();
        assert_eq!(u.capacity(), 2401);
        assert_eq!(u.v(), 245);
        assert!(u.provenance().contains("TD(5,49)"));
        let d = u.materialize(usize::MAX).unwrap();
        assert_eq!(d.num_blocks(), 2401);
        assert!(verify::is_t_packing(&d, 2, 1));
    }

    #[test]
    fn chunked_wins_when_tds_disabled_by_size() {
        // Same slot restricted to v ≤ 130: chunk unions still matter when
        // the TD orders do not fit.
        let cfg = RegistryConfig {
            allow_greedy: false,
            ..RegistryConfig::default()
        };
        let u = best_unit_packing(2, 5, 130, 10_000, &cfg).unwrap();
        // Best single: AG(3,5) = 775; TD(5, 26) = 676; chunks [125, 5]
        // give 776.
        assert!(u.capacity() >= 776, "got {}", u.capacity());
        let d = u.materialize(usize::MAX).unwrap();
        assert!(verify::is_t_packing(&d, 2, 1));
    }

    #[test]
    fn quadruple_steiner_falls_back_to_greedy() {
        // t = 4, r = 5 has no constructive family; greedy must carry it.
        let u = best_unit_packing(4, 5, 23, 500, &RegistryConfig::default()).unwrap();
        assert_eq!(u.v(), 23);
        assert_eq!(u.capacity(), 500); // capped by needed_blocks
        assert!(!u.is_maximal());
        let d = u.materialize(usize::MAX).unwrap();
        assert!(verify::is_t_packing(&d, 4, 1));
    }

    #[test]
    fn subline_slot_at_257() {
        // n = 257, r = 5, x = 2 → Möbius 3-(257,5,1) (paper n_2 = 257).
        let u = best_unit_packing(3, 5, 257, 1000, &RegistryConfig::default()).unwrap();
        assert_eq!(u.v(), 257);
        assert_eq!(u.capacity(), 279_616);
        let d = u.materialize(1500).unwrap();
        assert_eq!(d.num_blocks(), 1500);
        assert!(verify::is_t_packing(&d, 3, 1));
    }

    #[test]
    fn vacuous_and_partition_slots() {
        let u = best_unit_packing(5, 5, 257, 10, &RegistryConfig::default()).unwrap();
        assert_eq!(u.v(), 257);
        let d = u.materialize(10).unwrap();
        assert_eq!(d.num_blocks(), 10);
        assert!(verify::is_t_packing(&d, 5, 1));

        let u = best_unit_packing(1, 5, 31, 10, &RegistryConfig::default()).unwrap();
        assert_eq!(u.capacity(), 6);
        let d = u.materialize(usize::MAX).unwrap();
        assert_eq!(verify::packing_index(&d, 1), 1);
    }

    #[test]
    fn doubled_sqs_materializes() {
        // SQS(56) = Möbius 3-(28,4,1) doubled once: only reachable when
        // v_max ∈ [56, 63] (single-chunk mode).
        let cfg = RegistryConfig {
            max_chunks: 1,
            ..RegistryConfig::default()
        };
        let u = best_unit_packing(3, 4, 60, 100, &cfg).unwrap();
        assert_eq!(u.v(), 56);
        assert_eq!(u.capacity(), 6930);
        let d = u.materialize(usize::MAX).unwrap();
        assert_eq!(d.num_blocks() as u64, u.capacity());
        assert!(verify::is_t_design(&d, 3, 1));
        // Truncated materialization is still a packing.
        let d = u.materialize(300).unwrap();
        assert_eq!(d.num_blocks(), 300);
        assert!(verify::is_t_packing(&d, 3, 1));
    }

    #[test]
    fn nothing_constructible() {
        assert!(best_unit_packing(2, 5, 4, 10, &RegistryConfig::default()).is_none());
    }
}

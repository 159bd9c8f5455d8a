//! Steiner quadruple systems — `3-(v, 4, 1)` designs.
//!
//! SQS(v) exists iff `v ≡ 2 or 4 (mod 6)` (Hanani). This module implements
//! two constructive families that, combined with the Möbius designs of
//! [`crate::subline`] (`3-(3^d+1, 4, 1)`), cover every size the placement
//! library needs:
//!
//! * [`boolean_sqs`] — points `GF(2)^d`, blocks the 4-sets with zero XOR
//!   (the planes of the Boolean affine geometry): `3-(2^d, 4, 1)`.
//! * [`double`] — the classical doubling construction building `SQS(2v)`
//!   from `SQS(v)` and a one-factorization of `K_v` ([`one_factorization`],
//!   the circle method).

use crate::{BlockDesign, DesignError};

/// The Boolean quadruple system `3-(2^d, 4, 1)`: blocks are all 4-subsets
/// `{a, b, c, e}` of `GF(2)^d` with `a ⊕ b ⊕ c ⊕ e = 0`.
///
/// # Errors
///
/// [`DesignError::Unsupported`] unless `2 ≤ d ≤ 15`.
///
/// # Examples
///
/// ```
/// use wcp_designs::{sqs, verify};
///
/// let d = sqs::boolean_sqs(3)?; // SQS(8): 14 blocks
/// assert_eq!(d.num_blocks(), 14);
/// assert!(verify::is_t_design(&d, 3, 1));
/// # Ok::<(), wcp_designs::DesignError>(())
/// ```
pub fn boolean_sqs(d: u32) -> Result<BlockDesign, DesignError> {
    if !(2..=15).contains(&d) {
        return Err(DesignError::Unsupported(format!(
            "boolean SQS needs 2 ≤ d ≤ 15, got {d}"
        )));
    }
    let v = 1u32 << d;
    let mut blocks = Vec::new();
    // Enumerate a < b < c, set e = a ^ b ^ c; keep when e > c so each block
    // is generated exactly once and all four points are distinct.
    for a in 0..v {
        for b in a + 1..v {
            for c in b + 1..v {
                let e = a ^ b ^ c;
                if e > c {
                    blocks.push(vec![a as u16, b as u16, c as u16, e as u16]);
                }
            }
        }
    }
    BlockDesign::new(v as u16, 4, blocks)
}

/// A one-factorization of the complete graph `K_v` (`v` even): `v − 1`
/// perfect matchings partitioning the edge set, via the circle method.
///
/// Returned as `factors[i]` = list of disjoint pairs covering all `v`
/// points.
///
/// # Errors
///
/// [`DesignError::Unsupported`] if `v` is odd or `< 2`.
///
/// # Examples
///
/// ```
/// use wcp_designs::sqs::one_factorization;
///
/// let f = one_factorization(8)?;
/// assert_eq!(f.len(), 7);
/// assert!(f.iter().all(|m| m.len() == 4));
/// # Ok::<(), wcp_designs::DesignError>(())
/// ```
pub fn one_factorization(v: u16) -> Result<Vec<Vec<(u16, u16)>>, DesignError> {
    if v < 2 || !v.is_multiple_of(2) {
        return Err(DesignError::Unsupported(format!(
            "one-factorization needs even v ≥ 2, got {v}"
        )));
    }
    let m = v - 1; // circle size (odd); point v-1 is the hub
    let mut factors = Vec::with_capacity(m as usize);
    for round in 0..m {
        let mut pairs = Vec::with_capacity(v as usize / 2);
        pairs.push((round, v - 1));
        for j in 1..=(m - 1) / 2 {
            // pair (round + j, round − j) mod m
            let a = (round + j) % m;
            let b = (round + m - j) % m;
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            pairs.push((lo, hi));
        }
        pairs.sort_unstable();
        factors.push(pairs);
    }
    Ok(factors)
}

/// Doubling construction: given `SQS(v)` builds `SQS(2v)`.
///
/// Points of the result are `x` (copy 0) and `x + v` (copy 1) for each
/// original point `x`. Blocks:
///
/// 1. each base block within each copy;
/// 2. `{a₀, b₀, c₁, d₁}` for every pair of edges `{a,b}`, `{c,d}` lying in
///    the *same* factor of a one-factorization of `K_v`.
///
/// # Errors
///
/// [`DesignError::Unsupported`] if the base has odd `v` or block size ≠ 4.
///
/// # Examples
///
/// ```
/// use wcp_designs::{sqs, verify};
///
/// let base = sqs::boolean_sqs(3)?;       // SQS(8)
/// let doubled = sqs::double(&base)?;     // SQS(16)
/// assert_eq!(doubled.num_points(), 16);
/// assert!(verify::is_t_design(&doubled, 3, 1));
/// # Ok::<(), wcp_designs::DesignError>(())
/// ```
pub fn double(base: &BlockDesign) -> Result<BlockDesign, DesignError> {
    if base.block_size() != 4 {
        return Err(DesignError::Unsupported(
            "doubling requires a quadruple system".into(),
        ));
    }
    let v = base.num_points();
    let factors = one_factorization(v)?;
    let mut blocks: Vec<Vec<u16>> = Vec::new();
    // Type 1: both copies of the base system.
    for copy in 0..2u16 {
        let off = copy * v;
        for b in base.blocks() {
            blocks.push(b.iter().map(|&p| p + off).collect());
        }
    }
    // Type 2: same-factor cross edges. The two copies are distinguishable,
    // so every ordered pair (copy-0 edge, copy-1 edge) within a factor is a
    // distinct block — including an edge paired with itself, which covers
    // the triples {a₀, b₀, a₁}.
    for factor in &factors {
        for &(a, b) in factor {
            for &(c, d) in factor {
                let mut blk = vec![a, b, c + v, d + v];
                blk.sort_unstable();
                blocks.push(blk);
            }
        }
    }
    BlockDesign::new(2 * v, 4, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn boolean_sqs_small() {
        for d in [2u32, 3, 4, 5] {
            let des = boolean_sqs(d).unwrap();
            let v = 1u64 << d;
            let expect = v * (v - 1) * (v - 2) / 24;
            assert_eq!(des.num_blocks() as u64, expect, "SQS({v}) block count");
            assert!(verify::is_t_design(&des, 3, 1), "SQS({v})");
        }
    }

    #[test]
    fn boolean_sqs_64() {
        // Our substitute for the paper's SQS(70) at n = 71, r = 4, x = 2.
        let des = boolean_sqs(6).unwrap();
        assert_eq!(des.num_blocks(), 64 * 63 * 62 / 24);
        assert!(verify::is_t_design(&des, 3, 1));
    }

    #[test]
    fn one_factorization_covers_all_edges() {
        for v in [2u16, 4, 6, 8, 10, 14, 20] {
            let f = one_factorization(v).unwrap();
            assert_eq!(f.len(), (v - 1) as usize);
            let mut seen = std::collections::HashSet::new();
            for matching in &f {
                assert_eq!(matching.len(), (v / 2) as usize);
                let mut touched = vec![false; v as usize];
                for &(a, b) in matching {
                    assert!(a < b && b < v);
                    assert!(
                        !touched[a as usize] && !touched[b as usize],
                        "not a matching"
                    );
                    touched[a as usize] = true;
                    touched[b as usize] = true;
                    assert!(seen.insert((a, b)), "edge repeated across factors");
                }
            }
            assert_eq!(seen.len() as u16, v * (v - 1) / 2, "all edges covered");
        }
    }

    #[test]
    fn doubling_produces_design() {
        let sqs8 = boolean_sqs(3).unwrap();
        let sqs16 = double(&sqs8).unwrap();
        assert!(verify::is_t_design(&sqs16, 3, 1));
        let sqs32 = double(&sqs16).unwrap();
        assert!(verify::is_t_design(&sqs32, 3, 1));
    }

    #[test]
    fn doubling_rejects_odd_or_non_quadruple() {
        let sts = crate::sts::steiner_triple_system(9).unwrap();
        assert!(double(&sts).is_err());
    }

    #[test]
    fn odd_one_factorization_rejected() {
        assert!(one_factorization(7).is_err());
        assert!(one_factorization(0).is_err());
    }
}

//! The placement mapping `π : O → 2^N`.

use crate::PlacementError;
use std::sync::{Arc, OnceLock};

/// A replica placement: for each object, the sorted set of `r` distinct
/// nodes hosting its replicas.
///
/// The forward map is one flat row-major table of `b · r` node ids
/// (object `o`'s replicas are entries `o·r .. (o+1)·r`) behind an
/// [`Arc`]. A clone shares that table instead of copying it, so the
/// dynamic engine, the adversary kernel and the served snapshot all
/// read the same rows.
///
/// # Examples
///
/// ```
/// use wcp_core::Placement;
///
/// let p = Placement::new(5, 2, vec![vec![0, 1], vec![2, 4], vec![1, 3]])?;
/// assert_eq!(p.num_objects(), 3);
/// assert_eq!(p.max_load(), 2); // node 1 hosts two replicas
/// assert_eq!(p.replicas(1), &[2, 4]);
/// assert_eq!(p, Placement::from_rows(5, 2, vec![0, 1, 2, 4, 1, 3])?);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Placement {
    n: u16,
    r: u16,
    /// Row-major replica table: stride `r`, each row sorted.
    rows: Arc<[u16]>,
    /// Lazily computed per-node loads, shared by every
    /// [`Placement::cached_loads`] caller; reset on mutation.
    loads_cache: OnceLock<Vec<u32>>,
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        // The load cache is derived state and must not affect equality.
        self.n == other.n && self.r == other.r && self.rows == other.rows
    }
}

impl Eq for Placement {}

impl Placement {
    /// Flattens nested replica sets, each of size `r`, and validates
    /// them through [`Placement::from_rows`].
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidPlacement`] on the first set of the
    /// wrong size, or as for [`Placement::from_rows`].
    pub fn new(n: u16, r: u16, replica_sets: Vec<Vec<u16>>) -> Result<Self, PlacementError> {
        let ragged = replica_sets
            .iter()
            .enumerate()
            .find(|(_, s)| s.len() != usize::from(r));
        if let Some((i, set)) = ragged {
            return Err(PlacementError::InvalidPlacement(format!(
                "object {i} has {} replicas, expected {r}",
                set.len()
            )));
        }
        Self::from_rows(n, r, replica_sets.concat())
    }

    /// Validates and wraps a flat row-major table: a whole number of
    /// rows of `r ≥ 1` node ids (empty rows could not be counted), each
    /// sorted, duplicate free, with nodes `< n`.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidPlacement`] on a bad shape or the first
    /// malformed row.
    pub fn from_rows(n: u16, r: u16, rows: impl Into<Arc<[u16]>>) -> Result<Self, PlacementError> {
        let rows = rows.into();
        if r == 0 || rows.len() % usize::from(r) != 0 {
            return Err(PlacementError::InvalidPlacement(format!(
                "{} node ids do not split into rows of {r}",
                rows.len()
            )));
        }
        for (i, set) in rows.chunks_exact(usize::from(r)).enumerate() {
            if !set.is_sorted_by(|a, b| a < b) || set.last().is_some_and(|&x| x >= n) {
                return Err(PlacementError::InvalidPlacement(format!(
                    "object {i} replica set is unsorted, duplicated or out of range"
                )));
            }
        }
        Ok(Self {
            n,
            r,
            rows,
            loads_cache: OnceLock::new(),
        })
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn num_nodes(&self) -> u16 {
        self.n
    }

    /// Replicas per object `r`.
    #[must_use]
    pub fn replicas_per_object(&self) -> u16 {
        self.r
    }

    /// Number of objects `b`.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.rows.len() / usize::from(self.r)
    }

    /// The replica set of one object.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range.
    #[must_use]
    pub fn replicas(&self, obj: usize) -> &[u16] {
        let r = usize::from(self.r);
        &self.rows[obj * r..(obj + 1) * r]
    }

    /// The replica set of one object, or `None` when `obj` is out of
    /// range.
    #[inline]
    #[must_use]
    pub fn row(&self, obj: usize) -> Option<&[u16]> {
        let r = usize::from(self.r);
        self.rows.get(obj.checked_mul(r)?..)?.get(..r)
    }

    /// The first (lowest) node of one object's row, or `None` when
    /// `obj` is out of range: a single bounds check (the table holds
    /// whole rows), for per-request readers.
    #[inline]
    #[must_use]
    pub fn first_replica(&self, obj: usize) -> Option<u16> {
        self.rows
            .get(obj.checked_mul(usize::from(self.r))?)
            .copied()
    }

    /// Every replica set in object order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u16> {
        self.rows.chunks_exact(usize::from(self.r))
    }

    /// The shared table, for in-crate builders that copy it on write
    /// and hand the edit back to [`Placement::from_rows`].
    pub(crate) fn shared_rows(&self) -> Arc<[u16]> {
        Arc::clone(&self.rows)
    }

    /// Per-node load (number of replicas hosted), as a fresh vector the
    /// caller may mutate. Hot paths that only read should prefer
    /// [`Placement::cached_loads`].
    #[must_use]
    pub fn loads(&self) -> Vec<u32> {
        self.cached_loads().to_vec()
    }

    /// Per-node load, computed once per placement and memoized: repeated
    /// calls (adversary restarts, per-cell evaluations) are free after
    /// the first.
    #[must_use]
    pub fn cached_loads(&self) -> &[u32] {
        self.loads_cache.get_or_init(|| {
            let mut loads = vec![0u32; self.n as usize];
            for &nd in self.rows.iter() {
                loads[nd as usize] += 1;
            }
            loads
        })
    }

    /// Maximum per-node load.
    #[must_use]
    pub fn max_load(&self) -> u32 {
        self.cached_loads().iter().copied().max().unwrap_or(0)
    }

    /// For each node, the list of objects with a replica there (the
    /// inverted index used by adversaries).
    #[must_use]
    pub fn objects_by_node(&self) -> Vec<Vec<u32>> {
        let mut idx = vec![Vec::new(); self.n as usize];
        for (obj, set) in self.rows().enumerate() {
            for &nd in set {
                idx[nd as usize].push(obj as u32);
            }
        }
        idx
    }

    /// Counts objects failed by the failure of node set `failed` (sorted or
    /// not): those with at least `s` replicas among the failed nodes.
    ///
    /// This is the inner expression of Definition 1; minimizing survivors
    /// over all `k`-sets is the adversary's job (`wcp-adversary`).
    #[must_use]
    pub fn failed_objects(&self, failed: &[u16], s: u16) -> u64 {
        let mut is_failed = vec![false; self.n as usize];
        for &nd in failed {
            is_failed[nd as usize] = true;
        }
        let mut count = 0u64;
        for set in self.rows() {
            let hits = set.iter().filter(|&&nd| is_failed[nd as usize]).count();
            if hits >= s as usize {
                count += 1;
            }
        }
        count
    }

    /// Appends the objects of `other` (same `n` and `r`) to this placement.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidPlacement`] if `n` or `r` differ.
    pub fn extend(&mut self, other: Placement) -> Result<(), PlacementError> {
        if other.n != self.n || other.r != self.r {
            return Err(PlacementError::InvalidPlacement(format!(
                "cannot merge placements with different shapes: ({}, {}) vs ({}, {})",
                self.n, self.r, other.n, other.r
            )));
        }
        self.rows = self.rows.iter().chain(other.rows.iter()).copied().collect();
        self.loads_cache = OnceLock::new();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Placement {
        Placement::new(
            6,
            3,
            vec![vec![0, 1, 2], vec![0, 1, 3], vec![3, 4, 5], vec![0, 4, 5]],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(Placement::new(5, 2, vec![vec![0, 0]]).is_err());
        assert!(Placement::new(5, 2, vec![vec![1, 0]]).is_err());
        assert!(Placement::new(5, 2, vec![vec![0, 5]]).is_err());
        assert!(Placement::new(5, 2, vec![vec![0, 1, 2]]).is_err());
        // Ragged sets are refused even when they would flatten into a
        // whole number of valid rows.
        assert!(Placement::new(5, 2, vec![vec![0, 1, 2], vec![3]]).is_err());
        // With r = 0 the flat table cannot count its objects.
        assert!(Placement::new(5, 0, vec![vec![]; 5]).is_err());
        assert!(Placement::from_rows(5, 2, vec![0, 1, 2]).is_err());
        assert!(Placement::from_rows(5, 2, vec![0, 1, 3, 2]).is_err());
    }

    #[test]
    fn flat_rows_match_the_nested_sets() {
        let p = sample();
        let q = Placement::from_rows(6, 3, vec![0, 1, 2, 0, 1, 3, 3, 4, 5, 0, 4, 5]).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.rows().len(), 4);
        assert_eq!(p.rows().nth(2), Some(&[3, 4, 5][..]));
        assert_eq!(p.row(3), Some(p.replicas(3)));
        assert_eq!(p.row(4), None);
        assert_eq!(p.row(usize::MAX), None);
        assert_eq!(p.first_replica(2), Some(3));
        assert_eq!(p.first_replica(4), None);
        assert_eq!(p.first_replica(usize::MAX), None);
        // A clone shares the table.
        assert!(Arc::ptr_eq(&p.shared_rows(), &p.clone().shared_rows()));
    }

    #[test]
    fn loads() {
        let p = sample();
        assert_eq!(p.loads(), vec![3, 2, 1, 2, 2, 2]);
        assert_eq!(p.max_load(), 3);
    }

    #[test]
    fn inverted_index() {
        let p = sample();
        let idx = p.objects_by_node();
        assert_eq!(idx[0], vec![0, 1, 3]);
        assert_eq!(idx[2], vec![0]);
    }

    #[test]
    fn cached_loads_survive_and_reset_on_extend() {
        let mut p = sample();
        assert_eq!(p.cached_loads(), &[3, 2, 1, 2, 2, 2]);
        assert_eq!(p.cached_loads(), p.loads().as_slice());
        p.extend(Placement::new(6, 3, vec![vec![1, 2, 3]]).unwrap())
            .unwrap();
        assert_eq!(p.cached_loads(), &[3, 3, 2, 3, 2, 2]);
        // Equality ignores the memoized cache.
        let q = p.clone();
        assert_eq!(p, q);
    }

    #[test]
    fn failure_counting() {
        let p = sample();
        // Failing {0,1}: objects 0 and 1 lose 2 replicas each.
        assert_eq!(p.failed_objects(&[0, 1], 2), 2);
        assert_eq!(p.failed_objects(&[0, 1], 1), 3);
        assert_eq!(p.failed_objects(&[0, 1], 3), 0);
        assert_eq!(p.failed_objects(&[4, 5], 2), 2);
        assert_eq!(p.failed_objects(&[], 1), 0);
    }

    #[test]
    fn merging() {
        let mut p = sample();
        let q = Placement::new(6, 3, vec![vec![1, 2, 3]]).unwrap();
        p.extend(q).unwrap();
        assert_eq!(p.num_objects(), 5);
        assert_eq!(p.replicas(4), &[1, 2, 3]);
        let bad = Placement::new(7, 3, vec![vec![1, 2, 3]]).unwrap();
        let mut p2 = sample();
        assert!(p2.extend(bad).is_err());
    }
}

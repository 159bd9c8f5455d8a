//! Plain-text interchange for placements.
//!
//! Operators need to move placements between the planner and the systems
//! that enforce them (volume managers, schedulers). The format is
//! deliberately trivial — one object per line, replica node ids separated
//! by tabs, `#` comments — so anything from `awk` to a config-management
//! pipeline can consume it.

use crate::{Placement, PlacementError};

/// Serializes a placement to the TSV interchange format.
///
/// The header comment records `n` and `r`; each subsequent line holds one
/// object's sorted replica node ids.
///
/// # Examples
///
/// ```
/// use wcp_core::{io, Placement};
///
/// let p = Placement::new(5, 2, vec![vec![0, 3], vec![1, 4]])?;
/// let text = io::to_tsv(&p);
/// let back = io::from_tsv(&text)?;
/// assert_eq!(p, back);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[must_use]
pub fn to_tsv(placement: &Placement) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# worst-case-placement v1\tn={}\tr={}\n",
        placement.num_nodes(),
        placement.replicas_per_object()
    ));
    for set in placement.rows() {
        let line: Vec<String> = set.iter().map(u16::to_string).collect();
        out.push_str(&line.join("\t"));
        out.push('\n');
    }
    out
}

/// Parses the TSV interchange format back into a placement.
///
/// # Errors
///
/// [`PlacementError::InvalidPlacement`] on malformed headers, fields, or
/// replica sets (the [`Placement::from_rows`] invariants are re-validated).
pub fn from_tsv(text: &str) -> Result<Placement, PlacementError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| PlacementError::InvalidPlacement("empty input".into()))?;
    let parse_field = |key: &str| -> Result<u16, PlacementError> {
        header
            .split('\t')
            .find_map(|f| f.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| PlacementError::InvalidPlacement(format!("header missing {key}= field")))
    };
    let n = parse_field("n")?;
    let r = parse_field("r")?;
    let mut rows = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let set: Result<Vec<u16>, _> = line.split('\t').map(str::parse).collect();
        let set =
            set.map_err(|e| PlacementError::InvalidPlacement(format!("line {}: {e}", lineno + 2)))?;
        if set.len() != usize::from(r) {
            return Err(PlacementError::InvalidPlacement(format!(
                "line {}: {} replicas, expected {r}",
                lineno + 2,
                set.len()
            )));
        }
        rows.extend(set);
    }
    Placement::from_rows(n, r, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomStrategy, RandomVariant, SystemParams};

    #[test]
    fn roundtrip_random_placement() {
        let params = SystemParams::new(31, 200, 3, 2, 3).unwrap();
        let p = RandomStrategy::new(5, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap();
        let text = to_tsv(&p);
        assert_eq!(from_tsv(&text).unwrap(), p);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# worst-case-placement v1\tn=5\tr=2\n0\t1\n\n# mid comment\n2\t4\n";
        let p = from_tsv(text).unwrap();
        assert_eq!(p.num_objects(), 2);
        assert_eq!(p.replicas(1), &[2, 4]);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_tsv("").is_err());
        assert!(from_tsv("# no fields here\n0\t1\n").is_err());
        assert!(from_tsv("# v1\tn=5\tr=2\n0\tx\n").is_err());
        assert!(from_tsv("# v1\tn=5\tr=2\n0\t1\t2\n").is_err()); // wrong arity
        assert!(from_tsv("# v1\tn=5\tr=2\n0\t1\t2\n3\n").is_err()); // ragged, whole rows
        assert!(from_tsv("# v1\tn=5\tr=2\n1\t0\n").is_err()); // unsorted
        assert!(from_tsv("# v1\tn=5\tr=2\n0\t9\n").is_err()); // out of range
    }
}

//! Shared plumbing for the paper-reproduction binaries (`fig02`–`fig11`).
//!
//! Each binary regenerates one table or figure of Li, Gao & Reiter
//! (ICDCS 2015): it prints the same rows/series the paper reports and
//! writes the raw data as CSV into [`wcp_sim::results_dir`]. The helpers
//! here encode the measurement the evaluation section uses everywhere:
//! `lbAvail_co − prAvail^rnd` as a percentage of the maximum possible
//! improvement `b − prAvail^rnd`, with win/tie/loss classification.

#![forbid(unsafe_code)]

pub mod spec;

use wcp_analysis::theorem2::VulnTable;
use wcp_core::sweep::AdversarySpec;
use wcp_core::{combo_plan, lb_avail_co, PackingProfile, SystemParams};

/// Parses a comma-separated `--flag a,b,c` list, skipping empty
/// entries.
///
/// # Errors
///
/// Names the flag and the first entry that does not parse.
pub fn parse_list<T: std::str::FromStr>(flag: &str, value: &str) -> Result<Vec<T>, String> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("invalid {flag} entry '{part}'"))
        })
        .collect()
}

/// Parses the `--adversary` flag every experiment CLI takes:
/// `auto[:EXACT_BUDGET]` is [`AdversarySpec::default`] with its DFS
/// budget replaced when given, and `exhaustive[:BUDGET]` enumerates up
/// to `BUDGET` subsets (2,000,000 by default).
///
/// # Errors
///
/// An unknown adversary name or a budget that is not an integer.
pub fn parse_adversary(value: &str) -> Result<AdversarySpec, String> {
    let (kind, budget) = match value.split_once(':') {
        Some((kind, raw)) => (
            kind,
            Some(
                raw.parse::<u64>()
                    .map_err(|_| format!("invalid adversary budget '{raw}'"))?,
            ),
        ),
        None => (value, None),
    };
    match kind {
        "auto" => {
            let mut spec = AdversarySpec::default();
            if let (AdversarySpec::Auto { exact_budget, .. }, Some(b)) = (&mut spec, budget) {
                *exact_budget = b;
            }
            Ok(spec)
        }
        "exhaustive" => Ok(AdversarySpec::Exhaustive {
            budget: budget.unwrap_or(2_000_000),
        }),
        other => Err(format!(
            "unknown adversary '{other}' (expected auto or exhaustive)"
        )),
    }
}

/// The paper's object-count series: 600 doubling to `max` (38 400 in
/// Fig. 9, 9 600 in Fig. 2).
#[must_use]
pub fn b_series(max: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut b = 600u64;
    while b <= max {
        out.push(b);
        b *= 2;
    }
    out
}

/// Win/tie/loss of Combo against Random in a table cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `lbAvail_co > prAvail` — Combo guarantees more than Random
    /// probably achieves (white cells in the paper).
    Win,
    /// Equal (light gray).
    Tie,
    /// `lbAvail_co < prAvail` (dark gray).
    Loss,
}

/// One cell of a Fig. 9/10-style table.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// `lbAvail − prAvail` as a percentage of `b − prAvail`, truncated
    /// toward zero like the paper's integer entries; `None` when
    /// `b = prAvail` (no possible improvement).
    pub pct: Option<i64>,
    /// Win/tie/loss classification.
    pub outcome: Outcome,
}

impl Cell {
    /// Computes a cell from the guaranteed lower bound and `prAvail`.
    #[must_use]
    pub fn from_values(lb: i64, pr_avail: u64, b: u64) -> Self {
        let pr = i64::try_from(pr_avail).expect("prAvail fits i64");
        let b = i64::try_from(b).expect("b fits i64");
        let outcome = match lb.cmp(&pr) {
            std::cmp::Ordering::Greater => Outcome::Win,
            std::cmp::Ordering::Equal => Outcome::Tie,
            std::cmp::Ordering::Less => Outcome::Loss,
        };
        let pct = (b != pr).then(|| 100 * (lb - pr) / (b - pr));
        Self { pct, outcome }
    }

    /// Renders like the paper's tables: the integer percentage, with `=`
    /// marking ties and `*` marking Random wins.
    #[must_use]
    pub fn render(&self) -> String {
        let marker = match self.outcome {
            Outcome::Win => "",
            Outcome::Tie => "=",
            Outcome::Loss => "*",
        };
        match self.pct {
            Some(p) => format!("{p}{marker}"),
            None => format!("na{marker}"),
        }
    }
}

/// Computes the Fig. 9 cell for one `(n, r, s, b, k)` point using the
/// paper's Fig. 4 profile and the Theorem-2 `prAvail`.
///
/// # Panics
///
/// Panics if the parameters are outside the paper grid (callers iterate
/// exactly that grid).
#[must_use]
pub fn fig9_cell(table: &VulnTable, n: u16, r: u16, s: u16, b: u64, k: u16) -> Cell {
    let params = SystemParams::new(n, b, r, s, k).expect("paper grid is valid");
    let profile = PackingProfile::paper(&params).expect("paper profile covers the grid");
    let plan = combo_plan(&profile, &params).expect("DP succeeds on the grid");
    // Evaluate the bound at the same k it was planned for (Fig. 9).
    let lb = lb_avail_co(&plan.lambdas, b, k, s);
    let pr = table.pr_avail_paper(n, k, r, s, b);
    Cell::from_values(lb, pr, b)
}

/// `lbAvail_si − prAvail` cell for a single `Simple(x, λ)` placement with
/// minimal `λ` per Eqn. 1 against the paper profile (Fig. 10 sub-tables).
/// Returns the cell and the chosen `λ`.
#[must_use]
pub fn fig10_simple_cell(
    table: &VulnTable,
    n: u16,
    r: u16,
    s: u16,
    x: u16,
    b: u64,
    k: u16,
) -> (Cell, u64) {
    let params = SystemParams::new(n, b, r, s, k).expect("paper grid is valid");
    let profile = PackingProfile::paper(&params).expect("paper profile covers the grid");
    let spec = profile.spec(x);
    let d = spec.units_for(b).expect("capacity grows with λ");
    let lambda = d * spec.mu;
    let lb = wcp_core::lb_avail_si(b, lambda, k, s, x);
    let pr = table.pr_avail_paper(n, k, r, s, b);
    (Cell::from_values(lb, pr, b), lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_series_matches_paper() {
        assert_eq!(
            b_series(38_400),
            vec![600, 1200, 2400, 4800, 9600, 19_200, 38_400]
        );
        assert_eq!(b_series(9600).len(), 5);
    }

    #[test]
    fn cell_classification() {
        let w = Cell::from_values(90, 80, 100);
        assert_eq!(w.outcome, Outcome::Win);
        assert_eq!(w.pct, Some(50));
        let t = Cell::from_values(80, 80, 100);
        assert_eq!(t.outcome, Outcome::Tie);
        assert_eq!(t.render(), "0=");
        let l = Cell::from_values(60, 80, 100);
        assert_eq!(l.outcome, Outcome::Loss);
        assert_eq!(l.render(), "-100*");
    }

    #[test]
    fn truncation_matches_paper_style() {
        // 2/3 → 66 (not 67).
        let c = Cell::from_values(90, 70, 100);
        assert_eq!(c.pct, Some(66));
    }

    #[test]
    fn no_improvement_possible() {
        let c = Cell::from_values(100, 100, 100);
        assert_eq!(c.pct, None);
        assert_eq!(c.outcome, Outcome::Tie);
    }

    #[test]
    fn fig9_upper_left_corner_wins_big() {
        // Paper: n = 71, r = 2, s = 2, b = 2400, k = 2 → Combo preserves
        // 85% of what Random probably loses.
        let table = VulnTable::new(2400);
        let cell = fig9_cell(&table, 71, 2, 2, 2400, 2);
        assert_eq!(cell.outcome, Outcome::Win);
        let pct = cell.pct.unwrap();
        assert!(
            (80..=90).contains(&pct),
            "expected ≈85 like the paper, got {pct}"
        );
    }
}

//! Packing profiles: the per-`x` parameters `(n_x, μ_x)` and capacities
//! that instantiate `Simple(x, λ)` placements and feed the Combo DP.
//!
//! The paper's Sec. III-C selects, for each `x < s`, a sub-system size
//! `n_x ≤ n` and index `μ_x` for which a `(x+1)-(n_x, r, μ_x)` design is
//! known; its Fig. 4 lists the choices for `n ∈ {31, 71, 257}`. A profile
//! captures those choices together with the *capacity* one index unit
//! provides. Two flavors exist:
//!
//! * [`PackingProfile::paper`] — the verbatim Fig. 4 table with
//!   design-theoretic capacities `μ_x·C(n_x, x+1)/C(r, x+1)` (kept as a
//!   rational so the paper's one divisibility-violating entry, `2-(70,4,1)`,
//!   still evaluates the way the paper's arithmetic does);
//! * [`PackingProfile::constructive`] — whatever
//!   [`wcp_designs::registry`] can actually build, with *achieved*
//!   capacities; placements built from this profile are real block
//!   collections, not just arithmetic.

use crate::{PlacementError, SystemParams};
use wcp_designs::registry::{best_unit_packing, RegistryConfig, UnitPacking};

/// Parameters of one `Simple(x, ·)` slot inside a profile.
#[derive(Debug, Clone)]
pub struct UnitSpec {
    /// Strength-defining overlap bound `x` (the slot covers `x ∈ [s]`).
    pub x: u16,
    /// Sub-system size `n_x ≤ n` (0 when the slot is unusable).
    pub nx: u16,
    /// Design index of one unit; `λ_x` must be a multiple of `μ_x`
    /// (Observation 1).
    pub mu: u64,
    /// Capacity numerator: one unit (index `μ_x`) holds
    /// `⌊d·cap_num/cap_den⌋` objects at `λ_x = d·μ_x`.
    pub cap_num: u64,
    /// Capacity denominator.
    pub cap_den: u64,
    /// Which design backs this slot.
    pub provenance: String,
    /// Constructive unit, when the profile can actually build placements.
    pub unit: Option<UnitPacking>,
}

impl UnitSpec {
    /// Objects placeable with `d` index units (`λ_x = d·μ_x`):
    /// `⌊d·cap_num/cap_den⌋`.
    #[must_use]
    pub fn capacity(&self, d: u64) -> u64 {
        if self.cap_den == 0 {
            return 0;
        }
        u64::try_from(u128::from(d) * u128::from(self.cap_num) / u128::from(self.cap_den))
            .expect("capacity fits u64")
    }

    /// Smallest unit count whose capacity reaches `b` (`None` if even huge
    /// `d` cannot, i.e. the slot is unusable).
    #[must_use]
    pub fn units_for(&self, b: u64) -> Option<u64> {
        if b == 0 {
            return Some(0);
        }
        if self.cap_num == 0 {
            return None;
        }
        // ceil(b·den/num)
        let d = (u128::from(b) * u128::from(self.cap_den)).div_ceil(u128::from(self.cap_num));
        Some(u64::try_from(d).expect("unit count fits u64"))
    }
}

/// A full per-`x` profile for a system (`x ∈ [s]`).
#[derive(Debug, Clone)]
pub struct PackingProfile {
    r: u16,
    s: u16,
    specs: Vec<UnitSpec>,
}

/// The paper's Fig. 4 sub-system sizes: `fig4_nx(n, r, x)` for
/// `n ∈ {31, 71, 257}`, `2 ≤ r ≤ 5`, `1 ≤ x < r` (μ = 1 throughout;
/// `x = 0` uses `n_0 = n`).
#[must_use]
pub fn fig4_nx(n: u16, r: u16, x: u16) -> Option<u16> {
    if x == 0 {
        return matches!(n, 31 | 71 | 257).then_some(n);
    }
    let table: &[(u16, u16, &[u16])] = &[
        // (n, r, [n_1, n_2, …, n_{r-1}])
        (31, 2, &[31]),
        (31, 3, &[31, 31]),
        (31, 4, &[28, 28, 31]),
        (31, 5, &[25, 26, 23, 31]),
        (71, 2, &[71]),
        (71, 3, &[69, 71]),
        (71, 4, &[70, 70, 71]),
        (71, 5, &[65, 65, 71, 71]),
        (257, 2, &[257]),
        (257, 3, &[255, 257]),
        (257, 4, &[256, 256, 257]),
        (257, 5, &[245, 257, 243, 257]),
    ];
    table
        .iter()
        .find(|&&(tn, tr, _)| tn == n && tr == r)
        .and_then(|&(_, _, row)| row.get(usize::from(x) - 1).copied())
}

impl PackingProfile {
    /// Builds the paper's Fig. 4 profile for `n ∈ {31, 71, 257}`.
    ///
    /// Capacities are the design-theoretic `μ·C(n_x, x+1)/C(r, x+1)`; the
    /// profile is for *arithmetic* reproduction (Figs. 3, 9, 10) — it
    /// cannot materialize placements ([`UnitSpec::unit`] is `None`).
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] when `(n, r)` is outside the
    /// paper's table.
    pub fn paper(params: &SystemParams) -> Result<Self, PlacementError> {
        let (n, r, s) = (params.n(), params.r(), params.s());
        let mut specs = Vec::with_capacity(usize::from(s));
        for x in 0..s {
            let nx = fig4_nx(n, r, x).ok_or_else(|| {
                PlacementError::InvalidParams(format!(
                    "paper profile only covers n ∈ {{31, 71, 257}}, 2 ≤ r ≤ 5; got n={n}, r={r}"
                ))
            })?;
            let cap_num = wcp_combin::binomial(u64::from(nx), u64::from(x) + 1)
                .and_then(|v| u64::try_from(v).ok())
                .expect("C(n_x, x+1) fits u64");
            let cap_den = wcp_combin::binomial(u64::from(r), u64::from(x) + 1)
                .and_then(|v| u64::try_from(v).ok())
                .expect("C(r, x+1) fits u64");
            specs.push(UnitSpec {
                x,
                nx,
                mu: 1,
                cap_num,
                cap_den,
                provenance: format!("paper Fig. 4: {}-({nx},{r},1)", x + 1),
                unit: None,
            });
        }
        Ok(Self { r, s, specs })
    }

    /// Builds a profile from what the construction registry can deliver,
    /// with achieved capacities. Placements built from this profile are
    /// concrete.
    ///
    /// `x = 0` is special-cased: a `Simple(0, λ)` placement is just a
    /// load-cap of `λ` replicas per node, realized by round-robin, with
    /// the exact capacity `⌊λ·n/r⌋`.
    ///
    /// # Errors
    ///
    /// [`PlacementError::InvalidParams`] if not even `x = 0` is usable
    /// (never happens for valid [`SystemParams`]).
    pub fn constructive(
        params: &SystemParams,
        config: &RegistryConfig,
    ) -> Result<Self, PlacementError> {
        let (n, r, s, b) = (params.n(), params.r(), params.s(), params.b());
        let mut specs = Vec::with_capacity(usize::from(s));
        for x in 0..s {
            if x == 0 {
                specs.push(UnitSpec {
                    x,
                    nx: n,
                    mu: 1,
                    cap_num: u64::from(n),
                    cap_den: u64::from(r),
                    provenance: format!("round-robin load cap (≤ λ replicas/node) on {n} nodes"),
                    unit: None,
                });
                continue;
            }
            match best_unit_packing(x + 1, r, n, b, config) {
                Some(unit) => specs.push(UnitSpec {
                    x,
                    nx: unit.v(),
                    mu: 1,
                    cap_num: unit.capacity(),
                    cap_den: 1,
                    provenance: unit.provenance().to_string(),
                    unit: Some(unit),
                }),
                None => specs.push(UnitSpec {
                    x,
                    nx: 0,
                    mu: 1,
                    cap_num: 0,
                    cap_den: 1,
                    provenance: "unconstructible".into(),
                    unit: None,
                }),
            }
        }
        Ok(Self { r, s, specs })
    }

    /// Block size `r`.
    #[must_use]
    pub fn r(&self) -> u16 {
        self.r
    }

    /// Fatality threshold `s` (the profile covers `x ∈ [s]`).
    #[must_use]
    pub fn s(&self) -> u16 {
        self.s
    }

    /// The spec for overlap bound `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x ≥ s`.
    #[must_use]
    pub fn spec(&self, x: u16) -> &UnitSpec {
        &self.specs[usize::from(x)]
    }

    /// All specs, indexed by `x`.
    #[must_use]
    pub fn specs(&self) -> &[UnitSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_lookup() {
        assert_eq!(fig4_nx(71, 3, 1), Some(69));
        assert_eq!(fig4_nx(71, 5, 1), Some(65));
        assert_eq!(fig4_nx(71, 5, 2), Some(65));
        assert_eq!(fig4_nx(71, 5, 3), Some(71));
        assert_eq!(fig4_nx(257, 5, 3), Some(243));
        assert_eq!(fig4_nx(31, 4, 1), Some(28));
        assert_eq!(fig4_nx(31, 5, 2), Some(26));
        assert_eq!(fig4_nx(100, 3, 1), None);
        assert_eq!(fig4_nx(31, 5, 5), None);
    }

    #[test]
    fn paper_profile_capacities() {
        let p = SystemParams::new(71, 1200, 3, 2, 3).unwrap();
        let prof = PackingProfile::paper(&p).unwrap();
        assert_eq!(prof.spec(0).capacity(1), 71 / 3);
        assert_eq!(prof.spec(1).capacity(1), 782); // STS(69)
        assert_eq!(prof.spec(1).capacity(2), 1564);
        // Fractional x = 0 capacity accumulates: ⌊d·71/3⌋.
        assert_eq!(prof.spec(0).capacity(3), 71);
    }

    #[test]
    fn paper_profile_handles_nonintegral_slot() {
        // n = 71, r = 4: the Fig. 4 entry n_1 = 70 has C(70,2)/C(4,2)
        // = 402.5; capacities must floor per unit count, not per unit.
        let p = SystemParams::new(71, 1200, 4, 2, 3).unwrap();
        let prof = PackingProfile::paper(&p).unwrap();
        assert_eq!(prof.spec(1).capacity(1), 402);
        assert_eq!(prof.spec(1).capacity(2), 805);
    }

    #[test]
    fn units_for_is_inverse_of_capacity() {
        let p = SystemParams::new(257, 9600, 5, 3, 6).unwrap();
        let prof = PackingProfile::paper(&p).unwrap();
        for x in 0..3u16 {
            let spec = prof.spec(x);
            for b in [1u64, 17, 500, 9600] {
                let d = spec.units_for(b).unwrap();
                assert!(spec.capacity(d) >= b, "x={x} b={b} d={d}");
                if d > 0 {
                    assert!(spec.capacity(d - 1) < b, "x={x} b={b} d={d} not minimal");
                }
            }
        }
    }

    #[test]
    fn constructive_profile_builds() {
        let p = SystemParams::new(71, 600, 3, 2, 3).unwrap();
        let prof = PackingProfile::constructive(&p, &RegistryConfig::default()).unwrap();
        assert_eq!(prof.spec(0).nx, 71);
        assert_eq!(prof.spec(1).nx, 69); // STS(69)
        assert_eq!(prof.spec(1).cap_num, 782);
        assert!(prof.spec(1).unit.is_some());
    }

    #[test]
    fn paper_profile_rejects_unknown_n() {
        let p = SystemParams::new(100, 600, 3, 2, 3).unwrap();
        assert!(PackingProfile::paper(&p).is_err());
    }
}

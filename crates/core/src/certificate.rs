//! Availability certificates: the prover/verifier split's data model.
//!
//! An adversary-ladder evaluation is expensive (multi-restart local
//! search plus branch-and-bound); its *verdict* should not require
//! trusting the fast path that produced it. Every ladder run therefore
//! emits a [`Certificate`]: the witness of each rung (greedy, local
//! search, exact) with a replayable decision-trace hash, and — when the
//! exact rung completed — a **bound ledger** with one admissible
//! upper bound per root child of the branch-and-bound tree, in the
//! tree's canonical root order. The `wcp-verify` crate re-checks all of
//! it against the scalar oracle in `O(witness)` without re-running
//! search.
//!
//! What a certificate *proves* (checkable from the placement alone):
//!
//! * each rung's witness really fails its claimed object count;
//! * rung claims are monotone and the final claim equals the best rung;
//! * every ledger bound is the correct admissible bound for its root
//!   child, and every root child whose bound is ≤ the claim provably
//!   cannot beat the claim.
//!
//! What remains *trusted*: that subtrees whose bound exceeds the claim
//! were actually searched to exhaustion. That part is guarded by the
//! kernel-vs-scalar differential suites, not by the certificate.
//!
//! The encoding is a [`wcp_sim::json::Value`] ([`Certificate::to_value`])
//! with a fixed member order, so its rendering is stable;
//! [`Certificate::from_value`] reads it back. 64-bit hashes are encoded
//! as `"0x…"` strings because the JSON number model is `f64` (exact only
//! below 2^53); every count is below 2^53 because all `b` objects are
//! materialized. A FNV-1a digest over the rendered body seals the
//! certificate and is appended as its last member, `digest`:
//! [`Certificate::from_value`] rejects any document whose digest does
//! not match its content.

use crate::Placement;
use wcp_sim::json::Value;

/// Schema version written into every certificate.
pub const CERTIFICATE_VERSION: u64 = 1;

/// Streaming FNV-1a (64-bit) — the workspace's stable non-cryptographic
/// hash, used for placement binding, decision traces and the
/// certificate seal. Not collision-resistant against adversaries; the
/// digest detects corruption and accidental drift, not forgery.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one little-endian `u64` into the state.
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Binds a certificate to the exact placement it speaks about: FNV-1a
/// over the shape and every replica row in object order.
#[must_use]
pub fn placement_digest(placement: &Placement) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(u64::from(placement.num_nodes()));
    h.write_u64(u64::from(placement.replicas_per_object()));
    h.write_u64(placement.num_objects() as u64);
    for row in placement.rows() {
        h.write_u64(row.len() as u64);
        for &node in row {
            h.write_u64(u64::from(node));
        }
    }
    h.finish()
}

/// Which adversary the certificate speaks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertificateKind {
    /// The budget-`k` node adversary (Definition 1).
    Node,
    /// The budget-`k` failure-unit adversary over a topology.
    Domain,
}

impl CertificateKind {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CertificateKind::Node => "node",
            CertificateKind::Domain => "domain",
        }
    }

    /// Parses a wire label.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "node" => Some(CertificateKind::Node),
            "domain" => Some(CertificateKind::Domain),
            _ => None,
        }
    }
}

/// One rung of the adversary ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    /// The greedy ascent seed.
    Greedy,
    /// Multi-restart steepest-ascent swap search.
    LocalSearch,
    /// The branch-and-bound exact rung.
    Exact,
}

impl RungKind {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RungKind::Greedy => "greedy",
            RungKind::LocalSearch => "local-search",
            RungKind::Exact => "exact",
        }
    }

    /// Parses a wire label.
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "greedy" => Some(RungKind::Greedy),
            "local-search" => Some(RungKind::LocalSearch),
            "exact" => Some(RungKind::Exact),
            _ => None,
        }
    }
}

/// One rung's claim: its witness and how it was reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rung {
    /// Which rung of the ladder produced this claim.
    pub kind: RungKind,
    /// Objects the witness fails.
    pub failed: u64,
    /// The witness node set (for domain certificates: the union of the
    /// chosen units' leaves), sorted.
    pub witness: Vec<u16>,
    /// The witness failure-unit ids (domain certificates only; empty
    /// for node certificates), sorted.
    pub units: Vec<u32>,
    /// FNV-1a hash of the rung's decision trace (per-restart seeds and
    /// outcomes), replayable by re-running the prover; 0 for the exact
    /// rung, whose evidence is the bound ledger instead.
    pub trace: u64,
}

/// One root child of the exact rung's branch-and-bound tree, in the
/// tree's canonical root order, with the admissible upper bound on every
/// attack inside its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The root child: a node id (node certificates) or failure-unit id
    /// (domain certificates).
    pub root: u32,
    /// Admissible bound: no attack whose first element (in root order)
    /// is `root` fails more than `bound` objects.
    pub bound: u64,
}

/// A complete, self-sealed availability certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Node or domain adversary.
    pub kind: CertificateKind,
    /// Nodes in the attacked placement.
    pub n: u16,
    /// Objects in the attacked placement.
    pub b: u64,
    /// Replicas per object.
    pub r: u16,
    /// Fatality threshold.
    pub s: u16,
    /// Adversary budget (nodes or failure units).
    pub k: u16,
    /// [`placement_digest`] of the attacked placement.
    pub placement: u64,
    /// The ladder's rungs in execution order.
    pub rungs: Vec<Rung>,
    /// The exact rung's bound ledger (empty unless `exact`, or when the
    /// shape is degenerate — `k` covers every node/unit — in which case
    /// optimality needs no search).
    pub ledger: Vec<LedgerEntry>,
    /// The final claim: no budget-`k` attack fails more objects.
    pub claimed_failed: u64,
    /// Whether the claim is proved optimal (exact rung completed).
    pub exact: bool,
}

impl Certificate {
    /// The canonical body: every member except the digest.
    fn body(&self) -> Value {
        let rungs = self
            .rungs
            .iter()
            .map(|rung| {
                Value::object([
                    ("kind", rung.kind.label().into()),
                    ("failed", rung.failed.into()),
                    ("witness", numbers(&rung.witness)),
                    ("units", numbers(&rung.units)),
                    ("trace", hex(rung.trace).into()),
                ])
            })
            .collect();
        let ledger = self
            .ledger
            .iter()
            .map(|entry| Value::Array(vec![entry.root.into(), entry.bound.into()]))
            .collect();
        let params = Value::object([
            ("n", self.n.into()),
            ("b", self.b.into()),
            ("r", self.r.into()),
            ("s", self.s.into()),
            ("k", self.k.into()),
        ]);
        Value::object([
            ("version", CERTIFICATE_VERSION.into()),
            ("kind", self.kind.label().into()),
            ("params", params),
            ("placement", hex(self.placement).into()),
            ("claimed_failed", self.claimed_failed.into()),
            ("exact", self.exact.into()),
            ("rungs", Value::Array(rungs)),
            ("ledger", Value::Array(ledger)),
        ])
    }

    /// FNV-1a over the rendered body without its closing `}`: exactly
    /// the bytes that precede `, "digest": …` in [`Certificate::to_json`].
    fn seal(body: &Value) -> u64 {
        let text = body.to_json();
        let mut h = Fnv::new();
        h.write_bytes(text.strip_suffix('}').unwrap_or(&text).as_bytes());
        h.finish()
    }

    /// The certificate's seal: FNV-1a over the canonical encoding.
    #[must_use]
    pub fn digest(&self) -> u64 {
        Self::seal(&self.body())
    }

    /// The certificate as one JSON object, `digest` its last member.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut value = self.body();
        let digest = hex(Self::seal(&value));
        if let Value::Object(members) = &mut value {
            members.push(("digest".to_string(), digest.into()));
        }
        value
    }

    /// Renders the certificate as one stable JSON object, digest
    /// included. Byte-identical for equal certificates.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a certificate back from its JSON form.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed member, or a digest mismatch
    /// (any tampering with the document body invalidates the seal).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Value::parse(text).map_err(|e| e.to_string())?;
        Self::from_value(&value)
    }

    /// Parses a certificate from an already parsed [`Value`] (e.g. the
    /// `"certificate"` member of an evaluation report).
    ///
    /// # Errors
    ///
    /// As [`Certificate::from_json`].
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let version = field_u64(value, "version")?;
        if version != CERTIFICATE_VERSION {
            return Err(format!("unsupported certificate version {version}"));
        }
        let kind = CertificateKind::parse(field_str(value, "kind")?)
            .ok_or_else(|| "unknown certificate kind".to_string())?;
        let params = value
            .get("params")
            .ok_or_else(|| "missing member 'params'".to_string())?;
        let n = narrow_u16(field_u64(params, "n")?, "n")?;
        let b = field_u64(params, "b")?;
        let r = narrow_u16(field_u64(params, "r")?, "r")?;
        let s = narrow_u16(field_u64(params, "s")?, "s")?;
        let k = narrow_u16(field_u64(params, "k")?, "k")?;
        let placement = field_hex(value, "placement")?;
        let claimed_failed = field_u64(value, "claimed_failed")?;
        let exact = value
            .get("exact")
            .and_then(Value::as_bool)
            .ok_or_else(|| "missing boolean 'exact'".to_string())?;
        let mut rungs = Vec::new();
        for rv in field_array(value, "rungs")? {
            let kind = RungKind::parse(field_str(rv, "kind")?)
                .ok_or_else(|| "unknown rung kind".to_string())?;
            let failed = field_u64(rv, "failed")?;
            let witness = field_array(rv, "witness")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|x| u16::try_from(x).ok())
                        .ok_or_else(|| "non-u16 witness entry".to_string())
                })
                .collect::<Result<Vec<u16>, String>>()?;
            let units = field_array(rv, "units")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| "non-u32 unit entry".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?;
            let trace = field_hex(rv, "trace")?;
            rungs.push(Rung {
                kind,
                failed,
                witness,
                units,
                trace,
            });
        }
        let mut ledger = Vec::new();
        for ev in field_array(value, "ledger")? {
            let Some([root, bound]) = ev.as_array() else {
                return Err("ledger entries must be [root, bound] pairs".to_string());
            };
            let root = root
                .as_u64()
                .and_then(|x| u32::try_from(x).ok())
                .ok_or_else(|| "non-u32 ledger root".to_string())?;
            let bound = bound
                .as_u64()
                .ok_or_else(|| "non-u64 ledger bound".to_string())?;
            ledger.push(LedgerEntry { root, bound });
        }
        let cert = Certificate {
            kind,
            n,
            b,
            r,
            s,
            k,
            placement,
            rungs,
            ledger,
            claimed_failed,
            exact,
        };
        let sealed = field_hex(value, "digest")?;
        if sealed != cert.digest() {
            return Err(format!(
                "digest mismatch: sealed {}, content hashes to {}",
                hex(sealed),
                hex(cert.digest())
            ));
        }
        Ok(cert)
    }
}

/// Renders a 64-bit hash as the wire format (`"0x"` + 16 hex digits).
fn hex(value: u64) -> String {
    format!("0x{value:016x}")
}

/// Parses the wire hash format back.
fn parse_hex(text: &str) -> Option<u64> {
    u64::from_str_radix(text.strip_prefix("0x")?, 16).ok()
}

fn numbers<T: Copy + Into<Value>>(items: &[T]) -> Value {
    Value::Array(items.iter().map(|&x| x.into()).collect())
}

fn field_u64(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer '{key}'"))
}

fn field_str<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn field_array<'v>(value: &'v Value, key: &str) -> Result<&'v [Value], String> {
    value
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing array '{key}'"))
}

fn field_hex(value: &Value, key: &str) -> Result<u64, String> {
    parse_hex(field_str(value, key)?).ok_or_else(|| format!("malformed hash '{key}'"))
}

fn narrow_u16(value: u64, key: &str) -> Result<u16, String> {
    u16::try_from(value).map_err(|_| format!("'{key}' out of u16 range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            kind: CertificateKind::Node,
            n: 13,
            b: 26,
            r: 3,
            s: 2,
            k: 3,
            placement: 0xdead_beef_0123_4567,
            rungs: vec![
                Rung {
                    kind: RungKind::Greedy,
                    failed: 4,
                    witness: vec![1, 5, 9],
                    units: vec![],
                    trace: 0x1111,
                },
                Rung {
                    kind: RungKind::Exact,
                    failed: 6,
                    witness: vec![2, 5, 9],
                    units: vec![],
                    trace: 0,
                },
            ],
            ledger: vec![
                LedgerEntry { root: 2, bound: 9 },
                LedgerEntry { root: 5, bound: 6 },
            ],
            claimed_failed: 6,
            exact: true,
        }
    }

    #[test]
    fn json_round_trips() {
        let cert = sample();
        let text = cert.to_json();
        let back = Certificate::from_json(&text).expect("parses");
        assert_eq!(back, cert);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn digest_seals_the_body() {
        let cert = sample();
        // Any body tampering (here: one failed count) breaks the seal.
        let text = cert.to_json().replace("\"failed\": 6", "\"failed\": 7");
        assert!(text.contains("\"failed\": 7"), "substitution applied");
        let err = Certificate::from_json(&text).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn every_single_byte_mutation_errors_or_parses_back_equal() {
        // The seal must catch any one-byte corruption of a logged
        // certificate; the only mutations that may parse are those that
        // leave the certificate itself unchanged (whitespace, hex case).
        let cert = sample();
        let text = cert.to_json();
        let mut accepted = 0;
        for pos in 0..text.len() {
            for byte in 0..=u8::MAX {
                let mut bytes = text.clone().into_bytes();
                if bytes[pos] == byte {
                    continue;
                }
                bytes[pos] = byte;
                let Ok(mutated) = String::from_utf8(bytes) else {
                    continue;
                };
                if let Ok(back) = Certificate::from_json(&mutated) {
                    assert_eq!(back, cert, "{mutated}");
                    accepted += 1;
                }
            }
        }
        assert!(accepted > 0, "whitespace mutations parse back");
    }

    #[test]
    fn malformed_members_are_named() {
        let text = sample()
            .to_json()
            .replace("\"kind\": \"node\"", "\"kind\": \"ufo\"");
        let err = Certificate::from_json(&text).unwrap_err();
        assert!(err.contains("certificate kind"), "{err}");
    }

    #[test]
    fn placement_digest_tracks_content() {
        let a = Placement::new(4, 2, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let b = Placement::new(4, 2, vec![vec![0, 1], vec![1, 3]]).unwrap();
        assert_ne!(placement_digest(&a), placement_digest(&b));
        assert_eq!(placement_digest(&a), placement_digest(&a.clone()));
    }

    #[test]
    fn fnv_matches_seed_for_on_label_bytes() {
        // Same constants as wcp_sim::seed_for — a drift canary.
        let mut h = Fnv::new();
        h.write_bytes(b"fig07");
        h.write_bytes(&3u64.to_le_bytes());
        assert_eq!(h.finish(), wcp_sim::seed_for("fig07", 3));
    }
}

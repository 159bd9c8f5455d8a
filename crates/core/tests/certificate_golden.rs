//! Golden bytes of the certificate encoding and its seal.
//!
//! A certificate's seal is FNV-1a over its canonical JSON body, and
//! `wcp-verify` re-derives it from logged JSONL, so neither the rendered
//! bytes nor the digest may drift. These three documents were recorded
//! from the encoder and pin both.

use wcp_core::certificate::{Certificate, CertificateKind, LedgerEntry, Rung, RungKind};

fn node_with_ledger() -> Certificate {
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
                kind: RungKind::LocalSearch,
                failed: 5,
                witness: vec![2, 5, 11],
                units: vec![],
                trace: 0xfeed_f00d_0000_0001,
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
            LedgerEntry { root: 0, bound: 0 },
        ],
        claimed_failed: 6,
        exact: true,
    }
}

fn domain_with_units() -> Certificate {
    Certificate {
        kind: CertificateKind::Domain,
        n: 71,
        b: 1_000_000,
        r: 3,
        s: 2,
        k: 2,
        placement: 0x0123_4567_89ab_cdef,
        rungs: vec![
            Rung {
                kind: RungKind::Greedy,
                failed: 1_234,
                witness: vec![0, 1, 2, 3, 4, 5],
                units: vec![0, 1],
                trace: 0xabc,
            },
            Rung {
                kind: RungKind::LocalSearch,
                failed: 2_345,
                witness: vec![6, 7, 8, 60, 61, 62],
                units: vec![2, 20],
                trace: 0xffff_ffff_ffff_ffff,
            },
        ],
        ledger: vec![],
        claimed_failed: 2_345,
        exact: false,
    }
}

fn empty_placement() -> Certificate {
    Certificate {
        kind: CertificateKind::Node,
        n: 4,
        b: 0,
        r: 2,
        s: 1,
        k: 4,
        placement: 0,
        rungs: vec![Rung {
            kind: RungKind::Greedy,
            failed: 0,
            witness: vec![0, 1, 2, 3],
            units: vec![],
            trace: 0,
        }],
        ledger: vec![],
        claimed_failed: 0,
        exact: true,
    }
}

const NODE_WITH_LEDGER: &str = concat!(
    r#"{"version": 1, "kind": "node", "params": {"n": 13, "b": 26, "r": 3, "s": 2, "k": 3}, "#,
    r#""placement": "0xdeadbeef01234567", "claimed_failed": 6, "exact": true, "rungs": ["#,
    r#"{"kind": "greedy", "failed": 4, "witness": [1, 5, 9], "units": [], "trace": "0x0000000000001111"}, "#,
    r#"{"kind": "local-search", "failed": 5, "witness": [2, 5, 11], "units": [], "trace": "0xfeedf00d00000001"}, "#,
    r#"{"kind": "exact", "failed": 6, "witness": [2, 5, 9], "units": [], "trace": "0x0000000000000000"}], "#,
    r#""ledger": [[2, 9], [5, 6], [0, 0]], "digest": "0xd77ed96b91c14725"}"#,
);

const DOMAIN_WITH_UNITS: &str = concat!(
    r#"{"version": 1, "kind": "domain", "params": {"n": 71, "b": 1000000, "r": 3, "s": 2, "k": 2}, "#,
    r#""placement": "0x0123456789abcdef", "claimed_failed": 2345, "exact": false, "rungs": ["#,
    r#"{"kind": "greedy", "failed": 1234, "witness": [0, 1, 2, 3, 4, 5], "units": [0, 1], "trace": "0x0000000000000abc"}, "#,
    r#"{"kind": "local-search", "failed": 2345, "witness": [6, 7, 8, 60, 61, 62], "units": [2, 20], "trace": "0xffffffffffffffff"}], "#,
    r#""ledger": [], "digest": "0x1dbcb4b33cb219cd"}"#,
);

const EMPTY_PLACEMENT: &str = concat!(
    r#"{"version": 1, "kind": "node", "params": {"n": 4, "b": 0, "r": 2, "s": 1, "k": 4}, "#,
    r#""placement": "0x0000000000000000", "claimed_failed": 0, "exact": true, "rungs": ["#,
    r#"{"kind": "greedy", "failed": 0, "witness": [0, 1, 2, 3], "units": [], "trace": "0x0000000000000000"}], "#,
    r#""ledger": [], "digest": "0x0023d6201ec6696d"}"#,
);

#[test]
fn encoding_and_seal_are_pinned() {
    for (cert, json, digest) in [
        (node_with_ledger(), NODE_WITH_LEDGER, 0xd77e_d96b_91c1_4725),
        (
            domain_with_units(),
            DOMAIN_WITH_UNITS,
            0x1dbc_b4b3_3cb2_19cd,
        ),
        (empty_placement(), EMPTY_PLACEMENT, 0x0023_d620_1ec6_696d),
    ] {
        assert_eq!(cert.to_json(), json);
        assert_eq!(cert.digest(), digest);
        assert_eq!(Certificate::from_json(json), Ok(cert));
    }
}

//! `wcp-verify`: re-check availability certificates persisted in
//! experiment JSONL records, without re-running any search.
//!
//! Usage: `wcp-verify <records.jsonl>...`
//!
//! Each line is one [`wcp_sim::record::Record`] — the single envelope
//! every experiment binary (`sweep`, `churn`, `domains`, `service`)
//! emits, so this tool needs exactly one parser. For every record
//! carrying a certificate (wherever the envelope put it — embedded in
//! the report or top-level, [`Record::certificate`] finds it) the tool
//! re-parses it (the self-sealing digest catches bit-level tampering),
//! then — when the record names a rebuildable strategy via its `spec`
//! field — replans the placement and runs the full scalar verification
//! ([`wcp_verify::verify_node`] / [`wcp_verify::verify_domain`], the
//! latter when the record embeds an exact topology). Records whose
//! placement cannot be reconstructed (e.g. mid-churn snapshots) fall
//! back to the placement-free structural checks.
//!
//! Exits non-zero on any rejected certificate, and also when no
//! certificate was found at all — a run that verifies nothing must not
//! look like a pass.

use std::process::ExitCode;
use wcp_core::{
    Certificate, CertificateKind, PlannerContext, StrategyKind, SystemParams, Topology,
};
use wcp_sim::json::Value;
use wcp_sim::record::Record;
use wcp_verify::{verify_domain, verify_node, verify_structure};

#[derive(Debug, Default)]
struct Tally {
    records: usize,
    full: usize,
    proven: usize,
    structural: usize,
    certless: usize,
    failures: usize,
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: wcp-verify <records.jsonl>...");
        return ExitCode::from(2);
    }
    let mut total = Tally::default();
    let mut ok = true;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::from(2);
            }
        };
        let mut tally = Tally::default();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            tally.records += 1;
            if let Err(msg) = check_record(line, &mut tally) {
                tally.failures += 1;
                eprintln!("{file}:{}: {msg}", lineno + 1);
            }
        }
        println!(
            "{file}: {} records, {} verified ({} proven optimal), {} structural, \
             {} without certificates, {} failures",
            tally.records,
            tally.full,
            tally.proven,
            tally.structural,
            tally.certless,
            tally.failures
        );
        ok &= tally.failures == 0;
        total.records += tally.records;
        total.full += tally.full;
        total.proven += tally.proven;
        total.structural += tally.structural;
        total.certless += tally.certless;
        total.failures += tally.failures;
    }
    if total.full + total.structural == 0 {
        eprintln!(
            "wcp-verify: no certificates found in {} records",
            total.records
        );
        return ExitCode::from(1);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Verifies one JSONL record; bumps the matching tally bucket on
/// success, returns the rejection reason otherwise.
fn check_record(line: &str, tally: &mut Tally) -> Result<(), String> {
    let record = Record::parse(line)?;
    let Some(cert_value) = record.certificate() else {
        tally.certless += 1;
        return Ok(());
    };
    let cert = Certificate::from_value(cert_value).map_err(|e| format!("certificate: {e}"))?;
    // A `{"racks": …, "zones": …}` display label reads as `None` —
    // only the exact `maps` form supports domain verification.
    let topology = match &record.topology {
        Some(t) => Topology::from_value(t, cert.n)?,
        None => None,
    };
    let Some(placement) = rebuild_placement(&record, &cert, topology.as_ref())? else {
        verify_structure(&cert).map_err(|e| format!("structural check: {e}"))?;
        tally.structural += 1;
        return Ok(());
    };
    let verdict = match cert.kind {
        CertificateKind::Node => verify_node(&cert, &placement),
        CertificateKind::Domain => match &topology {
            Some(topo) => verify_domain(&cert, &placement, topo),
            None => {
                // A domain certificate without its topology cannot be
                // fully checked; keep the structural guarantees.
                verify_structure(&cert).map_err(|e| format!("structural check: {e}"))?;
                tally.structural += 1;
                return Ok(());
            }
        },
    };
    let report = verdict?;
    tally.full += 1;
    if report.proven_optimal {
        tally.proven += 1;
    }
    Ok(())
}

/// Rebuilds the record's placement from its `spec` field and the
/// report's `params`, `Ok(None)` when the record does not name a
/// rebuildable strategy.
fn rebuild_placement(
    record: &Record,
    cert: &Certificate,
    topology: Option<&Topology>,
) -> Result<Option<wcp_core::Placement>, String> {
    let Some(spec) = record.spec.as_deref() else {
        return Ok(None);
    };
    let params = record
        .report
        .as_ref()
        .and_then(|r| r.get("params"))
        .ok_or("record names a spec but carries no report params")?;
    let field = |key: &str| -> Result<u64, String> {
        params
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("params.{key} missing or not an integer"))
    };
    let narrow = |key: &str| -> Result<u16, String> {
        u16::try_from(field(key)?).map_err(|_| format!("params.{key} exceeds u16"))
    };
    let params = SystemParams::new(
        narrow("n")?,
        field("b")?,
        narrow("r")?,
        narrow("s")?,
        narrow("k")?,
    )
    .map_err(|e| e.to_string())?;
    let kind = StrategyKind::parse_spec(spec).map_err(|e| e.to_string())?;
    let ctx = PlannerContext {
        topology: topology.cloned(),
    };
    let placement = kind
        .plan(&params, &ctx)
        .and_then(|strategy| strategy.build(&params))
        .map_err(|e| format!("rebuilding '{spec}': {e}"))?;
    if wcp_core::placement_digest(&placement) != cert.placement {
        return Err(format!(
            "rebuilt '{spec}' placement does not match the certificate's digest \
             (differing planner context?)"
        ));
    }
    Ok(Some(placement))
}

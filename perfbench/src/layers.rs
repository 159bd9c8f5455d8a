//! Per-layer metrics of a traced run.
//!
//! Every workload's traced run times every layer at that workload's
//! own shape: what its loop does not exercise (lookups on the certify
//! workload, churn on the serve workload, the ladder everywhere) is
//! probed once after the timed phase, outside it. Each metric is a
//! median over spans (or a count) and carries its sample count.

use std::time::Instant;

use wcp_adversary::{
    exact_worst_with, local_search_worst_with, AdversaryConfig, AdversaryScratch, Ladder,
};
use wcp_core::{MovementReport, Placement, PlannerContext, StrategyKind, SystemParams};
use wcp_service::runtime::ServeReport;

use crate::adapter;
use crate::report::Metric;
use crate::stats::{median, percentile};
use crate::trace::Trace;

/// The per-layer metrics, with units, every traced run reports.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("service.lookup_ns", "ns"),
    ("service.snapshot_lookup_ns", "ns"),
    ("service.epoch_read_ns", "ns"),
    ("service.lookup_batch_p99_ns", "ns"),
    ("service.snapshot_build_ms", "ms"),
    ("service.publish_lag_ms", "ms"),
    ("service.enqueue_us", "us"),
    ("service.epochs", "count"),
    ("service.applied", "count"),
    ("service.rejected", "count"),
    ("service.pinned", "count"),
    ("core.dynamic.repair_ms.depart", "ms"),
    ("core.dynamic.repair_ms.arrive", "ms"),
    ("core.dynamic.tail_ms", "ms"),
    ("core.dynamic.depart_visible_ms", "ms"),
    ("core.dynamic.arrive_visible_ms", "ms"),
    ("core.dynamic.replans", "count"),
    ("core.dynamic.moved", "count"),
    ("core.dynamic.replan_moved", "count"),
    ("core.dynamic.movement_ratio", "ratio"),
    ("core.strategy.oracle_replan_ms", "ms"),
    ("core.strategy.plan_build_ms", "ms"),
    ("adversary.attack_adopted_ms", "ms"),
    ("adversary.attack_oracle_ms", "ms"),
    ("adversary.ladder_ms", "ms"),
    ("adversary.certificate_ms", "ms"),
    ("adversary.exact_ratio", "ratio"),
    ("adversary.search.local_search_ms", "ms"),
    ("adversary.exact.exact_ms", "ms"),
    ("verify.verify_ms", "ms"),
    ("verify.rejected", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.op_p50_ms", "ms"),
    ("trace.op_p90_ms", "ms"),
];

/// What the ladder probe saw.
#[derive(Debug, Default, Clone, Copy)]
pub struct LadderTally {
    /// Adversary outcomes observed.
    pub attacks: u64,
    /// Exact ones among them.
    pub exact: u64,
    /// Certificates `wcp_verify::verify_node` rejected.
    pub rejected: u64,
}

/// Times the adversary layers on each placement: a warm-up run, then
/// the certified and the plain `Ladder::run`, `local_search_worst_with`,
/// `exact_worst_with` seeded with that incumbent, and `verify_node` on
/// the certificate. Span ops are the placement indices.
pub fn probe_ladder(trace: &mut Trace, placements: &[Placement], s: u16, k: u16) -> LadderTally {
    let config = AdversaryConfig::default();
    let mut scratch = AdversaryScratch::new();
    let mut tally = LadderTally::default();
    for (op, placement) in placements.iter().enumerate() {
        let op = op as u64;
        let _ = Ladder::new(&config)
            .scratch(&mut scratch)
            .run(placement, s, k);
        let start = Instant::now();
        let certified = Ladder::new(&config)
            .scratch(&mut scratch)
            .certified()
            .run(placement, s, k);
        let mid = Instant::now();
        let plain = Ladder::new(&config)
            .scratch(&mut scratch)
            .run(placement, s, k);
        let end = Instant::now();
        trace.record("ladder_certified", op, None, start, mid);
        trace.record("ladder_plain", op, None, mid, end);
        let start = Instant::now();
        let heuristic = local_search_worst_with(placement, s, k, &config, &mut scratch);
        let mid = Instant::now();
        let exact = exact_worst_with(
            placement,
            s,
            k,
            config.exact_budget,
            heuristic.failed,
            &mut scratch,
        );
        let end = Instant::now();
        trace.record("local_search", op, None, start, mid);
        trace.record("exact", op, None, mid, end);
        tally.attacks += 3;
        tally.exact += u64::from(certified.worst.exact)
            + u64::from(plain.worst.exact)
            + u64::from(exact.is_some());
        let start = Instant::now();
        let verified = certified
            .certificate
            .as_ref()
            .is_some_and(|cert| wcp_verify::verify_node(cert, placement).is_ok());
        trace.record("verify", op, None, start, Instant::now());
        tally.rejected += u64::from(!verified);
    }
    tally
}

/// Times `StrategyKind::plan(..).build(..)` once per kind at `params`;
/// returns how many failed.
pub fn probe_plan_build(trace: &mut Trace, kinds: &[StrategyKind], params: &SystemParams) -> u64 {
    let ctx = PlannerContext::default();
    let mut failed = 0;
    for (op, kind) in kinds.iter().enumerate() {
        let start = Instant::now();
        let built = kind.plan(params, &ctx).and_then(|s| s.build(params));
        trace.record("plan_build", op as u64, None, start, Instant::now());
        failed += u64::from(built.is_err());
    }
    failed
}

/// Times the service's snapshot build on `placement`, `reps` times.
pub fn probe_snapshot_build(trace: &mut Trace, placement: &Placement, reps: usize) {
    for op in 0..reps {
        let start = Instant::now();
        let snapshot = adapter::snapshot(placement, &[]);
        trace.record("snapshot_build", op as u64, None, start, Instant::now());
        std::hint::black_box(snapshot);
    }
}

/// The counters a traced run hands to [`metrics`] next to its spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Requests per lookup batch.
    pub table_len: usize,
    /// The repair thread's tally of the served cluster.
    pub report: ServeReport,
    /// The served engine's movement accounting.
    pub movement: MovementReport,
    /// Adversary outcomes seen, and exact ones among them.
    pub attacks: u64,
    /// Exact outcomes.
    pub exact: u64,
    /// Certificates `verify_node` rejected.
    pub verify_rejected: u64,
    /// The traced run's own headline rate, against the untraced one.
    pub ops_per_s: Option<f64>,
    /// The traced run's own operation times (pins, events or certified
    /// placements), in milliseconds.
    pub op_ms: Vec<f64>,
}

fn ms_metric(name: &'static str, values: &[f64]) -> Metric {
    Metric::new(name, median(values), values.len())
}

/// Assembles [`PER_LAYER`] from the spans and counters of a traced run.
pub fn metrics(trace: &Trace, counts: &Counts) -> Vec<Metric> {
    let per_lookup_ns = |name: &str| -> Vec<f64> {
        let len = counts.table_len.max(1) as f64;
        trace.ms(name).iter().map(|ms| ms * 1e6 / len).collect()
    };
    let lookups = per_lookup_ns("lookup_batch");
    let snapshot_lookups = per_lookup_ns("snapshot_batch");
    let epoch_reads = per_lookup_ns("epoch_batch");
    let builds = trace.ms("snapshot_build");
    let pins = trace.ms("pin");
    let publish_lag = median(&pins).zip(median(&builds)).map(|(p, b)| p - b);
    let enqueue_us: Vec<f64> = trace.ms("enqueue").iter().map(|ms| ms * 1e3).collect();
    let certificate: Vec<f64> = trace
        .named("ladder_certified")
        .filter_map(|c| {
            trace
                .named("ladder_plain")
                .find(|p| p.op == c.op)
                .map(|p| c.ms() - p.ms())
        })
        .collect();
    let report = &counts.report;
    let movement = &counts.movement;
    let ratio = |num: u64, den: u64| (den > 0).then(|| num as f64 / den as f64);
    vec![
        ms_metric("service.lookup_ns", &lookups),
        ms_metric("service.snapshot_lookup_ns", &snapshot_lookups),
        ms_metric("service.epoch_read_ns", &epoch_reads),
        Metric::new(
            "service.lookup_batch_p99_ns",
            percentile(&lookups, 99),
            lookups.len(),
        ),
        ms_metric("service.snapshot_build_ms", &builds),
        Metric::new("service.publish_lag_ms", publish_lag, pins.len()),
        ms_metric("service.enqueue_us", &enqueue_us),
        Metric::count("service.epochs", report.epochs),
        Metric::count("service.applied", report.applied),
        Metric::count("service.rejected", report.rejected),
        Metric::count("service.pinned", report.pinned),
        ms_metric(
            "core.dynamic.repair_ms.depart",
            &trace.self_ms("repair.depart"),
        ),
        ms_metric(
            "core.dynamic.repair_ms.arrive",
            &trace.self_ms("repair.arrive"),
        ),
        ms_metric("core.dynamic.tail_ms", &trace.ms("tail")),
        ms_metric("core.dynamic.depart_visible_ms", &trace.ms("event.depart")),
        ms_metric("core.dynamic.arrive_visible_ms", &trace.ms("event.arrive")),
        Metric::count("core.dynamic.replans", movement.replans),
        Metric::count("core.dynamic.moved", movement.moved),
        Metric::count("core.dynamic.replan_moved", movement.replan_moved),
        Metric::new(
            "core.dynamic.movement_ratio",
            Some(movement.movement_ratio()),
            movement.events as usize,
        ),
        ms_metric("core.strategy.oracle_replan_ms", &trace.ms("oracle_replan")),
        ms_metric("core.strategy.plan_build_ms", &trace.ms("plan_build")),
        ms_metric("adversary.attack_adopted_ms", &trace.ms("attack_adopted")),
        ms_metric("adversary.attack_oracle_ms", &trace.ms("attack_oracle")),
        ms_metric("adversary.ladder_ms", &trace.ms("ladder_certified")),
        ms_metric("adversary.certificate_ms", &certificate),
        Metric::new(
            "adversary.exact_ratio",
            ratio(counts.exact, counts.attacks),
            counts.attacks as usize,
        ),
        ms_metric(
            "adversary.search.local_search_ms",
            &trace.ms("local_search"),
        ),
        ms_metric("adversary.exact.exact_ms", &trace.ms("exact")),
        ms_metric("verify.verify_ms", &trace.ms("verify")),
        Metric::count("verify.rejected", counts.verify_rejected),
        Metric::new("trace.ops_per_s", counts.ops_per_s, 1),
        ms_metric("trace.op_p50_ms", &counts.op_ms),
        Metric::new(
            "trace.op_p90_ms",
            percentile(&counts.op_ms, 90),
            counts.op_ms.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_sim::json::Value;

    /// `BENCHMARK.json` must list exactly the metrics the program reports.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let spec = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&crate::report::END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, ["serve_hot_1m", "churn_certified_100k"]);
        assert!(workloads
            .iter()
            .all(|w| crate::workloads::Workload::parse(w).is_some()));
    }

    #[test]
    fn metrics_cover_the_per_layer_list_in_order() {
        let trace = Trace::new(Instant::now());
        let names: Vec<&str> = metrics(&trace, &Counts::default())
            .iter()
            .map(|m| m.name)
            .collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, listed);
    }
}

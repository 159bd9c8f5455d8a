//! The three workloads. Each runs in its own process as a closed loop
//! with one client; the served ones use two threads, the client and the
//! service's repair thread.
//!
//! Every workload sets up [`SETUP_REPS`] times and reports the median as
//! `setup_s`; only the last set-up goes on to the timed phase. The timed
//! phase lasts `--seconds`, and longer when needed to reach the
//! workload's sample floor (100 pins, events or certified placements,
//! so that p90 has ten samples beyond it), but never past
//! [`MAX_TIMED_S`].

use std::sync::Arc;
use std::time::Instant;

use wcp_adversary::{AdversaryConfig, AdversaryScratch, Ladder, WorstCase};
use wcp_core::dynamic::{ClusterEvent, DynamicConfig, DynamicEngine};
use wcp_core::{Placement, PlannerContext, RandomVariant, StrategyKind, SystemParams};
use wcp_service::runtime::{self, ServeReport};
use wcp_service::{CertificateDigest, ServiceConfig, Snapshot};
use wcp_sim::churn::ChurnSpec;
use wcp_sim::workload::ZipfSpec;

use crate::adapter;
use crate::attacker::{AttackLog, TimedAttacker};
use crate::client::{Class, Client, Tally, STAGES};
use crate::layers::{self, Counts};
use crate::report::{peak_rss_mib, Metric, Outcome};
use crate::stats::{median, percentile, rate_at_median_ns, windowed_rate_ms};
use crate::trace::{Span, Trace};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Hard cap on a timed phase, so a run ends well within three minutes.
const MAX_TIMED_S: f64 = 100.0;

/// Requests per lookup batch. At b = 10⁶ a zipf(0.99) table of 16,384
/// requests touches about 8,400 distinct objects, whose forward-map
/// lines (0.7 MiB) and the table itself stay in one core's 2 MiB L2; a
/// 65,536-request table touches about 27,500 objects (1.9 MiB of lines
/// plus 0.5 MiB of table) and spills into the L3 other tenants share.
const TABLE_LEN: usize = 16_384;

/// Lookup batches of each kind in a traced run's service probe: enough
/// for a p99 with ten batches beyond it.
const PROBE_BATCHES: usize = 1000;

/// Lookup batches between two pins on `serve_hot_1m`: about 2,000 pins
/// in 45 s.
const PIN_EVERY: usize = 16;

/// Churn events per window of the churn rate: a rate per window of ten
/// consecutive events, median over windows, so that a neighbour's burst
/// over a few events does not move it.
const RATE_WINDOW: usize = 10;

/// The benchmark's workloads. `BENCHMARK.json` gates the first two;
/// `certify_k5_families` runs the same way but is not gated, because on
/// the shared VM the benchmark was tuned on its run-to-run spread
/// exceeded the largest bound the gate allows (see README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-request lookups with pins at b = 10⁶.
    ServeHot1m,
    /// Certified churn events at b = 10⁵.
    ChurnCertified100k,
    /// The certified ladder on every strategy family at k = 5.
    CertifyK5Families,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ServeHot1m,
        Workload::ChurnCertified100k,
        Workload::CertifyK5Families,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot1m => "serve_hot_1m",
            Workload::ChurnCertified100k => "churn_certified_100k",
            Workload::CertifyK5Families => "certify_k5_families",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// What to run.
    pub workload: Workload,
    /// Drives the request table, the pin targets, the churn trace and
    /// the certify workload's Random placement.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Time every layer instead of the end-to-end metrics.
    pub trace: bool,
    /// Tiny sizes, for the self-tests.
    pub quick: bool,
}

/// Runs `run` and returns what it measured and checked.
pub fn run(run: &Run) -> Outcome {
    match run.workload {
        Workload::ServeHot1m => serve_hot(run),
        Workload::ChurnCertified100k => churn(run),
        Workload::CertifyK5Families => certify(run),
    }
}

/// A cluster shape: `n` nodes up of `capacity` slots, `b` objects with
/// three replicas, dead at two lost replicas, under a `k`-node
/// adversary.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: u16,
    b: u64,
    k: u16,
    capacity: u16,
}

impl Shape {
    const R: u16 = 3;
    const S: u16 = 2;

    fn params(self) -> SystemParams {
        SystemParams::new(self.n, self.b, Self::R, Self::S, self.k)
            .expect("benchmark shapes are valid")
    }
}

/// The served engines' strategy: load-balanced Random.
const SERVED_KIND: StrategyKind = StrategyKind::Random {
    seed: 0x5eed,
    variant: RandomVariant::LoadBalanced,
};

/// A served engine at `shape`, attacked by the default scratch
/// adversary (timed when `log` is given).
fn engine(shape: Shape, log: Option<AttackLog>) -> DynamicEngine<TimedAttacker> {
    DynamicEngine::with_attacker(
        shape.params(),
        SERVED_KIND,
        shape.capacity,
        DynamicConfig::default(),
        TimedAttacker::new(log),
    )
    .expect("the served shape plans")
}

/// `len` YCSB zipf(0.99) requests over `objects`, from the run seed.
fn request_table(objects: u64, seed: u64, len: usize) -> Vec<u64> {
    ZipfSpec::ycsb(objects, seed).sampler(0).table(len)
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Whether a timed phase that started at `timed`, with `samples` of a
/// floor of `floor` done, goes on.
fn keep_going(run: &Run, timed: Instant, samples: usize, floor: usize) -> bool {
    let t = secs(timed);
    (t < run.seconds || samples < floor) && t < MAX_TIMED_S
}

/// Sets the end-to-end metrics of an untraced run; `rate` is the
/// headline rate and the number of samples (batches, events, passes)
/// behind it. The operations' p90 is printed as a note: on a shared
/// host it moved past any bound the gate allows between runs of the
/// same code, so it is reported per layer (`trace.op_p90_ms`).
fn end_to_end(out: &mut Outcome, setups: &[f64], rate: (Option<f64>, usize), op_ms: &[f64]) {
    out.notes.push(format!(
        "op p90 {:.3} ms over {} operations (not gated; per layer as trace.op_p90_ms)",
        percentile(op_ms, 90).unwrap_or(f64::NAN),
        op_ms.len()
    ));
    out.metrics = vec![
        Metric::new("setup_s", median(setups), setups.len()),
        Metric::new("peak_rss_mib", peak_rss_mib(), 1),
        Metric::new("ops_per_s", rate.0, rate.1),
        Metric::new("op_p50_ms", median(op_ms), op_ms.len()),
    ];
}

/// A served cluster after its service closed.
struct Served {
    setups: Vec<f64>,
    table_len: usize,
    tally: Tally,
    report: ServeReport,
    engine: DynamicEngine<TimedAttacker>,
    last: Arc<Snapshot>,
}

/// Sets a served cluster up [`SETUP_REPS`] times (engine, request table,
/// `serve`, then `warm_up` on the client) and runs `timed` on the last
/// one. With `verify`, the client checks every answer against the
/// initial placement plus its pins.
fn serve_reps<T: Send>(
    run: &Run,
    shape: Shape,
    table_len: usize,
    verify: bool,
    mut warm_up: impl FnMut(&mut Client),
    timed: impl FnOnce(&mut Client) -> T,
) -> (T, Served) {
    let origin = Instant::now();
    let mut setups = Vec::new();
    let mut timed = Some(timed);
    let mut done = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let start = Instant::now();
        let log = run.trace.then(AttackLog::default);
        let engine = engine(shape, log.clone());
        let reference = verify.then(|| adapter::snapshot(engine.placement(), &[]));
        let table = request_table(shape.b, run.seed, table_len);
        let (body, report, engine) = runtime::serve(engine, &ServiceConfig::default(), |h| {
            let mut c = Client::new(h, &table, shape.n, run.seed, reference.as_ref(), log);
            warm_up(&mut c);
            setups.push(secs(start));
            if !last {
                return None;
            }
            let timed = timed.take()?;
            if run.trace {
                c.start_trace(Trace::new(origin));
            }
            let out = timed(&mut c);
            h.quiesce();
            Some((out, c.finish(), h.snapshot()))
        });
        if let Some((out, tally, last)) = body {
            done = Some((out, tally, report, engine, last));
        }
    }
    let (out, tally, report, engine, last) = done.expect("the last set-up runs the timed phase");
    let served = Served {
        setups,
        table_len,
        tally,
        report,
        engine,
        last,
    };
    (out, served)
}

/// Checks a served cluster's end state: the engine is valid, and the
/// final snapshot is the engine placement plus the live pins.
fn check_served(out: &mut Outcome, served: &Served) {
    let (engine, tally, last) = (&served.engine, &served.tally, &served.last);
    out.check("engine.validate", engine.validate().is_ok());
    let rebuilt = adapter::snapshot(engine.placement(), &tally.pins);
    out.check(
        "snapshot.forward_digest",
        rebuilt.forward_digest() == last.forward_digest(),
    );
    out.check("snapshot.pinned", last.pinned() == tally.pins.len());
    out.check("events split into five stages", tally.unpartitioned == 0);
    out.attempted += tally.attempted;
    out.failed += tally.failed + served.report.rejected;
}

/// Reports an untraced served run's end-to-end metrics, or a traced
/// one's per-layer metrics after probing snapshot build, plan + build
/// and the ladder on the final placement.
fn finish_served(
    run: &Run,
    mut out: Outcome,
    served: Served,
    shape: Shape,
    rate: (Option<f64>, usize),
    op_ms: &[f64],
) -> Outcome {
    check_served(&mut out, &served);
    let Served {
        setups,
        table_len,
        tally,
        report,
        engine,
        ..
    } = served;
    let Some(mut trace) = tally.trace else {
        end_to_end(&mut out, &setups, rate, op_ms);
        return out;
    };
    layers::probe_snapshot_build(&mut trace, engine.placement(), 5);
    out.failed += layers::probe_plan_build(&mut trace, &[SERVED_KIND], &shape.params());
    let ladder = layers::probe_ladder(
        &mut trace,
        std::slice::from_ref(engine.placement()),
        Shape::S,
        shape.k,
    );
    out.failed += ladder.rejected;
    let counts = Counts {
        table_len,
        report,
        movement: *engine.movement(),
        attacks: tally.attacks + ladder.attacks,
        exact: tally.exact + ladder.exact,
        verify_rejected: ladder.rejected,
        ops_per_s: rate.0,
        op_ms: op_ms.to_vec(),
    };
    finish_traced(run, out, &trace, &counts)
}

/// Reports a traced run's per-layer metrics, notes how each event class
/// splits into the five stages, and writes the spans out.
fn finish_traced(run: &Run, mut out: Outcome, trace: &Trace, counts: &Counts) -> Outcome {
    out.metrics = layers::metrics(trace, counts);
    for class in ["depart", "arrive"] {
        let name = format!("event.{class}");
        let events: Vec<&Span> = trace.named(&name).collect();
        if events.is_empty() {
            continue;
        }
        let mut stage_ms = [0.0; STAGES.len()];
        for event in &events {
            for stage in trace.spans().filter(|s| s.parent == Some(event.id)) {
                if let Some(i) = STAGES.iter().position(|n| stage.name.starts_with(n)) {
                    stage_ms[i] += stage.ms();
                }
            }
        }
        let count = events.len() as f64;
        let event_ms: f64 = events.iter().map(|e| e.ms()).sum();
        out.notes.push(format!(
            "{class}: {} events, mean stages {} = {:.3} ms, mean event {:.3} ms",
            events.len(),
            STAGES
                .iter()
                .zip(stage_ms)
                .map(|(s, ms)| format!("{s} {:.3}", ms / count))
                .collect::<Vec<_>>()
                .join(" + "),
            stage_ms.iter().sum::<f64>() / count,
            event_ms / count,
        ));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.jsonl",
            run.workload.name(),
            run.seed
        ));
    let written = std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, trace.to_jsonl()));
    match written {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            trace.len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans not written: {e}")),
    }
    out
}

/// `serve_hot_1m`: per-request lookups over a pre-drawn zipf table, with
/// one pin after every fixed number of batches.
fn serve_hot(run: &Run) -> Outcome {
    let (shape, table_len, pin_every, probe_pins) = if run.quick {
        (
            Shape {
                n: 71,
                b: 20_000,
                k: 3,
                capacity: 75,
            },
            4096,
            4,
            3,
        )
    } else {
        (
            Shape {
                n: 71,
                b: 1_000_000,
                k: 3,
                capacity: 75,
            },
            TABLE_LEN,
            PIN_EVERY,
            20,
        )
    };
    let min_pins = 100;
    let warm_up = |c: &mut Client| {
        c.lookup_batch();
        c.pin();
        c.verify_batch();
    };
    let ((lookup_ns, pin_ms), served) = serve_reps(run, shape, table_len, true, warm_up, |c| {
        let mut lookup_ns = Vec::new();
        let mut pin_ms = Vec::new();
        let timed = Instant::now();
        while keep_going(run, timed, pin_ms.len(), min_pins) {
            lookup_ns.push(c.lookup_batch());
            if lookup_ns.len() % pin_every == 0 {
                pin_ms.push(c.pin());
                c.verify_batch();
            }
        }
        if run.trace {
            c.probe_service(PROBE_BATCHES, probe_pins);
            c.probe_churn();
        }
        (lookup_ns, pin_ms)
    });
    let mut out = Outcome::default();
    out.check("pins made visible", pin_ms.len() >= min_pins);
    out.notes.push(format!(
        "{} lookup batches of {table_len} requests, {} pins; ops_per_s is per-request lookups/s, op_* is upsert to visible epoch",
        lookup_ns.len(),
        pin_ms.len()
    ));
    finish_served(
        run,
        out,
        served,
        shape,
        (rate_at_median_ns(&lookup_ns), lookup_ns.len()),
        &pin_ms,
    )
}

/// The seeded churn trace. It is generated over `n + 1` of the engine's
/// slots with a floor of `n - 1` up, so membership stays within one node
/// of `n`: every event is legal, and the attack and replan costs, which
/// grow with the number of up nodes, do not drift with the seed.
fn churn_trace(shape: Shape, seed: u64, events: usize) -> Vec<ClusterEvent> {
    let mut spec = ChurnSpec::new("perfbench-churn", shape.n + 1, shape.n, events);
    spec.min_active = shape.n - 1;
    spec.seed_index = seed;
    spec.generate()
        .events
        .iter()
        .map(ClusterEvent::from)
        .collect()
}

/// `churn_certified_100k`: one churn event at a time, each enqueued and
/// then waited for in `quiesce()` until its epoch is published.
fn churn(run: &Run) -> Outcome {
    let (shape, table_len) = if run.quick {
        (
            Shape {
                n: 71,
                b: 3_000,
                k: 3,
                capacity: 75,
            },
            4096,
        )
    } else {
        (
            Shape {
                n: 71,
                b: 100_000,
                k: 3,
                capacity: 75,
            },
            TABLE_LEN,
        )
    };
    let (warm, min_events, max_events) = (2, 100, 400);
    let events = churn_trace(shape, run.seed, warm + max_events);
    let warm_up = |c: &mut Client| {
        for &event in &events[..warm] {
            c.event(event);
        }
    };
    let ((timed_events, after_churn), served) =
        serve_reps(run, shape, table_len, false, warm_up, |c| {
            let mut timed_events: Vec<(Class, f64)> = Vec::new();
            let timed = Instant::now();
            for &event in &events[warm..] {
                if !keep_going(run, timed, timed_events.len(), min_events) {
                    break;
                }
                timed_events.push((Class::of(event), c.event(event)));
            }
            let after_churn = c.snapshot();
            if run.trace {
                c.probe_service(PROBE_BATCHES, 20);
            }
            (timed_events, after_churn)
        });
    let mut out = Outcome::default();
    out.check("events made visible", timed_events.len() >= min_events);
    out.check(
        "every event certified exactly",
        served.tally.attacks > 0 && served.tally.exact == served.tally.attacks,
    );
    check_final_certificate(&mut out, served.engine.placement(), shape, &after_churn);
    let event_ms: Vec<f64> = timed_events.iter().map(|(_, ms)| *ms).collect();
    let class_ms = |class: Class| -> Vec<f64> {
        timed_events
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (depart, arrive) = (class_ms(Class::Depart), class_ms(Class::Arrive));
    out.notes.push(format!(
        "{} events: {} departures, visible p50 {:.3} ms; {} arrivals, visible p50 {:.3} ms; ops_per_s is events made visible per second, median over windows of {RATE_WINDOW} events",
        event_ms.len(),
        depart.len(),
        median(&depart).unwrap_or(f64::NAN),
        arrive.len(),
        median(&arrive).unwrap_or(f64::NAN),
    ));
    let rate = windowed_rate_ms(&event_ms, RATE_WINDOW);
    finish_served(run, out, served, shape, (rate, event_ms.len()), &event_ms)
}

/// A certified ladder re-run on the final placement must verify and
/// match the certificate digest the service published with it.
fn check_final_certificate(
    out: &mut Outcome,
    placement: &Placement,
    shape: Shape,
    published: &Snapshot,
) {
    let rerun =
        Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(placement, Shape::S, shape.k);
    let Some(cert) = rerun.certificate else {
        out.check("final certificate re-run", false);
        return;
    };
    out.attempted += 1;
    let verified = wcp_verify::verify_node(&cert, placement).is_ok();
    out.failed += u64::from(!verified);
    out.check("final certificate verifies", verified);
    out.check(
        "final certificate matches the published digest",
        published.certificate() == Some(&CertificateDigest::of(&cert)),
    );
}

/// Plans and builds every strategy family at `params`, the Random
/// family seeded from the run seed.
fn families(params: &SystemParams, seed: u64) -> Vec<(String, Result<Placement, String>)> {
    let ctx = PlannerContext::default();
    StrategyKind::all(params)
        .into_iter()
        .map(|kind| match kind {
            StrategyKind::Random { variant, .. } => StrategyKind::Random {
                seed: wcp_sim::seed_for("perfbench-certify", seed),
                variant,
            },
            other => other,
        })
        .map(|kind| {
            let built = kind
                .plan(params, &ctx)
                .and_then(|s| s.build(params))
                .map_err(|e| e.to_string());
            (kind.label(), built)
        })
        .collect()
}

/// `certify_k5_families`: the certified ladder on every strategy family,
/// pass after pass.
fn certify(run: &Run) -> Outcome {
    let (shape, table_len, probe_pins) = if run.quick {
        (
            Shape {
                n: 13,
                b: 52,
                k: 3,
                capacity: 16,
            },
            1024,
            2,
        )
    } else {
        (
            Shape {
                n: 71,
                b: 1_200,
                k: 5,
                capacity: 75,
            },
            TABLE_LEN,
            5,
        )
    };
    let min_evals = 100;
    let params = shape.params();
    let config = AdversaryConfig::default();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let built = families(&params, run.seed);
        let mut scratch = AdversaryScratch::new();
        if let Some((_, Ok(first))) = built.first() {
            let _ = Ladder::new(&config).scratch(&mut scratch).certified().run(
                first,
                Shape::S,
                shape.k,
            );
        }
        setups.push(secs(start));
        prepared = Some((built, scratch));
    }
    let (built, mut scratch) = prepared.expect("set up at least once");
    let mut labels = Vec::new();
    let mut placements = Vec::new();
    for (label, placement) in built {
        out.attempted += 1;
        match placement {
            Ok(p) => {
                labels.push(label);
                placements.push(p);
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("{label} did not plan: {e}"));
            }
        }
    }
    out.check(
        "every family planned",
        out.failed == 0 && !placements.is_empty(),
    );

    let mut trace = run.trace.then(|| Trace::new(Instant::now()));
    let mut eval_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let mut first: Vec<(WorstCase, CertificateDigest)> = Vec::new();
    let mut certificates = Vec::new();
    let mut exact = 0u64;
    let timed = Instant::now();
    while keep_going(run, timed, eval_ms.len(), min_evals) {
        let pass = pass_ms.len() as u64;
        let pass_start = Instant::now();
        let mut stages = Vec::new();
        for (i, placement) in placements.iter().enumerate() {
            let start = Instant::now();
            let outcome = Ladder::new(&config).scratch(&mut scratch).certified().run(
                placement,
                Shape::S,
                shape.k,
            );
            let end = Instant::now();
            eval_ms.push((end - start).as_secs_f64() * 1e3);
            stages.push((start, end));
            out.attempted += 1;
            let Some(cert) = outcome.certificate else {
                out.failed += 1;
                continue;
            };
            exact += u64::from(outcome.worst.exact);
            out.failed += u64::from(!outcome.worst.exact);
            let answer = (outcome.worst, CertificateDigest::of(&cert));
            match first.get(i) {
                Some(seen) => out.failed += u64::from(*seen != answer),
                None => {
                    first.push(answer);
                    certificates.push(cert);
                }
            }
        }
        pass_ms.push(
            stages
                .iter()
                .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
                .sum(),
        );
        if let Some(trace) = trace.as_mut() {
            let root = trace.record("pass", pass, None, pass_start, Instant::now());
            for (start, end) in stages {
                trace.record("certify", pass, Some(root), start, end);
            }
        }
    }
    out.check("placements certified", eval_ms.len() >= min_evals);
    let mut rejected = 0;
    for (cert, placement) in certificates.iter().zip(&placements) {
        out.attempted += 1;
        rejected += u64::from(wcp_verify::verify_node(cert, placement).is_err());
    }
    out.failed += rejected;
    out.check(
        "every certificate verifies",
        rejected == 0 && certificates.len() == placements.len(),
    );
    let rate = median(&pass_ms)
        .filter(|m| *m > 0.0)
        .map(|m| placements.len() as f64 * 1e3 / m);
    out.notes.push(format!(
        "{} passes over {} families; ops_per_s is certified placements/s at the median pass, op_* is one certified placement",
        pass_ms.len(),
        placements.len()
    ));
    let Some(mut trace) = trace else {
        end_to_end(&mut out, &setups, (rate, pass_ms.len()), &eval_ms);
        return out;
    };

    // The per-layer probes: the ladder, plan + build and snapshot build
    // on every family, then a cluster served at this shape for the
    // service and churn layers.
    let ladder = layers::probe_ladder(&mut trace, &placements, Shape::S, shape.k);
    out.failed += ladder.rejected;
    for (op, label) in labels.iter().enumerate() {
        let ms = |name: &str| {
            trace
                .named(name)
                .find(|s| s.op == op as u64)
                .map_or(f64::NAN, |s| s.ms())
        };
        out.notes.push(format!(
            "adversary.ladder_ms {label}: certified {:.3} ms, plain {:.3} ms",
            ms("ladder_certified"),
            ms("ladder_plain")
        ));
    }
    out.failed += layers::probe_plan_build(&mut trace, &StrategyKind::all(&params), &params);
    for placement in &placements {
        layers::probe_snapshot_build(&mut trace, placement, 1);
    }
    let served_run = Run {
        trace: true,
        ..run.clone()
    };
    let ((), served) = serve_reps(
        &served_run,
        shape,
        table_len,
        false,
        |_| {},
        |c| {
            c.start_trace(trace);
            c.probe_service(PROBE_BATCHES, probe_pins);
            c.probe_churn();
        },
    );
    check_served(&mut out, &served);
    let tally = served.tally;
    let counts = Counts {
        table_len,
        report: served.report,
        movement: *served.engine.movement(),
        attacks: ladder.attacks + eval_ms.len() as u64 + tally.attacks,
        exact: ladder.exact + exact + tally.exact,
        verify_rejected: ladder.rejected + rejected,
        ops_per_s: rate,
        op_ms: eval_ms,
    };
    let trace = tally.trace.expect("the probe client was traced");
    finish_traced(run, out, &trace, &counts)
}

//! The closed-loop client of a served cluster: per-request lookups, pins
//! and churn events, each timed from the caller's side of the public
//! API, with every answer it can check checked.
//!
//! The client never spins beside the repair thread: after a pin or a
//! churn event it blocks in `quiesce()` until the epoch is published,
//! so a write's latency is never measured against a busy reader.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use wcp_core::dynamic::ClusterEvent;
use wcp_service::{NodeId, PlacementProvider, ServiceEvent, ServiceHandle, Snapshot};

use crate::attacker::{self, AttackLog};
use crate::trace::Trace;

/// A small seeded generator (SplitMix64) for pin targets and probe
/// choices; the request tables and churn traces come from `wcp_sim`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `label` of run seed `seed`.
    pub fn new(label: &str, seed: u64) -> Self {
        Self(wcp_sim::seed_for(label, seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Whether a churn event takes a node out (Leave, Fail) or brings one
/// in (Join, Recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Leave or Fail.
    Depart,
    /// Join or Recover.
    Arrive,
}

impl Class {
    /// The class of `event`.
    pub fn of(event: ClusterEvent) -> Self {
        if event.is_departure() {
            Class::Depart
        } else {
            Class::Arrive
        }
    }
}

/// The stage names of a churn event, in order. Together they partition
/// the interval from `enqueue` to the visible epoch.
pub const STAGES: [&str; 5] = [
    "repair",
    "attack_adopted",
    "oracle_replan",
    "attack_oracle",
    "tail",
];

/// Caller-side timestamps of one churn event plus the two attacks
/// `DynamicEngine::apply` made for it.
#[derive(Debug, Clone, Copy)]
pub struct EventTimes {
    /// Before `enqueue`.
    pub start: Instant,
    /// After `enqueue` returned.
    pub enqueued: Instant,
    /// The attack on the repaired placement.
    pub adopted: (Instant, Instant),
    /// The attack on the oracle replan.
    pub oracle: (Instant, Instant),
    /// After `quiesce` returned with the epoch advanced.
    pub visible: Instant,
}

impl EventTimes {
    /// The five stages of [`STAGES`]: repair runs from `enqueue` to the
    /// first attack (queue hand-off plus `repair_departure` or
    /// `rebalance_arrival`), the oracle replan between the attacks, and
    /// the tail from the second attack to the visible epoch (movement
    /// accounting, adoption, snapshot build and publish).
    pub fn stages(&self) -> [(Instant, Instant); 5] {
        [
            (self.start, self.adopted.0),
            self.adopted,
            (self.adopted.1, self.oracle.0),
            self.oracle,
            (self.oracle.1, self.visible),
        ]
    }

    /// Whether the timestamps run forward, so the stages partition the
    /// event without overlap.
    pub fn ordered(&self) -> bool {
        let t = [
            self.start,
            self.enqueued,
            self.adopted.0,
            self.adopted.1,
            self.oracle.0,
            self.oracle.1,
            self.visible,
        ];
        t.windows(2).all(|w| w[0] <= w[1])
    }
}

/// What a client did, handed back when its service closes.
#[derive(Debug)]
pub struct Tally {
    /// Operations attempted (lookups, pins, events).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Adopted-placement certificates the client saw after its events.
    pub attacks: u64,
    /// Exact ones among them.
    pub exact: u64,
    /// Traced events whose attacks did not split them into five stages.
    pub unpartitioned: u64,
    /// The live pins, sorted by object.
    pub pins: Vec<(u64, Vec<NodeId>)>,
    /// The spans, when traced.
    pub trace: Option<Trace>,
}

/// A closed-loop client of one served cluster.
pub struct Client<'a> {
    handle: &'a ServiceHandle,
    table: &'a [u64],
    nodes: u16,
    rng: SplitMix,
    pins: BTreeMap<u64, Vec<NodeId>>,
    expected: Option<&'a Snapshot>,
    log: Option<AttackLog>,
    trace: Option<Trace>,
    attempted: u64,
    failed: u64,
    attacks: u64,
    exact: u64,
    unpartitioned: u64,
    next_op: u64,
}

impl<'a> Client<'a> {
    /// A client reading `table` through `handle`, pinning objects to
    /// nodes in `0..nodes`. With `expected` (the engine placement, when
    /// nothing but pins will change it), [`Client::verify_batch`] checks
    /// every answer; `log` is the served engine's attack log, if timed.
    pub fn new(
        handle: &'a ServiceHandle,
        table: &'a [u64],
        nodes: u16,
        seed: u64,
        expected: Option<&'a Snapshot>,
        log: Option<AttackLog>,
    ) -> Self {
        Self {
            handle,
            table,
            nodes,
            rng: SplitMix::new("perfbench-client", seed),
            pins: BTreeMap::new(),
            expected,
            log,
            trace: None,
            attempted: 0,
            failed: 0,
            attacks: 0,
            exact: 0,
            unpartitioned: 0,
            next_op: 0,
        }
    }

    /// The snapshot a fresh lookup reads now.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.handle.snapshot()
    }

    /// Records spans into `trace` from now on (set-up is not traced).
    pub fn start_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        self.trace
            .as_mut()
            .map(|t| t.record(name, op, parent, start, end))
    }

    /// One `PlacementProvider::lookup` per request over the whole table;
    /// returns the time per lookup in nanoseconds.
    pub fn lookup_batch(&mut self) -> f64 {
        let start = Instant::now();
        let mut sum = 0u64;
        let mut missing = 0u64;
        for &object in self.table {
            match self.handle.lookup(object) {
                Some(node) => sum = sum.wrapping_add(u64::from(node)),
                None => missing += 1,
            }
        }
        let end = Instant::now();
        black_box(sum);
        self.attempted += self.table.len() as u64;
        self.failed += missing;
        let op = self.op();
        self.span("lookup_batch", op, None, start, end);
        per_item_ns(start, end, self.table.len())
    }

    /// The batch path: one `snapshot()` per table, then `Snapshot::lookup`.
    fn snapshot_batch(&mut self) {
        let start = Instant::now();
        let snapshot = self.handle.snapshot();
        let mut sum = 0u64;
        let mut missing = 0u64;
        for &object in self.table {
            match snapshot.lookup(object) {
                Some(node) => sum = sum.wrapping_add(u64::from(node)),
                None => missing += 1,
            }
        }
        let end = Instant::now();
        black_box(sum);
        self.attempted += self.table.len() as u64;
        self.failed += missing;
        let op = self.op();
        self.span("snapshot_batch", op, None, start, end);
    }

    /// As many `snapshot_epoch()` reads as the table has requests.
    fn epoch_batch(&mut self) {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..self.table.len() {
            sum = sum.wrapping_add(self.handle.snapshot_epoch());
        }
        let end = Instant::now();
        black_box(sum);
        let op = self.op();
        self.span("epoch_batch", op, None, start, end);
    }

    /// Checks every answer for the table against the engine placement
    /// with the live pins on top (untimed). A no-op without an expected
    /// placement.
    pub fn verify_batch(&mut self) {
        let Some(expected) = self.expected else {
            return;
        };
        let mut wrong = 0u64;
        for &object in self.table {
            let want = match self.pins.get(&object) {
                Some(nodes) => nodes.first().copied(),
                None => expected.lookup(object),
            };
            if want.is_none() || self.handle.lookup(object) != want {
                wrong += 1;
            }
        }
        self.attempted += self.table.len() as u64;
        self.failed += wrong;
    }

    /// Pins an object drawn from the table to three seeded nodes and
    /// waits until `snapshot_epoch()` shows it; returns the milliseconds
    /// from the `upsert` call to the visible epoch.
    pub fn pin(&mut self) -> f64 {
        let object = self.table[self.rng.below(self.table.len() as u64) as usize];
        let mut nodes: Vec<NodeId> = Vec::with_capacity(3);
        while nodes.len() < 3 {
            let v = self.rng.below(u64::from(self.nodes)) as NodeId;
            if !nodes.contains(&v) {
                nodes.push(v);
            }
        }
        let before = self.handle.snapshot_epoch();
        let start = Instant::now();
        let accepted = self.handle.upsert(object, &nodes);
        let enqueued = Instant::now();
        self.handle.quiesce();
        let epoch = self.handle.snapshot_epoch();
        let visible = Instant::now();
        self.attempted += 1;
        if accepted && epoch > before && self.handle.lookup(object) == nodes.first().copied() {
            self.pins.insert(object, nodes);
        } else {
            self.failed += 1;
        }
        let op = self.op();
        let root = self.span("pin", op, None, start, visible);
        self.span("enqueue", op, root, start, enqueued);
        (visible - start).as_secs_f64() * 1e3
    }

    /// Enqueues one churn event and blocks in `quiesce()` until its epoch
    /// is published; returns the milliseconds from `enqueue` to the
    /// visible epoch.
    pub fn event(&mut self, event: ClusterEvent) -> f64 {
        let before = self.handle.snapshot_epoch();
        let start = Instant::now();
        let accepted = self.handle.enqueue(ServiceEvent::Churn(event));
        let enqueued = Instant::now();
        self.handle.quiesce();
        let epoch = self.handle.snapshot_epoch();
        let visible = Instant::now();
        self.attempted += 1;
        if !(accepted && epoch > before) {
            self.failed += 1;
        }
        match self.handle.snapshot().certificate() {
            Some(digest) => {
                self.attacks += 1;
                self.exact += u64::from(digest.exact);
            }
            None => self.failed += 1,
        }
        let op = self.op();
        if let Some(log) = &self.log {
            let attacks = attacker::drain(log);
            let times = match attacks[..] {
                [adopted, oracle] => Some(EventTimes {
                    start,
                    enqueued,
                    adopted,
                    oracle,
                    visible,
                }),
                _ => None,
            };
            match times.filter(EventTimes::ordered) {
                Some(times) => self.record_event(op, Class::of(event), &times),
                None => self.unpartitioned += 1,
            }
        }
        (visible - start).as_secs_f64() * 1e3
    }

    fn record_event(&mut self, op: u64, class: Class, times: &EventTimes) {
        let (event, repair) = match class {
            Class::Depart => ("event.depart", "repair.depart"),
            Class::Arrive => ("event.arrive", "repair.arrive"),
        };
        let root = self.span(event, op, None, times.start, times.visible);
        for (name, (from, to)) in STAGES.iter().zip(times.stages()) {
            let name = if *name == "repair" { repair } else { name };
            let stage = self.span(name, op, root, from, to);
            if name == repair {
                self.span("enqueue", op, stage, times.start, times.enqueued);
            }
        }
    }

    /// The service-layer probe of a traced run: per-request, batch-path
    /// and epoch-read batches, then pins.
    pub fn probe_service(&mut self, batches: usize, pins: usize) {
        for _ in 0..batches {
            self.lookup_batch();
            self.snapshot_batch();
            self.epoch_batch();
        }
        for _ in 0..pins {
            self.pin();
            self.verify_batch();
        }
    }

    /// The write-path probe of a traced run on a workload without churn
    /// of its own: one node fails and recovers. Answers are not checked
    /// against the initial placement afterwards.
    pub fn probe_churn(&mut self) {
        let node = self.rng.below(u64::from(self.nodes)) as u16;
        self.event(ClusterEvent::Fail { node });
        self.event(ClusterEvent::Recover { node });
        self.expected = None;
    }

    /// Ends the client and hands back what it counted.
    pub fn finish(self) -> Tally {
        Tally {
            attempted: self.attempted,
            failed: self.failed,
            attacks: self.attacks,
            exact: self.exact,
            unpartitioned: self.unpartitioned,
            pins: self.pins.into_iter().collect(),
            trace: self.trace,
        }
    }
}

/// Nanoseconds per item of a batch of `items` timed from `start` to `end`.
fn per_item_ns(start: Instant, end: Instant, items: usize) -> f64 {
    (end - start).as_secs_f64() * 1e9 / items.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn times(offsets_ms: [u64; 7]) -> EventTimes {
        let t0 = Instant::now();
        let at = |i: usize| t0 + Duration::from_millis(offsets_ms[i]);
        EventTimes {
            start: at(0),
            enqueued: at(1),
            adopted: (at(2), at(3)),
            oracle: (at(4), at(5)),
            visible: at(6),
        }
    }

    #[test]
    fn five_stages_partition_the_event() {
        let t = times([0, 1, 10, 85, 255, 330, 339]);
        assert!(t.ordered());
        let stages = t.stages();
        assert_eq!(stages[0].0, t.start);
        assert_eq!(stages[4].1, t.visible);
        for pair in stages.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "stages must be contiguous");
        }
        let total: Duration = stages.iter().map(|(a, b)| *b - *a).sum();
        assert_eq!(total, t.visible - t.start);
        let ms: Vec<u128> = stages.iter().map(|(a, b)| (*b - *a).as_millis()).collect();
        assert_eq!(ms, vec![10, 75, 170, 75, 9]);
    }

    #[test]
    fn out_of_order_attacks_do_not_partition() {
        assert!(!times([0, 1, 10, 85, 80, 330, 339]).ordered());
        assert!(!times([0, 1, 10, 85, 255, 330, 300]).ordered());
    }

    #[test]
    fn departures_and_arrivals_split() {
        assert_eq!(Class::of(ClusterEvent::Fail { node: 1 }), Class::Depart);
        assert_eq!(Class::of(ClusterEvent::Leave { node: 1 }), Class::Depart);
        assert_eq!(Class::of(ClusterEvent::Recover { node: 1 }), Class::Arrive);
        assert_eq!(Class::of(ClusterEvent::Join { node: 1 }), Class::Arrive);
    }

    #[test]
    fn split_mix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new("x", 3);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut again = SplitMix::new("x", 3);
        assert_eq!(a, (0..4).map(|_| again.next_u64()).collect::<Vec<_>>());
        let mut other = SplitMix::new("x", 4);
        assert_ne!(a[0], other.next_u64());
        assert!((0..100).all(|_| again.below(7) < 7));
    }
}

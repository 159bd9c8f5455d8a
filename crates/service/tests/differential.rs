//! Differential determinism: the served placement is a pure function
//! of the event sequence, independent of how the repair thread batched
//! it, how the queue raced, and how many adversary threads
//! (`WCP_THREADS`) attacked each epoch's placement.
//!
//! The determinism CI job replays this suite under `WCP_THREADS=1/2/8`.
//! What *is* byte-diffed across those runs: the final snapshot's
//! [`Snapshot::forward_digest`] (every served row, pins included) and
//! the final engine placement. What is explicitly *not*: epoch numbers
//! (batching splits vary with scheduling) and reader interleavings —
//! lookup answers are epoch-deterministic, not wall-clock-deterministic.
//! Golden values pin both digest formats across versions, so a change
//! of representation cannot change what is hashed. The repair thread's
//! incremental pin overlay must equal the one
//! [`Snapshot::from_placement`] builds from scratch, epoch by epoch.
//!
//! [`Snapshot::forward_digest`]: wcp_service::Snapshot::forward_digest
//! [`Snapshot::from_placement`]: wcp_service::Snapshot::from_placement

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wcp_core::{
    placement_digest, ClusterEvent, DynamicConfig, DynamicEngine, Placement, RandomVariant,
    StrategyKind, SystemParams,
};
use wcp_service::runtime::{serve, serve_trace};
use wcp_service::{PlacementProvider, ServiceConfig, ServiceEvent, Snapshot};

/// The engine placement's own snapshot: epoch 0, no pins.
fn snapshot_of(placement: &Placement) -> Snapshot {
    Snapshot::from_placement(0, placement, &[], None)
}

fn engine(seed: u64) -> DynamicEngine {
    let params = SystemParams::new(14, 80, 3, 2, 2).unwrap();
    let kind = StrategyKind::Random {
        seed,
        variant: RandomVariant::LoadBalanced,
    };
    DynamicEngine::new(params, kind, 18, DynamicConfig::default()).unwrap()
}

fn trace() -> Vec<ClusterEvent> {
    vec![
        ClusterEvent::Fail { node: 1 },
        ClusterEvent::Join { node: 14 },
        ClusterEvent::Fail { node: 7 },
        ClusterEvent::Recover { node: 1 },
        ClusterEvent::Leave { node: 3 },
        ClusterEvent::Join { node: 15 },
        ClusterEvent::Fail { node: 10 },
        ClusterEvent::Recover { node: 7 },
        ClusterEvent::Join { node: 16 },
        ClusterEvent::Recover { node: 10 },
        ClusterEvent::Fail { node: 14 },
        ClusterEvent::Join { node: 17 },
    ]
}

#[test]
fn final_snapshot_is_batching_invariant() {
    // Three very different drain shapes: event-at-a-time, small
    // batches under a tight queue (forcing writer back-pressure), and
    // one big gulp. The published epoch counts differ; the final
    // forward map must not.
    let configs = [
        ServiceConfig {
            queue_capacity: 1,
            max_batch: 1,
        },
        ServiceConfig {
            queue_capacity: 3,
            max_batch: 4,
        },
        ServiceConfig {
            queue_capacity: 64,
            max_batch: 64,
        },
    ];
    let mut digests = Vec::new();
    let mut epochs = Vec::new();
    for config in &configs {
        let (digest, report, served) = serve_trace(engine(5), config, trace(), |handle| {
            handle.snapshot().forward_digest()
        });
        assert_eq!(report.applied, 12, "every event is legal in this trace");
        assert_eq!(snapshot_of(served.placement()).forward_digest(), digest);
        digests.push(digest);
        epochs.push(report.epochs);
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[1], digests[2]);
    // The non-goal, pinned down so nobody "fixes" it: batching shapes
    // epoch counts, and that is fine.
    assert!(epochs[0] >= epochs[2], "finer batches publish more epochs");
}

#[test]
fn served_replay_matches_direct_engine_replay() {
    // The service must add zero policy on top of DynamicEngine: the
    // same trace applied directly yields the same placement, and its
    // snapshot the same digest. Under WCP_THREADS=1/2/8 the adversary
    // inside the engine is bit-identical (the repo-wide parallelism
    // contract), so this digest is the value CI byte-diffs.
    let (digest, _, _) = serve_trace(engine(9), &ServiceConfig::default(), trace(), |handle| {
        handle.snapshot().forward_digest()
    });
    let mut direct = engine(9);
    direct.run_trace(trace()).unwrap();
    assert_eq!(snapshot_of(direct.placement()).forward_digest(), digest);
}

#[test]
fn digest_is_sensitive_to_the_trace() {
    // Guard against a vacuous digest: drop one event and the final
    // forward map must change (this trace moves replicas every event).
    let (full, _, _) = serve_trace(engine(5), &ServiceConfig::default(), trace(), |h| {
        h.snapshot().forward_digest()
    });
    let mut shorter = trace();
    shorter.pop();
    let (cut, _, _) = serve_trace(engine(5), &ServiceConfig::default(), shorter, |h| {
        h.snapshot().forward_digest()
    });
    assert_ne!(full, cut);
}

#[test]
fn digests_match_their_golden_values() {
    let (digest, _, served) = serve_trace(engine(9), &ServiceConfig::default(), trace(), |h| {
        h.snapshot().forward_digest()
    });
    assert_eq!(digest, 0xe3bc_b000_080e_3079);
    assert_eq!(placement_digest(served.placement()), 0x2a64_2886_3575_2308);

    let start = engine(5);
    let p = start.placement();
    assert_eq!(placement_digest(p), 0xe841_54f5_c16f_4a0d);
    let plain = Snapshot::from_placement(0, p, &[], None);
    assert_eq!(plain.forward_digest(), 0xa34f_1e70_133f_4e3c);
    // The two-node pin is a row whose length is not r.
    let pins = [(4, vec![9, 8, 7]), (11, vec![0, 1])];
    let pinned = Snapshot::from_placement(0, p, &pins, None);
    assert_eq!(pinned.pinned(), 2);
    assert_eq!(pinned.forward_digest(), 0xccec_504c_d3d7_5a85);
}

/// Asserts that `served` answers exactly as `expected` does.
fn assert_same_answers(served: &Snapshot, expected: &Snapshot, context: &str) {
    assert_eq!(served.pinned(), expected.pinned(), "{context}: pinned");
    assert_eq!(
        served.forward_digest(),
        expected.forward_digest(),
        "{context}: forward digest"
    );
    for o in 0..=served.num_objects() {
        assert_eq!(
            served.lookup(o),
            expected.lookup(o),
            "{context}: lookup({o})"
        );
        assert_eq!(
            served.replicas(o),
            expected.replicas(o),
            "{context}: replicas({o})"
        );
    }
}

#[test]
fn incremental_pins_match_a_snapshot_built_from_scratch() {
    // Objects at and around the 64-object word boundaries, drawn often,
    // so pins and releases share, fill and empty blocks.
    const EDGES: [u64; 10] = [0, 1, 63, 64, 65, 127, 128, 191, 192, 299];
    let b = 300u64;
    let params = SystemParams::new(12, b, 3, 2, 2).unwrap();
    let kind = StrategyKind::Random {
        seed: 3,
        variant: RandomVariant::LoadBalanced,
    };
    let config = ServiceConfig {
        queue_capacity: 4,
        max_batch: 1,
    };
    for seed in 0..6u64 {
        let engine =
            DynamicEngine::new(params, kind.clone(), 14, DynamicConfig::default()).unwrap();
        let placement = engine.placement().clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let (released, report, _) = serve(engine, &config, |handle| {
            let mut live: BTreeMap<u64, Vec<u16>> = BTreeMap::new();
            // Every epoch's snapshot next to the one built from scratch.
            let mut history: Vec<(Arc<Snapshot>, Snapshot)> = Vec::new();
            for step in 0..80 {
                let object = if rng.gen_bool(0.5) {
                    EDGES[rng.gen_range(0..EDGES.len())]
                } else {
                    rng.gen_range(0..b)
                };
                if rng.gen_bool(0.6) {
                    let mut nodes = Vec::new();
                    for _ in 0..rng.gen_range(1..=4usize) {
                        let node = rng.gen_range(0..14u16);
                        if !nodes.contains(&node) {
                            nodes.push(node);
                        }
                    }
                    assert!(handle.upsert(object, &nodes));
                    live.insert(object, nodes);
                } else {
                    // Often a release of an object that is not pinned.
                    assert!(handle.enqueue(ServiceEvent::Release { object }));
                    live.remove(&object);
                }
                handle.quiesce();
                let served = handle.snapshot();
                let pins: Vec<(u64, Vec<u16>)> = live.clone().into_iter().collect();
                let expected = Snapshot::from_placement(served.epoch(), &placement, &pins, None);
                let context = format!("seed {seed}, step {step}");
                assert_same_answers(&served, &expected, &context);
                assert_eq!(*served, expected, "{context}: equal pins, equal snapshots");
                history.push((served, expected));
            }
            // Releasing every pin leaves the overlay of no pins.
            for &object in live.keys() {
                assert!(handle.enqueue(ServiceEvent::Release { object }));
            }
            handle.quiesce();
            let served = handle.snapshot();
            let expected = Snapshot::from_placement(served.epoch(), &placement, &[], None);
            assert_eq!(served.pinned(), 0, "seed {seed}");
            assert_eq!(*served, expected, "seed {seed}: no pins left");
            // Later pins copied the blocks they touched: every earlier
            // snapshot still answers as it did.
            for (served, expected) in &history {
                let context = format!("seed {seed}, epoch {}", served.epoch());
                assert_same_answers(served, expected, &context);
            }
            live.len() as u64
        });
        assert_eq!(
            report.epochs,
            80 + released,
            "max_batch 1 publishes every write"
        );
    }
}

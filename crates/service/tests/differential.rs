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
//! of representation cannot change what is hashed.
//!
//! [`Snapshot::forward_digest`]: wcp_service::Snapshot::forward_digest

use wcp_core::{
    placement_digest, ClusterEvent, DynamicConfig, DynamicEngine, Placement, RandomVariant,
    StrategyKind, SystemParams,
};
use wcp_service::runtime::serve_trace;
use wcp_service::{ServiceConfig, Snapshot};

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

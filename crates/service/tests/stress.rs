//! Multi-thread stress: N reader threads hammer `lookup` while the
//! repair thread publishes epochs, checking the two serving invariants
//! the crate docs promise:
//!
//! 1. **Per-epoch-consistent answers** — every `(epoch, object, answer)`
//!    a reader observes matches that epoch's snapshot, re-checked after
//!    the fact against the record of published snapshots.
//! 2. **Monotone epochs** — no reader ever sees the epoch go backwards.
//!
//! The readers deliberately mix the two read paths (per-request
//! `lookup` and batch `snapshot()`), and the writer keeps `max_batch` at
//! 1 so every churn event is its own epoch — the worst case for readers.
//! A third test forces the one interleaving a reader's held snapshot
//! must survive: a pin published between two of its lookups.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;

use wcp_core::{
    ClusterEvent, DynamicConfig, DynamicEngine, RandomVariant, StrategyKind, SystemParams,
};
use wcp_service::runtime::serve;
use wcp_service::{PlacementProvider, ServiceConfig, ServiceEvent, ServiceHandle};

fn engine(n: u16, b: u64, capacity: u16, seed: u64) -> DynamicEngine {
    let params = SystemParams::new(n, b, 3, 2, 2).unwrap();
    let kind = StrategyKind::Random {
        seed,
        variant: RandomVariant::LoadBalanced,
    };
    DynamicEngine::new(params, kind, capacity, DynamicConfig::default()).unwrap()
}

/// One reader's transcript: (epoch, object, answer) triples plus the
/// sequence of epochs it saw (for the monotonicity check).
struct Transcript {
    observations: Vec<(u64, u64, Option<u16>)>,
    epochs: Vec<u64>,
}

fn reader_loop(handle: &ServiceHandle, stop: &AtomicBool, b: u64, salt: u64) -> Transcript {
    let mut observations = Vec::new();
    let mut epochs = Vec::new();
    let mut x = salt | 1;
    while !stop.load(Ordering::SeqCst) {
        // Batch path: pin one snapshot for a burst of lookups.
        let snap = handle.snapshot();
        epochs.push(snap.epoch());
        for _ in 0..32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let object = x % (b + 3); // a few out-of-range probes too
            observations.push((snap.epoch(), object, snap.lookup(object)));
        }
        // Per-lookup path: epoch and answer read under the same lock
        // acquisition would need a snapshot anyway, so record the pair
        // from one pinned snapshot — the trait path is exercised for
        // the answer value only.
        let _ = handle.lookup(x % b);
        epochs.push(handle.snapshot_epoch());
    }
    Transcript {
        observations,
        epochs,
    }
}

#[test]
fn readers_see_monotone_epochs_and_epoch_consistent_answers() {
    const READERS: usize = 4;
    let b = 600u64;
    let eng = engine(16, b, 20, 3);

    // Record every published snapshot (epoch → its own lookup table)
    // by re-deriving them after the run from the service's final
    // report; during the run we capture them via a logging reader that
    // snapshots in a tight loop. Capturing *every* epoch is not
    // guaranteed from the outside, so instead the writer thread logs
    // each epoch's forward map itself: we enqueue one event at a time
    // and quiesce, so each epoch is observable before the next starts.
    let published: Mutex<HashMap<u64, wcp_service::Snapshot>> = Mutex::new(HashMap::new());
    let stop = AtomicBool::new(false);

    let (transcripts, report, _) = serve(
        eng,
        &ServiceConfig {
            queue_capacity: 8,
            max_batch: 1,
        },
        |handle| {
            thread::scope(|scope| {
                let mut readers = Vec::new();
                for i in 0..READERS {
                    let h = handle.clone();
                    let stop = &stop;
                    readers.push(
                        scope.spawn(move || reader_loop(&h, stop, b, (i as u64 + 1) * 0x9e37)),
                    );
                }

                // The writer: churn one event per epoch, logging each
                // published snapshot before the next event goes in.
                published
                    .lock()
                    .unwrap()
                    .insert(0, (*handle.snapshot()).clone());
                let events = [
                    ClusterEvent::Fail { node: 2 },
                    ClusterEvent::Join { node: 16 },
                    ClusterEvent::Fail { node: 9 },
                    ClusterEvent::Recover { node: 2 },
                    ClusterEvent::Join { node: 17 },
                    ClusterEvent::Fail { node: 5 },
                    ClusterEvent::Recover { node: 9 },
                    ClusterEvent::Leave { node: 11 },
                    ClusterEvent::Recover { node: 5 },
                    ClusterEvent::Join { node: 18 },
                ];
                for ev in events {
                    handle.enqueue(ServiceEvent::Churn(ev));
                    handle.quiesce();
                    let snap = handle.snapshot();
                    published
                        .lock()
                        .unwrap()
                        .insert(snap.epoch(), (*snap).clone());
                }
                stop.store(true, Ordering::SeqCst);
                readers
                    .into_iter()
                    .map(|r| r.join().expect("reader panicked"))
                    .collect::<Vec<_>>()
            })
        },
    );

    assert_eq!(report.applied, 10);
    assert_eq!(report.epochs, 10, "max_batch=1 means one epoch per event");
    let published = published.into_inner().unwrap();
    assert_eq!(published.len(), 11, "epochs 0..=10 all logged");

    let mut total = 0usize;
    for (r, t) in transcripts.iter().enumerate() {
        // Monotone epochs per reader.
        for w in t.epochs.windows(2) {
            assert!(w[0] <= w[1], "reader {r} saw epoch regress: {w:?}");
        }
        // Every observation matches the snapshot published at that
        // epoch.
        for &(epoch, object, answer) in &t.observations {
            let snap = published
                .get(&epoch)
                .unwrap_or_else(|| panic!("reader {r} saw unlogged epoch {epoch}"));
            assert_eq!(
                snap.lookup(object),
                answer,
                "reader {r}: object {object} at epoch {epoch}"
            );
            total += 1;
        }
    }
    assert!(total > 0, "readers must have observed something");
}

#[test]
fn lookups_do_not_block_across_publishes() {
    // Liveness smoke: while the repair thread grinds through a long
    // trace, a reader keeps a count of completed lookups. If a publish
    // held the lock for the duration of a repair (the design error the
    // snapshot swap exists to prevent), the reader would starve and
    // the loop below would take visibly forever; completing promptly
    // with thousands of answers is the observable contract.
    let b = 400u64;
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    let (count, report, _) = serve(
        engine(14, b, 18, 9),
        &ServiceConfig {
            queue_capacity: 2,
            max_batch: 4,
        },
        |handle| {
            thread::scope(|scope| {
                let h = handle.clone();
                let (stop, started) = (&stop, &started);
                let reader = scope.spawn(move || {
                    let mut count = 0u64;
                    started.wait();
                    while !stop.load(Ordering::SeqCst) {
                        for o in 0..64 {
                            if h.lookup(o).is_some() {
                                count += 1;
                            }
                        }
                    }
                    count
                });
                // The churn starts once the reader runs.
                started.wait();
                for round in 0..6u16 {
                    handle.enqueue(ServiceEvent::Churn(ClusterEvent::Fail { node: round % 14 }));
                    handle.enqueue(ServiceEvent::Churn(ClusterEvent::Recover {
                        node: round % 14,
                    }));
                }
                handle.quiesce();
                stop.store(true, Ordering::SeqCst);
                reader.join().expect("reader panicked")
            })
        },
    );
    assert_eq!(report.applied, 12);
    assert!(count > 0, "reader made progress during churn");
}

#[test]
fn a_reader_sees_a_pin_published_after_its_last_lookup() {
    // The reader holds the snapshot of epoch e from its lookups; the
    // writer then pins the objects it reads and quiesces. The reader's
    // next lookup must find the pin, not the held epoch's answer. Each
    // step is fenced by the barrier, so the interleaving is forced; both
    // sides only record inside it (a panic there would strand the other
    // at the barrier). The pins' primary is slot 13, which the 12
    // initial nodes leave empty, so no engine row answers it.
    let objects = [5u64, 63, 64, 250];
    let step = Barrier::new(2);
    // (held snapshot's epoch, published epoch), read in that order.
    let epochs = |h: &ServiceHandle| (h.snapshot().epoch(), h.published_epoch());
    let ((reads, writes), report, _) = serve(
        engine(12, 300, 14, 11),
        &ServiceConfig::default(),
        |handle| {
            thread::scope(|scope| {
                let reader = handle.clone();
                let step = &step;
                let reader = scope.spawn(move || {
                    objects.map(|o| {
                        let before = (reader.lookup(o), epochs(&reader));
                        step.wait(); // held at `before`'s epoch
                        step.wait(); // the pin on `o` is published
                        (before, (reader.lookup(o), epochs(&reader)))
                    })
                });
                let writes = objects.map(|o| {
                    step.wait();
                    let before = epochs(handle);
                    let accepted = handle.upsert(o, &[13, (o % 12) as u16]);
                    handle.quiesce();
                    let after = epochs(handle);
                    step.wait();
                    (accepted, before, after)
                });
                (reader.join().expect("reader panicked"), writes)
            })
        },
    );
    assert_eq!(report.pinned, objects.len() as u64);
    for (o, (before, after)) in objects.iter().zip(reads) {
        assert_ne!(before.0, Some(13), "object {o} starts on its engine row");
        assert_eq!(after.0, Some(13), "object {o}: the pin, not the held epoch");
        for (held, published) in [before.1, after.1] {
            assert!(
                published >= held,
                "object {o}: published {published} < held {held}"
            );
        }
        assert!(after.1 .0 > before.1 .0, "object {o}: the reader moved on");
    }
    for (o, (accepted, before, after)) in objects.iter().zip(writes) {
        assert!(accepted, "object {o}");
        assert!(before.1 >= before.0 && after.1 >= after.0, "object {o}");
        assert!(after.0 > before.0, "object {o}: the pin published an epoch");
    }
}

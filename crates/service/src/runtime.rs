//! The service's one threading room: the repair thread and the scoped
//! lifetime that contains it.
//!
//! Everything concurrent in `wcp-service` lives here (the
//! `thread-discipline` lint sanctions exactly this file, alongside
//! `wcp_core::sweep` and `wcp_adversary::pool`): [`serve`] opens a
//! `std::thread::scope`, spawns the single repair thread, hands the
//! caller a [`ServiceHandle`], and on return closes the queue and joins
//! the thread — no detached threads, no leaked state, deterministic
//! shutdown.
//!
//! # The repair loop
//!
//! Each round the thread blocks for work, drains at most
//! [`ServiceConfig::max_batch`] events, replays them **in enqueue
//! order** — churn through [`DynamicEngine::apply`] (incremental repair
//! with the replan-oracle fallback, re-attacked every event), pins into
//! the overlay — and publishes epoch `e + 1` with the certificate of the
//! last applied churn step. A batch that applies no churn leaves the
//! engine placement alone, so its epoch keeps the certificate published
//! before it. Because the queue is FIFO and the drainer is single,
//! the engine placement after *all* events is independent of how the
//! rounds were batched; only the epoch numbering varies. That is the
//! determinism contract the differential suite checks: across
//! `WCP_THREADS=1/2/8` (and any batching) the final
//! [`Snapshot::forward_digest`] is byte-identical, while epoch counts
//! and interleavings are explicitly *not* compared.

use std::sync::Arc;
use std::thread;

use wcp_core::engine::Attacker;
use wcp_core::{ClusterEvent, DynamicEngine};

use crate::{
    CertificateDigest, PinOverlay, ServiceConfig, ServiceEvent, ServiceHandle, Shared, Snapshot,
};

/// What the repair thread did over the service's lifetime, returned by
/// [`serve`] next to the caller's own result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Epochs published (one per drained batch).
    pub epochs: u64,
    /// Churn events the engine applied.
    pub applied: u64,
    /// Churn events the engine rejected as illegal in the current
    /// membership state (e.g. failing an already-down node).
    pub rejected: u64,
    /// Upsert pins installed or overwritten.
    pub pinned: u64,
    /// Pins released.
    pub released: u64,
    /// [`ServiceHandle::enqueue`] calls that returned `false` while the
    /// service ran: hostile upserts, and writes after the queue shut.
    pub refused: u64,
}

/// Runs a placement service for the duration of `body`.
///
/// The engine seeds epoch 0's snapshot; `body` runs on the calling
/// thread with a [`ServiceHandle`] it may clone into its own readers.
/// When `body` returns the queue closes, the repair thread drains what
/// remains (publishing those epochs), and `serve` returns the body's
/// value next to the repair thread's [`ServeReport`] and the final
/// engine, so callers can audit the end state.
///
/// # Panics
///
/// Propagates panics from `body` and from the repair thread (engine
/// invariant violations), per `std::thread::scope` semantics. A repair
/// thread that panics first shuts the queue: from then on writes
/// return `false`, [`ServiceHandle::quiesce`] returns, and readers keep
/// the last published epoch until `body` returns and the panic is
/// re-raised.
pub fn serve<A, R>(
    mut engine: DynamicEngine<A>,
    config: &ServiceConfig,
    body: impl FnOnce(&ServiceHandle) -> R,
) -> (R, ServeReport, DynamicEngine<A>)
where
    A: Attacker + Send,
    R: Send,
{
    let first = Snapshot::from_placement(0, engine.placement(), &[], None);
    let shared = Arc::new(Shared::new(first, config.queue_capacity, engine.capacity()));
    let handle = ServiceHandle::new(Arc::clone(&shared));
    let max_batch = config.max_batch;

    let (result, mut report) = thread::scope(|scope| {
        let repair = scope.spawn(|| repair_loop(&mut engine, &shared, max_batch));
        let result = {
            let _close = Close(&shared);
            body(&handle)
        };
        // lint:allow(panic, serve re-raises a repair-thread panic by its documented contract)
        let report = repair.join().expect("repair thread panicked");
        (result, report)
    });
    report.refused = shared.refused();
    (result, report, engine)
}

/// Closes the queue when dropped, so the repair thread drains what is
/// left and stops whether the body returned or unwound (a body that
/// unwinds must not leave the scope waiting on the repair thread).
struct Close<'a>(&'a Shared);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The single-drainer repair loop; returns its lifetime tally when the
/// queue closes and drains dry.
fn repair_loop<A: Attacker>(
    engine: &mut DynamicEngine<A>,
    shared: &Shared,
    max_batch: usize,
) -> ServeReport {
    /// Shuts the queue when the loop ends, by return or by unwinding,
    /// so no caller waits on a dead thread.
    struct Abandon<'a>(&'a Shared);
    impl Drop for Abandon<'_> {
        fn drop(&mut self) {
            self.0.abandon();
        }
    }
    let _abandon = Abandon(shared);
    let mut report = ServeReport::default();
    let mut epoch = 0u64;
    let b = engine.placement().num_objects();
    // The live upsert pins. Each epoch's snapshot shares their blocks,
    // so a pin copies only the block it changes.
    let mut pins = PinOverlay::default();
    // The digest of the certificate of the engine placement, carried
    // across batches: a batch that pins only leaves the placement, and
    // so its certificate, as it was.
    let mut certificate = None;
    while let Some(batch) = shared.take_batch(max_batch) {
        // The certificate of the batch's last applied churn step, if any
        // step applied (a rejected step changes no placement).
        let mut applied = None;
        for event in batch {
            match event {
                ServiceEvent::Churn(ev) => match engine.apply(ev) {
                    Ok(step) => {
                        report.applied += 1;
                        applied = Some(step.certificate);
                    }
                    Err(_) => report.rejected += 1,
                },
                ServiceEvent::Upsert { object, nodes } => {
                    report.pinned += 1;
                    pins.pin(b, object, nodes);
                }
                ServiceEvent::Release { object } => {
                    if pins.release(object) {
                        report.released += 1;
                    }
                }
            }
        }
        if let Some(cert) = applied {
            certificate = cert.as_ref().map(CertificateDigest::of);
        }
        epoch += 1;
        report.epochs += 1;
        shared.publish(Snapshot::with_pins(
            epoch,
            engine.placement(),
            pins.clone(),
            certificate,
        ));
    }
    report
}

/// Convenience for tests and experiments: applies `events` through a
/// served engine (enqueue → drain → publish), quiescing before
/// `inspect` runs against the settled handle.
pub fn serve_trace<A, I, R>(
    engine: DynamicEngine<A>,
    config: &ServiceConfig,
    events: I,
    inspect: impl FnOnce(&ServiceHandle) -> R,
) -> (R, ServeReport, DynamicEngine<A>)
where
    A: Attacker + Send,
    I: IntoIterator<Item = ClusterEvent>,
    R: Send,
{
    serve(engine, config, move |handle| {
        for ev in events {
            handle.enqueue(ServiceEvent::Churn(ev));
        }
        handle.quiesce();
        inspect(handle)
    })
}

/// Runs `worker(reader, 0..threads)` on that many scoped threads, each
/// with its own clone of `handle`, and returns the results in index
/// order.
///
/// This is the reader-side fan-out the service bench and experiment
/// use to drive concurrent lookup load; it lives here because this
/// module is the crate's one sanctioned threading room — callers
/// outside it (bench harnesses, experiment binaries) stay free of
/// `thread::scope` entirely. A [`ServiceHandle`] is one reader, so each
/// worker reads through its own.
///
/// # Panics
///
/// Propagates worker panics, per `std::thread::scope` semantics.
pub fn fan_out<R: Send>(
    handle: &ServiceHandle,
    threads: usize,
    worker: impl Fn(&ServiceHandle, usize) -> R + Sync,
) -> Vec<R> {
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let reader = handle.clone();
                let worker = &worker;
                scope.spawn(move || worker(&reader, i))
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(panic, fan_out re-raises a worker panic by its documented contract)
            .map(|h| h.join().expect("fan_out worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementProvider;
    use wcp_core::{DynamicConfig, Placement, RandomVariant, StrategyKind, SystemParams};

    fn engine(n: u16, b: u64, capacity: u16) -> DynamicEngine {
        let params = SystemParams::new(n, b, 3, 2, 2).unwrap();
        let kind = StrategyKind::Random {
            seed: 7,
            variant: RandomVariant::LoadBalanced,
        };
        DynamicEngine::new(params, kind, capacity, DynamicConfig::default()).unwrap()
    }

    #[test]
    fn serving_a_trace_matches_direct_engine_replay() {
        let events = vec![
            ClusterEvent::Fail { node: 3 },
            ClusterEvent::Join { node: 12 },
            ClusterEvent::Recover { node: 3 },
            ClusterEvent::Fail { node: 0 },
        ];
        let (digest, report, served) = serve_trace(
            engine(12, 60, 14),
            &ServiceConfig::default(),
            events.clone(),
            |handle| handle.snapshot().forward_digest(),
        );
        assert_eq!(report.applied, 4);
        assert_eq!(report.rejected, 0);

        let mut direct = engine(12, 60, 14);
        direct.run_trace(events).unwrap();
        assert_eq!(
            Snapshot::from_placement(0, direct.placement(), &[], None).forward_digest(),
            digest,
            "served and direct replays must agree on the forward map"
        );
        assert_eq!(served.placement(), direct.placement());
    }

    #[test]
    fn illegal_events_are_counted_not_fatal() {
        let (_, report, _) = serve_trace(
            engine(12, 40, 12),
            &ServiceConfig::default(),
            vec![
                ClusterEvent::Recover { node: 2 }, // up already: rejected
                ClusterEvent::Fail { node: 2 },
            ],
            |_| (),
        );
        assert_eq!(report.applied, 1);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn upserts_pin_and_release_restores() {
        let (answers, report, served) =
            serve(engine(12, 40, 12), &ServiceConfig::default(), |handle| {
                assert!(handle.upsert(7, &[11, 10, 9]));
                handle.quiesce();
                let pinned = handle.lookup(7);
                let pins = handle.snapshot().pinned();
                assert!(handle.enqueue(ServiceEvent::Release { object: 7 }));
                handle.quiesce();
                (pinned, pins, handle.lookup(7), handle.snapshot().pinned())
            });
        assert_eq!(answers.0, Some(11));
        assert_eq!(answers.1, 1);
        assert_eq!(answers.3, 0);
        assert_eq!(
            answers.2,
            Some(served.placement().replicas(7)[0]),
            "release must fall back to the engine placement"
        );
        assert_eq!(report.pinned, 1);
        assert_eq!(report.released, 1);
    }

    #[test]
    fn hostile_pins_are_refused() {
        let (answers, report, _) = serve(engine(12, 40, 14), &ServiceConfig::default(), |handle| {
            let refused = [
                handle.upsert(1, &[60000]), // beyond the 14 slots
                handle.upsert(1, &[5, 14]),
                handle.upsert(1, &[3, 9, 3]), // repeated node
                handle.upsert(40, &[0, 1]),   // object beyond b = 40
                handle.enqueue(ServiceEvent::Upsert {
                    object: 2,
                    nodes: vec![],
                }),
            ];
            let accepted = handle.upsert(1, &[13, 0]);
            handle.quiesce();
            (refused, accepted, handle.lookup(1), handle.lookup(2))
        });
        assert_eq!(answers.0, [false; 5]);
        assert!(answers.1, "a pin on distinct nodes below the slot count");
        assert_eq!(answers.2, Some(13));
        assert!(answers.3.is_some(), "object 2 keeps its engine row");
        assert_eq!(report.pinned, 1);
        assert_eq!(report.refused, 5);
    }

    /// Panics on its `fuse`-th attack, like a repair bug would.
    struct Fuse {
        calls: std::cell::Cell<u32>,
        fuse: u32,
    }

    impl Attacker for Fuse {
        fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::AttackOutcome {
            self.calls.set(self.calls.get() + 1);
            assert!(self.calls.get() < self.fuse, "attacker fuse blew");
            wcp_core::ExhaustiveAttacker::default().attack(placement, s, k)
        }
    }

    #[test]
    fn a_dead_repair_thread_does_not_hang_its_callers() {
        let params = SystemParams::new(12, 40, 3, 2, 2).unwrap();
        let kind = StrategyKind::Random {
            seed: 7,
            variant: RandomVariant::LoadBalanced,
        };
        let attacker = Fuse {
            calls: std::cell::Cell::new(0),
            fuse: 3,
        };
        let engine =
            DynamicEngine::with_attacker(params, kind, 14, DynamicConfig::default(), attacker)
                .unwrap();
        let config = ServiceConfig {
            queue_capacity: 2,
            max_batch: 1,
        };
        let mut seen = None;
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(engine, &config, |handle| {
                assert!(handle.remove_node(3)); // attacks 1 and 2
                handle.quiesce();
                let live = handle.snapshot_epoch();
                assert!(handle.remove_node(4)); // attack 3 panics
                handle.quiesce();
                // More writes than the queue holds: each is refused at
                // once instead of blocking on the dead thread.
                let writes: Vec<bool> = (0..4).map(|o| handle.upsert(o, &[0])).collect();
                handle.quiesce();
                seen = Some((live, handle.snapshot_epoch(), handle.lookup(0), writes));
            })
        }));
        assert!(served.is_err(), "serve re-raises the repair panic");
        let (live, last, answer, writes) = seen.expect("the body ran to its end");
        assert_eq!(live, 1);
        assert_eq!(last, 1, "readers keep the last published epoch");
        assert!(answer.is_some());
        assert_eq!(writes, vec![false; 4]);
    }

    /// The certified ladder for its first `certified` attacks, then the
    /// same attack with its certificate dropped, as a probe reports.
    struct CertifiedFirst {
        ladder: wcp_adversary::ScratchAdversary,
        calls: std::cell::Cell<u32>,
        certified: u32,
    }

    impl Attacker for CertifiedFirst {
        fn attack(&self, placement: &Placement, s: u16, k: u16) -> wcp_core::AttackOutcome {
            self.calls.set(self.calls.get() + 1);
            let mut outcome = self.ladder.attack(placement, s, k);
            if self.calls.get() > self.certified {
                outcome.certificate = None;
            }
            outcome
        }
    }

    #[test]
    fn the_certificate_follows_the_engine_placement() {
        let params = SystemParams::new(12, 40, 3, 2, 2).unwrap();
        let kind = StrategyKind::Random {
            seed: 7,
            variant: RandomVariant::LoadBalanced,
        };
        let attacker = CertifiedFirst {
            ladder: wcp_adversary::ScratchAdversary::new(wcp_adversary::AdversaryConfig::default()),
            calls: std::cell::Cell::new(0),
            certified: 2, // the first event's two attacks
        };
        let engine =
            DynamicEngine::with_attacker(params, kind, 14, DynamicConfig::default(), attacker)
                .unwrap();
        let config = ServiceConfig {
            max_batch: 1,
            ..ServiceConfig::default()
        };
        let (epochs, report, _) = serve(engine, &config, |handle| {
            let publish = |event: ServiceEvent| {
                assert!(handle.enqueue(event));
                handle.quiesce();
                handle.snapshot()
            };
            let churned = publish(ServiceEvent::Churn(ClusterEvent::Fail { node: 3 }));
            let pinned = publish(ServiceEvent::Upsert {
                object: 7,
                nodes: vec![11, 10, 9],
            });
            let rejected = publish(ServiceEvent::Churn(ClusterEvent::Recover { node: 5 }));
            let uncertified = publish(ServiceEvent::Churn(ClusterEvent::Fail { node: 4 }));
            [churned, pinned, rejected, uncertified]
        });
        let [churned, pinned, rejected, uncertified] = epochs;
        assert_eq!(report.rejected, 1);
        assert!(churned.certificate().is_some(), "certified churn stamps it");
        assert_eq!(pinned.epoch(), churned.epoch() + 1);
        assert_eq!(pinned.pinned(), 1);
        assert_eq!(
            pinned.certificate(),
            churned.certificate(),
            "a pin keeps it"
        );
        assert_eq!(
            rejected.certificate(),
            churned.certificate(),
            "a rejected event keeps it"
        );
        assert_eq!(
            uncertified.certificate(),
            None,
            "a placement nothing certified has no certificate"
        );
    }

    #[test]
    fn a_panicking_body_is_re_raised() {
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(engine(12, 40, 14), &ServiceConfig::default(), |handle| {
                assert!(handle.remove_node(3));
                panic!("the body fails");
            })
        }));
        assert!(served.is_err(), "serve re-raises the body's panic");
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        let (results, _, _) = serve(engine(12, 40, 14), &ServiceConfig::default(), |handle| {
            (
                fan_out(handle, 4, |reader, i| {
                    (i * i, reader.lookup(i as u64).is_some())
                }),
                fan_out(handle, 0, |_, i| i),
            )
        });
        assert_eq!(results.0, vec![(0, true), (1, true), (4, true), (9, true)]);
        assert_eq!(results.1, Vec::<usize>::new());
    }

    #[test]
    fn epochs_advance_and_the_queue_rejects_after_close() {
        let (handle_out, report, _) = serve(
            engine(12, 40, 14),
            &ServiceConfig {
                queue_capacity: 4,
                max_batch: 1,
            },
            |handle| {
                assert_eq!(handle.snapshot_epoch(), 0);
                assert!(handle.remove_node(5));
                assert!(handle.enqueue(ServiceEvent::Churn(ClusterEvent::Join { node: 12 })));
                handle.quiesce();
                assert!(
                    handle.snapshot_epoch() >= 2,
                    "one epoch per max_batch=1 event"
                );
                handle.clone()
            },
        );
        assert_eq!(report.epochs, 2);
        assert!(
            !handle_out.upsert(1, &[0]),
            "writes after shutdown must be refused"
        );
        assert!(
            !handle_out.upsert(1, &[]),
            "empty replica lists are refused"
        );
    }
}

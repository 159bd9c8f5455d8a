//! Placement-as-a-service: concurrent lookup over a churning cluster.
//!
//! Everything below `wcp-service` *computes* placements — plans them,
//! attacks them, certifies them, repairs them across churn. This crate
//! **serves** them: the [`PlacementProvider`] trait is the lookup
//! surface a storage frontend would call per request, modeled on
//! rio-rs's `ObjectPlacementProvider` (`lookup` / `upsert` /
//! `clean_server`), and the in-memory backend keeps the hot path
//! worst-case-aware by publishing only placements the adversary ladder
//! has attacked (and, when the exact rung completed, certified).
//!
//! # Epoch-snapshot concurrency model
//!
//! The backend is a classic read-copy-publish design, std-only and
//! `#![forbid(unsafe_code)]`:
//!
//! * Reads go through an immutable [`Snapshot`] — the engine's
//!   [`Placement`] rows (object → replica list, primary first), shared,
//!   not copied, plus the upsert pins laid over them, the epoch and a
//!   digest of its availability [`Certificate`] when one was emitted.
//!   Snapshots are shared as `Arc<Snapshot>` and never mutate.
//! * The only shared mutable cell is an `RwLock<Arc<Snapshot>>`. A
//!   lookup holds the read lock just long enough to index one row; the
//!   repair thread holds the write lock just long enough to swap one
//!   `Arc` pointer. Millions of concurrent lookups therefore never
//!   block on a repair in progress — they block (briefly) only on the
//!   pointer swap itself, and batch readers can [`ServiceHandle::snapshot`]
//!   once and not even do that.
//! * Writes are asynchronous: [`PlacementProvider::upsert`] and
//!   [`PlacementProvider::remove_node`] enqueue [`ServiceEvent`]s into
//!   a bounded queue. The repair thread (the crate's one sanctioned
//!   threading room, [`runtime`]) drains the queue per epoch, replays
//!   churn through [`DynamicEngine`](wcp_core::DynamicEngine) —
//!   incremental repair with the
//!   replan-oracle fallback, re-attacked by the scratch adversary every
//!   event — and publishes the next snapshot.
//!
//! Readers observe **monotone epochs** (the writer only ever installs
//! `epoch + 1`) and **per-epoch-consistent answers** (a snapshot never
//! changes after publication); `tests/stress.rs` hammers both claims
//! under load. Staleness is bounded by queue depth: a reader holding a
//! snapshot at epoch `e` while [`ServiceHandle::published_epoch`]
//! reports `p` is exactly `p − e` repair rounds behind.
//!
//! # Upsert pins and certificates
//!
//! [`PlacementProvider::upsert`] pins an object to an explicit replica
//! list (the rio-rs client-directed placement case): an object of the
//! placement, on distinct nodes below the engine's slot count —
//! [`ServiceHandle::enqueue`] refuses any other pin. Pins override the
//! engine's placement in every later snapshot until released
//! ([`ServiceEvent::Release`]) — but the adversary attacks the
//! *engine's* placement, so a snapshot with live pins keeps its
//! certificate digest while [`Snapshot::pinned`] reports how many
//! objects the certificate does not cover. Zero pins means the digest
//! covers every answer the snapshot can give.

#![forbid(unsafe_code)]

pub mod runtime;

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use wcp_core::{Certificate, ClusterEvent, Fnv, Placement};

/// A node identifier, as everywhere else in the workspace.
pub type NodeId = u16;

/// The serving surface: what a storage frontend calls per request.
///
/// `lookup` is the hot path and must never block on repair;
/// `upsert` / `remove_node` are asynchronous — they enqueue work for
/// the repair thread and return, and their effect lands in a later
/// epoch (watch [`PlacementProvider::snapshot_epoch`] advance).
pub trait PlacementProvider {
    /// The node currently serving `object` (its primary replica), or
    /// `None` when the object is outside the placement.
    fn lookup(&self, object: u64) -> Option<NodeId>;

    /// Pins `object` to an explicit replica list (primary first),
    /// overriding the planner from the next epoch on. Returns `false`
    /// when the event queue rejected the request: the service is
    /// shutting down, the object is outside the placement, or the list
    /// is empty, repeats a node or names one beyond the slot count.
    fn upsert(&self, object: u64, nodes: &[NodeId]) -> bool;

    /// Takes `node` out of service: enqueues the corresponding failure
    /// event so the repair thread re-homes every replica it held.
    /// Returns `false` when the queue rejected the request.
    fn remove_node(&self, node: NodeId) -> bool;

    /// rio-rs spelling of [`remove_node`](Self::remove_node).
    fn clean_server(&self, node: NodeId) -> bool {
        self.remove_node(node)
    }

    /// The epoch of the latest *published* snapshot (what a fresh
    /// lookup would read). A snapshot held by a batch reader may be
    /// older; the difference is its staleness in epochs.
    fn snapshot_epoch(&self) -> u64;
}

/// A compact fingerprint of the availability [`Certificate`] attached
/// to a published placement — enough for an auditor to match the
/// snapshot against the full certificate logged elsewhere without the
/// snapshot carrying the rung witnesses around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CertificateDigest {
    /// Objects the certificate claims the worst-case adversary fails.
    pub claimed_failed: u64,
    /// Whether the claim was proven exact (the ladder's exact rung
    /// completed).
    pub exact: bool,
    /// FNV-1a over the certificate's canonical JSON rendering.
    pub digest: u64,
}

impl CertificateDigest {
    /// Digests a full certificate.
    #[must_use]
    pub fn of(cert: &Certificate) -> Self {
        let json = cert.to_json();
        let mut h = Fnv::new();
        for b in json.bytes() {
            h.write_u64(u64::from(b));
        }
        Self {
            claimed_failed: cert.claimed_failed,
            exact: cert.exact,
            digest: h.finish(),
        }
    }
}

/// One immutable published placement: the engine's placement with the
/// upsert pins laid over it, the epoch that published it, and the
/// certificate digest of the engine placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    epoch: u64,
    placement: Placement,
    pins: PinOverlay,
    certificate: Option<CertificateDigest>,
}

/// Upsert pins laid over the engine's rows, sorted by object. Each
/// 64-object word holding pins owns 64 slots, one per object, so a lookup
/// finds a pinned primary in two loads; without pins there are no slots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PinOverlay {
    /// Per word: where its slots start (0, a block left empty, if none).
    words: Vec<usize>,
    /// Per object of a word holding pins: `Some(primary)` when pinned.
    slots: Vec<Option<Option<NodeId>>>,
    pins: Vec<(u64, Vec<NodeId>)>,
}

impl PinOverlay {
    /// The pins a merge walk over objects `0..b` meets: those above
    /// every earlier pin, up to the first one outside the placement
    /// (for a sorted list of objects below `b`, all of them).
    fn new(b: usize, pins: &[(u64, Vec<NodeId>)]) -> Self {
        if pins.is_empty() {
            return Self::default();
        }
        let mut overlay = Self {
            words: vec![0; b.div_ceil(64)],
            slots: vec![None; 64],
            pins: Vec::new(),
        };
        for (object, nodes) in pins.iter().take_while(|(o, _)| *o < b as u64) {
            if overlay.pins.last().is_some_and(|(last, _)| object <= last) {
                continue;
            }
            let o = *object as usize;
            if let Some(base) = overlay.words.get_mut(o / 64) {
                if *base == 0 {
                    *base = overlay.slots.len();
                    overlay.slots.resize(*base + 64, None);
                }
                if let Some(slot) = overlay.slots.get_mut(*base + o % 64) {
                    *slot = Some(nodes.first().copied());
                }
            }
            overlay.pins.push((*object, nodes.clone()));
        }
        overlay
    }

    /// `Some(primary)` when object `o` is pinned.
    #[inline]
    fn slot(&self, o: usize) -> Option<Option<NodeId>> {
        let base = self.words.get(o / 64)?;
        self.slots.get(base + o % 64).copied().flatten()
    }

    /// The pinned row of object `o`, or `None` when `o` is not pinned.
    fn row(&self, o: usize) -> Option<&[NodeId]> {
        self.slot(o)?;
        let at = self.pins.binary_search_by_key(&(o as u64), |(p, _)| *p);
        self.pins.get(at.ok()?).map(|(_, nodes)| nodes.as_slice())
    }
}

impl Snapshot {
    /// Builds the snapshot for `placement` at `epoch`, overriding the
    /// objects pinned by `pins` (an ordered `(object, replicas)` list)
    /// and stamping the certificate digest when the attacker emitted
    /// one. Shares the placement's rows: O(1) without pins, O(pins +
    /// b/64) with them.
    #[must_use]
    pub fn from_placement(
        epoch: u64,
        placement: &Placement,
        pins: &[(u64, Vec<NodeId>)],
        certificate: Option<&Certificate>,
    ) -> Self {
        Self {
            epoch,
            placement: placement.clone(),
            pins: PinOverlay::new(placement.num_objects(), pins),
            certificate: certificate.map(CertificateDigest::of),
        }
    }

    /// The epoch this snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The number of objects the snapshot can answer for.
    #[must_use]
    pub fn num_objects(&self) -> u64 {
        self.placement.num_objects() as u64
    }

    /// The object's primary replica, or `None` outside the placement.
    #[inline]
    #[must_use]
    pub fn lookup(&self, object: u64) -> Option<NodeId> {
        let o = usize::try_from(object).ok()?;
        let engine = self.placement.first_replica(o)?;
        // Both answers are read before one is picked: hot pinned and
        // unpinned objects interleave, so a branch here mispredicts.
        let pinned = self.pins.slot(o);
        std::hint::select_unpredictable(pinned.is_some(), pinned.flatten(), Some(engine))
    }

    /// The object's full replica list (primary first).
    #[must_use]
    pub fn replicas(&self, object: u64) -> Option<&[NodeId]> {
        let o = usize::try_from(object).ok()?;
        self.pins.row(o).or_else(|| self.placement.row(o))
    }

    /// Objects whose answers come from an [`PlacementProvider::upsert`]
    /// pin rather than the certified engine placement.
    #[must_use]
    pub fn pinned(&self) -> usize {
        self.pins.pins.len()
    }

    /// The digest of the engine placement's availability certificate,
    /// when the attacker emitted one for this epoch.
    #[must_use]
    pub fn certificate(&self) -> Option<&CertificateDigest> {
        self.certificate.as_ref()
    }

    /// FNV-1a over the forward map — the value the determinism suite
    /// byte-compares across thread counts (epoch numbers and
    /// interleavings are *not* part of it; see `tests/differential.rs`).
    /// It hashes the object count, the running row ends (from 0) and
    /// then every node, row by row.
    #[must_use]
    pub fn forward_digest(&self) -> u64 {
        let rows = || (0..self.num_objects()).map_while(|o| self.replicas(o));
        let mut h = Fnv::new();
        h.write_u64(self.num_objects());
        let mut end = 0;
        h.write_u64(end);
        for row in rows() {
            end += row.len() as u64;
            h.write_u64(end);
        }
        for nd in rows().flatten() {
            h.write_u64(u64::from(*nd));
        }
        h.finish()
    }
}

/// What the repair thread should do next — either replay a churn event
/// through the dynamic engine, or pin/release an object override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceEvent {
    /// Membership churn, replayed through [`DynamicEngine::apply`];
    /// events the engine rejects (illegal in the current membership
    /// state) are counted, not fatal.
    ///
    /// [`DynamicEngine::apply`]: wcp_core::DynamicEngine::apply
    Churn(ClusterEvent),
    /// Pin `object` to `nodes` from the next epoch on.
    Upsert {
        /// The object to pin.
        object: u64,
        /// Its replica list, primary first: non-empty, distinct, and
        /// below the engine's slot count.
        nodes: Vec<NodeId>,
    },
    /// Drop the pin on `object`, returning it to the engine placement.
    Release {
        /// The object to unpin.
        object: u64,
    },
}

/// Tuning for [`runtime::serve`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most events the queue holds before [`ServiceHandle::enqueue`]
    /// blocks (back-pressure on writers; lookups are unaffected).
    pub queue_capacity: usize,
    /// Most events one repair round drains before it must publish an
    /// epoch — the lever bounding reader staleness per round.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 16,
        }
    }
}

/// Queue state under the mutex: pending events, drained-but-unpublished
/// count, and the shutdown latch.
#[derive(Debug, Default)]
struct QueueState {
    pending: std::collections::VecDeque<ServiceEvent>,
    in_flight: usize,
    closed: bool,
}

/// The state a [`ServiceHandle`] and the repair thread share.
///
/// Every lock recovers from poisoning: each critical section is an
/// `Arc` swap or a queue update that cannot be left half-done, so the
/// state a panicking holder leaves behind is consistent.
#[derive(Debug)]
pub(crate) struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    queue: Mutex<QueueState>,
    /// Signaled when the queue gains work or closes (repair thread
    /// waits here).
    work: Condvar,
    /// Signaled when the queue drains or a batch publishes (writers
    /// and `quiesce` wait here).
    room: Condvar,
    capacity: usize,
    /// The engine's object count and slot count, which bound every
    /// pin (neither changes while a service runs).
    objects: u64,
    slots: u16,
}

impl Shared {
    pub(crate) fn new(first: Snapshot, capacity: usize, slots: u16) -> Self {
        Self {
            objects: first.num_objects(),
            snapshot: RwLock::new(Arc::new(first)),
            queue: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            room: Condvar::new(),
            capacity: capacity.max(1),
            slots,
        }
    }

    fn queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn current(&self) -> RwLockReadGuard<'_, Arc<Snapshot>> {
        self.snapshot.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the repair thread can serve `event`: an upsert must pin
    /// an object of the placement to a non-empty list of distinct
    /// nodes below the slot count.
    fn admits(&self, event: &ServiceEvent) -> bool {
        let ServiceEvent::Upsert { object, nodes } = event else {
            return true;
        };
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        *object < self.objects
            && sorted.len() == nodes.len()
            && sorted.last().is_some_and(|&nd| nd < self.slots)
    }

    /// Blocks until the repair thread may drain a batch; returns it,
    /// or `None` once the queue is closed *and* empty.
    pub(crate) fn take_batch(&self, max_batch: usize) -> Option<Vec<ServiceEvent>> {
        let mut q = self.queue();
        loop {
            if !q.pending.is_empty() {
                let take = q.pending.len().min(max_batch.max(1));
                let batch: Vec<ServiceEvent> = q.pending.drain(..take).collect();
                q.in_flight = batch.len();
                self.room.notify_all();
                return Some(batch);
            }
            if q.closed {
                return None;
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Publishes `next` as the new current snapshot and retires the
    /// in-flight batch (the swap is the writer's whole critical
    /// section).
    pub(crate) fn publish(&self, next: Snapshot) {
        *self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
        self.queue().in_flight = 0;
        self.room.notify_all();
    }

    pub(crate) fn close(&self) {
        self.queue().closed = true;
        self.work.notify_all();
    }

    /// Shuts the queue for good when the repair thread stops: closes
    /// it, drops what is pending, retires the in-flight batch and wakes
    /// every waiter, so writers get `false` and `quiesce` returns while
    /// readers keep the last published epoch.
    pub(crate) fn abandon(&self) {
        let mut q = self.queue();
        q.closed = true;
        q.pending.clear();
        q.in_flight = 0;
        drop(q);
        self.work.notify_all();
        self.room.notify_all();
    }
}

/// The cheap, clonable handle to a running service: implements
/// [`PlacementProvider`], plus batch-reader and back-pressure
/// extensions. Obtained from [`runtime::serve`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl ServiceHandle {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Self { shared }
    }

    /// The current snapshot, for batch readers: one `RwLock` read per
    /// *batch* instead of per lookup, at the price of staleness the
    /// caller measures via [`Snapshot::epoch`] against
    /// [`ServiceHandle::published_epoch`].
    #[must_use]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.shared.current())
    }

    /// The latest published epoch.
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// Enqueues `event`, blocking while the queue is at capacity.
    /// Returns `false` (dropping the event) once the service is
    /// shutting down or its repair thread has stopped, and for an
    /// upsert the service cannot serve: an object outside the
    /// placement, or a replica list that is empty, repeats a node or
    /// names one beyond the engine's slot count.
    pub fn enqueue(&self, event: ServiceEvent) -> bool {
        let shared = &*self.shared;
        if !shared.admits(&event) {
            return false;
        }
        let mut q = shared.queue();
        loop {
            if q.closed {
                return false;
            }
            if q.pending.len() < shared.capacity {
                q.pending.push_back(event);
                shared.work.notify_all();
                return true;
            }
            q = shared.room.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until every event enqueued so far has been applied *and*
    /// published, or dropped because the repair thread stopped. After
    /// `quiesce` returns on a live service, [`Self::snapshot`] reflects
    /// all prior writes (the differential suite's synchronization
    /// point).
    pub fn quiesce(&self) {
        let shared = &*self.shared;
        let mut q = shared.queue();
        while !q.pending.is_empty() || q.in_flight > 0 {
            let (guard, timeout) = shared
                .room
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
            // The repair thread can only have died between batches with
            // the queue closed; re-checking after a timeout keeps a
            // mis-shut service from hanging the caller forever.
            if timeout.timed_out() && q.closed && q.in_flight == 0 {
                break;
            }
        }
    }
}

impl PlacementProvider for ServiceHandle {
    fn lookup(&self, object: u64) -> Option<NodeId> {
        self.shared.current().lookup(object)
    }

    fn upsert(&self, object: u64, nodes: &[NodeId]) -> bool {
        self.enqueue(ServiceEvent::Upsert {
            object,
            nodes: nodes.to_vec(),
        })
    }

    fn remove_node(&self, node: NodeId) -> bool {
        self.enqueue(ServiceEvent::Churn(ClusterEvent::Fail { node }))
    }

    fn snapshot_epoch(&self) -> u64 {
        self.published_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_core::{RandomStrategy, RandomVariant, SystemParams};

    fn placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = SystemParams::new(n, b, r, 1, 1).unwrap();
        RandomStrategy::new(seed, RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn snapshot_lookup_matches_the_placement() {
        let p = placement(12, 40, 3, 7);
        let snap = Snapshot::from_placement(3, &p, &[], None);
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.num_objects(), 40);
        assert_eq!(snap.pinned(), 0);
        for (o, set) in p.rows().enumerate() {
            assert_eq!(snap.lookup(o as u64), Some(set[0]));
            assert_eq!(snap.replicas(o as u64).unwrap(), set);
        }
        assert_eq!(snap.lookup(40), None);
        assert_eq!(snap.lookup(u64::MAX), None);
    }

    #[test]
    fn pins_override_without_touching_neighbours() {
        let p = placement(10, 20, 3, 1);
        let pins = vec![(4u64, vec![9u16, 8, 7]), (11, vec![0, 1, 2])];
        let snap = Snapshot::from_placement(1, &p, &pins, None);
        assert_eq!(snap.pinned(), 2);
        assert_eq!(snap.lookup(4), Some(9));
        assert_eq!(snap.replicas(11).unwrap(), &[0, 1, 2]);
        for o in (0..20u64).filter(|o| *o != 4 && *o != 11) {
            assert_eq!(snap.lookup(o), Some(p.replicas(o as usize)[0]));
        }
        // Pins spanning word boundaries: each object answers its own
        // pin, and the rest answer the engine's rows.
        let p = placement(10, 300, 3, 1);
        let pins: Vec<(u64, Vec<u16>)> = [0u64, 63, 64, 65, 127, 128, 299]
            .iter()
            .map(|&o| (o, vec![(o % 10) as u16, 9 - (o % 10) as u16]))
            .collect();
        let snap = Snapshot::from_placement(1, &p, &pins, None);
        assert_eq!(snap.pinned(), pins.len());
        for o in 0..300u64 {
            let want = pins
                .iter()
                .find(|(po, _)| *po == o)
                .map_or(p.replicas(o as usize), |(_, nodes)| nodes.as_slice());
            assert_eq!(snap.replicas(o), Some(want), "object {o}");
            assert_eq!(snap.lookup(o), want.first().copied(), "object {o}");
        }
    }

    #[test]
    fn pins_the_merge_walk_never_meets_are_ignored() {
        // The overlay keeps exactly the pins a walk over objects 0..b
        // meets: the first of a repeated object, and none out of order
        // or beyond the placement.
        let p = placement(10, 20, 3, 1);
        let pins = vec![
            (2u64, vec![9u16]),
            (2, vec![8]),
            (5, vec![7]),
            (3, vec![6]),
            (40, vec![5]),
            (19, vec![4]),
        ];
        let snap = Snapshot::from_placement(1, &p, &pins, None);
        assert_eq!(snap.pinned(), 2);
        assert_eq!(snap.lookup(2), Some(9));
        assert_eq!(snap.lookup(5), Some(7));
        assert_eq!(snap.lookup(3), Some(p.replicas(3)[0]));
        assert_eq!(snap.lookup(19), Some(p.replicas(19)[0]));
        assert_eq!(snap.lookup(40), None);
        // An empty pinned list answers no primary.
        let snap = Snapshot::from_placement(1, &p, &[(6, vec![])], None);
        assert_eq!(snap.lookup(6), None);
        assert_eq!(snap.replicas(6), Some(&[][..]));
    }

    #[test]
    fn forward_digest_ignores_epoch_and_certificate() {
        let p = placement(10, 30, 3, 2);
        let a = Snapshot::from_placement(1, &p, &[], None);
        let b = Snapshot::from_placement(9, &p, &[], None);
        assert_eq!(a.forward_digest(), b.forward_digest());
        let other = Snapshot::from_placement(1, &placement(10, 30, 3, 3), &[], None);
        assert_ne!(a.forward_digest(), other.forward_digest());
    }

    #[test]
    fn certificate_digest_tracks_the_certificate() {
        use wcp_adversary::{AdversaryConfig, Ladder};
        let p = placement(12, 40, 3, 5);
        let cert = Ladder::new(&AdversaryConfig::default())
            .certified()
            .run(&p, 2, 3)
            .certificate
            .unwrap();
        let snap = Snapshot::from_placement(1, &p, &[], Some(&cert));
        let d = snap.certificate().expect("digest stamped");
        assert_eq!(d.claimed_failed, cert.claimed_failed);
        assert_eq!(d.exact, cert.exact);
        assert_eq!(*d, CertificateDigest::of(&cert));
    }
}

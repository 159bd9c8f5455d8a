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
//! * The shared mutable state is an `RwLock<Arc<Snapshot>>` and an
//!   `AtomicU64` holding its epoch, which the repair thread stores
//!   (`Release`) while it holds the write lock for the `Arc` swap. Each
//!   reader owns a [`ServiceHandle`] that holds the snapshot it last
//!   read: a lookup loads the epoch (`Acquire`) and answers from the
//!   held snapshot while the epochs match, so a reader takes the read
//!   lock once per publish, to fetch the new snapshot, and never on a
//!   repair in progress.
//! * A pin epoch costs O(b/64 + blocks touched): the overlay gives each
//!   64-object word holding pins one shared block, and a publish copies
//!   the word index and only the blocks its batch changed.
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
//! under load. A lookup is at most one epoch check behind the latest
//! publish, and after [`ServiceHandle::quiesce`] a reader's next call
//! sees every earlier write. Staleness is bounded by queue depth: a
//! batch reader holding a snapshot at epoch `e` while
//! [`ServiceHandle::published_epoch`] reports `p` is exactly `p − e`
//! repair rounds behind.
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

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

use wcp_core::{Certificate, ClusterEvent, Fnv, Placement};

/// A node identifier, as everywhere else in the workspace.
pub type NodeId = u16;

/// The serving surface: what a storage frontend calls per request.
///
/// `lookup` is the hot path and must never block on repair: a
/// [`ServiceHandle`] answers it from the snapshot it holds after one
/// atomic epoch check. `upsert` / `remove_node` are asynchronous — they
/// enqueue work for the repair thread and return, and their effect
/// lands in a later epoch (watch [`PlacementProvider::snapshot_epoch`]
/// advance).
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

    /// The epoch of the latest *published* snapshot (what the next
    /// lookup reads). A snapshot held by a batch reader may be older;
    /// the difference is its staleness in epochs.
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
    /// The certificate's seal, [`Certificate::digest`]: FNV-1a over its
    /// canonical JSON body, logged as the certificate's `"digest"`.
    pub digest: u64,
}

impl CertificateDigest {
    /// Digests a full certificate.
    #[must_use]
    pub fn of(cert: &Certificate) -> Self {
        Self {
            claimed_failed: cert.claimed_failed,
            exact: cert.exact,
            digest: cert.digest(),
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

/// The pins of one 64-object word: each object's pinned primary, and
/// the pinned rows in offset order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Block {
    /// Per object of the word: `Some(primary)` when pinned.
    slots: [Option<Option<NodeId>>; 64],
    /// The pinned rows, by offset in the word.
    rows: Vec<(u8, Vec<NodeId>)>,
}

impl Default for Block {
    fn default() -> Self {
        Self {
            slots: [None; 64],
            rows: Vec::new(),
        }
    }
}

/// Upsert pins laid over the engine's rows. Each 64-object word holding
/// pins owns one block behind an `Arc`, so a lookup finds a pinned
/// primary in two loads, and a copy of the overlay shares every block:
/// a pin or release copies only the block it changes. Without pins
/// there is no word index, and a release that empties a block drops it,
/// so equal pins give equal overlays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PinOverlay {
    /// Per word: its block, `None` while no object of the word is
    /// pinned; empty while no object is.
    words: Vec<Option<Arc<Block>>>,
    /// The block a word without pins reads.
    empty: Arc<Block>,
    /// Pinned objects over every block.
    pinned: usize,
}

impl PinOverlay {
    /// Pins `object` of a placement of `b` objects to `nodes`,
    /// replacing any earlier pin; objects outside the placement are
    /// ignored.
    fn pin(&mut self, b: usize, object: u64, nodes: Vec<NodeId>) {
        let Some(o) = usize::try_from(object).ok().filter(|&o| o < b) else {
            return;
        };
        if self.words.is_empty() {
            self.words = vec![None; b.div_ceil(64)];
        }
        let Some(word) = self.words.get_mut(o / 64) else {
            return;
        };
        let block = Arc::make_mut(word.get_or_insert_default());
        let offset = (o % 64) as u8;
        if let Some(slot) = block.slots.get_mut(o % 64) {
            *slot = Some(nodes.first().copied());
        }
        match block.rows.binary_search_by_key(&offset, |(at, _)| *at) {
            Ok(at) => {
                if let Some(row) = block.rows.get_mut(at) {
                    row.1 = nodes;
                }
            }
            Err(at) => {
                block.rows.insert(at, (offset, nodes));
                self.pinned += 1;
            }
        }
    }

    /// Drops the pin on `object`; returns whether there was one.
    fn release(&mut self, object: u64) -> bool {
        let Some(o) = usize::try_from(object).ok() else {
            return false;
        };
        let Some(word) = self.words.get_mut(o / 64) else {
            return false;
        };
        let offset = (o % 64) as u8;
        let Some(at) = word
            .as_ref()
            .and_then(|block| block.rows.binary_search_by_key(&offset, |(at, _)| *at).ok())
        else {
            return false;
        };
        self.pinned -= 1;
        match word {
            Some(block) if block.rows.len() > 1 => {
                let block = Arc::make_mut(block);
                block.rows.remove(at);
                if let Some(slot) = block.slots.get_mut(o % 64) {
                    *slot = None;
                }
            }
            _ => *word = None,
        }
        if self.pinned == 0 {
            *self = Self::default();
        }
        true
    }

    /// `Some(primary)` when object `o` is pinned.
    #[inline]
    fn slot(&self, o: usize) -> Option<Option<NodeId>> {
        // A word without pins reads the empty block through a select:
        // hot pinned and unpinned words interleave, so a branch here
        // mispredicts.
        let word = self.words.get(o / 64)?.as_deref();
        let block = std::hint::select_unpredictable(word.is_some(), word, Some(&*self.empty));
        block?.slots.get(o % 64).copied().flatten()
    }

    /// The pinned row of object `o`, or `None` when `o` is not pinned.
    fn row(&self, o: usize) -> Option<&[NodeId]> {
        let block = self.words.get(o / 64)?.as_deref()?;
        let offset = (o % 64) as u8;
        let at = block.rows.binary_search_by_key(&offset, |(at, _)| *at);
        block.rows.get(at.ok()?).map(|(_, nodes)| nodes.as_slice())
    }
}

impl Snapshot {
    /// Builds the snapshot for `placement` at `epoch`, overriding the
    /// objects pinned by `pins` (an ordered `(object, replicas)` list)
    /// and stamping the certificate digest when the attacker emitted
    /// one. Shares the placement's rows: O(1) without pins, O(pins +
    /// b/64) with them.
    ///
    /// The pins are those a merge walk over objects `0..b` meets: each
    /// above every earlier one, up to the first outside the placement
    /// (for a sorted list of objects below `b`, all of them).
    #[must_use]
    pub fn from_placement(
        epoch: u64,
        placement: &Placement,
        pins: &[(u64, Vec<NodeId>)],
        certificate: Option<&Certificate>,
    ) -> Self {
        let b = placement.num_objects();
        let mut overlay = PinOverlay::default();
        let mut last = None;
        for (object, nodes) in pins.iter().take_while(|(o, _)| *o < b as u64) {
            if last.is_some_and(|last| *object <= last) {
                continue;
            }
            last = Some(*object);
            overlay.pin(b, *object, nodes.clone());
        }
        Self::with_pins(
            epoch,
            placement,
            overlay,
            certificate.map(CertificateDigest::of),
        )
    }

    /// The snapshot of `placement` with `pins` laid over it, at `epoch`.
    fn with_pins(
        epoch: u64,
        placement: &Placement,
        pins: PinOverlay,
        certificate: Option<CertificateDigest>,
    ) -> Self {
        Self {
            epoch,
            placement: placement.clone(),
            pins,
            certificate,
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
        self.pins.pinned
    }

    /// The digest of the engine placement's availability certificate,
    /// when the attacker emitted one for the churn step that produced
    /// that placement (an epoch that only pins keeps it).
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
    /// The epoch of `snapshot`, stored before the write lock that
    /// installed it is released: no snapshot a reader can lock is newer
    /// than the epoch it can load.
    epoch: AtomicU64,
    /// `enqueue` calls that returned `false`.
    refused: AtomicU64,
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
            epoch: AtomicU64::new(first.epoch),
            refused: AtomicU64::new(0),
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

    /// The current snapshot, read under the lock.
    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The latest published epoch.
    #[inline]
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The `enqueue` calls refused so far.
    pub(crate) fn refused(&self) -> u64 {
        self.refused.load(Ordering::Acquire)
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
    /// in-flight batch. The swap and the epoch store are the writer's
    /// whole critical section; the snapshot it replaces is dropped
    /// after the unlock.
    pub(crate) fn publish(&self, next: Snapshot) {
        let epoch = next.epoch;
        let mut current = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let replaced = std::mem::replace(&mut *current, Arc::new(next));
        self.epoch.store(epoch, Ordering::Release);
        drop(current);
        drop(replaced);
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

/// One reader's handle to a running service: implements
/// [`PlacementProvider`], plus batch-reader and back-pressure
/// extensions. Obtained from [`runtime::serve`].
///
/// The handle holds the snapshot it last read and checks it against
/// the published epoch with one atomic load per read, so it takes the
/// snapshot lock once per publish, not once per request. That cache
/// makes it `Send` but not `Sync`: give each reader thread its own
/// handle. [`Clone`] makes a new reader with nothing held, and
/// [`runtime::fan_out`] hands each worker one.
///
/// ```compile_fail,E0277
/// fn shared_across_threads<T: Sync>() {}
/// shared_across_threads::<wcp_service::ServiceHandle>();
/// ```
#[derive(Debug)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
    /// The snapshot this reader last read; empty until its first read,
    /// so a handle that never reads holds no rows.
    held: RefCell<Option<Arc<Snapshot>>>,
}

/// Handles move to their reader threads.
const _: fn() = || {
    fn moves_between_threads<T: Send>() {}
    moves_between_threads::<ServiceHandle>();
};

impl Clone for ServiceHandle {
    /// A new reader of the same service, holding no snapshot yet.
    fn clone(&self) -> Self {
        Self::new(Arc::clone(&self.shared))
    }
}

impl ServiceHandle {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        Self {
            shared,
            held: RefCell::new(None),
        }
    }

    /// Runs `read` on the latest published snapshot: the held one while
    /// its epoch is the published one, else a fresh one read under the
    /// lock, which the handle then holds.
    #[inline]
    fn read<R>(&self, read: impl FnOnce(&Arc<Snapshot>) -> R) -> R {
        let epoch = self.shared.epoch();
        let mut held = self.held.borrow_mut();
        if let Some(snapshot) = held.as_ref().filter(|s| s.epoch == epoch) {
            return read(snapshot);
        }
        read(self.refresh(&mut held))
    }

    /// Holds the published snapshot instead, read under the lock.
    #[cold]
    #[inline(never)]
    fn refresh<'a>(&self, held: &'a mut Option<Arc<Snapshot>>) -> &'a Arc<Snapshot> {
        held.insert(self.shared.current())
    }

    /// The latest published snapshot, for batch readers: one epoch
    /// check per *batch* instead of per lookup, at the price of
    /// staleness the caller measures via [`Snapshot::epoch`] against
    /// [`ServiceHandle::published_epoch`].
    #[must_use]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.read(Arc::clone)
    }

    /// The latest published epoch: one atomic load, no lock.
    #[inline]
    #[must_use]
    pub fn published_epoch(&self) -> u64 {
        self.shared.epoch()
    }

    /// Enqueues `event`, blocking while the queue is at capacity.
    /// Returns `false` (dropping the event, and counting it in
    /// [`ServeReport::refused`](runtime::ServeReport::refused)) once the
    /// service is shutting down or its repair thread has stopped, and
    /// for an upsert the service cannot serve: an object outside the
    /// placement, or a replica list that is empty, repeats a node or
    /// names one beyond the engine's slot count.
    pub fn enqueue(&self, event: ServiceEvent) -> bool {
        let accepted = self.try_enqueue(event);
        if !accepted {
            self.shared.refused.fetch_add(1, Ordering::AcqRel);
        }
        accepted
    }

    fn try_enqueue(&self, event: ServiceEvent) -> bool {
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
    #[inline]
    fn lookup(&self, object: u64) -> Option<NodeId> {
        self.read(|snapshot| snapshot.lookup(object))
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

    #[inline]
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
        // The fingerprint is the seal the logged certificate prints.
        let logged = wcp_sim::json::Value::parse(&cert.to_json()).unwrap();
        let sealed = logged.get("digest").and_then(|v| v.as_str()).unwrap();
        assert_eq!(format!("{:#018x}", d.digest), sealed);
    }
}

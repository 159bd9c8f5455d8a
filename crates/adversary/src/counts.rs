//! Incremental failure accounting shared by all adversaries: the scalar
//! reference backend ([`FailureCounts`]) and the word-parallel
//! bit-packed kernel ([`PackedCounts`]) the production ladder runs on.

use crate::bitmap::{
    and_popcount, eq_word, ge_word, tail_mask, words_for, NodeSet, BLOCK_WORDS, LANES, WORD_BITS,
};
use wcp_core::Placement;

/// Tracks, for a mutable set of failed nodes, how many replicas of each
/// object are down, how many objects have failed (`≥ s` replicas down),
/// and a histogram of sub-threshold hit counts enabling the admissible
/// "still failable within m more failures" bound.
///
/// `add_node`/`remove_node` cost `O(ℓ)` where `ℓ` is the node's load.
#[derive(Debug, Clone)]
pub struct FailureCounts {
    s: u16,
    /// Replicas down per object.
    hits: Vec<u16>,
    /// Objects with `hits ≥ s`.
    failed: u64,
    /// `hist[j]` = number of objects with `hits = j < s`.
    hist: Vec<u64>,
    /// Inverted index: objects per node.
    by_node: Vec<Vec<u32>>,
    /// Current failed-node set membership.
    in_set: Vec<bool>,
}

impl FailureCounts {
    /// Builds the accounting structure for a placement at threshold `s`.
    #[must_use]
    pub fn new(placement: &Placement, s: u16) -> Self {
        let b = placement.num_objects();
        let mut hist = vec![0u64; usize::from(s)];
        if let Some(first) = hist.first_mut() {
            *first = b as u64;
        }
        Self {
            s,
            hits: vec![0; b],
            failed: 0,
            hist,
            by_node: placement.objects_by_node(),
            in_set: vec![false; usize::from(placement.num_nodes())],
        }
    }

    /// Rebinds the structure to another placement/threshold, reusing
    /// every allocation: the hit and membership vectors are resized in
    /// place and the inverted index's inner vectors keep their
    /// capacity. Sweeps evaluating many cells of similar shape go
    /// through here instead of [`FailureCounts::new`] so the per-cell
    /// cost is a fill, not an allocation storm.
    pub fn rebind(&mut self, placement: &Placement, s: u16) {
        let b = placement.num_objects();
        self.s = s;
        self.failed = 0;
        self.hits.clear();
        self.hits.resize(b, 0);
        self.hist.clear();
        self.hist.resize(usize::from(s), 0);
        if let Some(first) = self.hist.first_mut() {
            *first = b as u64;
        }
        self.in_set.clear();
        self.in_set
            .resize(usize::from(placement.num_nodes()), false);
        let n = usize::from(placement.num_nodes());
        for per_node in self.by_node.iter_mut() {
            per_node.clear();
        }
        self.by_node.resize_with(n, Vec::new);
        for (obj, set) in placement.rows().enumerate() {
            for &nd in set {
                if let Some(row) = self.by_node.get_mut(usize::from(nd)) {
                    row.push(obj as u32);
                }
            }
        }
    }

    /// Empties the failed-node set without touching the placement
    /// binding (cheaper than removing the members one by one when the
    /// whole set is discarded, e.g. between local-search restarts).
    pub fn clear(&mut self) {
        self.failed = 0;
        self.hits.fill(0);
        self.hist.fill(0);
        let b = self.hits.len() as u64;
        if let Some(first) = self.hist.first_mut() {
            *first = b;
        }
        self.in_set.fill(false);
    }

    /// Number of currently failed objects.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// True if the node is currently in the failed set.
    #[must_use]
    pub fn contains(&self, node: u16) -> bool {
        self.in_set.get(usize::from(node)).copied().unwrap_or(false)
    }

    /// Admissible upper bound on the number of *additional* objects that
    /// could fail if `m` more nodes fail: objects needing at most `m` more
    /// replica hits.
    #[must_use]
    pub fn failable_within(&self, m: u16) -> u64 {
        let lo = usize::from(self.s.saturating_sub(m));
        self.hist.get(lo..).map_or(0, |t| t.iter().sum())
    }

    /// Marks `node` failed.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is already failed.
    pub fn add_node(&mut self, node: u16) {
        debug_assert!(!self.contains(node), "node already failed");
        let Self {
            s,
            hits,
            failed,
            hist,
            by_node,
            in_set,
        } = self;
        let s = *s;
        if let Some(slot) = in_set.get_mut(usize::from(node)) {
            *slot = true;
        }
        let row: &[u32] = by_node.get(usize::from(node)).map_or(&[], Vec::as_slice);
        for &obj in row {
            let Some(h_slot) = hits.get_mut(obj as usize) else {
                continue;
            };
            let h = *h_slot;
            *h_slot = h + 1;
            if h < s {
                if let Some(bucket) = hist.get_mut(usize::from(h)) {
                    *bucket -= 1;
                }
                if h + 1 < s {
                    if let Some(bucket) = hist.get_mut(usize::from(h) + 1) {
                        *bucket += 1;
                    }
                } else {
                    *failed += 1;
                }
            }
        }
    }

    /// Unmarks `node`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is not currently failed.
    pub fn remove_node(&mut self, node: u16) {
        debug_assert!(self.contains(node), "node not failed");
        let Self {
            s,
            hits,
            failed,
            hist,
            by_node,
            in_set,
        } = self;
        let s = *s;
        if let Some(slot) = in_set.get_mut(usize::from(node)) {
            *slot = false;
        }
        let row: &[u32] = by_node.get(usize::from(node)).map_or(&[], Vec::as_slice);
        for &obj in row {
            let Some(h_slot) = hits.get_mut(obj as usize) else {
                continue;
            };
            let h = *h_slot - 1;
            *h_slot = h;
            if h < s {
                if h + 1 < s {
                    if let Some(bucket) = hist.get_mut(usize::from(h) + 1) {
                        *bucket -= 1;
                    }
                } else {
                    *failed -= 1;
                }
                if let Some(bucket) = hist.get_mut(usize::from(h)) {
                    *bucket += 1;
                }
            }
        }
    }

    /// Failed objects if `node` were added, without mutating (costs
    /// `O(ℓ)`).
    #[must_use]
    pub fn gain(&self, node: u16) -> u64 {
        debug_assert!(!self.contains(node));
        let s = self.s;
        self.objects_on(node)
            .iter()
            .filter(|&&obj| self.hits.get(obj as usize).is_some_and(|&h| h + 1 == s))
            .count() as u64
    }

    /// The current failed-node set (sorted).
    #[must_use]
    pub fn nodes(&self) -> Vec<u16> {
        self.in_set
            .iter()
            .enumerate()
            .filter_map(|(i, &inside)| inside.then_some(i as u16))
            .collect()
    }

    /// Ids of the objects with a replica on `node` (ascending).
    pub(crate) fn objects_on(&self, node: u16) -> &[u32] {
        self.by_node
            .get(usize::from(node))
            .map_or(&[], Vec::as_slice)
    }
}

/// Objects streamed per chunk of the CSR/bitmap construction pass: at
/// 32 K objects a chunk covers a 4 KiB window of every row bitmap, so
/// the per-chunk working set (`n` row windows + the CSR cursors) stays
/// cache-resident even at `b = 10⁶`, where the full row matrix alone
/// is ~9 MB.
pub(crate) const OBJ_CHUNK: usize = 1 << 15;

/// Telemetry from the last [`PackedCounts::rebind`], exposed so tests
/// can pin the streaming-build contract: the pass is chunked, and the
/// build writes into a constant number of heap buffers — never a
/// per-node vector-of-vectors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// Cache-sized object chunks the streaming CSR pass ran.
    pub chunks: u32,
    /// Distinct heap buffers the build wrote (arena, CSR offsets,
    /// membership words) — a constant independent of `n` and `b`. The
    /// forward map is the bound placement's own table, and the CSR
    /// co-hosts are filled on first use by the exact DFS.
    pub buffers: u32,
}

/// The number of heap buffers behind a [`PackedCounts`] build; see
/// [`BuildStats::buffers`].
pub(crate) const REBIND_BUFFERS: u32 = 3;

/// The word-parallel failure-accounting kernel.
///
/// Observationally identical to [`FailureCounts`] (the scalar backend
/// stays as the differential-test oracle) but organised for streaming
/// word operations instead of per-object scalar updates:
///
/// * the inverted index is stored in **CSR form** — an `n + 1` offset
///   array plus one flat array holding, for every (node, hosted object)
///   entry, the object's *other* `r − 1` hosts (`u16`; the same 12 B
///   per object as a `u32` object id at `r = 3`). A node's row is one
///   contiguous slice that the node move set's exact DFS streams to
///   shift its path tables (the object ids themselves are never
///   needed); no other caller reads it, so it is filled on that DFS's
///   first use after a rebind, in one fixed-width pass over the
///   placement's rows. Per-node loads fall out of the offsets for free;
/// * the forward map (object → hosts) is not copied: the kernel holds
///   an O(1) clone of the bound [`Placement`] and reads its rows;
/// * every node additionally carries a **dense object bitmap**
///   (`⌈b/64⌉` words), and per-object hit counters are **bit-sliced**
///   across `u64` planes (plane `j` holds bit `j` of every object's
///   counter), so [`PackedCounts::add_node`] / `remove_node` are a
///   ripple-carry add / borrow-subtract of the node bitmap across the
///   planes — 64 objects per instruction;
/// * the planes, both derived masks and all per-node row bitmaps live
///   in **one arena allocation** (offset-sliced), and the update pass
///   is **cache-blocked**: ripple-carry adds, XOR-diff folds and
///   masked popcounts complete for one `BLOCK_WORDS` block of the
///   bit-sliced planes before the pass moves to the next, so the
///   million-object regime — where a single plane outgrows the LLC —
///   still touches each block's streams exactly once per update;
/// * the derived sets `hits ≥ s` (failed) and `hits = s − 1` (one hit
///   from failing) are maintained as bitmaps on every update, so
///   [`PackedCounts::failed`] is a counter read and
///   [`PackedCounts::gain`] is an AND + popcount over the node's bitmap
///   — `O(b/64)` instead of the scalar `O(ℓ)` with its random accesses.
///
/// The regimes the paper's figures live in get dedicated fast paths:
/// at `s = 1` the failed set is simply the OR of the planes and at
/// `s = 2` it is the OR of the planes above bit 0, with the matching
/// one-term `hits = s − 1` masks; general `s` uses the magnitude
/// comparator circuit.
///
/// # Examples
///
/// ```
/// use wcp_adversary::PackedCounts;
/// use wcp_core::Placement;
///
/// let p = Placement::new(6, 3, vec![vec![0, 1, 2], vec![0, 1, 3]])?;
/// let mut pc = PackedCounts::new(&p, 2);
/// pc.add_node(0);
/// assert_eq!(pc.failed(), 0);
/// assert_eq!(pc.gain(1), 2); // node 1 completes both objects
/// pc.add_node(1);
/// assert_eq!(pc.failed(), 2);
/// assert_eq!(pc.nodes(), vec![0, 1]);
/// # Ok::<(), wcp_core::PlacementError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct PackedCounts {
    s: u16,
    r: u16,
    /// Objects.
    b: usize,
    /// Words per object bitmap (`⌈b/64⌉`).
    words: usize,
    /// Plane count: bits needed to represent counts up to `r`.
    p: usize,
    /// The single arena allocation backing, in order: the `p` counter
    /// planes (plane-major), the maintained `hits ≥ s` mask, the
    /// maintained `hits = s − 1` mask, and the `n` per-node object
    /// bitmaps (row-major).
    arena: Vec<u64>,
    /// Arena offset of the `hits ≥ s` mask (`p · words`).
    ge_off: usize,
    /// Arena offset of the `hits = s − 1` mask.
    eq_off: usize,
    /// Arena offset of the per-node rows.
    rows_off: usize,
    /// Popcount of `hits ≥ s`, maintained incrementally.
    failed: u64,
    /// Popcount of `hits = s − 1`, maintained incrementally (gives the
    /// `failable_within(1)` histogram bound in O(1)).
    eq_count: u64,
    /// CSR inverted index: offsets (`n + 1`, in objects) and, per
    /// entry, the object's other `r − 1` hosts in row order.
    csr_off: Vec<u32>,
    csr_cohosts: Vec<u16>,
    /// Whether `csr_cohosts` describes the bound placement.
    cohosts_ready: bool,
    /// The bound placement (an O(1) clone sharing its rows): the
    /// forward map the delta walks read.
    placement: Option<Placement>,
    /// Failed-node membership.
    members: NodeSet,
    /// Valid-bit mask for the last word.
    tail: u64,
    /// Telemetry from the last rebind.
    stats: BuildStats,
}

impl PackedCounts {
    /// Builds the kernel for a placement at threshold `s`.
    #[must_use]
    pub fn new(placement: &Placement, s: u16) -> Self {
        let mut pc = Self::default();
        pc.rebind(placement, s);
        pc
    }

    /// Rebinds to another placement/threshold, reusing every allocation
    /// (CSR arrays, the arena). The packed analogue of
    /// [`FailureCounts::rebind`].
    ///
    /// The build streams over the placement's flat rows: pass 1 only
    /// counts objects per node (the CSR offsets), then pass 2 runs in
    /// `OBJ_CHUNK`-sized object chunks, filling each chunk's row-bitmap
    /// windows before moving on — no intermediate `Vec<Vec<u32>>` is
    /// ever materialized, and every bitmap lands in the single arena.
    /// The CSR co-hosts wait for the exact DFS's first use.
    pub fn rebind(&mut self, placement: &Placement, s: u16) {
        let n = usize::from(placement.num_nodes());
        let b = placement.num_objects();
        let r = placement.replicas_per_object();
        self.s = s;
        self.r = r;
        self.b = b;
        self.words = words_for(b);
        self.p = usize::from(u16::BITS as u16 - r.leading_zeros() as u16);
        self.tail = tail_mask(b);
        self.ge_off = self.p * self.words;
        self.eq_off = self.ge_off + self.words;
        self.rows_off = self.eq_off + self.words;
        // Pass 1: objects per node.
        self.csr_off.clear();
        self.csr_off.resize(n + 1, 0);
        for set in placement.rows() {
            for &nd in set {
                if let Some(count) = self.csr_off.get_mut(usize::from(nd) + 1) {
                    *count += 1;
                }
            }
        }
        // Prefix sum: csr_off[i] = start offset of node i's row.
        let mut acc = 0u32;
        for slot in self.csr_off.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
        // Every slot now holds its row's start (csr_off[0] = 0).
        self.cohosts_ready = false;
        self.arena.clear();
        self.arena.resize(self.rows_off + n * self.words, 0);
        // Pass 2 (streaming): objects in cache-sized chunks straight off
        // the placement's rows, ORing each chunk's bits into a 4 KiB
        // window of every row bitmap before the next chunk starts, with
        // the object's word/mask amortized over its `r` hosts.
        let words = self.words;
        let rows = self.arena.get_mut(self.rows_off..).unwrap_or(&mut []);
        let mut chunks = 0u32;
        for chunk_start in (0..b).step_by(OBJ_CHUNK) {
            chunks += 1;
            let chunk_end = (chunk_start + OBJ_CHUNK).min(b);
            for obj in chunk_start..chunk_end {
                let word = obj / WORD_BITS;
                let mask = 1u64 << (obj % WORD_BITS);
                for &nd in placement.row(obj).unwrap_or(&[]) {
                    if let Some(w) = rows.get_mut(usize::from(nd) * words + word) {
                        *w |= mask;
                    }
                }
            }
        }
        self.stats = BuildStats {
            chunks,
            buffers: REBIND_BUFFERS,
        };
        self.placement = Some(placement.clone());
        self.members.reset(n);
        self.failed = 0;
        self.reset_eq_sm1();
    }

    /// Fills the CSR co-hosts for the bound placement unless they are
    /// filled already (the exact DFS calls this before it searches;
    /// nothing else reads them). One pass over the placement's rows,
    /// dispatched once on `r` so the common replication factors fill
    /// with a constant row width.
    pub(crate) fn ensure_cohosts(&mut self) {
        if self.cohosts_ready {
            return;
        }
        let width = usize::from(self.r.saturating_sub(1));
        self.csr_cohosts.clear();
        self.csr_cohosts.resize(
            self.csr_off.last().copied().unwrap_or(0) as usize * width,
            0,
        );
        match self.r {
            0 | 1 => {} // no co-hosts
            2 => self.fill_cohosts(2),
            3 => self.fill_cohosts(3),
            4 => self.fill_cohosts(4),
            r => self.fill_cohosts(usize::from(r)),
        }
        self.cohosts_ready = true;
    }

    /// [`PackedCounts::ensure_cohosts`] for rows of `r ≥ 2` hosts: each
    /// entry's slots get the object's row without the entry's node,
    /// `csr_off[nd]` doubling as the cursor (rows come out in ascending
    /// object order because objects are visited in order) and shifted
    /// back to row starts afterwards. Always inlined, so each constant
    /// `r` of the dispatch gets its own unrolled copy.
    #[inline(always)]
    fn fill_cohosts(&mut self, r: usize) {
        let Some(placement) = self.placement.as_ref() else {
            return;
        };
        let width = r - 1;
        for row in placement.rows() {
            let Some(hosts) = row.get(..r) else { continue };
            for (i, &nd) in hosts.iter().enumerate() {
                let Some(cursor) = self.csr_off.get_mut(usize::from(nd)) else {
                    continue;
                };
                let at = *cursor as usize * width;
                *cursor += 1;
                if let Some(slots) = self.csr_cohosts.get_mut(at..at + width) {
                    let others = hosts.iter().enumerate().filter(|&(j, _)| j != i);
                    for (slot, (_, &c)) in slots.iter_mut().zip(others) {
                        *slot = c;
                    }
                }
            }
        }
        // Shift the cursors (now row ends) back into start offsets.
        let mut prev = 0u32;
        for slot in self.csr_off.iter_mut() {
            prev = std::mem::replace(slot, prev);
        }
    }

    /// Empties the failed set without touching the placement binding
    /// (`O(b/64)`).
    pub fn clear(&mut self) {
        let rows_off = self.rows_off;
        if let Some(front) = self.arena.get_mut(..rows_off) {
            front.fill(0);
        }
        self.members.clear();
        self.failed = 0;
        self.reset_eq_sm1();
    }

    /// Initializes the `hits = s − 1` bitmap for all-zero counters.
    fn reset_eq_sm1(&mut self) {
        let all = self.b as u64;
        let tail = self.tail;
        let eq = self
            .arena
            .get_mut(self.eq_off..self.rows_off)
            .unwrap_or(&mut []);
        if self.s == 1 {
            // Every object has 0 = s − 1 hits.
            eq.fill(!0u64);
            if let Some(last) = eq.last_mut() {
                *last &= tail;
            }
            self.eq_count = all;
        } else {
            eq.fill(0);
            self.eq_count = 0;
        }
    }

    /// The counter planes (`p × words`, plane-major) within the arena.
    #[inline]
    fn planes(&self) -> &[u64] {
        self.arena.get(..self.ge_off).unwrap_or(&[])
    }

    /// The maintained `hits ≥ s` mask within the arena.
    #[inline]
    fn ge_words(&self) -> &[u64] {
        self.arena.get(self.ge_off..self.eq_off).unwrap_or(&[])
    }

    /// Number of currently failed objects.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The accounting threshold `s`.
    #[must_use]
    pub fn threshold(&self) -> u16 {
        self.s
    }

    /// Objects in the bound placement.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.b
    }

    /// Nodes in the bound placement.
    #[must_use]
    pub fn num_nodes(&self) -> u16 {
        (self.csr_off.len().saturating_sub(1)) as u16
    }

    /// Telemetry from the last rebind (see [`BuildStats`]).
    #[must_use]
    pub fn build_stats(&self) -> BuildStats {
        self.stats
    }

    /// Load of `node` (CSR row length — no allocation, no scan).
    #[must_use]
    pub fn load(&self, node: u16) -> u32 {
        let i = usize::from(node);
        let lo = self.csr_off.get(i).copied().unwrap_or(0);
        let hi = self.csr_off.get(i + 1).copied().unwrap_or(lo);
        hi - lo
    }

    /// True if the node is currently in the failed set.
    #[must_use]
    pub fn contains(&self, node: u16) -> bool {
        self.members.contains(node)
    }

    /// The node's CSR row of co-hosts: for every object with a replica
    /// on `node` (ascending object order), that object's other `r − 1`
    /// hosts in ascending node order — `load(node) · (r − 1)` ids in
    /// one contiguous slice (empty at `r = 1`). Requires
    /// [`PackedCounts::ensure_cohosts`] since the last rebind.
    pub(crate) fn cohost_row(&self, node: u16) -> &[u16] {
        debug_assert!(self.cohosts_ready, "co-hosts read before ensure_cohosts");
        let stride = usize::from(self.r.saturating_sub(1));
        let i = usize::from(node);
        let lo = self.csr_off.get(i).copied().unwrap_or(0) as usize * stride;
        let hi = self.csr_off.get(i + 1).copied().unwrap_or(0) as usize * stride;
        self.csr_cohosts.get(lo..hi).unwrap_or(&[])
    }

    /// Replicas per object `r` of the bound placement.
    pub(crate) fn replicas_per_object(&self) -> u16 {
        self.r
    }

    /// Whether `obj` has a replica on `node` (bitmap probe, `O(1)`).
    #[must_use]
    pub fn node_hosts(&self, node: u16, obj: usize) -> bool {
        self.row_words(node)
            .get(obj / WORD_BITS)
            .is_some_and(|&w| w >> (obj % WORD_BITS) & 1 == 1)
    }

    /// The bound placement's rows, in object order.
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, u16> {
        self.placement
            .as_ref()
            .map_or_else(|| [].chunks_exact(1), Placement::rows)
    }

    /// The nodes hosting `obj`: its row of the bound placement.
    pub(crate) fn hosts_of(&self, obj: usize) -> &[u16] {
        self.placement
            .as_ref()
            .and_then(|p| p.row(obj))
            .unwrap_or(&[])
    }

    /// The node's object bitmap: one row slice of the arena.
    pub(crate) fn row_words(&self, node: u16) -> &[u64] {
        let start = self.rows_off + usize::from(node) * self.words;
        self.arena.get(start..start + self.words).unwrap_or(&[])
    }

    /// Current hit count of one object, gathered from the bit planes.
    #[must_use]
    pub fn hit_count(&self, obj: usize) -> u16 {
        let (w, sh) = (obj / WORD_BITS, obj % WORD_BITS);
        let mut v = 0u16;
        if self.words == 0 {
            return 0;
        }
        for (j, plane) in self.planes().chunks_exact(self.words).enumerate() {
            let bit = plane.get(w).map_or(0, |&x| x >> sh & 1);
            v |= (bit as u16) << j;
        }
        v
    }

    /// The maintained `hits = s − 1` bitmap (the gain mask).
    pub(crate) fn eq_sm1_words(&self) -> &[u64] {
        self.arena.get(self.eq_off..self.rows_off).unwrap_or(&[])
    }

    /// Writes the `hits = s` bitmap (objects that unfail if one of
    /// their failed hosts recovers) into `out`.
    pub(crate) fn eq_s_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words, 0);
        if self.s > self.r {
            return; // no object can reach s hits
        }
        let planes = self.planes();
        for (w, slot) in out.iter_mut().enumerate() {
            let mut eq = eq_word(planes, self.words, w, u64::from(self.s));
            if w + 1 == self.words {
                eq &= self.tail;
            }
            *slot = eq;
        }
    }

    /// Writes the "failable within `m` more failures" mask — objects
    /// with `s − m ≤ hits < s` — into `out`.
    pub(crate) fn failable_mask_into(&self, m: u16, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words, 0);
        if m == 0 {
            return;
        }
        let lo = self.s.saturating_sub(m);
        let planes = self.planes();
        for ((w, slot), &ge) in out.iter_mut().enumerate().zip(self.ge_words()) {
            let reachable = if lo == 0 {
                self.tail_masked(!0, w)
            } else if lo > self.r {
                0
            } else {
                ge_word(planes, self.words, w, u64::from(lo))
            };
            *slot = reachable & !ge;
        }
    }

    /// Popcount of `row(node) ∩ mask` — the workhorse of gain and loss
    /// queries (`O(b/64)`).
    pub(crate) fn and_popcount_row(&self, node: u16, mask: &[u64]) -> u64 {
        and_popcount(self.row_words(node), mask)
    }

    /// Raw membership words plus the valid-bit mask of the last word,
    /// for fully inlined complement scans in the hot search loops.
    pub(crate) fn member_words(&self) -> (&[u64], u64) {
        (self.members.words(), self.members.limit_mask())
    }

    /// The failed-node set itself, for branch-free membership reads
    /// ([`NodeSet::bit`]).
    pub(crate) fn members(&self) -> &NodeSet {
        &self.members
    }

    /// Applies the tail mask when `w` is the last word.
    fn tail_masked(&self, word: u64, w: usize) -> u64 {
        if w + 1 == self.words {
            word & self.tail
        } else {
            word
        }
    }

    /// Marks `node` failed: a ripple-carry add of its object bitmap
    /// into the counter planes, refreshing the derived masks block by
    /// block.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is already failed.
    pub fn add_node(&mut self, node: u16) {
        debug_assert!(!self.members.contains(node), "node already failed");
        self.members.insert(node);
        self.apply_node::<false>(node);
    }

    /// Unmarks `node`: a ripple-borrow subtract of its object bitmap.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is not currently failed.
    pub fn remove_node(&mut self, node: u16) {
        debug_assert!(self.members.contains(node), "node not failed");
        self.members.remove(node);
        self.apply_node::<true>(node);
    }

    /// The shared add/remove kernel: ripple-carry add (`SUB = false`)
    /// or borrow-subtract (`SUB = true`) of the node's object bitmap
    /// into the counter planes, refreshing the derived `hits ≥ s` /
    /// `hits = s − 1` masks and their maintained popcounts.
    ///
    /// Cache-blocked two-level loop: the outer level walks
    /// [`BLOCK_WORDS`]-word blocks — completing the carry propagation,
    /// mask derivation and popcount fold for one block of every
    /// plane/mask stream before moving on, and skipping blocks whose
    /// row window is all zero with a single streaming scan — while the
    /// inner level runs [`LANES`]-word groups whose plane updates lower
    /// to wide ops and whose popcount streams pipeline on independent
    /// accumulators.
    fn apply_node<const SUB: bool>(&mut self, node: u16) {
        let words = self.words;
        let s = self.s;
        let r = self.r;
        let tail = self.tail;
        let (ge_off, eq_off, rows_off) = (self.ge_off, self.eq_off, self.rows_off);
        let row_at = usize::from(node) * words;
        let mut failed = self.failed;
        let mut eq_count = self.eq_count;
        // One arena backs everything: split it into the mutable
        // planes-and-masks front and the read-only row region.
        let (front, rows) = self.arena.split_at_mut(rows_off);
        let row = rows.get(row_at..row_at + words).unwrap_or(&[]);
        let (planes, masks) = front.split_at_mut(ge_off);
        let (ge_s, eq_sm1) = masks.split_at_mut(eq_off - ge_off);
        for block_start in (0..words).step_by(BLOCK_WORDS) {
            let block_len = BLOCK_WORDS.min(words - block_start);
            let row_block = row.get(block_start..block_start + block_len).unwrap_or(&[]);
            // Whole-block sparsity skip: one sequential scan of the row
            // block is far cheaper than touching `p + 2` plane/mask
            // streams for a block the node hosts nothing in.
            if row_block.iter().all(|&x| x == 0) {
                continue;
            }
            let mut next = block_start;
            for bw in row_block.chunks(LANES) {
                let len = bw.len();
                let start = next;
                next += len;
                if bw.iter().all(|&x| x == 0) {
                    continue;
                }
                let mut carry = [0u64; LANES];
                for (c, &x) in carry.iter_mut().zip(bw) {
                    *c = x;
                }
                for plane in planes.chunks_exact_mut(words) {
                    let block = plane.get_mut(start..start + len).unwrap_or(&mut []);
                    for (t, c) in block.iter_mut().zip(carry.iter_mut()) {
                        let old = *t;
                        *t = old ^ *c;
                        *c &= if SUB { !old } else { old };
                    }
                }
                debug_assert!(
                    carry.iter().all(|&c| c == 0),
                    "hit counter escaped the 0..=r plane range"
                );
                let mut ge_block = [0u64; LANES];
                let mut eq_block = [0u64; LANES];
                derive_block(
                    planes,
                    words,
                    s,
                    r,
                    start,
                    len,
                    &mut ge_block,
                    &mut eq_block,
                );
                if start + len == words {
                    if let (Some(ge), Some(eq)) =
                        (ge_block.get_mut(len - 1), eq_block.get_mut(len - 1))
                    {
                        *ge &= tail;
                        *eq &= tail;
                    }
                }
                let ge_old = ge_s.get_mut(start..start + len).unwrap_or(&mut []);
                let eq_old = eq_sm1.get_mut(start..start + len).unwrap_or(&mut []);
                for (((go, eo), &gn), &en) in ge_old
                    .iter_mut()
                    .zip(eq_old.iter_mut())
                    .zip(ge_block.iter())
                    .zip(eq_block.iter())
                {
                    failed = failed + u64::from(gn.count_ones()) - u64::from(go.count_ones());
                    eq_count = eq_count + u64::from(en.count_ones()) - u64::from(eo.count_ones());
                    *go = gn;
                    *eo = en;
                }
            }
        }
        self.failed = failed;
        self.eq_count = eq_count;
    }

    /// Failed objects if `node` were added, without mutating: one AND +
    /// popcount pass over the maintained `hits = s − 1` mask.
    #[must_use]
    pub fn gain(&self, node: u16) -> u64 {
        debug_assert!(!self.members.contains(node));
        self.and_popcount_row(node, self.eq_sm1_words())
    }

    /// Admissible upper bound on the number of *additional* objects
    /// that could fail if `m` more nodes fail: objects needing at most
    /// `m` more replica hits (a comparator sweep over the planes).
    #[must_use]
    pub fn failable_within(&self, m: u16) -> u64 {
        if m == 0 {
            return 0;
        }
        let lo = self.s.saturating_sub(m);
        if lo == 0 {
            return self.b as u64 - self.failed;
        }
        if m == 1 {
            // hist[s − 1] is the maintained eq-count: O(1), the case
            // the exact DFS hits on every pair and bottom frame.
            return self.eq_count;
        }
        if lo > self.r {
            return 0;
        }
        let planes = self.planes();
        let mut reach = 0u64;
        for w in 0..self.words {
            reach += u64::from(ge_word(planes, self.words, w, u64::from(lo)).count_ones());
        }
        reach - self.failed
    }

    /// The current failed-node set (sorted).
    #[must_use]
    pub fn nodes(&self) -> Vec<u16> {
        self.members.iter_present().collect()
    }
}

/// Derives the `(hits ≥ s, hits = s − 1)` masks for `len ≤ LANES` words
/// starting at `start`, lane-parallel through the `s = 1` / `s = 2` fast
/// paths and word-at-a-time through the general comparator circuit.
/// Only the first `len` lanes of the outputs are meaningful, and tail
/// masking of the final word is the caller's job.
#[allow(clippy::too_many_arguments)]
fn derive_block(
    planes: &[u64],
    words: usize,
    s: u16,
    r: u16,
    start: usize,
    len: usize,
    ge_out: &mut [u64; LANES],
    eq_out: &mut [u64; LANES],
) {
    match s {
        1 => {
            let mut any = [0u64; LANES];
            for plane in planes.chunks_exact(words) {
                let block = plane.get(start..start + len).unwrap_or(&[]);
                for (a, &x) in any.iter_mut().zip(block) {
                    *a |= x;
                }
            }
            for ((ge, eq), &a) in ge_out.iter_mut().zip(eq_out.iter_mut()).zip(any.iter()) {
                *ge = a;
                *eq = !a;
            }
        }
        2 => {
            let mut chunks = planes.chunks_exact(words);
            let x0 = chunks
                .next()
                .and_then(|plane| plane.get(start..start + len))
                .unwrap_or(&[]);
            let mut hi = [0u64; LANES];
            for plane in chunks {
                let block = plane.get(start..start + len).unwrap_or(&[]);
                for (h, &x) in hi.iter_mut().zip(block) {
                    *h |= x;
                }
            }
            for (((ge, eq), &h), &x) in ge_out
                .iter_mut()
                .zip(eq_out.iter_mut())
                .zip(hi.iter())
                .zip(x0)
            {
                *ge = h;
                *eq = x & !h;
            }
        }
        s => {
            let sv = u64::from(s);
            for (i, (ge, eq)) in ge_out
                .iter_mut()
                .zip(eq_out.iter_mut())
                .take(len)
                .enumerate()
            {
                let w = start + i;
                *ge = if u64::from(r) < sv {
                    0
                } else {
                    ge_word(planes, words, w, sv)
                };
                *eq = if u64::from(r) < sv - 1 {
                    0
                } else {
                    eq_word(planes, words, w, sv - 1)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_core::Placement;

    fn sample() -> Placement {
        Placement::new(
            6,
            3,
            vec![vec![0, 1, 2], vec![0, 1, 3], vec![3, 4, 5], vec![0, 4, 5]],
        )
        .unwrap()
    }

    #[test]
    fn rebind_matches_fresh_construction() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 2);
        fc.add_node(0);
        fc.add_node(4);
        // Rebind to a differently shaped placement and compare against a
        // fresh build observationally.
        let q = Placement::new(4, 2, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        fc.rebind(&q, 1);
        let fresh = FailureCounts::new(&q, 1);
        assert_eq!(fc.failed(), fresh.failed());
        assert_eq!(fc.nodes(), fresh.nodes());
        for nd in 0..4u16 {
            assert_eq!(fc.gain(nd), fresh.gain(nd), "node {nd}");
        }
        fc.add_node(1);
        assert_eq!(fc.failed(), q.failed_objects(&[1], 1));
        // Rebind back to the original, including shrinking the index.
        fc.rebind(&p, 2);
        fc.add_node(0);
        fc.add_node(1);
        assert_eq!(fc.failed(), p.failed_objects(&[0, 1], 2));
    }

    #[test]
    fn clear_resets_membership_and_histogram() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 2);
        fc.add_node(0);
        fc.add_node(5);
        fc.clear();
        assert_eq!(fc.failed(), 0);
        assert_eq!(fc.nodes(), Vec::<u16>::new());
        assert_eq!(fc.failable_within(2), 4);
        fc.add_node(0);
        fc.add_node(1);
        assert_eq!(fc.failed(), p.failed_objects(&[0, 1], 2));
    }

    #[test]
    fn add_remove_roundtrip() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 2);
        fc.add_node(0);
        fc.add_node(1);
        assert_eq!(fc.failed(), 2);
        assert_eq!(fc.failed(), p.failed_objects(&[0, 1], 2));
        fc.remove_node(1);
        fc.add_node(4);
        assert_eq!(fc.failed(), p.failed_objects(&[0, 4], 2));
        fc.remove_node(0);
        fc.remove_node(4);
        assert_eq!(fc.failed(), 0);
        assert_eq!(fc.nodes(), Vec::<u16>::new());
    }

    #[test]
    fn gain_matches_actual_add() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 2);
        fc.add_node(0);
        for nd in 1..6u16 {
            let predicted = fc.gain(nd);
            let before = fc.failed();
            fc.add_node(nd);
            assert_eq!(fc.failed() - before, predicted, "node {nd}");
            fc.remove_node(nd);
        }
    }

    #[test]
    fn failable_bound_is_admissible() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 3);
        fc.add_node(0);
        // With m more failures, no more than failable_within(m) additional
        // objects can fail — check against exhaustive continuation.
        for m in 0..=3u16 {
            let bound = fc.failable_within(m);
            let mut best_extra = 0;
            for subset in wcp_combin::KSubsets::new(6, m) {
                if subset.contains(&0) {
                    continue;
                }
                let mut all = subset.clone();
                all.push(0);
                let total = p.failed_objects(&all, 3);
                best_extra = best_extra.max(total - fc.failed());
            }
            assert!(
                bound >= best_extra,
                "m={m}: bound {bound} < actual {best_extra}"
            );
        }
    }

    #[test]
    fn histogram_tracks_partial_hits() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 3);
        assert_eq!(fc.failable_within(3), 4);
        assert_eq!(fc.failable_within(0), 0);
        fc.add_node(0); // objects 0,1,3 now at 1 hit
        assert_eq!(fc.failable_within(2), 3);
        assert_eq!(fc.failable_within(1), 0);
    }

    /// Exhaustively mirrors every scalar observable on the packed
    /// kernel over all add/remove walks of the sample placement.
    fn assert_backends_agree(fc: &FailureCounts, pc: &PackedCounts, p: &Placement, ctx: &str) {
        assert_eq!(pc.failed(), fc.failed(), "{ctx}: failed");
        assert_eq!(pc.nodes(), fc.nodes(), "{ctx}: nodes");
        for m in 0..=4u16 {
            assert_eq!(
                pc.failable_within(m),
                fc.failable_within(m),
                "{ctx}: failable_within({m})"
            );
        }
        for nd in 0..p.num_nodes() {
            assert_eq!(pc.contains(nd), fc.contains(nd), "{ctx}: contains({nd})");
            if !fc.contains(nd) {
                assert_eq!(pc.gain(nd), fc.gain(nd), "{ctx}: gain({nd})");
            }
        }
    }

    #[test]
    fn packed_matches_scalar_on_every_walk() {
        let p = sample();
        for s in 1..=4u16 {
            let mut fc = FailureCounts::new(&p, s);
            let mut pc = PackedCounts::new(&p, s);
            assert_backends_agree(&fc, &pc, &p, &format!("s={s} empty"));
            // Grow 0..=5 then shrink back, checking at every step.
            for nd in 0..6u16 {
                fc.add_node(nd);
                pc.add_node(nd);
                assert_backends_agree(&fc, &pc, &p, &format!("s={s} add {nd}"));
            }
            for nd in (0..6u16).rev() {
                fc.remove_node(nd);
                pc.remove_node(nd);
                assert_backends_agree(&fc, &pc, &p, &format!("s={s} remove {nd}"));
            }
        }
    }

    #[test]
    fn packed_rebind_and_clear_match_scalar() {
        let p = sample();
        let mut fc = FailureCounts::new(&p, 2);
        let mut pc = PackedCounts::new(&p, 2);
        fc.add_node(0);
        pc.add_node(0);
        fc.clear();
        pc.clear();
        assert_backends_agree(&fc, &pc, &p, "after clear");
        let q = Placement::new(4, 2, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        fc.rebind(&q, 1);
        pc.rebind(&q, 1);
        fc.add_node(1);
        pc.add_node(1);
        assert_backends_agree(&fc, &pc, &q, "after rebind");
        assert_eq!(pc.failed(), q.failed_objects(&[1], 1));
    }

    #[test]
    fn packed_csr_and_loads_mirror_placement() {
        let p = sample();
        let mut pc = PackedCounts::new(&p, 2);
        assert_eq!(pc.num_nodes(), 6);
        assert_eq!(pc.num_objects(), 4);
        assert_eq!(pc.threshold(), 2);
        // A rebind to another placement of the same shape must refill
        // the co-hosts on their next use.
        let q = Placement::new(
            6,
            3,
            vec![vec![1, 2, 5], vec![0, 3, 4], vec![0, 2, 4], vec![1, 3, 5]],
        )
        .unwrap();
        for placement in [&p, &q, &p] {
            pc.rebind(placement, 2);
            pc.ensure_cohosts();
            let loads = placement.cached_loads();
            let nested = placement.objects_by_node();
            for nd in 0..6u16 {
                assert_eq!(pc.load(nd), loads[usize::from(nd)], "load({nd})");
                // Each entry is the hosted object's row without `nd`, in
                // ascending object order.
                let expected: Vec<u16> = nested[usize::from(nd)]
                    .iter()
                    .flat_map(|&obj| placement.replicas(obj as usize).iter().copied())
                    .filter(|&c| c != nd)
                    .collect();
                assert_eq!(pc.cohost_row(nd), expected.as_slice(), "cohosts({nd})");
                for obj in 0..4 {
                    assert_eq!(
                        pc.node_hosts(nd, obj),
                        placement.replicas(obj).contains(&nd),
                        "hosts({nd}, {obj})"
                    );
                }
            }
        }
    }

    #[test]
    fn cohost_rows_are_empty_at_one_replica() {
        let p = Placement::new(3, 1, vec![vec![0], vec![2], vec![0]]).unwrap();
        let mut pc = PackedCounts::new(&p, 1);
        pc.ensure_cohosts();
        assert_eq!(pc.load(0), 2);
        for nd in 0..3u16 {
            assert!(pc.cohost_row(nd).is_empty(), "cohosts({nd})");
        }
    }

    #[test]
    fn packed_hit_counts_are_exact() {
        // Spans a word boundary: 70 objects on 7 nodes.
        let sets: Vec<Vec<u16>> = (0..70u16).map(|o| vec![o % 7, 7 + o % 3]).collect();
        let sets = sets
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        let p = Placement::new(10, 2, sets).unwrap();
        let mut pc = PackedCounts::new(&p, 2);
        let mut fc = FailureCounts::new(&p, 2);
        for nd in [0u16, 7, 3, 8] {
            pc.add_node(nd);
            fc.add_node(nd);
        }
        assert_backends_agree(&fc, &pc, &p, "word-boundary");
        for obj in 0..70usize {
            let expected = p
                .replicas(obj)
                .iter()
                .filter(|&&nd| pc.contains(nd))
                .count() as u16;
            assert_eq!(pc.hit_count(obj), expected, "hit_count({obj})");
        }
    }

    #[test]
    fn streaming_build_uses_chunks_and_constant_buffers() {
        // The streaming CSR contract: pass 2 runs in ⌈b / OBJ_CHUNK⌉
        // chunks, and the number of heap buffers behind the build is a
        // constant — independent of both n and b, i.e. never the
        // per-node vector-of-vectors a naive inverted-index build
        // materializes.
        let shapes = [(8u16, 70u64), (64, 500), (640, 40_000)];
        let mut stats = Vec::new();
        for &(n, b) in &shapes {
            let sets: Vec<Vec<u16>> = (0..b)
                .map(|o| {
                    let mut s = vec![(o % u64::from(n)) as u16, ((o + 1) % u64::from(n)) as u16];
                    s.sort_unstable();
                    s
                })
                .collect();
            let p = Placement::new(n, 2, sets).unwrap();
            let pc = PackedCounts::new(&p, 2);
            let st = pc.build_stats();
            assert_eq!(
                st.chunks,
                (b as usize).div_ceil(OBJ_CHUNK) as u32,
                "n={n} b={b}"
            );
            stats.push(st.buffers);
        }
        // Same buffer count at n = 8 and n = 640: O(1), not O(n).
        assert!(stats.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(stats[0], REBIND_BUFFERS);
    }

    #[test]
    fn blocked_updates_match_scalar_across_block_boundary() {
        // A shape wider than one LANES group with loads concentrated so
        // whole-block skips trigger: packed must still mirror scalar.
        let b = 9 * 64 + 7; // 583 objects, 10 words
        let sets: Vec<Vec<u16>> = (0..b as u64)
            .map(|o| {
                let lo = (o % 5) as u16;
                let hi = 5 + (o / 120) as u16;
                vec![lo, hi.clamp(5, 9)]
            })
            .map(|mut s| {
                s.sort_unstable();
                s
            })
            .collect();
        let p = Placement::new(10, 2, sets).unwrap();
        for s in 1..=2u16 {
            let mut fc = FailureCounts::new(&p, s);
            let mut pc = PackedCounts::new(&p, s);
            for nd in [5u16, 0, 9, 2] {
                fc.add_node(nd);
                pc.add_node(nd);
                assert_backends_agree(&fc, &pc, &p, &format!("s={s} add {nd}"));
            }
            for nd in [0u16, 9] {
                fc.remove_node(nd);
                pc.remove_node(nd);
                assert_backends_agree(&fc, &pc, &p, &format!("s={s} remove {nd}"));
            }
        }
    }
}

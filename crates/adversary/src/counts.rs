//! Incremental failure accounting shared by all adversaries: the scalar
//! reference backend ([`FailureCounts`]) and the hit-level tables
//! ([`PackedCounts`]) every rung of the production ladder runs on.

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

/// The failure accounting every rung of the production ladder runs on:
/// per node, how many of its objects sit at each hit level.
///
/// Observationally identical to [`FailureCounts`] (the scalar backend
/// stays as the differential-test oracle), but it never stores a hit
/// count per object. It holds the paper's own quantities instead:
///
/// * the inverted index in **CSR form** — an `n + 1` offset array plus
///   one flat array holding, for every (node, hosted object) entry, the
///   object's *other* `r − 1` hosts (`u16`; at `r = 3` about 12 B per
///   object). A node's *co-host row* is one contiguous slice, and an
///   object's hit count is the number of its failed co-hosts plus one
///   if the row's node is failed, so every update streams one row and
///   never needs an object id. Per-node loads fall out of the offsets;
/// * the failed set (one `0`/`1` byte per node, summed straight into
///   hit counts by the row passes), and `hist[h]`, the objects at `h`
///   hits (`h = 0..=r`): the failed count is the histogram's tail from
///   `s`, and the objects failable within `m` more failures are its
///   levels `s − m ..= s − 1`, clamped to `0..=r`;
/// * the **level rows** `levels[nd·(r+1) + h] = |row(nd) ∩ {hits = h}|`
///   for every node outside the failed set — a node's gain is its level
///   `s − 1`, its hit supply within `m` more failures the sum of its
///   levels `s − m ..= s − 1`, and what it exposes to a pair partner
///   its level `s − 2`;
/// * for the exact DFS only, the **pair matrix** `pair[lo·n + hi]` for
///   node pair `lo < hi`: `+1` per object at `hits = s − 2` hosted by
///   both, `−1` per object at `hits = s − 1` hosted by both — exactly
///   `gain({x, y}) − gain(x) − gain(y)`.
///
/// [`PackedCounts::add_node`] streams the node's co-host row once,
/// moving each object's co-hosts one level up, and moves the histogram
/// by the node's own row. [`PackedCounts::remove_node`] is valid in any
/// order: a failed node's own row drifts while later adds shift it, so
/// the remove rebuilds that row in the same pass that moves the
/// co-hosts and the histogram down. Both cost `O(load·r)`; a remove
/// that empties the set resets the tables instead when that writes
/// fewer words. Only the exact DFS moves the pair matrix, and it
/// removes nodes in reverse order of adding them, so the balanced
/// shifts restore it exactly.
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
    /// The threshold `s`.
    s: usize,
    /// Levels per node (`r + 1`).
    stride: usize,
    /// Objects.
    b: usize,
    /// Nodes (the pair matrix's row length).
    n: usize,
    /// CSR inverted index: offsets (`n + 1`, in objects) and, per
    /// entry, the object's other `r − 1` hosts in row order.
    csr_off: Vec<u32>,
    csr_cohosts: Vec<u16>,
    /// The bound placement (an O(1) clone sharing its rows), read by
    /// the pair-matrix build.
    placement: Option<Placement>,
    levels: Vec<u32>,
    hist: Vec<u64>,
    /// `1` per failed node, `0` otherwise.
    members: Vec<u8>,
    /// Nodes in `members`.
    depth: usize,
    /// The pair matrix, empty until [`PackedCounts::ensure_pairs`].
    pair: Vec<i32>,
    /// `pair` at the empty failed set.
    empty_pair: Vec<i32>,
}

impl PackedCounts {
    /// Builds the accounting for a placement at threshold `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s = 0`.
    #[must_use]
    pub fn new(placement: &Placement, s: u16) -> Self {
        let mut pc = Self::default();
        pc.rebind(placement, s);
        pc
    }

    /// Rebinds to another placement/threshold at the empty failed set,
    /// reusing every allocation. The packed analogue of
    /// [`FailureCounts::rebind`].
    ///
    /// Two passes over the placement's flat rows: the first counts
    /// objects per node (the CSR offsets), the second writes each
    /// entry's co-hosts, dispatched once on `r` so the common
    /// replication factors fill with a constant row width. No
    /// intermediate `Vec<Vec<u32>>` is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if `s = 0`: no accounting defines a failure at zero hits.
    pub fn rebind(&mut self, placement: &Placement, s: u16) {
        assert!(s >= 1, "s must be ≥ 1");
        let n = usize::from(placement.num_nodes());
        let r = usize::from(placement.replicas_per_object());
        self.s = usize::from(s);
        self.stride = r + 1;
        self.b = placement.num_objects();
        self.n = n;
        self.placement = Some(placement.clone());
        // Pass 1: objects per node, prefix-summed into row starts.
        self.csr_off.clear();
        self.csr_off.resize(n + 1, 0);
        for set in placement.rows() {
            for &nd in set {
                if let Some(count) = self.csr_off.get_mut(usize::from(nd) + 1) {
                    *count += 1;
                }
            }
        }
        let mut acc = 0u32;
        for slot in self.csr_off.iter_mut() {
            acc += *slot;
            *slot = acc;
        }
        // Pass 2: the co-host rows.
        self.csr_cohosts.clear();
        self.csr_cohosts
            .resize(acc as usize * r.saturating_sub(1), 0);
        match r {
            0 | 1 => {} // no co-hosts
            2 => self.fill_cohosts(2),
            3 => self.fill_cohosts(3),
            4 => self.fill_cohosts(4),
            r => self.fill_cohosts(r),
        }
        self.reset();
        self.pair.clear();
        self.empty_pair.clear();
    }

    /// The co-host pass of [`PackedCounts::rebind`] for rows of
    /// `r ≥ 2` hosts: each entry's slots get the object's row without
    /// the entry's node, `csr_off[nd]` doubling as the cursor (rows come
    /// out in ascending object order because objects are visited in
    /// order) and shifted back to row starts afterwards. Always inlined,
    /// so each constant `r` of the dispatch gets its own unrolled copy.
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

    /// Resets the level rows and the histogram to the empty failed set
    /// (every object at level 0) and empties the set; the pair matrix,
    /// which only the exact DFS moves and restores, is left alone.
    fn reset(&mut self) {
        self.levels.clear();
        self.levels.resize(self.n * self.stride, 0);
        for (i, row) in self.levels.chunks_exact_mut(self.stride).enumerate() {
            if let (Some(level0), Some(&[lo, hi])) = (row.first_mut(), self.csr_off.get(i..i + 2)) {
                *level0 = hi - lo;
            }
        }
        self.hist.clear();
        self.hist.resize(self.stride, 0);
        if let Some(h0) = self.hist.first_mut() {
            *h0 = self.b as u64;
        }
        self.members.clear();
        self.members.resize(self.n, 0);
        self.depth = 0;
    }

    /// Builds the pair matrix of the empty failed set unless it is
    /// built already for this binding (only searches with `k ≥ 2` read
    /// it). Must be called with an empty failed set.
    pub(crate) fn ensure_pairs(&mut self) {
        debug_assert_eq!(self.depth, 0, "pair matrix built off the empty set");
        if !self.pair.is_empty() {
            return;
        }
        self.pair.resize(self.n * self.n, 0);
        let w0 = pair_weight(0, self.s);
        match self.stride - 1 {
            2 => self.count_pairs(w0, 2),
            3 => self.count_pairs(w0, 3),
            4 => self.count_pairs(w0, 4),
            r => self.count_pairs(w0, r),
        }
        self.empty_pair.clone_from(&self.pair);
    }

    /// Adds `w0` to the pair entry of every two hosts sharing an object:
    /// one pass over the placement's rows of `r` hosts. Always inlined,
    /// so each constant `r` of [`PackedCounts::ensure_pairs`] gets its
    /// own unrolled copy.
    #[inline(always)]
    fn count_pairs(&mut self, w0: i32, r: usize) {
        let Some(placement) = self.placement.as_ref() else {
            return;
        };
        if w0 == 0 {
            return;
        }
        for row in placement.rows() {
            // Rows are ascending: `a < b` is the canonical order.
            let Some(hosts) = row.get(..r) else { continue };
            for (i, &a) in hosts.iter().enumerate() {
                let at = usize::from(a) * self.n;
                for &b in hosts.get(i + 1..).unwrap_or(&[]) {
                    if let Some(slot) = self.pair.get_mut(at + usize::from(b)) {
                        *slot += w0;
                    }
                }
            }
        }
    }

    /// Empties the failed set without touching the placement binding
    /// (`O(n·r)`; free when the set is empty already).
    pub fn clear(&mut self) {
        if self.depth > 0 {
            self.reset();
        }
    }

    /// Number of currently failed objects.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.hist.get(self.s..).map_or(0, |t| t.iter().sum())
    }

    /// The accounting threshold `s`.
    #[must_use]
    pub fn threshold(&self) -> u16 {
        self.s as u16
    }

    /// Objects in the bound placement.
    #[must_use]
    pub fn num_objects(&self) -> usize {
        self.b
    }

    /// Nodes in the bound placement.
    #[must_use]
    pub fn num_nodes(&self) -> u16 {
        self.n as u16
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
        flag(&self.members, node) == 1
    }

    /// The node's CSR row of co-hosts: for every object with a replica
    /// on `node` (ascending object order), that object's other `r − 1`
    /// hosts in ascending node order — `load(node) · (r − 1)` ids in
    /// one contiguous slice (empty at `r = 1`).
    pub(crate) fn cohost_row(&self, node: u16) -> &[u16] {
        cohost_row(&self.csr_off, &self.csr_cohosts, self.stride, node)
    }

    /// The failed set as one `0`/`1` byte per node, for inlined
    /// complement scans in the hot search loops.
    pub(crate) fn members(&self) -> &[u8] {
        &self.members
    }

    /// The failed nodes, ascending.
    pub(crate) fn iter_members(&self) -> impl Iterator<Item = u16> + '_ {
        (self.members.iter().enumerate()).filter_map(|(nd, &f)| (f == 1).then_some(nd as u16))
    }

    /// `|row(nd) ∩ {hits = h}|` for a node outside the failed set; `0`
    /// for levels above `r`.
    #[inline]
    pub(crate) fn level(&self, nd: u16, h: usize) -> u64 {
        if h >= self.stride {
            return 0;
        }
        self.levels
            .get(usize::from(nd) * self.stride + h)
            .map_or(0, |&c| u64::from(c))
    }

    /// Failed objects if `node` were added, without mutating: its level
    /// `s − 1`.
    #[must_use]
    #[inline]
    pub fn gain(&self, node: u16) -> u64 {
        debug_assert!(!self.contains(node));
        self.s.checked_sub(1).map_or(0, |h| self.level(node, h))
    }

    /// Objects `nd` would move into the gain set (level `s − 2`), the
    /// most it can add to a pair partner's gain.
    #[inline]
    pub(crate) fn exposure(&self, nd: u16) -> u64 {
        self.s.checked_sub(2).map_or(0, |h| self.level(nd, h))
    }

    /// `|row(nd) ∩ {s − m ≤ hits < s}|`: the hits `nd` can supply to
    /// objects still failable within `m` more failures.
    pub(crate) fn supply(&self, nd: u16, m: u16) -> u64 {
        let lo = self.s.saturating_sub(usize::from(m));
        (lo..self.s).map(|h| self.level(nd, h)).sum()
    }

    /// `gain({x, y}) − gain(x) − gain(y)` for two distinct nodes outside
    /// the failed set (requires [`PackedCounts::ensure_pairs`]).
    #[inline]
    pub(crate) fn correction(&self, x: u16, y: u16) -> i32 {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        self.pair
            .get(usize::from(lo) * self.n + usize::from(hi))
            .copied()
            .unwrap_or(0)
    }

    /// Admissible upper bound on the number of *additional* objects
    /// that could fail if `m` more nodes fail: objects needing at most
    /// `m` more replica hits — histogram levels `s − m ..= s − 1`.
    #[must_use]
    pub fn failable_within(&self, m: u16) -> u64 {
        let lo = self.s.saturating_sub(usize::from(m));
        self.hist
            .get(lo..self.s.min(self.stride))
            .map_or(0, |t| t.iter().sum())
    }

    /// The current failed-node set (sorted).
    #[must_use]
    pub fn nodes(&self) -> Vec<u16> {
        self.iter_members().collect()
    }

    /// Marks `node` failed.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is already failed.
    pub fn add_node(&mut self, node: u16) {
        self.push::<false>(node);
    }

    /// Unmarks `node`, whichever member it is.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the node is not currently failed.
    pub fn remove_node(&mut self, node: u16) {
        self.remove::<false>(node);
    }

    /// Adds `nd` to the failed set: the histogram moves by `nd`'s own
    /// row (exact, since `nd` is outside the set), and one pass over its
    /// co-host row moves every co-host one level up — and, with
    /// `PAIRS`, every co-host pair's correction by the weight change.
    pub(crate) fn push<const PAIRS: bool>(&mut self, nd: u16) {
        debug_assert!(!self.contains(nd), "node already failed");
        let at = usize::from(nd) * self.stride;
        for h in 0..self.stride.saturating_sub(1) {
            let moved = self.levels.get(at + h).map_or(0, |&c| u64::from(c));
            if let Some([from, to]) = self.hist.get_mut(h..h + 2) {
                *from -= moved;
                *to += moved;
            }
        }
        match self.stride.saturating_sub(2) {
            0 => {} // r = 1: objects have no co-hosts
            1 => self.shift_up::<PAIRS>(nd, 1),
            2 => self.shift_up::<PAIRS>(nd, 2),
            3 => self.shift_up::<PAIRS>(nd, 3),
            width => self.shift_up::<PAIRS>(nd, width),
        }
        if let Some(f) = self.members.get_mut(usize::from(nd)) {
            *f = 1;
        }
        self.depth += 1;
    }

    /// [`PackedCounts::push`]'s pass over co-host rows of
    /// `width = r − 1`: an object's hit level is the number of its failed
    /// co-hosts, each co-host's count moves from that level to the next,
    /// and each co-host pair's correction moves by the weight difference
    /// of the two levels — one branch-free pass. Co-host rows of failed
    /// nodes drift (wrapping) and are rebuilt when those nodes leave.
    /// Always inlined, so each constant `width` gets its own unrolled
    /// copy.
    #[inline(always)]
    fn shift_up<const PAIRS: bool>(&mut self, nd: u16, width: usize) {
        let Self {
            stride,
            n,
            s,
            csr_off,
            csr_cohosts,
            levels,
            members,
            pair,
            ..
        } = self;
        let (stride, n, s) = (*stride, *n, *s);
        for co in cohost_row(csr_off, csr_cohosts, stride, nd).chunks_exact(width) {
            let h = co.iter().map(|&c| flag(members, c)).sum::<usize>();
            for &c in co {
                let at = usize::from(c) * stride + h;
                if let Some([from, to]) = levels.get_mut(at..at + 2) {
                    *from = from.wrapping_sub(1);
                    *to = to.wrapping_add(1);
                }
            }
            if PAIRS {
                shift_pairs(pair, n, co, pair_weight(h + 1, s) - pair_weight(h, s));
            }
        }
    }

    /// Removes `nd` from the failed set, in any order. A remove that
    /// empties the set resets the tables — the pair matrix from the copy
    /// [`PackedCounts::ensure_pairs`] keeps — when that writes fewer
    /// words than the pass would update: `n·(r + 1)` (plus `n²` with
    /// `PAIRS`) against `load·(r − 1)` level updates (plus
    /// `load·C(r − 1, 2)` pair updates).
    pub(crate) fn remove<const PAIRS: bool>(&mut self, nd: u16) {
        debug_assert!(self.contains(nd), "node not failed");
        if let Some(f) = self.members.get_mut(usize::from(nd)) {
            *f = 0;
        }
        self.depth -= 1;
        let width = self.stride.saturating_sub(2);
        let load = self.load(nd) as usize;
        let pairs = usize::from(PAIRS && !self.pair.is_empty());
        let reset = self.n * (self.stride + pairs * self.n);
        let pass = load * (width + pairs * width * width.saturating_sub(1) / 2);
        if self.depth == 0 && reset < pass {
            self.reset();
            if PAIRS {
                self.pair.clone_from(&self.empty_pair);
            }
            return;
        }
        match width {
            // r = 1: every object on `nd` drops back to level 0.
            0 => {
                let at = usize::from(nd) * self.stride;
                if let Some(row) = self.levels.get_mut(at..at + 2) {
                    row.copy_from_slice(&[load as u32, 0]);
                }
            }
            1 => self.shift_down::<PAIRS>(nd, 1),
            2 => self.shift_down::<PAIRS>(nd, 2),
            3 => self.shift_down::<PAIRS>(nd, 3),
            width => self.shift_down::<PAIRS>(nd, width),
        }
        // The rebuilt row counts `nd`'s objects by their new level `h`;
        // each had `h + 1` hits.
        let at = usize::from(nd) * self.stride;
        for h in 0..self.stride.saturating_sub(1) {
            let moved = self.levels.get(at + h).map_or(0, |&c| u64::from(c));
            if let Some([to, from]) = self.hist.get_mut(h..h + 2) {
                *from -= moved;
                *to += moved;
            }
        }
    }

    /// [`PackedCounts::remove`]'s pass over co-host rows of
    /// `width = r − 1`, with `nd` already out of the set: each object
    /// drops from `h + 1` hits to `h`, its failed co-host count, in
    /// every co-host's row and (with `PAIRS`) in every co-host pair's
    /// correction, and `nd`'s own row is rebuilt from the `h`s.
    #[inline(always)]
    fn shift_down<const PAIRS: bool>(&mut self, nd: u16, width: usize) {
        let Self {
            stride,
            n,
            s,
            csr_off,
            csr_cohosts,
            levels,
            members,
            pair,
            ..
        } = self;
        let (stride, n, s) = (*stride, *n, *s);
        let own = usize::from(nd) * stride;
        if let Some(row) = levels.get_mut(own..own + stride) {
            row.fill(0);
        }
        for co in cohost_row(csr_off, csr_cohosts, stride, nd).chunks_exact(width) {
            let h = co.iter().map(|&c| flag(members, c)).sum::<usize>();
            for &c in co {
                let at = usize::from(c) * stride + h;
                if let Some([to, from]) = levels.get_mut(at..at + 2) {
                    *from = from.wrapping_sub(1);
                    *to = to.wrapping_add(1);
                }
            }
            if let Some(slot) = levels.get_mut(own + h) {
                *slot += 1;
            }
            if PAIRS {
                shift_pairs(pair, n, co, pair_weight(h, s) - pair_weight(h + 1, s));
            }
        }
    }

    /// Objects the uncovered `leaves` (outside the failed set, marked `1`
    /// in `open`) fail if they join the set together, without mutating: an
    /// object on one of them that has not failed yet fails once its
    /// failed co-hosts plus the leaves hosting it reach `s`. Each object
    /// is counted at its lowest-numbered host among `leaves`.
    pub(crate) fn gain_of(&self, leaves: &[u16], open: &[u8]) -> u64 {
        match self.stride.saturating_sub(2) {
            0 => {
                // r = 1: an object fails with its one host iff s = 1.
                let loads = leaves.iter().map(|&nd| u64::from(self.load(nd)));
                if self.s == 1 {
                    loads.sum()
                } else {
                    0
                }
            }
            1 => self.joint_gain(leaves, open, 1),
            2 => self.joint_gain(leaves, open, 2),
            3 => self.joint_gain(leaves, open, 3),
            width => self.joint_gain(leaves, open, width),
        }
    }

    /// [`PackedCounts::gain_of`] over co-host rows of `width = r − 1`.
    #[inline(always)]
    fn joint_gain(&self, leaves: &[u16], open: &[u8], width: usize) -> u64 {
        let (members, s) = (&self.members, self.s);
        let mut gain = 0;
        for &leaf in leaves {
            for co in self.cohost_row(leaf).chunks_exact(width) {
                let (mut h, mut joined, mut earlier) = (0, 1, 0);
                for &c in co {
                    let inside = flag(open, c);
                    h += flag(members, c);
                    joined += inside;
                    earlier += inside & usize::from(c < leaf);
                }
                gain += u64::from(earlier == 0 && h < s && h + joined >= s);
            }
        }
        gain
    }

    /// The climb's swap valuation for member `out`: returns the objects
    /// that recover if `out` leaves the set (those at exactly `s`
    /// hits), and adds to `delta[c]` for every co-host `c` how its gain
    /// changes when `out` leaves — `+1` per shared object at `s` hits,
    /// `−1` per shared object at `s − 1`. One pass over `out`'s co-host
    /// row.
    pub(crate) fn swap_deltas(&self, out: u16, delta: &mut [i64]) -> u64 {
        match self.stride.saturating_sub(2) {
            // r = 1: `out`'s objects sit at one hit and share no host.
            0 => {
                if self.s == 1 {
                    u64::from(self.load(out))
                } else {
                    0
                }
            }
            1 => self.scan_swap(out, delta, 1),
            2 => self.scan_swap(out, delta, 2),
            3 => self.scan_swap(out, delta, 3),
            width => self.scan_swap(out, delta, width),
        }
    }

    /// [`PackedCounts::swap_deltas`] over co-host rows of
    /// `width = r − 1`: `h` counts an object's failed co-hosts, so it sits
    /// at `h + 1` hits now and at `h` once `out` leaves.
    #[inline(always)]
    fn scan_swap(&self, out: u16, delta: &mut [i64], width: usize) -> u64 {
        let (members, s) = (&self.members, self.s);
        let mut loss = 0;
        for co in self.cohost_row(out).chunks_exact(width) {
            let h = co.iter().map(|&c| flag(members, c)).sum::<usize>();
            let at_s = h + 1 == s;
            loss += u64::from(at_s);
            let d = i64::from(at_s) - i64::from(h + 2 == s);
            if d != 0 {
                for &c in co {
                    if let Some(slot) = delta.get_mut(usize::from(c)) {
                        *slot += d;
                    }
                }
            }
        }
        loss
    }
}

/// `set`'s `0`/`1` byte for `node` (`0` outside the universe), summed
/// straight into hit counts.
#[inline(always)]
fn flag(set: &[u8], node: u16) -> usize {
    usize::from(set.get(usize::from(node)).copied().unwrap_or(0))
}

/// `node`'s slice of the CSR co-host array (see
/// [`PackedCounts::cohost_row`]), for callers that hold the other
/// fields mutably.
#[inline]
fn cohost_row<'a>(csr_off: &[u32], cohosts: &'a [u16], stride: usize, node: u16) -> &'a [u16] {
    let width = stride.saturating_sub(2);
    let i = usize::from(node);
    let lo = csr_off.get(i).copied().unwrap_or(0) as usize * width;
    let hi = csr_off.get(i + 1).copied().unwrap_or(0) as usize * width;
    cohosts.get(lo..hi).unwrap_or(&[])
}

/// Adds `delta` to the pair correction of every two hosts in `co` (an
/// ascending co-host row entry, so `a < b` is already the canonical
/// pair order).
#[inline(always)]
fn shift_pairs(pair: &mut [i32], n: usize, co: &[u16], delta: i32) {
    for (i, &a) in co.iter().enumerate() {
        let row = usize::from(a) * n;
        for &b in co.get(i + 1..).unwrap_or(&[]) {
            if let Some(slot) = pair.get_mut(row + usize::from(b)) {
                *slot += delta;
            }
        }
    }
}

/// An object's weight in the pair-correction matrix at hit count `h`:
/// `+1` one hit below the gain set (`h = s − 2`), `−1` inside it
/// (`h = s − 1`), `0` elsewhere.
fn pair_weight(h: usize, s: usize) -> i32 {
    i32::from(h + 2 == s) - i32::from(h + 1 == s)
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
        // A rebind to another placement of the same shape refills the
        // co-hosts.
        let q = Placement::new(
            6,
            3,
            vec![vec![1, 2, 5], vec![0, 3, 4], vec![0, 2, 4], vec![1, 3, 5]],
        )
        .unwrap();
        for placement in [&p, &q, &p] {
            pc.rebind(placement, 2);
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
            }
        }
    }

    #[test]
    fn cohost_rows_are_empty_at_one_replica() {
        let p = Placement::new(3, 1, vec![vec![0], vec![2], vec![0]]).unwrap();
        let pc = PackedCounts::new(&p, 1);
        assert_eq!(pc.load(0), 2);
        for nd in 0..3u16 {
            assert!(pc.cohost_row(nd).is_empty(), "cohosts({nd})");
        }
    }

    #[test]
    fn out_of_order_removes_match_scalar() {
        // Removes that are not the last add: the removed node's own row
        // has drifted under later adds and must be rebuilt.
        let b = 9 * 64 + 7;
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

    /// Hit counts of the objects on `nd` under `fc`'s failed set, `nd`
    /// itself not counted.
    fn hits_on(fc: &FailureCounts, p: &Placement, nd: u16) -> Vec<usize> {
        (fc.objects_on(nd).iter())
            .map(|&obj| {
                let row = p.replicas(obj as usize);
                row.iter().filter(|&&c| c != nd && fc.contains(c)).count()
            })
            .collect()
    }

    /// Every table answer against the scalar oracle replaying the same
    /// failed set — members, failed count, histogram bound, and for
    /// every node outside the set its whole level row, gain, exposure
    /// and supply (straight from the placement's rows) and, with
    /// `pairs`, every pair correction.
    fn assert_tables_match(
        pc: &PackedCounts,
        fc: &mut FailureCounts,
        p: &Placement,
        pairs: bool,
        ctx: &str,
    ) {
        let s = pc.threshold();
        assert_eq!(pc.nodes(), fc.nodes(), "{ctx}: members");
        assert_eq!(pc.failed(), fc.failed(), "{ctx}: failed");
        for m in 0..=6u16 {
            assert_eq!(
                pc.failable_within(m),
                fc.failable_within(m),
                "{ctx}: failable({m})"
            );
        }
        let outside: Vec<u16> = (0..p.num_nodes()).filter(|&nd| !fc.contains(nd)).collect();
        for &x in &outside {
            let hits = hits_on(fc, p, x);
            for h in 0..=usize::from(p.replicas_per_object()) + 1 {
                let want = hits.iter().filter(|&&at| at == h).count() as u64;
                assert_eq!(pc.level(x, h), want, "{ctx}: level({x}, {h})");
            }
            assert_eq!(pc.gain(x), fc.gain(x), "{ctx}: gain({x})");
            let s = usize::from(s);
            let exposure = hits.iter().filter(|&&h| h + 2 == s).count() as u64;
            assert_eq!(pc.exposure(x), exposure, "{ctx}: exposure({x})");
            for m in 1..=s {
                let want = hits.iter().filter(|&&h| s - m <= h && h < s).count() as u64;
                assert_eq!(pc.supply(x, m as u16), want, "{ctx}: supply({x}, {m})");
            }
            if !pairs {
                continue;
            }
            fc.add_node(x);
            for &y in outside.iter().filter(|&&y| y > x) {
                let pair = fc.gain(y) as i64;
                fc.remove_node(x);
                let alone = fc.gain(y) as i64;
                fc.add_node(x);
                let got = i64::from(pc.correction(x, y));
                assert_eq!(got, pair - alone, "{ctx}: correction({x}, {y})");
            }
            fc.remove_node(x);
        }
    }

    fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
        let params = wcp_core::SystemParams::new(n, b, r, 1, 1).unwrap();
        wcp_core::RandomStrategy::new(seed, wcp_core::RandomVariant::LoadBalanced)
            .place(&params)
            .unwrap()
    }

    #[test]
    fn tables_match_the_scalar_oracle_on_seeded_walks() {
        // Two walks per shape, checked after every move against a
        // `FailureCounts` replay: the exact DFS's (last-in first-out,
        // pair matrix moving) and the climb's (any member removed, pair
        // matrix untouched). n = 8: b = 400 puts every DFS root pop at
        // r ≥ 2 on the reset side of `n·(n + r + 1)` against
        // `load·C(r, 2)`, and b = 16 every root pop on the pass side.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 8u16;
        let mut pops = [0u32; 2];
        for r in 1..=5u16 {
            for b in [16u64, 400] {
                let p = random_placement(n, b, r, u64::from(r) * 31 + b);
                for s in 1..=r + 1 {
                    let mut pc = PackedCounts::new(&p, s);
                    pc.ensure_pairs();
                    let mut fc = FailureCounts::new(&p, s);
                    let mut rng = StdRng::seed_from_u64(u64::from(r * 10 + s) ^ b);
                    let mut stack: Vec<u16> = Vec::new();
                    for step in 0..40 {
                        let grow = stack.is_empty() || (stack.len() < 5 && rng.gen_bool(0.6));
                        let ctx = format!("lifo r={r} s={s} b={b} step={step}");
                        if grow {
                            let free: Vec<u16> = (0..n).filter(|&nd| !fc.contains(nd)).collect();
                            let nd = free[rng.gen_range(0..free.len())];
                            pc.push::<true>(nd);
                            fc.add_node(nd);
                            stack.push(nd);
                        } else if let Some(nd) = stack.pop() {
                            if stack.is_empty() {
                                let (r, n) = (usize::from(r), usize::from(n));
                                let stream = pc.load(nd) as usize * r * (r - 1) / 2;
                                let copy = n * (n + r + 1);
                                pops[usize::from(copy < stream)] += 1;
                            }
                            pc.remove::<true>(nd);
                            fc.remove_node(nd);
                        }
                        assert_tables_match(&pc, &mut fc, &p, true, &ctx);
                    }
                    while let Some(nd) = stack.pop() {
                        pc.remove::<true>(nd);
                        fc.remove_node(nd);
                    }
                    // Unwound, the tables equal a fresh binding's.
                    let mut fresh = PackedCounts::new(&p, s);
                    fresh.ensure_pairs();
                    assert_eq!(pc.levels, fresh.levels, "r={r} s={s} b={b}");
                    assert_eq!(pc.pair, fresh.pair, "r={r} s={s} b={b}");
                    assert_eq!(pc.hist, fresh.hist, "r={r} s={s} b={b}");
                    // Any member removed, in any order.
                    let mut members: Vec<u16> = Vec::new();
                    for step in 0..40 {
                        let grow = members.is_empty() || (members.len() < 6 && rng.gen_bool(0.55));
                        let ctx = format!("any r={r} s={s} b={b} step={step}");
                        if grow {
                            let free: Vec<u16> = (0..n).filter(|&nd| !fc.contains(nd)).collect();
                            let nd = free[rng.gen_range(0..free.len())];
                            pc.add_node(nd);
                            fc.add_node(nd);
                            members.push(nd);
                        } else {
                            let nd = members.swap_remove(rng.gen_range(0..members.len()));
                            pc.remove_node(nd);
                            fc.remove_node(nd);
                        }
                        assert_tables_match(&pc, &mut fc, &p, false, &ctx);
                    }
                    // A clear returns to the empty set, the pair matrix
                    // never having moved.
                    pc.clear();
                    assert_eq!(pc.levels, fresh.levels, "r={r} s={s} b={b}");
                    assert_eq!(pc.pair, fresh.pair, "r={r} s={s} b={b}");
                    assert_eq!(pc.hist, fresh.hist, "r={r} s={s} b={b}");
                }
            }
        }
        assert!(
            pops.iter().all(|&count| count > 0),
            "both root-pop paths ran: {pops:?}"
        );
    }
}

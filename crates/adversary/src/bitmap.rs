//! Word-level primitives for the bit-packed failure kernel: object
//! bitmaps (one row of `u64` words per node), a node-membership bitset,
//! and the magnitude/equality comparators evaluated over bit-sliced hit
//! counters.
//!
//! Everything here operates on `u64` words so the per-object work of the
//! scalar accounting collapses into streaming AND/XOR/popcount over
//! `⌈b/64⌉` words — the "word-parallel" in the kernel's name.

/// Bits per machine word.
pub(crate) const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `bits` bits.
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask selecting the valid bits of the *last* word of a `bits`-bit
/// bitmap (`!0` when the bitmap ends on a word boundary).
pub(crate) fn tail_mask(bits: usize) -> u64 {
    match bits % WORD_BITS {
        0 => !0,
        rem => (1u64 << rem) - 1,
    }
}

/// Word lanes per block in the popcount/ripple hot loops: wide enough
/// for four independent `popcnt` dependency chains (and 256-bit lowering
/// of the AND/XOR halves), small enough that the `n = 71, b = 1200`
/// acceptance shape (19 words) still spends most words in full blocks.
pub(crate) const LANES: usize = 4;

/// Words per cache block of the plane-update pass: the kernel finishes
/// the ripple-carry add, mask derivation and popcount fold for one
/// 32 KiB-per-stream block of the bit-sliced planes before moving to
/// the next, so at the million-object scale (where one plane is
/// ~2 MB and no longer LLC-resident as a whole) each block's `p + 2`
/// plane/mask streams plus the row block stay cache-resident for the
/// duration of the block. Also the granularity of the whole-block
/// row-sparsity skip.
pub(crate) const BLOCK_WORDS: usize = 4096;

/// Population count of the intersection of two equal-length word
/// slices, accumulated over [`LANES`] independent lanes so the popcount
/// chains pipeline instead of serializing on one accumulator.
pub(crate) fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let blocks_a = a.chunks_exact(LANES);
    let blocks_b = b.chunks_exact(LANES);
    let tail: u64 = blocks_a
        .remainder()
        .iter()
        .zip(blocks_b.remainder())
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum();
    let mut acc = [0u64; LANES];
    for (ca, cb) in blocks_a.zip(blocks_b) {
        for ((slot, x), y) in acc.iter_mut().zip(ca).zip(cb) {
            *slot += u64::from((x & y).count_ones());
        }
    }
    acc.iter().sum::<u64>() + tail
}

/// A bitset over node ids with ordered iteration of both members and
/// non-members — the failed-set membership structure (replaces the
/// scalar backend's `Vec<bool>` and the `fc.nodes()` allocation per
/// query).
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeSet {
    len: usize,
    words: Vec<u64>,
}

impl NodeSet {
    /// Resizes to a universe of `len` nodes and empties the set.
    pub(crate) fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(words_for(len), 0);
    }

    /// Empties the set without changing the universe.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership as a `0`/`1` word, without a branch on the answer
    /// (`0` outside the universe) — summed straight into hit counts by
    /// the exact DFS's table shifts.
    #[inline]
    pub(crate) fn bit(&self, node: u16) -> u64 {
        let i = usize::from(node);
        self.words
            .get(i / WORD_BITS)
            .map_or(0, |&w| w >> (i % WORD_BITS) & 1)
    }

    pub(crate) fn contains(&self, node: u16) -> bool {
        self.bit(node) == 1
    }

    pub(crate) fn insert(&mut self, node: u16) {
        let i = usize::from(node);
        if let Some(w) = self.words.get_mut(i / WORD_BITS) {
            *w |= 1u64 << (i % WORD_BITS);
        }
    }

    pub(crate) fn remove(&mut self, node: u16) {
        let i = usize::from(node);
        if let Some(w) = self.words.get_mut(i / WORD_BITS) {
            *w &= !(1u64 << (i % WORD_BITS));
        }
    }

    /// Members in ascending order.
    pub(crate) fn iter_present(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            limit: self.len,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The raw membership words (for inlined complement scans).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mask of valid bits in the last membership word.
    pub(crate) fn limit_mask(&self) -> u64 {
        tail_mask(self.len)
    }
}

/// Ascending iterator over the members of a [`NodeSet`].
#[derive(Debug)]
pub(crate) struct BitIter<'a> {
    words: &'a [u64],
    limit: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * WORD_BITS + bit;
                if idx >= self.limit {
                    return None;
                }
                return Some(idx as u16);
            }
            self.word_idx += 1;
            let &word = self.words.get(self.word_idx)?;
            self.current = word;
        }
    }
}

/// `X == c` per bit column, where `X` is the bit-sliced counter value
/// stored in `planes` (plane `j` holds bit `j` of every counter) at word
/// index `w`. Returns all-zeros when `c` is not representable in the
/// plane count. For `c == 0` the caller must mask the tail word.
pub(crate) fn eq_word(planes: &[u64], stride: usize, w: usize, c: u64) -> u64 {
    let p = planes.len() / stride.max(1);
    if p < WORD_BITS && c >= 1u64 << p {
        return 0;
    }
    let mut acc = !0u64;
    for (j, x) in column(planes, stride, w).enumerate() {
        acc &= if c >> j & 1 == 1 { x } else { !x };
    }
    acc
}

/// Word `w` of every plane, plane 0 first: one bit column of the
/// bit-sliced counters.
fn column(
    planes: &[u64],
    stride: usize,
    w: usize,
) -> impl DoubleEndedIterator<Item = u64> + ExactSizeIterator + '_ {
    planes
        .chunks_exact(stride.max(1))
        .map(move |plane| plane.get(w).copied().unwrap_or(0))
}

/// `X ≥ c` per bit column at word index `w` (see [`eq_word`]). Requires
/// `c ≥ 1`, so the result needs no tail masking: some bit of `c` is set
/// and the corresponding plane AND clears the tail.
pub(crate) fn ge_word(planes: &[u64], stride: usize, w: usize, c: u64) -> u64 {
    debug_assert!(c >= 1);
    let p = planes.len() / stride.max(1);
    if p < WORD_BITS && c >= 1u64 << p {
        return 0;
    }
    match c {
        // ≥ 1: any plane bit set.
        1 => column(planes, stride, w).fold(0, |acc, x| acc | x),
        // ≥ 2: any plane above bit 0 set.
        2 => column(planes, stride, w).skip(1).fold(0, |acc, x| acc | x),
        // General magnitude comparator, MSB first.
        _ => {
            let mut gt = 0u64;
            let mut eq = !0u64;
            for (j, x) in column(planes, stride, w).enumerate().rev() {
                if c >> j & 1 == 1 {
                    eq &= x;
                } else {
                    gt |= eq & x;
                    eq &= !x;
                }
            }
            gt | eq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_sizes() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(3), 0b111);
    }

    #[test]
    fn node_set_iterates_members() {
        let mut s = NodeSet::default();
        s.reset(70);
        for nd in [0u16, 5, 63, 64, 69] {
            s.insert(nd);
        }
        assert!(s.contains(64) && !s.contains(1));
        let present: Vec<u16> = s.iter_present().collect();
        assert_eq!(present, vec![0, 5, 63, 64, 69]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter_present().count(), 4);
    }

    #[test]
    fn comparators_match_scalar_counters() {
        // 3 planes, 1 word: counters 0..=7 at positions 0..=7.
        let stride = 1;
        let values: Vec<u64> = (0..8).collect();
        let mut planes = vec![0u64; 3];
        for (pos, &v) in values.iter().enumerate() {
            for (j, plane) in planes.iter_mut().enumerate() {
                *plane |= (v >> j & 1) << pos;
            }
        }
        for c in 0..=9u64 {
            let eq = eq_word(&planes, stride, 0, c);
            for (pos, &v) in values.iter().enumerate() {
                assert_eq!(eq >> pos & 1 == 1, v == c, "eq c={c} pos={pos}");
            }
            if c >= 1 {
                let ge = ge_word(&planes, stride, 0, c);
                for (pos, &v) in values.iter().enumerate() {
                    assert_eq!(ge >> pos & 1 == 1, v >= c, "ge c={c} pos={pos}");
                }
            }
        }
    }
}

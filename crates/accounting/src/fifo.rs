//! A FIFO of page numbers stored in 512-entry blocks.
//!
//! Each block is a 512-entry [`Words`]: 4-byte words (2 KiB) while every
//! page number stored in it fits 32 bits, widened in place to 8-byte
//! words (4 KiB) by the first that does not. A block never narrows back.

use std::collections::VecDeque;

use mage_sim::words::Words;

/// Entries per block.
const BLOCK: usize = 512;
const SHIFT: u32 = BLOCK.trailing_zeros();
const MASK: usize = BLOCK - 1;

/// A FIFO queue of page numbers whose memory follows its length.
///
/// A `VecDeque` keeps the power-of-two capacity of its largest-ever
/// length, and because its head and tail cycle through the whole ring,
/// all of that capacity ends up resident. Here entries live in
/// 512-entry blocks, 2 KiB each while their page numbers fit 32 bits:
/// `push_back` allocates a block only when the last one is full, and a
/// block drained by `pop_front` is freed. The blocks number at most
/// `⌈len / 512⌉ + 1`.
///
/// Entry `i` (0 = front) sits at `head + i` across the blocks, found
/// with a shift and a mask.
#[derive(Default)]
pub(crate) struct PageFifo {
    /// Blocks holding entries: `⌈(head + len) / 512⌉` of them.
    blocks: VecDeque<Words>,
    /// Offset of the front entry in `blocks[0]`, always `< 512`.
    head: usize,
    len: usize,
}

impl PageFifo {
    /// Number of queued pages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `vpn` at the back.
    #[inline]
    pub(crate) fn push_back(&mut self, vpn: u64) {
        let end = self.head + self.len;
        if end == self.blocks.len() << SHIFT {
            self.blocks.push_back(Words::zeroed(BLOCK));
        }
        let last = self.blocks.len() - 1;
        self.blocks[last].set(end & MASK, vpn);
        self.len += 1;
    }

    /// Removes and returns the front page.
    #[inline]
    pub(crate) fn pop_front(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let vpn = self.blocks[0].get(self.head & MASK);
        self.head += 1;
        self.len -= 1;
        if self.head == BLOCK {
            self.head = 0;
            self.blocks.pop_front();
        }
        Some(vpn)
    }

    /// The queued pages, front to back.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (self.head..self.head + self.len).map(|i| self.blocks[i >> SHIFT].get(i & MASK))
    }

    /// Removes the first occurrence of `vpn`, keeping the order of the
    /// rest; `false` if absent. Shifts every later entry forward by one,
    /// so it is O(len): cold paths only.
    pub(crate) fn remove(&mut self, vpn: u64) -> bool {
        let Some(pos) = self.iter().position(|v| v == vpn) else {
            return false;
        };
        let end = self.head + self.len;
        for i in self.head + pos..end - 1 {
            let next = self.blocks[(i + 1) >> SHIFT].get((i + 1) & MASK);
            self.blocks[i >> SHIFT].set(i & MASK, next);
        }
        self.len -= 1;
        if (end - 1) & MASK == 0 {
            // The last block held only the entry that moved forward.
            self.blocks.pop_back();
        }
        true
    }

    /// Blocks allocated.
    #[cfg(test)]
    fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

impl Extend<u64> for PageFifo {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for vpn in pages {
            self.push_back(vpn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::rng::SplitMix64;
    use mage_sim::words::View;

    /// Blocks of `fifo` widened to 8-byte words.
    fn wide_blocks(fifo: &PageFifo) -> usize {
        fifo.blocks
            .iter()
            .filter(|block| matches!(block.view(), View::Wide(_)))
            .count()
    }

    /// Compares `fifo` with `reference` entry by entry and checks the
    /// block bound: at most `⌈len / 512⌉ + 1` blocks are allocated.
    fn check(fifo: &PageFifo, reference: &VecDeque<u64>, ctx: &str) {
        assert_eq!(fifo.len(), reference.len(), "{ctx}: len");
        assert_eq!(fifo.is_empty(), reference.is_empty(), "{ctx}: is_empty");
        assert!(
            fifo.iter().eq(reference.iter().copied()),
            "{ctx}: contents differ"
        );
        let blocks = fifo.block_count();
        assert!(
            blocks <= fifo.len().div_ceil(BLOCK) + 1,
            "{ctx}: {blocks} blocks for {} entries",
            fifo.len()
        );
    }

    #[test]
    fn matches_vecdeque_under_seeded_op_streams() {
        // A narrow page range makes duplicates, so `remove` must take
        // the first occurrence.
        const PAGES: u64 = 4_096;
        // The second distribution draws one page in 256 at or above 2^32,
        // so blocks widen mid-block through `push_back`, `extend` and
        // `remove`'s shift.
        for wide in [false, true] {
            let mut widened = [0usize; 3];
            for seed in [1u64, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED] {
                let rng = SplitMix64::new(seed);
                let page = || {
                    let small = rng.next_below(PAGES);
                    if wide && rng.next_below(256) == 0 {
                        1 << 32 | small
                    } else {
                        small
                    }
                };
                let mut fifo = PageFifo::default();
                let mut reference = VecDeque::new();
                for step in 0..30_000u64 {
                    let ctx = format!("wide {wide} seed {seed} step {step}");
                    let wide_before = wide_blocks(&fifo);
                    let op = match rng.next_below(16) {
                        // Pushes slightly outnumber pops so lengths
                        // wander across many block boundaries.
                        0..=6 => {
                            let vpn = page();
                            fifo.push_back(vpn);
                            reference.push_back(vpn);
                            Some(0)
                        }
                        7..=11 => {
                            assert_eq!(fifo.pop_front(), reference.pop_front(), "{ctx}: pop");
                            None
                        }
                        12 => {
                            let n = rng.next_below(1_100);
                            let pages: Vec<u64> = (0..n).map(|_| page()).collect();
                            fifo.extend(pages.iter().copied());
                            reference.extend(pages);
                            Some(1)
                        }
                        13 => {
                            // Drain to empty.
                            while let Some(v) = reference.pop_front() {
                                assert_eq!(fifo.pop_front(), Some(v), "{ctx}: drain");
                            }
                            assert_eq!(fifo.pop_front(), None, "{ctx}: drained");
                            None
                        }
                        _ => {
                            // Remove the first, middle, last or an absent
                            // page.
                            let len = reference.len();
                            let target = match rng.next_below(4) {
                                0 => reference.front().copied(),
                                1 => reference.get(len / 2).copied(),
                                2 => reference.back().copied(),
                                _ => None,
                            };
                            let vpn = target.unwrap_or(u64::MAX);
                            let pos = reference.iter().position(|&v| v == vpn);
                            if let Some(pos) = pos {
                                reference.remove(pos);
                            }
                            assert_eq!(fifo.remove(vpn), pos.is_some(), "{ctx}: remove({vpn})");
                            Some(2)
                        }
                    };
                    if let Some(op) = op {
                        if wide_blocks(&fifo) > wide_before {
                            widened[op] += 1;
                        }
                    }
                    check(&fifo, &reference, &ctx);
                }
            }
            if wide {
                assert!(
                    widened.iter().all(|&n| n > 0),
                    "blocks widened by push_back, extend, remove: {widened:?}"
                );
            } else {
                assert_eq!(widened, [0; 3], "a page below 2^32 widened a block");
            }
        }
    }

    #[test]
    fn block_boundaries_and_refill() {
        for len in [511u64, 512, 513] {
            for offset in [0u64, 1, 511] {
                let ctx = format!("len {len} offset {offset}");
                let mut fifo = PageFifo::default();
                let mut reference = VecDeque::new();
                // Start `offset` entries into the first block.
                fifo.extend(0..offset);
                reference.extend(0..offset);
                for _ in 0..offset {
                    assert_eq!(fifo.pop_front(), reference.pop_front(), "{ctx}");
                }
                for round in 0..3 {
                    fifo.extend(0..len);
                    reference.extend(0..len);
                    check(&fifo, &reference, &format!("{ctx} round {round} filled"));
                    // Remove the first, middle and last page, shifting
                    // entries across the block boundary.
                    for vpn in [0, len / 2, len - 1] {
                        let pos = reference.iter().position(|&v| v == vpn).expect("present");
                        reference.remove(pos);
                        assert!(fifo.remove(vpn), "{ctx}: remove({vpn})");
                        check(&fifo, &reference, &format!("{ctx} round {round} remove {vpn}"));
                    }
                    while let Some(v) = reference.pop_front() {
                        assert_eq!(fifo.pop_front(), Some(v), "{ctx}");
                        check(&fifo, &reference, &format!("{ctx} round {round} drain"));
                    }
                    assert_eq!(fifo.pop_front(), None, "{ctx}: empty");
                    assert!(!fifo.remove(0), "{ctx}: remove from empty");
                }
            }
        }
    }

    #[test]
    fn drained_blocks_are_freed() {
        let mut fifo = PageFifo::default();
        fifo.extend(0..10 * BLOCK as u64);
        assert_eq!(fifo.block_count(), 10);
        while fifo.len() > 3 {
            fifo.pop_front();
        }
        assert_eq!(fifo.block_count(), 1, "nine drained blocks freed");
        fifo.extend(0..BLOCK as u64);
        assert_eq!(fifo.block_count(), 2);
        while fifo.pop_front().is_some() {}
        assert_eq!(fifo.block_count(), 0, "an empty queue holds no block");
    }
}

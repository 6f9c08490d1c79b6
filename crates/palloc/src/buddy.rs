//! A binary buddy allocator over physical frame numbers.
//!
//! This is the classic power-of-two buddy system used by Linux and OSv
//! (§3.3.3): memory is carved into blocks of `2^order` frames; freeing a
//! block coalesces it with its buddy whenever the buddy is also free. The
//! allocator itself is synchronous — concurrency policy (global lock,
//! per-CPU caches, MAGE's multi-layer hierarchy) is layered on top in
//! [`crate::local`].

use mage_sim::slab::PageMap;
use std::collections::BTreeSet;
use std::ops::Range;

/// Maximum block order (2^10 frames = 4 MiB blocks at 4 KiB pages).
pub const MAX_ORDER: u32 = 10;

/// log2 of the frames covered by one chunk of the outstanding record.
/// At least `MAX_ORDER`, so an aligned block never straddles two chunks.
const CHUNK_SHIFT: u32 = 12;
const CHUNK_FRAMES: usize = 1 << CHUNK_SHIFT;
const _: () = assert!(MAX_ORDER <= CHUNK_SHIFT);

/// The buddy's record of outstanding blocks: one byte per frame, holding
/// `order + 1` at a live block's base and 0 everywhere else.
///
/// Bytes live in 4 KiB chunks (one per 4,096 frames) allocated on first
/// touch and found through a small [`PageMap`] keyed by
/// `frame >> CHUNK_SHIFT`, so the record costs O(touched frames). It is
/// deliberately not one vector grown to the highest frame: an unaligned
/// pool hands out its sub-max-order tail first, so a `2^38 + 777`-frame
/// pool's first order-0 frame sits near `2^38`.
#[derive(Default)]
struct Outstanding {
    chunk_of: PageMap<u32>,
    chunks: Vec<[u8; CHUNK_FRAMES]>,
    /// Live blocks: bytes currently nonzero.
    live: u64,
}

impl Outstanding {
    /// The chunk holding `base`'s byte, allocated on first touch.
    #[inline]
    fn chunk_mut(&mut self, base: u64) -> &mut [u8; CHUNK_FRAMES] {
        let fresh = self.chunks.len() as u32;
        let chunk = *self
            .chunk_of
            .get_or_insert_with(base >> CHUNK_SHIFT, || fresh);
        if chunk == fresh {
            self.chunks.push([0; CHUNK_FRAMES]);
        }
        &mut self.chunks[chunk as usize]
    }

    /// Records a live block of `order` at `base`.
    fn insert(&mut self, base: u64, order: u32) {
        let byte = &mut self.chunk_mut(base)[base as usize % CHUNK_FRAMES];
        debug_assert_eq!(*byte, 0, "block {base:#x} already outstanding");
        *byte = order as u8 + 1;
        self.live += 1;
    }

    /// Records each frame of the aligned block of `order` at `base` as a
    /// live order-0 block: one chunk lookup, one fill.
    fn insert_frames(&mut self, base: u64, order: u32) {
        let lo = base as usize % CHUNK_FRAMES;
        let bytes = &mut self.chunk_mut(base)[lo..lo + (1 << order)];
        debug_assert!(
            bytes.iter().all(|&b| b == 0),
            "a frame of block {base:#x} already outstanding"
        );
        bytes.fill(1);
        self.live += 1 << order;
    }

    /// Clears the record at `base` and returns what it held: `order + 1`
    /// if a block of `order` was live there, else 0.
    fn take(&mut self, base: u64) -> u8 {
        let Some(&chunk) = self.chunk_of.get(base >> CHUNK_SHIFT) else {
            return 0;
        };
        let byte = std::mem::take(&mut self.chunks[chunk as usize][base as usize % CHUNK_FRAMES]);
        if byte != 0 {
            self.live -= 1;
        }
        byte
    }
}

/// A binary buddy allocator handing out frame numbers.
///
/// # Examples
///
/// ```
/// use mage_palloc::BuddyAllocator;
///
/// let mut b = BuddyAllocator::new(1024);
/// let f = b.alloc(0).expect("frame available");
/// assert!(f < 1024);
/// b.free(f, 0);
/// assert_eq!(b.free_frames(), 1024);
/// ```
pub struct BuddyAllocator {
    nframes: u64,
    /// Free blocks per order. Deliberately a `BTreeSet`: `alloc` picks the
    /// *smallest* free base at each order, and that ordered choice is part
    /// of the deterministic frame-allocation contract pinned by the seam
    /// goldens — an unordered index would change which frames come back.
    /// [`alloc_runs`](Self::alloc_runs) and `alloc_batch` keep the same
    /// contract: `n` frames from them are the `n` frames `alloc(0)`
    /// would return, in the same order. This is a cold path relative to
    /// the per-core caches in [`crate::local`], which absorb the hot
    /// alloc/free traffic.
    free_lists: Vec<BTreeSet<u64>>,
    /// Frontier of the *pristine run*: the never-touched max-order blocks
    /// `[pristine_next, pristine_end)` that construction left
    /// unmaterialized. Construction used to eagerly insert every aligned
    /// block of `[0, nframes)` — O(capacity) host work and memory, which
    /// at terabyte-scale simulated DRAM dominated setup. The run is
    /// consumed lazily, in ascending base order, only when `alloc` needs
    /// a max-order block the materialized set cannot provide; blocks in
    /// it count as free the whole time.
    ///
    /// Determinism/bit-identity argument (the seam goldens pin the exact
    /// frame sequence): every materialized max-order entry has a base
    /// below `pristine_next` — entries come either from construction's
    /// tail decomposition (bases ≥ `pristine_end` can never coalesce to
    /// max order, since `pristine_end + 2^MAX_ORDER > nframes`) or from
    /// frees of previously allocated blocks, and any allocated base lies
    /// below the frontier at its alloc time. So "min of the set, else
    /// the frontier block" is exactly the global smallest free base the
    /// eager representation would have picked.
    pristine_next: u64,
    pristine_end: u64,
    /// Outstanding allocations, for exact double-free detection.
    outstanding: Outstanding,
    free_frames: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `0..nframes`, all free.
    ///
    /// O(1) in `nframes`: the aligned max-order run `[0, pristine_end)`
    /// is represented by the pristine frontier, and only the tail
    /// `[pristine_end, nframes)` — at most one block per order — is
    /// materialized eagerly.
    pub fn new(nframes: u64) -> Self {
        let pristine_end = nframes & !((1u64 << MAX_ORDER) - 1);
        let mut b = BuddyAllocator {
            nframes,
            free_lists: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            pristine_next: 0,
            pristine_end,
            outstanding: Outstanding::default(),
            free_frames: nframes,
        };
        // Seed the sub-max-order tail with maximal aligned blocks.
        let mut base = pristine_end;
        while base < nframes {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if base.is_multiple_of(size) && base + size <= nframes {
                    break;
                }
                order -= 1;
            }
            debug_assert!(order < MAX_ORDER, "tail blocks are sub-max-order");
            b.free_lists[order as usize].insert(base);
            base += 1 << order;
        }
        b
    }

    /// Whether any free block of exactly `order` exists (materialized or
    /// pristine).
    fn has_free_at(&self, order: u32) -> bool {
        !self.free_lists[order as usize].is_empty()
            || (order == MAX_ORDER && self.pristine_next < self.pristine_end)
    }

    /// Takes the smallest free base at `order`, preferring the
    /// materialized set (whose max-order entries always lie below the
    /// pristine frontier — see the `pristine_next` invariant).
    fn take_smallest(&mut self, order: u32) -> u64 {
        if let Some(&base) = self.free_lists[order as usize].first() {
            self.free_lists[order as usize].remove(&base);
            return base;
        }
        debug_assert_eq!(order, MAX_ORDER, "only max order can be pristine");
        let base = self.pristine_next;
        debug_assert!(base < self.pristine_end, "pristine run exhausted");
        self.pristine_next += 1 << MAX_ORDER;
        base
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Host-side metadata entries currently held: materialized free-list
    /// blocks plus outstanding blocks. The pristine run costs two words
    /// however large it is, so right after construction this is O(1) in
    /// `nframes`; this module's tests read it to pin O(touched)
    /// behaviour.
    pub fn metadata_entries(&self) -> u64 {
        self.free_lists.iter().map(|l| l.len() as u64).sum::<u64>() + self.outstanding.live
    }

    /// Allocates a block of `2^order` frames, returning its base frame.
    pub fn alloc(&mut self, order: u32) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order {order} too large");
        // Find the smallest available order >= requested.
        let found = (order..=MAX_ORDER).find(|&o| self.has_free_at(o))?;
        // Deterministic choice: smallest base in that order.
        let base = self.take_smallest(found);
        // Split down to the requested order, returning upper halves.
        let mut o = found;
        while o > order {
            o -= 1;
            let buddy = base + (1u64 << o);
            self.free_lists[o as usize].insert(buddy);
        }
        self.free_frames -= 1 << order;
        self.outstanding.insert(base, order);
        Some(base)
    }

    /// Allocates up to `n` single frames (order 0) as ascending runs of
    /// consecutive frames, stopping early if the pool runs dry.
    ///
    /// The frames, in run order, are exactly those `n` calls of
    /// `alloc(0)` would return, and the allocator is left in the same
    /// state. Let `o` be the smallest order with a free block. `alloc(0)`
    /// splits the smallest block at `o` and, since nothing is free below
    /// `o`, the following calls hand out the halves it split off, lowest
    /// first, until the block is gone and the lists below `o` are empty
    /// again: the block's frames in ascending order. So while at least
    /// `2^o` frames remain to take, the block is taken whole, with one
    /// free-list removal and one fill of the outstanding record; only a
    /// last block larger than what remains goes through `alloc(0)`.
    pub fn alloc_runs(&mut self, n: u64) -> Vec<Range<u64>> {
        let mut runs: Vec<Range<u64>> = Vec::new();
        let mut left = n;
        while left > 0 {
            let Some(order) = (0..=MAX_ORDER).find(|&o| self.has_free_at(o)) else {
                break;
            };
            let block = 1u64 << order;
            let (base, len) = if block <= left {
                let base = self.take_smallest(order);
                self.free_frames -= block;
                self.outstanding.insert_frames(base, order);
                (base, block)
            } else {
                (self.alloc(0).expect("a free block exists"), 1)
            };
            left -= len;
            match runs.last_mut() {
                Some(run) if run.end == base => run.end += len,
                _ => runs.push(base..base + len),
            }
        }
        runs
    }

    /// Allocates `n` single frames (order 0) in `alloc(0)` order,
    /// stopping early if exhausted.
    pub fn alloc_batch(&mut self, n: usize, out: &mut Vec<u64>) {
        out.extend(self.alloc_runs(n as u64).into_iter().flatten());
    }

    /// Frees a block of `2^order` frames at `base`, coalescing buddies.
    ///
    /// # Panics
    ///
    /// Panics if the block is misaligned, out of range, or (detectably)
    /// already free — a double free.
    pub fn free(&mut self, base: u64, order: u32) {
        assert!(order <= MAX_ORDER, "order {order} too large");
        assert_eq!(base % (1 << order), 0, "misaligned free of {base:#x}");
        assert!(base + (1 << order) <= self.nframes, "free out of range");
        assert_eq!(
            self.outstanding.take(base),
            order as u8 + 1,
            "double or invalid free of block {base:#x} order {order}"
        );
        let freed_frames = 1u64 << order;
        let mut base = base;
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = base ^ (1u64 << order);
            if buddy + (1 << order) > self.nframes
                || !self.free_lists[order as usize].remove(&buddy)
            {
                break;
            }
            base = base.min(buddy);
            order += 1;
        }
        let inserted = self.free_lists[order as usize].insert(base);
        debug_assert!(inserted, "free-list corruption at {base:#x} order {order}");
        self.free_frames += freed_frames;
    }

    /// Frees a batch of single frames.
    pub fn free_batch(&mut self, frames: &[u64]) {
        for &f in frames {
            self.free(f, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::rng::SplitMix64;
    use std::collections::BTreeMap;

    #[test]
    fn full_pool_after_construction() {
        for n in [1u64, 7, 64, 1000, 4096] {
            let b = BuddyAllocator::new(n);
            assert_eq!(b.free_frames(), n, "nframes {n}");
        }
    }

    #[test]
    fn construction_is_o1_even_for_terabyte_pools() {
        // 2^38 frames = 1 PiB of simulated DRAM: the pristine run makes
        // construction O(1), an unaligned tail contributes at most one
        // block per sub-max order, and the pool is still fully usable.
        let unaligned = BuddyAllocator::new((1u64 << 38) + 777);
        assert_eq!(unaligned.free_frames(), (1u64 << 38) + 777);
        assert!(
            unaligned.metadata_entries() <= MAX_ORDER as u64,
            "construction must not materialize the whole pool: {} entries",
            unaligned.metadata_entries()
        );
        // Aligned pool: frames come out smallest-base-first across the
        // pristine frontier (an unaligned pool's sub-max tail blocks
        // legitimately win the low-order search first, as they always
        // did under eager seeding).
        let n = 1u64 << 38;
        let mut b = BuddyAllocator::new(n);
        assert_eq!(b.free_frames(), n);
        assert_eq!(b.metadata_entries(), 0);
        assert_eq!(b.alloc(0), Some(0));
        assert_eq!(b.alloc(MAX_ORDER), Some(1 << MAX_ORDER));
        b.free(0, 0);
        assert_eq!(b.alloc(0), Some(0));
        assert!(
            b.outstanding.chunks.len() <= 2,
            "bottom blocks: {} chunks",
            b.outstanding.chunks.len()
        );
        // The unaligned pool hands out its top tail first; recording those
        // frames must cost chunks near the top, not a vector grown to them.
        let mut unaligned = unaligned;
        for _ in 0..4 {
            let f = unaligned.alloc(0).expect("tail frame");
            assert!(f >= 1u64 << 38, "tail frames come first: {f:#x}");
        }
        assert!(
            unaligned.outstanding.chunks.len() <= 2,
            "top tail: {} chunks",
            unaligned.outstanding.chunks.len()
        );
    }

    /// The per-frame byte record against a `BTreeMap` of outstanding
    /// blocks: a seeded alloc/free stream at mixed orders, with the
    /// outstanding count and the free count compared after every step.
    #[test]
    fn outstanding_record_matches_btreemap_reference() {
        for n in [1000u64, 4096, 9000, (1 << 14) + 777] {
            for seed in 0..16u64 {
                let rng = SplitMix64::new(0x0B17_E5EE ^ seed);
                let mut b = BuddyAllocator::new(n);
                let mut reference: BTreeMap<u64, u32> = BTreeMap::new();
                for step in 0..600 {
                    if rng.next_below(3) < 2 || reference.is_empty() {
                        let order = rng.next_below(MAX_ORDER as u64 + 1) as u32;
                        if let Some(base) = b.alloc(order) {
                            assert_eq!(
                                reference.insert(base, order),
                                None,
                                "base {base:#x} live twice"
                            );
                        }
                    } else {
                        let nth = rng.next_below(reference.len() as u64) as usize;
                        let (&base, &order) = reference.iter().nth(nth).expect("non-empty");
                        reference.remove(&base);
                        b.free(base, order);
                    }
                    let free_blocks: u64 = b.free_lists.iter().map(|l| l.len() as u64).sum();
                    assert_eq!(
                        b.metadata_entries() - free_blocks,
                        reference.len() as u64,
                        "outstanding count diverged (n {n} seed {seed} step {step})"
                    );
                    let held: u64 = reference.values().map(|&o| 1u64 << o).sum();
                    assert_eq!(
                        b.free_frames(),
                        n - held,
                        "free count diverged (n {n} seed {seed} step {step})"
                    );
                }
            }
        }
    }

    /// Runs `case` on a fresh allocator and requires the double-free panic.
    fn assert_invalid_free(name: &str, case: fn(&mut BuddyAllocator)) {
        let err =
            std::panic::catch_unwind(|| case(&mut BuddyAllocator::new(1 << 14))).expect_err(name);
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("double or invalid free"), "{name}: {msg}");
    }

    /// Each invalid free panics: a base never allocated (in an untouched
    /// chunk and next to a live block), the wrong order, and a second free.
    #[test]
    fn invalid_frees_panic() {
        assert_invalid_free("never allocated, untouched chunk", |b| b.free(0, 0));
        assert_invalid_free("never allocated, touched chunk", |b| {
            assert_eq!(b.alloc(0), Some(0));
            b.free(1, 0);
        });
        assert_invalid_free("wrong order", |b| {
            let base = b.alloc(1).expect("frame pair");
            b.free(base, 0);
        });
        assert_invalid_free("second free", |b| {
            let base = b.alloc(2).expect("block");
            b.free(base, 2);
            b.free(base, 2);
        });
    }

    /// The eager-seeded allocator this module used to build: every
    /// maximal aligned block of `[0, nframes)` materialized up front.
    /// The lazy pristine-run representation must be observationally
    /// identical — same bases from `alloc`, same `None`s, same free
    /// count — under any interleaving, because the seam goldens pin the
    /// exact frame sequence.
    struct EagerRef {
        nframes: u64,
        free_lists: Vec<BTreeSet<u64>>,
        free_frames: u64,
    }

    impl EagerRef {
        fn new(nframes: u64) -> Self {
            let mut r = EagerRef {
                nframes,
                free_lists: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
                free_frames: 0,
            };
            let mut base = 0;
            while base < nframes {
                let mut order = MAX_ORDER;
                loop {
                    let size = 1u64 << order;
                    if base.is_multiple_of(size) && base + size <= nframes {
                        break;
                    }
                    order -= 1;
                }
                r.free_lists[order as usize].insert(base);
                r.free_frames += 1 << order;
                base += 1 << order;
            }
            r
        }

        fn alloc(&mut self, order: u32) -> Option<u64> {
            let found =
                (order..=MAX_ORDER).find(|&o| !self.free_lists[o as usize].is_empty())?;
            let base = *self.free_lists[found as usize].first().expect("non-empty");
            self.free_lists[found as usize].remove(&base);
            let mut o = found;
            while o > order {
                o -= 1;
                self.free_lists[o as usize].insert(base + (1u64 << o));
            }
            self.free_frames -= 1 << order;
            Some(base)
        }

        fn free(&mut self, base: u64, order: u32) {
            let freed = 1u64 << order;
            let mut base = base;
            let mut order = order;
            while order < MAX_ORDER {
                let buddy = base ^ (1u64 << order);
                if buddy + (1 << order) > self.nframes
                    || !self.free_lists[order as usize].remove(&buddy)
                {
                    break;
                }
                base = base.min(buddy);
                order += 1;
            }
            self.free_lists[order as usize].insert(base);
            self.free_frames += freed;
        }
    }

    #[test]
    fn lazy_seeding_matches_eager_reference_bit_for_bit() {
        // Pool sizes straddling the max-order boundary: aligned, with a
        // mixed-order tail, smaller than one max-order block, and large
        // enough that allocation crosses the pristine frontier repeatedly.
        for n in [1000u64, 1024, 1026, 3000, 4096, 5333, 8192] {
            for seed in 0..32u64 {
                let rng = SplitMix64::new(0x5EED_BA5E ^ seed);
                let mut lazy = BuddyAllocator::new(n);
                let mut eager = EagerRef::new(n);
                let mut held: Vec<(u64, u32)> = Vec::new();
                for step in 0..400 {
                    assert_eq!(
                        lazy.free_frames(),
                        eager.free_frames,
                        "free count diverged (n {n} seed {seed} step {step})"
                    );
                    if rng.next_below(3) < 2 || held.is_empty() {
                        let order = rng.next_below(MAX_ORDER as u64 + 1) as u32;
                        let a = lazy.alloc(order);
                        let b = eager.alloc(order);
                        assert_eq!(
                            a, b,
                            "alloc(order {order}) diverged (n {n} seed {seed} step {step})"
                        );
                        if let Some(base) = a {
                            held.push((base, order));
                        }
                    } else {
                        let idx = rng.next_below(held.len() as u64) as usize;
                        let (base, order) = held.swap_remove(idx);
                        lazy.free(base, order);
                        eager.free(base, order);
                    }
                }
                for (base, order) in held {
                    lazy.free(base, order);
                    eager.free(base, order);
                }
                assert_eq!(lazy.free_frames(), n);
                assert_eq!(eager.free_frames, n);
            }
        }
    }

    #[test]
    fn alloc_free_roundtrip_restores_pool() {
        let mut b = BuddyAllocator::new(256);
        let mut got = Vec::new();
        while let Some(f) = b.alloc(0) {
            got.push(f);
        }
        assert_eq!(got.len(), 256);
        // All frames distinct and in range.
        let set: BTreeSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), 256);
        assert!(got.iter().all(|&f| f < 256));
        b.free_batch(&got);
        assert_eq!(b.free_frames(), 256);
        // After coalescing, a max-order block must be allocatable again.
        assert!(b.alloc(8).is_some());
    }

    #[test]
    fn split_and_coalesce() {
        let mut b = BuddyAllocator::new(16);
        let x = b.alloc(2).expect("4 frames"); // [0,4)
        assert_eq!(b.free_frames(), 12);
        let y = b.alloc(2).expect("4 frames"); // [4,8)
        assert_eq!(x ^ 4, y, "buddies allocated adjacently");
        b.free(x, 2);
        b.free(y, 2);
        assert_eq!(b.free_frames(), 16);
        // Coalesced back: an order-4 block exists.
        assert_eq!(b.alloc(4), Some(0));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(4);
        assert!(b.alloc(2).is_some());
        assert!(b.alloc(0).is_none());
    }

    #[test]
    #[should_panic(expected = "double or invalid free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(16);
        let f = b.alloc(0).unwrap();
        b.free(f, 0);
        b.free(f, 0);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(16);
        b.free(1, 1);
    }

    #[test]
    fn alloc_batch_partial_on_exhaustion() {
        let mut b = BuddyAllocator::new(10);
        let mut out = Vec::new();
        b.alloc_batch(20, &mut out);
        assert_eq!(out.len(), 10);
    }

    /// Any interleaving of allocs and frees preserves the invariants:
    /// no frame handed out twice, free count consistent, and freeing
    /// everything restores the full pool. 64 seeded random interleavings.
    #[test]
    fn random_alloc_free_invariants() {
        for seed in 0..64u64 {
            let rng = SplitMix64::new(0xB0DD_1E50 ^ seed);
            let n = 128u64;
            let mut b = BuddyAllocator::new(n);
            let mut held: Vec<(u64, u32)> = Vec::new();
            let mut held_frames: BTreeSet<u64> = BTreeSet::new();
            let nops = 1 + rng.next_below(199);
            for _ in 0..nops {
                match rng.next_below(4) {
                    op @ (0 | 1) => {
                        // Alloc order 0 or 1.
                        let order = op as u32;
                        if let Some(base) = b.alloc(order) {
                            for i in 0..(1u64 << order) {
                                assert!(
                                    held_frames.insert(base + i),
                                    "frame {} double-allocated",
                                    base + i
                                );
                            }
                            held.push((base, order));
                        }
                    }
                    _ => {
                        if let Some((base, order)) = held.pop() {
                            for i in 0..(1u64 << order) {
                                held_frames.remove(&(base + i));
                            }
                            b.free(base, order);
                        }
                    }
                }
                assert_eq!(
                    b.free_frames() + held_frames.len() as u64,
                    n,
                    "conservation violated (seed {seed})"
                );
            }
            for (base, order) in held.drain(..) {
                b.free(base, order);
            }
            assert_eq!(b.free_frames(), n);
        }
    }
}

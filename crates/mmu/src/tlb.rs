//! Per-core TLB model over one sharer directory per machine.
//!
//! The TLB tracks which virtual page numbers a core can currently
//! translate without touching the page table. It serves two purposes in
//! the reproduction:
//!
//! 1. **Hit accounting** — minor-access fast paths (TLB hit) versus
//!    page-table walks.
//! 2. **Safety checking** — the eviction pipeline must never reclaim a
//!    frame while any core still caches a translation to it. The engine's
//!    debug assertions ask [`SharerDirectory::sharer`] to enforce this.
//!
//! Membership lives in a [`SharerDirectory`]: each cached page maps to a
//! bitmask of the cores caching it, so a shootdown's per-target
//! invalidation costs one directory probe, and reaches a core's
//! replacement state only when that core really caches the page. Each
//! [`Tlb`] keeps only its insertion vector and replacement RNG.
//!
//! Invalidations performed by the shootdown protocol clear entries at
//! *request* time even though the simulated flush completes later; this is
//! conservative for hit accounting and exact for the safety check, because
//! the initiating evictor does not reclaim the frame until the flush ACK
//! (see `mage_mmu::ipi`).

use std::cell::RefCell;
use std::num::NonZeroU64;
use std::rc::Rc;

use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;
use mage_sim::stats::Counter;

use crate::topology::CoreId;

/// Which cores cache a translation for each page.
///
/// A page's sharer mask has ⌈cores / 64⌉ words; each word is keyed by
/// `(page, word index)` and present only while some core of its 64 caches
/// the page. The directory therefore costs O(cached translations) host
/// memory, never O(pages touched), and a lookup, fill or invalidation is
/// one probe on any core count.
pub struct SharerDirectory {
    /// Mask words per page: ⌈cores / 64⌉.
    words: u64,
    /// `vpn * words + core / 64` → bit `core % 64` set per caching core.
    /// A word is never zero, so the map stores it in 8 bytes.
    sharers: RefCell<PageMap<NonZeroU64>>,
}

impl SharerDirectory {
    /// An empty directory for a machine of `cores` cores.
    pub fn new(cores: u32) -> Self {
        SharerDirectory {
            words: u64::from(cores.div_ceil(64).max(1)),
            sharers: RefCell::new(PageMap::new()),
        }
    }

    /// The key of word `w` of `vpn`'s sharer mask.
    #[inline]
    fn key(&self, vpn: u64, w: u64) -> u64 {
        vpn.checked_mul(self.words)
            .and_then(|k| k.checked_add(w))
            .expect("vpn fits the directory's key space")
    }

    /// The key of `core`'s mask word for `vpn`, and its bit in that word.
    #[inline]
    fn word(&self, vpn: u64, core: CoreId) -> (u64, u64) {
        (self.key(vpn, u64::from(core.0 / 64)), 1 << (core.0 % 64))
    }

    /// Whether `core` caches a translation for `vpn`.
    #[inline]
    fn caches(&self, vpn: u64, core: CoreId) -> bool {
        let (key, bit) = self.word(vpn, core);
        self.sharers
            .borrow()
            .get(key)
            .is_some_and(|w| w.get() & bit != 0)
    }

    /// The lowest-numbered core caching `vpn`, if any.
    pub fn sharer(&self, vpn: u64) -> Option<CoreId> {
        let sharers = self.sharers.borrow();
        (0..self.words).find_map(|w| {
            let word = sharers.get(self.key(vpn, w))?;
            Some(CoreId((w * 64) as u32 + word.trailing_zeros()))
        })
    }

    /// Live mask words: one per page cached by any core on ≤ 64-core
    /// machines. Bounded by the cached translations.
    pub fn entries(&self) -> usize {
        self.sharers.borrow().len()
    }

    /// Marks `core` as caching `vpn`; false if it already did.
    fn set(&self, vpn: u64, core: CoreId) -> bool {
        let (key, bit) = self.word(vpn, core);
        let mut inserted = false;
        let mut sharers = self.sharers.borrow_mut();
        let word = sharers.get_or_insert_with(key, || {
            inserted = true;
            NonZeroU64::new(bit).expect("a core's bit is nonzero")
        });
        let newly = inserted || word.get() & bit == 0;
        *word |= bit;
        newly
    }

    /// Clears `core`'s bit for `vpn`, dropping the word once no core of
    /// its 64 caches the page; true if the bit was set.
    fn clear(&self, vpn: u64, core: CoreId) -> bool {
        let (key, bit) = self.word(vpn, core);
        let mut was_set = false;
        self.sharers.borrow_mut().update_or_remove(key, |word| {
            was_set = word.get() & bit != 0;
            match NonZeroU64::new(word.get() & !bit) {
                Some(rest) => {
                    *word = rest;
                    true
                }
                None => false,
            }
        });
        was_set
    }
}

/// A fixed-capacity, randomly-replaced translation cache for one core.
pub struct Tlb {
    dir: Rc<SharerDirectory>,
    core: CoreId,
    capacity: usize,
    /// Cached vpns in insertion order, for random replacement.
    /// Invalidation scans it, but only after the directory confirms the
    /// page is here.
    order: RefCell<Vec<u64>>,
    rng: SplitMix64,
    /// Translation hits.
    pub hits: Counter,
    /// Translation misses.
    pub misses: Counter,
    /// Entries evicted by capacity replacement.
    pub capacity_evictions: Counter,
}

impl Tlb {
    /// Creates a stand-alone TLB with `capacity` entries (e.g. 1,536 for
    /// Ice Lake's combined DTLB+STLB reach at 4 KiB pages) over a private
    /// one-core directory.
    pub fn new(capacity: usize, seed: u64) -> Self {
        Self::with_directory(Rc::new(SharerDirectory::new(1)), CoreId(0), capacity, seed)
    }

    /// Creates `core`'s TLB over the machine's shared directory.
    pub fn with_directory(
        dir: Rc<SharerDirectory>,
        core: CoreId,
        capacity: usize,
        seed: u64,
    ) -> Self {
        Tlb {
            dir,
            core,
            capacity,
            order: RefCell::new(Vec::with_capacity(capacity)),
            rng: SplitMix64::new(seed),
            hits: Counter::new(),
            misses: Counter::new(),
            capacity_evictions: Counter::new(),
        }
    }

    /// Looks up `vpn`, recording a hit or miss.
    pub fn lookup(&self, vpn: u64) -> bool {
        if self.translates(vpn) {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// Whether the core can currently translate `vpn` (no stats recorded).
    pub fn translates(&self, vpn: u64) -> bool {
        self.dir.caches(vpn, self.core)
    }

    /// Inserts a translation after a page-table walk, evicting a random
    /// victim if the TLB is full.
    pub fn fill(&self, vpn: u64) {
        if !self.dir.set(vpn, self.core) {
            return;
        }
        let mut order = self.order.borrow_mut();
        if order.len() >= self.capacity {
            let victim_slot = self.rng.next_below(order.len() as u64) as usize;
            let victim = std::mem::replace(&mut order[victim_slot], vpn);
            self.dir.clear(victim, self.core);
            self.capacity_evictions.inc();
        } else {
            order.push(vpn);
        }
    }

    /// Invalidates one translation (INVLPG).
    pub fn invalidate(&self, vpn: u64) {
        if self.dir.clear(vpn, self.core) {
            let mut order = self.order.borrow_mut();
            let slot = order
                .iter()
                .position(|&v| v == vpn)
                .expect("a sharer bit has its order entry");
            order.swap_remove(slot);
        }
    }

    /// Flushes every translation (CR3 write).
    pub fn flush_all(&self) {
        for vpn in self.order.borrow_mut().drain(..) {
            self.dir.clear(vpn, self.core);
        }
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.order.borrow().len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.order.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let tlb = Tlb::new(4, 1);
        assert!(!tlb.lookup(10));
        tlb.fill(10);
        assert!(tlb.lookup(10));
        assert_eq!(tlb.hits.get(), 1);
        assert_eq!(tlb.misses.get(), 1);
    }

    #[test]
    fn invalidate_removes_entry() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(1);
        tlb.fill(2);
        tlb.invalidate(1);
        assert!(!tlb.translates(1));
        assert!(tlb.translates(2));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn invalidate_absent_is_noop() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(1);
        tlb.invalidate(99);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn capacity_replacement_bounds_size() {
        let tlb = Tlb::new(8, 42);
        for vpn in 0..100 {
            tlb.fill(vpn);
        }
        assert_eq!(tlb.len(), 8);
        assert_eq!(tlb.capacity_evictions.get(), 92);
        // Every resident entry must still be translatable.
        let resident: Vec<u64> = (0..100).filter(|&v| tlb.translates(v)).collect();
        assert_eq!(resident.len(), 8);
    }

    #[test]
    fn flush_all_clears() {
        let tlb = Tlb::new(16, 3);
        for vpn in 0..10 {
            tlb.fill(vpn);
        }
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert!(!tlb.translates(5));
        assert_eq!(tlb.dir.entries(), 0, "flush drops every directory word");
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(7);
        tlb.fill(7);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn swap_remove_bookkeeping_stays_consistent() {
        let tlb = Tlb::new(16, 5);
        for vpn in 0..10 {
            tlb.fill(vpn);
        }
        // Remove from the middle repeatedly; the directory and the order
        // vector must stay coherent.
        for vpn in [3, 0, 9, 5] {
            tlb.invalidate(vpn);
            assert!(!tlb.translates(vpn));
        }
        let alive: Vec<u64> = (0..10).filter(|&v| tlb.translates(v)).collect();
        assert_eq!(alive, vec![1, 2, 4, 6, 7, 8]);
        for &v in &alive {
            tlb.invalidate(v);
        }
        assert!(tlb.is_empty());
    }

    #[test]
    fn shared_directory_tracks_every_sharer() {
        // 130 cores: three mask words per page.
        let dir = Rc::new(SharerDirectory::new(130));
        let tlbs: Vec<Tlb> = [1, 64, 129]
            .into_iter()
            .map(|c| Tlb::with_directory(Rc::clone(&dir), CoreId(c), 4, c as u64))
            .collect();
        for tlb in &tlbs {
            tlb.fill(42);
        }
        assert_eq!(dir.entries(), 3, "one word per 64-core group");
        assert_eq!(dir.sharer(42), Some(CoreId(1)));
        tlbs[0].invalidate(42);
        assert!(!tlbs[0].translates(42));
        assert!(tlbs[1].translates(42) && tlbs[2].translates(42));
        assert_eq!(dir.sharer(42), Some(CoreId(64)));
        tlbs[1].invalidate(42);
        tlbs[2].invalidate(42);
        assert_eq!(dir.sharer(42), None);
        assert_eq!(dir.entries(), 0);
    }
}

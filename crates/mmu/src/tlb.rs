//! Per-core TLB model, each with its own small translation index.
//!
//! The TLB tracks which virtual page numbers a core can currently
//! translate without touching the page table. It serves two purposes in
//! the reproduction:
//!
//! 1. **The fast path** — a TLB hit is a minor access; a miss walks the
//!    page table. The engine counts the hits (`EngineStats::tlb_hits`).
//! 2. **Safety checking** — the eviction pipeline must never reclaim a
//!    frame while any core still caches a translation to it. The engine's
//!    debug assertions ask
//!    [`InterruptController::sharer`](crate::ipi::InterruptController::sharer)
//!    to enforce this.
//!
//! Each [`Tlb`] keeps its cached pages in an insertion vector, from which
//! random replacement draws its victims, and beside it an open-addressed
//! index of 2-byte slots: each occupied slot holds a page's position in
//! the vector, at or after the page's Fibonacci home slot. Probing is
//! linear and deletion shifts the cluster back, so there are no
//! tombstones.
//!
//! The vector is a [`Words`] reserved at full capacity when the TLB is
//! built: 4 bytes per entry while every cached page number fits 32 bits
//! (6 KiB for 1,536 entries), 8 bytes after the first fill of a larger
//! one widens it (12 KiB). A lookup or invalidation of such a page on a
//! narrow TLB answers "absent" without widening. The index starts at 16
//! slots and doubles to keep its load ≤ 3/8, from 32 bytes to 8 KiB at
//! 1,536 entries. So a core's TLB costs 6 KiB idle and 14 KiB full
//! (20 KiB widened) — small enough to stay cache-resident on the fault
//! path. A lookup, fill
//! or invalidation is one probe; invalidation re-points the last vector
//! entry's slot and swap-removes, so it never scans.
//!
//! Invalidations performed by the shootdown protocol clear entries at
//! *request* time even though the simulated flush completes later; this is
//! conservative for the fast path and exact for the safety check, because
//! the initiating evictor does not reclaim the frame until the flush ACK
//! (see `mage_mmu::ipi`).

use std::cell::RefCell;

use mage_sim::rng::SplitMix64;
use mage_sim::words::{View, Words};

/// An index slot that holds no page.
const EMPTY: u16 = u16::MAX;
/// log2 of the index's initial slot count.
const MIN_BITS: u32 = 4;

/// A fixed-capacity, randomly-replaced translation cache for one core.
pub struct Tlb {
    capacity: usize,
    entries: RefCell<Entries>,
    rng: SplitMix64,
}

/// The cached pages and their index.
struct Entries {
    /// Cached vpns in insertion order, for random replacement.
    order: Words,
    /// Open-addressed slots: a position in `order`, or [`EMPTY`]. The
    /// length is a power of two ≥ 16 with `order.len() * 8 ≤ len * 3`.
    index: Vec<u16>,
    /// `64 - log2(index.len())`: turns a Fibonacci product into a slot.
    shift: u32,
}

impl Entries {
    fn new(capacity: usize) -> Self {
        Entries {
            order: Words::with_capacity(capacity),
            index: vec![EMPTY; 1 << MIN_BITS],
            shift: 64 - MIN_BITS,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The slot holding `vpn`, or `Err` with the empty slot that ends its
    /// probe. A vpn too large for a narrow vector matches no entry.
    /// Always inlined: with a loop per width the compiler would call it,
    /// and a call costs a lookup about a third of its time.
    #[inline(always)]
    fn find(&self, vpn: u64) -> Result<usize, usize> {
        let slot = home(vpn, self.shift);
        match self.order.view() {
            View::Narrow(order) => self.probe(slot, |pos| u64::from(order[pos]) == vpn),
            View::Wide(order) => self.probe(slot, |pos| order[pos] == vpn),
        }
    }

    /// The slot holding vector position `pos`, whose page is `vpn`: the
    /// slot `find(vpn)` returns, found by comparing positions, so the
    /// probe never reads the vector.
    #[inline]
    fn slot_of(&self, vpn: u64, pos: usize) -> usize {
        self.probe(home(vpn, self.shift), |p| p == pos)
            .expect("a cached page is indexed")
    }

    /// Walks the probe from `slot` to the first slot whose position
    /// `holds` the page (`Ok`) or to the empty slot that ends it (`Err`).
    #[inline(always)]
    fn probe(&self, mut slot: usize, holds: impl Fn(usize) -> bool) -> Result<usize, usize> {
        let mask = self.mask();
        // Bounded by the slot count: a probe that wraps the whole index
        // means the index lost its empty slots.
        for _ in 0..=mask {
            match self.index[slot] {
                EMPTY => return Err(slot),
                pos if holds(usize::from(pos)) => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
        panic!("TLB index has no empty slot");
    }

    /// The first empty slot on `vpn`'s probe, for a page known absent.
    #[inline]
    fn vacant(&self, vpn: u64) -> usize {
        let mask = self.mask();
        let mut slot = home(vpn, self.shift);
        for _ in 0..=mask {
            if self.index[slot] == EMPTY {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
        panic!("TLB index has no empty slot");
    }

    /// Empties `hole`, shifting later entries of its cluster back so that
    /// every remaining page stays reachable from its home slot. Reads
    /// `order` for those entries' pages, so it must be current for them.
    fn clear_slot(&mut self, hole: usize) {
        let shift = self.shift;
        match self.order.view() {
            View::Narrow(order) => shift_back(&mut self.index, hole, |pos| {
                home(u64::from(order[pos]), shift)
            }),
            View::Wide(order) => shift_back(&mut self.index, hole, |pos| home(order[pos], shift)),
        }
    }

    /// Doubles the index and re-homes every cached page.
    fn grow(&mut self) {
        self.index = vec![EMPTY; self.index.len() * 2];
        self.shift -= 1;
        for pos in 0..self.order.len() {
            let slot = self.vacant(self.order.get(pos));
            self.index[slot] = pos as u16;
        }
    }
}

/// `vpn`'s Fibonacci home slot in an index of `2^(64 - shift)` slots.
#[inline]
fn home(vpn: u64, shift: u32) -> usize {
    (vpn.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Empties `index[hole]` by backward-shift deletion; `home_of(pos)` is
/// the home slot of the page at vector position `pos`.
#[inline(always)]
fn shift_back(index: &mut [u16], mut hole: usize, home_of: impl Fn(usize) -> usize) {
    let mask = index.len() - 1;
    let mut slot = hole;
    loop {
        slot = (slot + 1) & mask;
        let pos = index[slot];
        if pos == EMPTY {
            break;
        }
        let home = home_of(usize::from(pos));
        // The entry may fill the hole only if its home is not
        // cyclically inside (hole, slot].
        if slot.wrapping_sub(home) & mask >= slot.wrapping_sub(hole) & mask {
            index[hole] = pos;
            hole = slot;
        }
    }
    index[hole] = EMPTY;
}

impl Tlb {
    /// Creates a TLB with `capacity` entries (e.g. 1,536 for Ice Lake's
    /// combined DTLB+STLB reach at 4 KiB pages) whose random replacement
    /// draws from `seed`.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0 (a fill would have no victim to draw) or does
    /// not leave room for the index's empty marker (≥ 65,535).
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(
            (1..usize::from(EMPTY)).contains(&capacity),
            "TLB capacity {capacity} outside 1..{EMPTY}: the index stores 2-byte positions"
        );
        Tlb {
            capacity,
            entries: RefCell::new(Entries::new(capacity)),
            rng: SplitMix64::new(seed),
        }
    }

    /// Whether the core can currently translate `vpn`.
    #[inline]
    pub fn lookup(&self, vpn: u64) -> bool {
        self.entries.borrow().find(vpn).is_ok()
    }

    /// Inserts a translation after a page-table walk, evicting a random
    /// victim if the TLB is full.
    pub fn fill(&self, vpn: u64) {
        let mut e = self.entries.borrow_mut();
        let Err(mut slot) = e.find(vpn) else {
            return;
        };
        let len = e.order.len();
        let pos = if len >= self.capacity {
            let victim_pos = self.rng.next_below(len as u64) as usize;
            let victim_slot = e.slot_of(e.order.get(victim_pos), victim_pos);
            e.clear_slot(victim_slot);
            e.order.set(victim_pos, vpn);
            // The backward shift may have emptied a slot earlier on
            // `vpn`'s probe.
            slot = e.vacant(vpn);
            victim_pos
        } else {
            e.order.push(vpn);
            if (len + 1) * 8 > e.index.len() * 3 {
                // Re-homing indexes `vpn` with every other page.
                e.grow();
                return;
            }
            len
        };
        e.index[slot] = pos as u16;
    }

    /// Invalidates one translation (INVLPG).
    pub fn invalidate(&self, vpn: u64) {
        let mut e = self.entries.borrow_mut();
        let Ok(slot) = e.find(vpn) else {
            return;
        };
        let pos = e.index[slot];
        let last = e.order.len() - 1;
        if usize::from(pos) != last {
            let moved = e.slot_of(e.order.get(last), last);
            e.index[moved] = pos;
        }
        e.order.swap_remove(usize::from(pos));
        e.clear_slot(slot);
    }

    /// Flushes every translation (CR3 write).
    pub fn flush_all(&self) {
        let mut e = self.entries.borrow_mut();
        e.order.clear();
        e.index.fill(EMPTY);
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.borrow().order.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.borrow().order.is_empty()
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
    }

    #[test]
    fn invalidate_removes_entry() {
        let tlb = Tlb::new(4, 1);
        tlb.fill(1);
        tlb.fill(2);
        tlb.invalidate(1);
        assert!(!tlb.lookup(1));
        assert!(tlb.lookup(2));
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
        // Every resident entry must still be translatable.
        let resident: Vec<u64> = (0..100).filter(|&v| tlb.lookup(v)).collect();
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
        assert!((0..10).all(|v| !tlb.lookup(v)));
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
        // Remove from the middle repeatedly; the index and the order
        // vector must stay coherent.
        for vpn in [3, 0, 9, 5] {
            tlb.invalidate(vpn);
            assert!(!tlb.lookup(vpn));
        }
        let alive: Vec<u64> = (0..10).filter(|&v| tlb.lookup(v)).collect();
        assert_eq!(alive, vec![1, 2, 4, 6, 7, 8]);
        for &v in &alive {
            tlb.invalidate(v);
        }
        assert!(tlb.is_empty());
    }

    #[test]
    fn index_grows_to_eight_kib_at_full_reach() {
        let tlb = Tlb::new(1_536, 9);
        assert_eq!(tlb.entries.borrow().index.len(), 16, "idle core: 32 bytes");
        for vpn in 0..1_536 {
            tlb.fill(vpn << 12);
        }
        assert_eq!(
            tlb.entries.borrow().index.len(),
            4_096,
            "8 KiB at 1,536 entries"
        );
        assert!((0..1_536).all(|v| tlb.lookup(v << 12)));
    }

    #[test]
    fn only_a_fill_widens_the_vector() {
        let tlb = Tlb::new(4, 1);
        let wide = |tlb: &Tlb| matches!(tlb.entries.borrow().order.view(), View::Wide(_));
        tlb.fill(7);
        let big = (1 << 32) | 7;
        assert!(!tlb.lookup(big));
        tlb.invalidate(big);
        assert!(
            !wide(&tlb),
            "a lookup or invalidation of a page past 2^32 keeps it narrow"
        );
        tlb.fill(big);
        assert!(wide(&tlb));
        assert!(tlb.lookup(7) && tlb.lookup(big));
        tlb.invalidate(7);
        assert!(!tlb.lookup(7) && tlb.lookup(big));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    #[should_panic(expected = "TLB capacity 0 outside 1..65535")]
    fn zero_capacity_is_rejected() {
        Tlb::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "TLB capacity 65535 outside 1..65535")]
    fn capacity_past_the_slot_width_is_rejected() {
        Tlb::new(usize::from(u16::MAX), 1);
    }
}

//! A 5-level radix page table with x86-style PTE bits.
//!
//! The table covers a 57-bit virtual address space (45-bit virtual page
//! numbers) with 9 bits per level, like x86-64 with LA57. Five levels
//! (rather than the classic four) let terabyte-scale simulated address
//! spaces — a 2^40-page VMA is 4 PiB of simulated memory — map without
//! touching the radix geometry; paths are still allocated lazily, so
//! host cost is O(touched pages), never O(address-space span). PTEs are
//! 64-bit words:
//!
//! ```text
//!  63           12 11        5  4      3      2     1        0
//! +---------------+-----------+------+------+-----+--------+---------+
//! |   payload     | (unused)  |REMOTE|LOCKED|DIRTY|ACCESSED| PRESENT |
//! +---------------+-----------+------+------+-----+--------+---------+
//! ```
//!
//! `payload` holds the physical frame number while PRESENT, or the remote
//! page offset while REMOTE (DiLOS/MAGE-style VMA-direct mapping stores
//! the far-memory location directly in the PTE instead of a swap entry,
//! paper §4.2.3). LOCKED is the per-PTE fault-dedup lock that DiLOS embeds
//! in the page table and that the unified page table of MAGE-Lib reuses
//! (§5.2).
//!
//! The API is copy-in/copy-out (`get`/`set`/`update`) so no references
//! escape the internal arena; all methods are `&self`.
//!
//! # Storage
//!
//! The API deals in the 64-bit words above, but a leaf stores each PTE
//! word rotated so that its usual bits come first:
//!
//! ```text
//!  63           57 56                        5  4      3      2     1        0
//! +---------------+---------------------------+------+------+-----+--------+---------+
//! | PTE bits 5–11 |         payload           |REMOTE|LOCKED|DIRTY|ACCESSED| PRESENT |
//! +---------------+---------------------------+------+------+-----+--------+---------+
//! ```
//!
//! The stored word is below 2^32 exactly when bits 5–11 are clear and the
//! payload is below 2^27. A leaf is a 512-entry [`Words`], so it keeps
//! 4-byte words while every stored word fits one, and the first write
//! that does not fit widens the leaf in place to 8-byte words, once, by
//! zero-extension; a leaf never narrows back. Which width a leaf has is
//! invisible through the API: only host bytes move.
//!
//! # Race detection
//!
//! PTE words are the central shared state of the whole engine: the fault
//! path and the eviction path mutate them from different simulated
//! cores, synchronized only by the embedded LOCKED bit. When a
//! [`ShadowRegion`] is attached (see [`PageTable::attach_shadow`] and
//! `mage_sim::race`), the simsan happens-before detector checks that
//! protocol:
//!
//! - [`set`](PageTable::set) and [`place_run`](PageTable::place_run)
//!   are *plain writes* that must be ordered by the lock protocol;
//! - [`try_lock`](PageTable::try_lock) / [`unlock`](PageTable::unlock)
//!   take acquire/release edges on the per-word lock, and callers whose
//!   lock transitions are implicit in a `set` (unmap writes
//!   `remote+locked`, install writes `present+unlocked`) mark them with
//!   [`shadow_lock`](PageTable::shadow_lock) /
//!   [`shadow_unlock`](PageTable::shadow_unlock) /
//!   [`shadow_publish`](PageTable::shadow_publish).
//!
//! [`get`](PageTable::get) and [`update`](PageTable::update) are not
//! checked: they are lock-free single-word operations by design.
//! Without an attached region every check is a single branch.

use std::cell::RefCell;

use mage_sim::race::ShadowRegion;
use mage_sim::words::{ViewMut, Words};

/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

const LEVEL_BITS: u32 = 9;
const FANOUT: usize = 1 << LEVEL_BITS;
/// Radix depth (interior levels + the leaf level), LA57-style.
const LEVELS: u32 = 5;
const MAX_VPN: u64 = 1 << (LEVELS * LEVEL_BITS);

/// A page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Pte(pub u64);

impl Pte {
    const PRESENT: u64 = 1 << 0;
    const ACCESSED: u64 = 1 << 1;
    const DIRTY: u64 = 1 << 2;
    const LOCKED: u64 = 1 << 3;
    const REMOTE: u64 = 1 << 4;
    const PAYLOAD_SHIFT: u32 = 12;

    /// An empty (never-populated) entry.
    pub const NONE: Pte = Pte(0);

    /// Builds a present entry mapping physical frame `pfn`.
    pub fn present(pfn: u64) -> Pte {
        Pte((pfn << Self::PAYLOAD_SHIFT) | Self::PRESENT)
    }

    /// Builds a remote (non-present) entry pointing at remote page `rpn`.
    pub fn remote(rpn: u64) -> Pte {
        Pte((rpn << Self::PAYLOAD_SHIFT) | Self::REMOTE)
    }

    /// Whether the entry maps a local frame.
    pub fn is_present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Whether the entry points to far memory.
    pub fn is_remote(self) -> bool {
        self.0 & Self::REMOTE != 0
    }

    /// Whether the accessed bit is set.
    pub fn accessed(self) -> bool {
        self.0 & Self::ACCESSED != 0
    }

    /// Whether the dirty bit is set.
    pub fn dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Whether the fault-dedup lock bit is held.
    pub fn locked(self) -> bool {
        self.0 & Self::LOCKED != 0
    }

    /// The payload field (PFN while present, remote page while remote).
    pub fn payload(self) -> u64 {
        self.0 >> Self::PAYLOAD_SHIFT
    }

    /// Returns the entry with the accessed bit set/cleared.
    pub fn with_accessed(self, on: bool) -> Pte {
        self.with_bit(Self::ACCESSED, on)
    }

    /// Returns the entry with the dirty bit set/cleared.
    pub fn with_dirty(self, on: bool) -> Pte {
        self.with_bit(Self::DIRTY, on)
    }

    /// Returns the entry with the lock bit set/cleared.
    pub fn with_locked(self, on: bool) -> Pte {
        self.with_bit(Self::LOCKED, on)
    }

    fn with_bit(self, bit: u64, on: bool) -> Pte {
        if on {
            Pte(self.0 | bit)
        } else {
            Pte(self.0 & !bit)
        }
    }
}

/// The PTE bits below the payload that a stored word keeps in place:
/// the five flags.
const FLAGS: u64 = (1 << 5) - 1;
/// The payload's width: bits 12–63 of a PTE word.
const PAYLOAD_BITS: u32 = 64 - Pte::PAYLOAD_SHIFT;
/// Where a stored word keeps PTE bits 5–11: above the payload.
const SPARE_SHIFT: u32 = 5 + PAYLOAD_BITS;

/// The word a leaf stores for PTE word `word` (see the module docs'
/// "Storage"): a bijection on `u64`, below 2^32 exactly when `word`'s
/// bits 5–11 are clear and its payload is below 2^27.
fn to_stored(word: u64) -> u64 {
    word & FLAGS | (word >> Pte::PAYLOAD_SHIFT) << 5 | (word >> 5 & 0x7F) << SPARE_SHIFT
}

/// The PTE word a leaf's stored word stands for: the inverse of
/// [`to_stored`].
fn from_stored(stored: u64) -> u64 {
    stored & FLAGS
        | (stored >> 5 & ((1 << PAYLOAD_BITS) - 1)) << Pte::PAYLOAD_SHIFT
        | (stored >> SPARE_SHIFT) << 5
}

/// A 5-level radix page table (arena-backed).
///
/// # Examples
///
/// ```
/// use mage_mmu::{PageTable, Pte};
///
/// let pt = PageTable::new();
/// pt.set(0x1234, Pte::present(77).with_accessed(true));
/// let e = pt.get(0x1234);
/// assert!(e.is_present() && e.accessed());
/// assert_eq!(e.payload(), 77);
/// assert_eq!(pt.get(0x9999), Pte::NONE);
/// ```
pub struct PageTable {
    /// Interior nodes; entry 0 is the root. Slots hold `child_index + 1`
    /// (0 = empty). The last interior level's slots index into `leaves`.
    interior: RefCell<Vec<[u32; FANOUT]>>,
    /// Leaf nodes: 512 stored PTE words each (see "Storage").
    leaves: RefCell<Vec<Words>>,
    /// Simsan shadow state over PTE words, indexed by vpn (inert until
    /// [`PageTable::attach_shadow`]).
    shadow: RefCell<ShadowRegion>,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable {
            interior: RefCell::new(vec![[0; FANOUT]]),
            leaves: RefCell::new(Vec::new()),
            shadow: RefCell::new(ShadowRegion::disabled()),
        }
    }

    /// Attaches simsan shadow state: from here on every PTE write and
    /// lock-bit transition is checked (see the module docs). Attach
    /// before the simulation runs; pass [`ShadowRegion::disabled`] to
    /// detach.
    pub fn attach_shadow(&self, region: ShadowRegion) {
        *self.shadow.borrow_mut() = region;
    }

    fn slot(vpn: u64, level: u32) -> usize {
        ((vpn >> (LEVEL_BITS * (LEVELS - 1 - level))) & (FANOUT as u64 - 1)) as usize
    }

    /// Encodes a freshly pushed arena index as a non-zero child-slot
    /// value. Slots are 32-bit and reserve 0 for "empty", so the arena
    /// holds at most `u32::MAX` nodes; past that the old `as u32 + 1`
    /// cast silently wrapped and corrupted the radix — fail loudly
    /// instead.
    fn child_link(idx: usize) -> u32 {
        match u32::try_from(idx) {
            Ok(i) if i < u32::MAX => i + 1,
            _ => panic!(
                "page-table arena overflow: node index {idx} exceeds the \
                 {}-node limit of the 32-bit child-slot encoding",
                u32::MAX
            ),
        }
    }

    /// Finds the leaf holding `vpn`, optionally creating the path.
    fn leaf_of(&self, vpn: u64, create: bool) -> Option<(usize, usize)> {
        assert!(vpn < MAX_VPN, "vpn {vpn:#x} exceeds 57-bit address space");
        let mut interior = self.interior.borrow_mut();
        let mut node = 0usize;
        for level in 0..LEVELS - 1 {
            let slot = Self::slot(vpn, level);
            let child = interior[node][slot];
            let next = if child != 0 {
                (child - 1) as usize
            } else if !create {
                return None;
            } else if level < LEVELS - 2 {
                interior.push([0; FANOUT]);
                let idx = interior.len() - 1;
                interior[node][slot] = Self::child_link(idx);
                idx
            } else {
                let mut leaves = self.leaves.borrow_mut();
                leaves.push(Words::zeroed(FANOUT));
                let idx = leaves.len() - 1;
                interior[node][slot] = Self::child_link(idx);
                idx
            };
            node = next;
        }
        Some((node, Self::slot(vpn, LEVELS - 1)))
    }

    /// Reads the entry for `vpn` ([`Pte::NONE`] if the path is absent).
    ///
    /// Not checked for races: a lock-free `READ_ONCE`-style single-word
    /// read by design (the dedup-loop and policy probes).
    pub fn get(&self, vpn: u64) -> Pte {
        match self.leaf_of(vpn, false) {
            Some((leaf, slot)) => Pte(from_stored(self.leaves.borrow()[leaf].get(slot))),
            None => Pte::NONE,
        }
    }

    /// Writes the entry for `vpn`, creating intermediate levels.
    ///
    /// Plain-write-class for race detection: installs and unmaps must be
    /// ordered by the PTE lock protocol, so unordered concurrent `set`s
    /// are reported as data races when a shadow region is attached.
    #[track_caller]
    pub fn set(&self, vpn: u64, pte: Pte) {
        self.shadow.borrow().on_write(vpn);
        let (leaf, slot) = self.leaf_of(vpn, true).expect("create never fails");
        self.leaves.borrow_mut()[leaf].set(slot, to_stored(pte.0));
    }

    /// Places `n` never-populated entries starting at `first_vpn`, in vpn
    /// order: entry `vpn` gets `f(vpn)`. The radix is walked once per
    /// leaf the run touches, not once per entry.
    ///
    /// Each word is a plain write for race detection, as in
    /// [`set`](PageTable::set). `f` runs while the table is borrowed, so
    /// it must not access this page table.
    ///
    /// # Panics
    ///
    /// Panics naming the vpn if an entry of the run is not
    /// [`Pte::NONE`]: placing a page twice would leak its frame or slot.
    #[track_caller]
    pub fn place_run(&self, first_vpn: u64, n: u64, mut f: impl FnMut(u64) -> Pte) {
        let end = first_vpn
            .checked_add(n)
            .expect("place_run: vpn range overflows u64");
        let shadow = self.shadow.borrow();
        // Checks the entry is unplaced, records the write and returns the
        // new stored word. `#[track_caller]`, so reports and the panic
        // name `place_run`'s caller; always inlined into both loops.
        #[track_caller]
        #[inline(always)]
        fn place(shadow: &ShadowRegion, vpn: u64, old: u64, f: &mut impl FnMut(u64) -> Pte) -> u64 {
            assert!(
                old == to_stored(Pte::NONE.0),
                "place_run: vpn {vpn:#x} is already placed (pte {:#x})",
                from_stored(old)
            );
            shadow.on_write(vpn);
            to_stored(f(vpn).0)
        }
        let mut vpn = first_vpn;
        while vpn < end {
            let (leaf, first) = self.leaf_of(vpn, true).expect("create never fails");
            let last = (FANOUT as u64).min(first as u64 + (end - vpn)) as usize;
            let mut leaves = self.leaves.borrow_mut();
            let leaf = &mut leaves[leaf];
            let mut slot = first;
            if let ViewMut::Narrow(words) = leaf.view_mut() {
                // 4-byte words until one does not fit; that one widens
                // the leaf and the rest of the run takes the wide loop.
                while slot < last {
                    let stored = place(&shadow, vpn, u64::from(words[slot]), &mut f);
                    vpn += 1;
                    let Ok(narrow) = u32::try_from(stored) else {
                        leaf.set(slot, stored);
                        slot += 1;
                        break;
                    };
                    words[slot] = narrow;
                    slot += 1;
                }
            }
            if let ViewMut::Wide(words) = leaf.view_mut() {
                for wide in &mut words[slot..last] {
                    *wide = place(&shadow, vpn, *wide, &mut f);
                    vpn += 1;
                }
            }
        }
    }

    /// Atomically (w.r.t. the simulation) applies `f` to the entry for
    /// `vpn` and returns the *previous* value.
    ///
    /// Not checked for races: the hardware's accessed/dirty-bit RMWs and
    /// the lock-bit transitions are single-word atomics by design.
    pub fn update(&self, vpn: u64, f: impl FnOnce(Pte) -> Pte) -> Pte {
        let (leaf, slot) = self.leaf_of(vpn, true).expect("create never fails");
        let leaf = &mut self.leaves.borrow_mut()[leaf];
        let old = Pte(from_stored(leaf.get(slot)));
        leaf.set(slot, to_stored(f(old).0));
        old
    }

    /// Tries to set the lock bit; returns true on success (bit was clear).
    ///
    /// This is the PTE-embedded fault-deduplication lock of DiLOS / the
    /// MAGE-Lib unified page table (§5.2). Winning the bit takes an
    /// acquire edge on the word's lock for race detection.
    pub fn try_lock(&self, vpn: u64) -> bool {
        let old = self.update(vpn, |p| p.with_locked(true));
        let won = !old.locked();
        if won {
            self.shadow.borrow().lock(vpn);
        }
        won
    }

    /// Clears the lock bit (a release edge on the word's lock).
    pub fn unlock(&self, vpn: u64) {
        let old = self.update(vpn, |p| p.with_locked(false));
        debug_assert!(old.locked(), "unlock of unlocked pte {vpn:#x}");
        self.shadow.borrow().unlock(vpn);
    }

    /// Acquire edge on `vpn`'s word-lock for lock transitions implicit in
    /// a [`set`](PageTable::set) (the eviction unmap writes
    /// `remote+locked`; the refault-cancel takeover claims the eviction's
    /// lock through the `evicting` map).
    pub fn shadow_lock(&self, vpn: u64) {
        self.shadow.borrow().lock(vpn);
    }

    /// Release edge on `vpn`'s word-lock for unlock transitions implicit
    /// in a [`set`](PageTable::set) (installing a `present+unlocked`
    /// value, or settling `remote+unlocked` via `update`).
    pub fn shadow_unlock(&self, vpn: u64) {
        self.shadow.borrow().unlock(vpn);
    }

    /// Release edge on `vpn`'s word-lock *without* unlocking: the unmap
    /// publishes its `remote+locked` write so a refault-cancel that takes
    /// the lock over observes it ordered.
    pub fn shadow_publish(&self, vpn: u64) {
        self.shadow.borrow().publish(vpn);
    }

    /// Number of allocated interior + leaf nodes, each counted once
    /// whatever its word width: a node count, not a byte count.
    pub fn node_count(&self) -> usize {
        self.interior.borrow().len() + self.leaves.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_returns_none() {
        let pt = PageTable::new();
        assert_eq!(pt.get(0), Pte::NONE);
        assert_eq!(pt.get(MAX_VPN - 1), Pte::NONE);
        assert_eq!(pt.node_count(), 1);
    }

    #[test]
    fn set_get_roundtrip_across_levels() {
        let pt = PageTable::new();
        // VPNs chosen to differ in every level slot.
        let vpns = [0u64, 1, 511, 512, 1 << 18, (1 << 27) + 5, MAX_VPN - 1];
        for (i, &vpn) in vpns.iter().enumerate() {
            pt.set(vpn, Pte::present(i as u64 + 100));
        }
        for (i, &vpn) in vpns.iter().enumerate() {
            let e = pt.get(vpn);
            assert!(e.is_present());
            assert_eq!(e.payload(), i as u64 + 100, "vpn {vpn:#x}");
        }
    }

    #[test]
    fn update_returns_previous() {
        let pt = PageTable::new();
        pt.set(42, Pte::remote(7));
        let old = pt.update(42, |p| p.with_accessed(true));
        assert_eq!(old, Pte::remote(7));
        assert!(pt.get(42).accessed());
        assert!(pt.get(42).is_remote());
    }

    #[test]
    fn pte_bit_operations() {
        let p = Pte::present(3).with_accessed(true).with_dirty(true);
        assert!(p.is_present() && p.accessed() && p.dirty());
        assert!(!p.is_remote() && !p.locked());
        let p = p.with_accessed(false);
        assert!(!p.accessed() && p.dirty());
        assert_eq!(p.payload(), 3);
    }

    #[test]
    fn remote_and_present_are_distinct() {
        let r = Pte::remote(9);
        assert!(r.is_remote() && !r.is_present());
        let p = Pte::present(9);
        assert!(p.is_present() && !p.is_remote());
        assert_eq!(r.payload(), p.payload());
    }

    #[test]
    fn stored_words_round_trip_and_fit_exactly_the_narrow_ptes() {
        let rng = mage_sim::rng::SplitMix64::new(0x5707ED);
        let edges = [
            0,
            u64::MAX,
            Pte::present((1 << 27) - 1).0 | 0x1F,
            Pte::remote(1 << 27).0,
            1 << 5,
            1 << 11,
        ];
        for word in edges.into_iter().chain((0..10_000).map(|_| rng.next_u64())) {
            let stored = to_stored(word);
            assert_eq!(from_stored(stored), word, "{word:#x}");
            let fits = word & 0xFE0 == 0 && word >> Pte::PAYLOAD_SHIFT < 1 << 27;
            assert_eq!(stored <= u64::from(u32::MAX), fits, "{word:#x}");
            if fits {
                // Payload down from bit 12 to bit 5, the flags in place.
                assert_eq!(stored, word >> 7 | word & 0x1F, "{word:#x}");
            }
        }
    }

    #[test]
    fn pte_lock_protocol() {
        let pt = PageTable::new();
        pt.set(5, Pte::remote(1));
        assert!(pt.try_lock(5));
        assert!(!pt.try_lock(5), "second lock attempt must fail");
        pt.unlock(5);
        assert!(pt.try_lock(5));
    }

    #[test]
    fn place_run_matches_per_entry_set() {
        // Runs inside one leaf, exactly one leaf, across leaf and
        // interior boundaries, and up to the top of the address space.
        let shapes = [
            (0u64, 1u64),
            (5, 511),
            (0, 512),
            (511, 2),
            (300, 2_000),
            ((1 << 18) - 7, 520),
            (MAX_VPN - 3, 3),
        ];
        for (first, n) in shapes {
            let (run, oracle) = (PageTable::new(), PageTable::new());
            let mut seen = Vec::new();
            run.place_run(first, n, |vpn| {
                seen.push(vpn);
                Pte::remote(vpn ^ 0x55)
            });
            for vpn in first..first + n {
                oracle.set(vpn, Pte::remote(vpn ^ 0x55));
            }
            assert_eq!(seen, (first..first + n).collect::<Vec<_>>());
            assert_eq!(run.node_count(), oracle.node_count(), "run {first:#x}+{n}");
            let lo = first.saturating_sub(1);
            let hi = (first + n + 1).min(MAX_VPN);
            for vpn in lo..hi {
                assert_eq!(run.get(vpn), oracle.get(vpn), "vpn {vpn:#x}");
            }
        }
    }

    #[test]
    fn place_run_of_zero_pages_allocates_nothing() {
        let pt = PageTable::new();
        pt.place_run(1 << 30, 0, |_| unreachable!());
        assert_eq!(pt.node_count(), 1);
    }

    #[test]
    #[should_panic(expected = "vpn 0x201 is already placed")]
    fn place_run_over_a_placed_entry_panics() {
        let pt = PageTable::new();
        pt.set(0x201, Pte::present(3));
        pt.place_run(0x1f0, 64, Pte::remote);
    }

    #[test]
    #[should_panic(expected = "exceeds 57-bit address space")]
    fn oversized_vpn_panics() {
        PageTable::new().get(MAX_VPN);
    }

    #[test]
    fn dense_range_is_compact() {
        let pt = PageTable::new();
        for vpn in 0..10_000u64 {
            pt.set(vpn, Pte::present(vpn));
        }
        // 10k consecutive pages need ~20 leaves + 4 interior nodes.
        assert!(pt.node_count() < 30, "nodes: {}", pt.node_count());
        for vpn in (0..10_000u64).step_by(997) {
            assert_eq!(pt.get(vpn).payload(), vpn);
        }
    }

    #[test]
    fn scattered_pages_cost_o_touched_nodes() {
        // ~1k pages scattered over the full 2^45-vpn space: the radix
        // must allocate one path per touched page at most, never
        // anything proportional to the address-space span.
        let pt = PageTable::new();
        let touched = 1_000u64;
        for i in 0..touched {
            // Golden-ratio stride modulo the vpn space scatters across
            // every level's slots.
            let vpn = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % MAX_VPN;
            pt.set(vpn, Pte::present(i));
        }
        // Worst case: LEVELS-1 fresh nodes per page (shared root).
        let bound = 1 + touched as usize * (LEVELS as usize - 1);
        assert!(
            pt.node_count() <= bound,
            "nodes {} exceed O(touched) bound {bound}",
            pt.node_count()
        );
        for i in (0..touched).step_by(97) {
            let vpn = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % MAX_VPN;
            assert_eq!(pt.get(vpn).payload(), i);
        }
    }
}

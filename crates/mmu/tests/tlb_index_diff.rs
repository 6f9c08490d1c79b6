//! Seeded differential test of the engine's TLBs against a reference
//! model built on a general-purpose map.
//!
//! The reference keeps a `PageMap<usize>` from vpn to slot in its
//! insertion vector. Each engine [`Tlb`] keeps the same insertion vector
//! but indexes it with its own open-addressed table of 2-byte slots
//! (backward-shift deletion, growth by doubling). Random replacement
//! draws from the same RNG over the same vector, so every lookup and
//! victim must match the model exactly.
//!
//! The op stream mixes lookups, fills, single-core invalidations,
//! shootdowns (one page invalidated on every core) and full flushes.
//! Pages come from a contiguous pool and from a pool of keys that share
//! home slots at every index size, one group wrapping past the last slot,
//! so probes run long and backward shifts both move and keep entries.
//! Every case runs twice: once with colliders of 2^32 and above, which
//! widen a TLB's insertion vector on its first colliding fill, and once
//! with pages and colliders below 2^32, which keep every vector narrow.
//! One more stream fills a 1,536-entry TLB with pages below 2^32 and then
//! crosses 2^32, so a full TLB widens mid-run.
//! Machines have 1, 8 and 130 cores; capacities span 1–64, so some TLBs
//! thrash and some hold every page, plus one 1,536-entry TLB whose index
//! grows to its full size. After every step the two must agree on lookup
//! results, `len()` and membership for every (core, page), which pins
//! each victim choice, and [`InterruptController::sharer`] must name the
//! lowest core whose model holds the page. Everything is seeded
//! [`SplitMix64`], so a failure reproduces from the printed seed and
//! step.

use std::cell::RefCell;

use mage_mmu::{CoreId, InterruptController, IpiCostModel, Tlb, Topology};
use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;
use mage_sim::Simulation;

/// The multiplier of the TLB index's Fibonacci hash.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A TLB built on a general-purpose map: a vpn → slot index next to the
/// insertion vector.
struct IndexedTlb {
    capacity: usize,
    map: RefCell<PageMap<usize>>,
    order: RefCell<Vec<u64>>,
    rng: SplitMix64,
}

impl IndexedTlb {
    fn new(capacity: usize, seed: u64) -> Self {
        IndexedTlb {
            capacity,
            map: RefCell::new(PageMap::new()),
            order: RefCell::new(Vec::with_capacity(capacity)),
            rng: SplitMix64::new(seed),
        }
    }

    fn translates(&self, vpn: u64) -> bool {
        self.map.borrow().contains_key(vpn)
    }

    fn fill(&self, vpn: u64) {
        let mut map = self.map.borrow_mut();
        if map.contains_key(vpn) {
            return;
        }
        let mut order = self.order.borrow_mut();
        if order.len() >= self.capacity {
            let victim_slot = self.rng.next_below(order.len() as u64) as usize;
            let victim = order[victim_slot];
            map.remove(victim);
            order[victim_slot] = vpn;
            map.insert(vpn, victim_slot);
        } else {
            order.push(vpn);
            map.insert(vpn, order.len() - 1);
        }
    }

    fn invalidate(&self, vpn: u64) {
        let mut map = self.map.borrow_mut();
        if let Some(slot) = map.remove(vpn) {
            let mut order = self.order.borrow_mut();
            let last = order.len() - 1;
            order.swap(slot, last);
            order.pop();
            if slot < order.len() {
                map.insert(order[slot], slot);
            }
        }
    }

    fn flush_all(&self) {
        *self.map.borrow_mut() = PageMap::new();
        self.order.borrow_mut().clear();
    }

    fn len(&self) -> usize {
        self.order.borrow().len()
    }
}

/// The inverse of `FIB` modulo 2^64 (Newton's iteration; `FIB` is odd).
fn fib_inverse() -> u64 {
    let mut inv = FIB;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(FIB.wrapping_mul(inv)));
    }
    assert_eq!(FIB.wrapping_mul(inv), 1);
    inv
}

/// The top 16 bits of each colliding group's Fibonacci products: the
/// `0xFFFF` group homes at the last slot and wraps.
const GROUPS: [u64; 4] = [0xFFFF, 0x0000, 0x8000, 0x9000];

/// Keys whose Fibonacci products share their top 16 bits within each
/// group, so each group shares one home slot at every index size up to
/// 65,536 slots. All but key 0 are at least 2^32.
fn colliding_keys() -> Vec<u64> {
    let inv = fib_inverse();
    let keys: Vec<u64> = GROUPS
        .into_iter()
        .flat_map(|top| (0..6).map(move |j| ((top << 48) | j).wrapping_mul(inv)))
        .collect();
    assert_eq!(
        keys.iter().filter(|&&k| k <= u64::from(u32::MAX)).count(),
        1
    );
    keys
}

/// Six keys below 2^32 per group of [`GROUPS`], found by search: the
/// same collisions as [`colliding_keys`] on TLBs that stay narrow.
fn narrow_colliding_keys() -> Vec<u64> {
    GROUPS
        .into_iter()
        .flat_map(|top| {
            (0..=u64::from(u32::MAX))
                .filter(move |k| k.wrapping_mul(FIB) >> 48 == top)
                .take(6)
        })
        .collect()
}

/// One differential run.
struct Case {
    seed: u64,
    /// Cores in the machine; `sharer` scans them all.
    machine_cores: u32,
    /// Cores the op stream drives.
    active: Vec<u32>,
    capacity: usize,
    base_vpn: u64,
    /// Contiguous pages from `base_vpn`, beside the colliding keys.
    pages: u64,
    /// Keys that share home slots, added to the pool.
    colliders: Vec<u64>,
    /// Pages added to the pool at step `.0`, when every driven TLB must
    /// be full.
    late_pages: Option<(usize, Vec<u64>)>,
    steps: usize,
    /// Whether one op in 1,000 is a full flush; without flushes a large
    /// TLB can fill up.
    flushes: bool,
}

impl Case {
    /// Runs the op stream; returns the most translations any core held.
    fn run(&self) -> usize {
        let seed = self.seed;
        let sim = Simulation::new();
        let ic = InterruptController::new(
            sim.handle(),
            Topology::single_socket(self.machine_cores),
            IpiCostModel::bare_metal(),
            self.capacity,
            seed,
        );
        // Core `c`'s TLB replaces with seed `seed ^ c`.
        let tlbs: Vec<&Tlb> = self.active.iter().map(|&c| ic.tlb(CoreId(c))).collect();
        let models: Vec<IndexedTlb> = self
            .active
            .iter()
            .map(|&c| IndexedTlb::new(self.capacity, seed ^ u64::from(c)))
            .collect();
        let mut pool: Vec<u64> = (self.base_vpn..self.base_vpn + self.pages).collect();
        pool.extend(&self.colliders);

        let rng = SplitMix64::new(seed);
        let mut most = 0;
        for step in 0..self.steps {
            if let Some((at, late)) = &self.late_pages {
                if step == *at {
                    assert!(
                        models.iter().all(|m| m.len() == self.capacity),
                        "seed {seed} step {step}: a TLB is not full when the late pages arrive"
                    );
                    pool.extend(late);
                }
            }
            let i = rng.next_below(tlbs.len() as u64) as usize;
            let vpn = pool[rng.next_below(pool.len() as u64) as usize];
            let (tlb, model) = (tlbs[i], &models[i]);
            match rng.next_below(1_000) {
                0..=399 => {
                    let want = model.translates(vpn);
                    assert_eq!(
                        tlb.lookup(vpn),
                        want,
                        "seed {seed} step {step}: lookup({vpn})"
                    );
                    if !want {
                        tlb.fill(vpn);
                        model.fill(vpn);
                    }
                }
                400..=699 => {
                    tlb.fill(vpn);
                    model.fill(vpn);
                }
                700..=899 => {
                    tlb.invalidate(vpn);
                    model.invalidate(vpn);
                }
                900..=998 => {
                    for (tlb, model) in tlbs.iter().zip(&models) {
                        tlb.invalidate(vpn);
                        model.invalidate(vpn);
                    }
                }
                _ if self.flushes => {
                    tlb.flush_all();
                    model.flush_all();
                }
                _ => {}
            }
            for (k, (tlb, model)) in tlbs.iter().zip(&models).enumerate() {
                let core = self.active[k];
                assert_eq!(
                    tlb.len(),
                    model.len(),
                    "seed {seed} step {step}: core {core} len"
                );
                most = most.max(model.len());
                for &p in &pool {
                    assert_eq!(
                        tlb.lookup(p),
                        model.translates(p),
                        "seed {seed} step {step}: core {core} lookup({p})"
                    );
                }
            }
            for &p in &pool {
                let want = self
                    .active
                    .iter()
                    .zip(&models)
                    .find(|(_, m)| m.translates(p))
                    .map(|(&c, _)| CoreId(c));
                assert_eq!(ic.sharer(p), want, "seed {seed} step {step}: sharer({p})");
            }
        }
        most
    }
}

/// The colliders of the wide and the narrow run of every case.
fn both_widths() -> [Vec<u64>; 2] {
    [colliding_keys(), narrow_colliding_keys()]
}

#[test]
fn one_core_matches_map_model() {
    for colliders in both_widths() {
        for capacity in [1, 5, 40, 64] {
            Case {
                seed: 1,
                machine_cores: 1,
                active: vec![0],
                capacity,
                base_vpn: 0,
                pages: 40,
                colliders: colliders.clone(),
                late_pages: None,
                steps: 10_000,
                flushes: true,
            }
            .run();
        }
    }
}

#[test]
fn eight_cores_match_map_models() {
    for colliders in both_widths() {
        for (seed, capacity) in [(42, 3), (0xDEAD_BEEF, 23), (7, 64)] {
            Case {
                seed,
                machine_cores: 8,
                active: (0..8).collect(),
                capacity,
                base_vpn: 0x7F_0000,
                pages: 40,
                colliders: colliders.clone(),
                late_pages: None,
                steps: 20_000,
                flushes: true,
            }
            .run();
        }
    }
}

#[test]
fn sharer_scans_a_130_core_machine() {
    // The active cores straddle every 64-core boundary. The narrow run
    // takes the 40 pages just below 2^32.
    for (base_vpn, colliders) in [
        (1 << 36, colliding_keys()),
        ((1 << 32) - 40, narrow_colliding_keys()),
    ] {
        Case {
            seed: 0x5EED_5EED,
            machine_cores: 130,
            active: vec![0, 1, 63, 64, 65, 127, 128, 129],
            capacity: 17,
            base_vpn,
            pages: 40,
            colliders,
            late_pages: None,
            steps: 20_000,
            flushes: true,
        }
        .run();
    }
}

#[test]
fn full_reach_tlb_grows_its_index() {
    // Fills outpace invalidations until the 1,536 entries are full, so
    // the index doubles from 16 to 4,096 slots and then replaces.
    for colliders in both_widths() {
        let most = Case {
            seed: 0x1536,
            machine_cores: 1,
            active: vec![0],
            capacity: 1_536,
            base_vpn: 3 << 20,
            pages: 3_000,
            colliders,
            late_pages: None,
            steps: 12_000,
            flushes: false,
        }
        .run();
        assert_eq!(most, 1_536, "the TLB never filled");
    }
}

#[test]
fn full_tlb_widens_mid_run() {
    // 3,000 pages just below 2^32 fill the TLB narrow; at step 8,000 the
    // pool gains 1,000 pages from 2^32 and the wide colliders, so the
    // full TLB widens on its next such fill and then replaces across
    // both ranges.
    let late = (1 << 32..(1 << 32) + 1_000)
        .chain(colliding_keys())
        .collect();
    let most = Case {
        seed: 0x2_0000_0000,
        machine_cores: 1,
        active: vec![0],
        capacity: 1_536,
        base_vpn: (1 << 32) - 3_000,
        pages: 3_000,
        colliders: narrow_colliding_keys(),
        late_pages: Some((8_000, late)),
        steps: 12_000,
        flushes: false,
    }
    .run();
    assert_eq!(most, 1_536, "the TLB never filled");
}

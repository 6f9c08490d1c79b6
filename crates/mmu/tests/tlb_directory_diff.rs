//! Seeded differential test of the sharer-directory TLB against the
//! per-core-index TLB it replaced.
//!
//! Each core's TLB used to keep its own `PageMap<usize>` from vpn to slot
//! in its insertion vector. It lives on below as the reference model.
//! The engine's TLBs share one [`SharerDirectory`] (page → bitmask of
//! caching cores) and keep only the insertion vector and replacement RNG
//! per core. Random replacement draws from the same RNG over the same
//! vector, so every lookup, victim and counter must match the model
//! exactly.
//!
//! The op stream mixes lookups, fills, single-core invalidations,
//! shootdowns (one page invalidated on every core) and full flushes over
//! a small page pool, so TLBs fill, replace and drain repeatedly. One
//! topology has 130 cores, so sharer masks span three words. After every
//! step the two must agree on lookup results, `capacity_evictions`,
//! `len()` and `translates` for every (core, page). Everything is seeded
//! [`SplitMix64`], so a failure reproduces from the printed seed and step.

use std::cell::RefCell;
use std::rc::Rc;

use mage_mmu::{CoreId, SharerDirectory, Tlb};
use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;

const STEPS: usize = 20_000;
/// Fewer pages than the largest capacity and more than the smallest, so
/// some TLBs thrash and some hold every page.
const PAGES: u64 = 40;

/// The per-core TLB as it was before the directory: a private
/// vpn → slot index next to the insertion vector.
struct IndexedTlb {
    capacity: usize,
    map: RefCell<PageMap<usize>>,
    order: RefCell<Vec<u64>>,
    rng: SplitMix64,
    capacity_evictions: u64,
}

impl IndexedTlb {
    fn new(capacity: usize, seed: u64) -> Self {
        IndexedTlb {
            capacity,
            map: RefCell::new(PageMap::new()),
            order: RefCell::new(Vec::with_capacity(capacity)),
            rng: SplitMix64::new(seed),
            capacity_evictions: 0,
        }
    }

    fn translates(&self, vpn: u64) -> bool {
        self.map.borrow().contains_key(vpn)
    }

    fn fill(&mut self, vpn: u64) {
        let mut map = self.map.borrow_mut();
        if map.contains_key(vpn) {
            return;
        }
        let mut order = self.order.borrow_mut();
        if order.len() >= self.capacity {
            let victim_slot = self.rng.next_below(order.len() as u64) as usize;
            let victim = order[victim_slot];
            map.remove(victim);
            self.capacity_evictions += 1;
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

/// Drives `STEPS` random ops over TLBs of the given core ids on a
/// `machine_cores`-core directory, against one model per core.
fn run(seed: u64, machine_cores: u32, cores: &[u32], base_vpn: u64) {
    let rng = SplitMix64::new(seed);
    let dir = Rc::new(SharerDirectory::new(machine_cores));
    let mut tlbs = Vec::new();
    let mut models = Vec::new();
    for &c in cores {
        let capacity = 1 + rng.next_below(64) as usize;
        let tlb_seed = seed ^ u64::from(c);
        tlbs.push(Tlb::with_directory(
            Rc::clone(&dir),
            CoreId(c),
            capacity,
            tlb_seed,
        ));
        models.push(IndexedTlb::new(capacity, tlb_seed));
    }
    for step in 0..STEPS {
        let i = rng.next_below(cores.len() as u64) as usize;
        let vpn = base_vpn + rng.next_below(PAGES);
        let (tlb, model) = (&tlbs[i], &mut models[i]);
        match rng.next_below(100) {
            0..=39 => {
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
            40..=69 => {
                tlb.fill(vpn);
                model.fill(vpn);
            }
            70..=89 => {
                tlb.invalidate(vpn);
                model.invalidate(vpn);
            }
            90..=98 => {
                for (tlb, model) in tlbs.iter().zip(&models) {
                    tlb.invalidate(vpn);
                    model.invalidate(vpn);
                }
            }
            _ => {
                tlb.flush_all();
                model.flush_all();
            }
        }
        let mut cached = 0;
        for (k, (tlb, model)) in tlbs.iter().zip(&models).enumerate() {
            let core = cores[k];
            assert_eq!(
                tlb.capacity_evictions.get(),
                model.capacity_evictions,
                "seed {seed} step {step}: core {core} capacity_evictions"
            );
            assert_eq!(
                tlb.len(),
                model.len(),
                "seed {seed} step {step}: core {core} len"
            );
            for p in base_vpn..base_vpn + PAGES {
                assert_eq!(
                    tlb.translates(p),
                    model.translates(p),
                    "seed {seed} step {step}: core {core} translates({p})"
                );
            }
            cached += model.len();
        }
        assert!(
            dir.entries() <= cached,
            "seed {seed} step {step}: directory outgrew the TLBs"
        );
        for p in base_vpn..base_vpn + PAGES {
            let want = cores
                .iter()
                .zip(&models)
                .filter(|(_, m)| m.translates(p))
                .map(|(&c, _)| CoreId(c))
                .min();
            assert_eq!(dir.sharer(p), want, "seed {seed} step {step}: sharer({p})");
        }
    }
}

#[test]
fn one_core_directory_matches_indexed_tlb() {
    run(1, 1, &[0], 0);
}

#[test]
fn shared_directory_matches_indexed_tlbs() {
    for seed in [42, 0xDEAD_BEEF] {
        run(seed, 8, &[0, 1, 2, 3, 4, 5, 6, 7], 0x7F_0000);
    }
}

#[test]
fn multi_word_masks_match_indexed_tlbs() {
    // 130 cores: three mask words per page; the active cores straddle
    // every word boundary.
    run(
        0x5EED_5EED,
        130,
        &[0, 1, 63, 64, 65, 127, 128, 129],
        1 << 36,
    );
}

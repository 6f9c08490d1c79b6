//! Seeded differential fuzz of the S3-FIFO machinery against naive
//! shadow models, in the style of `fuzz_slab_wheel.rs`.
//!
//! Two layers are pinned:
//!
//! * [`GhostList`] — a bounded FIFO with O(1) membership — must agree
//!   op-for-op with a plain `Vec` shadow that re-derives every answer by
//!   linear scan: same membership, same eviction of the oldest live
//!   entry, same position refresh on re-record, and a hard capacity
//!   bound after every step, for bounds 0, 1, 2 and 32, and through
//!   trims after takes and ring rebuilds.
//! * [`PageAccounting`] with and without ghost-hit promotion (S3-FIFO's
//!   admission rule) — a seeded insert / take-victims / remove stream
//!   must uphold the structural rules: the ghost list stays bounded, a
//!   ghost-hit insert lands in the main (protected) queue exactly when
//!   promotion is on and every other insert in the small (probationary)
//!   queue, no VPN ever sits in two queues at once, and residency always
//!   equals the total queued population.
//!
//! Everything is seeded [`SplitMix64`], so a failure reproduces
//! bit-for-bit from the printed seed and step.

use std::rc::Rc;

use mage_accounting::{AccountingCosts, GhostList, PageAccounting};
use mage_sim::rng::SplitMix64;
use mage_sim::Simulation;

const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED];

/// Naive shadow of [`GhostList`]: an unbounded-ops, linear-scan `Vec`
/// ordered oldest → newest.
struct ShadowGhost {
    cap: usize,
    order: Vec<u64>,
}

impl ShadowGhost {
    fn record(&mut self, vpn: u64) {
        if self.cap == 0 {
            return;
        }
        self.order.retain(|&v| v != vpn);
        self.order.push(vpn);
        while self.order.len() > self.cap {
            self.order.remove(0);
        }
    }

    fn take(&mut self, vpn: u64) -> bool {
        let had = self.order.contains(&vpn);
        self.order.retain(|&v| v != vpn);
        had
    }
}

/// A [`GhostList`] driven in lockstep with its shadow; every op is
/// followed by a full comparison over the key space `0..keys`.
struct GhostPair {
    ghost: GhostList,
    shadow: ShadowGhost,
    keys: u64,
    ctx: String,
}

impl GhostPair {
    fn new(cap: usize, keys: u64) -> Self {
        GhostPair {
            ghost: GhostList::new(cap),
            shadow: ShadowGhost { cap, order: Vec::new() },
            keys,
            ctx: String::new(),
        }
    }

    fn record(&mut self, vpn: u64) {
        self.ghost.record(vpn);
        self.shadow.record(vpn);
        self.check();
    }

    fn take(&mut self, vpn: u64) {
        let (got, want) = (self.ghost.take(vpn), self.shadow.take(vpn));
        assert_eq!(got, want, "{}: take({vpn}) disagreed", self.ctx);
        self.check();
    }

    fn check(&self) {
        let ctx = &self.ctx;
        assert_eq!(self.ghost.len(), self.shadow.order.len(), "{ctx}: length disagreed");
        assert_eq!(self.ghost.is_empty(), self.shadow.order.is_empty(), "{ctx}: emptiness");
        assert!(self.ghost.len() <= self.ghost.capacity(), "{ctx}: ghost over capacity");
        for v in 0..self.keys {
            assert_eq!(
                self.ghost.contains(v),
                self.shadow.order.contains(&v),
                "{ctx}: contains({v}) disagreed"
            );
        }
    }
}

#[test]
fn ghost_list_matches_linear_shadow() {
    for cap in [1usize, 2, 7, 32] {
        scripted_ghost_ops(cap);
    }
    for cap in [0usize, 1, 2, 32] {
        for seed in SEEDS {
            let rng = SplitMix64::new(seed);
            // A key space three times the cap forces constant displacement,
            // re-record refreshes and takes of absent pages.
            let keys = 3 * cap.max(1) as u64;
            let mut pair = GhostPair::new(cap, keys);
            // Cap 32 runs long enough to cycle through many trims and
            // rebuilds.
            let steps = if cap == 32 { 20_000 } else { 5_000 };
            for step in 0..steps {
                pair.ctx = format!("cap {cap} seed {seed} step {step}");
                let vpn = rng.next_below(keys);
                match rng.next_below(10) {
                    0..=5 => pair.record(vpn),
                    6..=7 => pair.take(vpn),
                    _ => pair.check(),
                }
            }
        }
    }
}

/// Cases a random stream reaches only by chance: trimming after takes
/// must drop the oldest *live* page rather than a stale entry, and
/// re-records and takes that leave more than twice `cap` stale entries
/// on the ring force its rebuild, after which the order must still
/// match.
fn scripted_ghost_ops(cap: usize) {
    let c = cap as u64;
    let mut pair = GhostPair::new(cap, 8 * c + 8);
    pair.ctx = format!("cap {cap} fill");
    for vpn in 0..c {
        pair.record(vpn);
    }
    pair.ctx = format!("cap {cap} re-record");
    // Re-recording a live page refreshes it: page 0 becomes newest.
    pair.record(0);
    pair.ctx = format!("cap {cap} take");
    // Take the oldest half (stale entries at the ring's front) and an
    // absent page.
    for vpn in 1..=c / 2 {
        pair.take(vpn);
    }
    pair.take(8 * c + 7);
    pair.ctx = format!("cap {cap} trim after takes");
    // Refill to the bound, then past it: each new page must drop the
    // oldest live page, skipping the stale entries of the taken ones.
    for vpn in c..3 * c {
        pair.record(vpn);
    }
    pair.ctx = format!("cap {cap} stale storm");
    // Re-record every live page in turn, three passes over the bound:
    // each leaves its older entry stale, so the ring passes 2 × cap
    // with at least 2 × cap stale entries and is rebuilt.
    let live: Vec<u64> = pair.shadow.order.clone();
    for _ in 0..3 {
        for &vpn in &live {
            pair.record(vpn);
        }
    }
    // Record-then-take pairs leave one stale entry each.
    for vpn in 4 * c..6 * c + 1 {
        pair.record(vpn);
        pair.take(vpn);
    }
    pair.ctx = format!("cap {cap} after rebuild");
    // The rebuilt ring must still drop pages oldest first.
    for vpn in 6 * c + 1..8 * c + 2 {
        pair.record(vpn);
    }
    while let Some(&oldest) = pair.shadow.order.first() {
        pair.take(oldest);
    }
}

#[test]
fn s3fifo_accounting_upholds_queue_rules() {
    for (seed, promote) in SEEDS.into_iter().flat_map(|s| [(s, true), (s, false)]) {
        let sim = Simulation::new();
        let acc = Rc::new(PageAccounting::new(
            sim.handle(),
            2,
            promote,
            AccountingCosts::default(),
        ));
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            let rng = SplitMix64::new(seed);
            // Shadow residency set (BTreeSet iteration order is
            // deterministic, matching the repo's no-hash rule).
            let mut resident: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            let mut victims = Vec::new();
            for step in 0..2_000u64 {
                let vpn = rng.next_below(256);
                match rng.next_below(8) {
                    0..=4 => {
                        if resident.contains(&vpn) {
                            continue; // the engine never double-inserts
                        }
                        let was_ghost = a.ghost_contains(vpn);
                        let hit = a.insert(rng.next_below(8) as usize, vpn).await;
                        assert_eq!(
                            hit, was_ghost,
                            "seed {seed} promote {promote} step {step}: ghost hit misreported for {vpn}"
                        );
                        resident.insert(vpn);
                        // Promotion rule: promoted ghost hits land in main
                        // (protected), every other insert in small
                        // (probation).
                        let snap = a.queues_snapshot();
                        let in_main = snap.iter().any(|(_, main)| main.contains(&vpn));
                        let in_small = snap.iter().any(|(small, _)| small.contains(&vpn));
                        if was_ghost && promote {
                            assert!(
                                in_main && !in_small,
                                "seed {seed} promote {promote} step {step}: ghost hit {vpn} not promoted to main"
                            );
                        } else {
                            assert!(
                                in_small && !in_main,
                                "seed {seed} promote {promote} step {step}: insert {vpn} not in probation"
                            );
                        }
                        assert!(
                            !a.ghost_contains(vpn),
                            "seed {seed} promote {promote} step {step}: resident {vpn} still ghosted"
                        );
                    }
                    5..=6 => {
                        victims.clear();
                        let want = (rng.next_below(8) + 1) as usize;
                        // Deterministic hotness: every third VPN is hot on
                        // inspection (exercises reactivation into main).
                        a.take_victims(0, step as usize, want, &|v: u64| v.is_multiple_of(3), &mut victims)
                            .await;
                        for &v in &victims {
                            assert!(
                                resident.remove(&v),
                                "seed {seed} promote {promote} step {step}: victim {v} was not resident"
                            );
                            assert!(
                                a.ghost_contains(v),
                                "seed {seed} promote {promote} step {step}: victim {v} not ghosted"
                            );
                        }
                    }
                    _ => {
                        let removed = a.remove(vpn).await;
                        assert_eq!(
                            removed,
                            resident.remove(&vpn),
                            "seed {seed} promote {promote} step {step}: remove({vpn}) disagreed"
                        );
                    }
                }
                // Structural invariants after every op.
                assert!(
                    a.ghost_len() <= GhostList::DEFAULT_CAP,
                    "seed {seed} promote {promote} step {step}: ghost unbounded"
                );
                let snap = a.queues_snapshot();
                let mut seen = std::collections::BTreeSet::new();
                let mut queued = 0u64;
                for (small, main) in &snap {
                    for &v in small.iter().chain(main.iter()) {
                        queued += 1;
                        assert!(
                            seen.insert(v),
                            "seed {seed} promote {promote} step {step}: {v} present in two queues"
                        );
                        assert!(
                            !a.ghost_contains(v),
                            "seed {seed} promote {promote} step {step}: queued {v} also ghosted"
                        );
                    }
                }
                assert_eq!(
                    queued,
                    a.resident_pages(),
                    "seed {seed} promote {promote} step {step}: residency drifted from the queues"
                );
                assert_eq!(
                    seen,
                    resident,
                    "seed {seed} promote {promote} step {step}: queue population drifted from the shadow"
                );
            }
        });
    }
}

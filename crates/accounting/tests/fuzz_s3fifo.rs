//! Seeded differential fuzz of the S3-FIFO machinery against naive
//! shadow models, in the style of `fuzz_slab_wheel.rs`.
//!
//! Two layers are pinned:
//!
//! * [`GhostList`] — a bounded FIFO with O(log n) membership — must agree
//!   op-for-op with a plain `Vec` shadow that re-derives every answer by
//!   linear scan: same membership, same eviction of the oldest entry,
//!   same position refresh on re-record, and a hard capacity bound after
//!   every step.
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

#[test]
fn ghost_list_matches_linear_shadow() {
    for seed in SEEDS {
        let rng = SplitMix64::new(seed);
        // Small cap + narrow key space force constant displacement and
        // re-record refreshes.
        let cap = 32;
        let mut ghost = GhostList::new(cap);
        let mut shadow = ShadowGhost { cap, order: Vec::new() };
        for step in 0..20_000u64 {
            let vpn = rng.next_below(96);
            match rng.next_below(10) {
                0..=5 => {
                    ghost.record(vpn);
                    shadow.record(vpn);
                }
                6..=7 => {
                    assert_eq!(
                        ghost.take(vpn),
                        shadow.take(vpn),
                        "seed {seed} step {step}: take({vpn}) disagreed"
                    );
                }
                _ => {
                    assert_eq!(
                        ghost.contains(vpn),
                        shadow.order.contains(&vpn),
                        "seed {seed} step {step}: contains({vpn}) disagreed"
                    );
                }
            }
            assert_eq!(
                ghost.len(),
                shadow.order.len(),
                "seed {seed} step {step}: length disagreed"
            );
            assert!(
                ghost.len() <= ghost.capacity(),
                "seed {seed} step {step}: ghost over capacity"
            );
            if step % 1_000 == 0 {
                // Full-membership crosscheck.
                for &v in &shadow.order {
                    assert!(
                        ghost.contains(v),
                        "seed {seed} step {step}: {v} missing from ghost"
                    );
                }
            }
        }
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

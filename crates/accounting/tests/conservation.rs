//! Randomized tests: page accounting never loses or duplicates pages.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use mage_accounting::{AccountingCosts, PageAccounting};
use mage_sim::rng::SplitMix64;
use mage_sim::Simulation;

/// Every inserted page is eventually handed out exactly once as a victim
/// (when nothing is hot — a FIFO probe), regardless of partition count,
/// ghost-hit admission, interleaving, or batch sizes.
#[test]
fn pages_conserved_through_scans() {
    let rng = SplitMix64::new(0xC025_E12E);
    for case in 0..32u64 {
        let promote_ghost_hits = rng.next_below(2) == 1;
        let partitions = (1 + rng.next_below(8)) as usize;
        let pages = 1 + rng.next_below(399);
        let batch = (1 + rng.next_below(63)) as usize;
        let evictors = (1 + rng.next_below(4)) as usize;

        let sim = Simulation::new();
        let acct = Rc::new(PageAccounting::new(
            sim.handle(),
            partitions,
            promote_ghost_hits,
            AccountingCosts::default(),
        ));
        // Insert from a rotating set of cores.
        {
            let acct = Rc::clone(&acct);
            let inserted = pages;
            sim.block_on(async move {
                for vpn in 0..inserted {
                    acct.insert((vpn % 13) as usize, vpn).await;
                }
            });
        }
        assert_eq!(acct.resident_pages(), pages);

        // Concurrent evictors drain everything.
        let victims: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for e in 0..evictors {
            let acct = Rc::clone(&acct);
            let victims = Rc::clone(&victims);
            sim.spawn(async move {
                let mut round = e;
                let mut idle = 0;
                while idle < 4 {
                    let mut out = Vec::new();
                    acct.take_victims(e, round, batch, &|_| false, &mut out).await;
                    round += 1;
                    if out.is_empty() {
                        idle += 1;
                    } else {
                        idle = 0;
                        victims.borrow_mut().extend(out);
                    }
                }
            });
        }
        sim.run();

        let got = victims.borrow();
        let set: BTreeSet<u64> = got.iter().copied().collect();
        assert_eq!(set.len(), got.len(), "case {case}: a page was handed out twice");
        assert_eq!(got.len() as u64, pages, "case {case}: pages lost in the lists");
        assert_eq!(acct.resident_pages(), 0);
    }
}

/// With a one-shot hotness oracle, hot pages are never the *first*
/// victims and are still evicted exactly once overall.
#[test]
fn second_chance_defers_but_never_duplicates() {
    let rng = SplitMix64::new(0x2ECD_CACE);
    for _ in 0..32 {
        let pages = 4 + rng.next_below(196);
        let hot_stride = 2 + rng.next_below(6);

        let sim = Simulation::new();
        let acct = Rc::new(PageAccounting::new(
            sim.handle(),
            1,
            false,
            AccountingCosts::default(),
        ));
        let hot: Rc<RefCell<BTreeSet<u64>>> = Rc::new(RefCell::new(
            (0..pages).filter(|v| v % hot_stride == 0).collect(),
        ));
        let acct2 = Rc::clone(&acct);
        let hot2 = Rc::clone(&hot);
        let victims = sim.block_on(async move {
            for vpn in 0..pages {
                acct2.insert(0, vpn).await;
            }
            let is_hot = |vpn: u64| hot2.borrow_mut().remove(&vpn);
            let mut out = Vec::new();
            let mut round = 0;
            while (out.len() as u64) < pages && round < 64 {
                acct2.take_victims(0, round, 32, &is_hot, &mut out).await;
                round += 1;
            }
            out
        });
        let set: BTreeSet<u64> = victims.iter().copied().collect();
        assert_eq!(set.len() as u64, pages, "duplicates or losses");
        // The first victim must be a cold page (hot pages got a second
        // chance), as long as there was at least one cold page.
        if pages > pages / hot_stride {
            assert!(!victims[0].is_multiple_of(hot_stride), "hot page evicted first");
        }
    }
}

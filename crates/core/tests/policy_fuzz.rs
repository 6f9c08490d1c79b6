//! Seeded differential fuzz of the counter-policy presets against the
//! per-page policies they replaced.
//!
//! `SecondChance`, `AgingClock`, `ApproxLru` and the S3-FIFO filter used
//! to be four structs, three of them keeping per-page state in a
//! `BTreeMap` keyed by VPN. They live on below as reference models. The
//! engine's presets (`EvictionPolicyKind::build`) keep one byte per
//! *frame* instead, so the op stream exercises every way a frame changes
//! owner: it touches pages, scans them, sends ghost hits, evicts pages
//! whose last probe returned `false`, cancels evictions back onto the
//! same frame, forces pageouts, and reinstalls evicted pages on a
//! different, reused frame. Every scan must reach the same keep/evict
//! verdict in the model and in the preset.
//!
//! The models are the deleted code with one addition: forced pageout
//! (`note_pageout`, which the old trait lacked) drops the page's state.
//! They implement [`Model`], a local copy of the trait the policies
//! once shared.
//!
//! Everything is seeded [`SplitMix64`], so a failure reproduces
//! bit-for-bit from the printed seed and step.

use std::cell::RefCell;
use std::collections::BTreeMap;

use mage::EvictionPolicyKind;
use mage_mmu::{PageTable, Pte};
use mage_sim::rng::SplitMix64;

const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED];
const STEPS: usize = 20_000;
/// More pages than frames, so frames keep changing owner.
const PAGES: u64 = 48;
const FRAMES: u64 = 32;
const VPN0: u64 = 0x1000;

/// A reference policy: the engine's `VictimPolicy` methods, with
/// no-op defaults for the signals a model ignores.
trait Model {
    fn name(&self) -> &'static str;
    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool;
    fn note_refault(&self, _pt: &PageTable, _vpn: u64) {}
    fn note_pageout(&self, _pt: &PageTable, _vpn: u64) {}
}

/// The paper's second-chance test.
struct SecondChanceModel;

impl Model for SecondChanceModel {
    fn name(&self) -> &'static str {
        "second-chance"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        pt.update(vpn, |p| p.with_accessed(false)).accessed()
    }
}

/// Aging-counter CLOCK: a hit recharges to three grace rounds, a miss
/// decays.
#[derive(Default)]
struct AgingClockModel {
    counters: RefCell<BTreeMap<u64, u8>>,
}

impl AgingClockModel {
    const HOT_ROUNDS: u8 = 3;
}

impl Model for AgingClockModel {
    fn name(&self) -> &'static str {
        "aging-clock"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        let mut counters = self.counters.borrow_mut();
        if old.accessed() {
            counters.insert(vpn, Self::HOT_ROUNDS);
            return true;
        }
        match counters.get_mut(&vpn) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                counters.remove(&vpn);
                false
            }
            None => false,
        }
    }

    fn note_pageout(&self, _pt: &PageTable, vpn: u64) {
        self.counters.borrow_mut().remove(&vpn);
    }
}

/// S3-FIFO's 2-bit frequency filter with ghost-hit recharge.
#[derive(Default)]
struct S3FifoModel {
    freq: RefCell<BTreeMap<u64, u8>>,
}

impl S3FifoModel {
    const FREQ_CAP: u8 = 3;
}

impl Model for S3FifoModel {
    fn name(&self) -> &'static str {
        "s3-fifo"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        let mut freq = self.freq.borrow_mut();
        if old.accessed() {
            let f = freq.entry(vpn).or_insert(0);
            *f = (*f + 1).min(Self::FREQ_CAP);
            return true;
        }
        match freq.get_mut(&vpn) {
            Some(f) if *f > 1 => {
                *f -= 1;
                true
            }
            Some(_) => {
                freq.remove(&vpn);
                true // last unit of grace: survive this scan, evict next
            }
            None => false,
        }
    }

    fn note_refault(&self, _pt: &PageTable, vpn: u64) {
        self.freq.borrow_mut().insert(vpn, Self::FREQ_CAP);
    }

    fn note_pageout(&self, _pt: &PageTable, vpn: u64) {
        self.freq.borrow_mut().remove(&vpn);
    }
}

/// NFU-with-aging: an 8-bit shift register per page.
#[derive(Default)]
struct ApproxLruModel {
    age: RefCell<BTreeMap<u64, u8>>,
}

impl Model for ApproxLruModel {
    fn name(&self) -> &'static str {
        "approx-lru"
    }

    fn test_and_age(&self, pt: &PageTable, vpn: u64) -> bool {
        let old = pt.update(vpn, |p| p.with_accessed(false));
        let mut ages = self.age.borrow_mut();
        let slot = ages.entry(vpn).or_insert(0);
        *slot = (*slot >> 1) | if old.accessed() { 0x80 } else { 0 };
        if *slot == 0 {
            ages.remove(&vpn);
            false
        } else {
            true
        }
    }

    fn note_pageout(&self, _pt: &PageTable, vpn: u64) {
        self.age.borrow_mut().remove(&vpn);
    }
}

/// Every preset paired with a fresh model of the policy it replaced.
fn pairs() -> Vec<(EvictionPolicyKind, Box<dyn Model>)> {
    vec![
        (
            EvictionPolicyKind::SecondChance,
            Box::new(SecondChanceModel),
        ),
        (
            EvictionPolicyKind::ApproxLru,
            Box::new(ApproxLruModel::default()),
        ),
        (EvictionPolicyKind::S3Fifo, Box::new(S3FifoModel::default())),
        (
            EvictionPolicyKind::AgingClock,
            Box::new(AgingClockModel::default()),
        ),
    ]
}

/// What one stream exercised, so a vacuous pass is caught.
#[derive(Default)]
struct Tally {
    scans: u64,
    /// Cold scans that kept the page on its remaining grace.
    graced: u64,
    evictions: u64,
    /// Installs onto a frame last owned by a different page.
    reowned: u64,
}

/// Drives `model` and the preset `kind` through one seeded op stream,
/// each on its own page table receiving identical writes.
fn fuzz(kind: EvictionPolicyKind, model: Box<dyn Model>, seed: u64) -> Tally {
    let preset = kind.build();
    let name = kind.name();
    assert_eq!(model.name(), name);
    assert_eq!(preset.name(), name);
    let pts = [PageTable::new(), PageTable::new()];
    let set = |vpn, pte| pts.iter().for_each(|pt| pt.set(vpn, pte));
    let probe = |vpn| {
        [
            model.test_and_age(&pts[0], vpn),
            preset.test_and_age(&pts[1], vpn),
        ]
    };
    let refault = |vpn| {
        model.note_refault(&pts[0], vpn);
        preset.note_refault(&pts[1], vpn);
    };
    let pageout = |vpn| {
        model.note_pageout(&pts[0], vpn);
        preset.note_pageout(&pts[1], vpn);
    };
    let rng = SplitMix64::new(seed);
    let mut frame_of: Vec<Option<u64>> = vec![None; PAGES as usize];
    let mut last_frame: Vec<Option<u64>> = vec![None; PAGES as usize];
    let mut owner: Vec<Option<usize>> = vec![None; FRAMES as usize];
    let mut free: Vec<u64> = (0..FRAMES).collect();
    // Last probe returned `false` and no ghost hit came since.
    let mut evictable = vec![false; PAGES as usize];
    let mut t = Tally::default();

    for step in 0..STEPS {
        let p = rng.next_below(PAGES) as usize;
        let vpn = VPN0 + p as u64;
        let op = rng.next_below(100);
        let Some(frame) = frame_of[p] else {
            if op < 10 || free.is_empty() {
                // A stale candidate: forced pageout leaves the page on
                // its accounting list, so a scan can still probe it.
                let [model_kept, preset_kept] = probe(vpn);
                assert_eq!(
                    model_kept, preset_kept,
                    "{name} seed={seed:#x} step={step}: non-resident vpn {vpn:#x}"
                );
                continue;
            }
            // Install on a reused frame, never the page's previous one.
            let mut i = rng.next_below(free.len() as u64) as usize;
            if Some(free[i]) == last_frame[p] && free.len() > 1 {
                i = (i + 1) % free.len();
            }
            let f = free.swap_remove(i);
            if owner[f as usize].is_some_and(|q| q != p) {
                t.reowned += 1;
            }
            owner[f as usize] = Some(p);
            frame_of[p] = Some(f);
            evictable[p] = false;
            set(vpn, Pte::present(f).with_accessed(true).with_dirty(true));
            if op < 40 {
                // Ghost hit: the fault path reports it once the PTE is
                // present again.
                refault(vpn);
            }
            continue;
        };
        let evict = match op {
            0..=29 => {
                pts.iter().for_each(|pt| {
                    pt.update(vpn, |e| e.with_accessed(true));
                });
                false
            }
            30..=69 => {
                let hot = pts[0].get(vpn).accessed();
                let [model_kept, preset_kept] = probe(vpn);
                assert_eq!(
                    model_kept, preset_kept,
                    "{name} seed={seed:#x} step={step}: vpn {vpn:#x} on frame {frame} \
                     (accessed={hot})"
                );
                t.scans += 1;
                if model_kept && !hot {
                    t.graced += 1;
                }
                evictable[p] = !model_kept;
                false
            }
            70..=73 => {
                refault(vpn);
                evictable[p] = false;
                false
            }
            74..=87 => evictable[p],
            88..=92 if evictable[p] => {
                // Eviction cancel (or a requeued victim): unmapped, then
                // re-mapped dirty on the same, still-intact frame.
                set(vpn, Pte::remote(p as u64).with_locked(true));
                set(
                    vpn,
                    Pte::present(frame).with_accessed(true).with_dirty(true),
                );
                if op.is_multiple_of(2) {
                    refault(vpn);
                    evictable[p] = false;
                }
                false
            }
            93..=95 => {
                // Forced pageout: evicted whatever its counter says.
                pageout(vpn);
                true
            }
            _ => false,
        };
        if evict {
            set(vpn, Pte::remote(p as u64));
            free.push(frame);
            last_frame[p] = frame_of[p].take();
            evictable[p] = false;
            t.evictions += 1;
        }
    }
    t
}

#[test]
fn counter_presets_match_the_per_page_policies_they_replaced() {
    for seed in SEEDS {
        let mut graced = 0;
        for (kind, model) in pairs() {
            let t = fuzz(kind, model, seed);
            let label = format!("{} seed={seed:#x}", kind.name());
            assert!(t.scans > 4_000, "{label}: only {} scans", t.scans);
            assert!(t.evictions > 200, "{label}: only {} evictions", t.evictions);
            assert!(
                t.reowned > 200,
                "{label}: only {} re-owned frames",
                t.reowned
            );
            if matches!(kind, EvictionPolicyKind::SecondChance) {
                assert_eq!(t.graced, 0, "{label}: second chance has no grace");
            }
            graced += t.graced;
        }
        assert!(
            graced > 1_000,
            "seed={seed:#x}: counters never granted grace"
        );
    }
}

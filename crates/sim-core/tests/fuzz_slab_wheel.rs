//! Seeded differential fuzz of the hot-path containers against
//! ordered-map shadow models.
//!
//! The hot-path refactor (DESIGN.md §11) replaced the executor's
//! `BinaryHeap + BTreeMap` timer pair and the per-page `BTreeMap` indexes
//! with a timer queue ([`TimerWheel`]: a 1-ns near window plus an
//! overflow heap) and an open-addressed [`PageMap`]. The refactor is
//! pinned end-to-end by the golden seam tests; these fuzz runs pin it
//! structure-by-structure: for each seeded op stream, the new structure
//! must agree exactly — contents, sorted iteration order, and timer fire
//! order — with the `BTreeMap` / `BTreeSet` it replaced. Everything is
//! seeded [`SplitMix64`], so a failure reproduces bit-for-bit from the
//! printed seed.

use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;
use mage_sim::wheel::{TimerWheel, WINDOW};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: [u64; 4] = [1, 42, 0xDEAD_BEEF, 0x5EED_5EED_5EED_5EED];

/// Keys at the edge of `PageMap`'s 4-byte key words: the largest key
/// they hold (2^32 − 2, stored as 2^32 − 1), the first that widens the
/// table, and keys far above.
const EDGE_KEYS: [u64; 4] = [(1 << 32) - 2, (1 << 32) - 1, 1 << 32, u64::MAX - 1];

#[test]
fn pagemap_matches_btreemap_shadow() {
    // The second distribution draws one key in 16 from `EDGE_KEYS` or
    // from 512 keys above 2^32, so tables widen and regrow between
    // inserts, removes and growth. It starts from an empty map every
    // 2,048 steps: a table never narrows back, so each restart gives
    // another first key to widen one.
    for wide in [false, true] {
        for seed in SEEDS {
            pagemap_stream(seed, wide);
        }
    }
}

fn pagemap_stream(seed: u64, wide: bool) {
    let rng = SplitMix64::new(seed);
    let mut map: PageMap<u64> = PageMap::new();
    let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
    for step in 0..20_000u64 {
        if wide && step % 2_048 == 0 {
            map = PageMap::new();
            shadow.clear();
        }
        // Narrow key space forces probe collisions, backward-shift
        // deletes and growth through several capacities.
        let mut key = rng.next_below(512);
        if wide && rng.next_below(16) == 0 {
            key = match rng.next_below(8) {
                0..=3 => EDGE_KEYS[rng.next_below(4) as usize],
                _ => (1 << 32) + key,
            };
        }
        match rng.next_below(10) {
            0..=4 => {
                let val = rng.next_u64();
                assert_eq!(
                    map.insert(key, val),
                    shadow.insert(key, val),
                    "seed {seed} wide {wide} step {step}: insert({key}) disagreed"
                );
            }
            5..=7 => {
                assert_eq!(
                    map.remove(key),
                    shadow.remove(&key),
                    "seed {seed} wide {wide} step {step}: remove({key}) disagreed"
                );
            }
            8 => {
                let val = rng.next_u64();
                let got = *map.get_or_insert_with(key, || val);
                let want = *shadow.entry(key).or_insert(val);
                assert_eq!(got, want, "seed {seed} wide {wide} step {step}: get_or_insert({key})");
            }
            _ => {
                assert_eq!(
                    map.get(key),
                    shadow.get(&key),
                    "seed {seed} wide {wide} step {step}: get({key}) disagreed"
                );
                assert_eq!(map.contains_key(key), shadow.contains_key(&key));
            }
        }
        assert_eq!(map.len(), shadow.len(), "seed {seed} wide {wide} step {step}: len");
        if step % 512 == 0 {
            let got: Vec<(u64, u64)> = map.iter_sorted().into_iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(u64, u64)> = shadow.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "seed {seed} wide {wide} step {step}: sorted iteration diverged");
        }
    }
    let got: Vec<(u64, u64)> = map.iter_sorted().into_iter().map(|(k, &v)| (k, v)).collect();
    let want: Vec<(u64, u64)> = shadow.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want, "seed {seed} wide {wide}: final contents diverged");
}

/// Picks a pending deadline from `shadow` at random, if any.
fn pending_deadline(rng: &SplitMix64, shadow: &BTreeSet<(u64, u64)>) -> Option<u64> {
    let n = shadow.len() as u64;
    (n > 0).then(|| shadow.iter().nth(rng.next_below(n) as usize).expect("in range").0)
}

#[test]
fn wheel_fire_order_matches_btreeset_shadow() {
    for seed in SEEDS {
        let rng = SplitMix64::new(seed);
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        // Shadow of the executor's historical timer pair: ascending
        // (deadline, seq) is the contract the wheel must reproduce.
        let mut shadow: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut cur = 0u64;
        let mut seq = 0u64;
        for round in 0..2_000u64 {
            // Insert a burst of timers with deltas spanning the window
            // and the overflow heap: same instant (0), small, either side
            // of the window edge, up to ~2^40 ns jumps, and repeats of a
            // pending deadline, so a timer that waited in the overflow
            // heap shares its group with later direct inserts.
            for _ in 0..rng.next_below(4) + 1 {
                let deadline = match rng.next_below(9) {
                    0 => cur,
                    1 => cur + rng.next_below(64),
                    2 => cur + rng.next_below(1 << 18),
                    3 => cur + rng.next_below(1 << 40),
                    4 => cur + WINDOW - 1,
                    5 => cur + WINDOW,
                    6 => cur + WINDOW + 1,
                    7 => cur + 2 * WINDOW,
                    _ => pending_deadline(&rng, &shadow).unwrap_or(cur),
                };
                wheel.insert(deadline, seq, seq);
                shadow.insert((deadline, seq));
                seq += 1;
            }
            assert_eq!(
                wheel.peek(),
                shadow.first().map(|&(d, _)| d),
                "seed {seed} round {round}: earliest deadline disagreed"
            );
            // Advance to a horizon and fire everything due, the way the
            // executor drains a deadline group: a random jump, or exactly
            // onto a pending deadline several timers ahead, so one drain
            // crosses several overflow timers at once.
            let horizon = match rng.next_below(3) {
                0 => shadow
                    .iter()
                    .map(|&(d, _)| d)
                    .nth(rng.next_below(8) as usize)
                    .unwrap_or(cur),
                _ => cur + rng.next_below(1 << 20),
            };
            let mut fired = Vec::new();
            while let Some(d) = wheel.peek().filter(|&d| d <= horizon) {
                assert!(wheel.fire_next(horizon));
                while let Some(s) = wheel.pop_fired() {
                    fired.push((d, s));
                }
            }
            assert!(!wheel.fire_next(horizon), "seed {seed} round {round}: due timer left");
            cur = horizon;
            let mut expected = Vec::new();
            while let Some(&(d, s)) = shadow.first() {
                if d > horizon {
                    break;
                }
                shadow.remove(&(d, s));
                expected.push((d, s));
            }
            assert_eq!(
                fired, expected,
                "seed {seed} round {round}: fire order diverged from (deadline, seq)"
            );
            assert_eq!(wheel.len(), shadow.len(), "seed {seed} round {round}: len");
        }
    }
}

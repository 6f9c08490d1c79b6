//! Adversarial seeded fuzz for the buddy allocator: arbitrary
//! interleavings of mixed-order allocs and frees against a shadow model
//! of outstanding blocks.
//!
//! Invariants checked after every operation:
//! - a returned block is order-aligned and inside the managed range;
//! - outstanding blocks never overlap;
//! - frame conservation: `free_frames + Σ 2^order(outstanding)` equals
//!   the total at all times;
//! - freeing everything coalesces back to a fully free pool.
//!
//! `run_form_matches_single_frame_allocs` checks the run form
//! (`alloc_runs`) against `n` calls of `alloc(0)` on twin pools.

use std::collections::BTreeSet;

use mage_palloc::buddy::MAX_ORDER;
use mage_palloc::BuddyAllocator;
use mage_sim::rng::{self, SplitMix64};

/// Shadow model: the set of outstanding (base, order) blocks.
struct Shadow {
    total: u64,
    live: Vec<(u64, u32)>,
}

impl Shadow {
    fn frames_out(&self) -> u64 {
        self.live.iter().map(|&(_, o)| 1u64 << o).sum()
    }

    fn check(&self, b: &BuddyAllocator) {
        assert_eq!(
            b.free_frames() + self.frames_out(),
            self.total,
            "frame conservation broken"
        );
        // Outstanding blocks are disjoint: sort by base, check gaps.
        let mut spans: Vec<(u64, u64)> = self
            .live
            .iter()
            .map(|&(base, o)| (base, base + (1u64 << o)))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "overlapping blocks: [{:#x},{:#x}) and [{:#x},{:#x})",
                w[0].0,
                w[0].1,
                w[1].0,
                w[1].1
            );
        }
    }
}

#[test]
fn mixed_order_alloc_free_fuzz() {
    let cases = SplitMix64::new(0xB0DD7);
    for case in 0..24u64 {
        let nframes = 1 + cases.next_below(5_000);
        let stream = rng::stream(0xB0DD7, case);
        let mut b = BuddyAllocator::new(nframes);
        let mut shadow = Shadow {
            total: nframes,
            live: Vec::new(),
        };
        for _ in 0..400 {
            if stream.next_below(2) == 0 {
                let order = stream.next_below(u64::from(MAX_ORDER) / 2 + 1) as u32;
                if let Some(base) = b.alloc(order) {
                    assert_eq!(base % (1 << order), 0, "misaligned block {base:#x}");
                    assert!(
                        base + (1u64 << order) <= nframes,
                        "block {base:#x} order {order} out of range"
                    );
                    shadow.live.push((base, order));
                } else {
                    // Refusal must mean no sufficiently large block
                    // could exist, not that frames leaked: a pool with
                    // zero outstanding frames always satisfies order 0.
                    if order == 0 {
                        assert_eq!(b.free_frames(), 0, "order-0 refusal with free frames");
                    }
                }
            } else if !shadow.live.is_empty() {
                let i = stream.next_below(shadow.live.len() as u64) as usize;
                let (base, order) = shadow.live.swap_remove(i);
                b.free(base, order);
            }
            shadow.check(&b);
        }
        // Drain: free everything, expect full coalescing.
        for (base, order) in shadow.live.drain(..) {
            b.free(base, order);
        }
        assert_eq!(
            b.free_frames(),
            nframes,
            "case {case}: pool did not recoalesce"
        );
    }
}

#[test]
fn batch_paths_agree_with_single_frame_paths() {
    let stream = rng::stream(0xBA7C4, 0);
    let mut b = BuddyAllocator::new(2_048);
    let mut held: Vec<u64> = Vec::new();
    for _ in 0..64 {
        let want = 1 + stream.next_below(32) as usize;
        let before = held.len();
        b.alloc_batch(want, &mut held);
        let got = held.len() - before;
        assert!(got <= want);
        // Uniqueness across everything currently held.
        let unique: BTreeSet<u64> = held.iter().copied().collect();
        assert_eq!(unique.len(), held.len(), "batch returned a duplicate frame");
        if stream.next_below(3) == 0 {
            let keep = stream.next_below(held.len() as u64 + 1) as usize;
            let returned: Vec<u64> = held.split_off(keep);
            b.free_batch(&returned);
        }
    }
    b.free_batch(&held);
    assert_eq!(b.free_frames(), 2_048);
}

#[test]
#[should_panic(expected = "double or invalid free")]
fn double_free_is_detected() {
    let mut b = BuddyAllocator::new(64);
    let f = b.alloc(0).expect("frame");
    b.free(f, 0);
    b.free(f, 0);
}

#[test]
#[should_panic(expected = "double or invalid free")]
fn freeing_an_unallocated_block_is_detected() {
    let mut b = BuddyAllocator::new(64);
    b.free(8, 1);
}

/// A pool of `nframes` frames after `steps` seeded mixed-order allocs
/// and frees; deterministic in its arguments, so two calls build twins.
/// With `steps > 0` the low-order free lists hold scattered blocks.
fn seeded_pool(nframes: u64, seed: u64, steps: u64) -> BuddyAllocator {
    let stream = rng::stream(0xF2A6, seed);
    let mut b = BuddyAllocator::new(nframes);
    let mut held: Vec<(u64, u32)> = Vec::new();
    for _ in 0..steps {
        if stream.next_below(3) < 2 || held.is_empty() {
            let order = stream.next_below(u64::from(MAX_ORDER) + 1) as u32;
            if let Some(base) = b.alloc(order) {
                held.push((base, order));
            }
        } else {
            let i = stream.next_below(held.len() as u64) as usize;
            let (base, order) = held.swap_remove(i);
            b.free(base, order);
        }
    }
    b
}

/// The run form against `n` calls of `alloc(0)` on twin pools: aligned
/// (the pristine frontier), unaligned, and fragmented by a seeded
/// mixed-order stream. Requests cross block boundaries until one runs
/// the pool dry. After each, both sides hold the same frames in the
/// same order with the same free count and metadata; then the next 64
/// `alloc(0)` results agree, and every frame taken by runs frees as an
/// order-0 block.
#[test]
fn run_form_matches_single_frame_allocs() {
    let unaligned = (1u64 << 14) + 777;
    for (shape, nframes, steps) in [
        ("aligned", 1u64 << 14, 0),
        ("unaligned", unaligned, 0),
        ("fragmented", 1 << 14, 400),
        ("fragmented unaligned", unaligned, 400),
    ] {
        for seed in 0..12u64 {
            let ctx = format!("{shape}, seed {seed}");
            let mut runs = seeded_pool(nframes, seed, steps);
            let mut single = seeded_pool(nframes, seed, steps);
            let free_before = runs.free_frames();
            let stream = rng::stream(0x2C45, seed);
            let mut taken: Vec<u64> = Vec::new();
            while single.free_frames() > 0 {
                // Mostly sizes around block boundaries, sometimes all that
                // is left and then some.
                let n = match stream.next_below(4) {
                    0 => single.free_frames() + stream.next_below(3),
                    1 => {
                        (1u64 << stream.next_below(u64::from(MAX_ORDER) + 2)) - 1
                            + stream.next_below(3)
                    }
                    _ => stream.next_below(3_000),
                };
                let got = runs.alloc_runs(n);
                for pair in got.windows(2) {
                    assert_ne!(
                        pair[0].end, pair[1].start,
                        "{ctx}: adjacent runs not merged"
                    );
                }
                let got: Vec<u64> = got.into_iter().flatten().collect();
                let want: Vec<u64> = (0..n).map_while(|_| single.alloc(0)).collect();
                if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))
                {
                    panic!(
                        "{ctx}: frame {i} of n = {n} differs: runs {:?}, alloc(0) {:?}",
                        got.get(i),
                        want.get(i)
                    );
                }
                assert_eq!(
                    runs.free_frames(),
                    single.free_frames(),
                    "{ctx}: free frames"
                );
                assert_eq!(
                    runs.metadata_entries(),
                    single.metadata_entries(),
                    "{ctx}: metadata entries"
                );
                taken.extend(got);
            }
            assert!(
                runs.alloc_runs(5).is_empty(),
                "{ctx}: a dry pool gives no runs"
            );
            // Return every seventh frame to both pools, then compare the
            // next single-frame allocations.
            let back: Vec<u64> = taken.iter().copied().step_by(7).collect();
            runs.free_batch(&back);
            single.free_batch(&back);
            let next =
                |b: &mut BuddyAllocator| (0..64).map_while(|_| b.alloc(0)).collect::<Vec<_>>();
            let next_runs = next(&mut runs);
            assert_eq!(next_runs, next(&mut single), "{ctx}: next 64 frames");
            // Every frame the run form took is an outstanding order-0
            // block, so the rest free cleanly too.
            let kept: Vec<u64> = (0..taken.len())
                .filter(|i| i % 7 != 0)
                .map(|i| taken[i])
                .collect();
            runs.free_batch(&kept);
            runs.free_batch(&next_runs);
            assert_eq!(runs.free_frames(), free_before, "{ctx}: pool not restored");
        }
    }
}

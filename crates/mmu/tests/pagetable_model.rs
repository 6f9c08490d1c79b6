//! Model-based randomized tests: the radix page table must behave
//! exactly like a flat map, and the TLB like a bounded set.

use std::collections::{BTreeMap, BTreeSet};

use mage_mmu::{PageTable, Pte, Tlb};
use mage_sim::rng::{self, SplitMix64};

/// How a page-table model test draws its inputs. A leaf stores 4-byte
/// words while every word written to it has nothing in bits 5–11 and a
/// payload below 2^27, and widens on the first that does not; the two
/// mixes cover both widths.
#[derive(Clone, Copy, Debug)]
enum Mix {
    /// Vpns over 2^36 and payloads below 2^40: nearly every leaf widens
    /// on its first write.
    Sparse,
    /// Vpns from four adjacent leaves and payloads mostly below 2^27,
    /// sometimes 2^27 − 1 or exactly 2^27, and now and then a raw word
    /// with a bit set in 5–11: leaves start narrow and widen mid-stream.
    Packed,
}

impl Mix {
    fn vpn(self, rng: &SplitMix64) -> u64 {
        match self {
            Mix::Sparse => rng.next_below(1 << 36),
            Mix::Packed => (5 << 9) + rng.next_below(4 << 9),
        }
    }

    fn payload(self, rng: &SplitMix64) -> u64 {
        match self {
            Mix::Sparse => rng.next_below(1 << 40),
            Mix::Packed => match rng.next_below(16) {
                0 => (1 << 27) - 1,
                1 => 1 << 27,
                _ => rng.next_below(1 << 27),
            },
        }
    }

    /// A raw PTE word.
    fn word(self, rng: &SplitMix64) -> u64 {
        match self {
            Mix::Sparse => rng.next_below(1 << 40),
            Mix::Packed => {
                let word = self.payload(rng) << 12 | rng.next_below(1 << 5);
                if rng.next_below(16) == 0 {
                    word | 1 << (5 + rng.next_below(7))
                } else {
                    word
                }
            }
        }
    }
}

/// Whether `word` fits a narrow leaf: nothing in bits 5–11 and a payload
/// below 2^27.
fn fits_narrow(word: u64) -> bool {
    word & 0xFE0 == 0 && word >> 12 < 1 << 27
}

/// A flat map of PTE words, plus the leaves a word that does not fit a
/// narrow leaf has widened.
#[derive(Default)]
struct Model {
    words: BTreeMap<u64, u64>,
    wide_leaves: BTreeSet<u64>,
}

impl Model {
    fn get(&self, vpn: u64) -> u64 {
        self.words.get(&vpn).copied().unwrap_or(0)
    }

    /// Records a write; true if it widens a narrow leaf.
    fn write(&mut self, vpn: u64, word: u64) -> bool {
        self.words.insert(vpn, word);
        !fits_narrow(word) && self.wide_leaves.insert(vpn >> 9)
    }

    /// The nodes a radix holding exactly the written vpns allocates: the
    /// root, then one node per distinct vpn prefix at each lower level,
    /// the distinct leaves last.
    fn node_count(&self) -> usize {
        let distinct = |shift: u32| {
            let prefixes: BTreeSet<u64> = self.words.keys().map(|vpn| vpn >> shift).collect();
            prefixes.len()
        };
        1 + [36, 27, 18, 9].into_iter().map(distinct).sum::<usize>()
    }
}

/// Arbitrary interleavings of set/update/get/place_run agree with a
/// flat-map model, on both input mixes; the radix allocates exactly the
/// model's nodes, and `place_run` calls its closure once per vpn, in
/// order.
#[test]
fn pagetable_matches_flat_map() {
    for mix in [Mix::Sparse, Mix::Packed] {
        let rng = SplitMix64::new(0x9A6E_7AB1);
        let mut mid_run_widenings = 0;
        for _ in 0..32 {
            let pt = PageTable::new();
            let mut model = Model::default();
            for _ in 0..1 + rng.next_below(299) {
                let vpn = mix.vpn(&rng);
                match rng.next_below(4) {
                    0 => {
                        let val = mix.word(&rng);
                        pt.set(vpn, Pte(val));
                        model.write(vpn, val);
                    }
                    1 => {
                        let val = mix.word(&rng);
                        let old = pt.update(vpn, |p| Pte(p.0 ^ val));
                        assert_eq!(old.0, model.get(vpn), "{mix:?}: update({vpn:#x})");
                        model.write(vpn, old.0 ^ val);
                    }
                    2 => {
                        // A run over unwritten entries, cut short at the
                        // first written one.
                        let n = rng.next_below(700);
                        let n = model
                            .words
                            .range(vpn..vpn + n)
                            .find(|&(_, &word)| word != 0)
                            .map_or(n, |(&written, _)| written - vpn);
                        let words: Vec<u64> = (0..n).map(|_| mix.word(&rng)).collect();
                        let mut calls = Vec::new();
                        pt.place_run(vpn, n, |v| {
                            calls.push(v);
                            Pte(words[(v - vpn) as usize])
                        });
                        assert_eq!(
                            calls,
                            (vpn..vpn + n).collect::<Vec<_>>(),
                            "{mix:?}: place_run({vpn:#x}, {n}) calls f once per vpn, in order"
                        );
                        for (v, &word) in (vpn..).zip(&words) {
                            // Widened after an earlier entry of the run
                            // was written narrow into the same leaf.
                            if model.write(v, word) && v > vpn && v % 512 != 0 {
                                mid_run_widenings += 1;
                            }
                        }
                    }
                    _ => {
                        assert_eq!(pt.get(vpn).0, model.get(vpn), "{mix:?}: get({vpn:#x})");
                    }
                }
            }
            for (&vpn, &want) in &model.words {
                assert_eq!(pt.get(vpn).0, want, "{mix:?}: vpn {vpn:#x}");
            }
            assert_eq!(pt.node_count(), model.node_count(), "{mix:?}: node count");
        }
        if let Mix::Packed = mix {
            assert!(
                mid_run_widenings > 0,
                "no place_run met a wide value mid-run in a narrow leaf"
            );
        }
    }
}

/// The TLB never exceeds capacity, never reports an invalidated entry,
/// and always reports a just-filled entry (until evicted).
#[test]
fn tlb_is_a_bounded_set() {
    let rng = SplitMix64::new(0x71B0_5E77);
    for _ in 0..32 {
        let capacity = (1 + rng.next_below(63)) as usize;
        let tlb = Tlb::new(capacity, 99);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..1 + rng.next_below(299) {
            let op = rng.next_below(2);
            let vpn = rng.next_below(128);
            match op {
                0 => {
                    tlb.fill(vpn);
                    model.insert(vpn);
                    assert!(tlb.lookup(vpn), "fill must take effect");
                }
                _ => {
                    tlb.invalidate(vpn);
                    model.remove(&vpn);
                    assert!(!tlb.lookup(vpn), "invalidate must take effect");
                }
            }
            assert!(tlb.len() <= capacity);
            // Everything resident must be in the model (the reverse may
            // not hold because of capacity evictions).
            for v in 0..128u64 {
                if tlb.lookup(v) {
                    assert!(model.contains(&v), "ghost entry {v}");
                }
            }
        }
    }
}

/// PTE flag operations are independent: toggling one bit never affects
/// the payload or the other bits.
#[test]
fn pte_bits_are_independent() {
    let rng = SplitMix64::new(0x97E0_0FF5);
    for _ in 0..256 {
        let payload = rng.next_below(1 << 50);
        let a = rng.next_below(2) == 1;
        let d = rng.next_below(2) == 1;
        let l = rng.next_below(2) == 1;
        let p = Pte::present(payload)
            .with_accessed(a)
            .with_dirty(d)
            .with_locked(l);
        assert_eq!(p.payload(), payload & ((1 << 52) - 1));
        assert_eq!(p.accessed(), a);
        assert_eq!(p.dirty(), d);
        assert_eq!(p.locked(), l);
        assert!(p.is_present());
        assert!(!p.is_remote());
    }
}

/// Adversarial lock-protocol fuzz: arbitrary interleavings of
/// `try_lock`/`unlock`/`set`/`update` agree with a shadow PTE per page,
/// on both input mixes. `try_lock` succeeds exactly when the shadow is
/// unlocked, and no operation ever disturbs a byte it does not own.
#[test]
fn pte_lock_protocol_matches_model() {
    for mix in [Mix::Sparse, Mix::Packed] {
        for case in 0..16u64 {
            let stream = rng::stream(0xF0CC_ED00, case);
            let pt = PageTable::new();
            let mut shadow = Model::default();
            for _ in 0..400 {
                // A small page pool maximizes operation collisions.
                let vpn = match mix {
                    Mix::Sparse => stream.next_below(32),
                    Mix::Packed => (stream.next_below(4) << 9) + stream.next_below(16),
                };
                let expect = Pte(shadow.get(vpn));
                match stream.next_below(5) {
                    0 => {
                        // Fresh mapping with random kind and flags.
                        let payload = mix.payload(&stream);
                        let p = if stream.next_below(2) == 0 {
                            Pte::present(payload)
                                .with_accessed(stream.next_below(2) == 0)
                                .with_dirty(stream.next_below(2) == 0)
                        } else {
                            Pte::remote(payload)
                        };
                        pt.set(vpn, p);
                        shadow.write(vpn, p.0);
                    }
                    1 => {
                        let won = pt.try_lock(vpn);
                        assert_eq!(
                            won,
                            !expect.locked(),
                            "{mix:?} case {case}: try_lock({vpn}) disagrees with shadow"
                        );
                        shadow.write(vpn, expect.with_locked(true).0);
                    }
                    2 => {
                        if expect.locked() {
                            pt.unlock(vpn);
                            shadow.write(vpn, expect.with_locked(false).0);
                        }
                    }
                    3 => {
                        let old = pt.update(vpn, |p| p.with_accessed(true));
                        assert_eq!(
                            old.0, expect.0,
                            "{mix:?} case {case}: update saw a stale PTE"
                        );
                        shadow.write(vpn, expect.with_accessed(true).0);
                    }
                    _ => {
                        assert_eq!(
                            pt.get(vpn).0,
                            expect.0,
                            "{mix:?} case {case}: get({vpn}) diverged"
                        );
                    }
                }
                assert_eq!(
                    pt.get(vpn).0,
                    shadow.get(vpn),
                    "{mix:?} case {case}: vpn {vpn} diverged"
                );
            }
            // Final sweep: every touched page matches its shadow
            // bit-for-bit, and the radix holds exactly its nodes.
            for (&vpn, &want) in &shadow.words {
                let got = pt.get(vpn);
                assert_eq!(got.0, want);
                assert_eq!(got.locked(), Pte(want).locked());
            }
            assert_eq!(pt.node_count(), shadow.node_count(), "{mix:?} case {case}");
        }
    }
}

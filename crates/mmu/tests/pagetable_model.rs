//! Model-based randomized tests: the radix page table must behave
//! exactly like a flat map, and the TLB like a bounded set.

use std::collections::{BTreeMap, BTreeSet};

use mage_mmu::{PageTable, Pte, Tlb};
use mage_sim::rng::{self, SplitMix64};

/// Arbitrary interleavings of set/update/get agree with a flat-map model
/// across the whole 36-bit VPN space.
#[test]
fn pagetable_matches_flat_map() {
    let rng = SplitMix64::new(0x9A6E_7AB1);
    for _ in 0..32 {
        let pt = PageTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..1 + rng.next_below(299) {
            let op = rng.next_below(3);
            let vpn = rng.next_below(1 << 36);
            let val = rng.next_below(1 << 40);
            match op {
                0 => {
                    pt.set(vpn, Pte(val));
                    model.insert(vpn, val);
                }
                1 => {
                    let old = pt.update(vpn, |p| Pte(p.0 ^ val));
                    let entry = model.entry(vpn).or_insert(0);
                    assert_eq!(old.0, *entry);
                    *entry ^= val;
                }
                _ => {
                    let got = pt.get(vpn).0;
                    let want = model.get(&vpn).copied().unwrap_or(0);
                    assert_eq!(got, want);
                }
            }
        }
        for (vpn, want) in model {
            assert_eq!(pt.get(vpn).0, want);
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
/// `try_lock`/`unlock`/`set`/`update` agree with a shadow PTE per page.
/// `try_lock` succeeds exactly when the shadow is unlocked, and no
/// operation ever disturbs a byte it does not own.
#[test]
fn pte_lock_protocol_matches_model() {
    use std::collections::BTreeMap;

    for case in 0..16u64 {
        let stream = rng::stream(0xF0CC_ED00, case);
        let pt = PageTable::new();
        let mut shadow: BTreeMap<u64, Pte> = BTreeMap::new();
        for _ in 0..400 {
            // A small page pool maximizes operation collisions.
            let vpn = stream.next_below(32);
            let expect = shadow.get(&vpn).copied().unwrap_or(Pte::NONE);
            match stream.next_below(5) {
                0 => {
                    // Fresh mapping with random kind and flags.
                    let payload = stream.next_below(1 << 40);
                    let p = if stream.next_below(2) == 0 {
                        Pte::present(payload)
                            .with_accessed(stream.next_below(2) == 0)
                            .with_dirty(stream.next_below(2) == 0)
                    } else {
                        Pte::remote(payload)
                    };
                    pt.set(vpn, p);
                    shadow.insert(vpn, p);
                }
                1 => {
                    let won = pt.try_lock(vpn);
                    assert_eq!(
                        won,
                        !expect.locked(),
                        "case {case}: try_lock({vpn}) disagrees with shadow"
                    );
                    if won {
                        shadow.insert(vpn, expect.with_locked(true));
                    }
                }
                2 => {
                    if expect.locked() {
                        pt.unlock(vpn);
                        shadow.insert(vpn, expect.with_locked(false));
                    }
                }
                3 => {
                    let old = pt.update(vpn, |p| p.with_accessed(true));
                    assert_eq!(old.0, expect.0, "case {case}: update saw a stale PTE");
                    shadow.insert(vpn, expect.with_accessed(true));
                }
                _ => {
                    assert_eq!(pt.get(vpn).0, expect.0, "case {case}: get({vpn}) diverged");
                }
            }
            let now = shadow.get(&vpn).copied().unwrap_or(Pte::NONE);
            assert_eq!(pt.get(vpn).0, now.0, "case {case}: vpn {vpn} diverged");
        }
        // Final sweep: every touched page matches its shadow bit-for-bit.
        for (vpn, want) in shadow {
            let got = pt.get(vpn);
            assert_eq!(got.0, want.0);
            assert_eq!(got.locked(), want.locked());
        }
    }
}

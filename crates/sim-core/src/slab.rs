//! A deterministic dense map for the simulator's hot paths.
//!
//! The determinism pass (DESIGN.md §5) banned `HashMap`/`HashSet` for
//! their per-process random iteration order, and the hot paths landed on
//! `BTreeMap` — deterministic, but O(log n) with pointer-chasing on
//! every TLB lookup, page-waiter wake and evicting-set probe.
//! [`PageMap`] restores O(1) access while keeping every *observable*
//! order a pure function of the operation history: an open-addressed map
//! keyed by `u64` (page numbers, sequence numbers) using Fibonacci
//! multiplicative hashing, linear probing and backward-shift deletion.
//! The probe function is a fixed constant — no per-process SipHash keys
//! — so layout, growth and probe order replay identically for the same
//! insert/remove history.
//!
//! The map exposes no raw storage-order iteration: walking it in probe
//! order would make behaviour depend on the hash layout, which is
//! deterministic but *not* semantically meaningful (an innocuous capacity
//! change would reorder it). Iteration is only available in sorted-key
//! form, which is what the fuzz suites compare against a `BTreeMap`
//! shadow model.

use crate::words::{View, ViewMut, Words};

/// Fibonacci multiplicative hash: spreads consecutive page numbers over
/// the table while staying a fixed pure function (no per-process keys).
#[inline]
fn fib_hash(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// An open-addressed `u64 → V` map with deterministic layout.
///
/// Linear probing with backward-shift deletion (no tombstones), growth
/// at ¾ load. Point operations are O(1) expected with a probe sequence
/// fully determined by the key history — the structure the TLB sharer
/// directory, page-waiter and evicting sets use instead of `BTreeMap`.
/// Every point operation, upserts and read-modify-remove included,
/// makes one probe (two when an insert grows the table).
///
/// Keys and values live in parallel arrays so the probe loop touches
/// only the key array, 4 bytes per slot while every stored key is at
/// most 2^32 − 2 (a [`Words`]; 8 bytes once a larger key widens it),
/// and only dereferences a value on a hit. Widening zero-extends every
/// slot where it is, so layout and probe order do not depend on the
/// width.
pub struct PageMap<V> {
    /// `key + 1` per slot; 0 marks an empty slot. Keys of `u64::MAX`
    /// are rejected at insert (page and sequence numbers never get
    /// there).
    keys: Words,
    /// Value for each occupied slot, `None` where `keys` is 0.
    vals: Vec<Option<V>>,
    shift: u32,
    len: usize,
}

impl<V> Default for PageMap<V> {
    fn default() -> Self {
        PageMap::new()
    }
}

impl<V> PageMap<V> {
    const MIN_CAP: usize = 16;

    /// An empty map (allocates the minimum table eagerly so the probe
    /// arithmetic never special-cases zero capacity).
    pub fn new() -> Self {
        let mut vals = Vec::new();
        vals.resize_with(Self::MIN_CAP, || None);
        PageMap {
            keys: Words::zeroed(Self::MIN_CAP),
            vals,
            shift: 64 - Self::MIN_CAP.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if key == u64::MAX {
            return None; // never stored
        }
        self.probe(key).ok()
    }

    /// One probe for `key` (never `u64::MAX`): `Ok(slot)` where it lives,
    /// or `Err(slot)` for the empty slot ending its chain, where an
    /// insert would put it. A key too large for a narrow table matches
    /// no slot, so it probes as absent.
    #[inline]
    fn probe(&self, key: u64) -> Result<usize, usize> {
        let home = fib_hash(key, self.shift);
        match self.keys.view() {
            View::Narrow(keys) => probe_chain(keys, key + 1, home),
            View::Wide(keys) => probe_chain(keys, key + 1, home),
        }
    }

    /// [`probe`](Self::probe) for an insert: when `key` is absent and
    /// one more entry would cross ¾ load, grows and probes the new table
    /// (the only case that probes twice).
    #[inline]
    fn probe_for_insert(&mut self, key: u64) -> Result<usize, usize> {
        assert_ne!(key, u64::MAX, "u64::MAX is reserved");
        match self.probe(key) {
            Err(_) if (self.len + 1) * 4 > self.keys.len() * 3 => {
                self.grow();
                self.probe(key)
            }
            found => found,
        }
    }

    /// Fills the empty slot `i` that a probe for `key` ended at.
    #[inline]
    fn occupy(&mut self, i: usize, key: u64, value: V) -> &mut V {
        self.keys.set(i, key + 1);
        self.len += 1;
        self.vals[i].insert(value)
    }

    /// Shared access to the value under `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| self.vals[i].as_ref().expect("found slot is occupied"))
    }

    /// Mutable access to the value under `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.find(key)?;
        Some(self.vals[i].as_mut().expect("found slot is occupied"))
    }

    /// True if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match self.probe_for_insert(key) {
            Ok(i) => self.vals[i].replace(value),
            Err(i) => {
                self.occupy(i, key, value);
                None
            }
        }
    }

    /// Returns a mutable reference to the value under `key`, inserting
    /// `make()` first if absent (the `entry().or_insert_with()` shape).
    /// One probe, unless the insert grows the table.
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        match self.probe_for_insert(key) {
            Ok(i) => self.vals[i].as_mut().expect("found slot is occupied"),
            Err(i) => self.occupy(i, key, make()),
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        Some(self.remove_at(i))
    }

    /// Empties occupied slot `hole`.
    fn remove_at(&mut self, hole: usize) -> V {
        let value = self.vals[hole].take().expect("found slot is occupied");
        self.len -= 1;
        match self.keys.view_mut() {
            ViewMut::Narrow(keys) => shift_back(keys, &mut self.vals, hole, self.shift),
            ViewMut::Wide(keys) => shift_back(keys, &mut self.vals, hole, self.shift),
        }
        value
    }

    /// Entries in ascending key order — the only iteration offered, so
    /// callers can never observe the hash layout.
    pub fn iter_sorted(&self) -> Vec<(u64, &V)> {
        let mut out: Vec<(u64, &V)> = self
            .vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (self.keys.get(i) - 1, v)))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Doubles the table and re-homes every entry in slot order. The new
    /// key array starts narrow and widens on the first key that needs it.
    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, Words::zeroed(new_cap));
        let old_vals = std::mem::replace(&mut self.vals, {
            let mut v = Vec::new();
            v.resize_with(new_cap, || None);
            v
        });
        self.shift = 64 - new_cap.trailing_zeros();
        for (i, v) in old_vals.into_iter().enumerate() {
            if v.is_none() {
                continue;
            }
            let tagged = old_keys.get(i);
            let Err(slot) = self.probe(tagged - 1) else {
                unreachable!("keys are distinct");
            };
            self.keys.set(slot, tagged);
            self.vals[slot] = v;
        }
    }
}

/// Walks the chain from `home` for the tagged key `tagged`: `Ok(slot)`
/// where it lives, or `Err(slot)` for the empty slot ending the chain.
#[inline(always)]
fn probe_chain<W: Copy + Into<u64>>(keys: &[W], tagged: u64, home: usize) -> Result<usize, usize> {
    let mask = keys.len() - 1;
    let mut i = home;
    loop {
        let k: u64 = keys[i].into();
        if k == tagged {
            return Ok(i);
        }
        if k == 0 {
            return Err(i);
        }
        i = (i + 1) & mask;
    }
}

/// Empties slot `hole` of `keys` (its value already taken) by
/// backward-shift deletion, which keeps probe chains tombstone-free, so
/// lookup cost never decays.
fn shift_back<W: Copy + Default + Into<u64>, V>(
    keys: &mut [W],
    vals: &mut [Option<V>],
    mut hole: usize,
    shift: u32,
) {
    keys[hole] = W::default();
    let mask = keys.len() - 1;
    let mut i = hole;
    loop {
        i = (i + 1) & mask;
        let k = keys[i];
        let tagged: u64 = k.into();
        if tagged == 0 {
            break;
        }
        let home = fib_hash(tagged - 1, shift);
        // Shift `i` back into the hole iff its home position does not
        // lie strictly between the hole and `i` (cyclic distance test).
        if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
            keys[hole] = k;
            keys[i] = W::default();
            vals[hole] = vals[i].take();
            hole = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pagemap_basic_ops() {
        let mut m = PageMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(42, "x"), None);
        assert_eq!(m.insert(42, "y"), Some("x"));
        assert_eq!(m.get(42), Some(&"y"));
        assert!(m.contains_key(42));
        assert_eq!(m.remove(42), Some("y"));
        assert_eq!(m.remove(42), None);
        assert!(m.is_empty());
    }

    #[test]
    fn pagemap_grows_and_keeps_entries() {
        let mut m = PageMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 7, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 7), Some(&k), "key {k} survived growth");
        }
        let sorted = m.iter_sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn pagemap_backward_shift_preserves_chains() {
        // Colliding keys (same home slot) must stay reachable after an
        // interior deletion — the case tombstone-free tables get wrong.
        let mut m = PageMap::new();
        // With a 16-slot table, keys that hash to the same bucket:
        let mut colliders = Vec::new();
        let mut k = 0u64;
        while colliders.len() < 4 {
            if fib_hash(k, 64 - 4) == 3 {
                colliders.push(k);
            }
            k += 1;
        }
        for &c in &colliders {
            m.insert(c, c);
        }
        m.remove(colliders[1]);
        for &c in [colliders[0], colliders[2], colliders[3]].iter() {
            assert_eq!(m.get(c), Some(&c), "collider {c} lost after deletion");
        }
    }

    #[test]
    fn pagemap_keys_stay_narrow_up_to_2p32_minus_2() {
        let wide = |m: &PageMap<u64>| matches!(m.keys.view(), View::Wide(_));
        let mut m = PageMap::new();
        let edge = (1 << 32) - 2;
        m.insert(edge, 1);
        assert!(!wide(&m), "2^32 - 2 is stored narrow, as 2^32 - 1");
        assert_eq!(
            m.get(edge + 1),
            None,
            "a key too large for a narrow table is absent"
        );
        assert_eq!(m.remove(edge + 1), None);
        assert!(!wide(&m), "a lookup never widens");
        m.insert(edge + 1, 2);
        assert!(wide(&m), "2^32 - 1 widens the table");
        assert_eq!((m.get(edge), m.get(edge + 1)), (Some(&1), Some(&2)));
        assert_eq!(m.iter_sorted(), [(edge, &1), (edge + 1, &2)]);
    }

    #[test]
    fn pagemap_get_or_insert_with() {
        let mut m: PageMap<Vec<u32>> = PageMap::new();
        m.get_or_insert_with(5, Vec::new).push(1);
        m.get_or_insert_with(5, || panic!("must not re-create")).push(2);
        assert_eq!(m.get(5), Some(&vec![1, 2]));
    }
}

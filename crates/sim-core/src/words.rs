//! A store of `u64` values kept as 4-byte words while they fit.
//!
//! The simulator's per-key host arrays — page-table leaves, accounting
//! queue blocks, each TLB's insertion vector and [`PageMap`]'s key array
//! — hold `u64` page numbers, keys and PTE words, yet on every benchmark
//! machine those values fit 32 bits. [`Words`] stores them as `u32` and
//! widens the whole store in place to `u64`, once, by zero-extension,
//! when the first value ≥ 2^32 is written. It never narrows back, so a
//! store's width is a pure function of the values written to it, and
//! [`get`](Words::get) returns the same `u64` either way: only host
//! bytes move.
//!
//! Hot loops take a [`View`] or [`ViewMut`], which match on the width
//! once per call instead of once per element.
//!
//! [`PageMap`]: crate::slab::PageMap

/// A sequence of `u64` values stored as 4-byte words until one does not
/// fit (see the module docs).
///
/// # Examples
///
/// ```
/// use mage_sim::words::{View, Words};
///
/// let mut w = Words::zeroed(3);
/// w.set(1, 7);
/// assert!(matches!(w.view(), View::Narrow(&[0, 7, 0])));
/// w.set(2, 1 << 40); // widens, keeping every value
/// let View::Wide(wide) = w.view() else { panic!("2^40 widens") };
/// assert_eq!(wide, [0, 7, 1 << 40]);
/// assert_eq!(w.get(1), 7);
/// ```
#[derive(Debug)]
pub struct Words(Repr);

#[derive(Debug)]
enum Repr {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

/// The values of a [`Words`] at their stored width.
pub enum View<'a> {
    /// Every value fits 32 bits.
    Narrow(&'a [u32]),
    /// The store has widened.
    Wide(&'a [u64]),
}

/// The values of a [`Words`] at their stored width, writable. Writing
/// through the narrow view cannot widen: a value that does not fit goes
/// through [`Words::set`].
pub enum ViewMut<'a> {
    /// Every value fits 32 bits.
    Narrow(&'a mut [u32]),
    /// The store has widened.
    Wide(&'a mut [u64]),
}

impl Words {
    /// `n` zeros, narrow.
    pub fn zeroed(n: usize) -> Self {
        Words(Repr::Narrow(vec![0; n]))
    }

    /// An empty store with room for `n` values before it reallocates
    /// (`4 × n` bytes while narrow). Widening keeps the capacity.
    pub fn with_capacity(n: usize) -> Self {
        Words(Repr::Narrow(Vec::with_capacity(n)))
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Narrow(words) => words.len(),
            Repr::Wide(words) => words.len(),
        }
    }

    /// Whether the store holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match &self.0 {
            Repr::Narrow(words) => u64::from(words[i]),
            Repr::Wide(words) => words[i],
        }
    }

    /// Overwrites value `i`, widening the store first if `value` does
    /// not fit 32 bits.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        match &mut self.0 {
            Repr::Narrow(words) => match u32::try_from(value) {
                Ok(narrow) => words[i] = narrow,
                Err(_) => self.widen()[i] = value,
            },
            Repr::Wide(words) => words[i] = value,
        }
    }

    /// Appends `value`, widening the store first if it does not fit 32
    /// bits.
    #[inline]
    pub fn push(&mut self, value: u64) {
        match &mut self.0 {
            Repr::Narrow(words) => match u32::try_from(value) {
                Ok(narrow) => words.push(narrow),
                Err(_) => self.widen().push(value),
            },
            Repr::Wide(words) => words.push(value),
        }
    }

    /// Removes value `i` and returns it; the last value takes its place.
    ///
    /// # Panics
    ///
    /// If `i` is out of bounds.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> u64 {
        match &mut self.0 {
            Repr::Narrow(words) => u64::from(words.swap_remove(i)),
            Repr::Wide(words) => words.swap_remove(i),
        }
    }

    /// Removes every value, keeping the width and the capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Narrow(words) => words.clear(),
            Repr::Wide(words) => words.clear(),
        }
    }

    /// The values at their stored width.
    #[inline]
    pub fn view(&self) -> View<'_> {
        match &self.0 {
            Repr::Narrow(words) => View::Narrow(words),
            Repr::Wide(words) => View::Wide(words),
        }
    }

    /// The values at their stored width, writable.
    #[inline]
    pub fn view_mut(&mut self) -> ViewMut<'_> {
        match &mut self.0 {
            Repr::Narrow(words) => ViewMut::Narrow(words),
            Repr::Wide(words) => ViewMut::Wide(words),
        }
    }

    /// Zero-extends every value in place and returns the wide vector.
    #[cold]
    fn widen(&mut self) -> &mut Vec<u64> {
        if let Repr::Narrow(narrow) = &self.0 {
            let mut wide = Vec::with_capacity(narrow.capacity());
            wide.extend(narrow.iter().map(|&w| u64::from(w)));
            self.0 = Repr::Wide(wide);
        }
        match &mut self.0 {
            Repr::Wide(wide) => wide,
            Repr::Narrow(_) => unreachable!("just widened"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(w: &Words) -> Vec<u64> {
        (0..w.len()).map(|i| w.get(i)).collect()
    }

    fn is_wide(w: &Words) -> bool {
        matches!(w.view(), View::Wide(_))
    }

    #[test]
    fn push_set_swap_remove_and_widening() {
        let mut w = Words::with_capacity(8);
        assert!(w.is_empty());
        for v in [5, u64::from(u32::MAX), 0, 9] {
            w.push(v);
        }
        w.set(2, 3);
        assert_eq!(w.swap_remove(0), 5);
        assert_eq!(values(&w), [9, u64::from(u32::MAX), 3]);
        assert!(!is_wide(&w), "every value fits 32 bits");

        // The first value past 32 bits widens in place; every entry keeps
        // its value and position.
        w.set(1, 1 << 32);
        assert!(is_wide(&w));
        assert_eq!(values(&w), [9, 1 << 32, 3]);
        assert!(matches!(w.view_mut(), ViewMut::Wide(_)));
        w.push(u64::MAX);
        w.push(4);
        assert_eq!(w.swap_remove(1), 1 << 32);
        assert_eq!(values(&w), [9, 4, 3, u64::MAX]);

        // Widening through `push` keeps the reserved capacity.
        let mut p = Words::with_capacity(8);
        p.push(1);
        p.push(1 << 40);
        assert_eq!(values(&p), [1, 1 << 40]);
        match &p.0 {
            Repr::Wide(wide) => assert!(wide.capacity() >= 8, "capacity {}", wide.capacity()),
            Repr::Narrow(_) => panic!("a 2^40 push must widen"),
        }

        // A cleared store never narrows back.
        w.clear();
        assert!(w.is_empty() && is_wide(&w));
        w.push(1);
        assert!(is_wide(&w));
    }

    #[test]
    fn zeroed_widens_once_by_zero_extension() {
        let mut w = Words::zeroed(512);
        for i in 0..512 {
            w.set(i, (i as u64) << 20 | 0xABC);
        }
        w.set(300, u64::MAX - 1);
        assert!(is_wide(&w));
        for i in 0..512 {
            let want = if i == 300 {
                u64::MAX - 1
            } else {
                (i as u64) << 20 | 0xABC
            };
            assert_eq!(w.get(i), want, "entry {i}");
        }
        // Writing small values again keeps the store wide.
        w.set(300, 1);
        assert!(is_wide(&w));
        assert_eq!(w.get(300), 1);
    }
}

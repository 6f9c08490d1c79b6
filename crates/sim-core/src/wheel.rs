//! Hierarchical timer wheel for the deterministic executor.
//!
//! Replaces the executor's `BinaryHeap<TimerEntry>` + `BTreeMap<u64,
//! Waker>` pair with an O(1)-insert structure that fires timers in
//! exactly the historical order: ascending `(deadline, seq)`, where
//! `seq` is the registration sequence number. Same-deadline timers are
//! batched into one wakeup group per tick, and every slot keeps a full
//! list — a naïve tick-keyed map would drop the second waker when two
//! timers register the same deadline.
//!
//! ## Tick math
//!
//! Time is split into 11 levels of 64 slots (6 bits each, covering the
//! full 64-bit nanosecond clock: level L spans `64^(L+1)` ns). An entry
//! with deadline `D` inserted when the wheel's clock reads `cur` is
//! placed at:
//!
//! ```text
//! level = highest 6-bit digit where D and cur differ   (from D ^ cur)
//! slot  = (D >> 6·level) & 63                          (D's digit there)
//! ```
//!
//! Two invariants follow (digits of `cur` above `level` matched `D`'s at
//! insertion and stay matched, because the clock never passes a live
//! deadline):
//!
//! 1. **A level-0 slot holds exactly one deadline.** Digits above 0
//!    match `cur` and the slot fixes the low digit, so slot `s` ⇔
//!    deadline `(cur & !63) | s`. Firing a deadline is "detach one
//!    list", no per-entry deadline test.
//! 2. **No live slot sits below `cur`'s own digit at any level**, so a
//!    level's minimum slot is `occupancy.trailing_zeros()`, and when
//!    level 0 is occupied it holds the global minimum (higher-level
//!    entries differ from `cur` at a higher digit, which must be
//!    larger, putting them past the whole level-0 block).
//!
//! ## Cascading
//!
//! When level 0 drains, the wheel *cascades*: it advances `cur` to the
//! base covered by the lowest occupied slot of the lowest occupied
//! level (safe — every live deadline is ≥ that base) and re-inserts
//! that slot's entries, which now land at strictly lower levels. Each
//! entry cascades at most once per level over its lifetime, so inserts
//! and fires stay amortized O(levels) with no per-fire scan of pending
//! timers — the classic hierarchical-wheel bound. (An earlier lazy
//! variant kept entries in place and partitioned the candidate slot of
//! every level on each fire; that walk was O(pending) per fire and
//! showed up as the top entry in a host profile.)

use std::task::Waker;

const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS; // 64
const LEVELS: usize = 11; // ceil(64 / 6): covers the full u64 clock
const NIL: u32 = u32::MAX;

struct Entry<T> {
    deadline: u64,
    seq: u64,
    payload: Option<T>,
    next: u32,
}

struct Level {
    /// Bit `s` set iff slot `s` has at least one entry.
    occ: u64,
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occ: 0,
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
        }
    }
}

/// The wheel. See the module docs for the invariants.
///
/// Generic over the payload delivered at fire time — the executor
/// stores its wake targets, standalone uses (and the differential
/// fuzz) default to a plain [`Waker`].
pub struct TimerWheel<T = Waker> {
    cur: u64,
    levels: Vec<Level>,
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
    /// Exact earliest pending deadline (`None` when empty). Updated on
    /// insert, recomputed after each fire group.
    cached_min: Option<u64>,
    /// Scratch for fire batches, kept to avoid per-fire allocation.
    fire_buf: Vec<(u64, T)>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel at clock zero.
    pub fn new() -> Self {
        TimerWheel {
            cur: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
            cached_min: None,
            fire_buf: Vec::new(),
        }
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending deadline, if any. O(1).
    #[inline]
    pub fn peek(&self) -> Option<u64> {
        self.cached_min
    }

    #[inline]
    fn placement(&self, deadline: u64) -> (usize, usize) {
        let x = deadline ^ self.cur;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((deadline >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Appends arena entry `key` to its placement slot.
    #[inline]
    fn link(&mut self, key: u32) {
        let deadline = self.entries[key as usize].deadline;
        self.entries[key as usize].next = NIL;
        let (level, slot) = self.placement(deadline);
        let lv = &mut self.levels[level];
        let tail = lv.tail[slot];
        if tail == NIL {
            lv.head[slot] = key;
        } else {
            self.entries[tail as usize].next = key;
        }
        lv.tail[slot] = key;
        lv.occ |= 1 << slot;
    }

    /// Registers a timer. `deadline` must not lie in the past and `seq`
    /// must be unique and monotone across insertions (the executor's
    /// registration counter). O(1).
    pub fn insert(&mut self, deadline: u64, seq: u64, payload: T) {
        debug_assert!(deadline >= self.cur, "timer registered in the past");
        let entry = Entry {
            deadline,
            seq,
            payload: Some(payload),
            next: NIL,
        };
        let key = match self.free.pop() {
            Some(k) => {
                self.entries[k as usize] = entry;
                k
            }
            None => {
                let k = u32::try_from(self.entries.len()).expect("timer arena exhausted");
                assert_ne!(k, NIL, "timer arena exhausted");
                self.entries.push(entry);
                k
            }
        };
        self.link(key);
        self.len += 1;
        self.cached_min = Some(match self.cached_min {
            Some(m) => m.min(deadline),
            None => deadline,
        });
    }

    /// Cascades until level 0 is occupied (requires `len > 0`): advances
    /// `cur` to the base of the lowest occupied slot of the lowest
    /// occupied level and re-links its entries one level (or more) down.
    /// Amortized O(1): each entry descends monotonically.
    fn normalize(&mut self) {
        debug_assert!(self.len > 0);
        while self.levels[0].occ == 0 {
            let level = (1..LEVELS)
                .find(|&l| self.levels[l].occ != 0)
                .expect("non-empty wheel has an occupied level");
            let lv = &mut self.levels[level];
            let slot = lv.occ.trailing_zeros() as usize;
            let mut k = lv.head[slot];
            lv.head[slot] = NIL;
            lv.tail[slot] = NIL;
            lv.occ &= !(1 << slot);
            // Every live deadline is ≥ this slot's base (invariant 2),
            // so the clock may advance to it without passing anything.
            let span = LEVEL_BITS * (level as u32 + 1);
            // span can exceed 64 at the top level (11·6 = 66): the kept
            // prefix is then empty.
            let mask = if span >= 64 { u64::MAX } else { (1u64 << span) - 1 };
            let base = (self.cur & !mask) | ((slot as u64) << (span - LEVEL_BITS));
            debug_assert!(base > self.cur);
            self.cur = base;
            // Re-link against the new cur: each entry's highest digit
            // differing from cur is now strictly below `level`.
            while k != NIL {
                let next = self.entries[k as usize].next;
                self.link(k);
                k = next;
            }
        }
    }

    /// Fires the earliest deadline group if it is `≤ now`: advances the
    /// wheel clock to it, appends the group's payloads to `out` in
    /// registration (`seq`) order, and returns true. Returns false when
    /// nothing is due.
    pub fn fire_next(&mut self, now: u64, out: &mut Vec<T>) -> bool {
        let d = match self.cached_min {
            Some(d) if d <= now => d,
            _ => return false,
        };
        self.normalize();
        let slot = self.levels[0].occ.trailing_zeros() as usize;
        debug_assert_eq!((self.cur & !(SLOTS as u64 - 1)) | slot as u64, d);
        self.cur = d;
        // Invariant 1: this list is exactly the deadline-d group.
        let lv = &mut self.levels[0];
        let mut k = lv.head[slot];
        lv.head[slot] = NIL;
        let single = lv.tail[slot] == k;
        lv.tail[slot] = NIL;
        lv.occ &= !(1 << slot);
        if single {
            // Overwhelmingly common: one timer on the tick. Skip the
            // seq-sort round-trip through the scratch buffer.
            let e = &mut self.entries[k as usize];
            debug_assert_eq!(e.deadline, d);
            out.push(e.payload.take().expect("pending entry has a payload"));
            self.free.push(k);
            self.len -= 1;
            self.cached_min = (self.len > 0).then(|| self.exact_min());
            return true;
        }
        let mut batch = std::mem::take(&mut self.fire_buf);
        batch.clear();
        while k != NIL {
            let e = &mut self.entries[k as usize];
            debug_assert_eq!(e.deadline, d);
            let payload = e.payload.take().expect("pending entry has a payload");
            batch.push((e.seq, payload));
            let next = e.next;
            self.free.push(k);
            self.len -= 1;
            k = next;
        }
        debug_assert!(!batch.is_empty(), "cached_min pointed at an empty tick");
        batch.sort_unstable_by_key(|&(seq, _)| seq);
        out.extend(batch.drain(..).map(|(_, w)| w));
        self.fire_buf = batch;
        // NOT normalize() here: cascading would advance `cur` toward the
        // next pending deadline, which may lie past the executor's clock
        // — a later insert between the two would then be "in the past".
        // The exact min costs at most one slot-list walk instead.
        self.cached_min = (self.len > 0).then(|| self.exact_min());
        true
    }

    /// Exact earliest pending deadline of a non-empty wheel. Entries at
    /// a lower level always precede entries at a higher one (they match
    /// `cur` on the higher digit; the higher-level entry exceeds it), so
    /// only the lowest occupied level's lowest slot matters: O(1) when
    /// level 0 is occupied, one slot-list walk otherwise.
    fn exact_min(&self) -> u64 {
        debug_assert!(self.len > 0);
        for level in 0..LEVELS {
            let lv = &self.levels[level];
            if lv.occ == 0 {
                continue;
            }
            let slot = lv.occ.trailing_zeros() as usize;
            if level == 0 {
                // Invariant 1: the slot IS the deadline.
                return (self.cur & !(SLOTS as u64 - 1)) | slot as u64;
            }
            let mut min = u64::MAX;
            let mut k = lv.head[slot];
            while k != NIL {
                let e = &self.entries[k as usize];
                min = min.min(e.deadline);
                k = e.next;
            }
            return min;
        }
        unreachable!("non-empty wheel has an occupied level");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // simlint: allow(std-sync): test-only wake counter; the Wake trait requires Sync state
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    struct NoopWake;
    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    fn waker() -> Waker {
        Waker::from(Arc::new(NoopWake))
    }

    struct CountWake(AtomicUsize);
    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(100, 0, waker());
        w.insert(50, 1, waker());
        w.insert(100, 2, waker());
        assert_eq!(w.peek(), Some(50));
        let mut out = Vec::new();
        assert!(w.fire_next(50, &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(w.peek(), Some(100));
        assert!(!w.fire_next(50, &mut out), "nothing due yet");
        out.clear();
        assert!(w.fire_next(100, &mut out));
        assert_eq!(out.len(), 2, "same-deadline group fires as one batch");
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn same_tick_keeps_every_waker() {
        // The regression a tick-keyed map would fail: two timers on one
        // deadline tick must both fire.
        let mut w = TimerWheel::new();
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        w.insert(77, 0, Waker::from(Arc::clone(&counter)));
        w.insert(77, 1, Waker::from(Arc::clone(&counter)));
        let mut out = Vec::new();
        assert!(w.fire_next(77, &mut out));
        for wk in out.drain(..) {
            wk.wake();
        }
        assert_eq!(counter.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn spans_levels_and_large_jumps() {
        let mut w = TimerWheel::new();
        // Deadlines spread across many orders of magnitude.
        let deadlines = [1u64, 63, 64, 4095, 4096, 1 << 30, (1 << 40) + 17, u64::MAX / 2];
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i as u64, waker());
        }
        let mut fired = Vec::new();
        let mut out = Vec::new();
        while let Some(d) = w.peek() {
            assert!(w.fire_next(u64::MAX, &mut out));
            fired.push(d);
        }
        let mut want = deadlines.to_vec();
        want.sort_unstable();
        assert_eq!(fired, want, "deadlines fire in ascending order");
        assert_eq!(out.len(), deadlines.len());
    }

    #[test]
    fn same_deadline_from_different_insert_times_merges() {
        // Insert D while cur=0 (lands high), fire an earlier timer to
        // advance cur near D, insert D again (lands low): both must fire
        // in one batch, seq-ordered.
        let mut w = TimerWheel::new();
        let d = 4096 + 7;
        w.insert(d, 0, waker());
        w.insert(4096, 1, waker());
        let mut out = Vec::new();
        assert!(w.fire_next(4096, &mut out)); // cur = 4096
        out.clear();
        w.insert(d, 2, waker()); // same deadline, different level now
        assert_eq!(w.peek(), Some(d));
        assert!(w.fire_next(d, &mut out));
        assert_eq!(out.len(), 2, "both copies of deadline {d} fired");
        assert!(w.is_empty());
    }

    #[test]
    fn arena_slots_recycle() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        for round in 0..100u64 {
            for i in 0..10u64 {
                w.insert(round * 1000 + i * 3, round * 10 + i, waker());
            }
            while w.fire_next(u64::MAX, &mut out) {}
        }
        assert!(w.is_empty());
        assert!(
            w.entries.len() <= 10,
            "arena should recycle, holds {}",
            w.entries.len()
        );
        assert_eq!(out.len(), 1000);
    }
}

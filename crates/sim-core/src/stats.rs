//! Measurement primitives: counters, time aggregates and latency
//! histograms.
//!
//! [`Histogram`] is a log-bucketed (HDR-style) histogram with bounded
//! relative error, used for every latency distribution reported by the
//! benchmark harness (p50/p99/p999 fault latencies, shootdown latencies,
//! request sojourn times).
//!
//! Every stat type supports **measurement windows** through one interface,
//! [`Windowed`]: `start()` captures a cheap start line and
//! `since(&start)` returns only what was recorded after it. Harnesses
//! report windows instead of destructively resetting stats, so a warmup
//! phase can never pollute the measured figures and the cumulative values
//! stay available for debugging, and a metrics table can window any stat
//! uniformly.

use std::cell::{Cell, RefCell};

/// A stat that supports measurement windows.
pub trait Windowed {
    /// Start line of a window; its `Default` is an empty start line, from
    /// which [`since`](Windowed::since) returns the cumulative value.
    type Snapshot: Default;
    /// What was recorded inside a window.
    type Delta;

    /// Captures the current state as a window start line.
    fn start(&self) -> Self::Snapshot;

    /// What was recorded since `start` was captured.
    fn since(&self, start: &Self::Snapshot) -> Self::Delta;
}

impl Windowed for Counter {
    type Snapshot = CounterSnapshot;
    type Delta = u64;

    fn start(&self) -> CounterSnapshot {
        CounterSnapshot {
            value: self.0.get(),
        }
    }

    fn since(&self, start: &CounterSnapshot) -> u64 {
        self.0.get().saturating_sub(start.value)
    }
}

impl Windowed for Histogram {
    type Snapshot = HistogramSnapshot;
    type Delta = HistogramDelta;

    /// Copies the bucket counts up to the highest bucket recorded so
    /// far, 8 bytes per bucket.
    fn start(&self) -> HistogramSnapshot {
        let h = self.0.borrow();
        HistogramSnapshot {
            buckets: h.buckets.clone(),
            stat: TimeStatSnapshot {
                count: h.stat.count,
                sum: h.stat.sum,
            },
        }
    }

    /// Quantile upper bounds are clamped by the histogram's *cumulative*
    /// maximum: exact when the start line was empty, otherwise a
    /// documented upper-bound approximation (a window's true max is not
    /// recoverable from two cumulative states).
    fn since(&self, start: &HistogramSnapshot) -> HistogramDelta {
        let h = self.0.borrow();
        let buckets = h
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| b.saturating_sub(start.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        HistogramDelta {
            buckets,
            stat: TimeStatDelta {
                count: h.stat.count.saturating_sub(start.stat.count),
                sum: h.stat.sum.saturating_sub(start.stat.sum),
            },
            max_hint: h.stat.max,
        }
    }
}

impl Windowed for RefCell<TimeStat> {
    type Snapshot = TimeStatSnapshot;
    type Delta = TimeStatDelta;

    /// Min/max are stream properties that cannot be decomposed into
    /// windows, so the start line carries only the additive components.
    fn start(&self) -> TimeStatSnapshot {
        let s = self.borrow();
        TimeStatSnapshot {
            count: s.count,
            sum: s.sum,
        }
    }

    fn since(&self, start: &TimeStatSnapshot) -> TimeStatDelta {
        let s = self.borrow();
        TimeStatDelta {
            count: s.count.saturating_sub(start.count),
            sum: s.sum.saturating_sub(start.sum),
        }
    }
}

/// A monotonically increasing event counter.
#[derive(Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating; wrapping a `u64` event count is a bug).
    pub fn add(&self, n: u64) {
        let v = self.0.get();
        debug_assert!(v.checked_add(n).is_some(), "Counter overflow: {v} + {n}");
        self.0.set(v.saturating_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Point-in-time value of a [`Counter`] (see [`Windowed::start`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    value: u64,
}

/// Aggregate statistics over a stream of durations (count/sum/min/max).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeStat {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl TimeStat {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (saturating; wrapping the `u64` sum on a long
    /// sweep is a bug).
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        debug_assert!(
            self.sum.checked_add(v).is_some(),
            "TimeStat sum overflow: {} + {v}",
            self.sum
        );
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time additive state of a [`TimeStat`] (see
/// [`Windowed::start`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStatSnapshot {
    count: u64,
    sum: u64,
}

/// The samples a [`TimeStat`] accumulated after a snapshot was taken.
///
/// Carries only the window-decomposable aggregates (count, sum, mean);
/// min/max of a window are not derivable from two cumulative states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimeStatDelta {
    count: u64,
    sum: u64,
}

impl TimeStatDelta {
    /// Samples recorded inside the window.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the window's samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean of the window's samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS; // 32

/// A log-bucketed histogram of `u64` values with ~3% relative error.
///
/// Values below 32 are exact; larger values share a bucket with values of
/// the same magnitude (top 5 mantissa bits). The bucket counts grow only
/// up to the highest bucket recorded, 8 bytes per bucket: a latency
/// histogram of values up to 1 ms holds at most 512 buckets (4 KiB), and
/// recording `u64::MAX` takes all 1,920 (15 KiB).
#[derive(Default)]
pub struct Histogram(RefCell<Recorded>);

/// What a [`Histogram`] has recorded, behind one borrow.
#[derive(Default)]
struct Recorded {
    /// Counts of buckets `0..=` the highest recorded; empty until the
    /// first sample.
    buckets: Vec<u64>,
    stat: TimeStat,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let magnitude = 63 - v.leading_zeros(); // >= SUB_BUCKET_BITS
        let shift = magnitude - SUB_BUCKET_BITS;
        let group = (magnitude - SUB_BUCKET_BITS + 1) as usize;
        // `sub` lies in [32, 64); store its offset within the group.
        let sub = (v >> shift) as usize - SUB_BUCKETS;
        group * SUB_BUCKETS + sub
    }

    /// Representative (upper-bound) value of bucket `idx`.
    fn bucket_value(idx: usize) -> u64 {
        let group = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if group == 0 {
            sub
        } else {
            // `((32 + sub + 1) << shift) - 1`, in a form whose last
            // bucket does not overflow.
            let shift = (group - 1) as u32;
            ((SUB_BUCKETS as u64 + sub) << shift) + ((1 << shift) - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let i = Self::index(v);
        let h = &mut *self.0.borrow_mut();
        match h.buckets.get_mut(i) {
            Some(count) => *count += 1,
            None => Self::grow_to(&mut h.buckets, i),
        }
        h.stat.record(v);
    }

    /// Extends `buckets` to bucket `i`, the new highest, and counts one
    /// sample there.
    #[cold]
    fn grow_to(buckets: &mut Vec<u64>, i: usize) {
        buckets.reserve_exact(i + 1 - buckets.len());
        buckets.resize(i, 0);
        buckets.push(1);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.borrow().stat.count()
    }

    /// Arithmetic mean of the recorded samples (exact).
    pub fn mean(&self) -> f64 {
        self.0.borrow().stat.mean()
    }

    /// Exact maximum of the recorded samples.
    pub fn max(&self) -> u64 {
        self.0.borrow().stat.max()
    }

    /// Exact minimum of the recorded samples.
    pub fn min(&self) -> u64 {
        self.0.borrow().stat.min()
    }

    /// Sum of the recorded samples (exact).
    pub fn sum(&self) -> u64 {
        self.0.borrow().stat.sum()
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &b) in self.0.borrow().buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Self::bucket_value(i).min(self.max());
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// Point-in-time copy of a [`Histogram`]'s buckets (see
/// [`Windowed::start`]). The default value is an empty start line, so
/// `since(&HistogramSnapshot::default())` reproduces the cumulative
/// distribution.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Bucket counts at snapshot time; an empty vec means all-zero.
    buckets: Vec<u64>,
    stat: TimeStatSnapshot,
}

/// The samples a [`Histogram`] recorded after a snapshot was taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramDelta {
    buckets: Vec<u64>,
    stat: TimeStatDelta,
    /// Cumulative maximum at window end; clamps quantile upper bounds
    /// (exact if the window started empty).
    max_hint: u64,
}

impl HistogramDelta {
    /// Samples recorded inside the window.
    pub fn count(&self) -> u64 {
        self.stat.count()
    }

    /// Sum of the window's samples (exact).
    pub fn sum(&self) -> u64 {
        self.stat.sum()
    }

    /// Arithmetic mean of the window's samples (exact; 0.0 if empty).
    pub fn mean(&self) -> f64 {
        self.stat.mean()
    }

    /// Value at quantile `q` in `[0, 1]` (bucket upper bound; 0 if empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Histogram::bucket_value(i).min(self.max_hint);
            }
        }
        self.max_hint
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn timestat_aggregates() {
        let mut s = TimeStat::new();
        for v in [5, 1, 9] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 15);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 9);
        assert!((s.mean() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_small_values_exact() {
        let h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.p50(), 15);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p99 = h.p99() as f64;
        assert!(
            (p99 - 99_000.0).abs() / 99_000.0 < 0.05,
            "p99 was {p99}, expected ~99000"
        );
        let p50 = h.p50() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05);
        assert_eq!(h.max(), 100_000);
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn histogram_single_sample() {
        let h = Histogram::new();
        h.record(3_900);
        assert_eq!(h.p50(), h.p99());
        assert!(h.p99() <= 3_900);
        assert!(h.p99() as f64 > 3_900.0 * 0.95);
    }

    #[test]
    fn histogram_index_monotonic() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            1 << 20,
            u64::MAX / 2,
        ] {
            let idx = Histogram::index(v);
            assert!(idx >= last, "index not monotonic at {v}");
            last = idx;
        }
    }

    #[test]
    fn counter_snapshot_delta() {
        let c = Counter::new();
        c.add(10);
        let start = c.start();
        assert_eq!(c.since(&start), 0, "empty window");
        c.add(7);
        c.inc();
        assert_eq!(c.since(&start), 8);
        assert_eq!(c.get(), 18, "snapshotting never mutates");
        let empty = CounterSnapshot::default();
        assert_eq!(c.since(&empty), c.get(), "empty start == cumulative");
    }

    #[test]
    fn timestat_snapshot_delta() {
        let s = RefCell::new(TimeStat::new());
        s.borrow_mut().record(1_000); // warmup sample
        let start = s.start();
        s.borrow_mut().record(10);
        s.borrow_mut().record(30);
        let d = s.since(&start);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 40);
        assert!((d.mean() - 20.0).abs() < 1e-9);
        // An empty start line reproduces the cumulative mean bit-for-bit.
        let d0 = s.since(&TimeStatSnapshot::default());
        assert_eq!(d0.mean().to_bits(), s.borrow().mean().to_bits());
    }

    #[test]
    fn histogram_snapshot_delta_excludes_warmup() {
        let h = Histogram::new();
        // Warmup: large samples that would dominate the quantiles.
        for _ in 0..1_000 {
            h.record(1_000_000);
        }
        let start = h.start();
        // Window: small samples only.
        let w = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
            w.record(v);
        }
        let d = h.since(&start);
        assert_eq!(d.count(), w.count());
        assert_eq!(d.sum(), w.sum());
        assert_eq!(d.mean().to_bits(), w.mean().to_bits());
        // Same buckets, so the same quantile values up to the max clamp —
        // the window contains no 1 M samples, so p50/p99 sit far below.
        assert_eq!(d.p50(), w.p50());
        assert_eq!(d.p99(), w.p99());
        assert!(d.p99() < 2_000, "warmup samples leaked into the window");

        // The reverse: small warmup samples, so the start line spans only
        // the low buckets and the window grows the histogram past it.
        let h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let start = h.start();
        let w = Histogram::new();
        for v in (0..2_000u64).map(|i| 1_000_000 + i * 997) {
            h.record(v);
            w.record(v);
        }
        let d = h.since(&start);
        assert_eq!(d.count(), w.count());
        assert_eq!(d.sum(), w.sum());
        assert_eq!(d.mean().to_bits(), w.mean().to_bits());
        assert_eq!(d.p50(), w.p50());
        assert_eq!(d.p99(), w.p99());
        assert_eq!(d.p999(), w.p999());
        assert_eq!(d.quantile(1.0), w.quantile(1.0));
        assert!(
            d.quantile(0.0) >= 1_000_000,
            "warmup samples leaked into the window"
        );
        // An empty start line still reproduces the cumulative histogram
        // after the growth.
        let all = h.since(&HistogramSnapshot::default());
        assert_eq!(all.count(), h.count());
        assert_eq!(all.sum(), h.sum());
        assert_eq!(all.mean().to_bits(), h.mean().to_bits());
        assert_eq!(all.p50(), h.p50());
        assert_eq!(all.p99(), h.p99());
        assert_eq!(all.p999(), h.p999());
        assert_eq!(all.quantile(1.0), h.quantile(1.0));

        // `u64::MAX` takes the last bucket (zeros beside it keep the sum
        // from overflowing).
        let h = Histogram::new();
        h.record(0);
        let start = h.start();
        h.record(u64::MAX);
        assert_eq!(h.0.borrow().buckets.len(), 1_920, "60 groups of 32");
        let d = h.since(&start);
        assert_eq!((d.count(), d.sum()), (1, u64::MAX));
        assert_eq!(d.p50(), u64::MAX);
        assert_eq!(d.quantile(1.0), u64::MAX);
        let all = h.since(&HistogramSnapshot::default());
        assert_eq!((all.p50(), all.quantile(1.0)), (0, u64::MAX));
    }

    #[test]
    fn histogram_delta_from_empty_matches_cumulative() {
        let h = Histogram::new();
        for v in [3_900u64, 5_100, 12_000, 7] {
            h.record(v);
        }
        let d = h.since(&HistogramSnapshot::default());
        assert_eq!(d.count(), h.count());
        assert_eq!(d.sum(), h.sum());
        assert_eq!(d.mean().to_bits(), h.mean().to_bits());
        assert_eq!(d.p50(), h.p50());
        assert_eq!(d.p99(), h.p99());
        assert_eq!(d.p999(), h.p999());
        assert_eq!(d.quantile(1.0), h.quantile(1.0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "Counter overflow")]
    fn counter_overflow_asserts_in_debug() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "TimeStat sum overflow")]
    fn timestat_overflow_asserts_in_debug() {
        let mut s = TimeStat::new();
        s.record(u64::MAX);
        s.record(1);
    }

    #[test]
    fn bucket_value_bounds_index() {
        for v in [0u64, 5, 31, 32, 100, 12345, 1 << 30] {
            let idx = Histogram::index(v);
            let upper = Histogram::bucket_value(idx);
            assert!(
                upper >= v || upper as f64 >= v as f64 * 0.96,
                "bucket upper {upper} not covering {v}"
            );
        }
    }
}

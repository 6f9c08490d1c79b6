//! Virtual time representation.
//!
//! All simulated time is measured in integer nanoseconds from the start of
//! the simulation. Durations are plain [`Nanos`] values; instants are
//! [`SimTime`] newtypes so that instants and durations cannot be confused.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in virtual nanoseconds.
pub type Nanos = u64;

/// Nanoseconds per microsecond.
pub const MICROS: Nanos = 1_000;
/// Nanoseconds per millisecond.
pub const MILLIS: Nanos = 1_000_000;
/// Nanoseconds per second.
pub const SECS: Nanos = 1_000_000_000;

/// An instant in virtual time, measured in nanoseconds from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant at `ns` nanoseconds from simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the number of nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; virtual time never runs
    /// backwards, so such a call indicates a logic error.
    pub fn duration_since(self, earlier: SimTime) -> Nanos {
        self.0
            .checked_sub(earlier.0)
            .expect("virtual time ran backwards")
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Nanos {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

/// `t + d`, checked in every build: a wrapped deadline would lie in the
/// past, and a sleep to it would return at once.
impl Add<Nanos> for SimTime {
    type Output = SimTime;
    #[inline]
    #[track_caller]
    fn add(self, rhs: Nanos) -> SimTime {
        match self.0.checked_add(rhs) {
            Some(t) => SimTime(t),
            None => overflow(self, rhs),
        }
    }
}

impl AddAssign<Nanos> for SimTime {
    #[inline]
    #[track_caller]
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

#[cold]
#[track_caller]
fn overflow(t: SimTime, d: Nanos) -> ! {
    panic!(
        "virtual time overflow: instant {} ns + duration {d} ns exceeds u64::MAX ns",
        t.0
    )
}

impl Sub<SimTime> for SimTime {
    type Output = Nanos;
    fn sub(self, rhs: SimTime) -> Nanos {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECS {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= MILLIS {
            write!(f, "{:.3}ms", self.0 as f64 / MILLIS as f64)
        } else if self.0 >= MICROS {
            write!(f, "{:.3}us", self.0 as f64 / MICROS as f64)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_nanos(5_000);
        assert_eq!((t + 2_500).as_nanos(), 7_500);
        assert_eq!((t + 2_500) - t, 2_500);
        assert_eq!(t.duration_since(SimTime::ZERO), 5_000);
    }

    #[test]
    #[should_panic(expected = "overflow: instant 1 ns + duration 18446744073709551615 ns")]
    fn add_panics_on_overflow() {
        let _ = SimTime::from_nanos(1) + u64::MAX;
    }

    #[test]
    #[should_panic(expected = "overflow: instant 7 ns + duration 18446744073709551609 ns")]
    fn add_assign_panics_on_overflow() {
        let mut t = SimTime::from_nanos(7);
        t += u64::MAX - 6;
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert_eq!(a.saturating_since(b), 0);
        assert_eq!(b.saturating_since(a), 10);
    }

    #[test]
    #[should_panic(expected = "virtual time ran backwards")]
    fn duration_since_panics_on_backwards() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        let _ = a.duration_since(b);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_nanos(2_500_000).to_string(), "2.500ms");
        assert_eq!(SimTime::from_nanos(3 * SECS).to_string(), "3.000s");
    }
}

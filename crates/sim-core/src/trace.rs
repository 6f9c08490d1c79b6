//! Virtual-time tracing: timed events recorded into per-track ring
//! buffers, exportable as Chrome `trace_event` JSON.
//!
//! A [`Tracer`] collects [`TraceEvent`]s — named, categorized intervals
//! of virtual time on a *track* (a core, the NIC, the TLB-shootdown
//! machinery, ...). Components record each event with [`Tracer::record`]
//! once its interval is known: an RDMA completion is fixed at post time,
//! and a fault settles its phase intervals when it completes.
//!
//! Tracing is **zero-overhead when disabled** by construction: components
//! hold an `Option<Rc<Tracer>>` and every recording site is gated on one
//! branch; with no tracer attached, no allocation, no clock read and no
//! formatting happens. Everything a tracer records is derived from virtual
//! time and deterministic program order, so same-seed runs produce
//! bit-identical exports (asserted in `tests/trace.rs`).
//!
//! The export format is the Chrome `trace_event` JSON array-of-objects
//! form (`"X"` complete events plus `"M"` thread-name metadata), viewable
//! in `chrome://tracing` or Perfetto. Timestamps are microseconds with
//! fixed three-decimal nanosecond precision, formatted from integers — no
//! float formatting, so exports are deterministic byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use std::rc::Rc;
//! use mage_sim::Simulation;
//! use mage_sim::trace::{self, Tracer};
//!
//! let sim = Simulation::new();
//! let tracer = Tracer::new();
//! let t = Rc::clone(&tracer);
//! let h = sim.handle();
//! sim.block_on(async move {
//!     let start = h.now();
//!     h.sleep(1_000).await;
//!     let dur = h.now().saturating_since(start);
//!     t.record(0, "fault", "major", start.as_nanos(), dur, None);
//! });
//! let json = tracer.to_chrome_json();
//! trace::validate_json(&json).unwrap();
//! assert!(json.contains("\"name\":\"major\""));
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::time::Nanos;

/// Track id for NIC transfer events (reads/writes overlap freely here).
pub const TRACK_NIC: u32 = 0xFFFF_0000;
/// Track id for TLB-shootdown rounds (in-flight windows may overlap).
pub const TRACK_TLB: u32 = 0xFFFF_0001;
/// Track id for in-flight eviction writeback windows.
pub const TRACK_WRITEBACK: u32 = 0xFFFF_0002;
/// Track id for transfer-retry recovery windows.
pub const TRACK_RETRY: u32 = 0xFFFF_0003;

/// One recorded interval of virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The track (Chrome `tid`) the event belongs to: a core index, or one
    /// of the `TRACK_*` constants.
    pub track: u32,
    /// Category (Chrome `cat`), e.g. `"fault"`, `"evict"`, `"nic"`.
    pub cat: &'static str,
    /// Event name (Chrome `name`), e.g. `"fp2.read"`.
    pub name: &'static str,
    /// Interval start in virtual ns.
    pub start_ns: Nanos,
    /// Interval duration in virtual ns.
    pub dur_ns: Nanos,
    /// Optional single argument rendered into Chrome `args`.
    pub arg: Option<(&'static str, u64)>,
}

struct Track {
    ring: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A virtual-time trace collector with bounded per-track ring buffers.
///
/// Oldest events are dropped first when a track's ring fills; the drop
/// count is kept so exports can disclose truncation.
pub struct Tracer {
    cap_per_track: usize,
    tracks: RefCell<BTreeMap<u32, Track>>,
    names: RefCell<BTreeMap<u32, String>>,
}

impl Tracer {
    /// Creates a tracer with the default per-track capacity (65 536
    /// events).
    pub fn new() -> Rc<Self> {
        Self::with_capacity(1 << 16)
    }

    /// Creates a tracer bounding each track's ring to `cap_per_track`
    /// events (oldest dropped first).
    pub fn with_capacity(cap_per_track: usize) -> Rc<Self> {
        Rc::new(Tracer {
            cap_per_track: cap_per_track.max(1),
            tracks: RefCell::new(BTreeMap::new()),
            names: RefCell::new(BTreeMap::new()),
        })
    }

    /// Assigns a human-readable name to a track (rendered as the Chrome
    /// thread name). Unnamed tracks get a default label.
    pub fn name_track(&self, track: u32, name: &str) {
        self.names.borrow_mut().insert(track, name.to_string());
    }

    /// Records a complete event whose interval is already known.
    pub fn record(
        &self,
        track: u32,
        cat: &'static str,
        name: &'static str,
        start_ns: Nanos,
        dur_ns: Nanos,
        arg: Option<(&'static str, u64)>,
    ) {
        let mut tracks = self.tracks.borrow_mut();
        let t = tracks.entry(track).or_insert_with(|| Track {
            ring: VecDeque::new(),
            dropped: 0,
        });
        if t.ring.len() == self.cap_per_track {
            t.ring.pop_front();
            t.dropped += 1;
        }
        t.ring.push_back(TraceEvent {
            track,
            cat,
            name,
            start_ns,
            dur_ns,
            arg,
        });
    }

    /// Total events currently buffered across all tracks.
    pub fn len(&self) -> usize {
        self.tracks.borrow().values().map(|t| t.ring.len()).sum()
    }

    /// Whether no events have been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All buffered events, in (track, record-order) order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.tracks
            .borrow()
            .values()
            .flat_map(|t| t.ring.iter().copied())
            .collect()
    }

    fn track_label(&self, track: u32) -> String {
        if let Some(n) = self.names.borrow().get(&track) {
            return n.clone();
        }
        match track {
            TRACK_NIC => "nic".to_string(),
            TRACK_TLB => "tlb".to_string(),
            TRACK_WRITEBACK => "writeback".to_string(),
            TRACK_RETRY => "retry".to_string(),
            t => format!("core {t}"),
        }
    }

    /// Serializes the buffered events as Chrome `trace_event` JSON.
    ///
    /// Deterministic byte-for-byte for a deterministic simulation: tracks
    /// are emitted in ascending id order, events in record order, and
    /// timestamps use integer fixed-point microsecond formatting.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let tracks = self.tracks.borrow();
        for (&track, t) in tracks.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{track},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\",\"dropped_events\":{}}}}}",
                escape_json(&self.track_label(track)),
                t.dropped
            ));
            for e in &t.ring {
                out.push(',');
                out.push_str(&format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{track},\"cat\":\"{}\",\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{}",
                    escape_json(e.cat),
                    escape_json(e.name),
                    fmt_us(e.start_ns),
                    fmt_us(e.dur_ns),
                ));
                if let Some((k, v)) = e.arg {
                    out.push_str(&format!(",\"args\":{{\"{}\":{v}}}", escape_json(k)));
                }
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }
}

/// Formats `ns` as microseconds with exactly three decimals, from
/// integers only (no float round-trip, so deterministic).
fn fmt_us(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Validates that `s` is a single well-formed JSON value (see
/// [`json::parse`](crate::json::parse)). Returns the byte offset of the
/// first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    crate::json::parse(s).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_deterministically() {
        let tracer = Tracer::with_capacity(4);
        for i in 0..10u64 {
            tracer.record(0, "c", "e", i, 1, None);
        }
        assert_eq!(tracer.len(), 4);
        assert!(
            tracer.to_chrome_json().contains("\"dropped_events\":6"),
            "the export reports the six dropped events"
        );
        let ev = tracer.events();
        assert_eq!(ev[0].start_ns, 6, "oldest events dropped first");
        assert_eq!(ev[3].start_ns, 9);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let tracer = Tracer::new();
        tracer.record(1, "fault", "major", 0, 5_432, Some(("vpn", 77)));
        tracer.record(TRACK_NIC, "nic", "read", 100, 4_071, Some(("bytes", 4096)));
        tracer.name_track(1, "core 1");
        let json = tracer.to_chrome_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"dur\":5.432"));
        assert!(json.contains("\"name\":\"nic\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\":[1,2.5,-3e4,true,false,null,\"s\\\"t\"]}").unwrap();
        validate_json("  [ ]  ").unwrap();
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1} trailing").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_ok(), "leading zeros tolerated");
        assert!(validate_json("{1:2}").is_err(), "keys must be strings");
    }

    #[test]
    fn export_is_reproducible() {
        let build = || {
            let tracer = Tracer::new();
            for i in 0..100u64 {
                tracer.record((i % 4) as u32, "cat", "name", i * 10, 7, Some(("i", i)));
            }
            tracer.to_chrome_json()
        };
        assert_eq!(build(), build());
    }
}

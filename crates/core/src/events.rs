//! Page-lifecycle event stream, for external observers.
//!
//! The engine emits one [`PageEvent`] at every point where a page's
//! abstract state changes: initial placement, fetch (fault or prefetch)
//! start/install/abort, eviction staging, cancellation, requeue and
//! reclaim. A registered [`EventSink`] sees the events in program order,
//! synchronously, at the exact instant the corresponding PTE mutation
//! happens — there is no buffering and no await between the state change
//! and the notification, so a sink always observes a consistent machine.
//! The one batch is set-up placement: a `populate` call writes the
//! region's PTEs, then emits its `Placed` events in vpn order.
//!
//! The stream exists for differential checking: the `mage-check` crate
//! replays it through an abstract per-page state machine
//! (Local/Remote/InFlight/Evicting) and cross-checks the abstract state
//! against the concrete PTE/TLB contents at quiescent points. A machine
//! takes at most one sink; with none registered the tap is a single
//! branch per event site, so the default path stays schedule-identical.

use std::rc::Rc;

/// One page-lifecycle transition, identified by virtual page number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageEvent {
    /// Setup-time placement by `populate`/`populate_all_remote`, emitted
    /// after the region's PTEs are written.
    Placed {
        /// Virtual page number.
        vpn: u64,
        /// True if placed resident, false if placed in far memory.
        local: bool,
    },
    /// A fault or prefetch acquired the PTE lock on a non-present page
    /// and will fetch it.
    FetchStart {
        /// Virtual page number.
        vpn: u64,
    },
    /// The in-flight fetch installed the page.
    Installed {
        /// Virtual page number.
        vpn: u64,
        /// Local frame now backing the page.
        frame: u64,
    },
    /// The in-flight fetch rolled back (transfer failure, or a prefetch
    /// that found no free frame); the page is remote and unlocked again.
    FetchAborted {
        /// Virtual page number.
        vpn: u64,
    },
    /// Eviction staged the page: PTE remote + locked, frame parked in
    /// the `evicting` table until settlement.
    Unmapped {
        /// Virtual page number.
        vpn: u64,
        /// Frame parked for this eviction.
        frame: u64,
    },
    /// A refault cancelled the in-flight eviction and re-mapped the
    /// still-intact frame (swap-cache refault).
    EvictCancelled {
        /// Virtual page number.
        vpn: u64,
        /// Frame returned to the page.
        frame: u64,
    },
    /// The writeback never became durable; the victim was re-mapped
    /// local (dirty) and re-inserted into accounting.
    Requeued {
        /// Virtual page number.
        vpn: u64,
        /// Frame returned to the page.
        frame: u64,
    },
    /// Eviction settled: the frame was reclaimed and the page is fully
    /// remote and unlocked.
    Reclaimed {
        /// Virtual page number.
        vpn: u64,
        /// Frame returned to the free pool.
        frame: u64,
    },
}

impl PageEvent {
    /// The virtual page number this event concerns.
    pub fn vpn(&self) -> u64 {
        match *self {
            PageEvent::Placed { vpn, .. }
            | PageEvent::FetchStart { vpn }
            | PageEvent::Installed { vpn, .. }
            | PageEvent::FetchAborted { vpn }
            | PageEvent::Unmapped { vpn, .. }
            | PageEvent::EvictCancelled { vpn, .. }
            | PageEvent::Requeued { vpn, .. }
            | PageEvent::Reclaimed { vpn, .. } => vpn,
        }
    }
}

/// Observer of the page-lifecycle event stream.
///
/// Sinks are called synchronously from inside the engine; they must not
/// re-enter the engine (read-only inspection of the page table is fine).
pub trait EventSink {
    /// Called once per transition, in program order.
    fn on_event(&self, event: PageEvent);
}

/// The tap: at most one registered sink, as with the tracer.
#[derive(Default)]
pub(crate) struct EventTap {
    sink: std::cell::OnceCell<Rc<dyn EventSink>>,
}

impl EventTap {
    /// Registers the sink.
    ///
    /// # Panics
    ///
    /// Panics if a sink is already registered.
    pub(crate) fn register(&self, sink: Rc<dyn EventSink>) {
        assert!(self.sink.set(sink).is_ok(), "an event sink is already tapped");
    }

    #[inline]
    pub(crate) fn emit(&self, event: PageEvent) {
        if let Some(sink) = self.sink.get() {
            sink.on_event(event);
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.sink.get().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    struct Collect(RefCell<Vec<PageEvent>>);
    impl EventSink for Collect {
        fn on_event(&self, event: PageEvent) {
            self.0.borrow_mut().push(event);
        }
    }

    #[test]
    fn tap_delivers_in_order_to_every_sink() {
        let tap = EventTap::default();
        assert!(tap.is_empty());
        let a = Rc::new(Collect(RefCell::new(Vec::new())));
        tap.register(Rc::clone(&a) as Rc<dyn EventSink>);
        assert!(!tap.is_empty());
        let events = [
            PageEvent::Placed { vpn: 1, local: true },
            PageEvent::Unmapped { vpn: 1, frame: 9 },
            PageEvent::Reclaimed { vpn: 1, frame: 9 },
        ];
        for e in events {
            tap.emit(e);
        }
        assert_eq!(*a.0.borrow(), events);
    }

    #[test]
    #[should_panic(expected = "an event sink is already tapped")]
    fn second_sink_panics() {
        let tap = EventTap::default();
        tap.register(Rc::new(Collect(RefCell::new(Vec::new()))));
        tap.register(Rc::new(Collect(RefCell::new(Vec::new()))));
    }

    #[test]
    fn vpn_accessor_covers_every_variant() {
        let all = [
            PageEvent::Placed { vpn: 7, local: false },
            PageEvent::FetchStart { vpn: 7 },
            PageEvent::Installed { vpn: 7, frame: 1 },
            PageEvent::FetchAborted { vpn: 7 },
            PageEvent::Unmapped { vpn: 7, frame: 1 },
            PageEvent::EvictCancelled { vpn: 7, frame: 1 },
            PageEvent::Requeued { vpn: 7, frame: 1 },
            PageEvent::Reclaimed { vpn: 7, frame: 1 },
        ];
        for e in all {
            assert_eq!(e.vpn(), 7);
        }
    }
}

//! APIC-style inter-processor interrupts and the TLB-shootdown protocol.
//!
//! The model follows §3.3.1 of the paper: the initiating core programs the
//! APIC and delivers IPIs to each remote core *one by one* (a serial,
//! per-target send cost); each target core handles interrupts *serially*
//! from a FIFO queue (handler occupancy is modeled as a busy-until
//! horizon). Two emergent effects reproduce the paper's observations:
//!
//! - **IPI storms**: when many cores shoot down simultaneously, target
//!   handler queues back up and per-IPI latency inflates (the paper
//!   measures 33× from 1 → 48 threads for Hermit);
//! - **NUMA inflection**: cross-socket wire latency is higher, so
//!   shootdown latency jumps once the application spans sockets (Fig. 7's
//!   inflection at 28 threads).
//!
//! Handling an IPI also *steals time* from the application thread running
//! on the target core; workload threads drain
//! [`InterruptController::take_stolen`] and add it to their execution time.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage_sim::stats::{Counter, Histogram};
use mage_sim::time::{Nanos, SimTime};
use mage_sim::trace::{Tracer, TRACK_TLB};
use mage_sim::SimHandle;

use crate::tlb::Tlb;
use crate::topology::{CoreId, Topology};

/// Cost model for IPI delivery and TLB invalidation.
#[derive(Clone, Debug)]
pub struct IpiCostModel {
    /// Sender-side APIC programming cost per target core (serial), ns.
    pub send_ns: Nanos,
    /// Wire latency to a core on the same socket, ns.
    pub wire_same_socket_ns: Nanos,
    /// Wire latency to a core on the remote socket, ns.
    pub wire_cross_socket_ns: Nanos,
    /// Extra cost per received IPI under virtualization (VMexit ≈ 1,200
    /// cycles, §3.3.1); zero on bare metal.
    pub vmexit_ns: Nanos,
    /// Fixed interrupt entry/exit cost at the target, ns.
    pub handler_base_ns: Nanos,
    /// Per-page INVLPG cost at the target, ns.
    pub invlpg_ns: Nanos,
    /// Pages at or above which the handler does a full flush instead of
    /// per-page INVLPGs (Linux's `tlb_single_page_flush_ceiling` is 33).
    pub full_flush_threshold: u32,
    /// Cost of a full TLB flush (CR3 write + refill amortization), ns.
    pub full_flush_ns: Nanos,
}

impl IpiCostModel {
    /// Bare-metal defaults calibrated to the paper's testbed.
    pub fn bare_metal() -> Self {
        IpiCostModel {
            send_ns: 250,
            wire_same_socket_ns: 1_000,
            wire_cross_socket_ns: 2_600,
            vmexit_ns: 0,
            handler_base_ns: 600,
            invlpg_ns: 40,
            full_flush_threshold: 33,
            full_flush_ns: 1_400,
        }
    }

    /// Virtualized defaults: every IPI triggers a VMexit (§3.3.1).
    pub fn virtualized() -> Self {
        IpiCostModel {
            vmexit_ns: 400,
            ..Self::bare_metal()
        }
    }

    /// Target-side handling cost for invalidating `pages` pages.
    pub fn handler_cost(&self, pages: u32) -> Nanos {
        if pages >= self.full_flush_threshold {
            self.handler_base_ns + self.full_flush_ns
        } else {
            self.handler_base_ns + pages as Nanos * self.invlpg_ns
        }
    }
}

struct Endpoint {
    busy_until: Cell<SimTime>,
    stolen_ns: Cell<Nanos>,
}

/// Aggregate IPI statistics.
#[derive(Default)]
pub struct IpiStats {
    /// Individual IPIs delivered.
    pub ipis: Counter,
    /// Per-IPI latency: send start → handler completion, ns.
    pub ipi_latency: Histogram,
    /// Shootdown events (one per batch broadcast).
    pub shootdowns: Counter,
    /// Full shootdown latency: first send → last ACK, ns.
    pub shootdown_latency: Histogram,
}

/// The machine's interrupt controller plus all per-core TLBs.
pub struct InterruptController {
    sim: SimHandle,
    topo: Topology,
    cost: IpiCostModel,
    endpoints: Vec<Endpoint>,
    tlbs: Vec<Tlb>,
    stats: IpiStats,
    /// Optional trace collector; `None` (the default) costs one branch
    /// per shootdown round.
    tracer: RefCell<Option<Rc<Tracer>>>,
}

impl InterruptController {
    /// Creates a controller for `topo` with one `tlb_entries`-entry TLB
    /// per core; core `i` replaces with seed `seed ^ i`.
    pub fn new(
        sim: SimHandle,
        topo: Topology,
        cost: IpiCostModel,
        tlb_entries: usize,
        seed: u64,
    ) -> Self {
        let tlbs = topo
            .cores()
            .map(|c| Tlb::new(tlb_entries, seed ^ c.0 as u64))
            .collect();
        let endpoints = (0..topo.total_cores())
            .map(|_| Endpoint {
                busy_until: Cell::new(SimTime::ZERO),
                stolen_ns: Cell::new(0),
            })
            .collect();
        InterruptController {
            sim,
            topo,
            cost,
            endpoints,
            tlbs,
            stats: IpiStats::default(),
            tracer: RefCell::new(None),
        }
    }

    /// Attaches a tracer: each shootdown round is recorded on
    /// [`TRACK_TLB`] as a first-send → last-ACK interval (the last ACK
    /// instant is known when the round is posted, so the event is
    /// recorded synchronously even though ACKs land later).
    pub fn attach_tracer(&self, tracer: Rc<Tracer>) {
        *self.tracer.borrow_mut() = Some(tracer);
    }

    /// The TLB of `core`.
    pub fn tlb(&self, core: CoreId) -> &Tlb {
        &self.tlbs[core.index()]
    }

    /// The lowest-numbered core whose TLB translates `vpn`, if any: the
    /// stale-translation safety check.
    pub fn sharer(&self, vpn: u64) -> Option<CoreId> {
        self.topo.cores().find(|&c| self.tlb(c).lookup(vpn))
    }

    /// IPI statistics.
    pub fn stats(&self) -> &IpiStats {
        &self.stats
    }

    /// Drains the interrupt-handling time stolen from `core`'s thread
    /// since the last call. Workload threads add this to their compute.
    pub fn take_stolen(&self, core: CoreId) -> Nanos {
        self.endpoints[core.index()].stolen_ns.replace(0)
    }

    /// Sends a batched TLB-flush IPI round from `initiator` to `targets`
    /// covering `vpns`, paying the serial per-target send cost, and
    /// returns a ticket that resolves when every target has ACKed.
    ///
    /// The initiator's own TLB is invalidated inline (local INVLPGs are
    /// charged via [`IpiCostModel::handler_cost`] but need no IPI).
    pub async fn send_flush(
        &self,
        initiator: CoreId,
        targets: &[CoreId],
        vpns: &[u64],
    ) -> FlushTicket {
        let start = self.sim.now();
        // Local invalidation first (no IPI required).
        for &vpn in vpns {
            self.tlbs[initiator.index()].invalidate(vpn);
        }
        let handler = self.cost.handler_cost(vpns.len() as u32);
        let mut last_ack = self.sim.now();
        for &t in targets {
            if t == initiator {
                continue;
            }
            // Serial APIC programming at the sender.
            self.sim.sleep(self.cost.send_ns).await;
            let send_time = self.sim.now();
            let wire = if self.topo.cross_socket(initiator, t) {
                self.cost.wire_cross_socket_ns
            } else {
                self.cost.wire_same_socket_ns
            };
            let arrival = send_time + wire + self.cost.vmexit_ns;
            let ep = &self.endpoints[t.index()];
            let begin = ep.busy_until.get().max(arrival);
            let done = begin + handler;
            ep.busy_until.set(done);
            ep.stolen_ns.set(ep.stolen_ns.get() + handler);
            // Invalidate the target's entries now; the frame will not be
            // reclaimed until the ticket resolves, so the safety invariant
            // holds (see module docs in `tlb`). Each invalidation reads the
            // target's live TLB at this send: a refault that
            // cancels the eviction may have refilled the entry during the
            // sends above, and that entry must go too.
            for &vpn in vpns {
                self.tlbs[t.index()].invalidate(vpn);
            }
            self.stats.ipis.inc();
            self.stats.ipi_latency.record(done - send_time);
            last_ack = last_ack.max(done);
        }
        self.stats.shootdowns.inc();
        self.stats
            .shootdown_latency
            .record(last_ack.saturating_since(start));
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.record(
                TRACK_TLB,
                "tlb",
                "shootdown",
                start.as_nanos(),
                last_ack.saturating_since(start),
                Some(("pages", vpns.len() as u64)),
            );
        }
        FlushTicket {
            sim: self.sim.clone(),
            done_at: last_ack,
        }
    }

    /// Convenience: send a flush and wait for all ACKs before returning.
    pub async fn flush_sync(&self, initiator: CoreId, targets: &[CoreId], vpns: &[u64]) -> Nanos {
        let start = self.sim.now();
        let ticket = self.send_flush(initiator, targets, vpns).await;
        ticket.wait().await;
        self.sim.now().saturating_since(start)
    }
}

/// An in-flight shootdown; resolves when the last target ACKs.
pub struct FlushTicket {
    sim: SimHandle,
    done_at: SimTime,
}

impl FlushTicket {
    /// The instant at which all ACKs have arrived.
    pub fn done_at(&self) -> SimTime {
        self.done_at
    }

    /// Waits for the ACKs.
    pub async fn wait(&self) {
        self.sim.sleep_until(self.done_at).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;

    fn controller(sim: &Simulation, topo: Topology, cost: IpiCostModel) -> Rc<InterruptController> {
        Rc::new(InterruptController::new(sim.handle(), topo, cost, 64, 0))
    }

    #[test]
    fn single_target_latency_breakdown() {
        let sim = Simulation::new();
        let topo = Topology::single_socket(2);
        let cost = IpiCostModel::bare_metal();
        let ic = controller(&sim, topo, cost.clone());
        let ic2 = Rc::clone(&ic);
        let lat = sim.block_on(async move { ic2.flush_sync(CoreId(0), &[CoreId(1)], &[42]).await });
        let expected = cost.send_ns + cost.wire_same_socket_ns + cost.handler_cost(1);
        assert_eq!(lat, expected);
    }

    #[test]
    fn cross_socket_is_slower() {
        let sim = Simulation::new();
        let topo = Topology::xeon_6348_dual();
        let ic = controller(&sim, topo, IpiCostModel::bare_metal());
        let ic2 = Rc::clone(&ic);
        let (same, cross) = sim.block_on(async move {
            let same = ic2.flush_sync(CoreId(0), &[CoreId(1)], &[1]).await;
            let cross = ic2.flush_sync(CoreId(0), &[CoreId(28)], &[2]).await;
            (same, cross)
        });
        assert!(cross > same, "cross {cross} <= same {same}");
    }

    #[test]
    fn vmexit_penalty_applies() {
        let sim = Simulation::new();
        let topo = Topology::single_socket(2);
        let bare = controller(&sim, topo, IpiCostModel::bare_metal());
        let virt = controller(&sim, topo, IpiCostModel::virtualized());
        let (b, v) = {
            let (bare, virt) = (Rc::clone(&bare), Rc::clone(&virt));
            sim.block_on(async move {
                let b = bare.flush_sync(CoreId(0), &[CoreId(1)], &[1]).await;
                let v = virt.flush_sync(CoreId(0), &[CoreId(1)], &[1]).await;
                (b, v)
            })
        };
        assert_eq!(v - b, 400);
    }

    #[test]
    fn batched_flush_amortizes_ipis() {
        // One shootdown covering 64 pages must be far cheaper than 64
        // single-page shootdowns.
        let sim = Simulation::new();
        let topo = Topology::single_socket(4);
        let ic = controller(&sim, topo, IpiCostModel::bare_metal());
        let targets: Vec<CoreId> = (1..4).map(CoreId).collect();
        let ic2 = Rc::clone(&ic);
        let t2 = targets.clone();
        let (batched, singles) = sim.block_on(async move {
            let vpns: Vec<u64> = (0..64).collect();
            let batched = ic2.flush_sync(CoreId(0), &t2, &vpns).await;
            let mut singles = 0;
            for &vpn in &vpns {
                singles += ic2.flush_sync(CoreId(0), &t2, &[vpn]).await;
            }
            (batched, singles)
        });
        assert!(
            batched * 10 < singles,
            "batched {batched} vs singles {singles}"
        );
        assert_eq!(ic.stats().shootdowns.get(), 65);
    }

    #[test]
    fn concurrent_senders_queue_at_target() {
        // Two cores shooting down the same third core: the second IPI
        // queues behind the first at the target's handler.
        let sim = Simulation::new();
        let topo = Topology::single_socket(3);
        let cost = IpiCostModel::bare_metal();
        let ic = controller(&sim, topo, cost.clone());
        let a = Rc::clone(&ic);
        let b = Rc::clone(&ic);
        let ja = sim.spawn(async move { a.flush_sync(CoreId(0), &[CoreId(2)], &[1]).await });
        let jb = sim.spawn(async move { b.flush_sync(CoreId(1), &[CoreId(2)], &[2]).await });
        let (la, lb) = sim.block_on(async move { (ja.await, jb.await) });
        let uncontended = cost.send_ns + cost.wire_same_socket_ns + cost.handler_cost(1);
        assert_eq!(la.min(lb), uncontended);
        assert_eq!(la.max(lb), uncontended + cost.handler_cost(1));
    }

    #[test]
    fn stolen_time_accrues_at_targets() {
        let sim = Simulation::new();
        let topo = Topology::single_socket(2);
        let cost = IpiCostModel::bare_metal();
        let ic = controller(&sim, topo, cost.clone());
        let ic2 = Rc::clone(&ic);
        sim.block_on(async move {
            ic2.flush_sync(CoreId(0), &[CoreId(1)], &[1, 2, 3]).await;
        });
        assert_eq!(ic.take_stolen(CoreId(1)), cost.handler_cost(3));
        assert_eq!(ic.take_stolen(CoreId(1)), 0, "drain resets");
        assert_eq!(ic.take_stolen(CoreId(0)), 0, "initiator pays inline");
    }

    #[test]
    fn flush_invalidates_all_tlbs() {
        let sim = Simulation::new();
        let topo = Topology::single_socket(3);
        let ic = controller(&sim, topo, IpiCostModel::bare_metal());
        for core in topo.cores() {
            ic.tlb(core).fill(77);
        }
        let ic2 = Rc::clone(&ic);
        sim.block_on(async move {
            ic2.flush_sync(CoreId(0), &[CoreId(1), CoreId(2)], &[77])
                .await;
        });
        for core in topo.cores() {
            assert!(!ic.tlb(core).lookup(77), "core {core:?} stale");
        }
        assert_eq!(ic.sharer(77), None);
        assert_eq!(topo.cores().map(|c| ic.tlb(c).len()).sum::<usize>(), 0);
    }

    #[test]
    fn refill_during_the_sends_is_invalidated_at_its_target() {
        // Core 2 does not cache the page when the shootdown starts, but
        // fills it between the send to core 1 and its own send: the
        // invalidation at core 2's send time must see the live entry.
        let sim = Simulation::new();
        let topo = Topology::single_socket(3);
        let cost = IpiCostModel::bare_metal();
        let ic = controller(&sim, topo, cost.clone());
        ic.tlb(CoreId(1)).fill(77);
        let (flusher, refiller) = (Rc::clone(&ic), Rc::clone(&ic));
        let h = sim.handle();
        let refill = sim.spawn(async move {
            h.sleep(cost.send_ns + cost.send_ns / 2).await;
            refiller.tlb(CoreId(2)).fill(77);
        });
        sim.block_on(async move {
            flusher
                .flush_sync(CoreId(0), &[CoreId(1), CoreId(2)], &[77])
                .await;
            refill.await;
        });
        assert!(!ic.tlb(CoreId(1)).lookup(77));
        assert!(
            !ic.tlb(CoreId(2)).lookup(77),
            "mid-shootdown refill survived"
        );
    }

    #[test]
    fn initiator_in_target_list_is_skipped() {
        let sim = Simulation::new();
        let topo = Topology::single_socket(2);
        let ic = controller(&sim, topo, IpiCostModel::bare_metal());
        let ic2 = Rc::clone(&ic);
        sim.block_on(async move {
            ic2.flush_sync(CoreId(0), &[CoreId(0), CoreId(1)], &[5])
                .await;
        });
        assert_eq!(ic.stats().ipis.get(), 1, "no self-IPI");
    }
}

//! The fault-in path (`FP₁`–`FP₃`).
//!
//! [`FarMemory::access`] is the application-facing entry point: TLB hit,
//! hardware walk, or full page fault. The major-fault path follows §2.1
//! of the paper: trap entry → VMA lock → PTE fault-dedup lock → frame
//! allocation (waiting for the evictors under MAGE's P1, or falling back
//! to synchronous eviction in the baselines) → one-sided read from the
//! backend → PTE install → accounting insert → TLB fill.
//!
//! Every stage is timed into a `FaultCtx`, which carries the per-fault
//! component times and settles them into the Fig. 6/16 breakdown
//! categories exactly once, when the fault completes.

use mage_mmu::{CoreId, Pte};
use mage_sim::time::{Nanos, SimTime};

use crate::events::PageEvent;
use crate::machine::{Access, FarMemory};
use crate::retry::{FaultError, TransferOp};

/// Pages per synchronous (fault-path) eviction batch, in the presets
/// that evict on the fault path (Hermit, DiLOS).
pub const SYNC_EVICTION_BATCH: usize = 32;

/// One timed phase of a fault: the raw interval it occupied.
#[derive(Clone, Copy)]
struct PhaseSpan {
    start: SimTime,
    dur: Nanos,
}

/// Per-fault timing context: phase intervals captured while one major
/// fault traverses `FP₁`–`FP₃`, settled exactly once at the end — into
/// the breakdown stats always, and into trace spans when a tracer is
/// attached. One capture feeds both consumers, so the Fig. 6/16
/// breakdown and the trace can never disagree.
struct FaultCtx {
    /// Virtual time at trap entry.
    t0: SimTime,
    /// TLB-shootdown time from synchronous eviction inside this fault
    /// (accumulated across fallback rounds; traced on the TLB track).
    sync_tlb_ns: Nanos,
    /// Accounting-scan time from synchronous eviction inside this fault.
    sync_acct_ns: Nanos,
    /// Backend read (`FP₂`), including retries.
    rdma: Option<PhaseSpan>,
    /// Remote-slot release (`FP₂`).
    slot: Option<PhaseSpan>,
    /// Memory circulation (`FP₁`): frame allocation + waiting for free
    /// pages, raw (sync-eviction time is carved out at settlement).
    circ: Option<PhaseSpan>,
    /// Accounting insert (`FP₃`), raw.
    acct: Option<PhaseSpan>,
}

impl FaultCtx {
    fn enter(now: SimTime) -> Self {
        FaultCtx {
            t0: now,
            sync_tlb_ns: 0,
            sync_acct_ns: 0,
            rdma: None,
            slot: None,
            circ: None,
            acct: None,
        }
    }

    fn dur(phase: &Option<PhaseSpan>) -> Nanos {
        phase.map_or(0, |p| p.dur)
    }

    fn trace_phase(
        engine: &FarMemory,
        core: CoreId,
        name: &'static str,
        phase: &Option<PhaseSpan>,
    ) {
        if let Some(p) = phase {
            engine.tracer().expect("caller checked").record(
                core.0,
                "fault",
                name,
                p.start.as_nanos(),
                p.dur,
                None,
            );
        }
    }

    /// Settles a fault that short-circuited (resolved by another thread
    /// or by cancelling an in-flight eviction): total latency only, no
    /// component attribution.
    fn settle_early(self, engine: &FarMemory, core: CoreId, vpn: u64) -> Nanos {
        let total = engine.sim.now().saturating_since(self.t0);
        engine.stats.record_fault(total, 0);
        engine.trace_evt(core.0, "fault", "major", self.t0, Some(("vpn", vpn)));
        total
    }

    /// Settles a completed fault into the breakdown categories and, with
    /// a tracer attached, emits the phase spans plus an enclosing
    /// `major` span on the faulting core's track.
    fn settle(self, engine: &FarMemory, core: CoreId, vpn: u64) -> Nanos {
        let rdma_ns = Self::dur(&self.rdma);
        let slot_ns = Self::dur(&self.slot);
        let circ_ns = Self::dur(&self.circ).saturating_sub(self.sync_tlb_ns + self.sync_acct_ns);
        let acct_ns = Self::dur(&self.acct) + self.sync_acct_ns;
        let b = &engine.stats.breakdown;
        b.rdma.borrow_mut().record(rdma_ns);
        b.tlb.borrow_mut().record(self.sync_tlb_ns);
        b.accounting.borrow_mut().record(acct_ns);
        b.circulation.borrow_mut().record(circ_ns + slot_ns);
        let total = engine.sim.now().saturating_since(self.t0);
        engine.stats.record_fault(
            total,
            rdma_ns + self.sync_tlb_ns + acct_ns + circ_ns + slot_ns,
        );
        if engine.tracer().is_some() {
            Self::trace_phase(engine, core, "fp1.circulation", &self.circ);
            Self::trace_phase(engine, core, "fp2.read", &self.rdma);
            Self::trace_phase(engine, core, "fp2.slot", &self.slot);
            Self::trace_phase(engine, core, "fp3.accounting", &self.acct);
            engine.trace_evt(core.0, "fault", "major", self.t0, Some(("vpn", vpn)));
        }
        total
    }
}

impl FarMemory {
    /// Performs one page access from `core`. This is the application-facing
    /// entry point: TLB hit, hardware walk, or full page fault.
    pub async fn access(&self, core: CoreId, vpn: u64, write: bool) -> Access {
        // Stats counters model relaxed atomics, racy by design.
        self.stats.accesses.inc();
        // Interrupt handling (TLB shootdown IPIs) steals time from this
        // core's thread; account for it before the access proceeds.
        let stolen = self.ic.take_stolen(core);
        if stolen > 0 {
            self.sim.sleep(stolen).await;
        }
        // TLB entries are hardware state: fills and lookups on different
        // cores are racy by design.
        if self.ic.tlb(core).lookup(vpn) {
            self.stats.tlb_hits.inc();
            if write {
                self.pt.update(vpn, |p| p.with_dirty(true));
            }
            return Access::TlbHit;
        }
        self.sim.sleep(self.cfg.costs.hw_walk_ns).await;
        let pte = self.pt.get(vpn);
        if pte.is_present() {
            self.pt.update(vpn, |p| {
                p.with_accessed(true).with_dirty(p.dirty() || write)
            });
            self.ic.tlb(core).fill(vpn);
            self.stats.minor_walks.inc();
            // Readahead retrigger: the first touch of a prefetched page is
            // a minor walk (it is not TLB-resident yet), which acts as the
            // PG_readahead marker keeping the window ahead of the stream.
            self.maybe_prefetch(core, vpn);
            return Access::Minor;
        }
        match self.fault_in(core, vpn, write).await {
            Ok(latency) => Access::Major { latency },
            Err(error) => Access::Failed { error },
        }
    }

    /// The major-fault path (`FP₁`–`FP₃`). Fails (after the configured
    /// retries) only on transport errors, with every side effect rolled
    /// back: the frame freed, the PTE unlocked and still remote.
    async fn fault_in(&self, core: CoreId, vpn: u64, write: bool) -> Result<Nanos, FaultError> {
        let costs = &self.cfg.costs;
        let mut ctx = FaultCtx::enter(self.sim.now());
        self.sim
            .sleep(costs.os.fault_entry_ns + costs.os.pt_walk_ns + costs.os.swapcache_ns)
            .await;

        // Address-space metadata lock (Linux-derived systems only).
        let vma_lock = self.asp.borrow().lock_for(vpn).cloned();
        if let Some(l) = vma_lock {
            let guard = l.lock().await;
            self.sim.sleep(costs.vma_lock_hold_ns).await;
            drop(guard);
        }

        // PTE fault-dedup lock (unified-page-table style, §5.2). The loop
        // yields the entry it locked: `try_lock` sets only the lock bit.
        let pte = loop {
            let pte = self.pt.get(vpn);
            if pte.is_present() {
                // Another thread (or a prefetch) resolved the fault.
                self.pt.update(vpn, |p| {
                    p.with_accessed(true).with_dirty(p.dirty() || write)
                });
                self.ic.tlb(core).fill(vpn);
                self.stats.prefetch_inflight_hits.inc();
                return Ok(ctx.settle_early(self, core, vpn));
            }
            if pte.locked() {
                // Refault on a page mid-eviction: cancel the eviction and
                // re-map the still-intact frame (swap-cache refault).
                let cancelled = self.evicting.borrow_mut().remove(vpn);
                if let Some((frame, _gen)) = cancelled {
                    // Claiming the evicting-map entry transfers ownership
                    // of the PTE lock bit from the evictor to this task.
                    self.pt.shadow_lock(vpn);
                    self.sim.sleep(costs.os.pte_update_ns).await;
                    // The remote copy may be stale, so the page must be
                    // considered dirty from here on.
                    self.pt.set(
                        vpn,
                        Pte::present(frame).with_accessed(true).with_dirty(true),
                    );
                    self.pt.shadow_unlock(vpn);
                    if self.acct.insert(core.index(), vpn).await {
                        // Cancelled *and* ghost-listed: the page bounced
                        // out and back twice in quick succession.
                        self.stats.re_faults.inc();
                        self.stats.ghost_hits.inc();
                        self.policy.note_refault(&self.pt, vpn);
                    }
                    self.ic.tlb(core).fill(vpn);
                    self.wake_page(vpn);
                    self.stats.evict_cancels.inc();
                    self.emit(PageEvent::EvictCancelled { vpn, frame });
                    return Ok(ctx.settle_early(self, core, vpn));
                }
                self.stats.page_lock_waits.inc();
                self.wait_for_page(vpn).await;
                continue;
            }
            let locked = self.pt.try_lock(vpn);
            debug_assert!(locked, "PTE lock raced on a single-threaded executor");
            self.emit(PageEvent::FetchStart { vpn });
            break pte;
        };
        let was_remote = pte.is_remote();
        let rpn = pte.payload();

        // FP₁: obtain a free frame. MAGE (P1) never evicts here — it waits
        // for the dedicated evictors; the baselines fall back to
        // synchronous eviction, paying shootdowns on the critical path.
        let t_circ = self.sim.now();
        let frame = loop {
            if let Some(f) = self.alloc.alloc(core.index()).await {
                break f;
            }
            if self.cfg.sync_eviction {
                let outcome = self
                    .evict_batch(core, core.index(), 0, SYNC_EVICTION_BATCH, true)
                    .await;
                ctx.sync_tlb_ns += outcome.tlb_ns;
                ctx.sync_acct_ns += outcome.acct_ns;
                if outcome.pages == 0 {
                    // Nothing evictable right now; let others make progress.
                    self.sim.sleep(1_000).await;
                }
            } else {
                let t_w = self.sim.now();
                self.free_waiters.wait().await;
                self.stats
                    .free_wait
                    .borrow_mut()
                    .record(self.sim.now().saturating_since(t_w));
            }
        };
        ctx.circ = Some(PhaseSpan {
            start: t_circ,
            dur: self.sim.now().saturating_since(t_circ),
        });

        // FP₂: fetch the page contents from the backend (not needed on
        // first touch, which zero-fills).
        if was_remote {
            let t_r = self.sim.now();
            self.sim.sleep(costs.os.rdma_post_cpu_ns).await;
            if let Err(err) = self
                .transfer_with_retry(TransferOp::Read, rpn)
                .await
            {
                // Abort the fault: the remote copy is the only copy, so
                // the PTE stays remote. Unlock it, return the frame and
                // wake everything that was waiting on this page or on
                // free memory — nothing leaks, nothing panics.
                self.pt.unlock(vpn);
                self.alloc.free_batch(core.index(), &[frame]).await;
                self.free_waiters.wake_all();
                self.wake_page(vpn);
                self.stats.aborted_faults.inc();
                self.emit(PageEvent::FetchAborted { vpn });
                return Err(err);
            }
            ctx.rdma = Some(PhaseSpan {
                start: t_r,
                dur: self.sim.now().saturating_since(t_r),
            });
            // Release the backend slot (Linux frees it on swap-in; direct
            // mapping keeps the address-derived slot reserved).
            let t_s = self.sim.now();
            self.backend.release_slot(rpn).await;
            ctx.slot = Some(PhaseSpan {
                start: t_s,
                dur: self.sim.now().saturating_since(t_s),
            });
        }

        // FP₃: install the mapping and account the page.
        self.sim
            .sleep(costs.os.pte_update_ns + costs.os.rmap_cgroup_ns)
            .await;
        self.pt.set(
            vpn,
            Pte::present(frame)
                .with_accessed(true)
                .with_dirty(write || !was_remote),
        );
        self.pt.shadow_unlock(vpn);
        self.emit(PageEvent::Installed { vpn, frame });
        let t_a = self.sim.now();
        if self.acct.insert(core.index(), vpn).await {
            // Ghost hit: this major fault re-fetched a page evicted so
            // recently it was still on the ghost list — evicting it was a
            // mistake. Tell the policy so it can protect the page.
            self.stats.re_faults.inc();
            self.stats.ghost_hits.inc();
            self.policy.note_refault(&self.pt, vpn);
        }
        ctx.acct = Some(PhaseSpan {
            start: t_a,
            dur: self.sim.now().saturating_since(t_a),
        });
        self.ic.tlb(core).fill(vpn);
        self.wake_page(vpn);

        // Readahead.
        self.maybe_prefetch(core, vpn);

        Ok(ctx.settle(self, core, vpn))
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use mage_mmu::{CoreId, Topology, Vma};
    use mage_sim::Simulation;

    use crate::machine::{Access, FarMemory, MachineParams};
    use crate::SystemConfig;

    fn small_machine(cfg: SystemConfig) -> (Simulation, Rc<FarMemory>, Vma) {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages: 512,
            remote_pages: 4_096,
            tlb_entries: 64,
            seed: 7,
        };
        let engine = FarMemory::launch(sim.handle(), cfg, params);
        let vma = engine.mmap(1_024);
        engine.populate(&vma);
        (sim, engine, vma)
    }

    #[test]
    fn local_access_is_cheap_remote_access_faults() {
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Find one local and one remote page.
            let local_vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| e.pt.get(v).is_present())
                .expect("some local page");
            let remote_vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| e.pt.get(v).is_remote())
                .expect("some remote page");

            let a = e.access(CoreId(0), local_vpn, false).await;
            assert_eq!(a, Access::Minor, "first touch walks");
            let a = e.access(CoreId(0), local_vpn, false).await;
            assert_eq!(a, Access::TlbHit);

            let t0 = e.sim.now();
            let a = e.access(CoreId(1), remote_vpn, false).await;
            let lat = e.sim.now() - t0;
            assert!(matches!(a, Access::Major { .. }));
            assert!(lat >= 3_900, "must include the RDMA read: {lat}");
            // Now present and hot.
            let a = e.access(CoreId(1), remote_vpn, false).await;
            assert_eq!(a, Access::TlbHit);
        });
        assert_eq!(engine.stats().major_faults.get(), 1);
        assert_eq!(engine.nic().stats().reads.get(), 1);
    }

    #[test]
    fn write_sets_dirty_through_tlb() {
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            let remote_vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| e.pt.get(v).is_remote())
                .expect("some remote page");
            e.access(CoreId(0), remote_vpn, false).await;
            assert!(!e.pt.get(remote_vpn).dirty(), "clean after read fault");
            e.access(CoreId(0), remote_vpn, true).await;
            assert!(e.pt.get(remote_vpn).dirty(), "TLB-hit write sets dirty");
        });
    }

    #[test]
    fn fault_dedup_single_rdma_read() {
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        let remote_vpn = (0..vma.pages)
            .map(|i| vma.start_vpn + i)
            .find(|&v| e.pt.get(v).is_remote())
            .expect("some remote page");
        // Four threads fault the same page concurrently.
        let mut joins = Vec::new();
        for c in 0..4u32 {
            let e = Rc::clone(&engine);
            joins.push(sim.spawn(async move { e.access(CoreId(c), remote_vpn, false).await }));
        }
        let results = sim.block_on(async move {
            let mut out = Vec::new();
            for j in joins {
                out.push(j.await);
            }
            out
        });
        assert!(results.iter().all(|a| matches!(a, Access::Major { .. })));
        assert_eq!(
            engine.nic().stats().reads.get(),
            1,
            "dedup: one RDMA read for four concurrent faults"
        );
        assert!(engine.stats().page_lock_waits.get() >= 1);
    }

    #[test]
    fn eviction_sustains_fault_streams() {
        // Touch far more pages than fit locally; the background evictors
        // must keep the fault path supplied with frames.
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            for i in 0..vma.pages {
                e.access(CoreId(0), vma.start_vpn + i, false).await;
            }
        });
        assert!(engine.stats().major_faults.get() > 400);
        assert_eq!(engine.stats().sync_evictions.get(), 0, "MAGE P1");
        assert!(engine.stats().evicted_pages.get() > 0);
        // Conservation: frames in flight + free == local quota.
        assert!(engine.allocator().free_frames() <= 512);
    }

    #[test]
    fn hermit_uses_sync_eviction_under_pressure() {
        let (sim, engine, vma) = small_machine(SystemConfig::hermit());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            for i in 0..vma.pages {
                e.access(CoreId(0), vma.start_vpn + i, false).await;
            }
        });
        assert!(engine.stats().major_faults.get() > 400);
    }

    #[test]
    fn pageout_forces_pages_remote() {
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Find a handful of local pages and page them out.
            let local: Vec<u64> = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .filter(|&v| e.pt.get(v).is_present())
                .take(16)
                .collect();
            let resident = e.acct.resident_pages();
            let n = e.pageout(CoreId(0), &local).await;
            assert_eq!(n, 16);
            assert_eq!(e.acct.resident_pages(), resident - 16, "paged-out pages still tracked");
            for &vpn in &local {
                assert!(e.pt.get(vpn).is_remote(), "page {vpn:#x} still local");
                assert!(!e.pt.get(vpn).locked(), "page {vpn:#x} left locked");
            }
            // Accessing a paged-out page faults it back in, onto one list.
            let a = e.access(CoreId(1), local[0], false).await;
            assert!(matches!(a, Access::Major { .. }));
            let entries = e
                .acct
                .queues_snapshot()
                .iter()
                .flat_map(|(probation, protected)| probation.iter().chain(protected))
                .filter(|&&vpn| vpn == local[0])
                .count();
            assert_eq!(entries, 1, "refaulted page queued {entries} times");
        });
        // Populate marks local pages dirty, so all 16 were written back.
        assert!(engine.stats().writebacks.get() >= 16);
    }

    #[test]
    fn stale_tlb_never_survives_eviction() {
        // After a page is evicted and reclaimed, accessing it again must
        // fault (not hit a stale TLB entry).
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Touch every page twice (fills TLBs), forcing evictions.
            for round in 0..2 {
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, round == 0)
                        .await;
                }
            }
            // Any page that is now remote must not be TLB-resident anywhere.
            for i in 0..vma.pages {
                let vpn = vma.start_vpn + i;
                if e.pt.get(vpn).is_remote() {
                    assert_eq!(
                        e.ic.sharer(vpn),
                        None,
                        "stale TLB entry for evicted page {vpn:#x}"
                    );
                }
            }
        });
    }
}

//! Machine assembly: wiring the substrates into a [`FarMemory`] instance.
//!
//! [`FarMemory::launch`] builds every substrate (backend, page table,
//! TLBs + interrupt controller, local allocator, page accounting)
//! according to a [`SystemConfig`], computes the free-page watermarks,
//! and spawns the background eviction threads. The struct itself is the
//! shared state the layered paths operate on:
//!
//! - [`fault`](crate::fault) — the fault-in path (`FP₁`–`FP₃`);
//! - [`reclaim`](crate::reclaim) — the eviction path (`EP₁`–`EP₃`);
//! - [`backend`](crate::backend) — data movement and slot placement.
//!
//! This module holds only assembly, configuration accessors and the
//! synchronous setup operations (`mmap`/`populate`); no fault-path or
//! eviction-path logic lives here.

use std::cell::{Cell, RefCell};
use mage_sim::slab::PageMap;
use std::rc::{Rc, Weak};

use mage_accounting::PageAccounting;
use mage_fabric::Nic;
use mage_mmu::{
    AddressSpace, CoreId, InterruptController, PageTable, Pte, Topology, Vma, PAGE_SIZE,
};
use mage_palloc::LocalAllocator;
use mage_sim::race::ShadowRegion;
use mage_sim::sync::WaitQueue;
use mage_sim::time::{Nanos, SimTime};
use mage_sim::trace::Tracer;
use mage_sim::SimHandle;

use crate::backend::FarBackend;
use crate::config::SystemConfig;
use crate::events::{EventSink, EventTap, PageEvent};
use crate::metrics::MetricsRegistry;
use crate::prefetch::StreamDetector;
use crate::reclaim::VictimPolicy;
use crate::retry::FaultError;
use crate::stats::EngineStats;
use mage_sim::rng::{self, SplitMix64};

/// Machine-level parameters independent of the system design.
#[derive(Clone, Debug)]
pub struct MachineParams {
    /// NUMA topology (defaults to the paper's dual-socket Xeon).
    pub topo: Topology,
    /// Number of application threads (thread *i* is pinned to core *i*).
    pub app_threads: usize,
    /// Local DRAM quota in pages.
    pub local_pages: u64,
    /// Far-memory pool capacity in pages.
    pub remote_pages: u64,
    /// Per-core TLB capacity in entries.
    pub tlb_entries: usize,
    /// Deterministic seed.
    pub seed: u64,
}

impl MachineParams {
    /// The paper's testbed shape with the given thread count and memory
    /// split.
    pub fn testbed(app_threads: usize, local_pages: u64, remote_pages: u64) -> Self {
        MachineParams {
            topo: Topology::xeon_6348_dual(),
            app_threads,
            local_pages,
            remote_pages,
            tlb_entries: 1_536,
            seed: 42,
        }
    }
}

/// Result of one [`FarMemory::access`](FarMemory::access).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Translation was cached; no OS involvement.
    TlbHit,
    /// Hardware walk found a present PTE.
    Minor,
    /// Major fault serviced from far memory (or first touch).
    Major {
        /// End-to-end fault latency in ns.
        latency: Nanos,
    },
    /// Major fault aborted: the backend read exhausted its retries. The
    /// page is still remote and unlocked; the access may be retried.
    Failed {
        /// Why the transfer could not be completed.
        error: FaultError,
    },
}

/// A far-memory machine instance running one system configuration.
pub struct FarMemory {
    pub(crate) sim: SimHandle,
    pub(crate) cfg: SystemConfig,
    pub(crate) topo: Topology,
    pub(crate) backend: FarBackend,
    pub(crate) policy: VictimPolicy,
    pub(crate) pt: PageTable,
    pub(crate) asp: RefCell<AddressSpace>,
    pub(crate) ic: Rc<InterruptController>,
    pub(crate) alloc: Rc<LocalAllocator>,
    pub(crate) acct: Rc<PageAccounting>,
    pub(crate) app_cores: Vec<CoreId>,
    pub(crate) evictor_cores: Vec<CoreId>,
    /// Per-page wait queues for faults blocked on an in-flight fetch,
    /// keyed by vpn in an open-addressed [`PageMap`] (point lookups only;
    /// never iterated, so hash order is unobservable).
    pub(crate) page_waiters: RefCell<PageMap<Rc<WaitQueue>>>,
    /// Pages unmapped by an in-flight eviction batch, mapping vpn →
    /// (frame, generation); a concurrent fault can cancel the eviction by
    /// reclaiming the entry (the swap-cache-refault / unified-page-table
    /// dedup of §5.2). The generation tag prevents a finished batch from
    /// claiming an entry that a *later* batch re-created after a
    /// cancellation (ABA).
    pub(crate) evicting: RefCell<PageMap<(u64, u64)>>,
    pub(crate) evict_gen: Cell<u64>,
    pub(crate) free_waiters: WaitQueue,
    pub(crate) active_evictors: Cell<usize>,
    pub(crate) stop_flag: Cell<bool>,
    pub(crate) low_watermark: u64,
    pub(crate) high_watermark: u64,
    pub(crate) stats: EngineStats,
    pub(crate) prefetchers: RefCell<Vec<StreamDetector>>,
    /// Jitter stream for retry backoff, derived from the machine seed and
    /// the fault seed so a (machine, plan) pair replays exactly.
    pub(crate) retry_rng: SplitMix64,
    /// Page-lifecycle event tap (see [`crate::events`]); empty by
    /// default, in which case every emission site is a no-op.
    pub(crate) events: EventTap,
    /// Optional virtual-time tracer (see [`mage_sim::trace`]); `None` by
    /// default, in which case every recording site is one branch.
    pub(crate) tracer: RefCell<Option<Rc<Tracer>>>,
    pub(crate) self_ref: RefCell<Weak<FarMemory>>,
}

impl FarMemory {
    /// Builds the machine and launches the eviction threads.
    pub fn launch(sim: SimHandle, cfg: SystemConfig, params: MachineParams) -> Rc<Self> {
        let topo = params.topo;
        assert!(
            params.app_threads <= topo.total_cores() as usize,
            "more app threads than cores"
        );
        sim.set_run_ahead(cfg.costs.run_ahead_ns);
        let backend = FarBackend::new(sim.clone(), &cfg, params.remote_pages);
        let policy = cfg.eviction_policy.build();
        let ic = Rc::new(InterruptController::new(
            sim.clone(),
            topo,
            cfg.costs.ipi.clone(),
            params.tlb_entries,
            params.seed,
        ));
        let alloc = Rc::new(LocalAllocator::new(
            sim.clone(),
            cfg.local_alloc,
            cfg.costs.alloc.clone(),
            params.local_pages,
            topo.total_cores() as usize,
        ));
        let acct = Rc::new(PageAccounting::new(
            sim.clone(),
            cfg.accounting_partitions,
            policy.promotes_ghost_hits(),
            cfg.costs.accounting.clone(),
        ));
        let asp = RefCell::new(AddressSpace::new(cfg.vma_lock));

        let app_cores: Vec<CoreId> = (0..params.app_threads as u32).map(CoreId).collect();
        let evictor_cores: Vec<CoreId> = (0..cfg.max_evictors as u32)
            .map(|j| CoreId((params.app_threads as u32 + j) % topo.total_cores()))
            .collect();

        let batch = cfg.eviction_batch as u64;
        // Watermarks scale with both the eviction batch (pipeline depth)
        // and the memory size (like Linux's min_free_kbytes): tiny batch
        // sizes must not shrink the free reserve into a starvation churn.
        let low = (cfg.evictors as u64 * batch)
            .max(params.local_pages / 64)
            .max(64)
            .min(params.local_pages / 8);
        let high = (3 * low).min(params.local_pages / 2).max(low + 1);

        let engine = Rc::new(FarMemory {
            sim: sim.clone(),
            topo,
            backend,
            policy,
            pt: PageTable::new(),
            asp,
            ic,
            alloc,
            acct,
            app_cores,
            evictor_cores,
            page_waiters: RefCell::new(PageMap::new()),
            evicting: RefCell::new(PageMap::new()),
            evict_gen: Cell::new(0),
            free_waiters: WaitQueue::new(),
            active_evictors: Cell::new(cfg.evictors),
            stop_flag: Cell::new(false),
            low_watermark: low,
            high_watermark: high,
            stats: EngineStats::default(),
            prefetchers: RefCell::new(
                (0..topo.total_cores())
                    .map(|_| StreamDetector::new())
                    .collect(),
            ),
            retry_rng: rng::stream(params.seed, cfg.faults.seed),
            events: EventTap::default(),
            tracer: RefCell::new(None),
            self_ref: RefCell::new(Weak::new()),
            cfg,
        });
        *engine.self_ref.borrow_mut() = Rc::downgrade(&engine);
        // PTE words are the engine's primary shared state; route every
        // page-table access through the race detector's shadow region
        // (inert when detection is disabled).
        engine.pt.attach_shadow(ShadowRegion::new(&sim, "pte"));

        // Launch the background eviction threads and, for Hermit-style
        // feedback-directed asynchrony, the scaling controller.
        for id in 0..engine.cfg.max_evictors {
            let e = Rc::clone(&engine);
            sim.spawn(async move { e.evictor_main(id).await });
        }
        if engine.cfg.max_evictors > engine.cfg.evictors {
            let e = Rc::clone(&engine);
            sim.spawn(async move { e.scaling_controller().await });
        }
        engine
    }

    /// The machine topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Engine statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The composed stat registry over every source this machine owns
    /// (engine, NIC, interrupts, accounting); the entry point for
    /// snapshot-delta measurement windows.
    pub fn metrics(&self) -> MetricsRegistry<'_> {
        MetricsRegistry {
            engine: &self.stats,
            nic: self.backend.link().stats(),
            interrupts: self.ic.stats(),
            accounting: self.acct.stats(),
            replication: self.backend.replication_stats(),
        }
    }

    /// Attaches a virtual-time tracer to the whole machine: fault and
    /// eviction spans from the engine, transfer events from the NIC and
    /// shootdown rounds from the interrupt controller all record into it.
    /// Application cores appear as tracks `0..app_threads`.
    pub fn attach_tracer(&self, tracer: Rc<Tracer>) {
        for core in &self.app_cores {
            tracer.name_track(core.0, &format!("core {}", core.0));
        }
        self.nic().attach_tracer(Rc::clone(&tracer));
        self.ic.attach_tracer(Rc::clone(&tracer));
        *self.tracer.borrow_mut() = Some(tracer);
    }

    /// The attached tracer, if any (cheap clone of an `Rc`).
    pub(crate) fn tracer(&self) -> Option<Rc<Tracer>> {
        self.tracer.borrow().clone()
    }

    /// Records a complete trace event from `start` to now, if a tracer is
    /// attached (one branch otherwise).
    pub(crate) fn trace_evt(
        &self,
        track: u32,
        cat: &'static str,
        name: &'static str,
        start: SimTime,
        arg: Option<(&'static str, u64)>,
    ) {
        if let Some(t) = self.tracer.borrow().as_ref() {
            t.record(
                track,
                cat,
                name,
                start.as_nanos(),
                self.sim.now().saturating_since(start),
                arg,
            );
        }
    }

    /// The far-memory backend.
    pub fn backend(&self) -> &FarBackend {
        &self.backend
    }

    /// The victim-selection policy.
    pub fn eviction_policy(&self) -> &VictimPolicy {
        &self.policy
    }

    /// The backend's transfer link (bandwidth/latency model and stats).
    pub fn nic(&self) -> &Rc<Nic> {
        self.backend.link()
    }

    /// The interrupt controller (TLBs, IPIs).
    pub fn interrupts(&self) -> &Rc<InterruptController> {
        &self.ic
    }

    /// The page table (read-only inspection, e.g. residency audits).
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// The local frame allocator.
    pub fn allocator(&self) -> &Rc<LocalAllocator> {
        &self.alloc
    }

    /// The page accounting structure.
    pub fn accounting(&self) -> &Rc<PageAccounting> {
        &self.acct
    }

    /// Free-page high watermark (eviction target).
    pub fn high_watermark(&self) -> u64 {
        self.high_watermark
    }

    /// Registers the observer of the page-lifecycle event stream (see
    /// [`crate::events`]). The sink sees every transition synchronously,
    /// in program order; with no sink registered the tap costs one
    /// branch per site and perturbs nothing.
    ///
    /// # Panics
    ///
    /// Panics if a sink is already registered: a machine has at most one.
    pub fn tap_events(&self, sink: Rc<dyn EventSink>) {
        self.events.register(sink);
    }

    /// Emits a page-lifecycle event to the registered sink, if any.
    #[inline]
    pub(crate) fn emit(&self, event: PageEvent) {
        self.events.emit(event);
    }

    /// Signals the background threads (evictors and the backend's
    /// replication monitor, if any) to exit.
    pub fn shutdown(&self) {
        self.stop_flag.set(true);
        self.backend.shutdown();
    }

    /// Maps a new region of `pages` pages.
    pub fn mmap(&self, pages: u64) -> Vma {
        let bytes = pages
            .checked_mul(PAGE_SIZE)
            .expect("mmap size (pages * PAGE_SIZE) overflows u64");
        let vma = self.asp.borrow_mut().mmap(pages);
        assert!(
            self.backend.node().register(bytes),
            "memory node capacity exceeded"
        );
        vma
    }

    /// Initially places the region's pages: local frames are consumed
    /// until only the high watermark remains free; every further page
    /// starts remote. Local pages are dirty (no remote copy yet).
    ///
    /// Runs synchronously at setup time (no virtual time passes).
    ///
    /// # Panics
    ///
    /// Panics naming the vpn if a page of the region is already placed.
    pub fn populate(&self, vma: &Vma) {
        let budget = self.alloc.free_frames().saturating_sub(self.high_watermark);
        self.place(vma, budget);
    }

    /// Leaves the region unpopulated: no page-table paths, frames or
    /// remote slots are created until a page is first touched, when the
    /// fault path zero-fills it (installing it present and dirty, like a
    /// fresh anonymous mapping). This is the honest setup for
    /// terabyte-scale regions — host metadata stays O(touched pages)
    /// because every per-page structure on the touch path is sparse —
    /// and it deliberately does nothing: the method exists so callers
    /// state the choice explicitly instead of silently skipping
    /// [`populate`](Self::populate).
    pub fn populate_lazy(&self, vma: &Vma) {
        let _ = vma;
    }

    /// Places every page of the region in far memory regardless of local
    /// capacity (the §3.2 microbenchmark setup: pages pre-evicted with
    /// `madvise_pageout` so that each access faults).
    ///
    /// Runs synchronously at setup time.
    ///
    /// # Panics
    ///
    /// Panics naming the vpn if a page of the region is already placed.
    pub fn populate_all_remote(&self, vma: &Vma) {
        self.place(vma, 0);
    }

    /// Places the region in vpn order: the first `local_budget` pages on
    /// local frames, seeded round-robin over the app cores' accounting
    /// partitions, the rest on backend slots. Each page's `Placed` event
    /// follows once the region's PTEs are written.
    fn place(&self, vma: &Vma, local_budget: u64) {
        let local = local_budget.min(vma.pages);
        let mut frames = self.alloc.seed_frames(local).into_iter().flatten();
        self.acct.seed(
            vma.start_vpn..vma.start_vpn + local,
            0,
            self.app_cores.len().max(1),
        );
        self.pt.place_run(vma.start_vpn, vma.pages, |vpn| {
            if vpn - vma.start_vpn < local {
                let frame = frames
                    .next()
                    .expect("free frames above the watermark are in the buddy allocator at setup");
                // Placed, not accessed: the application has not touched
                // the page yet, so it must look cold to the first scan
                // (seeding it hot would make the first eviction wave
                // strip accessed bits across the whole residency with no
                // victims to show for it). It is dirty: no remote copy
                // exists yet.
                Pte::present(frame).with_dirty(true)
            } else {
                let rpn = self
                    .backend
                    .seed_slot(vma.remote_page(vpn))
                    .expect("backend capacity exceeded");
                Pte::remote(rpn)
            }
        });
        if !self.events.is_empty() {
            for i in 0..vma.pages {
                self.emit(PageEvent::Placed {
                    vpn: vma.start_vpn + i,
                    local: i < local,
                });
            }
        }
    }

    pub(crate) async fn wait_for_page(&self, vpn: u64) {
        let queue = {
            let mut waiters = self.page_waiters.borrow_mut();
            Rc::clone(waiters.get_or_insert_with(vpn, || Rc::new(WaitQueue::new())))
        };
        queue.wait().await;
    }

    pub(crate) fn wake_page(&self, vpn: u64) {
        if let Some(q) = self.page_waiters.borrow_mut().remove(vpn) {
            q.wake_all();
        }
    }

    /// Drains stolen interrupt time for `core` without performing an
    /// access (used by workloads during pure-compute stretches).
    pub fn take_stolen(&self, core: CoreId) -> Nanos {
        self.ic.take_stolen(core)
    }

    /// Multiplies `compute_ns` by the configured virtualization inflation.
    pub fn inflate_compute(&self, compute_ns: Nanos) -> Nanos {
        compute_ns + compute_ns * self.cfg.costs.os.compute_inflation_pct as u64 / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;

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
    fn populate_splits_local_and_remote() {
        let (_sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let mut local = 0;
        let mut remote = 0;
        for i in 0..vma.pages {
            let pte = engine.pt.get(vma.start_vpn + i);
            if pte.is_present() {
                local += 1;
            } else {
                assert!(pte.is_remote());
                remote += 1;
            }
        }
        assert!(local > 0 && remote > 0);
        assert_eq!(local + remote, 1_024);
        // Free pages left at the high watermark.
        assert_eq!(engine.allocator().free_frames(), engine.high_watermark());
        assert_eq!(engine.accounting().resident_pages(), local);
    }

    /// The two requests' byte lengths sum to exactly 2^64: the node must
    /// refuse the second, not wrap its registered count.
    #[test]
    #[should_panic(expected = "memory node capacity exceeded")]
    fn mmap_past_capacity_is_refused_without_wrapping() {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages: 512,
            remote_pages: 4_096,
            tlb_entries: 64,
            seed: 7,
        };
        let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
        engine.mmap(1);
        engine.mmap((1 << 52) - 1);
    }

    #[test]
    fn default_seams_are_the_papers() {
        let (_sim, engine, _vma) = small_machine(SystemConfig::mage_lib());
        assert_eq!(engine.eviction_policy().name(), "second-chance");
    }

    #[test]
    #[should_panic(expected = "3 per-node fault plans for 2 memory nodes")]
    fn more_node_plans_than_nodes_panics_at_launch() {
        let plan = mage_fabric::FaultPlan::staggered_node_crash(7, 0, 3, 1_000_000, 50_000);
        let cfg = SystemConfig::mage_lib().with_replication(crate::ReplicationConfig {
            node_faults: vec![plan; 3],
            ..crate::ReplicationConfig::default()
        });
        small_machine(cfg);
    }

    #[test]
    fn dropping_the_simulation_frees_a_shut_down_machine() {
        let (sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            for i in 0..vma.pages {
                e.access(CoreId(0), vma.start_vpn + i, true).await;
            }
        });
        engine.shutdown();
        let weak = Rc::downgrade(&engine);
        drop(engine);
        assert!(weak.upgrade().is_some(), "parked evictors still hold the machine");
        drop(sim);
        assert!(weak.upgrade().is_none(), "the machine outlived its simulation");
    }

    #[test]
    #[should_panic(expected = "vpn 0x100000 is already placed")]
    fn populating_a_region_twice_panics() {
        let (_sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        engine.populate(&vma);
    }

    #[test]
    #[should_panic(expected = "vpn 0x100000 is already placed")]
    fn placing_a_populated_region_all_remote_panics() {
        let (_sim, engine, vma) = small_machine(SystemConfig::mage_lib());
        engine.populate_all_remote(&vma);
    }

    #[test]
    fn populate_all_remote_leaves_nothing_local() {
        let (_sim, engine, _vma) = small_machine(SystemConfig::mage_lib());
        let vma2 = engine.mmap(256);
        engine.populate_all_remote(&vma2);
        for i in 0..vma2.pages {
            assert!(engine.pt.get(vma2.start_vpn + i).is_remote());
        }
    }
}

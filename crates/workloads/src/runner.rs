//! Experiment runners: closed-loop batch jobs, open-loop fault storms,
//! and raw-RDMA load generators.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use mage::{Access, FarMemory, MachineParams, MetricsWindow, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::rng::SplitMix64;
use mage_sim::stats::{Counter, Histogram};
use mage_sim::time::{Nanos, SECS};
use mage_sim::trace::Tracer;
use mage_sim::Simulation;

use crate::patterns::{Stream, WorkloadKind};

/// Configuration of one closed-loop batch experiment.
#[derive(Clone)]
pub struct RunConfig {
    /// The system under test.
    pub system: SystemConfig,
    /// Access pattern.
    pub kind: WorkloadKind,
    /// Application threads (thread *i* runs on core *i*).
    pub threads: usize,
    /// Working-set size in pages.
    pub wss_pages: u64,
    /// Fraction of the WSS resident locally (1 − offload ratio).
    pub local_ratio: f64,
    /// Operations per thread.
    pub ops_per_thread: u64,
    /// Unmeasured operations per thread executed before the measurement
    /// window (lets cache residency converge to the access distribution;
    /// statistics and the clock origin are reset afterwards).
    pub warmup_ops: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Start with every page remote (§3.2 fault-storm setup).
    pub all_remote: bool,
    /// Skip population entirely: pages start unmapped and zero-fill on
    /// first touch, so setup is O(1) and host metadata stays O(touched
    /// pages). The honest mode for huge sparse address spaces; takes
    /// precedence over `all_remote`.
    pub lazy_populate: bool,
    /// Switch phase-change workloads to phase 1 at this virtual time.
    pub phase_change_at_ns: Option<Nanos>,
    /// Switch phase-change workloads to phase 1 after this many ops per
    /// thread (Metis-style explicit barrier).
    pub phase_change_at_op: Option<u64>,
    /// Record an ops-throughput timeline at this interval.
    pub sample_interval_ns: Option<Nanos>,
    /// Attach a virtual-time tracer and export the run as Chrome
    /// `trace_event` JSON in [`RunReport::trace_json`].
    pub capture_trace: bool,
    /// Machine topology.
    pub topo: Topology,
}

impl RunConfig {
    /// A testbed-shaped run with sensible defaults.
    pub fn new(
        system: SystemConfig,
        kind: WorkloadKind,
        threads: usize,
        wss_pages: u64,
        local_ratio: f64,
    ) -> Self {
        RunConfig {
            system,
            kind,
            threads,
            wss_pages,
            local_ratio,
            ops_per_thread: (wss_pages / threads.max(1) as u64).max(1_000),
            warmup_ops: 0,
            seed: 42,
            all_remote: false,
            lazy_populate: false,
            phase_change_at_ns: None,
            phase_change_at_op: None,
            sample_interval_ns: None,
            capture_trace: false,
            topo: Topology::xeon_6348_dual(),
        }
    }
}

/// The machine for `app_threads` threads over `wss` pages: 1,536 TLB
/// entries, a remote slot for every page plus 1,024 spare, and
/// `local_ratio` of the working set local, at least `floor` pages.
///
/// `all_local` names the system whose watermarks an all-local run
/// (ratio ≥ 0.999) must clear: such a run instead gets the whole working
/// set plus headroom above them (they scale with both the eviction batch
/// and memory size), so that nothing ever evicts. With `None` the ratio
/// rule holds at every ratio.
pub(crate) fn testbed(
    topo: Topology,
    app_threads: usize,
    wss: u64,
    local_ratio: f64,
    floor: u64,
    all_local: Option<&SystemConfig>,
    seed: u64,
) -> MachineParams {
    let local_pages = match all_local {
        Some(system) if local_ratio >= 0.999 => {
            wss + wss / 16 + 3 * (system.evictors as u64) * (system.eviction_batch as u64) + 256
        }
        _ => ((wss as f64 * local_ratio) as u64).max(floor),
    };
    MachineParams {
        topo,
        seed,
        ..MachineParams::testbed(app_threads, local_pages, wss + 1_024)
    }
}

/// Results of one batch run. Two reports compare equal exactly when
/// the runs were bit-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// System name.
    pub system: &'static str,
    /// Virtual runtime of the job (start → slowest thread done), ns.
    pub runtime_ns: Nanos,
    /// Total application operations completed.
    pub total_ops: u64,
    /// Per-thread major-fault counts (feeds the §3.1 ideal model).
    pub faults_per_thread: Vec<u64>,
    /// Ops-per-bucket timeline, if sampling was enabled.
    pub timeline: Vec<(Nanos, u64)>,
    /// Per-thread instant of the phase-0 → phase-1 switch (0 if none).
    pub phase_switch_ns: Vec<Nanos>,
    /// Chrome `trace_event` JSON of the run, when
    /// [`RunConfig::capture_trace`] was set.
    pub trace_json: Option<String>,
    /// Every engine metric over the measurement window: from the start
    /// line the last thread to finish warmup drew, to the end of the run.
    pub window: MetricsWindow,
    // The benchmark's contract: its parity check reads the next three
    // fields by name. Each equals its `window` value.
    /// Major faults in the window (`window.major_faults`).
    pub major_faults: u64,
    /// p99 major-fault latency in the window, ns
    /// (`window.fault_latency.p99()`).
    pub fault_p99_ns: u64,
    /// Synchronous evictions on the fault path in the window
    /// (`window.sync_evictions`).
    pub sync_evictions: u64,
    /// Total executor task polls the run performed — the simulator's
    /// discrete-event count (`events` in `BENCH_scale.json`).
    pub executor_polls: u64,
    /// Page-table nodes allocated by the end of the run (host-metadata
    /// gauge: O(touched pages), never O(address-space span)).
    pub pt_nodes: u64,
    /// Replica-table entries tracked by the end of the run (0 without a
    /// replicated backend; O(touched slots), never O(max rpn)).
    pub replica_entries: u64,
    /// Translations cached across every core's TLB at the end of the
    /// run (≤ cores × TLB capacity, never O(pages touched)).
    pub tlb_entries: u64,
    /// Replica slots still degraded when the run ended (end-of-run
    /// gauge, not a window delta).
    pub degraded_pages: u64,
}

impl RunReport {
    /// Application throughput in M ops/s.
    pub fn mops(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 * 1e3 / self.runtime_ns as f64
    }

    /// Fraction of major faults that re-fetched a recently evicted page
    /// (lower is better — the policy-ablation figure of merit).
    pub fn re_fault_rate(&self) -> f64 {
        if self.major_faults == 0 {
            return 0.0;
        }
        self.window.re_faults as f64 / self.major_faults as f64
    }

    /// Major-fault throughput in M faults/s.
    pub fn fault_mops(&self) -> f64 {
        if self.runtime_ns == 0 {
            return 0.0;
        }
        self.major_faults as f64 * 1e3 / self.runtime_ns as f64
    }

    /// Achieved RDMA read bandwidth over the run, Gbps.
    pub fn read_gbps(&self) -> f64 {
        self.window.read_gbps(self.runtime_ns)
    }

    /// Achieved RDMA write bandwidth over the run, Gbps.
    pub fn write_gbps(&self) -> f64 {
        self.window.write_gbps(self.runtime_ns)
    }

    /// Pages evicted in the window, background plus synchronous.
    pub fn evicted_pages(&self) -> u64 {
        self.window.evicted_pages + self.window.sync_evicted_pages
    }
}

/// Runs one closed-loop batch experiment to completion.
pub fn run_batch(cfg: &RunConfig) -> RunReport {
    let sim = Simulation::new();
    let params = testbed(
        cfg.topo,
        cfg.threads,
        cfg.wss_pages,
        cfg.local_ratio,
        512,
        Some(&cfg.system),
        cfg.seed,
    );
    let engine = FarMemory::launch(sim.handle(), cfg.system.clone(), params);
    let vma = engine.mmap(cfg.wss_pages);
    if cfg.lazy_populate {
        engine.populate_lazy(&vma);
    } else if cfg.all_remote {
        engine.populate_all_remote(&vma);
    } else {
        engine.populate(&vma);
    }
    let tracer = cfg.capture_trace.then(|| {
        let t = Tracer::new();
        engine.attach_tracer(Rc::clone(&t));
        t
    });

    let ops_counter = Rc::new(Counter::new());
    let phase = Rc::new(Cell::new(0usize));
    let done = Rc::new(Cell::new(0usize));
    let timeline = Rc::new(RefCell::new(Vec::new()));
    let sampled = Rc::new(Cell::new(0u64));
    let warmed = Rc::new(Cell::new(0usize));
    let start_line = Rc::new(mage_sim::sync::WaitQueue::new());
    let t_start = Rc::new(Cell::new(0u64));
    // Start line of the measurement window, captured by the last thread
    // to finish warmup. Replaces the destructive stats reset: the window
    // covers every stat source (engine, NIC, IPIs, accounting), so warmup
    // traffic can no longer leak into bandwidth or shootdown figures.
    let start_snap = Rc::new(RefCell::new(None));

    // Phase-change trigger by virtual time (GUPS).
    if let Some(at) = cfg.phase_change_at_ns {
        let h = sim.handle();
        let p = Rc::clone(&phase);
        sim.spawn(async move {
            h.sleep(at).await;
            p.set(1);
        });
    }

    // Throughput timeline sampler. `sampled` tracks how many ops the
    // pushed buckets cover so the final partial bucket can be flushed
    // after the join (the sampler itself is parked mid-sleep when the
    // last thread finishes and never sees the remainder).
    if let Some(interval) = cfg.sample_interval_ns {
        let h = sim.handle();
        let ops = Rc::clone(&ops_counter);
        let tl = Rc::clone(&timeline);
        let done = Rc::clone(&done);
        let sampled = Rc::clone(&sampled);
        let threads = cfg.threads;
        sim.spawn(async move {
            while done.get() < threads {
                h.sleep(interval).await;
                let cur = ops.get();
                tl.borrow_mut().push((h.now().as_nanos(), cur - sampled.get()));
                sampled.set(cur);
            }
        });
    }

    // Application threads.
    let mut joins = Vec::new();
    for t in 0..cfg.threads {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        let ops_counter = Rc::clone(&ops_counter);
        let phase = Rc::clone(&phase);
        let done = Rc::clone(&done);
        let mut stream = Stream::new(cfg.kind, t, cfg.threads, cfg.wss_pages, cfg.seed);
        let ops = cfg.ops_per_thread;
        let warmup = cfg.warmup_ops;
        let base = vma.start_vpn;
        let phase_at_op = cfg.phase_change_at_op;
        let warmed = Rc::clone(&warmed);
        let start_line = Rc::clone(&start_line);
        let t_start = Rc::clone(&t_start);
        let start_snap = Rc::clone(&start_snap);
        let threads = cfg.threads;
        joins.push(sim.spawn(async move {
            let core = CoreId(t as u32);
            // Warmup: converge residency, then rendezvous at a start line
            // where the last thread opens the measurement window.
            if warmup > 0 {
                for _ in 0..warmup {
                    let op = stream.next_op();
                    engine.access(core, base + op.page, op.write).await;
                    let compute = engine.inflate_compute(op.compute_ns);
                    if compute > 0 {
                        h.sleep(compute).await;
                    }
                }
            }
            warmed.set(warmed.get() + 1);
            if warmed.get() == threads {
                *start_snap.borrow_mut() = Some(engine.metrics().snapshot());
                t_start.set(h.now().as_nanos());
                start_line.wake_all();
            } else {
                start_line.wait().await;
            }
            let mut faults = 0u64;
            let mut switch_ns = 0u64;
            for i in 0..ops {
                if let Some(at) = phase_at_op {
                    if i == at {
                        stream.set_phase(1);
                        switch_ns = h.now().as_nanos();
                    }
                }
                if stream.kind().has_phases()
                    && phase.get() != stream.phase()
                    && phase_at_op.is_none()
                {
                    stream.set_phase(phase.get());
                    switch_ns = h.now().as_nanos();
                }
                let op = stream.next_op();
                let access = engine.access(core, base + op.page, op.write).await;
                if matches!(access, Access::Major { .. }) {
                    faults += 1;
                }
                let compute = engine.inflate_compute(op.compute_ns);
                if compute > 0 {
                    h.sleep(compute).await;
                }
                ops_counter.inc();
            }
            done.set(done.get() + 1);
            (faults, switch_ns, h.now().as_nanos())
        }));
    }

    let per_thread = sim.block_on(async move {
        let mut out = Vec::new();
        for j in joins {
            out.push(j.await);
        }
        out
    });
    engine.shutdown();

    let end_abs = per_thread.iter().map(|&(_, _, end)| end).max().unwrap_or(0);
    let runtime_ns = end_abs.saturating_sub(t_start.get());
    // Flush the final partial bucket: block_on returns the instant the
    // last thread finishes, before the sampler's next tick, so without
    // this the trailing `total % interval` ops would vanish from the
    // timeline and `sum(timeline) != total_ops`.
    if cfg.sample_interval_ns.is_some() {
        let cur = ops_counter.get();
        if cur > sampled.get() {
            timeline.borrow_mut().push((end_abs, cur - sampled.get()));
        }
    }
    let start = start_snap
        .borrow_mut()
        .take()
        .expect("rendezvous captured a start snapshot");
    let window = engine.metrics().window_since(&start);
    RunReport {
        system: cfg.system.name,
        runtime_ns,
        total_ops: ops_counter.get(),
        faults_per_thread: per_thread.iter().map(|&(f, _, _)| f).collect(),
        timeline: timeline.take(),
        phase_switch_ns: per_thread.iter().map(|&(_, s, _)| s).collect(),
        trace_json: tracer.map(|t| t.to_chrome_json()),
        major_faults: window.major_faults,
        fault_p99_ns: window.fault_latency.p99(),
        sync_evictions: window.sync_evictions,
        window,
        executor_polls: sim.polls(),
        pt_nodes: engine.page_table().node_count() as u64,
        replica_entries: engine.backend().replica_entries(),
        tlb_entries: engine
            .topology()
            .cores()
            .map(|c| engine.interrupts().tlb(c).len() as u64)
            .sum(),
        degraded_pages: engine.backend().degraded_pages(),
    }
}

/// Report of an open-loop experiment.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Achieved completion rate, M ops/s.
    pub achieved_mops: f64,
    /// p99 request latency, ns.
    pub p99_ns: u64,
    /// Requests the generator issued during the offered-load window.
    pub issued_requests: u64,
    /// Requests that completed by the end of the drain (in or out of the
    /// window; their latencies are all in the distribution).
    pub completed_requests: u64,
    /// Requests still in flight when the bounded drain gave up — the
    /// right-censored residue the latency distribution cannot see. Zero
    /// whenever the drain finishes, i.e. at any sustainable load.
    pub censored_requests: u64,
}

/// Drives the fault path open-loop at `rate_mops` for `duration_ns`,
/// touching fresh (remote) pages in sequence (Fig. 15 setup).
pub fn run_open_loop_faults(
    system: SystemConfig,
    threads: usize,
    wss_pages: u64,
    local_ratio: f64,
    rate_mops: f64,
    duration_ns: Nanos,
    seed: u64,
) -> OpenLoopReport {
    let sim = Simulation::new();
    let params = testbed(
        Topology::xeon_6348_dual(),
        threads,
        wss_pages,
        local_ratio,
        1024,
        None,
        seed,
    );
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(wss_pages);
    // Normal placement: local memory starts full of resident pages so the
    // driver operates in eviction steady state from the first request
    // (the paper's Fig. 15 regime), not in a one-off fill phase.
    engine.populate(&vma);
    let resident = engine.accounting().resident_pages();
    assert!(
        resident < wss_pages,
        "run_open_loop_faults: all {wss_pages} wss_pages are resident ({resident} resident \
         pages), so no remote page is left to fault in; raise wss_pages past the local pages"
    );
    let (first_remote, remote_span) = (vma.start_vpn + resident, wss_pages - resident);

    // Request `i` touches the next remote page in sequence from worker
    // core `i` round-robin.
    let gen_engine = Rc::clone(&engine);
    let report = drive_open_loop(&sim, rate_mops, duration_ns, seed, move |i| {
        let engine = Rc::clone(&gen_engine);
        let core = CoreId((i % threads as u64) as u32);
        async move {
            engine.access(core, first_remote + i % remote_span, false).await;
        }
    });
    engine.shutdown();
    report
}

/// Raw RDMA reads at `rate_mops` with 4 background writer threads
/// saturating the write direction (the Fig. 15 "RDMA" baseline).
pub fn run_raw_rdma(rate_mops: f64, duration_ns: Nanos, seed: u64) -> OpenLoopReport {
    use mage_fabric::{Nic, NicConfig};
    let sim = Simulation::new();
    let nic = Rc::new(Nic::new(sim.handle(), NicConfig::bluefield2_200g()));

    // Background writers: keep the tx direction busy, mirroring eviction
    // traffic ("4 background threads constantly performing RDMA writes").
    for _ in 0..4 {
        let nic = Rc::clone(&nic);
        let h = sim.handle();
        sim.spawn(async move {
            while h.now().as_nanos() < duration_ns {
                let _ = nic.post_write(4096).await;
            }
        });
    }

    drive_open_loop(&sim, rate_mops, duration_ns, seed, move |_| {
        let nic = Rc::clone(&nic);
        async move {
            let _ = nic.post_read(4096).await;
        }
    })
}

/// Issues `request(0)`, `request(1)`, … open-loop with exponential
/// inter-arrivals at `rate_mops` until `duration_ns`, each as its own
/// task, and reports their latencies.
///
/// Drains until every issued request completes (bounded): a fixed-length
/// drain right-censors the tail — precisely the slow requests that an
/// overloaded system queues past the cutoff — which deflates p99 at the
/// loads where it matters most.
fn drive_open_loop<F, R>(
    sim: &Simulation,
    rate_mops: f64,
    duration_ns: Nanos,
    seed: u64,
    request: F,
) -> OpenLoopReport
where
    F: Fn(u64) -> R + 'static,
    R: Future<Output = ()> + 'static,
{
    let latency = Rc::new(Histogram::new());
    let completed = Rc::new(Counter::new());
    let issued = Rc::new(Counter::new());
    let in_window = Rc::new(Counter::new());

    let h = sim.handle();
    let gen_latency = Rc::clone(&latency);
    let gen_completed = Rc::clone(&completed);
    let gen_issued = Rc::clone(&issued);
    let gen_in_window = Rc::clone(&in_window);
    sim.spawn(async move {
        let rng = SplitMix64::new(seed);
        let mean_gap_ns = 1e3 / rate_mops; // ns between arrivals
        let mut i = 0;
        while h.now().as_nanos() < duration_ns {
            let u = rng.next_f64();
            let gap = (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
            h.sleep(gap).await;
            gen_issued.inc();
            let req = request(i);
            i += 1;
            let lat = Rc::clone(&gen_latency);
            let comp = Rc::clone(&gen_completed);
            let win = Rc::clone(&gen_in_window);
            let h2 = h.clone();
            h.spawn(async move {
                let t0 = h2.now();
                req.await;
                lat.record(h2.now() - t0);
                comp.inc();
                if h2.now().as_nanos() <= duration_ns {
                    win.inc();
                }
            });
        }
    });

    let h = sim.handle();
    let drain_completed = Rc::clone(&completed);
    let drain_issued = Rc::clone(&issued);
    sim.block_on(async move {
        h.sleep(duration_ns).await;
        let cutoff = duration_ns + 2 * SECS;
        while drain_completed.get() < drain_issued.get() && h.now().as_nanos() < cutoff {
            h.sleep(50_000).await;
        }
    });

    OpenLoopReport {
        achieved_mops: in_window.get() as f64 * 1e3 / duration_ns as f64,
        p99_ns: latency.p99(),
        issued_requests: issued.get(),
        completed_requests: completed.get(),
        censored_requests: issued.get() - completed.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SystemConfig, kind: WorkloadKind, local_ratio: f64) -> RunConfig {
        let mut cfg = RunConfig::new(system, kind, 4, 8_192, local_ratio);
        cfg.ops_per_thread = 4_000;
        cfg.topo = Topology::single_socket(10);
        cfg
    }

    #[test]
    fn testbed_sizes_local_memory_by_ratio_floor_and_headroom() {
        let lib = SystemConfig::mage_lib();
        let topo = Topology::single_socket(4);
        let local = |ratio, floor, all_local| {
            testbed(topo, 2, 10_000, ratio, floor, all_local, 1).local_pages
        };
        assert_eq!(local(0.3, 512, Some(&lib)), 3_000);
        assert_eq!(local(0.01, 512, Some(&lib)), 512, "floor");
        assert_eq!(local(0.01, 1024, None), 1024, "floor");
        let headroom = 3 * (lib.evictors as u64) * (lib.eviction_batch as u64) + 256;
        assert_eq!(local(1.0, 512, Some(&lib)), 10_000 + 625 + headroom);
        assert_eq!(local(1.0, 1024, None), 10_000, "ratio rule at every ratio");
        let p = testbed(topo, 2, 10_000, 0.5, 512, None, 7);
        assert_eq!((p.remote_pages, p.tlb_entries, p.seed), (11_024, 1_536, 7));
    }

    #[test]
    #[should_panic(expected = "all 512 wss_pages are resident (512 resident pages)")]
    fn open_loop_faults_refuses_an_all_resident_working_set() {
        // The 1,024-page local floor holds all 512 pages.
        run_open_loop_faults(SystemConfig::mage_lib(), 8, 512, 0.5, 0.2, 2_000_000, 1);
    }

    #[test]
    fn all_local_run_has_no_faults() {
        let report = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            1.0,
        ));
        assert_eq!(report.major_faults, 0, "all-local must not fault");
        assert!(report.total_ops == 16_000);
        assert!(report.mops() > 0.0);
    }

    #[test]
    fn offloading_causes_faults_and_slowdown() {
        let local = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            1.0,
        ));
        let off = run_batch(&tiny(
            SystemConfig::mage_lib(),
            WorkloadKind::RandomGraph,
            0.5,
        ));
        assert!(off.major_faults > 1_000);
        assert!(off.runtime_ns > local.runtime_ns);
        assert!(off.read_gbps() > 0.0);
    }

    #[test]
    fn mage_beats_hermit_at_high_offload() {
        // The differentiation regime is high thread count (the paper's
        // Fig. 18b shows near-parity at 4 threads).
        let run16 = |system: SystemConfig| {
            let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, 16, 16_384, 0.4);
            cfg.ops_per_thread = 6_000;
            cfg.warmup_ops = 1_500;
            run_batch(&cfg)
        };
        let mage = run16(SystemConfig::mage_lib());
        let hermit = run16(SystemConfig::hermit());
        assert!(
            mage.mops() > hermit.mops(),
            "mage {:.3} vs hermit {:.3} Mops",
            mage.mops(),
            hermit.mops()
        );
        assert_eq!(mage.sync_evictions, 0);
    }

    #[test]
    fn timeline_sampling_records_buckets() {
        let mut cfg = tiny(SystemConfig::mage_lib(), WorkloadKind::Gups, 0.85);
        cfg.sample_interval_ns = Some(200_000);
        cfg.phase_change_at_ns = Some(1_000_000);
        let report = run_batch(&cfg);
        assert!(report.timeline.len() > 3);
        let total: u64 = report.timeline.iter().map(|&(_, o)| o).sum();
        assert_eq!(total, report.total_ops, "final partial bucket must be flushed");
    }

    #[test]
    fn deterministic_reports() {
        let a = run_batch(&tiny(SystemConfig::dilos(), WorkloadKind::XsBench, 0.7));
        let b = run_batch(&tiny(SystemConfig::dilos(), WorkloadKind::XsBench, 0.7));
        assert_eq!(a.runtime_ns, b.runtime_ns);
        assert_eq!(a.major_faults, b.major_faults);
        assert_eq!(a.fault_p99_ns, b.fault_p99_ns);
    }

    #[test]
    fn open_loop_latency_grows_with_load() {
        let lo = run_open_loop_faults(
            SystemConfig::mage_lib(),
            8,
            200_000,
            0.4,
            0.2,
            20_000_000,
            1,
        );
        let hi = run_open_loop_faults(
            SystemConfig::mage_lib(),
            8,
            200_000,
            0.4,
            4.0,
            20_000_000,
            1,
        );
        assert!(hi.p99_ns > lo.p99_ns, "hi {} lo {}", hi.p99_ns, lo.p99_ns);
        assert!(lo.achieved_mops > 0.1);
    }

    #[test]
    fn raw_rdma_saturates_near_ceiling() {
        let r = run_raw_rdma(5.0, 50_000_000, 3);
        assert!(r.achieved_mops > 4.0, "achieved {}", r.achieved_mops);
        let sat = run_raw_rdma(8.0, 50_000_000, 3);
        // Offered above the 5.86 Mops ceiling: queueing explodes p99.
        assert!(sat.p99_ns > 10 * r.p99_ns);
    }
}

//! Cross-crate integration tests: full machines running full workloads,
//! checking system-level invariants that no single crate can check alone.

use std::rc::Rc;

use mage_check::{check_invariants, CheckCtx};
use mage_far_memory::engine::fault::SYNC_EVICTION_BATCH;
use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;
use mage_far_memory::sim::rng;

fn run(system: SystemConfig, kind: WorkloadKind, threads: usize, local: f64) -> RunReport {
    let mut cfg = RunConfig::new(system, kind, threads, 16_384, local);
    cfg.ops_per_thread = 3_000;
    cfg.topo = Topology::single_socket(threads as u32 + 8);
    run_batch(&cfg)
}

#[test]
fn all_systems_complete_all_workloads() {
    for system in [
        SystemConfig::mage_lib(),
        SystemConfig::mage_lnx(),
        SystemConfig::dilos(),
        SystemConfig::hermit(),
        SystemConfig::ideal(),
    ] {
        for kind in [
            WorkloadKind::RandomGraph,
            WorkloadKind::SeqScan,
            WorkloadKind::Gups,
            WorkloadKind::Metis,
        ] {
            let r = run(system.clone(), kind, 8, 0.6);
            assert_eq!(r.total_ops, 24_000, "{} {kind:?}", system.name);
            assert!(r.major_faults > 0, "{} {kind:?} must fault", system.name);
            assert!(r.runtime_ns > 0);
        }
    }
}

#[test]
fn determinism_across_identical_runs() {
    for system in [SystemConfig::mage_lib(), SystemConfig::hermit()] {
        let a = run(system.clone(), WorkloadKind::RandomGraph, 8, 0.5);
        let b = run(system, WorkloadKind::RandomGraph, 8, 0.5);
        assert_eq!(a.runtime_ns, b.runtime_ns);
        assert_eq!(a.major_faults, b.major_faults);
        assert_eq!(a.evicted_pages(), b.evicted_pages());
        assert_eq!(a.fault_p99_ns, b.fault_p99_ns);
        assert_eq!(a.faults_per_thread, b.faults_per_thread);
    }
}

#[test]
fn different_seeds_change_random_workloads() {
    let mut cfg = RunConfig::new(
        SystemConfig::mage_lib(),
        WorkloadKind::RandomGraph,
        4,
        16_384,
        0.5,
    );
    cfg.ops_per_thread = 3_000;
    let a = run_batch(&cfg);
    cfg.seed = 1234;
    let b = run_batch(&cfg);
    assert_ne!(a.major_faults, b.major_faults);
}

#[test]
fn mage_never_syncs_baselines_do_under_pressure() {
    let mage = run(SystemConfig::mage_lib(), WorkloadKind::RandomGraph, 16, 0.3);
    assert_eq!(mage.sync_evictions, 0, "P1: no synchronous eviction, ever");
    let hermit = run(SystemConfig::hermit(), WorkloadKind::RandomGraph, 16, 0.3);
    assert!(
        hermit.sync_evictions > 0,
        "Hermit falls back under pressure"
    );
    // Each fault-path fallback evicts at most one fixed-size batch.
    let w = &hermit.window;
    assert!(
        w.sync_evicted_pages <= SYNC_EVICTION_BATCH as u64 * w.sync_evictions,
        "{} pages over {} synchronous evictions exceed {SYNC_EVICTION_BATCH} per call",
        w.sync_evicted_pages,
        w.sync_evictions
    );
}

#[test]
fn frame_conservation_under_stress() {
    // After an eviction-heavy run, every frame is either free or mapped
    // by exactly one present PTE.
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(12),
        app_threads: 8,
        local_pages: 2_048,
        remote_pages: 32_768,
        tlb_entries: 256,
        seed: 3,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let vma = engine.mmap(16_384);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..8u32 {
        let e = Rc::clone(&engine);
        joins.push(sim.spawn(async move {
            let stream = rng::stream(123, t as u64);
            for _ in 0..4_000 {
                let page = stream.next_below(16_384);
                let write = stream.next_below(7) == 0;
                e.access(CoreId(t), vma.start_vpn + page, write).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();

    let ctx = CheckCtx {
        engine: &engine,
        vma: &vma,
        local_pages: 2_048,
    };
    if let Err(v) = check_invariants(&ctx) {
        panic!("{v}");
    }
    // Frames still mid-pipeline in the evictors are the only slack.
    let resident = engine.accounting().resident_pages();
    let free = engine.allocator().free_frames();
    let slack = 2_048 - (resident + free);
    assert!(
        slack <= 4 * 256 * 3,
        "too many frames unaccounted: resident {resident} free {free}"
    );
}

#[test]
fn remote_capacity_is_respected() {
    // Offloading more pages than the remote node exports must fail fast.
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(4),
        app_threads: 2,
        local_pages: 1_024,
        remote_pages: 1_024,
        tlb_entries: 64,
        seed: 1,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.mmap(10_000_000)));
    assert!(result.is_err(), "oversized mmap must be rejected");
}

#[test]
fn open_loop_and_memcached_agree_on_direction() {
    // Higher load must not lower tail latency, for both the raw fault
    // driver and the memcached service.
    let lo = run_open_loop_faults(
        SystemConfig::mage_lib(),
        8,
        100_000,
        0.5,
        0.5,
        10_000_000,
        1,
    );
    let hi = run_open_loop_faults(
        SystemConfig::mage_lib(),
        8,
        100_000,
        0.5,
        4.0,
        10_000_000,
        1,
    );
    assert!(hi.p99_ns >= lo.p99_ns);

    let mut mc = MemcachedConfig::paper(SystemConfig::mage_lib(), 20_000);
    mc.workers = 8;
    mc.duration_ns = 10_000_000;
    mc.load_mops = 0.2;
    let lo = run_memcached(&mc);
    mc.load_mops = 1.0;
    let hi = run_memcached(&mc);
    assert!(hi.p99_ns >= lo.p99_ns);
}

/// The §3.1 bound: with `T₀` from an all-local run of the same system
/// and workload and the per-thread fault counts `F` of the offloaded
/// run, no system finishes before `T₀ + L · max F`. The ideal preset,
/// which zeroes every software cost, lands within 5% of that bound.
#[test]
fn ideal_model_bounds_real_systems() {
    let model = IdealModel::paper();
    for system in [
        SystemConfig::mage_lib(),
        SystemConfig::mage_lnx(),
        SystemConfig::dilos(),
        SystemConfig::hermit(),
        SystemConfig::ideal(),
    ] {
        let local_runtime = run(system.clone(), WorkloadKind::RandomGraph, 8, 1.0).runtime_ns;
        for local in [0.5, 0.3] {
            let r = run(system.clone(), WorkloadKind::RandomGraph, 8, local);
            let ideal = model.runtime_ns(local_runtime, &r.faults_per_thread);
            let label = format!("{} at local {local}", system.name);
            assert!(
                r.faults_per_thread.iter().any(|&f| f > 0),
                "{label}: the offloaded run must fault"
            );
            assert!(
                ideal <= r.runtime_ns,
                "{label}: ideal {ideal} ns exceeds measured {} ns",
                r.runtime_ns
            );
            if system.name == SystemConfig::ideal().name {
                assert!(
                    r.runtime_ns as f64 <= 1.05 * ideal as f64,
                    "{label}: measured {} ns is more than 5% above ideal {ideal} ns",
                    r.runtime_ns
                );
            }
        }
    }
}

//! Chaos suite: seeded fault-injection sweeps over the whole engine.
//!
//! Every run drives heavy fault-in + eviction churn through a faulty
//! fabric (transfer errors, latency spikes, link brownouts, remote-node
//! crash windows) and then checks the invariant list mage-check runs
//! (`mage_check::check_invariants`): no stale TLB entry for a settled
//! remote page, the settlement identity
//! `evicted + sync + cancelled + requeued ≤ unmapped`, frame
//! conservation, no lost page, replica coverage and transitions, the
//! ghost-hit identity and the cancel bound.
//!
//! The sweep covers ≥ 64 (system × fault-plan × seed) cells. Each assert
//! carries the cell label and seed so a failing run can be replayed in
//! isolation.

use std::rc::Rc;

use mage_check::{check_invariants, CheckCtx};
use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;

const CORES: u32 = 8;
const THREADS: usize = 4;
const LOCAL_PAGES: u64 = 256;
const VMA_PAGES: u64 = 512;

/// Frequent transient CQ errors plus latency spikes: exercises the
/// bounded-retry path on both fault-in reads and eviction writes.
fn errors(rate: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        error_rate: rate,
        spike_rate: 0.1,
        spike_ns: 20_000,
        ..FaultPlan::none()
    }
}

/// Periodic bandwidth-collapse windows of the given width.
fn brownouts(duration_ns: u64, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        error_rate: 0.02,
        brownout_period_ns: 400_000,
        brownout_duration_ns: duration_ns,
        brownout_rate: 0.5,
        brownout_bw_div: 8,
        ..FaultPlan::none()
    }
}

/// Remote-node crash/recovery windows: ops fail fast while down.
fn crashes(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        crash_period_ns: 500_000,
        crash_duration_ns: 60_000,
        crash_rate: 0.5,
        ..FaultPlan::none()
    }
}

/// One finished chaos cell.
struct ChaosRun {
    engine: Rc<FarMemory>,
    /// Accesses that exhausted their retry budget.
    failed_accesses: u64,
    /// The run's trace, when the cell was traced.
    tracer: Option<Rc<Tracer>>,
}

/// One chaos cell: launch `system` with a two-retry budget, churn two
/// rounds over the working set (writes on the first), shut down, then
/// check the invariant list. `label` and `seed` are echoed in the
/// failure message for replay.
fn chaos_run(system: SystemConfig, seed: u64, traced: bool, label: &str) -> ChaosRun {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(CORES),
        app_threads: THREADS,
        local_pages: LOCAL_PAGES,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system.with_max_retries(2), params);
    let tracer = traced.then(|| {
        let tracer = Tracer::new();
        engine.attach_tracer(Rc::clone(&tracer));
        tracer
    });
    let vma = engine.mmap(VMA_PAGES);
    engine.populate(&vma);

    let e = Rc::clone(&engine);
    let v = vma.clone();
    let failed_accesses = sim.block_on(async move {
        let mut failed = 0u64;
        for round in 0..2 {
            for i in 0..v.pages {
                let core = CoreId((i % THREADS as u64) as u32);
                let access = e.access(core, v.start_vpn + i, round == 0).await;
                if matches!(access, Access::Failed { .. }) {
                    failed += 1;
                }
            }
        }
        failed
    });
    engine.shutdown();

    let ctx = CheckCtx {
        engine: &engine,
        vma: &vma,
        local_pages: LOCAL_PAGES,
    };
    if let Err(v) = check_invariants(&ctx) {
        panic!("[{label} seed={seed}] {v}");
    }
    ChaosRun {
        engine,
        failed_accesses,
        tracer,
    }
}

/// The main sweep: 2 systems × 4 plan families × 4 fault seeds × 2 engine
/// seeds = 64 cells, each upholding every invariant.
#[test]
fn chaos_sweep_preserves_invariants() {
    let systems = [
        ("mage_lib", SystemConfig::mage_lib()),
        ("hermit", SystemConfig::hermit()),
    ];
    let (mut retries, mut requeued, mut failed) = (0u64, 0u64, 0u64);
    let (mut requeue_ghost_hits, mut cells) = (0u64, 0usize);
    for (name, system) in &systems {
        for fault_seed in 0..4u64 {
            let plans: [(&str, FaultPlan); 4] = [
                ("err-5%", errors(0.05, 0xC0FFEE ^ fault_seed)),
                ("err-50%", errors(0.5, 0xBADD ^ fault_seed)),
                ("brownout", brownouts(100_000 + 40_000 * fault_seed, 0xD1 ^ fault_seed)),
                ("crash", crashes(0x5EED ^ fault_seed)),
            ];
            for (plan_name, plan) in plans {
                for seed in [11u64, 29] {
                    let label = format!("{name}/{plan_name}/fseed={fault_seed}");
                    let system = system.clone().with_faults(plan.clone());
                    let run = chaos_run(system, seed, false, &label);
                    let s = run.engine.stats();
                    retries += s.transfer_retries.get();
                    requeued += s.requeued_victims.get();
                    failed += run.failed_accesses;
                    // Ghost hits that were not re-faults: requeued victims
                    // only, as the invariant list checks.
                    requeue_ghost_hits += s.ghost_hits.get() - s.re_faults.get();
                    cells += 1;
                }
            }
        }
    }
    assert!(cells >= 64, "sweep shrank to {cells} cells");
    // The sweep must actually exercise the machinery it protects: the
    // high-error cells are tuned so retries fire and some exhaust.
    assert!(retries > 0, "no transfer was ever retried across {cells} cells");
    assert!(
        requeued > 0,
        "no eviction victim was ever requeued across {cells} cells"
    );
    assert!(
        failed > 0,
        "no access ever exhausted its retry budget across {cells} cells"
    );
    // The one path where the two counters part: a requeued victim is
    // still on the ghost list it joined when it was picked.
    assert!(
        requeue_ghost_hits > 0,
        "ghost_hits == re_faults in all {cells} cells"
    );
}

/// A crashed remote node must never wedge the engine: accesses during
/// the outage fail with typed errors and succeed once the node recovers.
#[test]
fn crash_windows_fail_typed_and_recover() {
    let system = SystemConfig::mage_lib().with_faults(crashes(0xD05E));
    let run = chaos_run(system, 7, false, "crash-solo");
    assert!(run.failed_accesses > 0, "crash windows never surfaced a failure");
}

/// Retry spans are emitted only when the retry machinery actually runs:
/// a clean link produces a trace with no `retry`-category events, while
/// an active error-injecting [`FaultPlan`] produces them. Guards against
/// the clean fast path growing tracing overhead (or phantom spans).
#[test]
fn retry_spans_appear_only_under_an_active_fault_plan() {
    let trace = |plan: FaultPlan, label: &str| {
        let run = chaos_run(SystemConfig::mage_lib().with_faults(plan), 3, true, label);
        run.tracer.expect("traced run").to_chrome_json()
    };

    let clean = trace(
        FaultPlan {
            seed: 0xABCD,
            ..FaultPlan::none()
        },
        "traced-clean",
    );
    assert!(
        !clean.contains("\"cat\":\"retry\""),
        "clean link must not emit retry spans"
    );

    let faulty = trace(errors(0.5, 0xBADD), "traced-faulty");
    assert!(
        faulty.contains("\"cat\":\"retry\""),
        "50% error injection never reached the retry path"
    );
}

/// The node-kill sweep: with page replication on, a memory-node crash
/// costs failover latency, never data. 4 outage geometries × 4 plan
/// seeds × 4 engine seeds = 64 cells, each with two memory nodes whose
/// staggered crash windows provably never overlap. Besides the invariant
/// list (which on a replicated backend requires every settled remote
/// page to keep a synced or rebuilding replica), every cell must see
/// zero aborted faults and zero failed accesses: reads fail over to the
/// surviving replica instead of exhausting retries. The sweep as a
/// whole must actually exercise failover and re-replication.
#[test]
fn node_kill_sweep_loses_nothing_with_replication() {
    let geometries: [(&str, u64, u64); 4] = [
        ("short-frequent", 400_000, 40_000),
        ("long-rare", 1_000_000, 120_000),
        ("mid", 600_000, 60_000),
        ("tight", 300_000, 30_000),
    ];
    let mut cells = 0usize;
    let mut failovers = 0u64;
    let mut repairs = 0u64;
    for (geo, period, duration) in geometries {
        for plan_seed in 0..4u64 {
            for seed in [5u64, 13, 23, 31] {
                let label = format!("replicated/{geo}/pseed={plan_seed}");
                let node_faults = (0..REPLICA_NODES)
                    .map(|i| {
                        FaultPlan::staggered_node_crash(
                            0x5EED ^ plan_seed,
                            i,
                            REPLICA_NODES,
                            period,
                            duration,
                        )
                    })
                    .collect();
                let system = SystemConfig::mage_lib().with_replication(ReplicationConfig {
                    repair_poll_ns: 10_000,
                    node_faults,
                });
                let run = chaos_run(system, seed, false, &label);
                let s = run.engine.stats();
                assert_eq!(
                    s.aborted_faults.get(),
                    0,
                    "[{label} seed={seed}] a fault-in aborted despite replication"
                );
                assert_eq!(
                    run.failed_accesses, 0,
                    "[{label} seed={seed}] an access failed despite replication"
                );
                failovers += s.failover_reads.get();
                repairs += run
                    .engine
                    .backend()
                    .replication_stats()
                    .expect("replicated backend exposes repair stats")
                    .rereplicated_pages
                    .get();
                cells += 1;
            }
        }
    }
    assert!(cells >= 64, "sweep shrank to {cells} cells");
    assert!(
        failovers > 0,
        "no read ever failed over across {cells} cells"
    );
    assert!(
        repairs > 0,
        "no page was ever re-replicated across {cells} cells"
    );
}

/// Zero-amplitude plans take the clean fast path: no retries, no
/// failures, no requeues, regardless of the plan seed.
#[test]
fn inactive_plan_is_noise_free() {
    let plan = FaultPlan {
        seed: 0xABCD,
        ..FaultPlan::none()
    };
    let run = chaos_run(SystemConfig::mage_lib().with_faults(plan), 3, false, "inactive");
    let s = run.engine.stats();
    assert_eq!(s.transfer_retries.get(), 0, "clean link must not retry");
    assert_eq!(s.requeued_victims.get(), 0, "clean link must not requeue");
    assert_eq!(run.failed_accesses, 0, "clean link must not fail accesses");
}

//! Integration tests for the engine's configuration seams. Every victim
//! selection policy preset (`EvictionPolicyKind::BUILT_IN`, FIFO's
//! evict-everything rule included) must run the full engine end-to-end
//! while preserving the safety invariants the default configuration
//! guarantees. The far memory backend is one concrete type whose shapes
//! are config data (slot placement, link model, replication); every
//! shape a config can build is held to the same invariants, and the
//! goldens pin the default, baseline and replicated schedules.

use std::rc::Rc;

use mage_check::{check_invariants, CheckCtx};
use mage_far_memory::mmu::{Topology, Vma};
use mage_far_memory::prelude::*;
use mage_far_memory::workloads::runner::{run_batch, RunConfig, RunReport};
use mage_far_memory::workloads::WorkloadKind;

fn launch(system: SystemConfig, seed: u64) -> (Simulation, Rc<FarMemory>, Vma) {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 512,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(1_024);
    engine.populate(&vma);
    (sim, engine, vma)
}

/// Two rounds over the working set, forcing heavy eviction traffic.
fn churn(sim: &Simulation, engine: &Rc<FarMemory>, vma: &Vma) {
    let e = Rc::clone(engine);
    let vma = vma.clone();
    sim.block_on(async move {
        for round in 0..2 {
            for i in 0..vma.pages {
                e.access(CoreId((i % 4) as u32), vma.start_vpn + i, round == 0)
                    .await;
            }
        }
    });
    engine.shutdown();
}

/// What every configuration must uphold after churn: the invariant list
/// mage-check runs, eviction progress, and enough churn to matter.
fn assert_safe(engine: &Rc<FarMemory>, vma: &Vma, label: &str) {
    let ctx = CheckCtx {
        engine,
        vma,
        local_pages: 512,
    };
    if let Err(v) = check_invariants(&ctx) {
        panic!("{label}: {v}");
    }
    let s = engine.stats();
    assert!(s.evicted_pages.get() > 0, "{label}: no eviction progress");
    assert!(
        s.major_faults.get() > vma.pages / 4,
        "{label}: churn produced too few faults"
    );
}

/// Every shipped eviction policy drives the engine end-to-end under the
/// same seed and upholds the same invariants (policy parity).
#[test]
fn every_policy_preserves_invariants() {
    for kind in EvictionPolicyKind::BUILT_IN {
        let system = SystemConfig::mage_lib().with_eviction_policy(kind);
        let (sim, engine, vma) = launch(system, 21);
        assert_eq!(engine.eviction_policy().name(), kind.name());
        churn(&sim, &engine, &vma);
        assert_safe(&engine, &vma, kind.name());
        assert_eq!(
            engine.stats().sync_evictions.get(),
            0,
            "{}: MAGE P1 must hold for every policy",
            kind.name()
        );
    }
}

/// S3-FIFO's ghost-hit admission belongs to the policy, not the preset:
/// on every preset (MAGE-Lnx's FIFO one included) a page that faults back
/// while on the ghost list lands on the protected list exactly when the
/// policy is S3-FIFO, and on probation under every other policy.
#[test]
fn ghost_hit_promotion_follows_the_policy_on_every_preset() {
    let presets = [
        SystemConfig::mage_lib,
        SystemConfig::mage_lnx,
        SystemConfig::hermit,
        SystemConfig::dilos,
        SystemConfig::ideal,
    ];
    for preset in presets {
        for kind in EvictionPolicyKind::BUILT_IN {
            let system = preset().with_eviction_policy(kind);
            let label = format!("{} + {}", system.name, kind.name());
            let (sim, engine, vma) = launch(system, 21);
            let promotes = kind.name() == "s3-fifo";
            assert_eq!(engine.eviction_policy().promotes_ghost_hits(), promotes, "{label}");
            churn(&sim, &engine, &vma);
            sim.run(); // the evictors see the shutdown and exit
            let acct = engine.accounting();
            let vpn = (0..vma.pages)
                .map(|i| vma.start_vpn + i)
                .find(|&v| {
                    let pte = engine.page_table().get(v);
                    acct.ghost_contains(v) && pte.is_remote() && !pte.locked()
                })
                .unwrap_or_else(|| panic!("{label}: no evicted page left on the ghost list"));
            let e = Rc::clone(&engine);
            let refault = sim.block_on(async move { e.access(CoreId(0), vpn, false).await });
            assert!(matches!(refault, Access::Major { .. }), "{label}: {refault:?}");
            let snap = acct.queues_snapshot();
            let protected = snap.iter().any(|(_, p)| p.contains(&vpn));
            let probation = snap.iter().any(|(p, _)| p.contains(&vpn));
            assert_eq!(
                (protected, probation),
                (promotes, !promotes),
                "{label}: ghost hit {vpn:#x} on the wrong list"
            );
        }
    }
}

/// Same seed, same accesses: a policy swap changes *which* pages are
/// evicted but never the total amount of work the application observes.
#[test]
fn policy_swap_conserves_accesses() {
    let mut totals = Vec::new();
    for kind in [EvictionPolicyKind::SecondChance, EvictionPolicyKind::Fifo] {
        let system = SystemConfig::mage_lib().with_eviction_policy(kind);
        let (sim, engine, vma) = launch(system, 21);
        churn(&sim, &engine, &vma);
        totals.push(engine.stats().accesses.get());
    }
    assert_eq!(totals[0], totals[1], "access count is policy-independent");
}

/// Every backend shape a config can build — direct-mapped slots,
/// Hermit's swap slots and replicated slots — drives the engine
/// end-to-end and upholds the invariants.
#[test]
fn backend_swap_preserves_invariants() {
    for (label, system) in [
        ("direct map", SystemConfig::mage_lib()),
        ("swap slots", SystemConfig::hermit()),
        (
            "replicated",
            SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        ),
    ] {
        let (sim, engine, vma) = launch(system, 33);
        churn(&sim, &engine, &vma);
        assert_safe(&engine, &vma, label);
    }
}

/// Swap-slot placement (Hermit's `SwapLock` allocator) forces writebacks
/// for clean pages; under the same run the direct-map placement of
/// MAGE-Lib reclaims clean pages for free.
#[test]
fn disagg_tier_rewrites_clean_pages() {
    let mut clean_reclaims = Vec::new();
    for system in [SystemConfig::mage_lib(), SystemConfig::hermit()] {
        let (sim, engine, vma) = launch(system, 5);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            // Read-only traffic: pages stay clean after their first
            // writeback, so direct mapping can skip re-writing them.
            for round in 0..3 {
                let _ = round;
                for i in 0..vma.pages {
                    e.access(CoreId((i % 4) as u32), vma.start_vpn + i, false).await;
                }
            }
        });
        engine.shutdown();
        let s = engine.stats();
        clean_reclaims.push((s.clean_reclaims.get(), s.writebacks.get()));
    }
    assert!(
        clean_reclaims[0].0 > 0,
        "direct mapping must reclaim clean pages without writes"
    );
    assert_eq!(
        clean_reclaims[1].0, 0,
        "a fresh swap slot per eviction: every eviction writes"
    );
    assert!(clean_reclaims[1].1 > 0, "Hermit's evictions write back");
}

/// MAGE-Lib on an all-remote sequential storm and Hermit on GUPS: the
/// two configurations pinned since before the fault-injection layer.
fn pre_fault_layer_configs() -> [RunConfig; 2] {
    let mut a = RunConfig::new(SystemConfig::mage_lib(), WorkloadKind::SeqFault, 2, 2048, 0.5);
    a.all_remote = true;
    a.ops_per_thread = 1024;
    a.seed = 0xA11CE;
    let mut b = RunConfig::new(SystemConfig::hermit(), WorkloadKind::Gups, 4, 2048, 0.5);
    b.ops_per_thread = 500;
    b.seed = 7;
    [a, b]
}

/// MAGE-Lnx on a random graph: its FIFO queues skip the accessed-bit
/// recheck.
fn mage_lnx_config() -> RunConfig {
    let mut c = RunConfig::new(SystemConfig::mage_lnx(), WorkloadKind::RandomGraph, 8, 16_384, 0.5);
    c.ops_per_thread = 4_000;
    c.warmup_ops = 1_000;
    c.seed = 7;
    c
}

/// The pinned schedule of one run, executor polls included.
type Golden = (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64);

fn golden(r: &RunReport) -> Golden {
    (
        r.runtime_ns,
        r.total_ops,
        r.major_faults,
        r.window.fault_latency.p50(),
        r.fault_p99_ns,
        r.evicted_pages(),
        r.sync_evictions,
        r.window.evict_cancels,
        r.window.fault_latency.mean().to_bits(),
        r.executor_polls,
    )
}

/// Zero-fault parity: with the default `FaultPlan::none()` the fault
/// layer must be bit-invisible. Any drift means the clean path now
/// consumes RNG draws, schedules extra events, or awaits differently
/// than it used to.
#[test]
fn zero_fault_path_matches_pre_fault_layer_golden_values() {
    let [a, b] = pre_fault_layer_configs();
    let ra = run_batch(&a);
    assert_eq!(
        golden(&ra),
        (5_399_201, 2_048, 2_048, 5_119, 9_471, 1_965, 0, 0, 4_662_425_805_895_237_632, 7_120),
        "mage_lib/SeqFault drifted from the pinned schedule"
    );
    let rb = run_batch(&b);
    assert_eq!(
        golden(&rb),
        (1_107_271, 2_000, 521, 7_679, 14_335, 411, 0, 100, 4_664_721_221_370_764_447, 3_892),
        "hermit/Gups drifted from the pinned schedule"
    );

    // And the fault-layer counters must read zero on a clean link.
    assert_eq!(ra.window.transfer_retries + rb.window.transfer_retries, 0);
    assert_eq!(ra.window.transfer_failures + rb.window.transfer_failures, 0);
    assert_eq!(ra.window.aborted_faults + rb.window.aborted_faults, 0);
    assert_eq!(ra.window.requeued_victims + rb.window.requeued_victims, 0);

    // The ghost-feedback counters are measurement-only on the default
    // path: they must flow into the report (hermit/Gups cancels 100
    // evictions, each a ghost hit) without having moved the pinned
    // schedules above.
    assert!(rb.window.re_faults > 0, "hermit/Gups churn must observe re-faults");
    assert!(ra.window.ghost_hits >= ra.window.re_faults, "re-faults are ghost hits");
    assert!(rb.window.ghost_hits >= rb.window.re_faults, "re-faults are ghost hits");
}

/// MAGE-Lnx golden: its FIFO queues (no accessed-bit recheck) must keep
/// this schedule, executor polls included, whatever the representation
/// of the victim-selection path.
#[test]
fn mage_lnx_matches_golden_values() {
    assert_eq!(
        golden(&run_batch(&mage_lnx_config())),
        (5_886_970, 32_000, 6_186, 6_271, 7_167, 5_894, 0, 250, 4_663_429_976_240_861_768, 28_635),
        "mage_lnx/RandomGraph drifted from the pinned schedule"
    );
}

/// The exact schedule stays under test: with `run_ahead_ns = 0` every
/// sleep yields and the three runs above reproduce, executor polls
/// included, the values pinned before task clocks could run ahead.
#[test]
fn exact_schedule_matches_pre_run_ahead_golden_values() {
    let exact = |mut cfg: RunConfig| {
        cfg.system.costs.run_ahead_ns = 0;
        golden(&run_batch(&cfg))
    };
    let [a, b] = pre_fault_layer_configs();
    assert_eq!(
        exact(a),
        (5_396_662, 2_048, 2_048, 5_119, 9_471, 1_964, 0, 0, 4_662_422_839_683_448_832, 22_807),
        "mage_lib/SeqFault drifted from the exact schedule"
    );
    assert_eq!(
        exact(b),
        (1_110_675, 2_000, 521, 7_807, 15_359, 410, 0, 101, 4_664_748_314_519_089_569, 10_868),
        "hermit/Gups drifted from the exact schedule"
    );
    assert_eq!(
        exact(mage_lnx_config()),
        (5_885_292, 32_000, 6_170, 6_271, 6_655, 5_939, 0, 205, 4_663_460_517_660_057_974, 129_877),
        "mage_lnx/RandomGraph drifted from the exact schedule"
    );
}

/// Replicated-path golden: the replica routing, mirrored writes,
/// failover reads and background repairs must keep this schedule. Two
/// runs under two memory nodes with staggered, disjoint crash windows
/// (the geometry of `tests/determinism.rs`'s replicated sweep): MAGE-Lib
/// over direct-mapped slots, and Hermit, whose swap slots are untracked
/// on release and whose clean pages are written on every eviction.
#[test]
fn replicated_path_matches_golden_values() {
    let run = |preset: fn() -> SystemConfig| {
        let plans = (0..REPLICA_NODES)
            .map(|i| FaultPlan::staggered_node_crash(0xFA417, i, REPLICA_NODES, 400_000, 40_000))
            .collect();
        let mut system = preset()
            .with_replication(ReplicationConfig {
                repair_poll_ns: 10_000,
                node_faults: plans,
            })
            .with_max_retries(2);
        system.prefetch = PrefetchPolicy::None;
        let mut cfg = RunConfig::new(system, WorkloadKind::Gups, 2, 2048, 0.5);
        cfg.ops_per_thread = 500;
        cfg.seed = 13;
        let r = run_batch(&cfg);
        (
            r.runtime_ns,
            r.major_faults,
            r.window.failover_reads,
            r.window.rereplicated_pages,
            r.window.writebacks,
            r.window.transfer_retries,
            r.executor_polls,
            r.degraded_pages,
        )
    };
    let lib = run(SystemConfig::mage_lib);
    let hermit = run(SystemConfig::hermit);
    for (label, got) in [("mage_lib", lib), ("hermit", hermit)] {
        assert!(got.2 > 0, "{label}: the run must exercise failover reads");
        assert!(got.3 > 0, "{label}: the run must exercise background repairs");
    }
    assert_eq!(
        lib,
        (758_561, 456, 6, 2_638, 895, 7, 1_660, 0),
        "mage_lib replicated schedule drifted"
    );
    assert_eq!(
        hermit,
        (1_221_099, 316, 10, 4_480, 320, 8, 3_258, 1_491),
        "hermit replicated schedule drifted"
    );
}

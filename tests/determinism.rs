//! End-to-end determinism: a scaled-down fig05-style sweep run twice
//! with the same seed must produce bit-identical statistics, and a
//! different seed must produce different ones. This is the property the
//! whole evaluation rests on (and the one the determinism lint and the
//! deterministic executor exist to protect). Runs compare by their
//! reports: every `metrics!` row of the window plus the per-run values
//! and end-of-run gauges, all integers, so equal reports mean
//! bit-identical runs.

use mage::{EvictionPolicyKind, PrefetchPolicy, ReplicationConfig, SystemConfig, REPLICA_NODES};
use mage_fabric::FaultPlan;
use mage_workloads::runner::{run_batch, RunConfig, RunReport};
use mage_workloads::WorkloadKind;

/// Scaled-down fig05 sweep: three systems × two thread counts, with and
/// without eviction pressure.
fn sweep(seed: u64) -> Vec<RunReport> {
    let mut out = Vec::new();
    for system in [
        SystemConfig::hermit(),
        SystemConfig::dilos(),
        SystemConfig::mage_lib(),
    ] {
        for threads in [2usize, 4] {
            for local_ratio in [1.0f64, 0.5] {
                let mut s = system.clone();
                s.prefetch = PrefetchPolicy::None;
                let wss = 2048u64;
                let mut cfg =
                    RunConfig::new(s, WorkloadKind::SeqFault, threads, wss, local_ratio);
                cfg.all_remote = true;
                cfg.ops_per_thread = wss / threads as u64;
                cfg.seed = seed;
                out.push(run_batch(&cfg));
            }
        }
    }
    // SeqFault is a deterministic access stream regardless of seed; add
    // one zipfian GUPS run so the sweep is also seed-sensitive.
    let mut cfg = RunConfig::new(SystemConfig::mage_lib(), WorkloadKind::Gups, 2, 2048, 0.5);
    cfg.ops_per_thread = 1000;
    cfg.seed = seed;
    out.push(run_batch(&cfg));
    out
}

#[test]
fn same_seed_is_bit_identical() {
    let a = sweep(0xDEAD_BEEF);
    let b = sweep(0xDEAD_BEEF);
    assert_eq!(a, b, "same seed must reproduce every statistic bit-for-bit");
}

#[test]
fn different_seeds_differ() {
    // A randomized workload's statistics must actually depend on the
    // seed; identical reports would mean the seed is ignored.
    let a = sweep(1);
    let b = sweep(2);
    assert_ne!(a, b, "different seeds must perturb the statistics");
}

/// One faulty-link sweep: two systems under a degraded link plus a
/// crash-window plan. The fault plan's own seed is a parameter so both
/// halves of the determinism contract can be pinned.
fn faulty_sweep(fault_seed: u64) -> Vec<RunReport> {
    let mut out = Vec::new();
    for system in [SystemConfig::mage_lib(), SystemConfig::hermit()] {
        for plan in [
            FaultPlan::degraded_link(fault_seed),
            FaultPlan {
                seed: fault_seed,
                error_rate: 0.2,
                crash_period_ns: 500_000,
                crash_duration_ns: 50_000,
                crash_rate: 0.5,
                ..FaultPlan::none()
            },
        ] {
            let mut s = system.clone().with_faults(plan);
            s.prefetch = PrefetchPolicy::None;
            let mut cfg = RunConfig::new(s, WorkloadKind::Gups, 2, 2048, 0.5);
            cfg.ops_per_thread = 500;
            cfg.seed = 13;
            out.push(run_batch(&cfg));
        }
    }
    out
}

#[test]
fn same_fault_plan_is_bit_identical() {
    // Injected errors, spikes, brownouts and crash windows must all be
    // functions of the fault seed alone: the whole chaos methodology
    // (replay a failing seed) rests on this.
    let a = faulty_sweep(0xFA417);
    let b = faulty_sweep(0xFA417);
    assert_eq!(
        a, b,
        "same fault seed must reproduce every statistic bit-for-bit"
    );
}

#[test]
fn different_fault_seeds_diverge() {
    // The injector must actually consume its seed: identical reports
    // under different fault seeds would mean faults are not injected or
    // not seeded.
    let a = faulty_sweep(0xFA417);
    let b = faulty_sweep(0xFA418);
    assert_ne!(a, b, "different fault seeds must perturb the statistics");
}

/// One replicated sweep: MAGE-Lib on a two-node replicated
/// [`FarBackend`](mage::FarBackend) under staggered per-node crash plans,
/// two outage geometries (the reports carry the failover and
/// re-replication counters). Returns the reports plus the total failovers
/// and repairs so the tests can also pin that the counters were genuinely
/// exercised.
fn replicated_sweep(fault_seed: u64) -> (Vec<RunReport>, u64, u64) {
    let mut out = Vec::new();
    let (mut failovers, mut repairs) = (0u64, 0u64);
    for (period, duration) in [(400_000u64, 40_000u64), (600_000, 60_000)] {
        let plans = (0..REPLICA_NODES)
            .map(|i| {
                // Aligned staggered windows are a pure function of the
                // geometry (rate 1.0 never consults the seed), so the
                // sweep folds the fault seed into the phase: both nodes
                // shift together, outages stay disjoint, and a different
                // seed genuinely moves every outage window.
                let mut p =
                    FaultPlan::staggered_node_crash(fault_seed, i, REPLICA_NODES, period, duration);
                p.crash_phase_ns = p.crash_phase_ns.wrapping_add((fault_seed % 97) * 1_000);
                p
            })
            .collect();
        let mut s = SystemConfig::mage_lib()
            .with_replication(ReplicationConfig {
                repair_poll_ns: 10_000,
                node_faults: plans,
            })
            .with_max_retries(2);
        s.prefetch = PrefetchPolicy::None;
        let mut cfg = RunConfig::new(s, WorkloadKind::Gups, 2, 2048, 0.5);
        cfg.ops_per_thread = 500;
        cfg.seed = 13;
        let report = run_batch(&cfg);
        failovers += report.window.failover_reads;
        repairs += report.window.rereplicated_pages;
        out.push(report);
    }
    (out, failovers, repairs)
}

#[test]
fn replicated_sweep_same_fault_seed_is_bit_identical() {
    // Node crashes, monitor-lag failovers and background repairs must all
    // be functions of the fault seed alone — including the new counters,
    // which ride in the reports.
    let (a, failovers, repairs) = replicated_sweep(0xFA417);
    let (b, _, _) = replicated_sweep(0xFA417);
    assert_eq!(
        a, b,
        "same fault seed must reproduce every replicated statistic bit-for-bit"
    );
    assert!(
        repairs > 0,
        "the sweep must exercise background re-replication"
    );
    assert!(
        failovers + repairs > 0,
        "the sweep must exercise the replication machinery"
    );
}

#[test]
fn replicated_sweep_different_fault_seeds_diverge() {
    // The per-node crash plans must actually consume their seed: the
    // outage windows (and hence failovers and repairs) move with it.
    let (a, _, _) = replicated_sweep(0xFA417);
    let (b, _, _) = replicated_sweep(0xFA418);
    assert_ne!(
        a, b,
        "different fault seeds must perturb the replicated statistics"
    );
}

#[test]
fn every_eviction_policy_is_bit_deterministic() {
    // The policy zoo must uphold the same-seed contract: per policy,
    // two runs agree bit-for-bit, and policies genuinely diverge from
    // one another on a workload with eviction pressure.
    let run = |kind: EvictionPolicyKind, seed: u64| {
        let system = SystemConfig::mage_lib().with_eviction_policy(kind);
        let mut cfg = RunConfig::new(system, WorkloadKind::Gups, 4, 4096, 0.5);
        cfg.ops_per_thread = 1500;
        cfg.seed = seed;
        run_batch(&cfg)
    };
    let mut reports = Vec::new();
    for kind in EvictionPolicyKind::BUILT_IN {
        let a = run(kind, 11);
        let b = run(kind, 11);
        assert_eq!(a, b, "{}: same seed must be bit-identical", kind.name());
        assert_ne!(
            a,
            run(kind, 12),
            "{}: different seeds must perturb the statistics",
            kind.name()
        );
        reports.push((kind.name(), a));
    }
    for (i, (name_a, da)) in reports.iter().enumerate() {
        for (name_b, db) in reports.iter().skip(i + 1) {
            assert_ne!(
                da, db,
                "{name_a} and {name_b} produced identical reports — the \
                 policy knob is not reaching the engine"
            );
        }
    }
}

#[test]
fn random_access_workload_is_deterministic_too() {
    // SeqFault barely consults the RNG; also pin down a random-access
    // workload (GUPS, zipfian updates) where per-op RNG draws drive the
    // access stream.
    let run = |seed: u64| {
        let mut cfg = RunConfig::new(
            SystemConfig::mage_lib(),
            WorkloadKind::Gups,
            4,
            4096,
            0.5,
        );
        cfg.ops_per_thread = 2000;
        cfg.seed = seed;
        run_batch(&cfg)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

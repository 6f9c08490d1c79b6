//! Figure 4: sequential-scan throughput for Hermit and DiLOS, with and
//! without prefetching, against their ideal baselines (48 threads).
//!
//! Paper shape: prefetching cuts major faults by 27–44% at 10%
//! offloading, yet throughput barely moves — the fault-in path is
//! bottlenecked by the shortage of free pages, and Hermit even regresses
//! due to synchronous eviction triggered by prefetch pressure.

use mage::{PrefetchPolicy, SystemConfig};
use mage_bench::{f2, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn run(system: SystemConfig, far_pct: u32) -> mage_workloads::runner::RunReport {
    let mut cfg = RunConfig::new(
        system,
        WorkloadKind::SeqScan,
        scale::THREADS,
        scale::APP_WSS,
        1.0 - far_pct as f64 / 100.0,
    );
    cfg.ops_per_thread = scale::APP_OPS;
    cfg.warmup_ops = 1_024;
    run_batch(&cfg)
}

fn main() {
    let mut exp = Experiment::new(
        "fig04",
        "Sequential scan (48T): Hermit/DiLOS with and without prefetch, % of all-local",
        &[
            "far_mem_pct",
            "ideal",
            "hermit",
            "hermit_prefetch",
            "dilos",
            "dilos_prefetch",
        ],
    );
    let mk = |prefetch: bool, base: SystemConfig| {
        let mut s = base;
        if !prefetch {
            s.prefetch = PrefetchPolicy::None;
        }
        s
    };
    let systems = [
        SystemConfig::ideal(),
        mk(false, SystemConfig::hermit()),
        mk(true, SystemConfig::hermit()),
        mk(false, SystemConfig::dilos()),
        mk(true, SystemConfig::dilos()),
    ];
    let mut base = [0.0f64; 5];
    let mut fault_note = Vec::new();
    for far_pct in [0u32, 10, 20, 30, 50, 70] {
        let mut cells = vec![far_pct.to_string()];
        for (i, system) in systems.iter().enumerate() {
            let r = run(system.clone(), far_pct);
            if far_pct == 0 {
                base[i] = r.mops();
            }
            if far_pct == 10 {
                fault_note.push((i, r.major_faults, r.window.prefetches));
            }
            cells.push(f2(100.0 * r.mops() / base[i]));
        }
        exp.row(cells);
    }
    exp.finish();
    println!("major faults at 10% offloading (prefetching cuts faults, not stalls):");
    let names = ["ideal", "hermit", "hermit+pf", "dilos", "dilos+pf"];
    for (i, faults, prefetched) in fault_note {
        println!(
            "  {:<10} faults={faults:<8} prefetched={prefetched}",
            names[i]
        );
    }
}

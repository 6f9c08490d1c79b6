//! Figure 10: sequential scan under MAGE-Lib with and without
//! prefetching, vs. DiLOS, Hermit and the ideal baseline (48 threads).
//!
//! Paper shape: prefetching is only profitable on MAGE — its eviction
//! path sustains the extra fault-in pressure, lifting MAGE-Lib to ~94%
//! of all-local throughput at 10% offloading, while prefetching barely
//! helps DiLOS and actively hurts Hermit.

use mage::SystemConfig;
use mage_bench::{f2, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    let systems = [
        ("ideal", SystemConfig::ideal()),
        ("magelib", {
            let mut s = SystemConfig::mage_lib();
            s.prefetch = mage::PrefetchPolicy::None;
            s
        }),
        ("magelib_prefetch", SystemConfig::mage_lib().with_prefetch()),
        ("dilos_prefetch", SystemConfig::dilos()),
        ("hermit_prefetch", SystemConfig::hermit()),
    ];
    let mut exp = Experiment::new(
        "fig10",
        "Sequential scan (48T): MAGE-Lib +/- prefetch vs others, % of all-local",
        &[
            "far_mem_pct",
            "ideal",
            "magelib",
            "magelib_prefetch",
            "dilos_prefetch",
            "hermit_prefetch",
        ],
    );
    let mut base = vec![0.0f64; systems.len()];
    let mut notes = Vec::new();
    for far_pct in [0u32, 10, 20, 30, 50] {
        let mut cells = vec![far_pct.to_string()];
        for (i, (name, system)) in systems.iter().enumerate() {
            let mut cfg = RunConfig::new(
                system.clone(),
                WorkloadKind::SeqScan,
                scale::THREADS,
                scale::APP_WSS,
                1.0 - far_pct as f64 / 100.0,
            );
            cfg.ops_per_thread = scale::APP_OPS;
            cfg.warmup_ops = 1_024;
            let r = run_batch(&cfg);
            if far_pct == 0 {
                base[i] = r.mops();
            }
            if far_pct == 10 {
                let w = &r.window;
                notes.push((*name, r.major_faults, w.prefetches, w.fault_latency.mean()));
            }
            cells.push(f2(100.0 * r.mops() / base[i]));
        }
        exp.row(cells);
    }
    exp.finish();
    println!("at 10% offloading:");
    for (name, faults, prefetches, mean) in notes {
        println!(
            "  {name:<18} faults={faults:<8} prefetched={prefetches:<8} mean_fault={:.1}us",
            mean / 1e3
        );
    }
}

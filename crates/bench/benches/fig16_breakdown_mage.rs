//! Figure 16: per-fault latency breakdown of DiLOS vs. the MAGE variants
//! at 24 and 48 threads.
//!
//! Paper shape: MAGE-Lib eliminates TLB time from the fault path
//! entirely, cuts page accounting from ~2.1 µs to ~0.2 µs (partitioned
//! lists) and memory circulation from ~2.4 µs to ~0.5 µs (multi-layer
//! allocator), landing at a sub-10 µs average fault.

use mage::SystemConfig;
use mage_bench::{f1, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    let mut exp = Experiment::new(
        "fig16",
        "Per-fault latency breakdown (us): DiLOS vs MAGE variants",
        &[
            "system",
            "threads",
            "rdma",
            "tlb_flush",
            "accounting",
            "circulation",
            "others",
            "total",
        ],
    );
    for system in [
        SystemConfig::dilos(),
        SystemConfig::mage_lib(),
        SystemConfig::mage_lnx(),
    ] {
        for threads in [24usize, 48] {
            let mut s = system.clone();
            s.prefetch = mage::PrefetchPolicy::None;
            let name = s.name;
            let mut cfg = RunConfig::new(s, WorkloadKind::SeqFault, threads, scale::STORM_WSS, 0.5);
            cfg.all_remote = true;
            cfg.ops_per_thread = scale::STORM_WSS / threads as u64;
            let r = run_batch(&cfg);
            let b = r.window.breakdown_means();
            exp.row(vec![
                name.to_string(),
                threads.to_string(),
                f1(b.rdma / 1e3),
                f1(b.tlb / 1e3),
                f1(b.accounting / 1e3),
                f1(b.circulation / 1e3),
                f1(b.other / 1e3),
                f1(b.total() / 1e3),
            ]);
        }
    }
    exp.finish();
}

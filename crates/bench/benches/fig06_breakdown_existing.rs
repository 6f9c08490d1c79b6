//! Figure 6: fault-handler latency breakdown for Hermit and DiLOS at 24
//! and 48 threads under active eviction.
//!
//! Paper shape: at 48 threads, synchronous-eviction TLB flushes and page
//! accounting dominate; the RDMA read itself (≈3.9 µs) stops being the
//! main cost.

use mage::SystemConfig;
use mage_bench::{f1, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    let mut exp = Experiment::new(
        "fig06",
        "Per-fault latency breakdown (us): seq read with eviction",
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
    for system in [SystemConfig::hermit(), SystemConfig::dilos()] {
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

//! Figure 14: maximum fault-path throughput — p99 latency of sequential
//! reads and the number of synchronous evictions, 48 threads, 30% local
//! memory, prefetching disabled.
//!
//! Paper shape: MAGE-Lib utilizes 94% of the RDMA bandwidth (3.1× DiLOS,
//! 7.1× Hermit) with p99 dropping from 255 µs (Hermit) and 82 µs (DiLOS)
//! to 12 µs; MAGE performs zero synchronous evictions.

use mage::SystemConfig;
use mage_bench::{f1, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    let mut exp = Experiment::new(
        "fig14",
        "Seq-read fault storm, 30% local, 48T: bandwidth, latency, sync evictions",
        &[
            "system",
            "read_gbps",
            "fault_mops",
            "p50_us",
            "p99_us",
            "sync_evictions",
            "evict_cancels",
        ],
    );
    for system in [
        SystemConfig::mage_lib(),
        SystemConfig::mage_lnx(),
        SystemConfig::dilos(),
        SystemConfig::hermit(),
    ] {
        let mut s = system;
        s.prefetch = mage::PrefetchPolicy::None;
        let name = s.name;
        let mut cfg = RunConfig::new(
            s,
            WorkloadKind::SeqFault,
            scale::THREADS,
            scale::STORM_WSS,
            0.3,
        );
        cfg.all_remote = true;
        cfg.ops_per_thread = scale::STORM_WSS / scale::THREADS as u64;
        let r = run_batch(&cfg);
        exp.row(vec![
            name.to_string(),
            f1(r.read_gbps()),
            format!("{:.2}", r.fault_mops()),
            f1(r.window.fault_latency.p50() as f64 / 1e3),
            f1(r.fault_p99_ns as f64 / 1e3),
            r.sync_evictions.to_string(),
            r.window.evict_cancels.to_string(),
        ]);
    }
    exp.finish();
    println!("practical link ceiling: 192 Gbps (24 B/ns); MAGE-Lnx is capped at 139 Gbps by its kernel RDMA stack");
}

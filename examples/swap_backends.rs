//! Swap-backend comparison: the same MAGE engine over RDMA far memory,
//! an NVMe SSD and compressed RAM (zswap-like).
//!
//! The paper's conclusion (§8) notes that MAGE's OS-level optimizations
//! apply to any fast swap backend. This example runs the same workload
//! over each backend and shows how backend latency/bandwidth moves the
//! throughput and fault tails, while the paging-path behaviour (zero
//! synchronous evictions, pipelined writeback) stays identical.
//!
//! [`SystemConfig::with_backend`]`(NicConfig)` is how a backend is
//! swapped: it replaces the link model and keeps the one-sided transfer
//! semantics. The backend's other axes are config data too:
//! `remote_alloc` places slots and `replication` adds replicas.
//!
//! ```sh
//! cargo run --release --example swap_backends
//! ```

use mage_far_memory::fabric::NicConfig;
use mage_far_memory::prelude::*;

fn run_row(name: &str, system: SystemConfig) {
    let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, 16, 49_152, 0.6);
    cfg.ops_per_thread = 6_000;
    cfg.warmup_ops = 2_000;
    let r = run_batch(&cfg);
    println!(
        "{:<14} {:>9.2} {:>9.1} us {:>9.1} us {:>12}",
        name,
        r.mops(),
        r.window.fault_latency.mean() / 1e3,
        r.fault_p99_ns as f64 / 1e3,
        r.sync_evictions
    );
}

fn main() {
    println!("MAGE-Lib over different swap backends, 16 threads, 40% offloaded\n");
    println!(
        "{:<14} {:>9} {:>12} {:>12} {:>12}",
        "backend", "M ops/s", "mean fault", "p99 fault", "sync evicts"
    );
    for (name, nic) in [
        ("RDMA 200G", NicConfig::bluefield2_200g()),
        ("NVMe SSD", NicConfig::nvme_ssd()),
        ("zswap", NicConfig::zswap()),
    ] {
        run_row(name, SystemConfig::mage_lib().with_backend(nic));
    }
    println!("\nExpected shape: throughput ranks RDMA > zswap > NVMe (by");
    println!("access latency); the eviction discipline is backend-independent.");
}

//! Swap-backend comparison: the same MAGE engine over RDMA far memory,
//! an NVMe SSD, compressed RAM (zswap-like), and a disaggregated memory
//! tier behind a switch hop.
//!
//! The paper's conclusion (§8) notes that MAGE's OS-level optimizations
//! apply to any fast swap backend. This example runs the same workload
//! over each backend and shows how backend latency/bandwidth moves the
//! throughput and fault tails, while the paging-path behaviour (zero
//! synchronous evictions, pipelined writeback) stays identical.
//!
//! Two seams are exercised: [`SystemConfig::with_backend`] swaps only the
//! link model (same direct-cabled RDMA semantics), while
//! [`SystemConfig::with_backend_kind`] swaps the whole
//! [`FarBackend`] implementation — the disaggregated tier also changes
//! slot placement (pooled, allocated per eviction) and forces clean-page
//! writebacks.
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
    // Whole-backend swaps: the disaggregated tier adds switch latency and
    // switches to pooled slot placement (clean pages re-written on every
    // eviction), all behind the FarBackend trait.
    for hop_ns in [500, 2_000] {
        run_row(
            &format!("disagg {:.1}us", 2.0 * hop_ns as f64 / 1e3),
            SystemConfig::mage_lib().with_backend_kind(BackendKind::DisaggTier { hop_ns }),
        );
    }
    println!("\nExpected shape: throughput ranks RDMA > zswap > disagg > NVMe (by");
    println!("access latency); the eviction discipline is backend-independent.");
}

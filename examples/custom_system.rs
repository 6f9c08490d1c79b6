//! Build-your-own far-memory system: toggling MAGE's design principles.
//!
//! Starts from the DiLOS-like baseline and applies the paper's three
//! techniques one at a time (the Fig. 17 ablation), printing how each
//! changes throughput on a random-access workload.
//!
//! ```sh
//! cargo run --release --example custom_system
//! ```

use mage_far_memory::palloc::LocalAllocatorKind;
use mage_far_memory::prelude::*;

fn main() {
    let threads = 16;
    let wss: u64 = 65_536;

    // Baseline: DiLOS-style — global LRU, global buddy lock, sequential
    // eviction with synchronous fallback.
    let baseline = SystemConfig::dilos();

    // + P1/P2: always-asynchronous, cross-batch pipelined eviction.
    let mut pipelined = baseline.clone();
    pipelined.name = "+Pipelined";
    pipelined.sync_eviction = false;
    pipelined.pipelined_eviction = true;
    pipelined.eviction_batch = 256;

    // + P3a: partitioned LRU lists.
    let mut partitioned = pipelined.clone();
    partitioned.name = "+LRU-part";
    partitioned.accounting_partitions = 8;

    // + P3b: multi-layer allocator => this is MAGE-Lib.
    let mut multilayer = partitioned.clone();
    multilayer.name = "+MultiLayer";
    multilayer.local_alloc = LocalAllocatorKind::MultiLayer;

    // Victim-selection policy swap on the finished system: the aging
    // CLOCK grants hot pages extra grace rounds (a victim-policy preset
    // selected purely through configuration).
    let mut aging = multilayer
        .clone()
        .with_eviction_policy(EvictionPolicyKind::AgingClock { hot_rounds: 3 });
    aging.name = "+AgingClock";

    // Policy-zoo swap: S3-FIFO's frequency filter also admits ghost hits
    // straight to the protected list (small/main queues + bounded ghost
    // list, DESIGN.md §12), so pages re-faulted shortly after eviction
    // skip probation.
    let mut s3fifo = multilayer
        .clone()
        .with_eviction_policy(EvictionPolicyKind::S3Fifo);
    s3fifo.name = "+S3-FIFO";

    println!("Technique ablation, random access, {threads} threads, 30% offloaded\n");
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>10}",
        "system", "M ops/s", "p99 fault", "sync evicts", "re-faults"
    );
    for system in [baseline, pipelined, partitioned, multilayer, aging, s3fifo] {
        let name = system.name;
        let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, threads, wss, 0.7);
        cfg.ops_per_thread = 6_000;
        let r = run_batch(&cfg);
        println!(
            "{:<14} {:>10.2} {:>9.1} us {:>14} {:>10}",
            name,
            r.mops(),
            r.fault_p99_ns as f64 / 1_000.0,
            r.sync_evictions,
            r.window.re_faults
        );
    }
    println!("\nEach row adds one technique; the paper's Fig. 17 reports the same");
    println!("progression (pipelining buys the most, the two contention-avoidance");
    println!("techniques compound on top). Re-faults count evictions the policy");
    println!("got wrong (a second major fault paid for the same page); every");
    println!("built-in policy across two workloads and three local fractions is");
    println!("`cargo run -p mage-bench --bin paper -- ext_policies`.");
}

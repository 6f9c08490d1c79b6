//! Build-your-own far-memory system: toggling MAGE's design principles.
//!
//! Starts from the DiLOS-like baseline and applies the paper's three
//! techniques one at a time (the Fig. 17 ablation), printing how each
//! changes throughput on a random-access workload. Then swaps each
//! built-in victim policy into the finished system and asserts that
//! every one moves the run away from second chance.
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

    println!("Technique ablation, random access, {threads} threads, 30% offloaded\n");
    println!(
        "{:<14} {:>10} {:>12} {:>14} {:>10}",
        "system", "M ops/s", "p99 fault", "sync evicts", "re-faults"
    );
    for system in [baseline, pipelined, partitioned, multilayer.clone()] {
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
    println!("techniques compound on top).\n");

    // Victim-selection policy swaps on the finished system, each a preset
    // selected purely through configuration. They need a run in which
    // pages are scanned more than once: a working set four times smaller,
    // half of it offloaded, and a warmup so the measured window starts
    // with eviction under way.
    let policy_wss = wss / 4;
    println!("Victim policy on {}, {policy_wss} pages, 50% offloaded\n", multilayer.name);
    println!("{:<14} {:>10} {:>10}", "policy", "M ops/s", "re-faults");
    let mut base = None;
    for policy in EvictionPolicyKind::BUILT_IN {
        let system = multilayer.clone().with_eviction_policy(policy);
        let mut cfg = RunConfig::new(system, WorkloadKind::RandomGraph, threads, policy_wss, 0.5);
        cfg.ops_per_thread = 20_000;
        cfg.warmup_ops = 4_000;
        let r = run_batch(&cfg);
        println!("{:<14} {:>10.2} {:>10}", policy.name(), r.mops(), r.window.re_faults);
        // The first row, second chance, is the base every other policy
        // must visibly move.
        let row = (r.runtime_ns, r.window.re_faults);
        match base {
            None => base = Some(row),
            Some(b) => assert_ne!(row, b, "{} ran exactly like second chance", policy.name()),
        }
    }
    println!("\nRe-faults count evictions the policy got wrong (a second major");
    println!("fault paid for the same page). Every built-in policy across two");
    println!("workloads and three local fractions is");
    println!("`cargo run -p mage-bench --bin paper -- ext_policies`.");
}

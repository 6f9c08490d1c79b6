//! Figure 17: technique breakdown — Baseline (DiLOS-like) → +PIPELINED
//! (P1/P2) → +LRU partitioning (P3a) → +multi-layer allocator (P3b =
//! MAGE-Lib), on GapBS and XSBench across offload ratios.
//!
//! Paper shape: pipelined decoupled eviction delivers the largest single
//! gain (1.58×/1.74× at 20% offloading); partitioned LRU removes ~81% of
//! scan cycles; the multi-layer allocator cuts shared-allocator time by
//! ~93%, each buying additional offloadable memory under a fixed SLO.

use mage::SystemConfig;
use mage_bench::{f2, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn steps() -> Vec<SystemConfig> {
    let baseline = SystemConfig::dilos();

    let mut pipelined = baseline.clone();
    pipelined.name = "+Pipelined";
    pipelined.sync_eviction = false;
    pipelined.pipelined_eviction = true;
    pipelined.eviction_batch = 256;

    let mut partitioned = pipelined.clone();
    partitioned.name = "+LRUpart";
    partitioned.accounting_partitions = 8;

    let mut multilayer = partitioned.clone();
    multilayer.name = "+MultiLayer";
    multilayer.local_alloc = SystemConfig::mage_lib().local_alloc;

    vec![baseline, pipelined, partitioned, multilayer]
}

fn sweep(kind: WorkloadKind, id: &'static str, title: &'static str) {
    let mut exp = Experiment::new(
        id,
        title,
        &[
            "local_pct",
            "Baseline",
            "+Pipelined",
            "+LRUpart",
            "+MultiLayer",
        ],
    );
    let mut base = [0.0f64; 4];
    for local_pct in [100u32, 90, 80, 70, 60, 50] {
        let mut cells = vec![local_pct.to_string()];
        for (i, system) in steps().into_iter().enumerate() {
            let mut cfg = RunConfig::new(
                system,
                kind,
                scale::THREADS,
                scale::APP_WSS,
                local_pct as f64 / 100.0,
            );
            cfg.ops_per_thread = scale::APP_OPS;
            cfg.warmup_ops = scale::APP_OPS / 2;
            let r = run_batch(&cfg);
            if local_pct == 100 {
                base[i] = r.mops();
            }
            cells.push(f2(100.0 * r.mops() / base[i]));
        }
        exp.row(cells);
    }
    exp.finish();
}

fn main() {
    sweep(
        WorkloadKind::RandomGraph,
        "fig17_gapbs",
        "Ablation on GapBS (48T), % of each step's all-local throughput",
    );
    sweep(
        WorkloadKind::XsBench,
        "fig17_xsbench",
        "Ablation on XSBench (48T), % of each step's all-local throughput",
    );
}

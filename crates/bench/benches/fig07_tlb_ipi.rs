//! Figure 7: average TLB-shootdown and per-IPI delivery latency as the
//! application thread count grows (sequential-read microbenchmark).
//!
//! Paper shape: both curves rise with thread count, with an inflection
//! once the application spans the second socket (28 threads) and an "IPI
//! storm" regime at high counts where synchronous evictors queue IPIs at
//! every target (Hermit: per-IPI latency inflates 33× from 1→48 threads).

use mage::SystemConfig;
use mage_bench::{f1, scale, Experiment};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

fn main() {
    let mut exp = Experiment::new(
        "fig07",
        "TLB shootdown and IPI delivery latency (us) vs application threads",
        &[
            "threads",
            "hermit_shootdown",
            "hermit_ipi",
            "dilos_shootdown",
            "dilos_ipi",
        ],
    );
    for threads in [1usize, 2, 4, 8, 16, 24, 28, 32, 40, 48] {
        let mut cells = vec![threads.to_string()];
        for system in [SystemConfig::hermit(), SystemConfig::dilos()] {
            let mut s = system;
            s.prefetch = mage::PrefetchPolicy::None;
            let mut cfg = RunConfig::new(s, WorkloadKind::SeqFault, threads, scale::STORM_WSS, 0.5);
            cfg.all_remote = true;
            cfg.ops_per_thread = scale::STORM_WSS / threads as u64;
            let r = run_batch(&cfg);
            cells.push(f1(r.window.shootdown_latency.mean() / 1e3));
            cells.push(f1(r.window.ipi_latency.mean() / 1e3));
        }
        exp.row(cells);
    }
    exp.finish();
}

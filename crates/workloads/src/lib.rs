//! Workload generators and experiment runners for the MAGE reproduction.
//!
//! Far-memory behaviour is determined by the page-granularity access
//! *pattern* and the compute-per-access ratio, not by the application's
//! arithmetic (DESIGN.md §1), so each of the paper's applications
//! (Table 1) is modeled as an access-stream generator:
//!
//! | paper application | generator | pattern |
//! |---|---|---|
//! | GapBS page rank (Kronecker) | [`WorkloadKind::RandomGraph`] | uniform-random pages, light compute |
//! | XSBench (nuclide grid) | [`WorkloadKind::XsBench`] | uniform-random pages, heavy compute |
//! | Sequential scan (dataframe) | [`WorkloadKind::SeqScan`] | per-thread sequential shards |
//! | GUPS (phase change) | [`WorkloadKind::Gups`] | zipf over 80% region, then a disjoint 20% region |
//! | Metis map/reduce | [`WorkloadKind::Metis`] | sequential map over input + scattered writes, then random reduce |
//! | sequential-read microbench | [`WorkloadKind::SeqFault`] | every access faults (§3.2 setup) |
//!
//! [`runner`] drives the closed-loop batch experiments; [`memcached`]
//! implements the open-loop latency-critical service of §6.3.

pub mod memcached;
pub mod patterns;
pub mod runner;

pub use patterns::{Op, Stream, WorkloadKind, Zipf};
pub use runner::{run_batch, RunConfig, RunReport};

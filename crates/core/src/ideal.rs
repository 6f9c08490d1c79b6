//! The analytic "ideal" far-memory model of §3.1.
//!
//! The ideal system incurs only data-movement costs: each major fault
//! adds exactly one best-case RDMA latency `L` to the faulting thread.
//! With per-core fault counts `F_c` and an all-local runtime `T₀`, the
//! job finishes when its busiest thread does:
//!
//! ```text
//! T_ideal(x) = T₀ + L · max_c F_{c,x}
//! Thp_ideal(x) = 3600 / T_ideal(x)   jobs/hour
//! ```
//!
//! [`IdealModel::runtime_ns`] computes `T_ideal`; `tests/end_to_end.rs`
//! checks that every measured system runs no faster than it. The
//! `SystemConfig::ideal()` preset is the executable counterpart: it runs
//! the engine with every software cost zeroed.

use mage_sim::time::Nanos;

/// The analytic ideal model.
#[derive(Clone, Copy, Debug)]
pub struct IdealModel {
    /// Best-case remote access latency `L` (ns); 3.9 µs in the paper.
    pub rdma_latency_ns: Nanos,
}

impl IdealModel {
    /// The paper's testbed latency.
    pub fn paper() -> Self {
        IdealModel {
            rdma_latency_ns: 3_900,
        }
    }

    /// Ideal runtime (ns) of a job given its all-local runtime and the
    /// per-core major-fault counts.
    pub fn runtime_ns(&self, local_runtime_ns: u64, faults_per_core: &[u64]) -> u64 {
        let worst = faults_per_core.iter().copied().max().unwrap_or(0);
        local_runtime_ns + self.rdma_latency_ns * worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_means_local_runtime() {
        let m = IdealModel::paper();
        assert_eq!(m.runtime_ns(1_000_000, &[0, 0]), 1_000_000);
        assert_eq!(m.runtime_ns(1_000_000, &[]), 1_000_000);
    }

    #[test]
    fn slowest_core_sets_the_runtime() {
        let m = IdealModel::paper();
        let rt = m.runtime_ns(1_000_000_000, &[10, 1_000, 100]);
        assert_eq!(rt, 1_000_000_000 + 3_900 * 1_000);
    }
}

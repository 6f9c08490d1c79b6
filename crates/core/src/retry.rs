//! Transfer retry: bounded retries with deterministic exponential backoff
//! and seeded jitter.
//!
//! The fabric reports *what* went wrong ([`TransferError`]); this module
//! decides *what to do about it*. Placement follows the paper's layering:
//! the NIC model stays a pure timing device, while recovery policy lives
//! with the engine that owns the page state being recovered — the fault
//! path can abort a fault cleanly (FP₂ holds only a frame and a PTE
//! lock), and the eviction path can re-insert a victim through the same
//! bookkeeping the refault-cancellation path uses.
//!
//! All jitter is drawn from a [`SplitMix64`] owned by the engine, so a
//! given (machine seed, fault seed) pair replays the exact backoff
//! schedule — chaos failures reproduce from their printed seed.

use mage_fabric::{Completion, TransferError};
use mage_sim::rng::SplitMix64;
use mage_sim::time::Nanos;
use mage_sim::trace::TRACK_RETRY;

use crate::machine::FarMemory;

/// Which transfer direction an operation was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOp {
    /// Fault-in read (remote → local).
    Read,
    /// Eviction writeback (local → remote).
    Write,
}

/// A transfer that remained failed after every configured retry. This is
/// the typed error the engine surfaces instead of panicking; the page
/// state has already been rolled back when a caller sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The failed direction.
    pub op: TransferOp,
    /// Total attempts made (first try + retries).
    pub attempts: u32,
    /// The last transport error observed.
    pub last: TransferError,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} failed after {} attempts: {}",
            self.op, self.attempts, self.last
        )
    }
}

/// First backoff delay, ns; doubles each retry.
pub const BACKOFF_BASE_NS: Nanos = 2_000;
/// Backoff ceiling, ns.
pub const BACKOFF_CAP_NS: Nanos = 200_000;

/// The backoff before retry `attempt` (1-based): exponential from
/// [`BACKOFF_BASE_NS`], capped at [`BACKOFF_CAP_NS`], plus up to 50%
/// seeded jitter. Fully determined by `attempt` and the RNG state.
pub fn backoff_ns(attempt: u32, rng: &SplitMix64) -> Nanos {
    let shift = attempt.saturating_sub(1).min(20);
    let base = BACKOFF_BASE_NS.saturating_mul(1u64 << shift).min(BACKOFF_CAP_NS);
    base + rng.next_below(base / 2 + 1)
}

impl FarMemory {
    /// Posts one page transfer of backend slot `rpn`.
    fn post_transfer(&self, op: TransferOp, rpn: u64) -> Completion {
        match op {
            TransferOp::Read => self.backend.read(rpn),
            TransferOp::Write => self.backend.write(rpn),
        }
    }

    /// Posts one page transfer of backend slot `rpn` and drives it
    /// through the retry policy.
    pub(crate) async fn transfer_with_retry(
        &self,
        op: TransferOp,
        rpn: u64,
    ) -> Result<Nanos, FaultError> {
        let first = self.post_transfer(op, rpn).await;
        self.retry_transfer(op, rpn, first).await
    }

    /// Applies the retry policy to an already-observed first attempt:
    /// bounded re-posts with exponential backoff and seeded jitter. An
    /// `Ok` first attempt returns immediately with no RNG draw and no
    /// await, keeping the fault-free schedule untouched.
    pub(crate) async fn retry_transfer(
        &self,
        op: TransferOp,
        rpn: u64,
        first: Result<Nanos, TransferError>,
    ) -> Result<Nanos, FaultError> {
        let mut last = match first {
            Ok(lat) => return Ok(lat),
            Err(e) => e,
        };
        // Transparent failover: a node-unreachable read on a replicated
        // backend re-routes to a surviving synced replica before any
        // backoff — the crash costs one extra read, not an abort.
        // Without replication the backend answers `None` here without an
        // await or an RNG draw, leaving the fault schedule untouched.
        if last == TransferError::NodeUnreachable && op == TransferOp::Read {
            if let Some(c) = self.backend.failover_read(rpn) {
                if let Ok(lat) = c.await {
                    self.stats.failover_reads.inc();
                    return Ok(lat);
                }
            }
        }
        let max_retries = self.cfg.max_retries;
        let t0 = self.sim.now();
        // Trace spans live on the dedicated retry track and are emitted
        // only on this error path, so a clean run (no active FaultPlan)
        // contains no `retry` events at all.
        let trace_name = match op {
            TransferOp::Read => "read",
            TransferOp::Write => "write",
        };
        for attempt in 1..=max_retries {
            self.stats.transfer_retries.inc();
            self.sim.sleep(backoff_ns(attempt, &self.retry_rng)).await;
            // Re-posting costs CPU like the original post did.
            self.sim.sleep(self.cfg.costs.os.rdma_post_cpu_ns).await;
            match self.post_transfer(op, rpn).await {
                Ok(lat) => {
                    self.stats
                        .retry_latency
                        .record(self.sim.now().saturating_since(t0));
                    self.trace_evt(
                        TRACK_RETRY,
                        "retry",
                        trace_name,
                        t0,
                        Some(("attempts", attempt as u64 + 1)),
                    );
                    return Ok(lat);
                }
                Err(e) => last = e,
            }
        }
        self.stats.transfer_failures.inc();
        self.trace_evt(
            TRACK_RETRY,
            "retry",
            trace_name,
            t0,
            Some(("attempts", max_retries as u64 + 1)),
        );
        Err(FaultError {
            op,
            attempts: max_retries + 1,
            last,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use mage_fabric::FaultPlan;
    use mage_mmu::{CoreId, Topology};
    use mage_sim::rng::SplitMix64;
    use mage_sim::Simulation;

    use super::*;
    use crate::machine::{Access, FarMemory, MachineParams};
    use crate::SystemConfig;

    #[test]
    fn backoff_schedule_is_seed_reproducible() {
        let a = SplitMix64::new(42);
        let b = SplitMix64::new(42);
        let sched_a: Vec<Nanos> = (1..=8).map(|i| backoff_ns(i, &a)).collect();
        let sched_b: Vec<Nanos> = (1..=8).map(|i| backoff_ns(i, &b)).collect();
        assert_eq!(sched_a, sched_b, "same seed, same schedule");

        let c = SplitMix64::new(43);
        let sched_c: Vec<Nanos> = (1..=8).map(|i| backoff_ns(i, &c)).collect();
        assert_ne!(sched_a, sched_c, "different seed must diverge");

        // Exponential shape under the jitter: every delay is in
        // [base·2^(i-1), 1.5·base·2^(i-1)] until the cap bites.
        for (i, &d) in sched_a.iter().enumerate() {
            let lo = (BACKOFF_BASE_NS << i).min(BACKOFF_CAP_NS);
            assert!(d >= lo && d <= lo + lo / 2, "retry {i}: {d} outside [{lo}, 1.5·{lo}]");
        }
    }

    fn failing_machine(plan: FaultPlan, max_retries: u32) -> (Simulation, Rc<FarMemory>, u64) {
        let sim = Simulation::new();
        let cfg = SystemConfig::mage_lib()
            .with_faults(plan)
            .with_max_retries(max_retries);
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 2,
            local_pages: 256,
            remote_pages: 2_048,
            tlb_entries: 64,
            seed: 11,
        };
        let engine = FarMemory::launch(sim.handle(), cfg, params);
        let vma = engine.mmap(64);
        engine.populate_all_remote(&vma);
        (sim, engine, vma.start_vpn)
    }

    #[test]
    fn retry_exhaustion_leaks_nothing() {
        // Every transfer errors; retries are exhausted and the fault
        // aborts. The PTE must be unlocked and still remote, the frame
        // returned to the allocator, and the abort counted.
        let plan = FaultPlan {
            seed: 9,
            error_rate: 1.0,
            ..FaultPlan::none()
        };
        let (sim, engine, vpn) = failing_machine(plan, 2);
        let free_before = engine.allocator().free_frames();
        let e = Rc::clone(&engine);
        let access = sim.block_on(async move { e.access(CoreId(0), vpn, false).await });
        engine.shutdown();
        let Access::Failed { error } = access else {
            panic!("expected a failed access, got {access:?}");
        };
        assert_eq!(error.op, TransferOp::Read);
        assert_eq!(error.attempts, 3);
        assert_eq!(error.last, mage_fabric::TransferError::Cq);
        let pte = engine.page_table().get(vpn);
        assert!(pte.is_remote(), "failed fault must leave the page remote");
        assert!(!pte.locked(), "failed fault must release the page lock");
        assert_eq!(
            engine.allocator().free_frames(),
            free_before,
            "failed fault must return its frame"
        );
        assert_eq!(engine.stats().aborted_faults.get(), 1);
        assert_eq!(engine.stats().transfer_retries.get(), 2);
        assert_eq!(engine.stats().transfer_failures.get(), 1);
        assert_eq!(engine.stats().major_faults.get(), 0, "aborts are not faults");
    }

    #[test]
    fn transient_errors_are_absorbed_by_retries() {
        // 40% error rate with generous retries: accesses must all succeed
        // and the retry counters must show the recovered attempts.
        let plan = FaultPlan {
            seed: 4,
            error_rate: 0.4,
            ..FaultPlan::none()
        };
        let (sim, engine, start_vpn) = failing_machine(plan, 8);
        let e = Rc::clone(&engine);
        sim.block_on(async move {
            for i in 0..64 {
                let a = e.access(CoreId(0), start_vpn + i, false).await;
                assert!(
                    matches!(a, Access::Major { .. }),
                    "page {i}: expected recovery, got {a:?}"
                );
            }
        });
        engine.shutdown();
        assert!(engine.stats().transfer_retries.get() > 0, "errors were injected");
        assert_eq!(engine.stats().aborted_faults.get(), 0);
        assert!(engine.stats().retry_latency.count() > 0);
    }
}

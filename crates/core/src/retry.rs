//! Transfer retry policy: bounded retries with deterministic exponential
//! backoff, seeded jitter and a per-op virtual-time timeout.
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

/// Retry policy for far-memory transfers.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 = fail immediately).
    pub max_retries: u32,
    /// First backoff delay, ns; doubles each retry.
    pub backoff_base_ns: Nanos,
    /// Backoff ceiling, ns.
    pub backoff_cap_ns: Nanos,
    /// Virtual-time budget per attempt, ns; an op whose completion lies
    /// further out is abandoned with [`TransferError::Timeout`]. 0
    /// disables the timeout (the default: congestion on a healthy link
    /// must never be misread as failure).
    pub op_timeout_ns: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_base_ns: 2_000,
            backoff_cap_ns: 200_000,
            op_timeout_ns: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based): exponential from
    /// `backoff_base_ns`, capped, plus up to 50% seeded jitter. Fully
    /// determined by the policy and the RNG state.
    pub fn backoff_ns(&self, attempt: u32, rng: &SplitMix64) -> Nanos {
        let shift = attempt.saturating_sub(1).min(20);
        let base = self
            .backoff_base_ns
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ns.max(self.backoff_base_ns));
        base + rng.next_below(base / 2 + 1)
    }
}

impl FarMemory {
    /// Awaits a posted completion under the configured per-op timeout.
    /// With the timeout disabled this is exactly `completion.await` — no
    /// extra timers, no schedule perturbation. With a timeout, abandoning
    /// an op does not un-post it: its wire time stays consumed.
    pub(crate) async fn await_op(&self, c: Completion) -> Result<Nanos, TransferError> {
        let timeout = self.cfg.retry.op_timeout_ns;
        if timeout > 0 && c.completes_at().saturating_since(self.sim.now()) > timeout {
            // The completion instant is fixed at post time, so the verdict
            // is known immediately; sleep out the budget and give up.
            self.sim.sleep(timeout).await;
            return Err(TransferError::Timeout);
        }
        c.await
    }

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
        let c = self.post_transfer(op, rpn);
        let first = self.await_op(c).await;
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
                if let Ok(lat) = self.await_op(c).await {
                    self.stats.failover_reads.inc();
                    return Ok(lat);
                }
            }
        }
        let policy = self.cfg.retry.clone();
        let t0 = self.sim.now();
        // Trace spans live on the dedicated retry track and are emitted
        // only on this error path, so a clean run (no active FaultPlan,
        // no timeouts) contains no `retry` events at all.
        let trace_name = match op {
            TransferOp::Read => "read",
            TransferOp::Write => "write",
        };
        for attempt in 1..=policy.max_retries {
            self.stats.transfer_retries.inc();
            self.sim
                .sleep(policy.backoff_ns(attempt, &self.retry_rng))
                .await;
            // Re-posting costs CPU like the original post did.
            self.sim.sleep(self.cfg.costs.os.rdma_post_cpu_ns).await;
            let c = self.post_transfer(op, rpn);
            match self.await_op(c).await {
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
            Some(("attempts", policy.max_retries as u64 + 1)),
        );
        Err(FaultError {
            op,
            attempts: policy.max_retries + 1,
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
        let policy = RetryPolicy::default();
        let a = SplitMix64::new(42);
        let b = SplitMix64::new(42);
        let sched_a: Vec<Nanos> = (1..=8).map(|i| policy.backoff_ns(i, &a)).collect();
        let sched_b: Vec<Nanos> = (1..=8).map(|i| policy.backoff_ns(i, &b)).collect();
        assert_eq!(sched_a, sched_b, "same seed, same schedule");

        let c = SplitMix64::new(43);
        let sched_c: Vec<Nanos> = (1..=8).map(|i| policy.backoff_ns(i, &c)).collect();
        assert_ne!(sched_a, sched_c, "different seed must diverge");

        // Exponential shape under the jitter: every delay is in
        // [base·2^(i-1), 1.5·base·2^(i-1)] until the cap bites.
        for (i, &d) in sched_a.iter().enumerate() {
            let lo = (policy.backoff_base_ns << i).min(policy.backoff_cap_ns);
            assert!(d >= lo && d <= lo + lo / 2, "retry {i}: {d} outside [{lo}, 1.5·{lo}]");
        }
    }

    fn failing_machine(plan: FaultPlan, retry: RetryPolicy) -> (Simulation, Rc<FarMemory>, u64) {
        let sim = Simulation::new();
        let cfg = SystemConfig::mage_lib().with_faults(plan).with_retry(retry);
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
    fn timeout_fires_in_virtual_time() {
        // Node permanently down: every op would complete (with an error)
        // after one base latency, but a 500 ns budget gives up first.
        let plan = FaultPlan {
            seed: 2,
            crash_period_ns: u64::MAX / 2,
            crash_duration_ns: u64::MAX / 2,
            crash_rate: 1.0,
            ..FaultPlan::none()
        };
        // Identical machines; only the op timeout differs. Without it the
        // access waits the full 3 900 ns base latency for the error; with
        // a 500 ns budget it gives up after exactly 500 ns of virtual
        // time, so the end-to-end difference is exactly 3 400 ns.
        let mut elapsed = Vec::new();
        let mut errors = Vec::new();
        for timeout in [0, 500] {
            let retry = RetryPolicy {
                max_retries: 0,
                op_timeout_ns: timeout,
                ..RetryPolicy::default()
            };
            let (sim, engine, vpn) = failing_machine(plan.clone(), retry);
            let e = Rc::clone(&engine);
            let (t, access) = sim.block_on(async move {
                let t0 = e.sim.now();
                let a = e.access(CoreId(0), vpn, false).await;
                (e.sim.now().saturating_since(t0), a)
            });
            engine.shutdown();
            let Access::Failed { error } = access else {
                panic!("expected a failed access, got {access:?}");
            };
            assert_eq!(error.attempts, 1);
            elapsed.push(t);
            errors.push(error.last);
        }
        assert_eq!(errors[0], mage_fabric::TransferError::NodeUnreachable);
        assert_eq!(errors[1], mage_fabric::TransferError::Timeout);
        assert_eq!(
            elapsed[0] - elapsed[1],
            3_900 - 500,
            "timeout must cut the wait from the 3 900 ns detection latency to 500 ns"
        );
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
        let retry = RetryPolicy {
            max_retries: 2,
            backoff_base_ns: 100,
            backoff_cap_ns: 1_000,
            op_timeout_ns: 0,
        };
        let (sim, engine, vpn) = failing_machine(plan, retry);
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
        let retry = RetryPolicy {
            max_retries: 8,
            backoff_base_ns: 200,
            backoff_cap_ns: 5_000,
            op_timeout_ns: 0,
        };
        let (sim, engine, start_vpn) = failing_machine(plan, retry);
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

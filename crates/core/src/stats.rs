//! Engine-level instrumentation: fault latencies, per-component
//! breakdowns (Figs. 6 and 16), and eviction-path counters.

use std::cell::RefCell;

use mage_sim::stats::{Counter, Histogram, TimeStat};
use mage_sim::time::Nanos;

/// Per-fault component times, matching the paper's breakdown categories
/// (Fig. 6 / Fig. 16): RDMA read, TLB flushes (from synchronous eviction),
/// page accounting, memory circulation (allocation + swap slots), and
/// "others" (fault entry, page-table manipulation, VMA locks, waiting for
/// free pages).
#[derive(Default)]
pub struct FaultBreakdown {
    /// RDMA read wait.
    pub rdma: RefCell<TimeStat>,
    /// TLB shootdown time spent *inside the fault path* (synchronous
    /// eviction only; zero for MAGE by construction).
    pub tlb: RefCell<TimeStat>,
    /// Page-accounting operations.
    pub accounting: RefCell<TimeStat>,
    /// Memory circulation: local frame allocation + remote slot ops +
    /// waiting for free pages.
    pub circulation: RefCell<TimeStat>,
    /// Everything else (entry, walks, PTE updates, VMA locks).
    pub other: RefCell<TimeStat>,
}

/// Snapshot of mean per-fault component latencies (ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct BreakdownMeans {
    /// Mean RDMA read wait.
    pub rdma: f64,
    /// Mean in-fault TLB shootdown time.
    pub tlb: f64,
    /// Mean accounting time.
    pub accounting: f64,
    /// Mean circulation (allocation) time.
    pub circulation: f64,
    /// Mean residual time.
    pub other: f64,
}

impl BreakdownMeans {
    /// Sum of all components (≈ mean fault latency).
    pub fn total(&self) -> f64 {
        self.rdma + self.tlb + self.accounting + self.circulation + self.other
    }
}

/// All counters and distributions exposed by a running engine.
#[derive(Default)]
pub struct EngineStats {
    /// Total page accesses.
    pub accesses: Counter,
    /// TLB hits.
    pub tlb_hits: Counter,
    /// Hardware walks that found a present PTE (no OS fault).
    pub minor_walks: Counter,
    /// Major faults (page fetched from far memory or first touch).
    pub major_faults: Counter,
    /// Major faults that found the page mid-eviction or mid-fault and had
    /// to wait on the page lock.
    pub page_lock_waits: Counter,
    /// End-to-end major-fault latency, ns.
    pub fault_latency: Histogram,
    /// Per-component fault breakdown.
    pub breakdown: FaultBreakdown,
    /// Synchronous evictions performed by faulting threads.
    pub sync_evictions: Counter,
    /// Pages evicted by background evictors.
    pub evicted_pages: Counter,
    /// Pages evicted synchronously on the fault path.
    pub sync_evicted_pages: Counter,
    /// Dirty pages written back.
    pub writebacks: Counter,
    /// Clean pages reclaimed without a write.
    pub clean_reclaims: Counter,
    /// Eviction batches completed.
    pub eviction_batches: Counter,
    /// Time faulting threads spent waiting for free pages, ns.
    pub free_wait: RefCell<TimeStat>,
    /// Pages unmapped by the eviction machinery (each later settles as
    /// exactly one of `evicted_pages`, `sync_evicted_pages`,
    /// `evict_cancelled_pages` or `requeued_victims`).
    pub unmapped_pages: Counter,
    /// Faults that cancelled an in-flight eviction of the same page
    /// (swap-cache-refault semantics).
    pub evict_cancels: Counter,
    /// Eviction-batch pages skipped at reclaim because a refault
    /// cancelled them.
    pub evict_cancelled_pages: Counter,
    /// Pages prefetched by readahead.
    pub prefetches: Counter,
    /// Accesses that hit a page while its prefetch was still in flight.
    pub prefetch_inflight_hits: Counter,
    /// Transfer attempts re-posted after a transport error or timeout.
    pub transfer_retries: Counter,
    /// Transfers that stayed failed after exhausting every retry.
    pub transfer_failures: Counter,
    /// Major faults aborted because the fault-in read exhausted retries
    /// (surfaced as [`Access::Failed`](crate::machine::Access), never as
    /// a major fault).
    pub aborted_faults: Counter,
    /// Eviction victims re-inserted as resident because their writeback
    /// exhausted retries (the remote copy never became durable).
    pub requeued_victims: Counter,
    /// Reads served from a surviving replica after the primary's node
    /// went unreachable (replicated backends only; zero otherwise).
    pub failover_reads: Counter,
    /// First failure → eventual success latency of recovered transfers, ns.
    pub retry_latency: Histogram,
    /// Major faults whose page still sat on the accounting ghost list of
    /// recently evicted pages — i.e. pages evicted too early. The
    /// numerator of the ablation sweep's re-fault rate.
    pub re_faults: Counter,
    /// All residency inserts that hit the ghost list, including eviction
    /// cancels and requeued victims (a superset of `re_faults`). Every
    /// ghost hit also counts as a re-fault except a requeued victim's, so
    /// `ghost_hits - re_faults` is the number of requeued victims still on
    /// the ghost list when re-inserted, and
    /// `ghost_hits - re_faults <= requeued_victims` (mage-check's
    /// `ghost-accounting` invariant).
    pub ghost_hits: Counter,
}

impl EngineStats {
    // `reset()` is gone: destructive resets only cleared the stats this
    // struct owns — NIC and IPI counters kept their warmup samples, which
    // is exactly the bug class measurement windows remove. Take a
    // `MetricsSnapshot` via `FarMemory::metrics` and compute a window.

    /// Records a major fault's total latency and residual component.
    pub fn record_fault(&self, total: Nanos, accounted: Nanos) {
        self.major_faults.inc();
        self.fault_latency.record(total);
        self.breakdown
            .other
            .borrow_mut()
            .record(total.saturating_sub(accounted));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fault_books_the_residual() {
        let s = EngineStats::default();
        s.record_fault(5_000, 4_000);
        assert_eq!(s.breakdown.other.borrow().max(), 1_000);
        assert_eq!(s.fault_latency.max(), 5_000);
        assert_eq!(s.major_faults.get(), 1);
    }

    #[test]
    fn residual_saturates() {
        let s = EngineStats::default();
        // Accounted more than total (overlapping waits): residual is 0,
        // not an underflow.
        s.record_fault(100, 500);
        assert_eq!(s.breakdown.other.borrow().max(), 0);
    }
}

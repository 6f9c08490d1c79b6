//! Measurement windows over every stat source of a running machine.
//!
//! A [`MetricsRegistry`] composes the engine, NIC, interrupt, accounting
//! and replication statistics into one façade with two operations:
//! [`snapshot`](MetricsRegistry::snapshot) captures a cheap start line
//! ([`MetricsSnapshot`]), and
//! [`window_since`](MetricsRegistry::window_since) computes the
//! *end − start* deltas ([`MetricsWindow`]). Reports are derived from a
//! window, never from cumulative counters, so the "warmup reset missed a
//! counter" bug class is structurally impossible: a counter that exists
//! in the registry is windowed by construction, and one that doesn't
//! cannot appear in a report at all.
//!
//! Every windowed metric is one row of the `metrics!` table below, and
//! the snapshot, the window and both operations are generated from it,
//! so a new metric is one row from the stat field to every report that
//! carries a window. Each source struct is destructured without `..`,
//! so a stat field added to a source struct without a row is a compile
//! error.
//!
//! The destructive `EngineStats::reset` shim this replaces (since
//! removed) cleared only
//! the engine's own counters — NIC byte counts and IPI histograms kept
//! their warmup samples and were then divided by the post-warmup runtime,
//! inflating `read_gbps`/`write_gbps` and skewing `shootdown_mean_ns`.

use std::cell::RefCell;

use mage_accounting::AccountingStats;
use mage_fabric::NicStats;
use mage_mmu::IpiStats;
use mage_sim::stats::{Counter, Histogram, TimeStat, Windowed};
use mage_sim::time::Nanos;

use crate::backend::ReplicationStats;
use crate::stats::{BreakdownMeans, EngineStats, FaultBreakdown};

/// Borrowed view of every stat source of one machine; the entry point for
/// snapshot/delta measurement windows. Obtain via
/// [`FarMemory::metrics`](crate::machine::FarMemory::metrics).
pub struct MetricsRegistry<'a> {
    /// Engine-level counters and distributions.
    pub engine: &'a EngineStats,
    /// NIC transfer counters and latency distributions.
    pub nic: &'a NicStats,
    /// IPI / TLB-shootdown counters and distributions.
    pub interrupts: &'a IpiStats,
    /// Page-accounting counters.
    pub accounting: &'a AccountingStats,
    /// Replica-repair counters, present only when the machine runs a
    /// replicated [`FarBackend`](crate::backend::FarBackend).
    pub replication: Option<&'a ReplicationStats>,
}

/// Generates [`MetricsSnapshot`], [`MetricsWindow`] and the registry's
/// `snapshot`/`window_since` from one table. Each group names a local
/// bound by [`MetricsRegistry::sources`], the source struct, and the
/// struct's fields that are not windowed metrics; each row maps one
/// source field to its window name and stat type.
macro_rules! metrics {
    ($(
        $src:ident: $Source:ident $( (skip $($skip:ident),+) )? {
            $( $(#[$doc:meta])* $field:ident => $name:ident: $ty:ty, )*
        }
    )*) => {
        /// Start line of a measurement window: a point-in-time capture of
        /// every registered stat source. Cheap to take (a few hundred plain
        /// copies, no virtual time passes).
        #[derive(Clone, Debug, Default)]
        pub struct MetricsSnapshot {
            $($( $name: <$ty as Windowed>::Snapshot, )*)*
        }

        /// The *end − start* deltas of one measurement window. Every field
        /// is a windowed value: counters are plain differences,
        /// distributions are [`HistogramDelta`]s / [`TimeStatDelta`]s
        /// covering only samples recorded inside the window. Every value
        /// is made of integers, so equal windows mean bit-equal stats.
        ///
        /// [`HistogramDelta`]: mage_sim::stats::HistogramDelta
        /// [`TimeStatDelta`]: mage_sim::stats::TimeStatDelta
        #[derive(Clone, Debug, PartialEq)]
        pub struct MetricsWindow {
            $($( $(#[$doc])* pub $name: <$ty as Windowed>::Delta, )*)*
        }

        impl MetricsRegistry<'_> {
            /// Captures the start line of a measurement window.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let absent = ReplicationStats::default();
                let ($($src,)*) = self.sources(&absent);
                $( let $Source { $($field: $name,)* $($($skip: _,)+)? } = $src; )*
                MetricsSnapshot { $($( $name: $name.start(), )*)* }
            }

            /// Computes the *current − start* window over every registered
            /// stat.
            pub fn window_since(&self, start: &MetricsSnapshot) -> MetricsWindow {
                let absent = ReplicationStats::default();
                let ($($src,)*) = self.sources(&absent);
                $( let $Source { $($field: $name,)* $($($skip: _,)+)? } = $src; )*
                MetricsWindow { $($( $name: $name.since(&start.$name), )*)* }
            }
        }
    };
}

metrics! {
    engine: EngineStats (skip breakdown) {
        /// Page accesses in the window.
        accesses => accesses: Counter,
        /// TLB hits in the window.
        tlb_hits => tlb_hits: Counter,
        /// Minor walks in the window.
        minor_walks => minor_walks: Counter,
        /// Major faults in the window.
        major_faults => major_faults: Counter,
        /// Page-lock waits in the window.
        page_lock_waits => page_lock_waits: Counter,
        /// Synchronous evictions in the window.
        sync_evictions => sync_evictions: Counter,
        /// Background-evicted pages in the window.
        evicted_pages => evicted_pages: Counter,
        /// Synchronously evicted pages in the window.
        sync_evicted_pages => sync_evicted_pages: Counter,
        /// Writebacks in the window.
        writebacks => writebacks: Counter,
        /// Clean reclaims in the window.
        clean_reclaims => clean_reclaims: Counter,
        /// Eviction batches in the window.
        eviction_batches => eviction_batches: Counter,
        /// Pages unmapped in the window.
        unmapped_pages => unmapped_pages: Counter,
        /// Refault-cancelled evictions in the window.
        evict_cancels => evict_cancels: Counter,
        /// Eviction-batch pages cancelled in the window.
        evict_cancelled_pages => evict_cancelled_pages: Counter,
        /// Pages prefetched in the window.
        prefetches => prefetches: Counter,
        /// In-flight prefetch hits in the window.
        prefetch_inflight_hits => prefetch_inflight_hits: Counter,
        /// Transfer retries in the window.
        transfer_retries => transfer_retries: Counter,
        /// Exhausted-retry transfer failures in the window.
        transfer_failures => transfer_failures: Counter,
        /// Aborted faults in the window.
        aborted_faults => aborted_faults: Counter,
        /// Requeued eviction victims in the window.
        requeued_victims => requeued_victims: Counter,
        /// Reads served from a surviving replica in the window.
        failover_reads => failover_reads: Counter,
        /// Major faults that hit the ghost list in the window (pages evicted
        /// too early — the re-fault-rate numerator).
        re_faults => re_faults: Counter,
        /// All ghost-list hits in the window (re-faults plus eviction cancels
        /// and requeues).
        ghost_hits => ghost_hits: Counter,
        /// Fault-latency distribution over the window.
        fault_latency => fault_latency: Histogram,
        /// Retry-recovery latency distribution over the window.
        retry_latency => retry_latency: Histogram,
        /// Free-page wait time over the window.
        free_wait => free_wait: RefCell<TimeStat>,
    }
    breakdown: FaultBreakdown {
        /// RDMA-read component of the fault breakdown, window only.
        rdma => breakdown_rdma: RefCell<TimeStat>,
        /// In-fault TLB component of the fault breakdown, window only.
        tlb => breakdown_tlb: RefCell<TimeStat>,
        /// Accounting component of the fault breakdown, window only.
        accounting => breakdown_accounting: RefCell<TimeStat>,
        /// Circulation component of the fault breakdown, window only.
        circulation => breakdown_circulation: RefCell<TimeStat>,
        /// Residual component of the fault breakdown, window only.
        other => breakdown_other: RefCell<TimeStat>,
    }
    nic: NicStats {
        /// NIC reads completed in the window.
        reads => nic_reads: Counter,
        /// NIC writes completed in the window.
        writes => nic_writes: Counter,
        /// Bytes read remote→local in the window.
        read_bytes => nic_read_bytes: Counter,
        /// Bytes written local→remote in the window.
        write_bytes => nic_write_bytes: Counter,
        /// NIC read-latency distribution over the window.
        read_latency => nic_read_latency: Histogram,
        /// NIC write-latency distribution over the window.
        write_latency => nic_write_latency: Histogram,
    }
    interrupts: IpiStats {
        /// IPIs delivered in the window.
        ipis => ipis: Counter,
        /// Shootdown rounds in the window.
        shootdowns => shootdowns: Counter,
        /// Per-IPI latency distribution over the window.
        ipi_latency => ipi_latency: Histogram,
        /// Shootdown (first-send → last-ACK) distribution over the window.
        shootdown_latency => shootdown_latency: Histogram,
    }
    accounting: AccountingStats {
        /// Accounting inserts in the window.
        inserts => acct_inserts: Counter,
        /// Accounting pages scanned in the window.
        scanned => acct_scanned: Counter,
        /// Accounting reactivations in the window.
        reactivated => acct_reactivated: Counter,
        /// Accounting victims taken in the window.
        victims => acct_victims: Counter,
    }
    replication: ReplicationStats (skip illegal_transitions) {
        /// Pages copied back to full replication in the window (zero without
        /// a replicated backend).
        rereplicated_pages => rereplicated_pages: Counter,
        /// Replica slots marked degraded by node outages in the window.
        degraded_marks => degraded_marks: Counter,
    }
}

impl MetricsRegistry<'_> {
    /// Every stat source, in table order. A machine without a replicated
    /// backend reads its replication rows from `absent`, whose zeros make
    /// those windows zero.
    fn sources<'s>(
        &'s self,
        absent: &'s ReplicationStats,
    ) -> (
        &'s EngineStats,
        &'s FaultBreakdown,
        &'s NicStats,
        &'s IpiStats,
        &'s AccountingStats,
        &'s ReplicationStats,
    ) {
        (
            self.engine,
            &self.engine.breakdown,
            self.nic,
            self.interrupts,
            self.accounting,
            self.replication.unwrap_or(absent),
        )
    }
}

impl MetricsWindow {
    /// Achieved read bandwidth over the window, in Gbps, for a window of
    /// `elapsed` ns. Counts only bytes moved *inside* the window.
    pub fn read_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.nic_read_bytes as f64 * 8.0 / elapsed as f64
    }

    /// Achieved write bandwidth over the window, in Gbps.
    pub fn write_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.nic_write_bytes as f64 * 8.0 / elapsed as f64
    }

    /// Mean per-fault component latencies over the window (the Fig. 6/16
    /// breakdown).
    pub fn breakdown_means(&self) -> BreakdownMeans {
        BreakdownMeans {
            rdma: self.breakdown_rdma.mean(),
            tlb: self.breakdown_tlb.mean(),
            accounting: self.breakdown_accounting.mean(),
            circulation: self.breakdown_circulation.mean(),
            other: self.breakdown_other.mean(),
        }
    }
}

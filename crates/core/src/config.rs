//! System configurations: one engine, many far-memory systems.
//!
//! Every system the paper evaluates is a configuration of the same engine
//! (DESIGN.md §4.4), so ablations toggle exactly one knob at a time:
//!
//! | knob | Hermit | DiLOS | MAGE-Lib | MAGE-Lnx |
//! |---|---|---|---|---|
//! | accounting partitions | 1 | 1 | 8 | 8 |
//! | victim policy | second chance | second chance | second chance | FIFO |
//! | local alloc | per-CPU cache | global buddy | multi-layer | multi-layer |
//! | remote alloc | swap lock | direct map | direct map | direct map |
//! | VMA lock | global | none | none | sharded |
//! | sync eviction | yes | yes | **no** | **no** |
//! | pipelined EP | no | no | **yes** | **yes** |
//! | evictors | dynamic ≤32 | 4 | 4 fixed | 4 fixed |
//! | prefetch | readahead | readahead | readahead | none |
//! | virtualized | no (bare metal) | yes | yes | yes |

use mage_fabric::{FaultPlan, NicConfig};
use mage_mmu::VmaLockModel;
use mage_palloc::LocalAllocatorKind;

use crate::backend::ReplicationConfig;
use crate::costs::{CostModel, OsProfile};
use crate::reclaim::VictimPolicy;

/// Remote-slot allocation policy selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoteAllocKind {
    /// VMA-level direct mapping (§4.2.3).
    DirectMap,
    /// Linux swap-slot bitmap behind a global lock.
    SwapLock,
}

/// Victim-selection policy selector (`EP₁`): each kind is a preset of
/// [`VictimPolicy`].
#[derive(Clone, Copy, Debug)]
pub enum EvictionPolicyKind {
    /// The paper's second-chance accessed-bit test (default everywhere).
    SecondChance,
    /// Strict FIFO: evict in scan order with no reference recheck
    /// (MAGE-Lnx's FIFO queues, §5.1; its preset also zeroes the
    /// per-page scan cost, since nothing is checked).
    Fifo,
    /// Aging-counter CLOCK: each hit grants three grace rounds.
    AgingClock,
    /// S3-FIFO (SOSP '23): a 2-bit frequency filter recharged by re-fault
    /// signals from the accounting ghost list. It also asks the
    /// accounting structure to admit ghost hits straight to the protected
    /// list, which makes the probation/protected pair S3-FIFO's
    /// small/main queues — on any partition count and any preset.
    S3Fifo,
    /// NFU-with-aging LRU approximation: a page is evicted on the 8th
    /// cold scan after its last hit, when an 8-bit aging register would
    /// decay to zero.
    ApproxLru,
}

impl EvictionPolicyKind {
    /// Every built-in policy, in declaration order.
    pub const BUILT_IN: [EvictionPolicyKind; 5] = [
        EvictionPolicyKind::SecondChance,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::AgingClock,
        EvictionPolicyKind::S3Fifo,
        EvictionPolicyKind::ApproxLru,
    ];

    /// Instantiates the policy. Every kind but `Fifo` is a preset of
    /// one counter mechanism (see [`crate::reclaim::policy`]).
    pub fn build(&self) -> VictimPolicy {
        let counter =
            |increment, cap, recharge| VictimPolicy::counter(self.name(), increment, cap, recharge);
        match *self {
            EvictionPolicyKind::SecondChance => counter(false, 0, false),
            EvictionPolicyKind::Fifo => VictimPolicy::fifo(self.name()),
            EvictionPolicyKind::AgingClock => counter(false, 2, false),
            EvictionPolicyKind::S3Fifo => counter(true, 3, true),
            EvictionPolicyKind::ApproxLru => counter(false, 7, false),
        }
    }

    /// Display name of the selected policy.
    pub fn name(&self) -> &'static str {
        match *self {
            EvictionPolicyKind::SecondChance => "second-chance",
            EvictionPolicyKind::Fifo => "fifo",
            EvictionPolicyKind::AgingClock => "aging-clock",
            EvictionPolicyKind::S3Fifo => "s3-fifo",
            EvictionPolicyKind::ApproxLru => "approx-lru",
        }
    }
}

/// Prefetching policy on the fault-in path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No prefetching.
    None,
    /// Sequential-pattern readahead, up to 8 pages per trigger.
    Readahead,
}

/// Full configuration of one simulated far-memory system.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Display name.
    pub name: &'static str,
    /// Independent page-accounting lists (`EP₁`/`FP₃`): 1 is the global
    /// LRU of Linux/Hermit/DiLOS, more is MAGE's partitioning (§4.2.2).
    pub accounting_partitions: usize,
    /// Local frame-allocator stack (`FP₁`).
    pub local_alloc: LocalAllocatorKind,
    /// Remote-slot policy (`EP₃`), consumed by the
    /// [`FarBackend`](crate::backend::FarBackend).
    pub remote_alloc: RemoteAllocKind,
    /// Victim-selection policy (`EP₁`): how each scanned candidate is
    /// judged.
    pub eviction_policy: EvictionPolicyKind,
    /// Address-space lock granularity.
    pub vma_lock: VmaLockModel,
    /// Number of dedicated evictor threads.
    pub evictors: usize,
    /// Upper bound for feedback-directed evictor scaling (Hermit); equal
    /// to `evictors` when scaling is off.
    pub max_evictors: usize,
    /// Whether the fault path may perform synchronous eviction when no
    /// free page is available (disallowed by MAGE's P1).
    pub sync_eviction: bool,
    /// Cross-batch pipelined eviction (MAGE's P2) vs. sequential batches.
    pub pipelined_eviction: bool,
    /// Pages per eviction batch / shootdown (256 for MAGE, §4.2.1).
    pub eviction_batch: usize,
    /// Prefetch policy.
    pub prefetch: PrefetchPolicy,
    /// NIC / link configuration.
    pub nic: NicConfig,
    /// Deterministic transport-fault schedule ([`FaultPlan::none`] — a
    /// perfect network — by default). Per-node crash plans of replicated
    /// runs live in [`ReplicationConfig::node_faults`].
    pub faults: FaultPlan,
    /// Replicate remote pages across simulated memory nodes with
    /// transparent read failover and background re-replication. `None`
    /// (the default) keeps the single-copy backend bit-identical to
    /// before the replication layer existed.
    pub replication: Option<ReplicationConfig>,
    /// Retries after a failed transfer's first attempt (0 = fail
    /// immediately); each waits an exponential, seeded-jitter backoff
    /// ([`crate::retry::backoff_ns`]).
    pub max_retries: u32,
    /// Service-time model.
    pub costs: CostModel,
    /// Test-only: a deliberately planted defect (see [`PlantedBug`]).
    /// Never set in presets.
    #[doc(hidden)]
    pub planted_bug: Option<PlantedBug>,
}

/// A deliberately planted defect, used by the mage-check and simsan
/// tests to prove their oracles catch and shrink a real bug class.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlantedBug {
    /// Resurrect the historical finalize-batch counting bug (evicted
    /// pages double-counted), violating the settlement identity
    /// `evicted + sync + cancelled + requeued ≤ unmapped`.
    Settlement,
    /// After a reclaim batch is finalized (PTEs unlocked, waiters woken),
    /// redundantly re-publish the settled PTE words *without* holding
    /// their lock bits. The rewritten values are identical, so no
    /// functional test can see it — but the unlocked writes race with the
    /// next faulter's install or the next unmap of the same page.
    Publish,
    /// The background repair task silently skips backup-slot replicas,
    /// so a page degraded on its backup node is never re-replicated —
    /// invisible until the *primary's* node also crashes, at which point
    /// the page has no synced copy left.
    Rereplication,
}

impl SystemConfig {
    /// MAGE-Lib: the libOS variant (§5.2).
    pub fn mage_lib() -> Self {
        SystemConfig {
            name: "MageLib",
            accounting_partitions: 8,
            local_alloc: LocalAllocatorKind::MultiLayer,
            remote_alloc: RemoteAllocKind::DirectMap,
            eviction_policy: EvictionPolicyKind::SecondChance,
            vma_lock: VmaLockModel::None,
            evictors: 4,
            max_evictors: 4,
            sync_eviction: false,
            pipelined_eviction: true,
            eviction_batch: 256,
            prefetch: PrefetchPolicy::None,
            nic: NicConfig::bluefield2_200g(),
            faults: FaultPlan::none(),
            replication: None,
            planted_bug: None,
            max_retries: 3,
            costs: CostModel::new(OsProfile::unikernel(), true),
        }
    }

    /// MAGE-Lnx: the Linux-kernel variant (§5.1). No prefetch support;
    /// the Linux RDMA stack caps effective bandwidth at ~139 Gbps (§6.4).
    pub fn mage_lnx() -> Self {
        SystemConfig {
            name: "MageLnx",
            accounting_partitions: 8,
            local_alloc: LocalAllocatorKind::MultiLayer,
            remote_alloc: RemoteAllocKind::DirectMap,
            eviction_policy: EvictionPolicyKind::Fifo,
            vma_lock: VmaLockModel::Sharded(16),
            evictors: 4,
            max_evictors: 4,
            sync_eviction: false,
            pipelined_eviction: true,
            eviction_batch: 256,
            prefetch: PrefetchPolicy::None,
            nic: NicConfig {
                bandwidth_bytes_per_ns: 17.4, // 139 Gbps ceiling (§6.4)
                ..NicConfig::bluefield2_200g()
            },
            faults: FaultPlan::none(),
            replication: None,
            planted_bug: None,
            max_retries: 3,
            costs: {
                let mut costs = CostModel::new(OsProfile::mage_lnx(), true);
                // FIFO queues check nothing per scanned page.
                costs.accounting.scan_per_page_ns = 0;
                costs
            },
        }
    }

    /// Hermit (NSDI '23): Linux with feedback-directed asynchrony, run on
    /// bare metal (§6.1).
    pub fn hermit() -> Self {
        SystemConfig {
            name: "Hermit",
            accounting_partitions: 1,
            local_alloc: LocalAllocatorKind::PcpuCache,
            remote_alloc: RemoteAllocKind::SwapLock,
            eviction_policy: EvictionPolicyKind::SecondChance,
            vma_lock: VmaLockModel::Global,
            evictors: 4,
            max_evictors: 32,
            sync_eviction: true,
            pipelined_eviction: false,
            eviction_batch: 64,
            prefetch: PrefetchPolicy::Readahead,
            nic: NicConfig::bluefield2_200g(),
            faults: FaultPlan::none(),
            replication: None,
            planted_bug: None,
            max_retries: 3,
            costs: CostModel::new(OsProfile::linux_bare_metal(), false),
        }
    }

    /// DiLOS (EuroSys '23): far-memory unikernel, extended (as in the
    /// paper, §3.2) with multiple eviction threads and synchronous
    /// eviction.
    pub fn dilos() -> Self {
        SystemConfig {
            name: "DiLOS",
            accounting_partitions: 1,
            local_alloc: LocalAllocatorKind::GlobalBuddy,
            remote_alloc: RemoteAllocKind::DirectMap,
            eviction_policy: EvictionPolicyKind::SecondChance,
            vma_lock: VmaLockModel::None,
            evictors: 4,
            max_evictors: 4,
            sync_eviction: true,
            pipelined_eviction: false,
            eviction_batch: 64,
            prefetch: PrefetchPolicy::Readahead,
            nic: NicConfig::bluefield2_200g(),
            faults: FaultPlan::none(),
            replication: None,
            planted_bug: None,
            max_retries: 3,
            costs: CostModel::new(OsProfile::unikernel(), true),
        }
    }

    /// The analytic "ideal" system (§3.1): only data-movement costs.
    pub fn ideal() -> Self {
        SystemConfig {
            name: "Ideal",
            // Zero-cost partitioned LRU: the ideal system has perfect
            // (software-free) replacement, so it must keep second-chance
            // accuracy rather than FIFO's approximation.
            accounting_partitions: 8,
            local_alloc: LocalAllocatorKind::MultiLayer,
            remote_alloc: RemoteAllocKind::DirectMap,
            eviction_policy: EvictionPolicyKind::SecondChance,
            vma_lock: VmaLockModel::None,
            evictors: 4,
            max_evictors: 4,
            sync_eviction: false,
            pipelined_eviction: true,
            eviction_batch: 256,
            prefetch: PrefetchPolicy::None,
            nic: NicConfig::bluefield2_200g(),
            faults: FaultPlan::none(),
            replication: None,
            planted_bug: None,
            max_retries: 3,
            costs: CostModel::ideal(),
        }
    }

    /// Enables readahead prefetching (used by MAGE-Lib in §6.2's
    /// sequential-scan experiment).
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = PrefetchPolicy::Readahead;
        self
    }

    /// Overrides the eviction batch size (Fig. 18a sweep).
    pub fn with_eviction_batch(mut self, batch: usize) -> Self {
        self.eviction_batch = batch;
        self
    }

    /// Swaps the backend's link model (§8: the design applies to any fast
    /// swap backend — RDMA memory, NVMe SSDs, compressed RAM).
    pub fn with_backend(mut self, nic: NicConfig) -> Self {
        self.nic = nic;
        self
    }

    /// Swaps the victim-selection policy.
    pub fn with_eviction_policy(mut self, policy: EvictionPolicyKind) -> Self {
        self.eviction_policy = policy;
        self
    }

    /// Installs a deterministic transport-fault schedule on the backend
    /// link (the degraded-link experiments and the chaos suite).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Replicates remote pages across simulated memory nodes (primary +
    /// backup, transparent read failover, background re-replication).
    pub fn with_replication(mut self, replication: ReplicationConfig) -> Self {
        self.replication = Some(replication);
        self
    }

    /// Overrides the transfer retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Test-only: plants `bug` (see [`PlantedBug`]). For the oracle
    /// tests; never use in experiments.
    #[doc(hidden)]
    pub fn with_planted_bug(mut self, bug: PlantedBug) -> Self {
        self.planted_bug = Some(bug);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table() {
        let lib = SystemConfig::mage_lib();
        assert!(!lib.sync_eviction && lib.pipelined_eviction);
        assert_eq!(lib.evictors, 4);
        assert_eq!(lib.remote_alloc, RemoteAllocKind::DirectMap);

        let hermit = SystemConfig::hermit();
        assert!(hermit.sync_eviction && !hermit.pipelined_eviction);
        assert_eq!(hermit.max_evictors, 32);
        assert_eq!(hermit.remote_alloc, RemoteAllocKind::SwapLock);
        assert_eq!(hermit.costs.ipi.vmexit_ns, 0, "Hermit runs on bare metal (§6.1)");

        let dilos = SystemConfig::dilos();
        assert_eq!(dilos.local_alloc, LocalAllocatorKind::GlobalBuddy);
        assert_eq!(dilos.vma_lock, VmaLockModel::None);

        let lnx = SystemConfig::mage_lnx();
        assert!(matches!(lnx.eviction_policy, EvictionPolicyKind::Fifo));
        assert_eq!(lnx.costs.accounting.scan_per_page_ns, 0, "no recheck, no scan cost");
        assert!(lnx.nic.bandwidth_bytes_per_ns * 8.0 < 150.0, "Linux stack Gbps ceiling");
        assert_eq!(lnx.prefetch, PrefetchPolicy::None);
    }

    #[test]
    fn ideal_has_no_coherence_cost() {
        let ideal = SystemConfig::ideal();
        assert_eq!(ideal.costs.ipi.handler_cost(256), 0);
        let os = &ideal.costs.os;
        assert_eq!([os.fault_entry_ns, os.pt_walk_ns, os.pte_update_ns, os.swapcache_ns], [0; 4]);
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::mage_lib()
            .with_prefetch()
            .with_eviction_batch(128)
            .with_faults(FaultPlan::degraded_link(3))
            .with_max_retries(5);
        assert_eq!(cfg.eviction_batch, 128);
        assert_eq!(cfg.prefetch, PrefetchPolicy::Readahead);
        assert!(cfg.faults.is_active());
        assert_eq!(cfg.max_retries, 5);
    }

    #[test]
    fn presets_default_to_a_perfect_network() {
        for cfg in [
            SystemConfig::mage_lib(),
            SystemConfig::mage_lnx(),
            SystemConfig::hermit(),
            SystemConfig::dilos(),
            SystemConfig::ideal(),
        ] {
            assert!(!cfg.faults.is_active(), "{}: faults on by default", cfg.name);
        }
    }
}

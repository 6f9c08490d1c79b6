//! The calibrated cost model: every service time in one place.
//!
//! All values are virtual nanoseconds. Where the paper states a number we
//! use it directly (RDMA latency §3.1, VMexit §3.3.1, fault-handler
//! latencies §6.5); the remainder are calibrated so that the
//! single-thread fault latencies land on the paper's measurements
//! (Hermit ≈ 5.8 µs, DiLOS ≈ 4.7 µs with a 3.9 µs RDMA read inside,
//! §6.5 "Regression test").

use mage_mmu::IpiCostModel;
use mage_sim::time::Nanos;

/// Per-fault and per-eviction OS work profile of a system.
///
/// These are fixed-work CPU costs; *where* they are spent (inside which
/// lock, on which path) is decided by the engine, which is what makes
/// them scale differently per system.
#[derive(Clone, Debug)]
pub struct OsProfile {
    /// Trap entry, exception dispatch, fault bookkeeping.
    pub fault_entry_ns: Nanos,
    /// Page-table walk on a TLB miss.
    pub pt_walk_ns: Nanos,
    /// PTE read-modify-write (map or unmap one page).
    pub pte_update_ns: Nanos,
    /// Linux reverse-mapping + cgroup accounting per page (zero on
    /// unikernels; §3.2 "complex memory management functionality").
    pub rmap_cgroup_ns: Nanos,
    /// Swap-cache maintenance per fault/evict (zero when the unified page
    /// table replaces the swap cache, §5.2).
    pub swapcache_ns: Nanos,
    /// CPU cost to post one RDMA work request (driver + doorbell). The
    /// Linux RDMA stack (MAGE-Lnx) pays more than the microkernel-style
    /// driver of DiLOS/MAGE-Lib (§6.4).
    pub rdma_post_cpu_ns: Nanos,
    /// Multiplicative inflation of application compute under
    /// virtualization (EPT translations, Table 2), in percent.
    pub compute_inflation_pct: u32,
}

impl OsProfile {
    /// Linux bare-metal profile (Hermit).
    pub fn linux_bare_metal() -> Self {
        OsProfile {
            fault_entry_ns: 700,
            pt_walk_ns: 150,
            pte_update_ns: 150,
            rmap_cgroup_ns: 500,
            swapcache_ns: 400,
            rdma_post_cpu_ns: 300,
            compute_inflation_pct: 0,
        }
    }

    /// Linux-in-VM profile (MAGE-Lnx): Linux data paths minus the layers
    /// MAGE bypasses (swap layer skipped, rmap shortcuts adopted from
    /// Hermit, §5.1), plus virtualization and the slower kernel RDMA
    /// stack.
    pub fn mage_lnx() -> Self {
        OsProfile {
            fault_entry_ns: 700,
            pt_walk_ns: 150,
            pte_update_ns: 150,
            rmap_cgroup_ns: 150, // Hermit's rmap bypasses + interval shards
            swapcache_ns: 0,     // Linux swap layer skipped entirely
            rdma_post_cpu_ns: 600,
            compute_inflation_pct: 4,
        }
    }

    /// Unikernel-in-VM profile (DiLOS, MAGE-Lib): thin fault entry, no
    /// rmap/cgroup/swap-cache, fast userspace RDMA driver.
    pub fn unikernel() -> Self {
        OsProfile {
            fault_entry_ns: 250,
            pt_walk_ns: 150,
            pte_update_ns: 150,
            rmap_cgroup_ns: 0,
            swapcache_ns: 0,
            rdma_post_cpu_ns: 200,
            compute_inflation_pct: 4,
        }
    }

    /// The zero-overhead profile of the analytic "ideal" system (§3.1).
    pub fn ideal() -> Self {
        OsProfile {
            fault_entry_ns: 0,
            pt_walk_ns: 0,
            pte_update_ns: 0,
            rmap_cgroup_ns: 0,
            swapcache_ns: 0,
            rdma_post_cpu_ns: 0,
            compute_inflation_pct: 0,
        }
    }
}

/// Bundles every substrate cost model for one simulated system.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// OS work profile.
    pub os: OsProfile,
    /// IPI / TLB shootdown costs.
    pub ipi: IpiCostModel,
    /// Local allocator service times.
    pub alloc: mage_palloc::local::LocalAllocCosts,
    /// Page-accounting service times.
    pub accounting: mage_accounting::AccountingCosts,
    /// Swap-slot allocation critical section (Hermit only).
    pub swap_slot_ns: Nanos,
    /// VMA/address-space lock hold time per fault.
    pub vma_lock_hold_ns: Nanos,
    /// Hardware page-table walk on a TLB miss with a present PTE (no OS
    /// involvement).
    pub hw_walk_ns: Nanos,
    /// Per-page CPU cost of posting doorbell-batched eviction writes
    /// (much cheaper than a standalone post).
    pub evict_post_per_page_ns: Nanos,
    /// Run-ahead bound `Q` of the task clocks (DESIGN.md §7, "lax
    /// synchronization"): a sleep ending at most this far past the
    /// executor's global clock does not yield. Below the smallest
    /// latency the model resolves as a queue (3.9 µs RDMA, ~11 µs
    /// shootdown) and above one op's compute plus walk (~210 ns). 0 is
    /// the exact schedule.
    pub run_ahead_ns: Nanos,
}

/// The run-ahead bound every preset uses.
const RUN_AHEAD_NS: Nanos = 1_000;

impl CostModel {
    /// Cost model for a given OS profile on bare metal or in a VM.
    pub fn new(os: OsProfile, virtualized: bool) -> Self {
        CostModel {
            os,
            ipi: if virtualized {
                IpiCostModel::virtualized()
            } else {
                IpiCostModel::bare_metal()
            },
            alloc: mage_palloc::local::LocalAllocCosts::default(),
            accounting: mage_accounting::AccountingCosts::default(),
            swap_slot_ns: 800,
            vma_lock_hold_ns: 120,
            hw_walk_ns: 60,
            evict_post_per_page_ns: 50,
            run_ahead_ns: RUN_AHEAD_NS,
        }
    }

    /// The all-zero cost model of the ideal system.
    pub fn ideal() -> Self {
        CostModel {
            os: OsProfile::ideal(),
            ipi: IpiCostModel {
                send_ns: 0,
                wire_same_socket_ns: 0,
                wire_cross_socket_ns: 0,
                vmexit_ns: 0,
                handler_base_ns: 0,
                invlpg_ns: 0,
                full_flush_threshold: u32::MAX,
                full_flush_ns: 0,
            },
            alloc: mage_palloc::local::LocalAllocCosts {
                cache_op_ns: 0,
                queue_op_ns: 0,
                buddy_op_ns: 0,
                buddy_bulk_per_frame_ns: 0,
                batch: 64,
            },
            accounting: mage_accounting::AccountingCosts {
                list_op_ns: 0,
                pop_per_page_ns: 0,
                scan_per_page_ns: 0,
            },
            swap_slot_ns: 0,
            vma_lock_hold_ns: 0,
            hw_walk_ns: 0,
            evict_post_per_page_ns: 0,
            run_ahead_ns: RUN_AHEAD_NS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_weight() {
        let linux = OsProfile::linux_bare_metal();
        let uni = OsProfile::unikernel();
        // The unikernel's thin fault entry and missing swap cache; the
        // walk and the PTE update cost the same.
        assert!(linux.fault_entry_ns > uni.fault_entry_ns);
        assert!(linux.swapcache_ns > uni.swapcache_ns);
        assert_eq!(
            (linux.pt_walk_ns, linux.pte_update_ns),
            (uni.pt_walk_ns, uni.pte_update_ns)
        );
    }

    #[test]
    fn virtualization_selects_vmexit() {
        let bare = CostModel::new(OsProfile::linux_bare_metal(), false);
        let virt = CostModel::new(OsProfile::unikernel(), true);
        assert_eq!(bare.ipi.vmexit_ns, 0);
        assert!(virt.ipi.vmexit_ns > 0);
    }

    #[test]
    fn ideal_model_is_all_zero() {
        let m = CostModel::ideal();
        let os = &m.os;
        assert_eq!([os.fault_entry_ns, os.pt_walk_ns, os.pte_update_ns, os.swapcache_ns], [0; 4]);
        assert_eq!(m.ipi.handler_cost(256), 0);
        assert_eq!(m.alloc.buddy_op_ns, 0);
    }
}

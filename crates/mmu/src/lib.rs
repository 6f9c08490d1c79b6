//! Simulated MMU substrate: page tables, TLBs, IPIs and address spaces.
//!
//! Far-memory systems live and die by virtual-memory plumbing: the paper's
//! Challenge 1 (§3.3.1) is TLB-coherence cost, and its eviction pipeline is
//! structured entirely around the unmap → shootdown → writeback → reclaim
//! ordering. This crate models that plumbing:
//!
//! - [`pagetable::PageTable`] — a 5-level radix page table with x86-style
//!   PTE bits (present/accessed/dirty/locked/remote),
//! - [`tlb::Tlb`] — per-core translation caches, each indexing its own
//!   insertion vector with 2-byte slots, used both for hit accounting
//!   and for checking the *stale-translation safety invariant* (a frame
//!   may not be reclaimed while a core could still translate to it),
//! - [`ipi::InterruptController`] — APIC-style IPI delivery with serial
//!   per-target sends, per-core FIFO handler queues, NUMA-dependent wire
//!   latency and optional VMexit penalty; IPI storms and queueing delay
//!   (paper Fig. 7) emerge from this mechanism,
//! - [`addrspace::AddressSpace`] — VMA bookkeeping with pluggable lock
//!   granularity (global, sharded interval locks, or none for unikernels).

pub mod addrspace;
pub mod ipi;
pub mod pagetable;
pub mod tlb;
pub mod topology;

pub use addrspace::{AddressSpace, Vma, VmaLockModel};
pub use ipi::{FlushTicket, InterruptController, IpiCostModel, IpiStats};
pub use pagetable::{PageTable, Pte, PAGE_SHIFT, PAGE_SIZE};
pub use tlb::Tlb;
pub use topology::{CoreId, Topology};

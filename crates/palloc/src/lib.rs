//! Physical-frame and remote-slot allocators for far-memory paging.
//!
//! Page circulation — frames moving between the free pool and the used
//! pool as pages fault in and evict — is Challenge 3 of the paper
//! (§3.3.3). This crate provides every allocator design the paper
//! compares:
//!
//! **Local (frame) allocators**, see [`local::LocalAllocator`]:
//!
//! - a global-lock **buddy** allocator (DiLOS's bottleneck: "a global
//!   sleepable mutex protecting its physical page allocator", §3.2),
//! - Linux-style **per-CPU page caches** in front of the buddy (Hermit's
//!   fast path),
//! - MAGE's **three-level hierarchy**: per-core free-page caches, a shared
//!   concurrent queue for batch operations, and the buddy as fallback
//!   (§5.2). Application threads and eviction threads take different
//!   paths: faulting threads pop from their core cache; evictors push
//!   whole reclaimed batches to the shared queue.
//!
//! **Remote allocators**, see [`remote::RemoteAllocator`]:
//!
//! - a Linux-swap-style global-spinlock **slot bitmap** (Hermit's
//!   bottleneck, §3.3.3),
//! - **VMA-level direct mapping** with no allocation at all (DiLOS and
//!   MAGE: `local_addr + 512KB` maps to `remote_addr + 512KB`, §4.2.3).

pub mod buddy;
pub mod local;
pub mod remote;

pub use buddy::BuddyAllocator;
pub use local::{LocalAllocator, LocalAllocatorKind};
pub use remote::{RemoteAllocator, SwapBitmap};

//! MAGE: scalable far memory balancing faults and evictions.
//!
//! A full Rust reproduction of the MAGE far-memory engine (SOSP 2025):
//! page-based remote memory with a fault-in path (`FP`) and an eviction
//! path (`EP`) built on three design principles —
//!
//! - **P1 — always-asynchronous decoupling**: eviction runs exclusively on
//!   a small pool of dedicated threads; the fault path never evicts
//!   synchronously and instead waits on the free-page supply the evictors
//!   maintain;
//! - **P2 — cross-batch pipelined eviction**: the waits for TLB-shootdown
//!   ACKs and RDMA-write completions of one batch are overlapped with the
//!   scan/unmap/post work of other batches (TSB/RSB staging buffers);
//! - **P3 — contention avoidance**: partitioned LRU lists, a multi-layer
//!   frame allocator, and VMA-direct remote mapping trade eviction
//!   accuracy for synchronization-free scaling.
//!
//! The baselines the paper compares against — Hermit (NSDI '23) and DiLOS
//! (EuroSys '23) — plus the analytic "ideal" system are configurations of
//! the same engine; see [`SystemConfig`].
//!
//! The engine runs on the deterministic virtual-time simulator from
//! `mage-sim`, with hardware substitutes from `mage-fabric` (RDMA),
//! `mage-mmu` (page tables, TLBs, IPIs) and `mage-palloc`/`mage-accounting`
//! (allocators, LRU structures). See `DESIGN.md` for the substitution
//! rationale.
//!
//! # Examples
//!
//! ```
//! use mage::{FarMemory, MachineParams, SystemConfig, Access};
//! use mage_mmu::{CoreId, Topology};
//! use mage_sim::Simulation;
//! use std::rc::Rc;
//!
//! let sim = Simulation::new();
//! let params = MachineParams {
//!     topo: Topology::single_socket(8),
//!     app_threads: 4,
//!     local_pages: 1_024,
//!     remote_pages: 8_192,
//!     tlb_entries: 256,
//!     seed: 1,
//! };
//! let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
//! let vma = engine.mmap(2_048);
//! engine.populate(&vma);
//! let e = Rc::clone(&engine);
//! let faults = sim.block_on(async move {
//!     for i in 0..2_048 {
//!         e.access(CoreId(0), vma.start_vpn + i, false).await;
//!     }
//!     e.stats().major_faults.get()
//! });
//! assert!(faults > 0, "pages beyond the local quota must fault");
//! ```

pub mod backend;
pub mod config;
pub mod costs;
pub mod events;
pub mod fault;
pub mod ideal;
pub mod machine;
pub mod metrics;
mod prefetch;
pub mod reclaim;
pub mod retry;
pub mod stats;

pub use backend::{FarBackend, ReplicaState, ReplicationConfig, ReplicationStats, REPLICA_NODES};
pub use config::{EvictionPolicyKind, PlantedBug, PrefetchPolicy, RemoteAllocKind, SystemConfig};
pub use costs::{CostModel, OsProfile};
pub use events::{EventSink, PageEvent};
pub use ideal::IdealModel;
pub use machine::{Access, FarMemory, MachineParams};
pub use metrics::{MetricsRegistry, MetricsSnapshot, MetricsWindow};
pub use reclaim::VictimPolicy;
pub use retry::{FaultError, TransferOp};
pub use stats::{BreakdownMeans, EngineStats};

//! Deterministic discrete-event simulation kernel for the MAGE far-memory
//! reproduction.
//!
//! This crate provides the substrate on which every simulated hardware and
//! OS component runs:
//!
//! - a single-threaded, deterministic async **executor** over *virtual time*
//!   ([`Simulation`], [`SimHandle`]),
//! - virtual-time **synchronization primitives** ([`sync::SimMutex`],
//!   [`sync::WaitQueue`]): contention emerges as waiting in virtual time
//!   and is read through the engine's fault breakdown, not recorded by
//!   the primitives,
//! - a **statistics** library with counters, time aggregates and
//!   log-bucketed latency histograms ([`stats`]), windowed for
//!   measurement through one interface ([`stats::Windowed`]),
//! - a **virtual-time tracer** recording structured spans into per-track
//!   ring buffers, exportable as Chrome `trace_event` JSON ([`trace`]),
//! - a small dependency-free **JSON reader** ([`json`]) for validating
//!   trace exports and committed benchmark reports,
//! - a tiny deterministic **RNG** ([`rng::SplitMix64`]) for components that
//!   must not depend on external crates,
//! - a **narrow-word store** ([`words::Words`]) that keeps `u64` values
//!   in 4 bytes each until one does not fit, for per-key host arrays.
//!
//! Determinism is a design requirement (DESIGN.md §4.1): given the same
//! configuration and seeds, every experiment reproduces bit-for-bit. The
//! executor uses FIFO ready queues, sequence-number tie-breaking for timers,
//! and no host-time or host-thread dependence.
//!
//! # Examples
//!
//! ```
//! use mage_sim::Simulation;
//!
//! let sim = Simulation::new();
//! let h = sim.handle();
//! let elapsed = sim.block_on(async move {
//!     h.sleep(1_000).await; // 1 µs of virtual time
//!     h.now().as_nanos()
//! });
//! assert_eq!(elapsed, 1_000);
//! ```

pub mod executor;
pub mod explore;
pub mod json;
pub mod race;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;
pub mod wheel;
pub mod words;

pub use executor::{JoinHandle, SimHandle, Simulation};
pub use explore::{ExplorationPolicy, RunProgress};
pub use race::{RaceDetector, RaceMode, RaceReport, ShadowRegion};
pub use time::{Nanos, SimTime};

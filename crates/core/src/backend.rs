//! The far-memory backend: where evicted pages live and how bytes move
//! there.
//!
//! The engine's fault and eviction paths do not talk to a NIC, a memory
//! node or a slot allocator directly — they go through [`FarBackend`],
//! which bundles the three concerns of far memory:
//!
//! - **data movement** ([`FarBackend::read`] / [`FarBackend::write`]):
//!   posting a transfer returns a [`Completion`] future whose resolution
//!   time is fixed at post time, which is what lets the pipelined evictor
//!   (§4.1) post a batch of writes and harvest completions later;
//! - **placement** ([`FarBackend::alloc_slot`] / [`FarBackend::release_slot`] /
//!   [`FarBackend::seed_slot`]): mapping an evicted page to a backend slot,
//!   either address-derived (VMA direct mapping, §4.2.3) or dynamically
//!   allocated (swap-style), as [`SystemConfig::remote_alloc`] says;
//! - **capacity** ([`FarBackend::node`]): region registration against the
//!   passive node's exported bytes.
//!
//! The paper varies the backend along two axes, and both are config
//! data: slot placement (`remote_alloc`) and the link model
//! ([`SystemConfig::with_backend`], §8's "any fast swap backend"). With
//! [`SystemConfig::replication`] set, the backend also keeps a replica
//! table: writebacks are mirrored to two memory nodes, reads route to a
//! synced replica and fail over, and a background task re-replicates.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage_fabric::{Completion, FaultPlan, MemoryNode, Nic, NodeId};
use mage_mmu::PAGE_SIZE;
use mage_palloc::{RemoteAllocator, SwapBitmap};
use mage_sim::slab::PageMap;
use mage_sim::stats::Counter;
use mage_sim::time::Nanos;
use mage_sim::SimHandle;

use crate::config::{PlantedBug, RemoteAllocKind, SystemConfig};

/// State of one replica of one remote page.
///
/// The legal machine is `Synced ↔ Degraded → Rebuilding → Synced` (plus
/// `Rebuilding → Degraded` when a repair write fails): a replica degrades
/// when its home node crashes or a mirrored write to it fails, enters
/// `Rebuilding` while a background repair copy is in flight, and returns
/// to `Synced` when the copy lands (or directly, when a fresh mirrored
/// writeback supersedes the stale copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// The replica holds the current page contents.
    Synced,
    /// The replica is stale or lost (node crash / failed mirror write).
    Degraded,
    /// A background repair copy to this replica is in flight.
    Rebuilding,
}

impl ReplicaState {
    /// Whether moving `from → to` follows the legal machine. Same-state
    /// writes are treated as no-ops by the table and never get here.
    pub fn legal_transition(from: ReplicaState, to: ReplicaState) -> bool {
        use ReplicaState::*;
        matches!(
            (from, to),
            (Synced, Degraded)
                | (Degraded, Synced)
                | (Degraded, Rebuilding)
                | (Rebuilding, Synced)
                | (Rebuilding, Degraded)
        )
    }
}

/// Counters of the replication layer (owned by the backend, surfaced via
/// [`FarBackend::replication_stats`]).
#[derive(Default)]
pub struct ReplicationStats {
    /// Replicas rebuilt by the background repair task.
    pub rereplicated_pages: Counter,
    /// Synced/Rebuilding → Degraded transitions (crash marks and failed
    /// mirror writes).
    pub degraded_marks: Counter,
    /// Replica-state writes that violated the legal machine (always 0 for
    /// a correct engine; the mage-check oracle reads this).
    pub illegal_transitions: Counter,
}

/// Memory nodes a replicated backend spreads its replicas across. Each
/// page keeps two replicas: the primary on node `rpn % REPLICA_NODES`,
/// the backup on the other node.
pub const REPLICA_NODES: usize = 2;

/// How remote pages are replicated across the [`REPLICA_NODES`] simulated
/// memory nodes.
#[derive(Clone, Debug)]
pub struct ReplicationConfig {
    /// Poll interval of the crash monitor / background repair task, ns.
    /// Must be at most the shortest configured outage window, or an
    /// outage could fall entirely between two polls and never degrade
    /// the replicas it wiped.
    pub repair_poll_ns: Nanos,
    /// Per-node fault schedules: `node_faults[i]` governs the replica
    /// reads and writes targeted at memory node `i` (the node-kill chaos
    /// plans). Empty by default; at most one plan per node.
    pub node_faults: Vec<FaultPlan>,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            repair_poll_ns: 10_000,
            node_faults: Vec::new(),
        }
    }
}

/// Shared replica bookkeeping of a replicated [`FarBackend`]: a sparse
/// rpn-keyed [`PageMap`] of per-replica states plus the replication
/// counters.
///
/// Sparse on purpose: with VMA-direct mapping the slot number *is* the
/// remote page number, so a single access to a high vpn produces a high
/// rpn — a dense `Vec` indexed by rpn (the previous representation)
/// would resize to the max touched rpn and allocate gigabytes of `None`s
/// for one page. The map costs O(tracked slots) instead. Iteration
/// (crash marks, repair scans) is over [`PageMap::iter_sorted`] —
/// explicitly ascending-rpn, matching the old dense-vector index order —
/// because repair order is part of the deterministic schedule and must
/// not depend on hash-bucket layout.
struct ReplicaTable {
    states: RefCell<PageMap<[ReplicaState; 2]>>,
    stats: ReplicationStats,
    stop: Cell<bool>,
    skip_backup_repairs: bool,
}

impl ReplicaTable {
    /// Home node of replica `slot` of page `rpn`: primaries spread across
    /// all nodes, the backup lives on the next node over, so every node
    /// carries both roles and a single outage degrades both kinds.
    fn home(&self, rpn: u64, slot: usize) -> NodeId {
        NodeId(((rpn + slot as u64) % REPLICA_NODES as u64) as u32)
    }

    fn get(&self, rpn: u64) -> Option<[ReplicaState; 2]> {
        self.states.borrow().get(rpn).copied()
    }

    /// First slot holding a synced replica, in slot order; falls back to
    /// the primary so an (illegal) zero-synced page still produces a wire
    /// op rather than a panic.
    fn synced_slot(&self, rpn: u64) -> usize {
        self.get(rpn)
            .and_then(|s| (0..2).find(|&i| s[i] == ReplicaState::Synced))
            .unwrap_or(0)
    }

    /// Starts tracking `rpn` with `init` states; keeps existing states if
    /// the slot is already tracked (direct-mapped backends reuse the same
    /// slot across evict/fault cycles and its remote copies stay valid).
    fn track(&self, rpn: u64, init: [ReplicaState; 2]) {
        let mut states = self.states.borrow_mut();
        states.get_or_insert_with(rpn, || init);
    }

    fn untrack(&self, rpn: u64) {
        self.states.borrow_mut().remove(rpn);
    }

    /// Slots currently tracked (the table's entire host footprint).
    fn entries(&self) -> u64 {
        self.states.borrow().len() as u64
    }

    /// Legality-checked state write; same-state writes are no-ops. All
    /// replica-state movement funnels through here, so the mage-check
    /// oracle can read `illegal_transitions` as "the machine was obeyed".
    fn set(&self, rpn: u64, slot: usize, to: ReplicaState) {
        let mut states = self.states.borrow_mut();
        let Some(entry) = states.get_mut(rpn) else {
            return;
        };
        let from = entry[slot];
        if from == to {
            return;
        }
        if !ReplicaState::legal_transition(from, to) {
            self.stats.illegal_transitions.inc();
        }
        if to == ReplicaState::Degraded {
            self.stats.degraded_marks.inc();
        }
        entry[slot] = to;
    }

    /// Guarded state write: moves `slot` to `to` only if it still holds
    /// `expect`. The repair task uses this so a completion racing with a
    /// crash mark or a fresh mirrored writeback never clobbers it.
    fn set_if(&self, rpn: u64, slot: usize, expect: ReplicaState, to: ReplicaState) -> bool {
        let holds = self.get(rpn).is_some_and(|s| s[slot] == expect);
        if holds {
            self.set(rpn, slot, to);
        }
        holds
    }

    /// Marks every Synced/Rebuilding replica homed on `node` as Degraded:
    /// memory nodes are volatile, so an outage wipes what they held.
    /// Iterates in ascending-rpn order ([`PageMap::iter_sorted`]): mark
    /// order feeds the stats counters and must stay deterministic.
    fn degrade_node(&self, node: NodeId) {
        let mut marks = Vec::new();
        {
            let states = self.states.borrow();
            for (rpn, s) in states.iter_sorted() {
                for (slot, st) in s.iter().enumerate() {
                    if self.home(rpn, slot) == node && *st != ReplicaState::Degraded {
                        marks.push((rpn, slot));
                    }
                }
            }
        }
        for (rpn, slot) in marks {
            self.set(rpn, slot, ReplicaState::Degraded);
        }
    }

    /// Degraded replicas that can be repaired right now: their home node
    /// is reachable and the page still has a Synced copy to read from.
    /// The planted `PlantedBug::Rereplication` bug silently skips backup-slot
    /// repairs — exactly the "works until the other node also blinks"
    /// failure the ≥1-synced-replica invariant exists to catch.
    /// Repair order is part of the schedule: the scan walks tracked
    /// slots in ascending-rpn order ([`PageMap::iter_sorted`]) — the
    /// same order the old dense vector's index walk produced — so the
    /// repair batch (and every completion it awaits) is a pure function
    /// of the tracked set, never of hash-bucket layout.
    fn scan_repairs(&self, nic: &Nic) -> Vec<(u64, usize)> {
        let states = self.states.borrow();
        let mut out = Vec::new();
        for (rpn, s) in states.iter_sorted() {
            if !s.contains(&ReplicaState::Synced) {
                continue;
            }
            for (slot, st) in s.iter().enumerate() {
                if *st != ReplicaState::Degraded {
                    continue;
                }
                if self.skip_backup_repairs && slot == 1 {
                    continue;
                }
                if nic.node_reachable(self.home(rpn, slot)) {
                    out.push((rpn, slot));
                }
            }
        }
        out
    }

    fn degraded_pages(&self) -> u64 {
        self.states
            .borrow()
            .iter_sorted()
            .iter()
            .filter(|(_, s)| s.contains(&ReplicaState::Degraded))
            .count() as u64
    }
}

/// Crash monitor + background repair: polls node reachability, degrades
/// replicas wiped by an outage, and re-replicates them from a surviving
/// synced copy once their home node is back.
async fn replication_monitor(
    sim: SimHandle,
    table: Rc<ReplicaTable>,
    nic: Rc<Nic>,
    poll_ns: Nanos,
) {
    loop {
        sim.sleep(poll_ns).await;
        if table.stop.get() {
            return;
        }
        for n in 0..REPLICA_NODES as u32 {
            let node = NodeId(n);
            if nic.node_injector(node).is_some() && !nic.node_reachable(node) {
                table.degrade_node(node);
            }
        }
        // Post the whole repair pass in one batch: re-replication is
        // bandwidth-bound, not latency-bound. Copying serially would let
        // a large pass (every page the dead node held) outlive the gap to
        // the *next* node's outage — exactly the window where the last
        // synced replica dies and the page is unrecoverable.
        let mut in_flight = Vec::new();
        for (rpn, slot) in table.scan_repairs(&nic) {
            if !table.set_if(rpn, slot, ReplicaState::Degraded, ReplicaState::Rebuilding) {
                continue;
            }
            in_flight.push((rpn, slot, nic.post_write_to(table.home(rpn, slot), PAGE_SIZE)));
        }
        for (rpn, slot, c) in in_flight {
            match c.await {
                Ok(_) => {
                    // Guarded: a crash mark while the copy was in flight
                    // wins (the node lost the fresh copy too).
                    if table.set_if(rpn, slot, ReplicaState::Rebuilding, ReplicaState::Synced) {
                        table.stats.rereplicated_pages.inc();
                    }
                }
                Err(_) => {
                    table.set_if(rpn, slot, ReplicaState::Rebuilding, ReplicaState::Degraded);
                }
            }
        }
    }
}

/// The far-memory backend: one-sided RDMA verbs to passive memory,
/// with the remote-slot policy taken from [`RemoteAllocKind`] (VMA direct
/// mapping for DiLOS/MAGE, a swap-slot bitmap behind a global lock for
/// Hermit).
///
/// With a replica table ([`SystemConfig::replication`]) pages live on
/// the [`REPLICA_NODES`] simulated memory nodes: writebacks are mirrored
/// to a primary + backup replica, reads route to a synced replica and
/// fail over when the primary's node is mid-crash, and a background
/// task re-replicates degraded pages after the node's recovery window —
/// so a node crash costs failover latency instead of `aborted_faults`.
/// Kept deliberately primary/backup-simple (bounded retry, no
/// consensus): the simulation has a single initiator per page at a time,
/// so the agreement problems that push real RDMA systems toward
/// replicated state machines never arise here.
pub struct FarBackend {
    sim: SimHandle,
    nic: Rc<Nic>,
    node: MemoryNode,
    slots: RemoteAllocator,
    replicas: Option<Rc<ReplicaTable>>,
}

impl FarBackend {
    /// Builds the backend for a machine with `remote_pages` of far memory
    /// from the system's NIC config, remote-slot policy and replication
    /// config. With replication on, spawns the crash monitor / repair
    /// task on `sim`; it runs until [`FarBackend::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics if the replication config carries more per-node fault plans
    /// than there are memory nodes.
    pub fn new(sim: SimHandle, cfg: &SystemConfig, remote_pages: u64) -> Self {
        let slots = match cfg.remote_alloc {
            RemoteAllocKind::DirectMap => RemoteAllocator::DirectMap,
            RemoteAllocKind::SwapLock => RemoteAllocator::Swap(Box::new(SwapBitmap::new(
                sim.clone(),
                remote_pages,
                cfg.costs.swap_slot_ns,
            ))),
        };
        let node_faults = cfg.replication.as_ref().map_or_else(Vec::new, |r| {
            assert!(
                r.node_faults.len() <= REPLICA_NODES,
                "{} per-node fault plans for {REPLICA_NODES} memory nodes",
                r.node_faults.len()
            );
            r.node_faults.clone()
        });
        let nic = Rc::new(Nic::with_node_faults(
            sim.clone(),
            cfg.nic.clone(),
            cfg.faults.clone(),
            node_faults,
        ));
        let replicas = cfg.replication.as_ref().map(|r| {
            let table = Rc::new(ReplicaTable {
                states: RefCell::new(PageMap::new()),
                stats: ReplicationStats::default(),
                stop: Cell::new(false),
                skip_backup_repairs: cfg.planted_bug == Some(PlantedBug::Rereplication),
            });
            sim.spawn(replication_monitor(
                sim.clone(),
                Rc::clone(&table),
                Rc::clone(&nic),
                r.repair_poll_ns.max(1),
            ));
            table
        });
        FarBackend {
            sim,
            nic,
            node: MemoryNode::new(
                remote_pages
                    .checked_mul(PAGE_SIZE)
                    .expect("remote capacity (remote_pages * PAGE_SIZE) overflows u64"),
            ),
            slots,
            replicas,
        }
    }

    /// Posts a one-sided read of the page stored in slot `rpn`; the
    /// completion resolves when the data has arrived. Replicated reads
    /// route to a synced replica's node by replica state only —
    /// reachability is *not* consulted, so a crash the monitor has not
    /// yet observed genuinely surfaces as `NodeUnreachable` to the retry
    /// layer, which then fails over.
    pub fn read(&self, rpn: u64) -> Completion {
        match &self.replicas {
            Some(table) => self
                .nic
                .post_read_to(table.home(rpn, table.synced_slot(rpn)), PAGE_SIZE),
            None => self.nic.post_read(PAGE_SIZE),
        }
    }

    /// Posts a one-sided write of the page stored in slot `rpn`; the
    /// completion resolves when the write is durable. Replicated writes
    /// are mirrored to both replicas' nodes and settle on the first
    /// durable copy.
    pub fn write(&self, rpn: u64) -> Completion {
        let Some(table) = &self.replicas else {
            return self.nic.post_write(PAGE_SIZE);
        };
        let now = self.sim.now();
        let c0 = self.nic.post_write_to(table.home(rpn, 0), PAGE_SIZE);
        let c1 = self.nic.post_write_to(table.home(rpn, 1), PAGE_SIZE);
        let oks = [c0.outcome().is_ok(), c1.outcome().is_ok()];
        for (slot, ok) in oks.iter().enumerate() {
            let to = if *ok {
                ReplicaState::Synced
            } else {
                ReplicaState::Degraded
            };
            table.set(rpn, slot, to);
        }
        // One durable copy settles the writeback; the degraded side is
        // the repair task's problem. Both sides failing falls through to
        // the engine's ordinary write-retry / requeue path.
        let at = c0.completes_at().max(c1.completes_at());
        let result = if oks[0] || oks[1] {
            Ok(())
        } else {
            Err(c0.outcome().unwrap_err())
        };
        Completion::compose(&self.sim, now, at, result, c0.node())
    }

    /// After a node-unreachable read failure on slot `rpn`, posts one
    /// read to an alternate synced, reachable replica if there is one.
    /// `None` (always, without replication) sends the caller down the
    /// ordinary retry path.
    pub fn failover_read(&self, rpn: u64) -> Option<Completion> {
        let table = self.replicas.as_ref()?;
        let s = table.get(rpn)?;
        let slot = (0..2).find(|&i| {
            s[i] == ReplicaState::Synced && self.nic.node_reachable(table.home(rpn, i))
        })?;
        Some(self.nic.post_read_to(table.home(rpn, slot), PAGE_SIZE))
    }

    /// Resolves the backend slot for an eviction of a page whose VMA
    /// direct-maps it to `direct_rpn`. Returns `None` when the backend is
    /// out of capacity (the engine then skips the candidate).
    pub async fn alloc_slot(&self, direct_rpn: u64) -> Option<u64> {
        let rpn = self.slots.alloc_for(direct_rpn).await?;
        if let Some(table) = &self.replicas {
            // Fresh slots hold no data yet; the mirrored writeback that
            // follows promotes both replicas. Already-tracked slots (a
            // direct-mapped page re-evicted clean) keep their states.
            table.track(rpn, [ReplicaState::Degraded, ReplicaState::Degraded]);
        }
        Some(rpn)
    }

    /// Releases a slot when its page is faulted back in. Direct mapping
    /// keeps the address-derived slot (and its replicas) reserved.
    pub async fn release_slot(&self, rpn: u64) {
        self.slots.release(rpn).await;
        if let Some(table) = &self.replicas {
            if self.writes_clean_pages() {
                // The slot returns to a pool; its replicas die with it.
                table.untrack(rpn);
            }
        }
    }

    /// Synchronously allocates a slot during setup (no virtual time).
    /// Setup-time seeding is wire-free and lands on every replica.
    pub fn seed_slot(&self, direct_rpn: u64) -> Option<u64> {
        let rpn = self.slots.seed_for(direct_rpn)?;
        if let Some(table) = &self.replicas {
            table.track(rpn, [ReplicaState::Synced, ReplicaState::Synced]);
        }
        Some(rpn)
    }

    /// Whether clean pages must be written on eviction because their
    /// previous backend copy is no longer addressable (fresh slot per
    /// eviction). Direct mapping keeps clean copies valid and skips the
    /// write.
    pub fn writes_clean_pages(&self) -> bool {
        self.slots.is_synchronized()
    }

    /// The transfer link (bandwidth/latency model and transfer stats).
    pub fn link(&self) -> &Rc<Nic> {
        &self.nic
    }

    /// The passive node's capacity bookkeeping.
    pub fn node(&self) -> &MemoryNode {
        &self.node
    }

    /// Replica states of slot `rpn` in slot order (primary first), if the
    /// backend replicates and tracks that slot.
    pub fn replica_states(&self, rpn: u64) -> Option<[ReplicaState; 2]> {
        self.replicas.as_ref()?.get(rpn)
    }

    /// Replication counters, if the backend replicates.
    pub fn replication_stats(&self) -> Option<&ReplicationStats> {
        self.replicas.as_ref().map(|t| &t.stats)
    }

    /// Number of tracked slots currently carrying at least one degraded
    /// replica (always 0 without replication).
    pub fn degraded_pages(&self) -> u64 {
        self.replicas.as_ref().map_or(0, |t| t.degraded_pages())
    }

    /// Number of slots the backend currently tracks replica state for
    /// (always 0 without replication). Host metadata must stay
    /// proportional to this — touched slots — never to the largest slot
    /// number; the sparse-space regression tests assert it.
    pub fn replica_entries(&self) -> u64 {
        self.replicas.as_ref().map_or(0, |t| t.entries())
    }

    /// Stops the re-replication monitor, if any; called once from engine
    /// shutdown.
    pub fn shutdown(&self) {
        if let Some(table) = &self.replicas {
            table.stop.set(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;

    #[test]
    fn direct_map_backend_is_free() {
        let sim = Simulation::new();
        let cfg = SystemConfig::mage_lib();
        let be = Rc::new(FarBackend::new(sim.handle(), &cfg, 1_024));
        let b = Rc::clone(&be);
        sim.block_on(async move {
            assert_eq!(b.alloc_slot(77).await, Some(77), "address-derived slot");
            b.release_slot(77).await;
        });
        assert_eq!(sim.run().as_nanos(), 0, "no virtual time consumed");
        assert!(!be.writes_clean_pages());
        assert_eq!(be.seed_slot(5), Some(5));
    }

    #[test]
    fn swap_lock_backend_allocates() {
        let sim = Simulation::new();
        let cfg = SystemConfig::hermit();
        let be = Rc::new(FarBackend::new(sim.handle(), &cfg, 8));
        let b = Rc::clone(&be);
        sim.block_on(async move {
            let slot = b.alloc_slot(999).await.expect("capacity");
            assert_ne!(slot, 999, "bitmap slot, not the direct rpn");
        });
        assert!(be.writes_clean_pages());
    }

    use mage_fabric::TransferError;

    fn replicated(
        sim: &Simulation,
        node_faults: Vec<FaultPlan>,
        skip_backup_repairs: bool,
    ) -> Rc<FarBackend> {
        let mut cfg = SystemConfig::mage_lib().with_replication(ReplicationConfig {
            node_faults,
            ..ReplicationConfig::default()
        });
        if skip_backup_repairs {
            cfg = cfg.with_planted_bug(PlantedBug::Rereplication);
        }
        Rc::new(FarBackend::new(sim.handle(), &cfg, 1_024))
    }

    #[test]
    fn replica_state_machine_legality() {
        use ReplicaState::*;
        for (from, to, legal) in [
            (Synced, Degraded, true),
            (Degraded, Synced, true),
            (Degraded, Rebuilding, true),
            (Rebuilding, Synced, true),
            (Rebuilding, Degraded, true),
            (Synced, Rebuilding, false),
        ] {
            assert_eq!(ReplicaState::legal_transition(from, to), legal, "{from:?}→{to:?}");
        }
    }

    #[test]
    fn mirrored_writeback_promotes_both_replicas() {
        let sim = Simulation::new();
        let be = replicated(&sim, Vec::new(), false);
        let b = Rc::clone(&be);
        sim.block_on(async move {
            let rpn = b.alloc_slot(6).await.expect("capacity");
            assert_eq!(
                b.replica_states(rpn),
                Some([ReplicaState::Degraded, ReplicaState::Degraded]),
                "fresh slot holds no data yet"
            );
            let c = b.write(rpn);
            assert!(c.outcome().is_ok(), "mirror merged Ok");
            c.await.unwrap();
            assert_eq!(
                b.replica_states(rpn),
                Some([ReplicaState::Synced, ReplicaState::Synced])
            );
            b.shutdown();
        });
        sim.run();
        assert_eq!(be.degraded_pages(), 0);
    }

    #[test]
    fn seeded_slots_start_fully_synced() {
        let sim = Simulation::new();
        let be = replicated(&sim, Vec::new(), false);
        let rpn = be.seed_slot(9).expect("capacity");
        assert_eq!(
            be.replica_states(rpn),
            Some([ReplicaState::Synced, ReplicaState::Synced])
        );
        assert!(be.failover_read(12_345).is_none(), "untracked slot");
    }

    #[test]
    fn failover_read_survives_a_primary_outage() {
        let sim = Simulation::new();
        // Node 0 is down for the first 50 µs of every 1 ms period; node 1
        // never blinks.
        let plans = vec![
            FaultPlan::staggered_node_crash(7, 0, 2, 1_000_000, 50_000),
            FaultPlan::none(),
        ];
        let be = replicated(&sim, plans, false);
        let b = Rc::clone(&be);
        sim.block_on(async move {
            // rpn 0: primary homes on node 0 (down), backup on node 1.
            let rpn = b.seed_slot(0).expect("capacity");
            let primary = b.read(rpn);
            assert_eq!(
                primary.outcome(),
                Err(TransferError::NodeUnreachable),
                "reads route by state, so the crash surfaces to the caller"
            );
            let alt = b.failover_read(rpn).expect("backup replica reachable");
            alt.await.expect("failover read completes");
            b.shutdown();
        });
        sim.run();
    }

    #[test]
    fn monitor_degrades_and_repairs_after_recovery() {
        let sim = Simulation::new();
        let plans = vec![
            FaultPlan::staggered_node_crash(7, 0, 2, 1_000_000, 50_000),
            FaultPlan::none(),
        ];
        let be = replicated(&sim, plans, false);
        let b = Rc::clone(&be);
        let h = sim.handle();
        sim.block_on(async move {
            let rpn = b.seed_slot(0).expect("capacity");
            // Mid-outage: the monitor has marked node 0's replica wiped.
            h.sleep(30_000).await;
            assert_eq!(
                b.replica_states(rpn),
                Some([ReplicaState::Degraded, ReplicaState::Synced])
            );
            assert_eq!(b.degraded_pages(), 1);
            // Well past recovery (+ repair poll + copy): re-replicated.
            h.sleep(200_000).await;
            assert_eq!(
                b.replica_states(rpn),
                Some([ReplicaState::Synced, ReplicaState::Synced])
            );
            assert_eq!(b.degraded_pages(), 0);
            let stats = b.replication_stats().unwrap();
            assert!(stats.rereplicated_pages.get() >= 1);
            assert_eq!(stats.illegal_transitions.get(), 0);
            b.shutdown();
        });
        sim.run();
    }

    #[test]
    fn broken_rereplication_leaves_backup_slots_degraded() {
        let sim = Simulation::new();
        // Node 1 blinks once: rpn 0's *backup* replica (slot 1) homes
        // there and gets wiped.
        let plans = vec![
            FaultPlan::none(),
            FaultPlan::staggered_node_crash(7, 0, 2, 1_000_000, 50_000),
        ];
        let be = replicated(&sim, plans, true);
        let b = Rc::clone(&be);
        let h = sim.handle();
        sim.block_on(async move {
            let rpn = b.seed_slot(0).expect("capacity");
            h.sleep(400_000).await;
            assert_eq!(
                b.replica_states(rpn),
                Some([ReplicaState::Synced, ReplicaState::Degraded]),
                "planted bug: backup-slot repairs are silently skipped"
            );
            assert_eq!(b.replication_stats().unwrap().rereplicated_pages.get(), 0);
            b.shutdown();
        });
        sim.run();
    }
}

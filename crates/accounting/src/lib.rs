//! Page accounting: tracking residency and choosing eviction victims.
//!
//! Page accounting is the most update-intensive structure in a far-memory
//! system — both the fault-in path (inserting freshly faulted pages,
//! `FP₃`) and the eviction path (scanning for victims, `EP₁`) hammer it,
//! and the paper identifies contention on the system-wide LRU list as
//! Challenge 2 (§3.3.2). The one structure here covers the designs the
//! paper compares through its partition count:
//!
//! - **1 partition** — one active/inactive LRU pair behind a single lock
//!   (Linux / Hermit / DiLOS);
//! - **n partitions** — MAGE's per-evictor partitioned lists: insertion
//!   hashes the faulting CPU id to a partition, evictors scan partitions
//!   round-robin from staggered starting indices (§4.2.2); accuracy is
//!   deliberately traded for lock locality.
//!
//! Each partition holds a probation list and a protected list. Every scan
//! asks a caller-supplied probe closure about each candidate; survivors
//! move to the protected list. How a candidate is judged — the
//! accessed-bit recheck, or none at all for MAGE-Lnx's FIFO queues (§5.1)
//! — is the probe's business, so this crate stays independent of the
//! page-table representation and of the eviction policy.
//!
//! Every queue here — both lists of every partition and the ghost
//! list's ring — is one page FIFO stored in blocks of 512 page numbers,
//! freed as they drain, so list memory follows the resident set rather
//! than its peak. A block holds 4-byte words (2 KiB) until it stores a
//! page number of 2^32 or more, and 8-byte words (4 KiB) from then on.
//! Push and pop are O(1); the ghost list's membership is a `PageMap`
//! lookup.

use std::cell::{Cell, RefCell};
use std::ops::Range;

use mage_sim::slab::PageMap;
use mage_sim::stats::Counter;
use mage_sim::sync::SimMutex;
use mage_sim::time::Nanos;
use mage_sim::SimHandle;

mod fifo;

use fifo::PageFifo;

/// Service-time constants for accounting operations (virtual ns).
#[derive(Clone, Debug)]
pub struct AccountingCosts {
    /// List push/pop/move under the partition lock.
    pub list_op_ns: Nanos,
    /// Per-page cost of splicing pages off a list *under* the lock
    /// (pointer manipulation only, like Linux `isolate_lru_pages`).
    pub pop_per_page_ns: Nanos,
    /// Per-page accessed-bit check during a scan (performed *off* the
    /// lock, on pages already isolated).
    pub scan_per_page_ns: Nanos,
}

impl Default for AccountingCosts {
    fn default() -> Self {
        AccountingCosts {
            list_op_ns: 200,
            pop_per_page_ns: 30,
            scan_per_page_ns: 150,
        }
    }
}

#[derive(Default)]
struct Lists {
    /// The probationary (inactive) list; S3-FIFO's *small* queue.
    inactive: PageFifo,
    /// The protected (active) list; S3-FIFO's *main* queue.
    active: PageFifo,
}

/// A bounded FIFO of recently evicted pages — the S3-FIFO ghost queue
/// (SOSP '23), kept by every accounting structure as the engine's
/// *re-fault detector*: a page that faults back in while still on the
/// ghost list was evicted too early.
///
/// When [`PageAccounting::new`] is asked to promote ghost hits, the ghost
/// additionally drives placement (a ghost hit is admitted straight to the
/// protected list); otherwise it is measurement-only, so the default
/// paths keep their schedules bit-for-bit (membership updates are
/// synchronous — no locks, no virtual time).
///
/// Every record appends the page to a ring and stamps it with a
/// sequence number; a ring entry's stamp is implied by its position
/// (the front's stamp plus its offset). A `PageMap` holds each
/// remembered page's latest stamp, so `record`, `take` and `contains`
/// are expected O(1). A taken or re-recorded page leaves its older
/// ring entry behind as *stale*: its stamp no longer matches the map.
/// Trimming to the bound skips stale entries and drops the oldest live
/// page, and once stale entries make the ring longer than twice the
/// bound, one rebuild drops them all (amortized O(1)).
pub struct GhostList {
    cap: usize,
    /// Records, oldest first, stale ones included.
    ring: PageFifo,
    /// Stamp of the ring's front entry.
    front_stamp: u32,
    /// Each remembered page's latest stamp.
    live: PageMap<u32>,
}

impl std::fmt::Debug for GhostList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GhostList")
            .field("cap", &self.cap)
            .field("len", &self.len())
            .field("ring_len", &self.ring.len())
            .finish()
    }
}

impl GhostList {
    /// The default capacity, matching the historical per-structure bound.
    pub const DEFAULT_CAP: usize = 4_096;

    /// An empty ghost list bounded at `cap` pages (`0` disables it).
    ///
    /// # Panics
    /// If `cap` exceeds 2^30, where `u32` stamps could wrap within the
    /// ring.
    pub fn new(cap: usize) -> Self {
        assert!(cap <= 1 << 30, "ghost list bound {cap} exceeds 2^30");
        GhostList {
            cap,
            ring: PageFifo::default(),
            front_stamp: 0,
            live: PageMap::new(),
        }
    }

    /// Remembers `vpn` as recently evicted. Re-recording a page refreshes
    /// its position (it ages from the back of the queue again); the
    /// oldest page falls off once the bound is exceeded.
    pub fn record(&mut self, vpn: u64) {
        if self.cap == 0 {
            return;
        }
        let stamp = self.front_stamp.wrapping_add(self.ring.len() as u32);
        self.live.insert(vpn, stamp);
        self.ring.push_back(vpn);
        if self.live.len() > self.cap {
            // Skip stale entries up to the oldest live page; drop it.
            while !self.pop_front_entry() {}
        }
        if self.ring.len() > 2 * self.cap {
            self.drop_stale();
        }
    }

    /// Pops the ring's front entry. If it was live, forgets its page
    /// and returns `true`; a stale entry returns `false`.
    fn pop_front_entry(&mut self) -> bool {
        let vpn = self.ring.pop_front().expect("a live page is on the ring");
        let stamp = self.front_stamp;
        self.front_stamp = stamp.wrapping_add(1);
        let live = self.live.get(vpn) == Some(&stamp);
        if live {
            self.live.remove(vpn);
        }
        live
    }

    /// Rebuilds the ring from its live entries, in order, and re-stamps
    /// them to match their new positions.
    fn drop_stale(&mut self) {
        let old = std::mem::take(&mut self.ring);
        for (offset, vpn) in old.iter().enumerate() {
            let old_stamp = self.front_stamp.wrapping_add(offset as u32);
            if let Some(stamp) = self.live.get_mut(vpn).filter(|s| **s == old_stamp) {
                *stamp = self.front_stamp.wrapping_add(self.ring.len() as u32);
                self.ring.push_back(vpn);
            }
        }
    }

    /// Consumes a ghost hit: removes `vpn` and reports whether it was
    /// present (i.e. whether this insert is a re-fault).
    pub fn take(&mut self, vpn: u64) -> bool {
        self.live.remove(vpn).is_some()
    }

    /// Whether `vpn` is currently remembered.
    pub fn contains(&self, vpn: u64) -> bool {
        self.live.contains_key(vpn)
    }

    /// Pages currently remembered.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Aggregate accounting statistics.
#[derive(Default)]
pub struct AccountingStats {
    /// Pages inserted (fault-in or reactivation re-insert).
    pub inserts: Counter,
    /// Pages examined during scans.
    pub scanned: Counter,
    /// Pages found hot and rotated back (second chance).
    pub reactivated: Counter,
    /// Victims handed to the evictor.
    pub victims: Counter,
}

/// The page-accounting structure of a running system.
pub struct PageAccounting {
    sim: SimHandle,
    /// Whether a ghost-hit insert skips probation (S3-FIFO's admission).
    promote_ghost_hits: bool,
    costs: AccountingCosts,
    partitions: Vec<SimMutex<Lists>>,
    /// Engine-wide re-fault detector (see [`GhostList`]). Updated
    /// synchronously so it never perturbs the event schedule.
    ghost: RefCell<GhostList>,
    resident: Cell<u64>,
    stats: AccountingStats,
}

impl PageAccounting {
    /// Creates an accounting structure with `partitions` independent
    /// lists (at least one). With `promote_ghost_hits`, a page that faults
    /// back while still on the ghost list is admitted straight to the
    /// protected list (S3-FIFO's ghost-to-main rule).
    pub fn new(
        sim: SimHandle,
        partitions: usize,
        promote_ghost_hits: bool,
        costs: AccountingCosts,
    ) -> Self {
        PageAccounting {
            promote_ghost_hits,
            costs,
            partitions: (0..partitions.max(1))
                .map(|_| SimMutex::new("accounting.lists", Lists::default()))
                .collect(),
            ghost: RefCell::new(GhostList::new(GhostList::DEFAULT_CAP)),
            resident: Cell::new(0),
            stats: AccountingStats::default(),
            sim,
        }
    }

    /// Pages currently tracked.
    pub fn resident_pages(&self) -> u64 {
        self.resident.get()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &AccountingStats {
        &self.stats
    }

    fn partition_for_insert(&self, core: usize) -> usize {
        // Paper §4.2.2: hash of the current CPU id modulo list count.
        (mage_sim::rng::mix64(core as u64) as usize) % self.partitions.len()
    }

    /// Synchronously seeds the resident pages `vpns` during setup, round
    /// robin over `cores` cores: page `vpns.start + i` goes where an insert
    /// from core `(first_core + i) % cores` would, so each partition's
    /// list gets its pages in vpn order (no virtual time passes, no
    /// statistics recorded).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn seed(&self, vpns: Range<u64>, first_core: usize, cores: usize) {
        assert!(cores > 0, "seeding round robin over zero cores");
        // The partition of each offset in one round-robin period.
        let period: Vec<usize> = (0..cores)
            .map(|k| self.partition_for_insert((first_core + k) % cores))
            .collect();
        for (idx, partition) in self.partitions.iter().enumerate() {
            let offsets: Vec<u64> = (0..cores as u64)
                .filter(|&k| period[k as usize] == idx)
                .collect();
            if offsets.is_empty() {
                continue;
            }
            partition.with_sync(|lists| {
                for start in vpns.clone().step_by(cores) {
                    let pages = offsets.iter().map(|&k| start + k);
                    lists
                        .inactive
                        .extend(pages.take_while(|&vpn| vpn < vpns.end));
                }
            });
        }
        self.resident
            .set(self.resident.get() + (vpns.end - vpns.start));
    }

    /// Records a page as resident (`FP₃`) and reports whether the insert
    /// is a *re-fault* — the page was still on the ghost list of recently
    /// evicted pages, i.e. it was evicted too early.
    ///
    /// `core` is the CPU of the inserting thread; it selects the target
    /// partition. The ghost check is synchronous and always happens; only
    /// a structure built to promote ghost hits also acts on it (the page
    /// skips probation), so the others keep their event schedules
    /// bit-for-bit.
    pub async fn insert(&self, core: usize, vpn: u64) -> bool {
        let ghost_hit = self.ghost.borrow_mut().take(vpn);
        let idx = self.partition_for_insert(core);
        let mut lists = self.partitions[idx].lock().await;
        self.sim.sleep(self.costs.list_op_ns).await;
        if ghost_hit && self.promote_ghost_hits {
            // The page was recently evicted and is back: protect it.
            lists.active.push_back(vpn);
        } else {
            lists.inactive.push_back(vpn);
        }
        drop(lists);
        self.resident.set(self.resident.get() + 1);
        self.stats.inserts.inc();
        ghost_hit
    }

    /// Selects up to `want` victim pages for evictor `evictor_id` on its
    /// `round`-th scan cycle (`EP₁`).
    ///
    /// Pages are spliced off the list in batches *under* the lock (cheap
    /// pointer work, like Linux's `isolate_lru_pages`), then the probe
    /// runs *off* the lock; pages it keeps get a second chance on the
    /// protected list.
    ///
    /// `probe` reads **and ages** the page's reference state (for the
    /// default second-chance policy: read-and-clear the PTE accessed
    /// bit); `true` keeps the page resident for another round.
    pub async fn take_victims(
        &self,
        evictor_id: usize,
        round: usize,
        want: usize,
        probe: &dyn Fn(u64) -> bool,
        out: &mut Vec<u64>,
    ) {
        let n = self.partitions.len();
        let before = out.len();
        let target = before + want;
        // Staggered start + round-robin over partitions (§4.2.2). Allow a
        // few passes so second-chance rejections don't under-fill.
        let mut idx = (evictor_id + round) % n;
        let mut tried = 0;
        let max_tries = n * 3;
        // Bound the total scan work per call so that a reactivation-heavy
        // (hot) list cannot stall the evictor for an unbounded time.
        let mut scan_budget = want * 4;
        while out.len() < target && tried < max_tries && scan_budget > 0 {
            let isolated = self
                .isolate(idx, (target - out.len()).min(scan_budget))
                .await;
            scan_budget = scan_budget.saturating_sub(isolated.len());
            if isolated.is_empty() {
                idx = (idx + 1) % n;
                tried += 1;
                continue;
            }
            // Probe the candidates off the lock.
            let mut hot = Vec::new();
            for vpn in isolated {
                self.sim.sleep(self.costs.scan_per_page_ns).await;
                self.stats.scanned.inc();
                if probe(vpn) {
                    hot.push(vpn);
                } else {
                    out.push(vpn);
                }
            }
            if !hot.is_empty() {
                self.stats.reactivated.add(hot.len() as u64);
                let mut lists = self.partitions[idx].lock().await;
                self.sim
                    .sleep(self.costs.list_op_ns + self.costs.pop_per_page_ns * hot.len() as u64)
                    .await;
                lists.active.extend(hot);
            }
            idx = (idx + 1) % n;
            tried += 1;
        }
        let taken = (out.len() - before) as u64;
        if taken > 0 {
            // Remember the victims so a quick re-fault is detectable (and,
            // when ghost hits are promoted, protected). Synchronous: no
            // lock, no virtual time, so the schedule is unchanged. Pages
            // evicted without passing through this scan path (e.g. direct
            // removal) bypass the detector.
            let mut ghost = self.ghost.borrow_mut();
            for &vpn in &out[before..] {
                ghost.record(vpn);
            }
        }
        self.resident.set(self.resident.get().saturating_sub(taken));
        self.stats.victims.add(taken);
    }

    /// Pages currently on the ghost (recently-evicted) list.
    pub fn ghost_len(&self) -> usize {
        self.ghost.borrow().len()
    }

    /// Whether `vpn` is currently on the ghost list.
    pub fn ghost_contains(&self, vpn: u64) -> bool {
        self.ghost.borrow().contains(vpn)
    }

    /// Snapshot of every partition's `(probationary, protected)` queues,
    /// for tests and debugging only (synchronous; panics if a partition
    /// lock is held).
    pub fn queues_snapshot(&self) -> Vec<(Vec<u64>, Vec<u64>)> {
        self.partitions
            .iter()
            .map(|p| {
                p.with_sync(|lists| {
                    (
                        lists.inactive.iter().collect(),
                        lists.active.iter().collect(),
                    )
                })
            })
            .collect()
    }

    /// Splices up to `want` pages off partition `idx` under its lock,
    /// refilling the inactive list from the active list if needed.
    async fn isolate(&self, idx: usize, want: usize) -> Vec<u64> {
        let mut lists = self.partitions[idx].lock().await;
        if lists.inactive.len() < want && !lists.active.is_empty() {
            // Demote from the active list to refill (bounded splice).
            let move_n = lists.active.len().min(want * 2);
            for _ in 0..move_n {
                let vpn = lists.active.pop_front().expect("non-empty");
                lists.inactive.push_back(vpn);
            }
            self.sim
                .sleep(self.costs.pop_per_page_ns * move_n as u64)
                .await;
        }
        let take = lists.inactive.len().min(want);
        let mut isolated = Vec::with_capacity(take);
        for _ in 0..take {
            isolated.push(lists.inactive.pop_front().expect("non-empty"));
        }
        self.sim
            .sleep(self.costs.list_op_ns + self.costs.pop_per_page_ns * take as u64)
            .await;
        isolated
    }

    /// Forgets `vpn` without evicting it (e.g. on unmap). Linear scan;
    /// only used on cold paths and in tests.
    pub async fn remove(&self, vpn: u64) -> bool {
        for p in &self.partitions {
            let mut lists = p.lock().await;
            if lists.inactive.remove(vpn) || lists.active.remove(vpn) {
                self.resident.set(self.resident.get() - 1);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;
    use std::rc::Rc;

    fn rig(partitions: usize, promote_ghost_hits: bool) -> (Simulation, Rc<PageAccounting>) {
        let sim = Simulation::new();
        let acc = Rc::new(PageAccounting::new(
            sim.handle(),
            partitions,
            promote_ghost_hits,
            AccountingCosts::default(),
        ));
        (sim, acc)
    }

    #[test]
    fn insert_then_evict_fifo_order() {
        let (sim, acc) = rig(1, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..10 {
                a.insert(0, vpn).await;
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 4, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1, 2, 3], "oldest first");
            assert_eq!(a.resident_pages(), 6);
        });
    }

    /// The run form queues every page where an insert from its
    /// round-robin core would, and in the same order.
    #[test]
    fn seed_places_pages_where_inserts_would() {
        for (partitions, cores) in [(1, 1), (1, 4), (8, 4), (8, 24), (3, 5)] {
            for (first_core, pages) in [(0, 0), (0, 1), (3, 23), (0, 24), (7, 25), (1, 1_000)] {
                let first_core = first_core % cores;
                let vpns = 100..100 + pages;
                let (_sim, seeded) = rig(partitions, false);
                seeded.seed(vpns.clone(), first_core, cores);
                let (sim, inserted) = rig(partitions, false);
                let a = Rc::clone(&inserted);
                let v = vpns.clone();
                sim.block_on(async move {
                    for (i, vpn) in v.enumerate() {
                        a.insert((first_core + i) % cores, vpn).await;
                    }
                });
                let ctx = format!("{partitions} partitions, {cores} cores, {first_core}+{pages}");
                assert_eq!(
                    seeded.queues_snapshot(),
                    inserted.queues_snapshot(),
                    "{ctx}"
                );
                assert_eq!(seeded.resident_pages(), pages, "{ctx}");
            }
        }
    }

    #[test]
    fn hot_pages_get_second_chance() {
        let (sim, acc) = rig(1, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..6 {
                a.insert(0, vpn).await;
            }
            // Pages 0 and 1 are hot on first inspection only.
            let hot = std::cell::RefCell::new(vec![0u64, 1]);
            let is_hot = |vpn: u64| {
                let mut hot = hot.borrow_mut();
                let pos = hot.iter().position(|&v| v == vpn);
                pos.map(|i| hot.swap_remove(i)).is_some()
            };
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![2, 3], "hot pages skipped");
            assert_eq!(a.stats().reactivated.get(), 2);
            // Next scan drains 4, 5 then wraps to the reactivated pages.
            victims.clear();
            a.take_victims(0, 1, 4, &is_hot, &mut victims).await;
            assert_eq!(victims, vec![4, 5, 0, 1]);
        });
    }

    #[test]
    fn partitioned_insert_spreads_by_core() {
        let (sim, acc) = rig(4, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for core in 0..32usize {
                a.insert(core, core as u64).await;
            }
        });
        // All four partitions should have received pages.
        let counts: Vec<usize> = acc
            .queues_snapshot()
            .iter()
            .map(|(probation, protected)| probation.len() + protected.len())
            .collect();
        assert!(counts.iter().all(|&c| c > 0), "uneven spread: {counts:?}");
        assert_eq!(acc.resident_pages(), 32);
    }

    #[test]
    fn round_robin_scans_cover_all_partitions() {
        let (sim, acc) = rig(4, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for core in 0..64usize {
                a.insert(core, core as u64).await;
            }
            // One evictor must be able to drain everything even though
            // its start partition rotates.
            let mut victims = Vec::new();
            for round in 0..8 {
                a.take_victims(0, round, 8, &|_| false, &mut victims).await;
            }
            assert_eq!(victims.len(), 64);
            assert_eq!(a.resident_pages(), 0);
        });
    }

    #[test]
    fn partitioned_lru_reduces_lock_waiting() {
        // 8 inserters + 2 scanners on 1 vs 8 partitions: the inserters'
        // aggregated lock wait must drop with partitioning. An insert
        // holds its partition for `list_op_ns`, so whatever else it
        // takes on the inserter's clock is lock wait.
        fn run(partitions: usize) -> u64 {
            let (sim, acc) = rig(partitions, false);
            let waited = Rc::new(Cell::new(0u64));
            for core in 0..8usize {
                let (a, waited, h) = (Rc::clone(&acc), Rc::clone(&waited), sim.handle());
                sim.spawn(async move {
                    for i in 0..50u64 {
                        let t0 = h.now();
                        a.insert(core, core as u64 * 1000 + i).await;
                        let took = h.now().saturating_since(t0);
                        waited.set(waited.get() + took - a.costs.list_op_ns);
                    }
                });
            }
            for e in 0..2usize {
                let a = Rc::clone(&acc);
                sim.spawn(async move {
                    let mut v = Vec::new();
                    for round in 0..10 {
                        a.take_victims(e, round, 10, &|_| false, &mut v).await;
                    }
                });
            }
            sim.run();
            waited.get()
        }
        let global = run(1);
        let partitioned = run(8);
        assert!(
            partitioned * 2 < global,
            "partitioned {partitioned} vs global {global}"
        );
    }

    #[test]
    fn promoted_ghost_hits_skip_probation() {
        let (sim, acc) = rig(1, true);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                a.insert(0, vpn).await;
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1]);
            // Page 0 refaults: the ghost hit must admit it to the protected
            // list, so the next probation scan prefers 2 and 3.
            assert!(a.insert(0, 0).await, "refault must report a ghost hit");
            victims.clear();
            a.take_victims(0, 1, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![2, 3], "ghost-promoted page protected");
        });
    }

    #[test]
    fn ghost_detects_refaults_without_promotion() {
        // The ghost list is measurement-only unless ghost hits are
        // promoted, but the re-fault signal must still fire.
        let (sim, acc) = rig(1, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            for vpn in 0..4 {
                assert!(!a.insert(0, vpn).await, "fresh insert is no re-fault");
            }
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![0, 1]);
            assert_eq!(a.ghost_len(), 2);
            assert!(a.ghost_contains(0) && a.ghost_contains(1));
            assert!(a.insert(0, 0).await, "refault detected");
            assert!(!a.ghost_contains(0), "ghost hit is consumed");
            // Placement is unchanged without promotion: page 0 sits at the
            // probationary tail, not on the protected list.
            let snap = a.queues_snapshot();
            assert_eq!(snap[0].0, vec![2, 3, 0]);
            assert!(snap[0].1.is_empty());
        });
    }

    #[test]
    fn ghost_list_is_bounded_and_consistent() {
        let mut g = GhostList::new(4);
        for vpn in 0..10 {
            g.record(vpn);
        }
        assert_eq!(g.len(), 4);
        assert!((6..10).all(|v| g.contains(v)));
        // Re-recording refreshes the position instead of duplicating.
        g.record(6);
        assert_eq!(g.len(), 4);
        g.record(100);
        assert!(g.contains(6), "refreshed entry outlives older ones");
        assert!(!g.contains(7), "oldest entry displaced");
        assert!(g.take(6));
        assert!(!g.take(6), "hit consumed");
        assert_eq!(g.len(), 3);
        // Re-records and takes of fewer pages than the bound never trim,
        // so only rebuilds keep the stale entries they leave within
        // twice the bound.
        let mut g = GhostList::new(4);
        for vpn in 0..1_000 {
            g.record(vpn % 3);
            if vpn.is_multiple_of(4) {
                g.take(vpn % 3);
            }
            assert!(g.ring.len() <= 2 * g.capacity(), "ring {} entries", g.ring.len());
        }
    }

    #[test]
    fn remove_forgets_page() {
        let (sim, acc) = rig(1, false);
        let a = Rc::clone(&acc);
        sim.block_on(async move {
            a.insert(0, 7).await;
            a.insert(0, 8).await;
            assert!(a.remove(7).await);
            assert!(!a.remove(7).await, "already removed");
            let mut victims = Vec::new();
            a.take_victims(0, 0, 2, &|_| false, &mut victims).await;
            assert_eq!(victims, vec![8]);
        });
    }
}

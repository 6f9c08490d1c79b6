//! `simsan` — a deterministic happens-before data-race detector for the
//! simulated machine.
//!
//! The executor is single-threaded, so nothing here is a host-level data
//! race: what `simsan` detects is a race *in the simulated machine's
//! synchronization protocol*. Two accesses to the same shadow-tracked
//! word (a PTE) race when neither is ordered before the other by the
//! happens-before relation built from the sim-core primitives: executor
//! spawn, plus the `SimMutex` handoff, the `WaitQueue` wake and the
//! join, each one `sync::Edge` that also carries the task clocks. A
//! protocol bug that would corrupt state on real hardware (e.g.
//! publishing a PTE after waking its waiters) shows up here as an
//! unordered pair even though the single-threaded simulation happens to
//! serialize it.
//!
//! The algorithm is FastTrack-style: each logical task carries a vector
//! clock; each synchronization object carries a clock joined on release
//! and acquired on acquire; each shadow word stores its last write as an
//! *epoch* (`task@clock`, the fast path) and its reads as an epoch that
//! demotes to a full per-task map only when reads are genuinely
//! concurrent. Everything is keyed by *logical* task ids (monotone,
//! never reused — executor slots are recycled) and stamped with virtual
//! time (the accessing task's own clock, read through the executor's
//! running-executor thread-local), so reports are deterministic: the
//! same seed produces the same race at the same virtual timestamp with
//! the same two sites.
//!
//! Like the tracer, the detector is **zero-overhead when disabled**:
//! components hold an `Option<Rc<RaceDetector>>` (or a [`ShadowRegion`]
//! wrapping one) and every hook is gated on a single branch. The
//! detector never awaits, never advances virtual time and never draws
//! randomness, so an *enabled* run still executes the exact same
//! schedule — asserted by `tests/simsan.rs`.
//!
//! Two access classes exist, plus the word-lock edges:
//!
//! - [`ShadowRegion::on_read`] / [`ShadowRegion::on_write`] — plain
//!   accesses that must be ordered by happens-before edges;
//! - [`ShadowRegion::lock`] / [`ShadowRegion::unlock`] /
//!   [`ShadowRegion::publish`] — per-index acquire/release edges for
//!   word-granular protocols like the PTE lock bit.
//!
//! An access the detector could never report on (a lock-free
//! `READ_ONCE`-style PTE read, a TLB fill, a stats bump) is not
//! annotated at all.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::Location;
use std::rc::Rc;

use crate::executor::{self, ExecCore};
use crate::time::Nanos;
use crate::SimHandle;

/// Logical task id: assigned monotonically at spawn, never reused
/// (executor slot ids are recycled; these are not). Id 0 is the main
/// (block-on) context.
pub type Lid = u32;

/// The main context's logical id.
pub const MAIN_LID: Lid = 0;

/// A vector clock over logical task ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u32>);

impl VClock {
    /// Component for task `t` (0 if never recorded).
    pub fn get(&self, t: Lid) -> u32 {
        self.0.get(t as usize).copied().unwrap_or(0)
    }

    fn set(&mut self, t: Lid, v: u32) {
        let i = t as usize;
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    fn bump(&mut self, t: Lid) {
        let v = self.get(t) + 1;
        self.set(t, v);
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, &b) in self.0.iter_mut().zip(other.0.iter()) {
            if *a < b {
                *a = b;
            }
        }
    }

    /// Does this clock cover epoch `c` of task `t` (i.e. is that access
    /// ordered before the clock's owner)?
    pub fn covers(&self, t: Lid, c: u32) -> bool {
        c <= self.get(t)
    }

    /// Compact rendering of the non-zero components: `{0:3 2:7}`.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (t, &c) in self.0.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(' ');
            }
            first = false;
            out.push_str(&format!("{t}:{c}"));
        }
        out.push('}');
        out
    }
}

/// Whether a recorded access was a read or a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A plain shadow-checked read.
    Read,
    /// A plain shadow-checked write.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// One recorded shadow access: who, when (virtual time and epoch) and
/// where (source site). A shadow word keeps these epochs only, as
/// FastTrack does; a vector clock is copied only into a report.
#[derive(Clone, Copy, Debug)]
pub struct AccessInfo {
    /// Read or write.
    pub kind: AccessKind,
    /// Logical task id of the accessor.
    pub task: Lid,
    /// The accessor's epoch (its own clock component) at the access.
    pub epoch: u32,
    /// Source site (`file:line`), captured via `#[track_caller]`.
    pub site: &'static Location<'static>,
    /// Virtual timestamp of the access, ns.
    pub time: Nanos,
}

impl fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} by task {} at {}:{} (t={} ns, epoch {}@{})",
            self.kind,
            self.task,
            self.site.file(),
            self.site.line(),
            self.time,
            self.task,
            self.epoch,
        )
    }
}

/// A detected data race: two unordered accesses (at least one a write)
/// to the same index of the same shadow region.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Region name (e.g. `"pte"`).
    pub region: &'static str,
    /// Index within the region (e.g. the vpn).
    pub index: u64,
    /// The earlier access (recorded first in program order).
    pub prior: AccessInfo,
    /// The later access (the one that detected the race).
    pub current: AccessInfo,
    /// The later accessor's vector clock at its access.
    pub clock: VClock,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simsan: data race on {}[{}]\n  {}, clock {}\n  is unordered with earlier\n  {}",
            self.region,
            self.index,
            self.current,
            self.clock.render(),
            self.prior,
        )
    }
}

/// What the detector does when it finds a race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceMode {
    /// Panic with the rendered report (default; fails the enclosing test).
    Panic,
    /// Record the report for later retrieval via
    /// [`RaceDetector::take_reports`] (used by mage-check's oracle).
    Collect,
}

#[derive(Clone, Debug)]
enum ReadState {
    None,
    /// FastTrack fast path: all reads so far are totally ordered; only
    /// the latest matters.
    Epoch(AccessInfo),
    /// Demoted: genuinely concurrent readers, one entry per task.
    Many(BTreeMap<Lid, AccessInfo>),
}

#[derive(Debug)]
struct ShadowWord {
    write: Option<AccessInfo>,
    reads: ReadState,
    /// Lazily-allocated sync id for per-index lock/publish edges.
    lock: u32,
    /// A race was already reported here; suppress duplicates.
    poisoned: bool,
}

impl ShadowWord {
    fn new() -> Self {
        ShadowWord {
            write: None,
            reads: ReadState::None,
            lock: 0,
            poisoned: false,
        }
    }
}

struct TaskState {
    clock: VClock,
    /// World version last acquired (see `world_publish`).
    world_seen: u64,
}

struct Inner {
    /// Per-logical-task state, indexed by `Lid`.
    tasks: Vec<TaskState>,
    /// Executor slot key (raw, reused) → live logical task id.
    slots: BTreeMap<u64, Lid>,
    /// Currently executing logical task (MAIN_LID outside task polls).
    cur: Lid,
    /// Per-sync-object clocks; id 0 is reserved (unallocated sentinel).
    syncs: Vec<VClock>,
    /// Join of every finished task's final clock.
    finished: VClock,
    /// Clock published by the main context at each run entry; acquired
    /// by tasks (version-gated) so work done by main between runs
    /// happens-before everything tasks do afterwards.
    world: VClock,
    world_version: u64,
    /// Registered shadow region names.
    regions: Vec<&'static str>,
    /// Shadow state per (region, index).
    words: BTreeMap<(u32, u64), ShadowWord>,
    mode: RaceMode,
    reports: Vec<RaceReport>,
    races: u64,
}

/// The happens-before race detector. One per [`crate::Simulation`],
/// enabled via [`crate::Simulation::enable_race_detection`] (or the
/// `MAGE_SIMSAN` environment variable); `None` everywhere when disabled.
pub struct RaceDetector {
    inner: RefCell<Inner>,
    /// The global clock at the last run exit, for main's accesses
    /// between runs (the detector must not hold a `SimHandle`: the
    /// executor owns it).
    now: Cell<Nanos>,
}

impl RaceDetector {
    pub(crate) fn new() -> Rc<Self> {
        let main = TaskState {
            clock: {
                let mut c = VClock::default();
                c.bump(MAIN_LID);
                c
            },
            world_seen: 0,
        };
        Rc::new(RaceDetector {
            inner: RefCell::new(Inner {
                tasks: vec![main],
                slots: BTreeMap::new(),
                cur: MAIN_LID,
                syncs: vec![VClock::default()],
                finished: VClock::default(),
                world: VClock::default(),
                world_version: 0,
                regions: Vec::new(),
                words: BTreeMap::new(),
                mode: RaceMode::Panic,
                reports: Vec::new(),
                races: 0,
            }),
            now: Cell::new(0),
        })
    }

    /// Switches between panicking on the first race and collecting
    /// reports (mage-check's oracle mode).
    pub fn set_mode(&self, mode: RaceMode) {
        self.inner.borrow_mut().mode = mode;
    }

    /// Races detected so far (including panicked-over ones, in Collect
    /// mode the length of the pending report list plus taken ones).
    pub fn race_count(&self) -> u64 {
        self.inner.borrow().races
    }

    /// Drains the collected reports (Collect mode).
    pub fn take_reports(&self) -> Vec<RaceReport> {
        std::mem::take(&mut self.inner.borrow_mut().reports)
    }

    // ---- executor hooks (crate-internal) -------------------------------

    pub(crate) fn set_now(&self, now: Nanos) {
        self.now.set(now);
    }

    /// The spawn edge, taken in the spawner's context: binds the
    /// executor slot `raw` to a fresh logical task that starts from the
    /// spawner's clock, and steps the spawner's epoch.
    pub(crate) fn task_begin(&self, raw: u64) {
        let mut g = self.inner.borrow_mut();
        let (lid, cur) = (g.tasks.len() as Lid, g.cur);
        let mut clock = g.tasks[cur as usize].clock.clone();
        clock.bump(lid);
        g.tasks[cur as usize].clock.bump(cur);
        g.tasks.push(TaskState {
            clock,
            world_seen: 0,
        });
        g.slots.insert(raw, lid);
    }

    /// The task bound to slot `raw` finished: fold its final clock into
    /// the finished clock (main acquires it at run exit) and free the
    /// slot binding (the executor reuses raw ids). Nothing reads a
    /// finished task's clock again, so it is freed here.
    pub(crate) fn task_end(&self, raw: u64) {
        let mut g = self.inner.borrow_mut();
        let Some(lid) = g.slots.remove(&raw) else {
            return;
        };
        let mut clock = std::mem::take(&mut g.tasks[lid as usize].clock);
        clock.bump(lid);
        g.finished.join(&clock);
    }

    /// The executor is about to poll the task in slot `raw`.
    pub(crate) fn enter(&self, raw: u64) {
        let mut g = self.inner.borrow_mut();
        let Some(&lid) = g.slots.get(&raw) else {
            return;
        };
        g.cur = lid;
        let version = g.world_version;
        if g.tasks[lid as usize].world_seen != version {
            let world = g.world.clone();
            let t = &mut g.tasks[lid as usize];
            t.clock.join(&world);
            t.world_seen = version;
        }
    }

    /// The poll returned; control is back with the run loop / main.
    pub(crate) fn exit(&self) {
        self.inner.borrow_mut().cur = MAIN_LID;
    }

    /// Run-loop entry: everything main did so far happens-before every
    /// task step from here on.
    pub(crate) fn world_publish(&self) {
        let mut g = self.inner.borrow_mut();
        let main = g.tasks[MAIN_LID as usize].clock.clone();
        g.world.join(&main);
        g.world_version += 1;
        g.tasks[MAIN_LID as usize].clock.bump(MAIN_LID);
    }

    /// Run-loop exit: every task step executed so far happens-before
    /// whatever main does next (the run loop returned; tasks are parked).
    pub(crate) fn world_join(&self) {
        let mut g = self.inner.borrow_mut();
        let mut acc = g.finished.clone();
        let live: Vec<Lid> = g.slots.values().copied().collect();
        for lid in live {
            acc.join(&g.tasks[lid as usize].clock.clone());
        }
        g.tasks[MAIN_LID as usize].clock.join(&acc);
    }

    // ---- synchronization edges (crate-internal) ------------------------

    /// Allocates a sync object (see [`crate::sync::Edge`]).
    pub(crate) fn alloc_sync(&self) -> u32 {
        let mut g = self.inner.borrow_mut();
        g.syncs.push(VClock::default());
        (g.syncs.len() - 1) as u32
    }

    /// Acquire edge: the current task's clock joins the sync's clock.
    ///
    /// Ids outside this detector's table (a primitive whose lazy id was
    /// allocated by an earlier simulation's detector) are ignored.
    pub(crate) fn acquire(&self, sync: u32) {
        if sync == 0 {
            return;
        }
        let mut g = self.inner.borrow_mut();
        let cur = g.cur;
        let Some(clock) = g.syncs.get(sync as usize).cloned() else {
            return;
        };
        g.tasks[cur as usize].clock.join(&clock);
    }

    /// Release edge: the sync's clock joins the current task's clock,
    /// and the task steps its epoch.
    pub(crate) fn release(&self, sync: u32) {
        if sync == 0 {
            return;
        }
        let mut g = self.inner.borrow_mut();
        let cur = g.cur;
        if g.syncs.get(sync as usize).is_none() {
            return;
        }
        let clock = g.tasks[cur as usize].clock.clone();
        g.syncs[sync as usize].join(&clock);
        g.tasks[cur as usize].clock.bump(cur);
    }

    // ---- shadow state --------------------------------------------------

    fn register_region(&self, name: &'static str) -> u32 {
        let mut g = self.inner.borrow_mut();
        g.regions.push(name);
        (g.regions.len() - 1) as u32
    }

    fn on_access(
        &self,
        region: u32,
        idx: u64,
        kind: AccessKind,
        site: &'static Location<'static>,
    ) {
        let now = executor::with_running(ExecCore::clock).map_or(self.now.get(), |t| t.as_nanos());
        let mut guard = self.inner.borrow_mut();
        let g = &mut *guard;
        let cur = g.cur;
        let clock = &g.tasks[cur as usize].clock;
        let access = AccessInfo {
            kind,
            task: cur,
            epoch: clock.get(cur),
            site,
            time: now,
        };
        let word = g
            .words
            .entry((region, idx))
            .or_insert_with(ShadowWord::new);
        if word.poisoned {
            return;
        }
        let mut conflict: Option<AccessInfo> = None;
        if let Some(w) = &word.write {
            if !clock.covers(w.task, w.epoch) {
                conflict = Some(*w);
            }
        }
        if conflict.is_none() && kind == AccessKind::Write {
            match &word.reads {
                ReadState::None => {}
                ReadState::Epoch(r) => {
                    if !clock.covers(r.task, r.epoch) {
                        conflict = Some(*r);
                    }
                }
                ReadState::Many(map) => {
                    for r in map.values() {
                        if !clock.covers(r.task, r.epoch) {
                            conflict = Some(*r);
                            break;
                        }
                    }
                }
            }
        }
        match kind {
            AccessKind::Write => {
                word.write = Some(access);
                word.reads = ReadState::None;
            }
            AccessKind::Read => match &mut word.reads {
                ReadState::None => word.reads = ReadState::Epoch(access),
                ReadState::Epoch(r) => {
                    if r.task == access.task || clock.covers(r.task, r.epoch) {
                        word.reads = ReadState::Epoch(access);
                    } else {
                        let mut map = BTreeMap::new();
                        map.insert(r.task, *r);
                        map.insert(access.task, access);
                        word.reads = ReadState::Many(map);
                    }
                }
                ReadState::Many(map) => {
                    map.insert(access.task, access);
                }
            },
        }
        let Some(prior) = conflict else {
            return;
        };
        word.poisoned = true;
        g.races += 1;
        let report = RaceReport {
            region: g.regions[region as usize],
            index: idx,
            prior,
            current: access,
            clock: clock.clone(),
        };
        match g.mode {
            RaceMode::Collect => g.reports.push(report),
            RaceMode::Panic => {
                drop(guard);
                panic!("{report}");
            }
        }
    }

    fn word_lock_sync(&self, region: u32, idx: u64) -> u32 {
        let mut guard = self.inner.borrow_mut();
        let g = &mut *guard;
        let word = g.words.entry((region, idx)).or_insert_with(ShadowWord::new);
        if word.lock == 0 {
            word.lock = g.syncs.len() as u32;
            g.syncs.push(VClock::default());
        }
        word.lock
    }
}

// ---- public shadow-state API --------------------------------------------

/// A named family of shadow-tracked words (e.g. all PTEs, indexed by
/// vpn). Cheap to clone conceptually — holds only the detector `Rc` and
/// a region id — and inert (one branch per call) when the simulation's
/// detector is disabled.
pub struct ShadowRegion {
    det: Option<Rc<RaceDetector>>,
    region: u32,
}

impl ShadowRegion {
    /// Creates a region bound to `sim`'s detector (inert if detection is
    /// not enabled on that simulation).
    pub fn new(sim: &SimHandle, name: &'static str) -> Self {
        match sim.race_detector() {
            Some(det) => {
                let region = det.register_region(name);
                ShadowRegion {
                    det: Some(det),
                    region,
                }
            }
            None => ShadowRegion::disabled(),
        }
    }

    /// A permanently-inert region (for contexts with no simulation).
    pub fn disabled() -> Self {
        ShadowRegion {
            det: None,
            region: 0,
        }
    }

    /// Records a plain read of `idx` and checks it against the last
    /// unordered write.
    #[track_caller]
    pub fn on_read(&self, idx: u64) {
        if let Some(det) = &self.det {
            det.on_access(self.region, idx, AccessKind::Read, Location::caller());
        }
    }

    /// Records a plain write of `idx` and checks it against unordered
    /// prior reads and writes.
    #[track_caller]
    pub fn on_write(&self, idx: u64) {
        if let Some(det) = &self.det {
            det.on_access(self.region, idx, AccessKind::Write, Location::caller());
        }
    }

    /// Acquire edge on `idx`'s word-lock (e.g. winning the PTE lock bit):
    /// the caller's clock joins everything released at this index.
    pub fn lock(&self, idx: u64) {
        if let Some(det) = &self.det {
            let sync = det.word_lock_sync(self.region, idx);
            det.acquire(sync);
        }
    }

    /// Release edge on `idx`'s word-lock (clearing the PTE lock bit,
    /// directly or by installing an unlocked value).
    pub fn unlock(&self, idx: u64) {
        if let Some(det) = &self.det {
            let sync = det.word_lock_sync(self.region, idx);
            det.release(sync);
        }
    }

    /// Release edge *without* conceptually unlocking: the holder makes
    /// its writes so far visible to whoever takes the word-lock over
    /// (the refault-cancel handoff through the `evicting` map).
    pub fn publish(&self, idx: u64) {
        self.unlock(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> Rc<RaceDetector> {
        let d = RaceDetector::new();
        d.set_mode(RaceMode::Collect);
        d
    }

    /// Simulates two tasks via the executor hooks.
    fn two_tasks(d: &Rc<RaceDetector>) -> (u64, u64) {
        d.task_begin(1);
        d.task_begin(2);
        (1, 2)
    }

    #[test]
    fn unordered_write_write_races() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("word");
        d.enter(a);
        d.on_access(r, 7, AccessKind::Write, Location::caller());
        d.exit();
        d.enter(b);
        d.on_access(r, 7, AccessKind::Write, Location::caller());
        d.exit();
        let reports = d.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].index, 7);
        assert_eq!(reports[0].prior.task, 1);
        assert_eq!(reports[0].current.task, 2);
    }

    #[test]
    fn release_acquire_orders_accesses() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("word");
        let m = d.alloc_sync();
        d.enter(a);
        d.on_access(r, 7, AccessKind::Write, Location::caller());
        d.release(m);
        d.exit();
        d.enter(b);
        d.acquire(m);
        d.on_access(r, 7, AccessKind::Write, Location::caller());
        d.exit();
        assert!(d.take_reports().is_empty());
        assert_eq!(d.race_count(), 0);
    }

    #[test]
    fn concurrent_reads_do_not_race_but_a_write_against_them_does() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("word");
        d.enter(a);
        d.on_access(r, 1, AccessKind::Read, Location::caller());
        d.exit();
        d.enter(b);
        d.on_access(r, 1, AccessKind::Read, Location::caller());
        d.exit();
        assert!(d.take_reports().is_empty(), "read-read never races");
        // A third task writes without synchronizing with either reader.
        d.task_begin(3);
        d.enter(3);
        d.on_access(r, 1, AccessKind::Write, Location::caller());
        d.exit();
        let reports = d.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].current.kind, AccessKind::Write);
        assert_eq!(reports[0].prior.kind, AccessKind::Read);
    }

    #[test]
    fn fork_and_join_edges_order_parent_and_child() {
        let d = det();
        let r = d.register_region("word");
        // Parent (main) writes, then spawns: the child inherits the edge.
        d.on_access(r, 0, AccessKind::Write, Location::caller());
        d.task_begin(9);
        let join = d.alloc_sync();
        d.enter(9);
        d.on_access(r, 0, AccessKind::Write, Location::caller());
        d.release(join);
        d.exit();
        d.task_end(9);
        // Parent joins the child, then writes again: still ordered.
        d.acquire(join);
        d.on_access(r, 0, AccessKind::Write, Location::caller());
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn world_edges_order_main_setup_against_earlier_spawned_tasks() {
        let d = det();
        let r = d.register_region("word");
        // Task spawned first; main then writes (populate) and publishes
        // the world at run entry, exactly the launch()-then-populate()
        // pattern.
        d.task_begin(4);
        d.on_access(r, 3, AccessKind::Write, Location::caller());
        d.world_publish();
        d.enter(4);
        d.on_access(r, 3, AccessKind::Write, Location::caller());
        d.exit();
        // Run exits; main reads what the task wrote.
        d.world_join();
        d.on_access(r, 3, AccessKind::Read, Location::caller());
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn word_lock_edges_order_lock_bit_protocols() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("pte");
        d.enter(a);
        {
            let s = d.word_lock_sync(r, 5);
            d.acquire(s); // lock
            d.on_access(r, 5, AccessKind::Write, Location::caller());
            d.release(s); // unlock
        }
        d.exit();
        d.enter(b);
        {
            let s = d.word_lock_sync(r, 5);
            d.acquire(s);
            d.on_access(r, 5, AccessKind::Write, Location::caller());
            d.release(s);
        }
        d.exit();
        assert!(d.take_reports().is_empty());
    }

    #[test]
    fn reports_render_both_sites_and_clocks() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("pte");
        d.enter(a);
        d.on_access(r, 42, AccessKind::Write, Location::caller());
        d.exit();
        d.enter(b);
        d.on_access(r, 42, AccessKind::Read, Location::caller());
        d.exit();
        let reports = d.take_reports();
        let text = reports[0].to_string();
        assert!(text.contains("data race on pte[42]"), "{text}");
        assert!(text.contains("race.rs:"), "both sites carry file:line");
        assert!(text.contains("clock {"), "clocks rendered");
        assert!(text.contains("read by task 2"), "{text}");
        assert!(text.contains("write by task 1"), "{text}");
    }

    #[test]
    fn duplicate_races_on_one_word_are_reported_once() {
        let d = det();
        let (a, b) = two_tasks(&d);
        let r = d.register_region("word");
        d.enter(a);
        d.on_access(r, 0, AccessKind::Write, Location::caller());
        d.exit();
        for _ in 0..3 {
            d.enter(b);
            d.on_access(r, 0, AccessKind::Write, Location::caller());
            d.exit();
        }
        assert_eq!(d.take_reports().len(), 1);
    }

    #[test]
    fn a_race_is_stamped_with_the_accessing_tasks_clock() {
        // The second writer runs 400 ns ahead of the global clock within
        // one poll; its access carries its own clock, not the poll's
        // entry time.
        let sim = crate::Simulation::new();
        let h = sim.handle();
        h.set_run_ahead(1_000);
        let d = sim.enable_race_detection();
        d.set_mode(RaceMode::Collect);
        let word = Rc::new(ShadowRegion::new(&h, "word"));
        for delay in [0, 400] {
            let (h, word) = (h.clone(), Rc::clone(&word));
            sim.spawn(async move {
                h.sleep(delay).await;
                word.on_write(0);
            });
        }
        sim.run();
        let reports = d.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!((reports[0].prior.time, reports[0].current.time), (0, 400));
        assert!(reports[0].to_string().contains("(t=400 ns"), "{}", reports[0]);
    }

    #[test]
    fn only_an_observable_join_allocates_a_sync_clock() {
        // Id 0 is the reserved sentinel. A spawn allocates none, and a
        // task whose handle is gone when it finishes has no join to
        // release into.
        let sim = crate::Simulation::new();
        let d = sim.enable_race_detection();
        let h = sim.handle();
        let syncs = || d.inner.borrow().syncs.len();
        drop(h.spawn(async {}));
        sim.run();
        assert_eq!(syncs(), 1);
        let kept = h.spawn(async {});
        sim.run();
        assert_eq!(syncs(), 2);
        drop(kept);
    }

    #[test]
    fn vclock_render_is_compact() {
        let mut c = VClock::default();
        c.set(0, 3);
        c.set(2, 7);
        assert_eq!(c.render(), "{0:3 2:7}");
    }
}

//! mage-check: deterministic schedule exploration with a reference-model
//! oracle and failing-case shrinking.
//!
//! The deterministic simulator makes every run reproducible, but one
//! seed exercises one schedule. This crate turns the simulator into a
//! model checker on a budget (DESIGN.md §9):
//!
//! 1. **Schedule exploration** — each [`Cell`] names one point of the
//!    search space `(seed, fault plan, ops, threads, policy)`; the
//!    executor's pluggable [`ExplorationPolicy`] perturbs which ready
//!    task runs next, so different seeds visit genuinely different
//!    interleavings of the same workload.
//! 2. **Oracles** — at every quiescent point [`check_invariants`] runs
//!    the fixed list of whole-machine safety properties (the same list
//!    every churn suite checks), and the differential [`RefModel`] (fed
//!    the engine's own page-lifecycle event stream) cross-checks its
//!    abstract per-page state machine against the concrete PTE bits.
//! 3. **Shrinking** — when a cell fails, [`shrink()`] minimizes every
//!    dimension to a fixpoint and the result's [`Cell::repro_line`] is a
//!    single shell command (`MAGE_CHECK_SEED=… cargo test …`) that
//!    replays the minimal reproducer exactly.
//!
//! Runs are bounded by a poll budget (`Simulation::block_on_bounded`), so
//! a schedule that wedges the engine surfaces as a [`Violation::Runaway`]
//! instead of hanging the suite.

use std::rc::Rc;

use mage::{
    EventSink, EvictionPolicyKind, FarMemory, MachineParams, PlantedBug, ReplicationConfig,
    SystemConfig, REPLICA_NODES,
};
use mage_fabric::FaultPlan;
use mage_mmu::{CoreId, Topology};
use mage_sim::rng;
use mage_sim::{ExplorationPolicy, Simulation};

pub mod invariants;
pub mod model;
pub mod shrink;

pub use invariants::{check_invariants, CheckCtx};
pub use model::{PageState, RefModel};
pub use shrink::{shrink, shrink_with, ShrinkResult};

/// Which exploration policy a cell drives the executor with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The default FIFO schedule (bit-for-bit the golden schedule).
    Fifo,
    /// Uniform seeded pick among the ready tasks.
    SeededRandom,
    /// Seeded per-task priorities, argmax pick.
    PriorityFuzz,
}

impl PolicyKind {
    /// Stable name, used in repro lines and env-var replay.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::SeededRandom => "seeded-random",
            PolicyKind::PriorityFuzz => "priority-fuzz",
        }
    }

    /// Parses a [`name`](PolicyKind::name) back into the kind.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "fifo" => Some(PolicyKind::Fifo),
            "seeded-random" => Some(PolicyKind::SeededRandom),
            "priority-fuzz" => Some(PolicyKind::PriorityFuzz),
            _ => None,
        }
    }
}

/// One point of the exploration space. Everything a run depends on is
/// in the cell, so a cell replays bit-for-bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Seed for the schedule, the workload streams and the fault plan.
    pub seed: u64,
    /// Fault-plan family index (see `FaultPlan::enumerate`).
    pub plan: usize,
    /// Accesses per thread per phase.
    pub ops: u64,
    /// Application threads.
    pub threads: usize,
    /// Exploration policy driving the executor's ready-queue pick.
    pub policy: PolicyKind,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            seed: 1,
            plan: 0,
            ops: 256,
            threads: 4,
            policy: PolicyKind::SeededRandom,
        }
    }
}

impl Cell {
    /// The executor policy this cell runs under, seeded from the cell.
    pub fn exploration_policy(&self) -> ExplorationPolicy {
        match self.policy {
            PolicyKind::Fifo => ExplorationPolicy::Fifo,
            PolicyKind::SeededRandom => ExplorationPolicy::SeededRandom { seed: self.seed },
            PolicyKind::PriorityFuzz => ExplorationPolicy::PriorityFuzz { seed: self.seed },
        }
    }

    /// A standard sweep of `cells` cells across the first `plans`
    /// fault-plan families, rotating through the exploration policies.
    pub fn sweep(cells: usize, plans: usize) -> Vec<Cell> {
        (0..cells)
            .map(|i| {
                let policy = match i % 3 {
                    0 => PolicyKind::SeededRandom,
                    1 => PolicyKind::PriorityFuzz,
                    _ => PolicyKind::Fifo,
                };
                Cell {
                    seed: i as u64 + 1,
                    plan: i % plans.max(1),
                    policy,
                    ..Cell::default()
                }
            })
            .collect()
    }

    /// The one-line shell command that replays this cell exactly.
    pub fn repro_line(&self) -> String {
        format!(
            "MAGE_CHECK_SEED={} MAGE_CHECK_PLAN={} MAGE_CHECK_OPS={} \
             MAGE_CHECK_THREADS={} MAGE_CHECK_POLICY={} \
             cargo test -q --test check_explore -- replay_cell --nocapture",
            self.seed,
            self.plan,
            self.ops,
            self.threads,
            self.policy.name()
        )
    }

    /// Builds a cell from `MAGE_CHECK_*` environment variables; `None`
    /// if `MAGE_CHECK_SEED` is unset. Unset optional variables keep the
    /// [`Cell::default`] value.
    pub fn from_env() -> Option<Cell> {
        Cell::from_vars(|name| std::env::var(name).ok())
    }

    /// Env-var parsing with an injectable source (for tests).
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> Option<Cell> {
        let mut cell = Cell {
            seed: get("MAGE_CHECK_SEED")?.parse().ok()?,
            ..Cell::default()
        };
        if let Some(v) = get("MAGE_CHECK_PLAN") {
            cell.plan = v.parse().ok()?;
        }
        if let Some(v) = get("MAGE_CHECK_OPS") {
            cell.ops = v.parse().ok()?;
        }
        if let Some(v) = get("MAGE_CHECK_THREADS") {
            cell.threads = v.parse().ok()?;
        }
        if let Some(v) = get("MAGE_CHECK_POLICY") {
            cell.policy = PolicyKind::parse(&v)?;
        }
        Some(cell)
    }
}

/// Harness knobs shared by every cell of a sweep: the machine shape and
/// the run budget. Small local memory against a larger working set keeps
/// fault-in and eviction under constant pressure, which is where the
/// interesting interleavings live.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Working-set size in pages (the mapped region).
    pub wss_pages: u64,
    /// Local DRAM quota in pages.
    pub local_pages: u64,
    /// Workload phases; invariants and the model are checked at the
    /// quiescent point after each phase.
    pub phases: usize,
    /// Eviction batch size (small batches → more pipeline boundaries).
    pub eviction_batch: usize,
    /// Poll budget per phase; exhausting it is a [`Violation::Runaway`].
    pub max_polls_per_phase: u64,
    /// Eviction policy the engine runs under. The whole policy zoo must
    /// uphold the same oracles; sweeping this knob checks each member
    /// under adversarial schedules, not just the default.
    pub eviction_policy: EvictionPolicyKind,
    /// Run every cell on a replicated [`FarBackend`](mage::FarBackend)
    /// over two memory nodes with staggered per-node crash windows, so
    /// the replica-state invariants have replicas to check.
    pub replicate: bool,
    /// Test-only: plant a known bug ([`SystemConfig::with_planted_bug`])
    /// to prove the oracles catch and shrink it: `Settlement` trips the
    /// settlement identity, `Publish` the simsan race oracle, and
    /// `Rereplication` (which needs `replicate`) the replica-coverage
    /// invariant.
    pub planted_bug: Option<PlantedBug>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            wss_pages: 512,
            local_pages: 128,
            phases: 2,
            eviction_batch: 16,
            max_polls_per_phase: 4_000_000,
            eviction_policy: EvictionPolicyKind::SecondChance,
            replicate: false,
            planted_bug: None,
        }
    }
}

/// What a clean cell run produced (for sweep accounting).
#[derive(Clone, Copy, Debug)]
pub struct CellReport {
    /// Total executor polls the run consumed.
    pub polls: u64,
    /// Major faults serviced.
    pub major_faults: u64,
    /// Pages evicted by the background evictors.
    pub evicted_pages: u64,
    /// Page-lifecycle events the reference model observed.
    pub events: u64,
}

/// A safety violation found by an oracle (or a blown run budget). Every
/// variant carries the evidence needed to read the failure without
/// re-running it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A core's TLB still translates a settled remote page.
    StaleTlb {
        /// The core with the stale entry.
        core: u32,
        /// The settled remote page.
        vpn: u64,
    },
    /// The settlement identity `evicted + sync + cancelled + requeued ≤
    /// unmapped` is broken.
    Settlement {
        /// Sum of the four settlement counters.
        settled: u64,
        /// Pages unmapped by the eviction machinery.
        unmapped: u64,
    },
    /// Resident + free frames exceed the local quota.
    FrameConservation {
        /// Pages tracked resident by accounting.
        resident: u64,
        /// Frames in the free pool.
        free: u64,
        /// The local DRAM quota.
        quota: u64,
    },
    /// A page is neither resident nor remotely reachable.
    LostPage {
        /// The lost page.
        vpn: u64,
    },
    /// The engine emitted an event illegal in the page's abstract state.
    IllegalTransition {
        /// The page the event concerned.
        vpn: u64,
        /// The model state before the event (`None` = never placed).
        state: Option<PageState>,
        /// The event's display name.
        event: &'static str,
    },
    /// The abstract state and the concrete PTE disagree at a quiescent
    /// point.
    ModelMismatch {
        /// The diverging page.
        vpn: u64,
        /// What the model believes.
        state: PageState,
        /// The raw PTE bits observed.
        pte: u64,
    },
    /// The phase's poll budget ran out before the workload completed.
    Runaway {
        /// Polls spent before the budget stopped the run.
        polls: u64,
    },
    /// The simsan happens-before detector found two unordered accesses
    /// to the same shadow-tracked word.
    DataRace {
        /// The fully rendered race report (both sites, tasks, clocks).
        report: String,
    },
    /// A settled remote page has no live replica left: every slot is
    /// `Degraded`, so the page's data survives on no reachable node.
    ReplicaUnreachable {
        /// The page whose remote copies are all gone.
        vpn: u64,
        /// Its backend slot.
        rpn: u64,
    },
    /// Replica states moved outside the legal
    /// Synced↔Degraded→Rebuilding→Synced machine.
    ReplicaTransition {
        /// Illegal transitions recorded by the backend.
        count: u64,
    },
    /// The ghost-hit identity `re_faults ≤ ghost_hits ≤ re_faults +
    /// requeued_victims` is broken.
    GhostAccounting {
        /// Residency inserts that hit the ghost list.
        ghost_hits: u64,
        /// Major faults on pages still on the ghost list.
        re_faults: u64,
        /// Eviction victims re-inserted after a failed writeback.
        requeued: u64,
    },
    /// More batch pages were skipped as cancelled than refaults
    /// cancelled an eviction.
    CancelBound {
        /// Batch pages skipped as cancelled.
        cancelled_pages: u64,
        /// Refaults that cancelled an in-flight eviction.
        cancels: u64,
    },
}

impl Violation {
    /// Short stable name of the violated property.
    pub fn name(&self) -> &'static str {
        match self {
            Violation::StaleTlb { .. } => "stale-tlb",
            Violation::Settlement { .. } => "settlement",
            Violation::FrameConservation { .. } => "frame-conservation",
            Violation::LostPage { .. } => "lost-page",
            Violation::IllegalTransition { .. } => "model-transition",
            Violation::ModelMismatch { .. } => "model-mismatch",
            Violation::Runaway { .. } => "runaway",
            Violation::DataRace { .. } => "data-race",
            Violation::ReplicaUnreachable { .. } => "replica-unreachable",
            Violation::ReplicaTransition { .. } => "replica-transition",
            Violation::GhostAccounting { .. } => "ghost-accounting",
            Violation::CancelBound { .. } => "cancel-bound",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::StaleTlb { core, vpn } => {
                write!(f, "stale TLB: core {core} still translates settled remote vpn {vpn:#x}")
            }
            Violation::Settlement { settled, unmapped } => {
                write!(f, "settlement identity broken: settled {settled} > unmapped {unmapped}")
            }
            Violation::FrameConservation {
                resident,
                free,
                quota,
            } => write!(
                f,
                "frame conservation broken: resident {resident} + free {free} > quota {quota}"
            ),
            Violation::LostPage { vpn } => {
                write!(f, "page lost: vpn {vpn:#x} neither resident nor remote")
            }
            Violation::IllegalTransition { vpn, state, event } => write!(
                f,
                "illegal transition: event '{event}' on vpn {vpn:#x} in model state {state:?}"
            ),
            Violation::ModelMismatch { vpn, state, pte } => write!(
                f,
                "model mismatch: vpn {vpn:#x} is {state:?} in the model but PTE bits are {pte:#x}"
            ),
            Violation::Runaway { polls } => {
                write!(f, "runaway schedule: poll budget exhausted after {polls} polls")
            }
            Violation::DataRace { report } => write!(f, "{report}"),
            Violation::ReplicaUnreachable { vpn, rpn } => write!(
                f,
                "replica coverage lost: vpn {vpn:#x} (slot {rpn}) has no synced or rebuilding replica"
            ),
            Violation::ReplicaTransition { count } => {
                write!(f, "replica state machine violated {count} time(s)")
            }
            Violation::GhostAccounting {
                ghost_hits,
                re_faults,
                requeued,
            } => write!(
                f,
                "ghost accounting broken: ghost hits {ghost_hits} outside \
                 [re-faults {re_faults}, re-faults + requeued {requeued}]"
            ),
            Violation::CancelBound {
                cancelled_pages,
                cancels,
            } => write!(
                f,
                "cancel bound broken: {cancelled_pages} cancelled pages > {cancels} cancels"
            ),
        }
    }
}

/// Runs one cell end to end: build the machine under the cell's fault
/// plan and exploration policy, drive `phases` rounds of seeded random
/// access from `threads` tasks, and evaluate every oracle at each
/// quiescent point. Returns the first violation found.
pub fn run_cell(cell: &Cell, opts: &CheckOptions) -> Result<CellReport, Violation> {
    assert!(cell.threads >= 1, "a cell needs at least one thread");
    let plan = FaultPlan::enumerate(cell.plan, cell.seed);
    assert!(
        opts.replicate || opts.planted_bug != Some(PlantedBug::Rereplication),
        "PlantedBug::Rereplication needs `replicate`: a single-copy backend has no repairs to skip"
    );
    let mut cfg = SystemConfig::mage_lib()
        .with_eviction_policy(opts.eviction_policy)
        .with_eviction_batch(opts.eviction_batch)
        .with_faults(plan)
        .with_max_retries(2);
    if let Some(bug) = opts.planted_bug {
        cfg = cfg.with_planted_bug(bug);
    }
    if opts.replicate {
        // Two nodes with provably disjoint 30 µs crash windows per 150 µs
        // period; the repair poll sits well under both the window and the
        // inter-outage gap, so the monitor always observes each crash and
        // finishes repairs before the *other* node blinks.
        let node_plans = (0..REPLICA_NODES)
            .map(|i| FaultPlan::staggered_node_crash(cell.seed, i, REPLICA_NODES, 150_000, 30_000))
            .collect();
        cfg = cfg.with_replication(ReplicationConfig {
            repair_poll_ns: 5_000,
            node_faults: node_plans,
        });
    }
    let cores = (cell.threads + cfg.max_evictors) as u32;

    let sim = Simulation::with_policy(cell.exploration_policy());
    // Simsan rides along as one more oracle: the detector never perturbs
    // the schedule, so the cell still replays bit-for-bit. Collect mode
    // turns the first race into a Violation instead of a panic. Enabled
    // before launch so the engine's shadow regions bind to it.
    let race = sim.enable_race_detection();
    race.set_mode(mage_sim::race::RaceMode::Collect);
    let params = MachineParams {
        topo: Topology::single_socket(cores),
        app_threads: cell.threads,
        local_pages: opts.local_pages,
        remote_pages: opts.wss_pages + opts.local_pages,
        tlb_entries: 64,
        seed: cell.seed,
    };
    let engine = FarMemory::launch(sim.handle(), cfg, params);
    let vma = engine.mmap(opts.wss_pages);
    // The model must observe the initial placements, so tap before
    // populate.
    let refmodel = Rc::new(RefModel::new());
    engine.tap_events(Rc::clone(&refmodel) as Rc<dyn EventSink>);
    engine.populate(&vma);

    for phase in 0..opts.phases {
        let mut joins = Vec::new();
        for t in 0..cell.threads {
            let e = Rc::clone(&engine);
            let lane = (phase * cell.threads + t) as u64;
            let seed = cell.seed;
            let ops = cell.ops;
            let start = vma.start_vpn;
            let wss = vma.pages;
            joins.push(sim.spawn(async move {
                let stream = rng::stream(seed, lane);
                for _ in 0..ops {
                    let vpn = start + stream.next_below(wss);
                    let write = stream.next_below(4) == 0;
                    e.access(CoreId(t as u32), vpn, write).await;
                }
            }));
        }
        let joined = sim.block_on_bounded(
            async move {
                for j in joins {
                    j.await;
                }
            },
            opts.max_polls_per_phase,
        );
        if let Err(progress) = joined {
            return Err(Violation::Runaway {
                polls: progress.polls,
            });
        }
        // Quiescent point: the race oracle first (a race is the most
        // specific evidence), then whole-machine invariants, then the
        // differential model (its own transition log first, then the
        // PTE crosscheck).
        if let Some(report) = race.take_reports().into_iter().next() {
            return Err(Violation::DataRace {
                report: report.to_string(),
            });
        }
        check_invariants(&CheckCtx {
            engine: &engine,
            vma: &vma,
            local_pages: opts.local_pages,
        })?;
        refmodel.crosscheck(&engine, &vma)?;
    }
    engine.shutdown();

    let s = engine.stats();
    Ok(CellReport {
        polls: sim.polls(),
        major_faults: s.major_faults.get(),
        evicted_pages: s.evicted_pages.get(),
        events: refmodel.events_seen(),
    })
}

/// Outcome of an exploration sweep.
#[derive(Clone, Debug)]
pub enum ExploreOutcome {
    /// Every cell passed every oracle.
    Clean {
        /// Cells run.
        cells: usize,
        /// Total executor polls across the sweep.
        polls: u64,
        /// Total major faults exercised.
        major_faults: u64,
    },
    /// A cell failed; it was shrunk to a minimal reproducer.
    Failed {
        /// The original failing cell.
        original: Cell,
        /// The minimized cell, its violation and the shrink cost.
        shrunk: ShrinkResult,
    },
}

/// Runs a sweep of cells; on the first failure, shrinks it (spending at
/// most `shrink_budget` extra runs) and reports the minimal reproducer.
pub fn explore(cells: &[Cell], opts: &CheckOptions, shrink_budget: usize) -> ExploreOutcome {
    let mut polls = 0u64;
    let mut major_faults = 0u64;
    for cell in cells {
        match run_cell(cell, opts) {
            Ok(report) => {
                polls += report.polls;
                major_faults += report.major_faults;
            }
            Err(_) => {
                let shrunk = shrink(cell, opts, shrink_budget);
                return ExploreOutcome::Failed {
                    original: cell.clone(),
                    shrunk,
                };
            }
        }
    }
    ExploreOutcome::Clean {
        cells: cells.len(),
        polls,
        major_faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> CheckOptions {
        CheckOptions {
            wss_pages: 192,
            local_pages: 96,
            phases: 1,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn repro_line_is_one_line_and_round_trips() {
        let cell = Cell {
            seed: 77,
            plan: 3,
            ops: 12,
            threads: 2,
            policy: PolicyKind::PriorityFuzz,
        };
        let line = cell.repro_line();
        assert_eq!(line.lines().count(), 1, "repro must be a single line");
        // Parse the env assignments back out of the line.
        let get = |name: &str| {
            line.split_whitespace().find_map(|tok| {
                tok.strip_prefix(&format!("{name}="))
                    .map(|v| v.to_string())
            })
        };
        assert_eq!(Cell::from_vars(get), Some(cell));
    }

    #[test]
    fn from_vars_defaults_and_rejects_garbage() {
        assert_eq!(Cell::from_vars(|_| None), None, "no seed, no cell");
        let only_seed = Cell::from_vars(|n| (n == "MAGE_CHECK_SEED").then(|| "9".into()));
        assert_eq!(
            only_seed,
            Some(Cell {
                seed: 9,
                ..Cell::default()
            })
        );
        let bad_policy = Cell::from_vars(|n| match n {
            "MAGE_CHECK_SEED" => Some("1".into()),
            "MAGE_CHECK_POLICY" => Some("chaotic-evil".into()),
            _ => None,
        });
        assert_eq!(bad_policy, None);
    }

    #[test]
    fn sweep_covers_policies_and_plans() {
        let cells = Cell::sweep(12, 2);
        assert_eq!(cells.len(), 12);
        assert!(cells.iter().any(|c| c.policy == PolicyKind::Fifo));
        assert!(cells.iter().any(|c| c.policy == PolicyKind::SeededRandom));
        assert!(cells.iter().any(|c| c.policy == PolicyKind::PriorityFuzz));
        assert!(cells.iter().any(|c| c.plan == 0));
        assert!(cells.iter().any(|c| c.plan == 1));
        // Seeds are distinct, so every cell is a different schedule.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn default_cell_runs_clean() {
        let report = run_cell(&Cell::default(), &quick_opts()).expect("default cell must pass");
        assert!(report.major_faults > 0, "the cell must exercise faults");
        assert!(report.events > 0, "the model must observe events");
        assert!(report.polls > 0);
    }

    #[test]
    fn broken_settlement_is_caught() {
        let opts = CheckOptions {
            planted_bug: Some(PlantedBug::Settlement),
            ..quick_opts()
        };
        let err = run_cell(&Cell::default(), &opts).unwrap_err();
        assert_eq!(err.name(), "settlement", "got {err}");
    }

    #[test]
    fn replicated_cell_runs_clean() {
        let opts = CheckOptions {
            replicate: true,
            ..quick_opts()
        };
        let report = run_cell(&Cell::default(), &opts).expect("replicated cell must pass");
        assert!(report.major_faults > 0, "the cell must exercise faults");
    }

    #[test]
    fn broken_rereplication_is_caught() {
        let opts = CheckOptions {
            replicate: true,
            planted_bug: Some(PlantedBug::Rereplication),
            phases: 2,
            ..quick_opts()
        };
        let err = run_cell(&Cell::default(), &opts).unwrap_err();
        assert_eq!(err.name(), "replica-unreachable", "got {err}");
    }

    #[test]
    #[should_panic(expected = "PlantedBug::Rereplication needs `replicate`")]
    fn rereplication_bug_without_replicas_is_rejected() {
        let opts = CheckOptions {
            planted_bug: Some(PlantedBug::Rereplication),
            ..quick_opts()
        };
        let _ = run_cell(&Cell::default(), &opts);
    }

    #[test]
    fn broken_publish_is_caught_as_a_data_race() {
        let opts = CheckOptions {
            planted_bug: Some(PlantedBug::Publish),
            ..quick_opts()
        };
        let err = run_cell(&Cell::default(), &opts).unwrap_err();
        assert_eq!(err.name(), "data-race", "got {err}");
        let text = err.to_string();
        assert!(text.contains("data race on pte["), "{text}");
    }
}

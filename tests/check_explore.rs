//! mage-check integration suite: seeded schedule exploration with the
//! invariant list and the differential reference model (DESIGN.md
//! §9).
//!
//! - the default sweep runs ≥ 64 seeded schedules across two fault-plan
//!   families and three exploration policies with zero violations;
//! - a deliberately broken settlement counter (test-only toggle) is
//!   caught by the oracle and shrunk to a minimal reproducer, printed as
//!   a single `MAGE_CHECK_SEED=…` line;
//! - `replay_cell` re-runs one cell from `MAGE_CHECK_*` environment
//!   variables, which is exactly what the printed repro line does;
//! - `ExplorationPolicy::Fifo` reproduces the default executor schedule
//!   bit-for-bit (stats, polls and virtual time all identical).

mod common;

use common::churn_digest;
use mage_check::{explore, run_cell, Cell, CheckOptions, ExploreOutcome, PolicyKind};
use mage_far_memory::engine::PlantedBug;
use mage_far_memory::prelude::*;
use mage_far_memory::sim::ExplorationPolicy;

/// The acceptance sweep: 64 cells across 2 fault-plan families and all
/// three exploration policies, every oracle clean.
#[test]
fn explores_64_seeded_schedules_with_zero_violations() {
    let cells = Cell::sweep(64, 2);
    assert!(cells.len() >= 64);
    assert!(
        cells.iter().any(|c| c.plan == 0) && cells.iter().any(|c| c.plan == 1),
        "sweep must cover two fault-plan families"
    );
    match explore(&cells, &CheckOptions::default(), 16) {
        ExploreOutcome::Clean {
            cells,
            polls,
            major_faults,
        } => {
            assert_eq!(cells, 64);
            assert!(polls > 0);
            assert!(
                major_faults > 10_000,
                "the sweep must exercise heavy paging, got {major_faults} faults"
            );
        }
        ExploreOutcome::Failed { original, shrunk } => panic!(
            "cell {original:?} violates '{}'; minimal repro:\n{}",
            shrunk.violation,
            shrunk.cell.repro_line()
        ),
    }
}

/// The same acceptance sweep under the S3-FIFO eviction policy: the new
/// ghost-feedback machinery (synchronous ghost updates on the fault
/// path, ghost-hit promotion into the main queue) must uphold every
/// oracle — reference model, whole-machine invariants and the simsan
/// race detector — across 64 seeded schedules, including SeededRandom
/// and PriorityFuzz interleavings.
#[test]
fn s3fifo_survives_64_seeded_schedules_with_zero_violations() {
    let cells = Cell::sweep(64, 2);
    let opts = CheckOptions {
        eviction_policy: EvictionPolicyKind::S3Fifo,
        ..CheckOptions::default()
    };
    match explore(&cells, &opts, 16) {
        ExploreOutcome::Clean {
            cells,
            polls,
            major_faults,
        } => {
            assert_eq!(cells, 64);
            assert!(polls > 0);
            assert!(
                major_faults > 10_000,
                "the sweep must exercise heavy paging, got {major_faults} faults"
            );
        }
        ExploreOutcome::Failed { original, shrunk } => panic!(
            "S3-FIFO cell {original:?} violates '{}'; minimal repro:\n{}",
            shrunk.violation,
            shrunk.cell.repro_line()
        ),
    }
}

/// A deliberately broken invariant (the historical finalize-batch
/// double-count, resurrected by the test-only config toggle) is caught,
/// shrunk across every dimension, and reported as a one-line repro.
#[test]
fn broken_settlement_is_caught_and_shrunk() {
    let opts = CheckOptions {
        wss_pages: 256,
        local_pages: 96,
        phases: 1,
        planted_bug: Some(PlantedBug::Settlement),
        ..CheckOptions::default()
    };
    let cells = [Cell {
        seed: 5,
        plan: 3,
        ops: 512,
        threads: 4,
        policy: PolicyKind::SeededRandom,
    }];
    let ExploreOutcome::Failed { original, shrunk } = explore(&cells, &opts, 48) else {
        panic!("the broken settlement counter was not caught");
    };
    assert_eq!(original, cells[0]);
    assert_eq!(shrunk.violation.name(), "settlement", "got {}", shrunk.violation);

    // The shrinker must actually minimize: the bug needs no fault plan,
    // no concurrency and no particular seed.
    assert_eq!(shrunk.cell.plan, 0, "settlement bug needs no fault plan");
    assert_eq!(shrunk.cell.threads, 1, "settlement bug needs one thread");
    assert_eq!(shrunk.cell.seed, 0, "settlement bug fails under the canonical seed");
    assert!(shrunk.cell.ops <= original.ops);
    assert!(shrunk.runs <= 48);

    // The minimal reproducer still fails, and its repro command is a
    // single line.
    let replayed = run_cell(&shrunk.cell, &opts).unwrap_err();
    assert_eq!(replayed.name(), "settlement");
    let line = shrunk.cell.repro_line();
    assert_eq!(line.lines().count(), 1, "repro must be one line");
    assert!(line.starts_with("MAGE_CHECK_SEED="));
    println!("{line}");
}

/// Replicated cells survive exploration: the same oracles (plus the
/// replica-coverage and replica-transition invariants) hold when every
/// cell runs on a two-node replicated [`FarBackend`] under staggered node
/// crashes and schedule perturbation.
#[test]
fn replicated_cells_survive_exploration() {
    let cells = Cell::sweep(12, 2);
    let opts = CheckOptions {
        replicate: true,
        ..CheckOptions::default()
    };
    match explore(&cells, &opts, 16) {
        ExploreOutcome::Clean { cells, major_faults, .. } => {
            assert_eq!(cells, 12);
            assert!(major_faults > 1_000, "got {major_faults} faults");
        }
        ExploreOutcome::Failed { original, shrunk } => panic!(
            "replicated cell {original:?} violates '{}'; minimal repro:\n{}",
            shrunk.violation,
            shrunk.cell.repro_line()
        ),
    }
}

/// The planted skipped-backup-repair bug (`PlantedBug::Rereplication`) is
/// caught by the ≥1-live-replica invariant under both the deterministic
/// Fifo schedule and SeededRandom exploration, and shrinks to a one-line
/// repro: after a backup replica is wiped and silently never repaired,
/// the next outage of the *primary's* node leaves the page with zero
/// live replicas.
#[test]
fn broken_rereplication_is_caught_and_shrunk() {
    for policy in [PolicyKind::Fifo, PolicyKind::SeededRandom] {
        let opts = CheckOptions {
            wss_pages: 256,
            local_pages: 96,
            phases: 2,
            replicate: true,
            planted_bug: Some(PlantedBug::Rereplication),
            ..CheckOptions::default()
        };
        let cells = [Cell {
            seed: 5,
            plan: 0,
            ops: 512,
            threads: 4,
            policy,
        }];
        let ExploreOutcome::Failed { original, shrunk } = explore(&cells, &opts, 24) else {
            panic!("the skipped backup repair was not caught under {policy:?}");
        };
        assert_eq!(original, cells[0]);
        assert_eq!(
            shrunk.violation.name(),
            "replica-unreachable",
            "got {}",
            shrunk.violation
        );

        // The minimal reproducer still fails the same way, and its repro
        // command is a single line.
        let replayed = run_cell(&shrunk.cell, &opts).unwrap_err();
        assert_eq!(replayed.name(), "replica-unreachable");
        let line = shrunk.cell.repro_line();
        assert_eq!(line.lines().count(), 1, "repro must be one line");
        assert!(line.starts_with("MAGE_CHECK_SEED="));
        println!("[{}] {line}", policy.name());
    }
}

/// Replays one cell from `MAGE_CHECK_*` environment variables — the
/// target of every printed repro line. Without the variables it runs the
/// default cell, so the test is meaningful in a plain suite run too.
/// `MAGE_CHECK_BREAK` additionally enables a planted bug, for replaying
/// the synthetic-bug demonstrations: `settlement` (or the historical
/// `1`) resurrects the settlement double-count, `publish` the unlocked
/// PTE re-publish that only the race detector can see, and
/// `rereplication` the skipped backup repair (which also turns
/// replication on, since the bug only exists there).
#[test]
fn replay_cell() {
    let cell = Cell::from_env().unwrap_or_default();
    let planted_bug = match std::env::var("MAGE_CHECK_BREAK").ok().as_deref() {
        Some("1") | Some("settlement") => Some(PlantedBug::Settlement),
        Some("publish") => Some(PlantedBug::Publish),
        Some("rereplication") => Some(PlantedBug::Rereplication),
        _ => None,
    };
    let opts = CheckOptions {
        replicate: planted_bug == Some(PlantedBug::Rereplication),
        planted_bug,
        ..CheckOptions::default()
    };
    match run_cell(&cell, &opts) {
        Ok(report) => println!(
            "replay clean: {} polls, {} major faults, {} events",
            report.polls, report.major_faults, report.events
        ),
        Err(v) => panic!(
            "replayed cell violates '{v}'\nrepro: {}",
            cell.repro_line()
        ),
    }
}

/// Golden-schedule parity: the explicit Fifo policy is bit-for-bit the
/// default executor schedule — identical stats, poll count and final
/// virtual time. (tests/seams.rs independently pins the default
/// schedule's absolute values, so together these prove the exploration
/// hook did not move the golden schedules.)
#[test]
fn fifo_policy_reproduces_the_default_schedule_bit_for_bit() {
    let default_digest = churn_digest(Simulation::new(), SystemConfig::mage_lib());
    let fifo_digest = churn_digest(
        Simulation::with_policy(ExplorationPolicy::Fifo),
        SystemConfig::mage_lib(),
    );
    assert_eq!(default_digest, fifo_digest);
}

/// Exploration genuinely perturbs schedules: a random policy visits a
/// different interleaving of the same workload (different poll/time
/// digest) while the workload still completes and settles cleanly.
#[test]
fn random_policies_visit_different_schedules() {
    let fifo = churn_digest(Simulation::new(), SystemConfig::mage_lib());
    let random = churn_digest(
        Simulation::with_policy(ExplorationPolicy::SeededRandom { seed: 0xE5C4_0B1A }),
        SystemConfig::mage_lib(),
    );
    // Same workload, same accesses.
    assert_eq!(fifo[0], random[0]);
    // A genuinely different schedule: some observable differs.
    assert_ne!(fifo, random, "random policy replayed the FIFO schedule");
    // And the same random seed reproduces its schedule exactly.
    let again = churn_digest(
        Simulation::with_policy(ExplorationPolicy::SeededRandom { seed: 0xE5C4_0B1A }),
        SystemConfig::mage_lib(),
    );
    assert_eq!(random, again);
}

//! The invariant list: named whole-machine safety checks evaluated at
//! quiescent points.
//!
//! Each check is a pure inspection function over a [`CheckCtx`]
//! (engine + region + quota); it returns the first [`Violation`] it
//! finds or `None`. [`check_invariants`] runs the fixed list
//! [`CHECKS`] in order. mage-check runs it at every quiescent point of
//! every cell, and every churn suite runs it after its workload, so a
//! property is written once and checked by every sweep (DESIGN.md
//! §8/§9). The properties, in evaluation order:
//!
//! 1. **stale-tlb** — a settled remote page is translated by no core's
//!    TLB (a stale entry would let the app read a reclaimed frame);
//! 2. **settlement** — `evicted + sync + cancelled + requeued ≤
//!    unmapped`: every unmapped page settles at most once;
//! 3. **frame-conservation** — resident + free frames never exceed the
//!    local quota (frames mid-circulation are owned by exactly one
//!    path);
//! 4. **lost-page** — every page of the region is resident or remotely
//!    reachable, never neither;
//! 5. **replica-unreachable** — on a replicated backend, every settled
//!    remote page has a tracked slot with a live replica;
//! 6. **replica-transition** — replica states only move along the legal
//!    state machine;
//! 7. **ghost-accounting** — `re_faults ≤ ghost_hits ≤ re_faults +
//!    requeued_victims`: every re-fault is a ghost hit, and only a
//!    requeued victim hits the ghost list without re-faulting;
//! 8. **cancel-bound** — `evict_cancelled_pages ≤ evict_cancels`: a
//!    batch skips a page only for a refault that cancelled it.
//!
//! The replica checks are no-ops on a single-copy backend. The order is
//! part of the contract: it decides which violation a failing run
//! reports first, and so what the shrinker minimizes.

use mage::FarMemory;
use mage_mmu::Vma;

use crate::Violation;

/// Everything an invariant may inspect at a quiescent point.
pub struct CheckCtx<'a> {
    /// The engine under check (read-only inspection).
    pub engine: &'a FarMemory,
    /// The mapped region the workload runs over.
    pub vma: &'a Vma,
    /// The machine's local DRAM quota in pages.
    pub local_pages: u64,
}

/// One invariant check.
type CheckFn = fn(&CheckCtx) -> Option<Violation>;

/// Every invariant, in evaluation order. Each name is the
/// [`Violation::name`] its check reports.
pub const CHECKS: [(&str, CheckFn); 8] = [
    ("stale-tlb", no_stale_tlb),
    ("settlement", settlement),
    ("frame-conservation", frame_conservation),
    ("lost-page", no_lost_page),
    ("replica-unreachable", replica_coverage),
    ("replica-transition", replica_transitions),
    ("ghost-accounting", ghost_accounting),
    ("cancel-bound", cancel_bound),
];

/// Runs every check of [`CHECKS`] in order; fails on the first
/// violation.
pub fn check_invariants(ctx: &CheckCtx) -> Result<(), Violation> {
    CHECKS.iter().find_map(|(_, check)| check(ctx)).map_or(Ok(()), Err)
}

/// Settled remote page ⇒ no core still translates it. A page that is
/// remote *and locked* is mid-eviction: its frame is not reclaimed until
/// the shootdown acks arrive, so a TLB entry there is not yet stale.
fn no_stale_tlb(ctx: &CheckCtx) -> Option<Violation> {
    let interrupts = ctx.engine.interrupts();
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if pte.is_remote() && !pte.locked() {
            if let Some(core) = interrupts.sharer(vpn) {
                return Some(Violation::StaleTlb { core: core.0, vpn });
            }
        }
    }
    None
}

/// Settlement identity: every unmapped page settles as at most one of
/// evicted / sync-evicted / cancelled / requeued.
fn settlement(ctx: &CheckCtx) -> Option<Violation> {
    let s = ctx.engine.stats();
    let settled = s.evicted_pages.get()
        + s.sync_evicted_pages.get()
        + s.evict_cancelled_pages.get()
        + s.requeued_victims.get();
    let unmapped = s.unmapped_pages.get();
    if settled > unmapped {
        return Some(Violation::Settlement { settled, unmapped });
    }
    None
}

/// Resident + free frames never exceed the local quota.
fn frame_conservation(ctx: &CheckCtx) -> Option<Violation> {
    let resident = ctx.engine.accounting().resident_pages();
    let free = ctx.engine.allocator().free_frames();
    if resident + free > ctx.local_pages {
        return Some(Violation::FrameConservation {
            resident,
            free,
            quota: ctx.local_pages,
        });
    }
    None
}

/// Every page of the region is resident or remotely reachable.
fn no_lost_page(ctx: &CheckCtx) -> Option<Violation> {
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if !pte.is_present() && !pte.is_remote() {
            return Some(Violation::LostPage { vpn });
        }
    }
    None
}

/// Replica coverage (replicated backends only): a settled remote page
/// must have a tracked slot with at least one replica that is `Synced`
/// or actively `Rebuilding`. An untracked slot or an all-`Degraded` one
/// means the page's data survives on no node, which a correct repair
/// loop makes impossible as long as node outages never overlap.
fn replica_coverage(ctx: &CheckCtx) -> Option<Violation> {
    use mage::ReplicaState;
    let backend = ctx.engine.backend();
    // A single-copy backend has no replicas to cover.
    backend.replication_stats()?;
    for i in 0..ctx.vma.pages {
        let vpn = ctx.vma.start_vpn + i;
        let pte = ctx.engine.page_table().get(vpn);
        if !pte.is_remote() || pte.locked() {
            continue;
        }
        let rpn = pte.payload();
        let alive = backend.replica_states(rpn).is_some_and(|states| {
            states
                .iter()
                .any(|s| matches!(s, ReplicaState::Synced | ReplicaState::Rebuilding))
        });
        if !alive {
            return Some(Violation::ReplicaUnreachable { vpn, rpn });
        }
    }
    None
}

/// Replica states only ever move along the legal
/// Synced↔Degraded→Rebuilding→Synced machine; the backend counts every
/// violation at the single funnel all state writes pass through.
fn replica_transitions(ctx: &CheckCtx) -> Option<Violation> {
    let count = ctx
        .engine
        .backend()
        .replication_stats()
        .map(|s| s.illegal_transitions.get())
        .unwrap_or(0);
    if count > 0 {
        return Some(Violation::ReplicaTransition { count });
    }
    None
}

/// Ghost-hit accounting: every re-fault is a ghost hit, and the only
/// ghost hits that are not re-faults are requeued victims re-inserted
/// while still on the ghost list.
fn ghost_accounting(ctx: &CheckCtx) -> Option<Violation> {
    let s = ctx.engine.stats();
    let ghost_hits = s.ghost_hits.get();
    let re_faults = s.re_faults.get();
    let requeued = s.requeued_victims.get();
    if re_faults > ghost_hits || ghost_hits > re_faults + requeued {
        return Some(Violation::GhostAccounting {
            ghost_hits,
            re_faults,
            requeued,
        });
    }
    None
}

/// A batch skips a page as cancelled only after a refault cancelled its
/// eviction, so cancelled pages never outnumber cancels.
fn cancel_bound(ctx: &CheckCtx) -> Option<Violation> {
    let s = ctx.engine.stats();
    let cancelled_pages = s.evict_cancelled_pages.get();
    let cancels = s.evict_cancels.get();
    if cancelled_pages > cancels {
        return Some(Violation::CancelBound {
            cancelled_pages,
            cancels,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage::{MachineParams, ReplicationConfig, SystemConfig};
    use mage_mmu::Topology;
    use mage_sim::Simulation;
    use std::rc::Rc;

    /// A freshly populated machine: 64 local pages under a 256-page
    /// region, so the region spans local and remote placement.
    fn fresh(system: SystemConfig) -> (Simulation, Rc<FarMemory>, Vma) {
        let sim = Simulation::new();
        let params = MachineParams {
            topo: Topology::single_socket(8),
            app_threads: 4,
            local_pages: 64,
            remote_pages: 1_024,
            tlb_entries: 64,
            seed: 3,
        };
        let engine = FarMemory::launch(sim.handle(), system, params);
        let vma = engine.mmap(256);
        engine.populate(&vma);
        (sim, engine, vma)
    }

    fn check(engine: &FarMemory, vma: &Vma) -> Result<(), Violation> {
        check_invariants(&CheckCtx {
            engine,
            vma,
            local_pages: 64,
        })
    }

    #[test]
    fn checks_run_in_the_fixed_order() {
        let names: Vec<&str> = CHECKS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names,
            [
                "stale-tlb",
                "settlement",
                "frame-conservation",
                "lost-page",
                "replica-unreachable",
                "replica-transition",
                "ghost-accounting",
                "cancel-bound",
            ]
        );
    }

    #[test]
    fn freshly_populated_machine_upholds_every_invariant() {
        for system in [
            SystemConfig::mage_lib(),
            SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        ] {
            let (_sim, engine, vma) = fresh(system);
            check(&engine, &vma).expect("fresh machine must be invariant-clean");
        }
    }

    #[test]
    fn ghost_hit_without_a_refault_or_requeue_fails_ghost_accounting() {
        let (_sim, engine, vma) = fresh(SystemConfig::mage_lib());
        engine.stats().ghost_hits.inc();
        let err = check(&engine, &vma).unwrap_err();
        assert_eq!(err.name(), "ghost-accounting", "got {err}");
        // A requeued victim accounts for one ghost hit without a re-fault.
        engine.stats().requeued_victims.inc();
        engine.stats().unmapped_pages.inc();
        check(&engine, &vma).expect("a requeued victim's ghost hit is legal");
        // A re-fault that missed the ghost list breaks the lower bound.
        engine.stats().re_faults.add(2);
        let err = check(&engine, &vma).unwrap_err();
        assert_eq!(err.name(), "ghost-accounting", "got {err}");
    }

    #[test]
    fn cancelled_page_without_a_cancel_fails_cancel_bound() {
        let (_sim, engine, vma) = fresh(SystemConfig::mage_lib());
        // Unmap the page first so the settlement identity still holds.
        engine.stats().unmapped_pages.inc();
        engine.stats().evict_cancelled_pages.inc();
        let err = check(&engine, &vma).unwrap_err();
        assert_eq!(err.name(), "cancel-bound", "got {err}");
        engine.stats().evict_cancels.inc();
        check(&engine, &vma).expect("one cancel covers one cancelled page");
    }
}

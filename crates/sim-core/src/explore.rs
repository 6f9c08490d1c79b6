//! Schedule exploration: pluggable ready-queue pick strategies.
//!
//! The executor's ready queue is FIFO by default, which gives every test
//! suite one fixed, reproducible schedule. That is the right default for
//! golden-value tests, but it also means a single interleaving of the
//! decoupled fault and eviction paths is ever exercised. The types here
//! make the ready-queue *pick* pluggable so a checker (see the
//! `mage-check` crate) can systematically explore many schedules:
//!
//! - [`ExplorationPolicy::Fifo`] — pick index 0, bit-for-bit identical to
//!   the historical executor;
//! - [`ExplorationPolicy::SeededRandom`] — pick uniformly among runnable
//!   tasks using a [`SplitMix64`] stream, consuming one draw per *real*
//!   choice point (a single-entry queue costs nothing, so schedules are a
//!   function of genuine scheduling decisions only);
//! - [`ExplorationPolicy::PriorityFuzz`] — assign each task id a fixed
//!   pseudo-random priority derived from the seed and always run the
//!   highest-priority runnable task. This starves "unlucky" tasks for
//!   long stretches and surfaces orderings uniform choice rarely hits.
//!
//! Interleavings only change at `await` points: a task still runs
//! uninterrupted between yields, so code that relies on the executor's
//! run-to-completion atomicity (e.g. the PTE lock fast path) stays
//! correct under every policy.
//!
//! The executor keeps its ready queue as a `VecDeque` of task slot ids;
//! policies see it as a slice of those ids in FIFO order (the FIFO fast
//! path pops the front without consulting the explorer at all, and a
//! single-entry queue is not a choice point).

use crate::executor::TaskId;
use crate::rng::{mix64, SplitMix64};
use crate::time::SimTime;

/// How the executor picks the next task from the ready queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExplorationPolicy {
    /// Front of the queue, the deterministic default schedule.
    #[default]
    Fifo,
    /// Uniformly random pick among runnable tasks, seeded.
    SeededRandom {
        /// Seed for the pick stream.
        seed: u64,
    },
    /// Fixed per-task pseudo-random priorities derived from the seed;
    /// the highest-priority runnable task always runs first.
    PriorityFuzz {
        /// Seed for the priority assignment.
        seed: u64,
    },
}

impl ExplorationPolicy {
    /// Short stable name, for labels and repro lines.
    pub fn name(&self) -> &'static str {
        match self {
            ExplorationPolicy::Fifo => "fifo",
            ExplorationPolicy::SeededRandom { .. } => "seeded-random",
            ExplorationPolicy::PriorityFuzz { .. } => "priority-fuzz",
        }
    }
}

/// Progress report from a bounded executor run that exhausted its poll
/// budget (see `Simulation::block_on_bounded`).
#[derive(Clone, Copy, Debug)]
pub struct RunProgress {
    /// Virtual time when the run stopped.
    pub now: SimTime,
    /// Task polls performed by this run (not cumulative).
    pub polls: u64,
}

/// The executor-side state backing an [`ExplorationPolicy`]: the policy
/// itself plus the RNG stream that drives random picks.
pub(crate) struct Explorer {
    policy: ExplorationPolicy,
    rng: SplitMix64,
}

impl Explorer {
    pub(crate) fn new(policy: ExplorationPolicy) -> Self {
        let rng = match policy {
            ExplorationPolicy::Fifo => SplitMix64::new(0),
            ExplorationPolicy::SeededRandom { seed } | ExplorationPolicy::PriorityFuzz { seed } => {
                SplitMix64::new(mix64(seed))
            }
        };
        Explorer { policy, rng }
    }

    pub(crate) fn policy(&self) -> ExplorationPolicy {
        self.policy
    }

    /// True for the default FIFO policy — the executor's fast path pops
    /// the ready-list head directly, consuming no RNG.
    pub(crate) fn is_fifo(&self) -> bool {
        matches!(self.policy, ExplorationPolicy::Fifo)
    }

    /// Picks the index of the next task to poll from a non-empty ready
    /// set, given as a dense slice of stable task slot ids in FIFO
    /// order. Index 0 preserves the FIFO schedule exactly.
    pub(crate) fn pick(&self, ready: &[TaskId]) -> usize {
        debug_assert!(!ready.is_empty(), "pick on an empty ready queue");
        match self.policy {
            ExplorationPolicy::Fifo => 0,
            ExplorationPolicy::SeededRandom { .. } => {
                if ready.len() == 1 {
                    0
                } else {
                    self.rng.next_below(ready.len() as u64) as usize
                }
            }
            ExplorationPolicy::PriorityFuzz { seed } => {
                let mut best = 0usize;
                let mut best_prio = 0u64;
                for (i, &id) in ready.iter().enumerate() {
                    let prio = mix64(seed ^ mix64(u64::from(id) + 1));
                    if i == 0 || prio > best_prio {
                        best = i;
                        best_prio = prio;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_always_picks_front() {
        let e = Explorer::new(ExplorationPolicy::Fifo);
        assert!(e.is_fifo());
        for _ in 0..32 {
            assert_eq!(e.pick(&[3, 1, 2]), 0);
        }
    }

    #[test]
    fn seeded_random_is_reproducible_and_covers() {
        let picks = |seed| {
            let e = Explorer::new(ExplorationPolicy::SeededRandom { seed });
            assert!(!e.is_fifo());
            (0..64).map(|_| e.pick(&[0, 1, 2, 3])).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7), "same seed, same pick sequence");
        assert_ne!(picks(7), picks(8), "different seeds diverge");
        let mut seen = [false; 4];
        for p in picks(7) {
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s), "all queue positions reachable");
    }

    #[test]
    fn seeded_random_skips_draw_on_singleton_queue() {
        // A single runnable task is not a choice point: the pick stream
        // must not advance, so schedules depend only on real decisions.
        let e = Explorer::new(ExplorationPolicy::SeededRandom { seed: 9 });
        let before: Vec<usize> = (0..8).map(|_| e.pick(&[0, 1])).collect();
        let f = Explorer::new(ExplorationPolicy::SeededRandom { seed: 9 });
        let mut after = Vec::new();
        for _ in 0..8 {
            assert_eq!(f.pick(&[5]), 0);
            after.push(f.pick(&[0, 1]));
        }
        assert_eq!(before, after);
    }

    #[test]
    fn priority_fuzz_orders_by_fixed_priorities() {
        let e = Explorer::new(ExplorationPolicy::PriorityFuzz { seed: 3 });
        // The winner among a fixed id set never changes...
        let first = e.pick(&[10, 11, 12, 13]);
        for _ in 0..16 {
            assert_eq!(e.pick(&[10, 11, 12, 13]), first);
        }
        // ...and removing it promotes a deterministic runner-up.
        let mut q: Vec<TaskId> = vec![10, 11, 12, 13];
        q.remove(first);
        let second = e.pick(&q);
        for _ in 0..16 {
            assert_eq!(e.pick(&q), second);
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ExplorationPolicy::Fifo.name(), "fifo");
        assert_eq!(ExplorationPolicy::SeededRandom { seed: 1 }.name(), "seeded-random");
        assert_eq!(ExplorationPolicy::PriorityFuzz { seed: 1 }.name(), "priority-fuzz");
        assert_eq!(ExplorationPolicy::default(), ExplorationPolicy::Fifo);
    }
}

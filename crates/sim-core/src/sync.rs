//! Virtual-time synchronization primitives.
//!
//! The paper's scalability collapse is queueing delay at shared locks
//! (LRU lists, allocators, swap locks, APIC). [`SimMutex`] is a
//! strict-FIFO ticket lock on virtual time: a waiter is suspended until
//! the guard is handed over, so its wait accrues in the simulation clock
//! and contention curves *emerge* from the simulated mechanism rather
//! than being assumed. The locks record nothing themselves; the waits
//! they cause surface in the task clocks and are read through the
//! engine's fault breakdown. [`WaitQueue`] is the condition-variable
//! counterpart for waiting on state rather than on a lock.
//!
//! **A task holds at most one `SimMutex` guard.** A task that asks for a
//! second panics before it queues, naming both locks and both `lock()`
//! sites, so no lock cycle can deadlock a run. A guard may be held across
//! a `sleep`: that is a critical section's service time.
//!
//! Every handoff between tasks is one `Edge`: a lock's unlock to its
//! next lock, a wait-queue wake to the woken waiter's resume, and a
//! task's completion to its [`crate::JoinHandle`]. An edge carries both
//! halves of happens-before at once. The acquirer resumes no earlier
//! than the releaser's task clock (see [`crate::executor`]), so a task
//! that ran ahead of the global clock still delays those it hands over
//! to; and simsan orders the acquirer's accesses after the releaser's
//! (see [`crate::race`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, VecDeque};
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{self, Held, TaskId, TaskRef};
use crate::race::RaceDetector;
use crate::time::SimTime;

/// One happens-before edge from a releasing task to the tasks that later
/// acquire it. Both halves reach the executor through its one
/// running-executor thread-local, so neither can be dropped at a call
/// site.
#[derive(Default)]
pub(crate) struct Edge {
    /// The releasing task's clock at the last release: an acquirer
    /// resumes no earlier. A release outside a run stamps 0, which is
    /// never above the clock of the poll that later acquires it.
    at: Cell<SimTime>,
    /// simsan sync id, allocated at the first release under a detector;
    /// 0 until then, and an acquire of 0 is a no-op.
    sync: Cell<u32>,
}

impl Edge {
    /// Hands the running task's clock and its accesses so far to the
    /// next acquirer.
    pub(crate) fn release(&self) {
        let at = executor::with_running(|core| {
            core.with_race(|det| det.release(self.sync_id(det)));
            core.clock()
        });
        self.at.set(at.unwrap_or(SimTime::ZERO));
    }

    /// The running task resumes no earlier than the last release, and
    /// its accesses are ordered after the releaser's.
    pub(crate) fn acquire(&self) {
        executor::with_running(|core| {
            core.with_race(|det| det.acquire(self.sync.get()));
            core.sync_clock(self.at.get());
        });
    }

    fn sync_id(&self, det: &RaceDetector) -> u32 {
        if self.sync.get() == 0 {
            self.sync.set(det.alloc_sync());
        }
        self.sync.get()
    }
}

struct MutexCtl {
    next_ticket: Cell<u64>,
    now_serving: Cell<u64>,
    /// Parked waiters, keyed by ticket. A waiter parks at poll time (not
    /// in ticket order) and handoff needs a lookup by the served ticket,
    /// so this is an association list — queues are short and a linear
    /// scan beats the ordered map it replaced on the lock/unlock hot path.
    parked: RefCell<Vec<(u64, TaskRef)>>,
    abandoned: RefCell<BTreeSet<u64>>,
    /// Unlock to the next lock.
    handoff: Edge,
}

impl MutexCtl {
    /// Removes and returns the task parked on `ticket`, if any.
    fn take_parked(&self, ticket: u64) -> Option<TaskRef> {
        let mut parked = self.parked.borrow_mut();
        let pos = parked.iter().position(|(t, _)| *t == ticket)?;
        Some(parked.swap_remove(pos).1)
    }

    /// Advances `now_serving` past abandoned tickets and wakes the holder
    /// of the newly served ticket, if any is waiting.
    fn serve_next(&self) {
        let mut serving = self.now_serving.get() + 1;
        {
            let mut abandoned = self.abandoned.borrow_mut();
            while abandoned.remove(&serving) {
                serving += 1;
            }
        }
        self.now_serving.set(serving);
        if let Some(task) = self.take_parked(serving) {
            task.wake();
        }
    }
}

/// A strict-FIFO asynchronous mutex on virtual time.
///
/// Acquisition order equals the order in which [`SimMutex::lock`] was
/// *called* (ticket lock), making simulations deterministic and queueing
/// delay faithful to a fair spinlock. Waiting never burns host CPU — it
/// suspends the task until the guard is handed over.
///
/// # Examples
///
/// ```
/// use mage_sim::{Simulation, sync::SimMutex};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let sim = Simulation::new();
/// let h = sim.handle();
/// let m = Rc::new(SimMutex::new("counter", 0u64));
/// let waits = Rc::new(RefCell::new(Vec::new()));
/// for _ in 0..3 {
///     let (h, m, waits) = (h.clone(), Rc::clone(&m), Rc::clone(&waits));
///     sim.spawn(async move {
///         let asked = h.now();
///         let mut g = m.lock().await;
///         waits.borrow_mut().push(h.now().saturating_since(asked));
///         h.sleep(100).await; // critical-section service time
///         *g += 1;
///     });
/// }
/// sim.run();
/// let m2 = Rc::clone(&m);
/// assert_eq!(sim.block_on(async move { *m2.lock().await }), 3);
/// // Each waiter queues behind the service times of those ahead of it.
/// assert_eq!(*waits.borrow(), [0, 100, 200]);
/// ```
pub struct SimMutex<T> {
    /// Names the lock in the one-lock rule's report.
    name: &'static str,
    ctl: MutexCtl,
    value: RefCell<T>,
}

impl<T> SimMutex<T> {
    /// Creates an unlocked mutex called `name` protecting `value`.
    pub fn new(name: &'static str, value: T) -> Self {
        SimMutex {
            name,
            ctl: MutexCtl {
                next_ticket: Cell::new(0),
                now_serving: Cell::new(0),
                parked: RefCell::new(Vec::new()),
                abandoned: RefCell::new(BTreeSet::new()),
                handoff: Edge::default(),
            },
            value: RefCell::new(value),
        }
    }

    /// Acquires the mutex; resolves to a guard releasing it on drop.
    #[track_caller]
    pub fn lock(&self) -> MutexLock<'_, T> {
        let ticket = self.ctl.next_ticket.get();
        self.ctl.next_ticket.set(ticket + 1);
        MutexLock {
            mutex: self,
            ticket,
            acquired: false,
            checked: false,
            site: Location::caller(),
        }
    }

    /// Synchronously accesses the protected value without queueing.
    ///
    /// Intended for setup/seeding and post-run inspection while the
    /// simulation is quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is currently held or has waiters.
    pub fn with_sync<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        assert_eq!(
            self.ctl.now_serving.get(),
            self.ctl.next_ticket.get(),
            "with_sync on a held or contended mutex"
        );
        f(&mut self.value.borrow_mut())
    }
}

/// Future returned by [`SimMutex::lock`].
pub struct MutexLock<'a, T> {
    mutex: &'a SimMutex<T>,
    ticket: u64,
    acquired: bool,
    checked: bool,
    site: &'static Location<'static>,
}

impl<'a, T> Future for MutexLock<'a, T> {
    type Output = MutexGuard<'a, T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let m = self.mutex;
        let held = Held {
            name: m.name,
            site: self.site,
        };
        if !self.checked {
            // The one-lock rule is checked at the attempt, before the
            // ticket wait, so a nested acquire panics even where it
            // would deadlock.
            self.checked = true;
            executor::with_running(|core| core.check_unheld(held));
        }
        if m.ctl.now_serving.get() == self.ticket {
            self.acquired = true;
            let task = executor::with_running(|core| core.mark_held(held)).flatten();
            m.ctl.handoff.acquire();
            // The ticket protocol guarantees exclusivity, so this borrow
            // cannot conflict with another live guard.
            let inner = m.value.borrow_mut();
            Poll::Ready(MutexGuard {
                mutex: m,
                inner: Some(inner),
                task,
            })
        } else {
            let task = TaskRef::current("MutexLock");
            let mut parked = m.ctl.parked.borrow_mut();
            match parked.iter_mut().find(|(t, _)| *t == self.ticket) {
                Some(entry) => entry.1 = task,
                None => parked.push((self.ticket, task)),
            }
            Poll::Pending
        }
    }
}

impl<T> Drop for MutexLock<'_, T> {
    fn drop(&mut self) {
        if self.acquired {
            return;
        }
        // Cancelled before acquisition: retire the ticket so the queue
        // does not stall on it.
        let m = self.mutex;
        m.ctl.take_parked(self.ticket);
        if m.ctl.now_serving.get() == self.ticket {
            m.ctl.serve_next();
        } else {
            m.ctl.abandoned.borrow_mut().insert(self.ticket);
        }
    }
}

/// RAII guard for a [`SimMutex`].
pub struct MutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    inner: Option<std::cell::RefMut<'a, T>>,
    /// The task whose held marker this guard set, if acquired in a poll.
    task: Option<TaskId>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard borrow missing")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard borrow missing")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the borrow before waking the next ticket holder.
        self.inner = None;
        if let Some(id) = self.task {
            executor::with_running(|core| core.clear_held(id));
        }
        let m = self.mutex;
        m.ctl.handoff.release();
        m.ctl.serve_next();
    }
}

#[derive(Default)]
struct WaitSlot {
    signalled: Cell<bool>,
    /// The task parked on the slot, if any.
    parked: RefCell<Option<TaskRef>>,
    /// Per-waiter edge: released by the waker at the wake, acquired when
    /// the `Wait` resolves, so a woken task inherits exactly its waker's
    /// clocks (a precise edge, not a queue-wide one).
    wake: Edge,
}

impl WaitSlot {
    fn wake(&self) {
        self.wake.release();
        self.signalled.set(true);
        if let Some(task) = self.parked.borrow_mut().take() {
            task.wake();
        }
    }
}

/// A condition-variable-style wait queue.
///
/// Tasks call [`WaitQueue::wait`] in a predicate loop; state changers call
/// [`WaitQueue::wake_one`] / [`WaitQueue::wake_all`]. Because the executor
/// is single-threaded and non-preemptive, checking the predicate and then
/// awaiting is free of lost-wakeup races as long as no `.await` separates
/// the two.
#[derive(Default)]
pub struct WaitQueue {
    waiters: RefCell<VecDeque<Rc<WaitSlot>>>,
}

impl WaitQueue {
    /// Creates an empty wait queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a future completing at the next wake targeting this waiter.
    pub fn wait(&self) -> Wait {
        let slot = Rc::new(WaitSlot::default());
        self.waiters.borrow_mut().push_back(Rc::clone(&slot));
        Wait { slot }
    }

    /// Wakes the oldest waiter, if any. Returns true if one was woken.
    pub fn wake_one(&self) -> bool {
        let Some(slot) = self.waiters.borrow_mut().pop_front() else {
            return false;
        };
        slot.wake();
        true
    }

    /// Wakes every current waiter.
    pub fn wake_all(&self) {
        let slots: Vec<_> = self.waiters.borrow_mut().drain(..).collect();
        for s in slots {
            s.wake();
        }
    }

    /// Number of registered waiters.
    pub fn len(&self) -> usize {
        self.waiters.borrow().len()
    }

    /// Whether no waiter is registered.
    pub fn is_empty(&self) -> bool {
        self.waiters.borrow().is_empty()
    }
}

/// Future returned by [`WaitQueue::wait`].
pub struct Wait {
    slot: Rc<WaitSlot>,
}

impl Future for Wait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.slot.signalled.get() {
            self.slot.wake.acquire();
            Poll::Ready(())
        } else {
            *self.slot.parked.borrow_mut() = Some(TaskRef::current("Wait"));
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::Simulation;

    /// Runs `f` and returns the message it must panic with.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        *err.downcast().expect("a formatted message")
    }

    /// One task takes the lock `outer` and then, still holding it,
    /// `inner`. Asserts the report names both locks at both sites.
    fn assert_nesting_panics(outer: &'static str, inner: &'static str) {
        let line = Rc::new(Cell::new(0));
        let l = Rc::clone(&line);
        let msg = panic_message(move || {
            let (a, b) = (SimMutex::new(outer, ()), SimMutex::new(inner, ()));
            Simulation::new().block_on(async move {
                l.set(line!() + 1);
                let _ga = a.lock().await;
                let _gb = b.lock().await;
            });
        });
        let site = |name, line| format!("{name} (locked at {}:{line}:", file!());
        let (wants, holds) = (site(inner, line.get() + 1), site(outer, line.get()));
        assert!(msg.starts_with(&format!("task 0 acquires {wants}")), "{msg}");
        assert!(msg.contains(&format!(" while holding {holds}")), "{msg}");
    }

    #[test]
    fn nested_acquire_of_another_lock_panics() {
        assert_nesting_panics("lock-a", "lock-b");
    }

    #[test]
    fn same_name_nesting_panics() {
        assert_nesting_panics("shard", "shard");
    }

    /// Two tasks take {A, B} in opposite orders. Without the one-lock
    /// rule each would park on the other's lock, and the run would
    /// drain deadlocked.
    fn ab_ba_inversion() -> String {
        panic_message(|| {
            let sim = Simulation::new();
            let h = sim.handle();
            let ab = Rc::new([SimMutex::new("lock-a", ()), SimMutex::new("lock-b", ())]);
            for (first, start) in [(0, 0), (1, 5)] {
                let (h, ab) = (h.clone(), Rc::clone(&ab));
                sim.spawn(async move {
                    h.sleep(start).await;
                    let _g1 = ab[first].lock().await;
                    h.sleep(10).await;
                    let _g2 = ab[1 - first].lock().await;
                });
            }
            sim.run();
        })
    }

    #[test]
    fn ab_ba_inversion_panics_at_the_first_nested_attempt() {
        // Task 0 asks for lock-b at t = 10, while task 1 holds it.
        let msg = ab_ba_inversion();
        assert!(msg.starts_with("task 0 acquires lock-b"), "{msg}");
        assert!(msg.contains("while holding lock-a"), "{msg}");
        assert_eq!(msg.matches(file!()).count(), 2, "both lock() sites: {msg}");
    }

    #[test]
    fn ab_ba_report_is_deterministic_across_runs() {
        assert_eq!(ab_ba_inversion(), ab_ba_inversion());
    }

    #[test]
    fn holding_a_guard_across_sleep_is_allowed() {
        // Task 0 holds lock-a across a yielding sleep. Task 1 takes
        // lock-b meanwhile, drops it and queues for lock-a: each task's
        // marker is its own.
        let sim = Simulation::new();
        let h = sim.handle();
        let a = Rc::new(SimMutex::new("lock-a", ()));
        let b = SimMutex::new("lock-b", ());
        let (h1, a1) = (h.clone(), Rc::clone(&a));
        sim.spawn(async move {
            let _ga = a1.lock().await;
            h1.sleep(100).await;
        });
        let got_a = sim.spawn(async move {
            drop(b.lock().await);
            let _ga = a.lock().await;
            h.now().as_nanos()
        });
        assert_eq!(sim.block_on(got_a), 100);
    }

    #[test]
    fn sequential_locks_do_not_panic() {
        // A, B, B, A, one at a time on one task: each guard's drop
        // clears the marker its lock set.
        Simulation::new().block_on(async {
            let ab = [SimMutex::new("lock-a", 0u32), SimMutex::new("lock-b", 0u32)];
            for i in [0, 1, 1, 0] {
                *ab[i].lock().await += 1;
            }
            assert_eq!(ab.each_ref().map(|m| m.with_sync(|v| *v)), [2, 2]);
        });
    }

    /// Spawns `contenders` tasks at t = 0 that each hold one mutex for
    /// `service_ns`, under run-ahead bound `q`. Returns `(id, wait)` in
    /// grant order, where `wait` is the task's own clock from its
    /// `lock()` call to its guard.
    fn contend(q: u64, contenders: u32, service_ns: u64) -> Vec<(u32, u64)> {
        let sim = Simulation::new();
        let h = sim.handle();
        h.set_run_ahead(q);
        let m = Rc::new(SimMutex::new("contended", Vec::new()));
        for id in 0..contenders {
            let (h, m) = (h.clone(), Rc::clone(&m));
            sim.spawn(async move {
                let asked = h.now();
                let mut g = m.lock().await;
                g.push((id, h.now().saturating_since(asked)));
                h.sleep(service_ns).await;
            });
        }
        sim.run();
        m.with_sync(std::mem::take)
    }

    #[test]
    fn mutex_is_fifo_and_measures_wait() {
        // Whether the holders' service sleeps yield (Q = 0) or run ahead
        // (Q = 1 µs), the handoff edge charges every wait.
        for q in [0, 1_000] {
            let granted = contend(q, 4, 100);
            let order: Vec<u32> = granted.iter().map(|&(id, _)| id).collect();
            assert_eq!(order, [0, 1, 2, 3]);
            // Waiters 1..3 wait 100, 200, 300 ns respectively.
            let waits: Vec<u64> = granted.iter().map(|&(_, w)| w).collect();
            assert_eq!(waits, [0, 100, 200, 300], "Q = {q}");
        }
    }

    #[test]
    fn mutex_uncontended_is_immediate() {
        let sim = Simulation::new();
        let m = SimMutex::new("uncontended", 5u32);
        let v = sim.block_on(async move {
            let g = m.lock().await;
            *g
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn cancelled_lock_does_not_stall_queue() {
        let sim = Simulation::new();
        let h = sim.handle();
        let m = Rc::new(SimMutex::new("cancelled", ()));
        let m2 = Rc::clone(&m);
        let h2 = h.clone();
        let done = sim.block_on(async move {
            let g = m2.lock().await;
            // Create and drop a pending lock future (ticket 1).
            {
                let fut = m2.lock();
                drop(fut);
            }
            drop(g);
            h2.sleep(1).await;
            // Ticket 2 must still be served.
            let _g = m2.lock().await;
            true
        });
        assert!(done);
    }

    #[test]
    fn waitqueue_wake_all() {
        let sim = Simulation::new();
        let q = Rc::new(WaitQueue::new());
        let n = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let (q, n) = (Rc::clone(&q), Rc::clone(&n));
            sim.spawn(async move {
                q.wait().await;
                n.set(n.get() + 1);
            });
        }
        let q2 = Rc::clone(&q);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(5).await;
            q2.wake_all();
        });
        sim.run();
        assert_eq!(n.get(), 3);
    }

    #[test]
    fn queueing_delay_grows_with_contenders() {
        // The core mechanism of the reproduction: total waiting time at a
        // lock with fixed service time grows quadratically with the number
        // of simultaneous contenders.
        // The convoy survives run-ahead: the queue outgrows the bound.
        for q in [0, 1_000] {
            let total_wait =
                |contenders| -> u64 { contend(q, contenders, 200).iter().map(|&(_, w)| w).sum() };
            // sum_{i<n} i*200 = n(n-1)*100: 8 -> 5_600, 48 -> 225_600.
            assert_eq!(total_wait(8), 5_600, "Q = {q}");
            assert_eq!(total_wait(48), 225_600, "Q = {q}");
        }
    }
}

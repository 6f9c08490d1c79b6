//! Deterministic single-threaded async executor over virtual time.
//!
//! Tasks are `!Send` futures polled on the caller's thread. Time advances
//! only when no task is runnable: the executor then jumps the virtual clock
//! to the earliest pending timer. Execution is deterministic: the ready
//! queue is FIFO and timers break ties by registration sequence.
//!
//! Tasks park only through sim-core's primitives: [`Sleep`],
//! [`YieldNow`], [`JoinHandle`], [`crate::sync::SimMutex`] and
//! [`crate::sync::WaitQueue`]. Each names the parked task by the slot id
//! of the task being polled, and panics if polled outside a task poll,
//! where there is no task for a later wake to reach. A wake queues the
//! id, and the next scheduling step moves it onto the ready queue, so
//! tasks spawned in a poll run before that poll's wakes. The `Context`
//! a task is polled with carries a no-op waker: a foreign future that
//! parks on the context's waker is never woken, and
//! [`Simulation::block_on`] reports the deadlock.
//!
//! Hot-path representation (DESIGN.md §11): tasks live in a dense slot
//! arena, the ready queue is a `VecDeque` of slot ids with a per-slot
//! state byte that de-duplicates wakes, and timers live in an exact
//! near-window queue ([`crate::wheel`]) whose payloads are `u32` slot
//! ids. A `Sleep` registers the id of the task polling it, so a fired
//! timer moves the task straight onto the ready queue. Both orders, FIFO
//! and `(deadline, seq)`, are the historical ones bit for bit.
//!
//! Two clocks (DESIGN.md §7 "lax synchronization", §11): the *global*
//! clock is the deadline of the last fired timer, and every task carries
//! its own clock, which [`SimHandle::now`] reads during that task's poll.
//! A sleep that ends at most the run-ahead bound `Q` past the global
//! clock advances only the task's clock and does not yield; a longer one
//! registers a timer. Clocks flow along the happens-before edges simsan
//! records: a spawned task starts at its spawner's clock, and the join,
//! mutex handoff and wait-queue wake are each one `sync::Edge`,
//! which carries the clock and the simsan halves together. So during a
//! poll `global ≤ task clock ≤ global + Q`. With `Q` = 0 (the default)
//! the task clock is the global clock and the schedule is the exact one.
//!
//! One thread-local, `RUNNING`, names the executor whose run loop is
//! active: an edge reaches the running task's clock and the detector
//! through it, a `SimMutex` checks and marks the one guard its task may
//! hold, and simsan stamps accesses with that clock.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::Location;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::explore::{ExplorationPolicy, Explorer, RunProgress};
use crate::race::RaceDetector;
use crate::sync::Edge;
use crate::time::{Nanos, SimTime};
use crate::wheel::TimerWheel;

/// A task's slot index in the arena.
pub(crate) type TaskId = u32;
type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A task slot; [`Sched`]'s slot state says whether it is live.
struct Task {
    /// The future, moved out for the duration of a poll; `None` while
    /// polled and once finished.
    body: Option<LocalFuture>,
    /// The task's own clock as its last poll left it.
    clock: SimTime,
    /// The `SimMutex` guard the task holds, if any (see [`crate::sync`]).
    held: Option<Held>,
}

/// A `SimMutex` guard's marker on its task: lock name and `lock()` site.
#[derive(Clone, Copy)]
pub(crate) struct Held {
    pub(crate) name: &'static str,
    pub(crate) site: &'static Location<'static>,
}

/// Where a task slot stands with respect to the ready queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// No task: wakes addressed to the slot are dropped.
    Vacant,
    /// Live and not queued (running, parked, or sleeping).
    Idle,
    /// Live and in the ready queue; further wakes are no-ops.
    Queued,
}

/// The scheduler state one poll cycle touches, behind one borrow: the
/// FIFO ready queue of slot ids, de-duplicated by per-slot state, and
/// the pending timers.
struct Sched {
    ready: VecDeque<TaskId>,
    state: Vec<SlotState>,
    /// Pending timers, fired in `(deadline, seq)` order (see
    /// [`crate::wheel`]); payloads are task ids.
    timers: TimerWheel<TaskId>,
    timer_seq: u64,
}

impl Sched {
    fn new() -> Self {
        Sched {
            ready: VecDeque::new(),
            state: Vec::new(),
            timers: TimerWheel::new(),
            timer_seq: 0,
        }
    }

    /// Queues `id` unless its slot is vacant or already queued.
    #[inline]
    fn wake(&mut self, id: TaskId) {
        if let Some(s) = self.state.get_mut(id as usize) {
            if *s == SlotState::Idle {
                *s = SlotState::Queued;
                self.ready.push_back(id);
            }
        }
    }

    /// Queues a freshly spawned task.
    fn spawned(&mut self, id: TaskId) {
        let i = id as usize;
        if i >= self.state.len() {
            self.state.resize(i + 1, SlotState::Vacant);
        }
        self.state[i] = SlotState::Idle;
        self.wake(id);
    }

    /// Removes the next task to poll from a non-empty ready queue, as
    /// chosen by `explorer`. The FIFO case pops the front: no RNG, the
    /// historical schedule bit for bit. Exploration policies see the
    /// queue as a slice in FIFO order.
    #[inline]
    fn pick(&mut self, explorer: &Explorer) -> TaskId {
        let id = if explorer.is_fifo() || self.ready.len() < 2 {
            self.ready.pop_front()
        } else {
            let idx = explorer.pick(self.ready.make_contiguous());
            self.ready.remove(idx)
        };
        let id = id.expect("pick from a non-empty ready queue");
        self.state[id as usize] = SlotState::Idle;
        id
    }

    /// Registers a timer for `deadline` that wakes task `id`.
    #[inline]
    fn add_timer(&mut self, deadline: SimTime, id: TaskId) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.insert(deadline.as_nanos(), seq, id);
    }
}

/// What the run loop does next.
enum Step {
    Poll(TaskId),
    /// Drained: nothing runnable and no timer pending.
    Done,
    /// The poll budget ran out with work still queued.
    Budget,
}

pub(crate) struct ExecCore {
    /// The global clock: the deadline of the last fired timer.
    now: Cell<SimTime>,
    /// The running context's clock: the polled task's own clock during
    /// a poll, the global clock otherwise.
    clock: Cell<SimTime>,
    /// The run-ahead bound `Q`, ns.
    run_ahead: Cell<Nanos>,
    /// The latest clock any poll ended at; a drained run's global clock
    /// catches up with it.
    horizon: Cell<SimTime>,
    tasks: RefCell<Vec<Task>>,
    free_ids: RefCell<Vec<TaskId>>,
    sched: RefCell<Sched>,
    /// Tasks woken since the last scheduling step, in wake order.
    woken: RefCell<Vec<TaskId>>,
    /// Task currently being polled: whose guard marker a lock checks and
    /// whom a parking primitive names.
    current: Cell<Option<TaskId>>,
    /// Ready-queue pick strategy (FIFO unless exploration is requested).
    explorer: Explorer,
    /// Cumulative task polls, for runaway-schedule bounding.
    polls: Cell<u64>,
    /// The simsan race detector, if enabled (see [`crate::race`]).
    race: RefCell<Option<Rc<RaceDetector>>>,
}

impl ExecCore {
    fn new(policy: ExplorationPolicy) -> Rc<Self> {
        Rc::new(ExecCore {
            now: Cell::new(SimTime::ZERO),
            clock: Cell::new(SimTime::ZERO),
            run_ahead: Cell::new(0),
            horizon: Cell::new(SimTime::ZERO),
            tasks: RefCell::new(Vec::new()),
            free_ids: RefCell::new(Vec::new()),
            sched: RefCell::new(Sched::new()),
            woken: RefCell::new(Vec::new()),
            current: Cell::new(None),
            explorer: Explorer::new(policy),
            polls: Cell::new(0),
            race: RefCell::new(None),
        })
    }

    /// Spawns a task into a (recycled) slot.
    fn spawn(&self, future: LocalFuture) {
        // Fork edge: the child starts at the spawner's clock, and the
        // spawner's accesses so far happen-before everything it does.
        let task = Task {
            body: Some(future),
            clock: self.clock.get(),
            held: None,
        };
        let mut tasks = self.tasks.borrow_mut();
        let id = match self.free_ids.borrow_mut().pop() {
            Some(id) => {
                tasks[id as usize] = task;
                id
            }
            None => {
                let id = TaskId::try_from(tasks.len()).expect("task slots exhausted");
                tasks.push(task);
                id
            }
        };
        drop(tasks);
        self.with_race(|det| det.task_begin(u64::from(id)));
        self.sched.borrow_mut().spawned(id);
    }

    /// Registers a timer for `deadline` that wakes the task being
    /// polled, named by its slot id like every parked task.
    ///
    /// # Panics
    ///
    /// Panics outside a task poll.
    #[inline]
    fn register_timer(&self, deadline: SimTime) {
        let id = self
            .current
            .get()
            .expect("Sleep polled outside the executor's task poll");
        self.sched.borrow_mut().add_timer(deadline, id);
    }

    /// Moves the global clock (and with it the clock outside a poll).
    #[inline]
    fn set_global(&self, t: SimTime) {
        self.now.set(t);
        self.clock.set(t);
    }

    /// Runs the polled task's clock ahead to `deadline` if that lies at
    /// most `Q` past the global clock; returns whether it did.
    #[inline]
    fn run_ahead_to(&self, deadline: SimTime) -> bool {
        let bound = self
            .now
            .get()
            .as_nanos()
            .saturating_add(self.run_ahead.get());
        if deadline.as_nanos() <= bound && self.current.get().is_some() {
            self.clock.set(deadline);
            return true;
        }
        false
    }

    /// The running context's clock: the polled task's own clock during
    /// a poll, the global clock otherwise.
    #[inline]
    pub(crate) fn clock(&self) -> SimTime {
        self.clock.get()
    }

    /// The receiving end of a clock edge: raises the polled task's clock
    /// to `t`. No-op outside a poll, where the clock is the global one.
    #[inline]
    pub(crate) fn sync_clock(&self, t: SimTime) {
        if t > self.clock.get() && self.current.get().is_some() {
            self.clock.set(t);
        }
    }

    /// The one-lock rule, checked at a lock attempt: panics, naming both
    /// locks and both sites, if the polled task already holds a guard.
    /// No-op outside a poll.
    pub(crate) fn check_unheld(&self, want: Held) {
        let Some(id) = self.current.get() else {
            return;
        };
        let held = self.tasks.borrow()[id as usize].held;
        if let Some(held) = held {
            panic!(
                "task {id} acquires {} (locked at {}) while holding {} (locked at {}): \
                 a task holds at most one SimMutex guard",
                want.name, want.site, held.name, held.site,
            );
        }
    }

    /// Marks the polled task as holding `held` and returns it, for the
    /// guard's [`ExecCore::clear_held`]; `None` outside a poll.
    pub(crate) fn mark_held(&self, held: Held) -> Option<TaskId> {
        let id = self.current.get()?;
        self.tasks.borrow_mut()[id as usize].held = Some(held);
        Some(id)
    }

    /// Clears task `id`'s held-guard marker.
    pub(crate) fn clear_held(&self, id: TaskId) {
        if let Some(task) = self.tasks.borrow_mut().get_mut(id as usize) {
            task.held = None;
        }
    }

    /// Runs `f` with the race detector, if one is enabled.
    #[inline]
    pub(crate) fn with_race<R>(&self, f: impl FnOnce(&RaceDetector) -> R) -> Option<R> {
        self.race.borrow().as_deref().map(f)
    }

    /// Picks the next task to poll. With nothing runnable it advances
    /// the clock to the earliest pending timer and moves its deadline
    /// group, in `seq` order, onto the ready queue.
    #[inline]
    fn next_step(&self, budget_spent: bool) -> Step {
        let mut sched = self.sched.borrow_mut();
        loop {
            // Tasks woken since the last step join the queue first.
            for id in self.woken.borrow_mut().drain(..) {
                sched.wake(id);
            }
            if !sched.ready.is_empty() {
                if budget_spent {
                    return Step::Budget;
                }
                return Step::Poll(sched.pick(&self.explorer));
            }
            let Some(next) = sched.timers.peek().map(SimTime::from_nanos) else {
                // Drained: nothing can happen before the latest task clock.
                self.set_global(self.now.get().max(self.horizon.get()));
                return Step::Done;
            };
            let now = self.now.get();
            debug_assert!(next >= now, "timer in the past");
            if next > now {
                self.set_global(next);
            }
            let fired = sched.timers.fire_next(next.as_nanos());
            debug_assert!(fired, "the earliest timer is due");
            while let Some(id) = sched.timers.pop_fired() {
                sched.wake(id);
            }
        }
    }

    #[inline]
    fn poll_one(&self, id: TaskId, race: Option<&Rc<RaceDetector>>) {
        let body = self
            .tasks
            .borrow_mut()
            .get_mut(id as usize)
            .and_then(|task| Some((task.body.take()?, task.clock)));
        let Some((mut future, clock)) = body else {
            return;
        };
        let mut cx = Context::from_waker(Waker::noop());
        let global = self.now.get();
        // A task resumes no earlier than the global clock that woke it.
        self.clock.set(clock.max(global));
        self.current.set(Some(id));
        if let Some(det) = race {
            det.enter(u64::from(id));
        }
        let polled = future.as_mut().poll(&mut cx);
        if let Some(det) = race {
            det.exit();
        }
        self.current.set(None);
        let clock = self.clock.replace(global);
        debug_assert!(
            global <= clock && clock.as_nanos() - global.as_nanos() <= self.run_ahead.get(),
            "task clock {clock} outside [{global}, {global} + {} ns]",
            self.run_ahead.get()
        );
        self.horizon.set(self.horizon.get().max(clock));
        match polled {
            Poll::Ready(()) => {
                if let Some(det) = race {
                    det.task_end(u64::from(id));
                }
                // A wake addressed to the slot may still sit in `woken`
                // or in a timer: it must find the slot vacant.
                self.sched.borrow_mut().state[id as usize] = SlotState::Vacant;
                self.free_ids.borrow_mut().push(id);
            }
            Poll::Pending => {
                // The task may have been re-woken while it was being
                // polled; the id would already be in `woken`, so we just
                // return the body to its slot.
                if let Some(task) = self.tasks.borrow_mut().get_mut(id as usize) {
                    task.body = Some(future);
                    task.clock = clock;
                }
            }
        }
    }

    /// Runs until `stop` holds, or no task is runnable and no timer is
    /// pending, or `max_polls` task polls have been performed. Returns
    /// true unless the poll budget stopped the run first (the runaway
    /// case).
    fn run(self: &Rc<Self>, stop: impl Fn() -> bool, max_polls: Option<u64>) -> bool {
        // simsan world edges: everything main did before this run
        // happens-before every task step inside it, and every task step
        // inside it happens-before whatever main does after it returns.
        // Inside the run simsan stamps accesses with the running clock;
        // the exit's `set_now` stamps main's accesses until the next run.
        let race = self.race.borrow().clone();
        let _running = RunningGuard::install(Rc::clone(self));
        if let Some(det) = &race {
            det.world_publish();
        }
        let out = self.run_inner(stop, max_polls, race.as_ref());
        if let Some(det) = &race {
            det.set_now(self.now.get().as_nanos());
            det.world_join();
        }
        out
    }

    fn run_inner(
        &self,
        stop: impl Fn() -> bool,
        max_polls: Option<u64>,
        race: Option<&Rc<RaceDetector>>,
    ) -> bool {
        let start_polls = self.polls.get();
        loop {
            if stop() {
                return true;
            }
            let budget_spent = max_polls.is_some_and(|b| self.polls.get() - start_polls >= b);
            match self.next_step(budget_spent) {
                Step::Poll(id) => {
                    self.polls.set(self.polls.get() + 1);
                    self.poll_one(id, race);
                }
                Step::Done => return true,
                Step::Budget => return false,
            }
        }
    }
}

thread_local! {
    /// The executor whose run loop is active on this thread, for both
    /// halves of an [`Edge`], the one-lock rule and simsan's timestamps.
    static RUNNING: RefCell<Option<Rc<ExecCore>>> = const { RefCell::new(None) };
}

/// Installs an executor as this thread's running one for a run loop.
struct RunningGuard {
    prev: Option<Rc<ExecCore>>,
}

impl RunningGuard {
    fn install(core: Rc<ExecCore>) -> Self {
        RunningGuard {
            prev: RUNNING.with(|r| r.replace(Some(core))),
        }
    }
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        RUNNING.with(|r| *r.borrow_mut() = self.prev.take());
    }
}

/// Runs `f` on the executor whose run loop is active on this thread;
/// `None` outside a run.
#[inline]
pub(crate) fn with_running<R>(f: impl FnOnce(&ExecCore) -> R) -> Option<R> {
    RUNNING.with(|r| r.borrow().as_deref().map(f))
}

/// A parked task: the slot id of the task a primitive parked, on the
/// executor that was polling it.
pub(crate) struct TaskRef {
    core: Weak<ExecCore>,
    id: TaskId,
}

impl TaskRef {
    /// The task being polled, which the primitive `what` is parking.
    ///
    /// # Panics
    ///
    /// Panics outside a task poll, where no task could be woken later.
    pub(crate) fn current(what: &str) -> TaskRef {
        RUNNING
            .with(|r| {
                let r = r.borrow();
                let core = r.as_ref()?;
                Some(TaskRef {
                    core: Rc::downgrade(core),
                    id: core.current.get()?,
                })
            })
            .unwrap_or_else(|| panic!("{what} polled outside the executor's task poll"))
    }

    /// Queues the task for the next scheduling step; a no-op once its
    /// simulation is gone.
    pub(crate) fn wake(self) {
        if let Some(core) = self.core.upgrade() {
            core.woken.borrow_mut().push(self.id);
        }
    }
}

/// A cloneable handle to the simulation, usable from inside tasks.
///
/// The handle provides the virtual clock, sleeping, and task spawning. It
/// is the ambient "world" object passed to every simulated component.
#[derive(Clone)]
pub struct SimHandle {
    core: Rc<ExecCore>,
}

impl SimHandle {
    /// Returns the current virtual time: inside a task's poll the task's
    /// own clock, outside a poll the global clock.
    pub fn now(&self) -> SimTime {
        self.core.clock.get()
    }

    /// Returns the global clock: the deadline of the last fired timer.
    /// It equals [`SimHandle::now`] outside a poll, and everywhere at
    /// `Q` = 0.
    pub fn global_now(&self) -> SimTime {
        self.core.now.get()
    }

    /// Sets the run-ahead bound `Q`, ns: a sleep ending at most `Q` past
    /// the global clock completes without yielding (see the module
    /// docs). 0, the default, is the exact schedule. Set it before any
    /// task runs.
    pub fn set_run_ahead(&self, q: Nanos) {
        self.core.run_ahead.set(q);
    }

    /// Returns a future that completes `duration` nanoseconds of virtual
    /// time from now. A zero-duration sleep, or one within the run-ahead
    /// bound, completes without yielding.
    ///
    /// # Panics
    ///
    /// Panics if the deadline would lie past `u64::MAX` ns.
    pub fn sleep(&self, duration: Nanos) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline: self.core.clock.get() + duration,
            registered: false,
        }
    }

    /// Returns a future that completes at the absolute instant `deadline`
    /// (immediately if `deadline` has already passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            core: Rc::clone(&self.core),
            deadline,
            registered: false,
        }
    }

    /// Yields to other runnable tasks once, without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Spawns a task, returning a handle that can await its result.
    pub fn spawn<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            joiner: None,
            done: Edge::default(),
        }));
        let weak = Rc::downgrade(&state);
        self.core.spawn(Box::pin(async move {
            let value = future.await;
            // With the handle dropped nothing can observe the result or
            // the join edge.
            let Some(state) = weak.upgrade() else {
                return;
            };
            let mut s = state.borrow_mut();
            s.result = Some(value);
            s.done.release();
            if let Some(joiner) = s.joiner.take() {
                joiner.wake();
            }
        }));
        JoinHandle { state }
    }

    /// The simsan race detector, if enabled on this simulation (see
    /// [`crate::race`] and [`Simulation::enable_race_detection`]).
    pub fn race_detector(&self) -> Option<Rc<RaceDetector>> {
        self.core.race.borrow().clone()
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep {
    core: Rc<ExecCore>,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.core.clock.get() >= self.deadline || self.core.run_ahead_to(self.deadline) {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            self.core.register_timer(self.deadline);
        }
        Poll::Pending
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            TaskRef::current("YieldNow").wake();
            self.yielded = true;
            Poll::Pending
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    /// The task parked on the handle, if any.
    joiner: Option<TaskRef>,
    /// Released by the task as it completes, acquired by the join.
    done: Edge,
}

/// Handle to a spawned task; awaiting it yields the task's result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.result.take() {
            Some(v) => {
                s.done.acquire();
                Poll::Ready(v)
            }
            None => {
                s.joiner = Some(TaskRef::current("JoinHandle"));
                Poll::Pending
            }
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Owns the executor; see the crate docs for an example.
pub struct Simulation {
    handle: SimHandle,
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero, with the
    /// default FIFO schedule.
    pub fn new() -> Self {
        Simulation::with_policy(ExplorationPolicy::Fifo)
    }

    /// Creates an empty simulation whose ready-queue picks follow
    /// `policy` (see [`ExplorationPolicy`]). `Fifo` is bit-for-bit
    /// identical to [`Simulation::new`].
    pub fn with_policy(policy: ExplorationPolicy) -> Self {
        let sim = Simulation {
            handle: SimHandle {
                core: ExecCore::new(policy),
            },
        };
        // Opt-in for whole suites without touching the tests: running
        // with MAGE_SIMSAN set enables the race detector on every
        // simulation (ci.sh's simsan stage).
        if std::env::var_os("MAGE_SIMSAN").is_some() {
            sim.enable_race_detection();
        }
        sim
    }

    /// Enables the simsan happens-before race detector on this
    /// simulation and returns it. Must be called before components that
    /// want shadow checking create their [`crate::race::ShadowRegion`]s
    /// (regions bind to the detector at construction). Idempotent.
    ///
    /// The detector observes without perturbing: it never awaits, never
    /// advances virtual time and never draws randomness, so an enabled
    /// run executes the exact same schedule as a disabled one.
    pub fn enable_race_detection(&self) -> Rc<RaceDetector> {
        let mut slot = self.handle.core.race.borrow_mut();
        match &*slot {
            Some(det) => Rc::clone(det),
            None => {
                let det = RaceDetector::new();
                *slot = Some(Rc::clone(&det));
                det
            }
        }
    }

    /// The exploration policy this simulation schedules with.
    pub fn policy(&self) -> ExplorationPolicy {
        self.handle.core.explorer.policy()
    }

    /// Total task polls performed so far, a monotone progress measure
    /// independent of virtual time.
    pub fn polls(&self) -> u64 {
        self.handle.core.polls.get()
    }

    /// Returns a handle usable inside tasks.
    pub fn handle(&self) -> SimHandle {
        self.handle.clone()
    }

    /// Spawns a task onto the simulation.
    pub fn spawn<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle.spawn(future)
    }

    /// Runs until no work remains; returns the final virtual time.
    pub fn run(&self) -> SimTime {
        self.handle.core.run(|| false, None);
        self.handle.core.now.get()
    }

    /// Spawns `future` and runs the simulation until it completes.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry (deadlocks) before the future
    /// finishes.
    pub fn block_on<T: 'static>(&self, future: impl Future<Output = T> + 'static) -> T {
        match self.block_on_inner(future, None) {
            Ok(v) => v,
            Err(_) => unreachable!("unbounded block_on cannot exhaust a poll budget"),
        }
    }

    /// Like [`Simulation::block_on`], but gives up after `max_polls`
    /// task polls, so a runaway schedule (livelock, starvation loop)
    /// cannot hang the caller. Returns `Err` with the progress made if
    /// the budget ran out before the future completed.
    ///
    /// # Panics
    ///
    /// Panics if the simulation runs dry (deadlocks) before the future
    /// finishes and before the budget is exhausted.
    pub fn block_on_bounded<T: 'static>(
        &self,
        future: impl Future<Output = T> + 'static,
        max_polls: u64,
    ) -> Result<T, RunProgress> {
        self.block_on_inner(future, Some(max_polls))
    }

    fn block_on_inner<T: 'static>(
        &self,
        future: impl Future<Output = T> + 'static,
        max_polls: Option<u64>,
    ) -> Result<T, RunProgress> {
        let out: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let out2 = Rc::clone(&out);
        self.handle.core.spawn(Box::pin(async move {
            *out2.borrow_mut() = Some(future.await);
        }));
        let done = {
            let out = Rc::clone(&out);
            move || out.borrow().is_some()
        };
        let start = self.handle.core.polls.get();
        let completed = self.handle.core.run(done, max_polls);
        let result = out.borrow_mut().take();
        match result {
            Some(v) => Ok(v),
            None if !completed => Err(RunProgress {
                now: self.handle.core.now.get(),
                polls: self.handle.core.polls.get() - start,
            }),
            None => panic!("simulation deadlocked: block_on future never completed"),
        }
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Simulation::new()
    }
}

impl Drop for Simulation {
    /// Drops every unfinished task. A parked task's future holds `Rc`s to
    /// the components it drives, and those hold [`SimHandle`]s back to
    /// this executor, so without this no simulated machine is ever freed.
    /// The slab is taken out of its `RefCell` first: dropping a future
    /// can run wake paths (a released lock serving its next waiter), and
    /// those find an empty slab.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // leak rather than risk a second panic mid-unwind
        }
        let tasks = std::mem::take(&mut *self.handle.core.tasks.borrow_mut());
        drop(tasks);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::sync::{SimMutex, WaitQueue};

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Simulation::new();
        let h = sim.handle();
        let t = sim.block_on(async move {
            h.sleep(42).await;
            h.sleep(8).await;
            h.now().as_nanos()
        });
        assert_eq!(t, 50);
    }

    #[test]
    #[should_panic(expected = "overflow: instant 1 ns + duration 18446744073709551615 ns")]
    fn sleep_past_the_end_of_time_panics() {
        // Unchecked, the deadline wrapped to 0 ns in release builds and
        // the sleep returned at once with the clock still at 1 ns.
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(1).await;
            h.sleep(u64::MAX).await;
        });
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            h.sleep(0).await;
        });
    }

    /// Polls `fut` once with a no-op context, outside any task poll.
    fn poll_outside_a_task<F: Future>(fut: F) -> Poll<F::Output> {
        std::pin::pin!(fut).poll(&mut Context::from_waker(Waker::noop()))
    }

    /// Runs `f`; returns its panic message, `None` if it returned.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let err = catch_unwind(AssertUnwindSafe(f)).err()?;
        let msg = err.downcast_ref::<&str>().map(|m| m.to_string());
        Some(msg.or_else(|| err.downcast_ref::<String>().cloned()).unwrap_or_default())
    }

    /// A primitive that would park outside a task poll has no task to
    /// wake later: it panics rather than lose the wake.
    #[test]
    fn parking_outside_a_task_poll_panics() {
        let sim = Simulation::new();
        let h = sim.handle();
        let queue = WaitQueue::new();
        let mutex = SimMutex::new("held by main", ());
        let cases = [
            ("Sleep", panic_message(|| assert!(poll_outside_a_task(h.sleep(10)).is_pending()))),
            ("Wait", panic_message(|| assert!(poll_outside_a_task(queue.wait()).is_pending()))),
            (
                "contended MutexLock",
                panic_message(|| {
                    let Poll::Ready(_guard) = poll_outside_a_task(mutex.lock()) else {
                        unreachable!("an uncontended lock is granted at once");
                    };
                    assert!(poll_outside_a_task(mutex.lock()).is_pending());
                }),
            ),
            (
                "pending JoinHandle",
                panic_message(|| assert!(poll_outside_a_task(sim.spawn(async {})).is_pending())),
            ),
            (
                "YieldNow",
                panic_message(|| assert!(poll_outside_a_task(h.yield_now()).is_pending())),
            ),
        ];
        let mut silent = Vec::new();
        for (name, msg) in cases {
            match msg {
                Some(msg) => {
                    assert!(msg.contains("outside the executor's task poll"), "{name}: {msg}")
                }
                None => silent.push(name),
            }
        }
        assert!(silent.is_empty(), "parked outside a task poll without a panic: {silent:?}");
    }

    #[test]
    fn concurrent_sleeps_interleave_deterministically() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (name, delay) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(delay).await;
                log2.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &["b", "c", "a"]);
    }

    #[test]
    fn two_sleepers_at_one_instant_both_wake() {
        // Regression guard for the timer-wheel slot lists: two timers
        // registered for the same deadline tick must both keep their
        // wakers (a tick-keyed `BTreeMap<tick, Waker>` would silently
        // drop the second registration) and fire as one batch.
        let sim = Simulation::new();
        let h = sim.handle();
        let woken = Rc::new(Cell::new(0u32));
        for _ in 0..2 {
            let h2 = h.clone();
            let woken2 = Rc::clone(&woken);
            sim.spawn(async move {
                h2.sleep(1_000).await;
                woken2.set(woken2.get() + 1);
                assert_eq!(h2.now().as_nanos(), 1_000);
            });
        }
        sim.run();
        assert_eq!(woken.get(), 2, "both same-instant sleepers must wake");
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..5 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                h2.sleep(100).await;
                log2.borrow_mut().push(name);
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Simulation::new();
        let h = sim.handle();
        let result = sim.block_on(async move {
            let jh = h.spawn(async { 7 });
            jh.await * 6
        });
        assert_eq!(result, 42);
    }

    #[test]
    fn join_waits_for_sleeping_task() {
        let sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        let t = sim.block_on(async move {
            let jh = h2.spawn({
                let h3 = h2.clone();
                async move {
                    h3.sleep(500).await;
                    "done"
                }
            });
            assert_eq!(jh.await, "done");
            h2.now().as_nanos()
        });
        assert_eq!(t, 500);
    }

    #[test]
    fn yield_now_round_robins() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..2 {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..2 {
                    log2.borrow_mut().push((name, round));
                    h2.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(&*log.borrow(), &[(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn block_on_detects_deadlock() {
        let sim = Simulation::new();
        sim.block_on(std::future::pending::<()>());
    }

    /// Runs a contended interleaving workload and returns the order in
    /// which tasks logged, as a schedule fingerprint.
    fn schedule_fingerprint(sim: &Simulation) -> Vec<(usize, usize)> {
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in 0..4usize {
            let h2 = h.clone();
            let log2 = Rc::clone(&log);
            sim.spawn(async move {
                for round in 0..4usize {
                    log2.borrow_mut().push((name, round));
                    h2.yield_now().await;
                    h2.sleep((round as u64 % 3) * 10).await;
                }
            });
        }
        sim.run();
        let out = log.borrow().clone();
        out
    }

    #[test]
    fn fifo_policy_matches_default_schedule() {
        let a = schedule_fingerprint(&Simulation::new());
        let b = schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::Fifo));
        assert_eq!(a, b, "Fifo must reproduce the default schedule exactly");
    }

    #[test]
    fn exploration_policies_perturb_and_reproduce_schedules() {
        let seeded = |seed| {
            schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::SeededRandom {
                seed,
            }))
        };
        assert_eq!(seeded(5), seeded(5), "same seed, same schedule");
        let fifo = schedule_fingerprint(&Simulation::new());
        let mut diverged = false;
        for seed in 0..8 {
            if seeded(seed) != fifo {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "random exploration never left the FIFO schedule");
        let fuzz = |seed| {
            schedule_fingerprint(&Simulation::with_policy(ExplorationPolicy::PriorityFuzz {
                seed,
            }))
        };
        assert_eq!(fuzz(5), fuzz(5), "priority fuzz is reproducible too");
    }

    #[test]
    fn policies_only_reorder_never_drop_work() {
        // Every policy must run every task to completion: same multiset
        // of log entries, whatever the order.
        let mut sorted_fifo = schedule_fingerprint(&Simulation::new());
        sorted_fifo.sort_unstable();
        for policy in [
            ExplorationPolicy::SeededRandom { seed: 3 },
            ExplorationPolicy::PriorityFuzz { seed: 3 },
        ] {
            let mut got = schedule_fingerprint(&Simulation::with_policy(policy));
            got.sort_unstable();
            assert_eq!(got, sorted_fifo, "{} lost or duplicated work", policy.name());
        }
    }

    #[test]
    fn block_on_bounded_returns_progress_on_budget_exhaustion() {
        let sim = Simulation::new();
        let h = sim.handle();
        let err = sim
            .block_on_bounded(
                async move {
                    loop {
                        h.yield_now().await;
                    }
                },
                200,
            )
            .expect_err("an infinite loop must exhaust the budget");
        assert_eq!(err.polls, 200);
        assert_eq!(err.now, SimTime::ZERO, "yields never advance the clock");
        // A later bounded run resumes where the first stopped and counts
        // only its own polls.
        let err = sim
            .block_on_bounded(std::future::pending::<()>(), 100)
            .expect_err("the yield loop still runs");
        assert_eq!(err.polls, 100);
        assert_eq!(sim.polls(), 300);

        let sim2 = Simulation::new();
        let h2 = sim2.handle();
        let v = sim2
            .block_on_bounded(
                async move {
                    h2.sleep(7).await;
                    41 + 1
                },
                1_000_000,
            )
            .expect("a finite future completes within budget");
        assert_eq!(v, 42);
        assert_eq!(sim2.handle().now().as_nanos(), 7, "drained at the sleep");
    }

    #[test]
    fn many_tasks_scale() {
        let sim = Simulation::new();
        let h = sim.handle();
        let counter = Rc::new(Cell::new(0u64));
        for i in 0..10_000 {
            let h2 = h.clone();
            let c = Rc::clone(&counter);
            sim.spawn(async move {
                h2.sleep(i % 97).await;
                c.set(c.get() + 1);
            });
        }
        sim.run();
        assert_eq!(counter.get(), 10_000);
    }

    // The wake rules below are part of the schedule: an executor change
    // that broke one would move every golden.

    /// Wakes made during a poll join the ready queue after any task
    /// spawned in that same poll, in wake order (the engine's fault path
    /// wakes a page's waiters and then spawns a prefetch).
    #[test]
    fn wakes_from_a_poll_run_after_tasks_it_spawned_in_wake_order() {
        let sim = Simulation::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        let queues = Rc::new([WaitQueue::new(), WaitQueue::new()]);
        for (name, i) in [("a", 0), ("b", 1)] {
            let (log, queues) = (Rc::clone(&log), Rc::clone(&queues));
            sim.spawn(async move {
                queues[i].wait().await;
                log.borrow_mut().push(name);
            });
        }
        let log2 = Rc::clone(&log);
        sim.spawn(async move {
            assert!(queues[1].wake_one() && queues[0].wake_one());
            h.spawn(async move { log2.borrow_mut().push("spawned") });
        });
        sim.run();
        assert_eq!(&*log.borrow(), &["spawned", "b", "a"]);
    }

    /// A wake made from main between two runs is delivered at the next.
    #[test]
    fn a_wake_from_main_between_runs_is_delivered_at_the_next_run() {
        let sim = Simulation::new();
        let queue = Rc::new(WaitQueue::new());
        let woken = Rc::new(Cell::new(false));
        let (q, w) = (Rc::clone(&queue), Rc::clone(&woken));
        sim.spawn(async move {
            q.wait().await;
            w.set(true);
        });
        sim.run();
        assert!(!woken.get(), "parked until woken");
        assert!(queue.wake_one());
        assert!(!woken.get(), "delivered at a run, not at the wake");
        sim.run();
        assert!(woken.get());
    }

    /// A wake whose simulation has been dropped is a no-op, not a panic.
    #[test]
    fn a_wake_after_the_simulation_is_dropped_is_a_no_op() {
        let sim = Simulation::new();
        let queue = Rc::new(WaitQueue::new());
        let q = Rc::clone(&queue);
        sim.spawn(async move { q.wait().await });
        sim.run();
        drop(sim);
        assert!(queue.wake_one(), "the parked waiter's slot outlives it");
    }
}

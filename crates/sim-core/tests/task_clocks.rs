//! Task clocks under a run-ahead bound `Q` (DESIGN.md §7, "lax
//! synchronization"): a sleep ending at most `Q` past the global clock
//! advances only the sleeper's clock, and clocks flow along the four
//! happens-before edges — spawn, join, mutex handoff and wait-queue wake.
//! During a poll, `global ≤ task clock ≤ global + Q`.
//!
//! Each edge carries simsan's half too: every per-edge test also runs
//! the race detector, and a shadow write before the edge is ordered with
//! a read after it, while the same pair with no edge between them races.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage_sim::rng::SplitMix64;
use mage_sim::sync::{SimMutex, WaitQueue};
use mage_sim::{JoinHandle, RaceDetector, RaceMode, ShadowRegion, SimHandle, SimTime, Simulation};

const Q: u64 = 1_000;

fn sim_with(q: u64) -> Simulation {
    let sim = Simulation::new();
    sim.handle().set_run_ahead(q);
    sim
}

/// simsan in Collect mode on `sim`, and a shadow region to race on.
fn detector(sim: &Simulation) -> (Rc<RaceDetector>, Rc<ShadowRegion>) {
    let det = sim.enable_race_detection();
    det.set_mode(RaceMode::Collect);
    (det, Rc::new(ShadowRegion::new(&sim.handle(), "word")))
}

/// Asserts simsan's verdict on one write/read pair: no race when the
/// write came before the edge, exactly one when nothing orders them.
#[track_caller]
fn assert_races(det: &RaceDetector, ordered: bool) {
    let reports = det.take_reports();
    assert_eq!(reports.len(), usize::from(!ordered), "ordered = {ordered}: {reports:?}");
}

/// Asserts the skew invariant for the task being polled.
#[track_caller]
fn assert_skew(h: &SimHandle, q: u64) -> u64 {
    let (now, global) = (h.now().as_nanos(), h.global_now().as_nanos());
    assert!(
        global <= now && now <= global + q,
        "task clock {now} outside [{global}, {global} + {q}]"
    );
    now
}

#[test]
fn a_short_sleep_runs_ahead_without_yielding() {
    let sim = sim_with(Q);
    let h = sim.handle();
    let polls = Rc::new(Cell::new(0));
    let (h2, p2) = (h.clone(), Rc::clone(&polls));
    sim.block_on(async move {
        h2.sleep(400).await;
        h2.sleep(600).await;
        assert_eq!((h2.now().as_nanos(), h2.global_now().as_nanos()), (1_000, 0));
        p2.set(1);
        // Past the bound: a timer at the task's clock plus the sleep.
        h2.sleep(1).await;
        assert_eq!((h2.now().as_nanos(), h2.global_now().as_nanos()), (1_001, 1_001));
    });
    assert_eq!(polls.get(), 1);
    assert_eq!(sim.polls(), 2, "one poll up to the timer, one after it");
}

#[test]
fn spawned_task_starts_at_its_parents_clock() {
    // At Q = 0 the parent's sleep yields and moves the global clock.
    for (q, global) in [(0, 500), (Q, 0)] {
        // The parent writes before the spawn, or after it.
        for ordered in [true, false] {
            let sim = sim_with(q);
            let (det, word) = detector(&sim);
            let h = sim.handle();
            let h2 = h.clone();
            let child_start = sim.block_on(async move {
                h2.sleep(500).await;
                if ordered {
                    word.on_write(0);
                }
                let (h3, w3) = (h2.clone(), Rc::clone(&word));
                let child = h2.spawn(async move {
                    w3.on_read(0);
                    h3.now().as_nanos()
                });
                if !ordered {
                    word.on_write(0);
                }
                child.await
            });
            assert_eq!(child_start, 500, "Q = {q}");
            assert_eq!(sim.handle().global_now().as_nanos(), global, "Q = {q}");
            assert_races(&det, ordered);
        }
    }
}

#[test]
fn joiner_resumes_no_earlier_than_the_task_it_joined() {
    // The joiner parks on the handle before the task runs (a wake), or
    // finds it finished (no wake): both resume at the task's clock.
    // The joiner reads what the task wrote after the join, or before it.
    for (park_first, ordered) in [(true, true), (false, true), (true, false), (false, false)] {
        let sim = sim_with(Q);
        let (det, word) = detector(&sim);
        let h = sim.handle();
        let h2 = h.clone();
        let resumed = sim.block_on(async move {
            let (h3, w3) = (h2.clone(), Rc::clone(&word));
            let child = h2.spawn(async move {
                h3.sleep(800).await;
                w3.on_write(0);
            });
            if !park_first {
                h2.yield_now().await;
            }
            if !ordered {
                word.on_read(0);
            }
            child.await;
            if ordered {
                word.on_read(0);
            }
            (h2.now().as_nanos(), h2.global_now().as_nanos())
        });
        assert_eq!(resumed, (800, 0), "park_first = {park_first}");
        assert_races(&det, ordered);
    }
}

#[test]
fn lock_acquirer_resumes_no_earlier_than_the_last_release() {
    // The second locker either queues behind the holder (a handoff) or
    // calls lock() after the release: the guard comes at the release
    // clock either way.
    // The holder writes before its unlock, or after it.
    for (contended, ordered) in [(true, true), (false, true), (true, false), (false, false)] {
        let sim = sim_with(Q);
        let (det, word) = detector(&sim);
        let h = sim.handle();
        let m = Rc::new(SimMutex::new("fifo", ()));
        let (h1, m1, w1) = (h.clone(), Rc::clone(&m), Rc::clone(&word));
        sim.spawn(async move {
            let g = m1.lock().await;
            h1.yield_now().await;
            h1.sleep(600).await;
            if ordered {
                w1.on_write(0);
            }
            drop(g);
            if !ordered {
                w1.on_write(0);
            }
        });
        let (h2, m2) = (h.clone(), Rc::clone(&m));
        let granted = sim.block_on(async move {
            if !contended {
                // The holder finishes while this task is queued.
                h2.yield_now().await;
            }
            let _g = m2.lock().await;
            word.on_read(0);
            (h2.now().as_nanos(), h2.global_now().as_nanos())
        });
        assert_eq!(granted, (600, 0), "contended = {contended}");
        assert_races(&det, ordered);
    }
}

#[test]
fn waiter_resumes_no_earlier_than_its_wakers_clock() {
    // The waker writes before its first wake, or after it.
    for ordered in [true, false] {
        let sim = sim_with(Q);
        let (det, word) = detector(&sim);
        let h = sim.handle();
        let q = Rc::new(WaitQueue::new());
        let woken = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let (h, q, woken, word) =
                (h.clone(), Rc::clone(&q), Rc::clone(&woken), Rc::clone(&word));
            sim.spawn(async move {
                q.wait().await;
                word.on_read(0);
                woken.borrow_mut().push(h.now().as_nanos());
            });
        }
        let (h2, q2) = (h.clone(), Rc::clone(&q));
        sim.spawn(async move {
            h2.sleep(300).await;
            if ordered {
                word.on_write(0);
            }
            q2.wake_one();
            if !ordered {
                word.on_write(0);
            }
            h2.sleep(400).await;
            q2.wake_one();
        });
        sim.run();
        assert_eq!(*woken.borrow(), [300, 700]);
        assert_races(&det, ordered);
    }
}

#[test]
fn a_drained_run_ends_at_the_latest_task_clock() {
    let sim = sim_with(Q);
    let h = sim.handle();
    for d in [250, 900, 600] {
        let h = h.clone();
        sim.spawn(async move { h.sleep(d).await });
    }
    assert_eq!(sim.run().as_nanos(), 900);
    assert_eq!(h.now().as_nanos(), 900);
}

/// One step of a random task program.
#[derive(Clone, Copy, Debug)]
enum Op {
    Sleep(u64),
    /// Hold mutex `.0` for `.1` ns.
    Lock(usize, u64),
    /// Park on the shared wait queue until the next wake.
    Wait,
    WakeAll,
    /// Spawn a child that sleeps `.0` then `.1` ns.
    Spawn(u64, u64),
    /// Join the oldest unjoined child.
    Join,
    Yield,
}

fn random_program(rng: &SplitMix64) -> Vec<Op> {
    // Mostly sub-bound sleeps, some past it, as in the engine.
    let delay = |rng: &SplitMix64| match rng.next_below(8) {
        0 => 0,
        1 => Q + rng.next_below(4 * Q),
        _ => rng.next_below(Q / 2),
    };
    (0..4 + rng.next_below(24))
        .map(|_| match rng.next_below(12) {
            0..=3 => Op::Sleep(delay(rng)),
            4..=5 => Op::Lock(rng.next_below(3) as usize, delay(rng)),
            6 => Op::Wait,
            7 => Op::WakeAll,
            8..=9 => Op::Spawn(delay(rng), delay(rng)),
            10 => Op::Join,
            _ => Op::Yield,
        })
        .collect()
}

/// Shared state of one random run.
struct World {
    h: SimHandle,
    q: u64,
    locks: Vec<SimMutex<()>>,
    /// Clock of each lock's last release.
    released: RefCell<Vec<u64>>,
    queue: WaitQueue,
    /// The waker's clock at every `wake_all`, in order.
    wakes: RefCell<Vec<u64>>,
    log: RefCell<Vec<(usize, u64)>>,
}

/// Runs `prog` as task `id`, checking the skew invariant at every step,
/// each task's clock for monotonicity and each edge for its bound.
async fn run_program(w: Rc<World>, id: usize, prog: Vec<Op>) {
    let mut children: Vec<JoinHandle<u64>> = Vec::new();
    let mut last = assert_skew(&w.h, w.q);
    let mut step = |w: &World, floor: u64| {
        let now = assert_skew(&w.h, w.q);
        assert!(now >= last && now >= floor, "task {id}: {now} < {last} or edge {floor}");
        last = now;
        w.log.borrow_mut().push((id, now));
    };
    for op in prog {
        match op {
            Op::Sleep(d) => {
                let due = w.h.now().as_nanos() + d;
                w.h.sleep(d).await;
                step(&w, due);
            }
            Op::Lock(i, hold) => {
                let g = w.locks[i].lock().await;
                step(&w, w.released.borrow()[i]);
                w.h.sleep(hold).await;
                w.released.borrow_mut()[i] = w.h.now().as_nanos();
                drop(g);
            }
            Op::Wait => {
                let wake = w.wakes.borrow().len();
                w.queue.wait().await;
                step(&w, w.wakes.borrow()[wake]);
            }
            Op::WakeAll => {
                w.wakes.borrow_mut().push(w.h.now().as_nanos());
                w.queue.wake_all();
                step(&w, 0);
            }
            Op::Spawn(a, b) => {
                let parent = w.h.now().as_nanos();
                let h = w.h.clone();
                let q = w.q;
                children.push(w.h.spawn(async move {
                    assert_eq!(assert_skew(&h, q), parent, "child starts at its parent's clock");
                    h.sleep(a).await;
                    h.sleep(b).await;
                    assert_skew(&h, q)
                }));
                step(&w, 0);
            }
            Op::Join => {
                if !children.is_empty() {
                    let end = children.remove(0).await;
                    step(&w, end);
                }
            }
            Op::Yield => {
                w.h.yield_now().await;
                step(&w, 0);
            }
        }
    }
    for child in children {
        let end = child.await;
        step(&w, end);
    }
}

/// Runs one seeded random program set at bound `q` and returns its log.
fn random_run(seed: u64, q: u64) -> Vec<(usize, u64)> {
    let rng = SplitMix64::new(seed);
    let sim = sim_with(q);
    let h = sim.handle();
    let w = Rc::new(World {
        h: h.clone(),
        q,
        locks: (0..3).map(|_| SimMutex::new("random", ())).collect(),
        released: RefCell::new(vec![0; 3]),
        queue: WaitQueue::new(),
        wakes: RefCell::new(Vec::new()),
        log: RefCell::new(Vec::new()),
    });
    let tasks = 2 + rng.next_below(6) as usize;
    let done = Rc::new(Cell::new(0));
    for id in 0..tasks {
        let (w, done) = (Rc::clone(&w), Rc::clone(&done));
        let prog = random_program(&rng);
        sim.spawn(async move {
            run_program(w, id, prog).await;
            done.set(done.get() + 1);
        });
    }
    // A ticker wakes parked tasks until every program has finished, so
    // no program parks forever.
    let (w2, done2) = (Rc::clone(&w), Rc::clone(&done));
    sim.spawn(async move {
        while done2.get() < tasks {
            w2.h.sleep(700).await;
            assert_skew(&w2.h, w2.q);
            w2.wakes.borrow_mut().push(w2.h.now().as_nanos());
            w2.queue.wake_all();
        }
    });
    sim.run();
    assert_eq!(done.get(), tasks, "seed {seed:#x}: every program finishes");
    let log = w.log.borrow().clone();
    log
}

/// The runs' schedule digest: FNV-1a over every log entry's task and
/// clock, in log order. Fixed by the executor's wake order, so a change
/// to how the primitives park and wake tasks that moves one step
/// changes it.
const SCHEDULE_DIGEST: (usize, u64) = (10_200, 0x701a_5016_b0ab_a62b);

#[test]
fn random_programs_keep_every_clock_within_the_bound() {
    let seeds = SplitMix64::new(0xC10C_5EED);
    let (mut entries, mut digest) = (0, 0xcbf2_9ce4_8422_2325_u64);
    for _ in 0..64 {
        let seed = seeds.next_u64();
        for q in [0, Q] {
            let log = random_run(seed, q);
            assert!(!log.is_empty());
            assert_eq!(log, random_run(seed, q), "seed {seed:#x}, Q = {q}: not reproducible");
            for &(id, t) in &log {
                for x in [id as u64, t] {
                    digest = (digest ^ x).wrapping_mul(0x100_0000_01b3);
                }
            }
            entries += log.len();
        }
    }
    assert_eq!((entries, digest), SCHEDULE_DIGEST, "digest {digest:#x}");
}

#[test]
fn at_zero_bound_the_task_clock_is_the_global_clock() {
    let sim = sim_with(0);
    let h = sim.handle();
    for d in [0, 1, 150, 60, 4_000] {
        let h = h.clone();
        sim.spawn(async move {
            for _ in 0..3 {
                h.sleep(d).await;
                assert_eq!(h.now(), h.global_now());
            }
        });
    }
    assert_eq!(sim.run(), SimTime::from_nanos(12_000));
}

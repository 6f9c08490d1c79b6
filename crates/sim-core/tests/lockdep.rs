//! Lockdep behaviour tests: ordering cycles are caught, reported with
//! full acquisition chains, and — because the executor is deterministic
//! — reproduce identically across runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use mage_sim::sync::SimMutex;
use mage_sim::Simulation;

/// Runs `f` and returns the panic payload message it must produce.
fn panic_message(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is not a string")
}

/// Two tasks acquiring {A, B} in opposite orders is the canonical
/// inversion; lockdep must catch it at the second-order acquisition and
/// name both chains.
fn ab_ba_inversion() -> String {
    panic_message(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let a = Rc::new(SimMutex::new_named(h.clone(), "lock-a", ()));
        let b = Rc::new(SimMutex::new_named(h.clone(), "lock-b", ()));
        {
            let (h, a, b) = (h.clone(), Rc::clone(&a), Rc::clone(&b));
            sim.spawn(async move {
                let _ga = a.lock().await;
                h.sleep(10).await;
                let _gb = b.lock().await;
            });
        }
        {
            let (h, a, b) = (h.clone(), Rc::clone(&a), Rc::clone(&b));
            sim.spawn(async move {
                h.sleep(5).await;
                let _gb = b.lock().await;
                h.sleep(10).await;
                let _ga = a.lock().await;
            });
        }
        sim.run();
    })
}

#[test]
fn ab_ba_cycle_is_detected_with_chains() {
    let msg = ab_ba_inversion();
    assert!(msg.contains("lock ordering cycle"), "got: {msg}");
    // Both classes appear, with the acquisition sites of both chains.
    assert!(msg.contains("lock-a"), "got: {msg}");
    assert!(msg.contains("lock-b"), "got: {msg}");
    assert!(msg.contains("tests/lockdep.rs"), "chains must carry lock() sites: {msg}");
    assert!(msg.contains("current chain"), "got: {msg}");
}

#[test]
fn cycle_report_is_deterministic_across_runs() {
    // Same seed-free program, two runs: the deterministic executor must
    // produce byte-identical reports (same task, same sites, same chain).
    assert_eq!(ab_ba_inversion(), ab_ba_inversion());
}

#[test]
fn consistent_order_is_accepted() {
    let sim = Simulation::new();
    let h = sim.handle();
    let a = Rc::new(SimMutex::new_named(h.clone(), "ord-a", ()));
    let b = Rc::new(SimMutex::new_named(h.clone(), "ord-b", ()));
    for _ in 0..3 {
        let (h, a, b) = (h.clone(), Rc::clone(&a), Rc::clone(&b));
        sim.spawn(async move {
            let _ga = a.lock().await;
            h.sleep(7).await;
            let _gb = b.lock().await;
            h.sleep(3).await;
        });
    }
    sim.run();
    assert_eq!(h.lockdep().edges(), 1, "one ord-a -> ord-b edge");
}

#[test]
fn three_lock_cycle_is_detected() {
    // A -> B, B -> C, then C -> A closes a length-3 cycle.
    let msg = panic_message(|| {
        let sim = Simulation::new();
        let h = sim.handle();
        let locks: Vec<Rc<SimMutex<()>>> = ["cyc-a", "cyc-b", "cyc-c"]
            .iter()
            .map(|n| Rc::new(SimMutex::new_named(h.clone(), n, ())))
            .collect();
        for (first, second) in [(0usize, 1usize), (1, 2), (2, 0)] {
            let h = h.clone();
            let x = Rc::clone(&locks[first]);
            let y = Rc::clone(&locks[second]);
            sim.spawn(async move {
                let _gx = x.lock().await;
                h.sleep(1).await;
                let _gy = y.lock().await;
                h.sleep(1).await;
            });
        }
        sim.run();
    });
    assert!(msg.contains("lock ordering cycle"), "got: {msg}");
    assert!(
        msg.contains("cyc-a") && msg.contains("cyc-b") && msg.contains("cyc-c"),
        "all three classes in the report: {msg}"
    );
}

#[test]
fn same_class_nesting_is_allowed() {
    // Shard arrays share one class; nested same-class acquisition is an
    // accepted ordered pattern.
    let sim = Simulation::new();
    let h = sim.handle();
    let s1 = Rc::new(SimMutex::new_named(h.clone(), "shard", ()));
    let s2 = Rc::new(SimMutex::new_named(h.clone(), "shard", ()));
    sim.block_on(async move {
        let _g1 = s1.lock().await;
        let _g2 = s2.lock().await;
    });
    assert_eq!(h.lockdep().classes(), 1);
}

#[test]
fn release_unwinds_ordering_state() {
    // A then (drop A) then B, and B then (drop B) then A, in sequence on
    // one task: no overlap, no edge, no cycle.
    let sim = Simulation::new();
    let h = sim.handle();
    let a = Rc::new(SimMutex::new_named(h.clone(), "seq-a", ()));
    let b = Rc::new(SimMutex::new_named(h.clone(), "seq-b", ()));
    sim.block_on(async move {
        {
            let _ga = a.lock().await;
        }
        {
            let _gb = b.lock().await;
        }
        {
            let _gb = b.lock().await;
        }
        {
            let _ga = a.lock().await;
        }
    });
    assert_eq!(h.lockdep().edges(), 0, "sequential holds create no edges");
}

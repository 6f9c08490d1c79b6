//! Randomized tests for the simulation kernel: determinism, time
//! ordering, histogram accuracy, and lock fairness under seeded random
//! schedules.

use std::cell::RefCell;
use std::rc::Rc;

use mage_sim::rng::SplitMix64;
use mage_sim::stats::Histogram;
use mage_sim::sync::SimMutex;
use mage_sim::Simulation;

/// Any set of sleeping tasks completes in deadline order, ties broken by
/// spawn order, and the simulation ends exactly at the latest deadline.
#[test]
fn sleeps_complete_in_time_order() {
    let rng = SplitMix64::new(0x51EE_9001);
    for _ in 0..32 {
        let delays: Vec<u64> = (0..1 + rng.next_below(49))
            .map(|_| rng.next_below(10_000))
            .collect();
        let sim = Simulation::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                h.sleep(d).await;
                log.borrow_mut().push((h.now().as_nanos(), i));
            });
        }
        let end = sim.run();
        assert_eq!(end.as_nanos(), delays.iter().copied().max().unwrap_or(0));
        let log = log.borrow();
        // Completion times weakly increase; ties resolved by spawn index.
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert_eq!(delays[w[0].1], delays[w[1].1]);
                assert!(w[0].1 < w[1].1, "tie must respect spawn order");
            }
        }
        // Each task completed exactly at its deadline.
        for &(t, i) in log.iter() {
            assert_eq!(t, delays[i]);
        }
    }
}

/// Two identical simulations produce identical event traces.
#[test]
fn executor_is_deterministic() {
    let rng = SplitMix64::new(0xDE7E_3313);
    for _ in 0..32 {
        let delays: Vec<u64> = (0..1 + rng.next_below(39))
            .map(|_| rng.next_below(5_000))
            .collect();
        let trace = |delays: &[u64]| {
            let sim = Simulation::new();
            let h = sim.handle();
            let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
            for (i, &d) in delays.iter().enumerate() {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    h.sleep(d % 97).await;
                    h.yield_now().await;
                    h.sleep(d / 97).await;
                    log.borrow_mut().push(i);
                });
            }
            sim.run();
            let result = log.borrow().clone();
            result
        };
        assert_eq!(trace(&delays), trace(&delays));
    }
}

/// The mutex admits contenders in exact lock() call order no matter how
/// their arrival times and hold times interleave.
#[test]
fn mutex_is_strictly_fifo() {
    let rng = SplitMix64::new(0xF1F0_4242);
    for _ in 0..32 {
        let arrivals: Vec<(u64, u64)> = (0..2 + rng.next_below(28))
            .map(|_| (rng.next_below(1_000), 1 + rng.next_below(499)))
            .collect();
        let sim = Simulation::new();
        let h = sim.handle();
        let m = Rc::new(SimMutex::new("fifo", ()));
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let requested: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &(arrive, hold)) in arrivals.iter().enumerate() {
            let (h, m) = (h.clone(), Rc::clone(&m));
            let (order, requested) = (Rc::clone(&order), Rc::clone(&requested));
            sim.spawn(async move {
                h.sleep(arrive).await;
                requested.borrow_mut().push(i);
                let fut = m.lock();
                let _g = fut.await;
                order.borrow_mut().push(i);
                h.sleep(hold).await;
            });
        }
        sim.run();
        assert_eq!(&*order.borrow(), &*requested.borrow());
    }
}

/// Histogram quantiles stay within the documented ~3% relative error of
/// the exact empirical quantile.
#[test]
fn histogram_quantile_error_bounded() {
    let rng = SplitMix64::new(0x4157_0611);
    for _ in 0..64 {
        let mut values: Vec<u64> = (0..10 + rng.next_below(490))
            .map(|_| 1 + rng.next_below(9_999_999))
            .collect();
        let q = (rng.next_f64() * 0.99 + 0.01).min(1.0);
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let approx = h.quantile(q) as f64;
        assert!(
            approx >= exact * 0.96 && approx <= exact * 1.04 + 1.0,
            "quantile({q}) = {approx} vs exact {exact}"
        );
    }
}

//! Micro-benchmarks for the hot data structures: the executor's
//! sleep/wake round trip and its timer queue, buddy allocator
//! alloc/free, TLB fill/invalidate, a 48-core fill storm and shootdown
//! probe, page-table updates, set-up placement, histogram recording,
//! `PageMap` upserts, page accounting's partition lists and its ghost
//! list. These bound the *host-side* cost of a simulated event, which
//! determines how large an experiment the harness can run.
//!
//! Self-contained timing loop (no external bench framework): each case
//! is warmed up, then run for a fixed iteration count several times, and
//! the best per-iteration time is reported. Host wall-clock use is fine
//! here — this binary measures the simulator, it is not part of it.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the harness times the simulator with the host clock; it is not part of it"
)]

use std::rc::Rc;
use std::time::Instant;

use mage::{FarMemory, MachineParams, SystemConfig};
use mage_accounting::{AccountingCosts, GhostList, PageAccounting};
use mage_mmu::{PageTable, Pte, Tlb};
use mage_palloc::BuddyAllocator;
use mage_sim::rng::mix64;
use mage_sim::slab::PageMap;
use mage_sim::stats::Histogram;
use mage_sim::wheel::TimerWheel;
use mage_sim::Simulation;

const ITERS: u64 = 200_000;
const ROUNDS: usize = 5;

/// Runs `f` for `ITERS` iterations `ROUNDS` times (after one warm-up
/// round) and returns the best observed nanoseconds per iteration.
fn best_ns_per_iter(mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for i in 0..ITERS {
            f(i);
        }
        let ns = start.elapsed().as_nanos() as f64 / ITERS as f64;
        if round > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// A sleep drawn from the simulator's measured mix: mostly 32–512 ns,
/// one in seven 4–8 µs (a NIC completion on the fault path).
fn sleep_mix(key: u64) -> u64 {
    let r = mix64(key);
    if r.is_multiple_of(7) {
        4_000 + (r >> 8) % 4_000
    } else {
        32 + (r >> 8) % 481
    }
}

/// Prints one case's best time per iteration.
fn row(case: &str, ns: f64) {
    println!("{case:>32}  {ns:>8.1}");
}

fn main() {
    println!("Host-side cost of hot data-structure operations (best ns/iter)");

    // The executor's sleep -> fire -> poll round trip: 48 tasks, each
    // sleeping the measured mix in a loop. One iteration is one poll.
    let mut best = f64::INFINITY;
    for round in 0..=ROUNDS {
        let sim = Simulation::new();
        for task in 0..48u64 {
            let h = sim.handle();
            sim.spawn(async move {
                for i in 0..ITERS / 48 {
                    h.sleep(sleep_mix(task << 32 | i)).await;
                }
            });
        }
        let start = Instant::now();
        sim.run();
        let ns = start.elapsed().as_nanos() as f64 / sim.polls() as f64;
        if round > 0 {
            best = best.min(ns);
        }
    }
    row("executor_sleep_wake_48", best);

    // The timer queue alone, 48 timers pending: each iteration fires the
    // earliest deadline group and re-arms as many timers from the mix.
    let mut wheel = TimerWheel::new();
    let mut seq = 0u64;
    while seq < 48 {
        wheel.insert(sleep_mix(seq), seq, seq as u32);
        seq += 1;
    }
    let ns = best_ns_per_iter(|_| {
        let now = wheel.peek().expect("48 timers pending");
        wheel.fire_next(now);
        let mut fired = 0;
        while let Some(p) = wheel.pop_fired() {
            std::hint::black_box(p);
            fired += 1;
        }
        for _ in 0..fired {
            wheel.insert(now + sleep_mix(seq), seq, seq as u32);
            seq += 1;
        }
    });
    row("timer_insert_fire_48", ns);

    let mut buddy = BuddyAllocator::new(1 << 16);
    let ns = best_ns_per_iter(|_| {
        let f = buddy.alloc(0).expect("frame");
        buddy.free(std::hint::black_box(f), 0);
    });
    row("buddy_alloc_free_cycle", ns);

    let mut buddy = BuddyAllocator::new(1 << 16);
    let mut out = Vec::with_capacity(64);
    let ns = best_ns_per_iter(|_| {
        out.clear();
        buddy.alloc_batch(64, &mut out);
        buddy.free_batch(std::hint::black_box(&out));
    });
    row("buddy_batch_64", ns);

    let tlb = Tlb::new(1_536, 7);
    let ns = best_ns_per_iter(|i| {
        tlb.fill(std::hint::black_box(i));
        tlb.invalidate(i);
    });
    row("tlb_fill_invalidate", ns);

    let tlb = Tlb::new(1_536, 7);
    for v in 0..1_000 {
        tlb.fill(v);
    }
    let ns = best_ns_per_iter(|i| {
        std::hint::black_box(tlb.lookup(i % 1_000));
    });
    row("tlb_lookup_hit", ns);

    // A fault storm's TLB traffic: 48 cores, each walking its own
    // sequential page stream, so every lookup misses and, once the
    // 1,536 entries are full, every fill evicts a random victim. Then a
    // shootdown round's target-side probes: 240 pages invalidated on
    // each of the 48 full TLBs, which cache none of them. Every page
    // number stays below 2^32, as on every benchmark machine; the
    // `_wide` rows start each core's stream at `core << 32`, so every
    // TLB's insertion vector widens on its first fill.
    for (suffix, core_shift, absent) in [("", 20, 1 << 30), ("_wide", 32, 1 << 40)] {
        let tlbs: Vec<Tlb> = (0..48).map(|c| Tlb::new(1_536, c)).collect();
        let mut next = 0u64;
        let ns = best_ns_per_iter(|_| {
            let (core, vpn) = (next % 48, (next / 48) | ((next % 48) << core_shift));
            next += 1;
            let tlb = &tlbs[core as usize];
            if !tlb.lookup(std::hint::black_box(vpn)) {
                tlb.fill(vpn);
            }
        });
        row(&format!("tlb_fill_storm_48{suffix}"), ns);

        let ns = best_ns_per_iter(|i| {
            let tlb = &tlbs[(i / 240 % 48) as usize];
            tlb.invalidate(std::hint::black_box(absent | (i % 240)));
        });
        row(&format!("tlb_shootdown_probe_48x240{suffix}"), ns);
    }

    let pt = PageTable::new();
    for v in 0..10_000u64 {
        pt.set(v, Pte::present(v));
    }
    let ns = best_ns_per_iter(|i| {
        pt.update(std::hint::black_box(i % 10_000), |p| p.with_accessed(true));
    });
    row("pagetable_update", ns);

    // Set-up placement at the repository benchmark's sizes: fault_storm
    // places 786,432 pages all remote; pagerank_evict places 98,304
    // pages with local memory for half of them; one memcached_ladder
    // rung places 120,000 pages, half local, seeded over 24 workers.
    // Each round times one placement call on a fresh MAGE-Lib machine;
    // one iteration is one page.
    for (case, pages, local_pages, threads, all_remote) in [
        ("populate_all_remote_786k", 786_432u64, 786_432u64, 48, true),
        ("populate_half_local_98k", 98_304, 49_152, 48, false),
        ("populate_half_local_120k", 120_000, 60_000, 24, false),
    ] {
        let mut best = f64::INFINITY;
        for round in 0..=ROUNDS {
            let sim = Simulation::new();
            let params = MachineParams::testbed(threads, local_pages, pages + 1_024);
            let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
            let vma = engine.mmap(pages);
            let start = Instant::now();
            if all_remote {
                engine.populate_all_remote(std::hint::black_box(&vma));
            } else {
                engine.populate(std::hint::black_box(&vma));
            }
            let ns = start.elapsed().as_nanos() as f64 / pages as f64;
            engine.shutdown();
            if round > 0 {
                best = best.min(ns);
            }
        }
        row(case, best);
    }

    let h = Histogram::new();
    let ns = best_ns_per_iter(|i| {
        let v = mix64(i) >> 34;
        h.record(std::hint::black_box(v.max(1)));
    });
    row("histogram_record", ns);

    // The memcached driver's per-request upsert: a count per key over
    // 65,536 keys, drawn at random, below 2^32 or (`_wide`) from 2^40.
    for (suffix, base) in [("", 0u64), ("_wide", 1 << 40)] {
        let mut map: PageMap<u32> = PageMap::new();
        let ns = best_ns_per_iter(|i| {
            let key = base | (mix64(i) & 0xFFFF);
            *map.get_or_insert_with(std::hint::black_box(key), || 0) += 1;
        });
        row(&format!("pagemap_upsert{suffix}"), ns);
    }

    // Pages cycling through 8 accounting partitions at pagerank_evict's
    // 49,152 resident pages: an evictor takes 64 victims (every eighth
    // page probes hot and moves to the protected list) and they fault
    // back in from 48 cores. Includes the partition locks and the
    // executor's virtual-time sleeps; one iteration moves one page.
    let sim = Simulation::new();
    let acc = Rc::new(PageAccounting::new(
        sim.handle(),
        8,
        false,
        AccountingCosts::default(),
    ));
    acc.seed(0..49_152, 0, 48);
    let ns = best_ns_per_iter(|i| {
        if !i.is_multiple_of(64) {
            return;
        }
        let acc = Rc::clone(&acc);
        sim.block_on(async move {
            let mut victims = Vec::with_capacity(64);
            let round = (i / 64) as usize;
            acc.take_victims(round % 8, round, 64, &|vpn: u64| vpn.is_multiple_of(8), &mut victims)
                .await;
            for (k, &vpn) in victims.iter().enumerate() {
                acc.insert(k % 48, std::hint::black_box(vpn)).await;
            }
        });
    });
    row("accounting_cycle_8x49k", ns);

    // The ghost list at its 4,096-page bound: every iteration takes one
    // page (a hit one time in five: a page recorded 2,048 iterations
    // earlier) and records a fresh one, which drops the oldest.
    let mut ghost = GhostList::new(GhostList::DEFAULT_CAP);
    for vpn in 0..4_096 {
        ghost.record(vpn);
    }
    let mut next = 4_096u64;
    let ns = best_ns_per_iter(|i| {
        let probe = if i.is_multiple_of(5) { next - 2_048 } else { next | 1 << 40 };
        std::hint::black_box(ghost.take(probe));
        ghost.record(next);
        next += 1;
    });
    row("ghost_record_take_4k", ns);
}

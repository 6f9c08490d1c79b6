//! Differential test battery for the eviction-policy zoo: every
//! `EvictionPolicyKind` must drive the engine through seeded random
//! sweeps while upholding the invariant list mage-check runs and
//! re-reaching every page — and per policy, same-seed runs must be
//! bit-identical. The battery is differential: all policies run the
//! *same* seeded access mix on the *same* machine shape, so a policy
//! that corrupts shared engine state (rather than merely choosing
//! different victims) fails here even if it passes its unit tests.

use std::rc::Rc;

use mage_check::{check_invariants, CheckCtx};
use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;
use mage_far_memory::sim::rng;

/// Statistics that must be reproduced bit-for-bit by a same-seed rerun.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    virtual_ns: u64,
    polls: u64,
    major_faults: u64,
    evicted: u64,
    re_faults: u64,
    ghost_hits: u64,
    resident: u64,
    free: u64,
}

/// Seeded random access mix under eviction pressure; checks the
/// invariant list and returns a digest for the determinism half.
fn run_policy(
    kind: EvictionPolicyKind,
    seed: u64,
    threads: u32,
    local_pages: u64,
    wss_pages: u64,
    ops: u32,
) -> RunDigest {
    let label = kind.name();
    let system = SystemConfig::mage_lib().with_eviction_policy(kind);
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(threads + 6),
        app_threads: threads as usize,
        local_pages,
        remote_pages: wss_pages + 512,
        tlb_entries: 128,
        seed,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(wss_pages);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..threads {
        let e = Rc::clone(&engine);
        joins.push(sim.spawn(async move {
            let stream = rng::stream(seed, t as u64);
            for _ in 0..ops {
                let page = stream.next_below(wss_pages);
                let write = stream.next_below(4) == 0;
                e.access(CoreId(t), vma.start_vpn + page, write).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });

    // No-lost-page: after the churn, every page of the region must still
    // be reachable (present locally or faultable from its remote slot).
    let e = Rc::clone(&engine);
    let v = vma.clone();
    let reachable = sim.block_on(async move {
        let mut ok = 0u64;
        for i in 0..v.pages {
            match e.access(CoreId(0), v.start_vpn + i, false).await {
                Access::Failed { .. } => {}
                _ => ok += 1,
            }
        }
        ok
    });
    assert_eq!(reachable, wss_pages, "{label}: pages lost after churn");
    engine.shutdown();

    let ctx = CheckCtx {
        engine: &engine,
        vma: &vma,
        local_pages,
    };
    if let Err(v) = check_invariants(&ctx) {
        panic!("{label}: {v}");
    }
    let s = engine.stats();
    assert!(
        s.evicted_pages.get() > 0,
        "{label}: no eviction pressure — the battery tested nothing"
    );
    RunDigest {
        virtual_ns: sim.handle().now().as_nanos(),
        polls: sim.polls(),
        major_faults: s.major_faults.get(),
        evicted: s.evicted_pages.get() + s.sync_evicted_pages.get(),
        re_faults: s.re_faults.get(),
        ghost_hits: s.ghost_hits.get(),
        resident: engine.accounting().resident_pages(),
        free: engine.allocator().free_frames(),
    }
}

/// Every policy survives seeded sweeps over two machine shapes.
#[test]
fn policy_zoo_preserves_invariants_under_seeded_sweeps() {
    for (seed, threads, local, wss, ops) in
        [(3u64, 4u32, 512u64, 2_048u64, 2_000u32), (0xBEEF, 2, 768, 1_536, 1_500)]
    {
        for kind in EvictionPolicyKind::BUILT_IN {
            run_policy(kind, seed, threads, local, wss, ops);
        }
    }
}

/// Per policy: the same seed reproduces every statistic bit-for-bit,
/// and a different seed does not.
#[test]
fn each_policy_is_bit_identical_under_same_seed() {
    for kind in EvictionPolicyKind::BUILT_IN {
        let a = run_policy(kind, 77, 4, 512, 2_048, 1_500);
        let b = run_policy(kind, 77, 4, 512, 2_048, 1_500);
        assert_eq!(a, b, "{}: same-seed runs diverged", kind.name());
        let c = run_policy(kind, 78, 4, 512, 2_048, 1_500);
        assert_ne!(a, c, "{}: seed ignored", kind.name());
    }
}

/// Differential check: on one fixed seed and shape, the access total is
/// policy-independent (the application does the same work), while the
/// schedules genuinely differ between policies (the knob reaches the
/// engine).
#[test]
fn policies_agree_on_work_but_diverge_on_schedule() {
    let mut digests: Vec<(&'static str, RunDigest)> = Vec::new();
    for kind in EvictionPolicyKind::BUILT_IN {
        digests.push((kind.name(), run_policy(kind, 55, 4, 512, 2_048, 1_500)));
    }
    for (i, (name_a, da)) in digests.iter().enumerate() {
        for (name_b, db) in digests.iter().skip(i + 1) {
            assert_ne!(
                da, db,
                "{name_a} vs {name_b}: identical digests — policy swap is a no-op"
            );
        }
    }
}

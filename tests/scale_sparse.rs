//! Sparse-metadata regression tests: the host-side cost of simulating a
//! huge machine must be proportional to what the workload *touches*,
//! never to the nominal capacity. Each test opens a 2^40-page (4 PiB)
//! address space, touches ~1k scattered pages, and pins every per-page
//! structure — page-table nodes, replica records, cached TLB
//! translations, runner gauges — to an O(touched) bound that a dense
//! O(capacity) representation would miss by nine orders of magnitude
//! (these tests would also never finish allocating it).

use std::cell::Cell;
use std::rc::Rc;

use mage_far_memory::prelude::*;

/// 2^40 pages of 4 KiB = 4 PiB of simulated address space.
const SPACE: u64 = 1 << 40;

/// Golden-ratio scatter: consecutive indices land in distant radix
/// subtrees, the worst case for any structure that hopes touches
/// cluster.
fn scattered(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % SPACE
}

/// Page-table bound: one root plus at most one fresh node per level per
/// touched page (5-level radix ⇒ ≤ 4 interior + 1 leaf each).
fn pt_bound(touched: u64) -> u64 {
    1 + 5 * touched
}

/// Each core's TLB holds only what that core touched, so the cached
/// translations never outnumber the pages touched so far, whatever the
/// address-space span.
fn assert_tlbs_bounded(engine: &FarMemory, touched: u64) {
    let ic = engine.interrupts();
    let cached: usize = engine.topology().cores().map(|c| ic.tlb(c).len()).sum();
    assert!(
        cached as u64 <= touched,
        "TLBs cache {cached} translations after {touched} touches"
    );
}

/// Scattered touches through the replicated backend: a local cache much
/// smaller than the touch count forces evictions, so pages stream to
/// the backend and the replica table tracks them — and the replica
/// table, the page table, and the engine all stay O(touched).
#[test]
fn replicated_4pib_space_costs_o_touched() {
    const TOUCHED: u64 = 1_000;
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 512,
        remote_pages: SPACE,
        tlb_entries: 512,
        seed: 11,
    };
    let engine = FarMemory::launch(
        sim.handle(),
        SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        params,
    );
    let vma = engine.mmap(SPACE);
    engine.populate_lazy(&vma);

    let started = Rc::new(Cell::new(0u64));
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let engine = Rc::clone(&engine);
        let started = Rc::clone(&started);
        let h = sim.handle();
        let base = vma.start_vpn;
        joins.push(sim.spawn(async move {
            for i in (t..TOUCHED).step_by(4) {
                started.set(started.get() + 1);
                engine
                    .access(CoreId(t as u32), base + scattered(i), true)
                    .await;
                assert_tlbs_bounded(&engine, started.get());
                h.sleep(150).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();
    sim.run();
    assert_tlbs_bounded(&engine, TOUCHED);

    let pt_nodes = engine.page_table().node_count() as u64;
    let replicas = engine.backend().replica_entries();
    assert!(
        pt_nodes <= pt_bound(TOUCHED),
        "page table grew {pt_nodes} nodes for {TOUCHED} touches (bound {})",
        pt_bound(TOUCHED)
    );
    assert!(
        replicas > 0,
        "a 512-frame cache under 1000 touches must have evicted to the backend"
    );
    assert!(
        replicas <= TOUCHED,
        "replica table tracks {replicas} pages but only {TOUCHED} were touched"
    );
    // Peak metadata across the structures this run can grow.
    let meta = pt_nodes + replicas;
    assert!(
        meta <= 6 * TOUCHED + 8,
        "metadata {meta} is not O(touched = {TOUCHED})"
    );
}

/// The same property through the batch runner: `lazy_populate` makes
/// setup O(1), and the report's sparse gauges stay O(touched) even
/// though the configured working set is the full 2^40 pages.
#[test]
fn runner_lazy_populate_over_4pib_reports_sparse_gauges() {
    let mut cfg = RunConfig::new(
        SystemConfig::mage_lib(),
        WorkloadKind::RandomGraph,
        4,
        SPACE,
        0.5,
    );
    cfg.lazy_populate = true;
    cfg.ops_per_thread = 256;
    let r = run_batch(&cfg);

    assert!(r.total_ops >= 1_024, "runner completed its ops");
    // 4 threads × 256 ops touch at most 1024 distinct pages.
    let touched_max = 1_024u64;
    assert!(
        r.pt_nodes > 0 && r.pt_nodes <= pt_bound(touched_max),
        "pt_nodes {} outside (0, {}]",
        r.pt_nodes,
        pt_bound(touched_max)
    );
    // No replication configured: the gauge must report zero rather than
    // inventing entries.
    assert_eq!(r.replica_entries, 0);
    assert!(
        r.tlb_entries > 0 && r.tlb_entries <= touched_max,
        "tlb_entries {} outside (0, {touched_max}]",
        r.tlb_entries
    );
}

/// Replication through the runner: the end-to-end path (mmap → lazy
/// populate → faults → evictions → replicated writeback) keeps the
/// replica table bounded by distinct touches.
#[test]
fn runner_replicated_sparse_space_bounds_replica_entries() {
    let mut cfg = RunConfig::new(
        SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        WorkloadKind::RandomGraph,
        4,
        SPACE,
        0.5,
    );
    cfg.lazy_populate = true;
    cfg.ops_per_thread = 256;
    let r = run_batch(&cfg);

    let touched_max = 1_024u64;
    assert!(r.pt_nodes <= pt_bound(touched_max));
    assert!(
        r.replica_entries <= touched_max,
        "replica entries {} exceed the {} distinct pages this run can touch",
        r.replica_entries,
        touched_max
    );
}

//! Helpers shared by more than one integration suite.

use std::rc::Rc;

use mage_far_memory::mmu::Topology;
use mage_far_memory::prelude::*;

/// Stats-and-schedule digest of a fixed multi-threaded churn workload:
/// four app threads over a 2:1 overcommitted working set of a `cfg`
/// machine. The simsan and exploration suites compare digests of this
/// one workload across detector and policy settings.
pub fn churn_digest(sim: Simulation, cfg: SystemConfig) -> [u64; 10] {
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 256,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed: 11,
    };
    let engine = FarMemory::launch(sim.handle(), cfg, params);
    let vma = engine.mmap(512);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let e = Rc::clone(&engine);
        let start = vma.start_vpn;
        joins.push(sim.spawn(async move {
            for i in 0..384u64 {
                let vpn = start + (i * 7 + t * 13) % 512;
                e.access(CoreId(t as u32), vpn, i % 3 == 0).await;
            }
        }));
    }
    sim.block_on(async move {
        for j in joins {
            j.await;
        }
    });
    engine.shutdown();
    let s = engine.stats();
    [
        s.accesses.get(),
        s.tlb_hits.get(),
        s.minor_walks.get(),
        s.major_faults.get(),
        s.evicted_pages.get(),
        s.sync_evicted_pages.get(),
        s.unmapped_pages.get(),
        s.evict_cancelled_pages.get(),
        sim.polls(),
        sim.handle().now().as_nanos(),
    ]
}

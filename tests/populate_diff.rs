//! Differential test for set-up placement. `FarMemory::populate` and
//! `populate_all_remote` place a region with one
//! `PageTable::place_run`, one radix walk per 512-entry leaf. The
//! per-page loop they replaced is kept here as the oracle:
//! `oracle_place` does what `populate` did, one `PageTable::set` per
//! page, and takes each page's frame and accounting seed through the
//! run forms one page at a time. Both run on twin machines, and
//! everything placement touches must match:
//!
//! - every PTE word around each region, and the page-table node count;
//! - the accounting lists (`queues_snapshot`) and resident count;
//! - `free_frames()` and the next 64 frames drawn;
//! - the next seeded backend slot, and every slot's replica states;
//! - the collected `PageEvent` sequence.
//!
//! Shapes cover leaf edges: regions of 1, 511, 512, 513 and 2,000
//! pages, a second region starting mid-leaf, the local budget ending
//! mid-leaf and exactly at a leaf boundary, and all-remote placement.
//! One shape fragments the frame pool first, so placement starts on
//! scattered low-order buddy blocks, and one config is
//! `memcached_ladder`'s 24 app threads over 8 accounting partitions.
//! Run with `MAGE_SIMSAN=1` (as `ci.sh` does) and every placement write
//! also goes through the race detector's shadow check;
//! `placement_writes_are_shadow_checked` checks that classification
//! with the detector on in every run.

use std::cell::RefCell;
use std::rc::Rc;

use mage_far_memory::engine::{EventSink, PageEvent};
use mage_far_memory::mmu::{Pte, Vma};
use mage_far_memory::prelude::*;
use mage_far_memory::sim::RaceMode;

const APP_THREADS: usize = 4;

/// Collects the page-lifecycle events a machine emits.
#[derive(Default)]
struct Collect(RefCell<Vec<PageEvent>>);

impl EventSink for Collect {
    fn on_event(&self, event: PageEvent) {
        self.0.borrow_mut().push(event);
    }
}

/// How one region of a shape is placed.
#[derive(Clone, Copy, Debug)]
enum Place {
    /// `populate` with the machine's own local budget.
    Populate,
    /// `populate` after frames are drawn so that exactly this many pages
    /// of the region fit the local budget.
    PopulateLocal(u64),
    /// `populate_all_remote`.
    AllRemote,
    /// `populate` after [`fragment_pool`].
    Fragmented,
}

/// Regions mapped and placed in order. `mmap` leaves a 512-page guard
/// gap and starts at a leaf boundary, so a region after one of `n`
/// pages starts `n` pages into a leaf.
const SHAPES: &[(&str, &[(u64, Place)])] = &[
    ("1 page", &[(1, Place::Populate)]),
    ("511 pages", &[(511, Place::Populate)]),
    ("512 pages", &[(512, Place::Populate)]),
    ("513 pages", &[(513, Place::Populate)]),
    ("2000 pages", &[(2_000, Place::Populate)]),
    (
        "second region mid-leaf",
        &[(300, Place::Populate), (1_500, Place::Populate)],
    ),
    (
        "local budget ends mid-leaf",
        &[(2_000, Place::PopulateLocal(700))],
    ),
    (
        "local budget ends at a leaf boundary",
        &[(2_000, Place::PopulateLocal(1_024))],
    ),
    (
        "local budget of one page",
        &[(513, Place::PopulateLocal(1))],
    ),
    ("local budget zero", &[(513, Place::PopulateLocal(0))]),
    ("all remote", &[(2_000, Place::AllRemote)]),
    (
        "all remote after a populated region",
        &[(1, Place::Populate), (1_200, Place::AllRemote)],
    ),
    (
        "second region mid-leaf, budget ends in it",
        &[(700, Place::Populate), (1_000, Place::PopulateLocal(300))],
    ),
    ("fragmented pool", &[(4_000, Place::Fragmented)]),
];

/// Each config with its app-thread count.
fn configs() -> Vec<(&'static str, SystemConfig, usize)> {
    vec![
        ("MAGE-Lib", SystemConfig::mage_lib(), APP_THREADS),
        ("MAGE-Lnx", SystemConfig::mage_lnx(), APP_THREADS),
        ("Hermit", SystemConfig::hermit(), APP_THREADS),
        ("DiLOS", SystemConfig::dilos(), APP_THREADS),
        (
            "MAGE-Lib replicated",
            SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
            APP_THREADS,
        ),
        (
            "Hermit replicated",
            SystemConfig::hermit().with_replication(ReplicationConfig::default()),
            APP_THREADS,
        ),
        ("MAGE-Lib, 24 app threads", SystemConfig::mage_lib(), 24),
    ]
}

fn machine(
    sim: &Simulation,
    cfg: SystemConfig,
    app_threads: usize,
) -> (Rc<FarMemory>, Rc<Collect>) {
    let params = MachineParams {
        topo: Topology::single_socket(app_threads as u32 + 4),
        app_threads,
        local_pages: 4_096,
        remote_pages: 16_384,
        tlb_entries: 64,
        seed: 7,
    };
    let m = FarMemory::launch(sim.handle(), cfg, params);
    let events = Rc::new(Collect::default());
    m.tap_events(Rc::clone(&events) as Rc<dyn EventSink>);
    (m, events)
}

/// Takes one frame through the run form.
fn seed_one(m: &FarMemory) -> Option<u64> {
    m.allocator().seed_frames(1).first().map(|run| run.start)
}

/// The per-page placement loop `populate` ran before leaf runs: one
/// page-table walk per page, local pages while more than the high
/// watermark is free, seeded round robin over `app_threads` cores.
fn oracle_place(m: &FarMemory, events: &Collect, vma: &Vma, all_remote: bool, app_threads: usize) {
    let mut core = 0usize;
    for i in 0..vma.pages {
        let vpn = vma.start_vpn + i;
        if !all_remote && m.allocator().free_frames() > m.high_watermark() {
            let frame = seed_one(m).expect("frame");
            m.page_table()
                .set(vpn, Pte::present(frame).with_dirty(true));
            m.accounting().seed(vpn..vpn + 1, core, app_threads);
            events.on_event(PageEvent::Placed { vpn, local: true });
            core = (core + 1) % app_threads;
        } else {
            let rpn = m
                .backend()
                .seed_slot(vma.remote_page(vpn))
                .expect("backend capacity exceeded");
            m.page_table().set(vpn, Pte::remote(rpn));
            events.on_event(PageEvent::Placed { vpn, local: false });
        }
    }
}

/// Draws frames until exactly `local` pages fit the local budget.
fn set_local_budget(m: &FarMemory, local: u64) {
    let budget = m.allocator().free_frames() - m.high_watermark();
    assert!(
        local <= budget,
        "shape needs {local} local pages, budget is {budget}"
    );
    for _ in local..budget {
        seed_one(m).expect("frame");
    }
}

/// Draws 512 frames and frees 246 of them, highest first: every third
/// frame and every fifth run of 16. Whatever reaches the buddy
/// (every frame under DiLOS's global buddy, all but one per-CPU batch
/// under Hermit's caches) leaves scattered blocks on its low-order free
/// lists; MAGE's stacks keep freed frames in their shared queue.
fn fragment_pool(sim: &Simulation, m: &FarMemory) {
    let drawn = m.allocator().seed_frames(512);
    let freed: Vec<u64> = drawn
        .into_iter()
        .flatten()
        .filter(|f| f % 3 == 0 || f / 16 % 5 == 1)
        .rev()
        .collect();
    let alloc = Rc::clone(m.allocator());
    sim.block_on(async move { alloc.free_batch(0, &freed).await });
}

/// Maps and places `regions` on `m`, through `populate*` or the oracle.
fn place_all(
    sim: &Simulation,
    m: &FarMemory,
    events: &Collect,
    app_threads: usize,
    regions: &[(u64, Place)],
    oracle: bool,
) -> Vec<Vma> {
    let mut vmas = Vec::new();
    for &(pages, place) in regions {
        let vma = m.mmap(pages);
        match place {
            Place::PopulateLocal(local) => set_local_budget(m, local),
            Place::Fragmented => fragment_pool(sim, m),
            Place::Populate | Place::AllRemote => {}
        }
        let all_remote = matches!(place, Place::AllRemote);
        match (oracle, all_remote) {
            (true, _) => oracle_place(m, events, &vma, all_remote, app_threads),
            (false, true) => m.populate_all_remote(&vma),
            (false, false) => m.populate(&vma),
        }
        vmas.push(vma);
    }
    vmas
}

/// Everything placement touches, read back after placement.
#[derive(Debug, PartialEq, Eq)]
struct Placement {
    /// Every PTE word of each region plus one page either side.
    ptes: Vec<(u64, u64)>,
    pt_nodes: usize,
    queues: Vec<(Vec<u64>, Vec<u64>)>,
    resident: u64,
    free_frames: u64,
    next_frames: Vec<u64>,
    next_slot: Option<u64>,
    replicas: Vec<Option<[ReplicaState; 2]>>,
    replica_entries: u64,
    events: Vec<PageEvent>,
}

fn read_back(m: &FarMemory, events: &Collect, vmas: &[Vma]) -> Placement {
    let pt = m.page_table();
    let mut ptes = Vec::new();
    let mut replicas = Vec::new();
    for vma in vmas {
        for vpn in vma.start_vpn - 1..=vma.start_vpn + vma.pages {
            let pte = pt.get(vpn);
            ptes.push((vpn, pte.0));
            if pte.is_remote() {
                replicas.push(m.backend().replica_states(pte.payload()));
            }
        }
    }
    let free_frames = m.allocator().free_frames();
    let next_frames = (0..64).map_while(|_| seed_one(m)).collect();
    let next_remote: u64 = vmas.iter().map(|v| v.pages).sum();
    Placement {
        ptes,
        pt_nodes: pt.node_count(),
        queues: m.accounting().queues_snapshot(),
        resident: m.accounting().resident_pages(),
        free_frames,
        next_frames,
        next_slot: m.backend().seed_slot(next_remote),
        replicas,
        replica_entries: m.backend().replica_entries(),
        events: events.0.borrow().clone(),
    }
}

/// The regions of the shape named `name`.
fn shape(name: &str) -> &'static [(u64, Place)] {
    SHAPES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no shape {name}"))
        .1
}

fn run_shape(
    cfg: &SystemConfig,
    app_threads: usize,
    regions: &[(u64, Place)],
    oracle: bool,
) -> Placement {
    let sim = Simulation::new();
    let (m, events) = machine(&sim, cfg.clone(), app_threads);
    let vmas = place_all(&sim, &m, &events, app_threads, regions, oracle);
    let out = read_back(&m, &events, &vmas);
    m.shutdown();
    out
}

/// Panics with the first position where `got` and `want` differ.
fn assert_same_seq<T: PartialEq + std::fmt::Debug>(ctx: &str, what: &str, got: &[T], want: &[T]) {
    let n = got.len().max(want.len());
    if let Some(i) = (0..n).find(|&i| got.get(i) != want.get(i)) {
        panic!(
            "{ctx}: {what} differ at {i} (lengths {} vs {}): got {:?}, oracle {:?}",
            got.len(),
            want.len(),
            got.get(i),
            want.get(i)
        );
    }
}

fn assert_same(ctx: &str, got: &Placement, want: &Placement) {
    assert_same_seq(ctx, "PTE words", &got.ptes, &want.ptes);
    assert_same_seq(ctx, "events", &got.events, &want.events);
    assert_eq!(got.queues.len(), want.queues.len(), "{ctx}: partitions");
    for (p, (g, w)) in got.queues.iter().zip(&want.queues).enumerate() {
        assert_same_seq(ctx, &format!("partition {p} inactive list"), &g.0, &w.0);
        assert_same_seq(ctx, &format!("partition {p} active list"), &g.1, &w.1);
    }
    assert_same_seq(ctx, "next frames", &got.next_frames, &want.next_frames);
    assert_same_seq(ctx, "replica states", &got.replicas, &want.replicas);
    // Whatever is left is scalar.
    assert_eq!(got, want, "{ctx}");
}

#[test]
fn leaf_run_placement_matches_the_per_page_loop() {
    for (cfg_name, cfg, app_threads) in configs() {
        for &(shape, regions) in SHAPES {
            let want = run_shape(&cfg, app_threads, regions, true);
            let got = run_shape(&cfg, app_threads, regions, false);
            assert_same(&format!("{cfg_name}, {shape}"), &got, &want);
        }
    }
}

/// The shapes reach the cases they are named for: the local budget
/// ends on a leaf boundary, the second region starts mid-leaf,
/// all-remote placement places nothing local, a fragmented buddy hands
/// out scattered frames before whole blocks, and 24 app threads seed
/// all 8 partitions.
#[test]
fn shapes_cover_the_leaf_edges() {
    let place = run_shape(
        &SystemConfig::mage_lib(),
        APP_THREADS,
        shape("local budget ends at a leaf boundary"),
        false,
    );
    let local: Vec<u64> = place
        .events
        .iter()
        .filter_map(|e| match *e {
            PageEvent::Placed { vpn, local: true } => Some(vpn),
            _ => None,
        })
        .collect();
    assert_eq!(local.len(), 1_024);
    assert_eq!(
        (local[local.len() - 1] + 1) % 512,
        0,
        "budget ends at a leaf boundary"
    );
    let mid = run_shape(
        &SystemConfig::mage_lib(),
        APP_THREADS,
        shape("second region mid-leaf"),
        false,
    );
    let second = mid.events[300].vpn();
    assert_ne!(second % 512, 0, "second region starts mid-leaf");
    let remote = run_shape(
        &SystemConfig::hermit(),
        APP_THREADS,
        shape("all remote"),
        false,
    );
    assert!(remote
        .events
        .iter()
        .all(|e| matches!(e, PageEvent::Placed { local: false, .. })));
    assert_eq!(remote.events.len(), 2_000);
    for cfg in [SystemConfig::dilos(), SystemConfig::hermit()] {
        let frag = run_shape(&cfg, APP_THREADS, shape("fragmented pool"), false);
        let frames: Vec<u64> = frag
            .ptes
            .iter()
            .map(|&(_, word)| Pte(word))
            .filter(|pte| pte.is_present())
            .map(|pte| pte.payload())
            .collect();
        assert!(
            frames[0] < 512,
            "first frame {} is not a freed one",
            frames[0]
        );
        assert!(
            frames.windows(2).any(|w| w[0] > w[1]),
            "frames ascend: the low-order free lists were empty"
        );
    }
    let wide = run_shape(&SystemConfig::mage_lib(), 24, shape("2000 pages"), false);
    assert_eq!(wide.queues.len(), 8);
    assert!(wide.queues.iter().all(|(inactive, _)| !inactive.is_empty()));
}

/// With the race detector on, each placed word is a plain write: a
/// concurrent unordered write to it from another task is a race, on
/// every placed vpn and on nothing else, exactly as for the oracle.
#[test]
fn placement_writes_are_shadow_checked() {
    for all_remote in [false, true] {
        let raced = |oracle: bool| {
            let sim = Simulation::new();
            let det = sim.enable_race_detection();
            det.set_mode(RaceMode::Collect);
            let (m, events) = machine(&sim, SystemConfig::mage_lib(), APP_THREADS);
            // Budget ends mid-leaf: runs of both kinds and a partial leaf.
            let vma = m.mmap(1_300);
            set_local_budget(&m, 700);
            let (m1, vma1) = (Rc::clone(&m), vma.clone());
            let placer = sim.spawn(async move {
                match (oracle, all_remote) {
                    (true, _) => oracle_place(&m1, &events, &vma1, all_remote, APP_THREADS),
                    (false, true) => m1.populate_all_remote(&vma1),
                    (false, false) => m1.populate(&vma1),
                }
            });
            let (m2, vma2) = (Rc::clone(&m), vma.clone());
            let prober = sim.spawn(async move {
                let pt = m2.page_table();
                for vpn in vma2.start_vpn - 1..=vma2.start_vpn + vma2.pages {
                    pt.set(vpn, pt.get(vpn));
                }
            });
            sim.block_on(async move {
                placer.await;
                prober.await;
            });
            m.shutdown();
            det.take_reports()
                .into_iter()
                .filter(|r| r.region == "pte")
                .map(|r| r.index)
                .collect::<Vec<u64>>()
        };
        let placed: Vec<u64> = (0x10_0000..0x10_0000 + 1_300).collect();
        let ctx = format!("all_remote {all_remote}");
        assert_same_seq(&ctx, "oracle's raced vpns", &raced(true), &placed);
        assert_same_seq(&ctx, "raced vpns", &raced(false), &placed);
    }
}

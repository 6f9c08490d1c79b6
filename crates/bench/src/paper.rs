//! The paper's evaluation as one table of figure specs, and the claims
//! `BENCH_paper.json` records about it.
//!
//! A spec is one figure or table of §3 and §6 (or the §4.2.2
//! replacement-policy extension): its sweep axis, its lines (a system and
//! the workload it runs), the columns derived from each run, and a run
//! size at reduced and at paper scale. The `paper` binary runs specs at
//! paper scale and writes each as `target/experiments/<id>.csv`.
//!
//! A [`Claim`] is one number the reproduction is judged by: a value
//! measured from spec cells at reduced scale, the paper's value where the
//! paper states one, and the comparison and tolerance the value must
//! meet. [`render_json`] writes the evaluated claims as
//! `BENCH_paper.json`. Every value is virtual time, so the file is
//! bit-reproducible across hosts: `tests/committed_reports.rs`
//! regenerates it and compares it byte for byte, and the root package's
//! `tests/paper_claims.rs` asserts its thresholds on the committed file.
//!
//! Working sets are scaled down from the paper's tens of gigabytes to
//! tens-to-hundreds of megabytes (DESIGN.md §1: far-memory behaviour is
//! scale-invariant in the pattern and the compute/access ratio); thread
//! counts and offload ratios match the paper.

use std::collections::BTreeMap;

use mage::{BreakdownMeans, EvictionPolicyKind, PrefetchPolicy, SystemConfig};
use mage_mmu::Topology;
use mage_sim::json::{self, Value};
use mage_workloads::memcached::{run_memcached, MemcachedConfig};
use mage_workloads::runner::{run_batch, run_open_loop_faults, run_raw_rdma, RunConfig, RunReport};
use mage_workloads::WorkloadKind;

/// JSON schema marker written to (and expected in) `BENCH_paper.json`.
pub const SCHEMA: &str = "mage-bench-paper/v1";

/// Fig. 11's working-set shift (the paper's 10 s, scaled to 5 ms).
const PHASE_AT_NS: u64 = 5_000_000;
/// Fig. 11's timeline bucket.
const BUCKET_NS: u64 = 500_000;
/// Seed of the open-loop fault and raw-RDMA runs.
const OPEN_LOOP_SEED: u64 = 7;

/// Which of a spec's two run sizes a [`Lab`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the claims are measured at.
    Reduced,
    /// The sizes of the figure CSVs.
    Paper,
}

/// What one line of a figure runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    /// A closed-loop batch application.
    App(WorkloadKind),
    /// Metis with its map → reduce barrier halfway through each thread.
    Metis,
    /// GUPS with a working-set shift at [`PHASE_AT_NS`], sampled every
    /// [`BUCKET_NS`].
    Timeline,
    /// The §3.2 sequential-read fault storm: every page starts remote and
    /// each thread faults `wss / threads` pages.
    Storm,
    /// The fault storm with every page fitting locally: no eviction.
    FaultOnly,
    /// Open-loop memcached (§6.3).
    Memcached,
    /// Open-loop faults on the fault path (Fig. 15).
    OpenLoop,
    /// Open-loop raw RDMA reads next to four background writers (Fig. 15).
    RawRdma,
}

/// Run size: threads (memcached workers), working set (store) in pages,
/// per-thread ops and warmup ops, and the open-loop offered-load window.
#[derive(Clone, Copy, Debug)]
struct Size {
    threads: usize,
    wss: u64,
    ops: u64,
    warmup: u64,
    ns: u64,
}

const fn app(threads: usize, wss: u64, ops: u64, warmup: u64) -> Size {
    Size {
        threads,
        wss,
        ops,
        warmup,
        ns: 0,
    }
}

const fn timed(threads: usize, wss: u64, ns: u64) -> Size {
    Size {
        threads,
        wss,
        ops: 0,
        warmup: 0,
        ns,
    }
}

/// App figures at paper scale (~190 MiB working set).
const APP: Size = app(48, 49_152, 4_000, 2_000);
/// App figures at reduced scale.
const APP_REDUCED: Size = app(48, 32_768, 4_000, 0);
/// Fault storms (~470 MiB at paper scale); ops follow from the size.
const STORM: Size = app(48, 120_000, 0, 0);
const STORM_REDUCED: Size = app(48, 60_000, 0, 0);

/// One fully resolved run: a spec cell, or a claim's variant of one. Its
/// `Debug` text names every input, so it keys the [`Lab`]'s samples.
#[derive(Clone, Debug)]
struct Run {
    system: SystemConfig,
    workload: Workload,
    local: f64,
    load: f64,
    size: Size,
    /// Overrides the batch, memcached and open-loop seeds.
    seed: Option<u64>,
}

/// What a run measured.
enum Sample {
    Batch(Box<RunReport>),
    /// Memcached, open-loop faults or raw RDMA: p99 sojourn or request
    /// latency in ns, and the completion rate in M ops/s.
    Open {
        p99_ns: u64,
        achieved_mops: f64,
    },
}

impl Sample {
    fn r(&self) -> &RunReport {
        match self {
            Sample::Batch(r) => r,
            Sample::Open { .. } => panic!("not a batch run"),
        }
    }

    fn mops(&self) -> f64 {
        self.r().mops()
    }

    fn p99_us(&self) -> f64 {
        let ns = match self {
            Sample::Batch(r) => r.fault_p99_ns,
            Sample::Open { p99_ns, .. } => *p99_ns,
        };
        ns as f64 / 1e3
    }

    fn achieved_mops(&self) -> f64 {
        match self {
            Sample::Open { achieved_mops, .. } => *achieved_mops,
            Sample::Batch(_) => panic!("not an open-loop run"),
        }
    }

    fn breakdown(&self) -> BreakdownMeans {
        self.r().window.breakdown_means()
    }

    /// Metis's map- and reduce-phase throughput, M ops/s, split at the
    /// phase barrier.
    fn phase_mops(&self) -> [f64; 2] {
        let r = self.r();
        let switch = *r.phase_switch_ns.iter().max().expect("threads ran");
        let map_ops = (r.total_ops / 2) as f64;
        [
            map_ops * 1e3 / switch.max(1) as f64,
            map_ops * 1e3 / (r.runtime_ns - switch).max(1) as f64,
        ]
    }
}

impl Run {
    fn execute(&self) -> Sample {
        let r = match self.workload {
            Workload::Memcached => {
                let mut cfg = MemcachedConfig::paper(self.system.clone(), self.size.wss);
                cfg.workers = self.size.threads;
                cfg.local_ratio = self.local;
                cfg.load_mops = self.load;
                cfg.duration_ns = self.size.ns;
                cfg.seed = self.seed.unwrap_or(cfg.seed);
                let r = run_memcached(&cfg);
                return Sample::Open {
                    p99_ns: r.p99_ns,
                    achieved_mops: r.achieved_mops,
                };
            }
            Workload::RawRdma => run_raw_rdma(self.load, self.size.ns, self.open_loop_seed()),
            Workload::OpenLoop => run_open_loop_faults(
                self.system.clone(),
                self.size.threads,
                self.size.wss,
                self.local,
                self.load,
                self.size.ns,
                self.open_loop_seed(),
            ),
            _ => return Sample::Batch(Box::new(run_batch(&self.batch_config()))),
        };
        Sample::Open {
            p99_ns: r.p99_ns,
            achieved_mops: r.achieved_mops,
        }
    }

    fn open_loop_seed(&self) -> u64 {
        self.seed.unwrap_or(OPEN_LOOP_SEED)
    }

    fn batch_config(&self) -> RunConfig {
        let Size {
            threads,
            wss,
            ops,
            warmup,
            ..
        } = self.size;
        let kind = match self.workload {
            Workload::App(kind) => kind,
            Workload::Metis => WorkloadKind::Metis,
            Workload::Timeline => WorkloadKind::Gups,
            _ => WorkloadKind::SeqFault,
        };
        let local = if self.workload == Workload::FaultOnly {
            1.0
        } else {
            self.local
        };
        let mut cfg = RunConfig::new(self.system.clone(), kind, threads, wss, local);
        cfg.ops_per_thread = ops;
        cfg.warmup_ops = warmup;
        cfg.seed = self.seed.unwrap_or(cfg.seed);
        match self.workload {
            Workload::Metis => cfg.phase_change_at_op = Some(ops / 2),
            Workload::Timeline => {
                cfg.phase_change_at_ns = Some(PHASE_AT_NS);
                cfg.sample_interval_ns = Some(BUCKET_NS);
            }
            Workload::Storm | Workload::FaultOnly => {
                cfg.all_remote = true;
                cfg.ops_per_thread = wss / threads as u64;
                // Past the paper testbed's 56 cores, scale the dual-socket
                // geometry up so the 64–256-thread points keep its shape.
                if threads as u32 > cfg.topo.total_cores() {
                    cfg.topo = Topology::dual_socket(threads.div_ceil(2) as u32);
                }
            }
            _ => {}
        }
        cfg
    }
}

/// What a sweep point sets on a run.
#[derive(Clone, Copy)]
enum Knob {
    None,
    Local(f64),
    Threads(usize),
    Batch(usize),
    Load(f64),
    Kind(WorkloadKind),
}

/// A figure's rows: the swept parameter's CSV header and its points.
struct Axis {
    name: &'static str,
    points: Vec<(String, Knob)>,
}

fn sweep<T: Copy>(
    name: &'static str,
    values: &[T],
    label: fn(T) -> String,
    knob: fn(T) -> Knob,
) -> Axis {
    Axis {
        name,
        points: values.iter().map(|&v| (label(v), knob(v))).collect(),
    }
}

fn far_pct(pcts: &[u32]) -> Axis {
    sweep(
        "far_mem_pct",
        pcts,
        |p| p.to_string(),
        |p| Knob::Local(1.0 - p as f64 / 100.0),
    )
}

fn local_pct(pcts: &[u32]) -> Axis {
    sweep(
        "local_pct",
        pcts,
        |p| p.to_string(),
        |p| Knob::Local(p as f64 / 100.0),
    )
}

fn threads(counts: &[usize]) -> Axis {
    sweep("threads", counts, |t| t.to_string(), Knob::Threads)
}

fn load(name: &'static str, mops: &[f64]) -> Axis {
    sweep(name, mops, |l| format!("{l:.1}"), Knob::Load)
}

/// No sweep: one point and no axis column.
fn single() -> Axis {
    Axis {
        name: "",
        points: vec![(String::new(), Knob::None)],
    }
}

/// One compared system: its label, its config and what it runs.
struct Line {
    label: &'static str,
    system: SystemConfig,
    workload: Workload,
}

/// Lines with explicit labels, all running `workload`.
fn lines(lines: Vec<(&'static str, SystemConfig)>, workload: Workload) -> Vec<Line> {
    lines
        .into_iter()
        .map(|(label, system)| Line {
            label,
            system,
            workload,
        })
        .collect()
}

/// Lines labelled by their systems' names, all running `workload`.
fn named(systems: Vec<SystemConfig>, workload: Workload) -> Vec<Line> {
    lines(systems.into_iter().map(|s| (s.name, s)).collect(), workload)
}

/// MAGE-Lib, MAGE-Lnx, DiLOS and Hermit.
fn four() -> Vec<SystemConfig> {
    vec![
        SystemConfig::mage_lib(),
        SystemConfig::mage_lnx(),
        SystemConfig::dilos(),
        SystemConfig::hermit(),
    ]
}

fn no_prefetch(mut system: SystemConfig) -> SystemConfig {
    system.prefetch = PrefetchPolicy::None;
    system
}

/// Fig. 17's technique steps: DiLOS → +pipelined eviction → +LRU
/// partitioning → +multi-layer allocator (= MAGE-Lib's stack).
fn ablation_steps() -> Vec<(&'static str, SystemConfig)> {
    let baseline = SystemConfig::dilos();
    let mut pipelined = baseline.clone();
    pipelined.sync_eviction = false;
    pipelined.pipelined_eviction = true;
    pipelined.eviction_batch = 256;
    let mut partitioned = pipelined.clone();
    partitioned.accounting_partitions = 8;
    let mut multilayer = partitioned.clone();
    multilayer.local_alloc = SystemConfig::mage_lib().local_alloc;
    vec![
        ("Baseline", baseline),
        ("+Pipelined", pipelined),
        ("+LRUpart", partitioned),
        ("+MultiLayer", multilayer),
    ]
}

/// §4.2.2's replacement rows: partition count × eviction policy.
fn replacement_policies() -> Vec<(&'static str, SystemConfig)> {
    let policy = |partitions: usize, policy: EvictionPolicyKind| {
        let mut system = SystemConfig::mage_lib().with_eviction_policy(policy);
        system.accounting_partitions = partitions;
        if matches!(policy, EvictionPolicyKind::Fifo) {
            // MAGE-Lnx's FIFO queues: nothing is checked per scanned page.
            system.costs.accounting.scan_per_page_ns = 0;
        }
        system
    };
    vec![
        ("GlobalLru", policy(1, EvictionPolicyKind::SecondChance)),
        ("PartLru", policy(8, EvictionPolicyKind::SecondChance)),
        ("Fifo", policy(8, EvictionPolicyKind::Fifo)),
        ("S3Fifo", policy(8, EvictionPolicyKind::S3Fifo)),
    ]
}

/// A cell's inputs when its CSV text is derived.
struct Cell<'a> {
    run: &'a Run,
    s: &'a Sample,
    /// The same line's all-local run, for a [`Spec::relative`] spec.
    base: Option<&'a Sample>,
    /// Every cell of the row.
    row: Vec<&'a Sample>,
}

impl Cell<'_> {
    /// Throughput as a percentage of the all-local run's.
    fn pct(&self) -> f64 {
        100.0 * self.s.mops() / self.base.expect("a relative spec").mops()
    }
}

/// One derived CSV column: its name (empty: the line's label alone) and
/// its text for a cell.
struct Column(&'static str, fn(&Cell) -> String);

fn f1(v: f64) -> String {
    format!("{v:.1}")
}

fn f2(v: f64) -> String {
    format!("{v:.2}")
}

fn us(ns: f64) -> String {
    f1(ns / 1e3)
}

const PCT: &[Column] = &[Column("", |c| f2(c.pct()))];
const MOPS: &[Column] = &[Column("", |c| f2(c.s.mops()))];
const P99: Column = Column("", |c| f1(c.s.p99_us()));
const BREAKDOWN: &[Column] = &[
    Column("rdma", |c| us(c.s.breakdown().rdma)),
    Column("tlb_flush", |c| us(c.s.breakdown().tlb)),
    Column("accounting", |c| us(c.s.breakdown().accounting)),
    Column("circulation", |c| us(c.s.breakdown().circulation)),
    Column("others", |c| us(c.s.breakdown().other)),
    Column("total", |c| us(c.s.breakdown().total())),
];

/// The policy zoo's per-cell values. The re-fault rate is the share of
/// major faults whose page was still on the ghost list: evicted too
/// early.
const ZOO: &[Column] = &[
    Column("mops", |c| format!("{:.4}", c.s.mops())),
    Column("major_faults", |c| c.s.r().major_faults.to_string()),
    Column("re_faults", |c| c.s.r().window.re_faults.to_string()),
    Column("ghost_hits", |c| c.s.r().window.ghost_hits.to_string()),
    Column("re_fault_rate", |c| {
        format!("{:.6}", c.s.r().re_fault_rate())
    }),
    Column("fault_p99_us", |c| f1(c.s.p99_us())),
];

/// How a spec's cells are laid out in its CSV.
enum Layout {
    /// One row per sweep point; each line contributes its columns.
    Wide,
    /// One row per (line, point), led by the line's label under this
    /// header and then the point's.
    Long(&'static str),
    /// One row per timeline bucket, one column per line (Fig. 11).
    Buckets,
}

/// One figure or table: sweep points × lines, one run per cell.
struct Spec {
    /// CSV name: `target/experiments/<id>.csv`.
    id: &'static str,
    title: &'static str,
    axis: Axis,
    lines: Vec<Line>,
    columns: &'static [Column],
    layout: Layout,
    /// Cells are derived against the same line's all-local run.
    relative: bool,
    /// Local-memory ratio and offered load where the axis sets neither.
    local: f64,
    load: f64,
    reduced: Size,
    paper: Size,
}

/// A wide spec of app-sized runs at full local memory.
fn spec(
    id: &'static str,
    title: &'static str,
    axis: Axis,
    lines: Vec<Line>,
    columns: &'static [Column],
) -> Spec {
    Spec {
        id,
        title,
        axis,
        lines,
        columns,
        layout: Layout::Wide,
        relative: false,
        local: 1.0,
        load: 0.0,
        reduced: APP_REDUCED,
        paper: APP,
    }
}

impl Spec {
    fn sizes(self, reduced: Size, paper: Size) -> Self {
        Spec {
            reduced,
            paper,
            ..self
        }
    }

    fn relative(self) -> Self {
        Spec {
            relative: true,
            ..self
        }
    }

    fn at(self, local: f64) -> Self {
        Spec { local, ..self }
    }

    fn layout(self, layout: Layout) -> Self {
        Spec { layout, ..self }
    }

    fn run(&self, knob: Knob, line: &Line, scale: Scale, seed: Option<u64>) -> Run {
        let size = if scale == Scale::Paper {
            self.paper
        } else {
            self.reduced
        };
        let mut run = Run {
            system: line.system.clone(),
            workload: line.workload,
            local: self.local,
            load: self.load,
            size,
            seed,
        };
        match knob {
            Knob::None => {}
            Knob::Local(local) => run.local = local,
            Knob::Threads(threads) => run.size.threads = threads,
            Knob::Batch(batch) => run.system.eviction_batch = batch,
            Knob::Load(load) => run.load = load,
            Knob::Kind(kind) => run.workload = Workload::App(kind),
        }
        run
    }

    fn header(&self) -> Vec<String> {
        let mut header = Vec::new();
        match self.layout {
            Layout::Wide => {
                header.push(self.axis.name.to_string());
                for line in &self.lines {
                    header.extend(self.columns.iter().map(|c| match c.0 {
                        "" => line.label.to_string(),
                        name => format!("{}_{name}", line.label),
                    }));
                }
            }
            Layout::Long(first) => {
                header.push(first.to_string());
                if !self.axis.name.is_empty() {
                    header.push(self.axis.name.to_string());
                }
                header.extend(self.columns.iter().map(|c| c.0.to_string()));
            }
            Layout::Buckets => {
                header.push("bucket_0.5ms".to_string());
                header.extend(self.lines.iter().map(|l| l.label.to_string()));
            }
        }
        header
    }
}

/// Every figure and table of the evaluation, in paper order.
#[rustfmt::skip] // one block per spec, laid out as a table
fn specs() -> Vec<Spec> {
    use SystemConfig as S;
    use Workload::{App, FaultOnly, Memcached, Metis, OpenLoop, RawRdma, Storm, Timeline};
    use WorkloadKind::{Gups, RandomGraph, SeqScan, XsBench};
    let storms = |systems: Vec<SystemConfig>| named(systems.into_iter().map(no_prefetch).collect(), Storm);
    // One system's fig05 pair: fault-in only, then with eviction.
    let fault_in = |only: &'static str, evict: &'static str, system: SystemConfig| {
        let system = no_prefetch(system);
        [Line { label: only, system: system.clone(), workload: FaultOnly }, Line { label: evict, system, workload: Storm }]
    };
    let seqscan = app(48, 49_152, 4_000, 1_024);
    let memcached = (timed(12, 40_000, 25_000_000), timed(24, 60_000, 20_000_000));
    let metis = app(48, 32_768, 5_000, 0);
    let gups = app(48, 49_152, 60_000, 0);
    let open_loop = timed(48, 200_000, 15_000_000);
    let sequential = SystemConfig { pipelined_eviction: false, name: "MageSeq", ..S::mage_lib() };
    // MAGE-Lib with each built-in eviction policy, labelled by its name.
    let zoo = |workload| lines(EvictionPolicyKind::BUILT_IN.map(|k| (k.name(), S::mage_lib().with_eviction_policy(k))).to_vec(), workload);
    let zoo_size = app(4, 8_192, 2_048, 512);
    vec![
        spec("fig01", "GapBS pagerank throughput vs far-memory % (48 threads), normalized to each system's all-local run",
            far_pct(&[0, 10, 20, 30, 40, 50, 60, 70, 80, 90]),
            named(vec![S::ideal(), S::mage_lib(), S::mage_lnx(), S::dilos(), S::hermit()], App(RandomGraph)), PCT)
            .sizes(APP, APP).relative(),
        spec("fig03", "GapBS & XSBench: ideal vs Hermit (48T), relative throughput %",
            far_pct(&[0, 10, 20, 30, 50, 70, 90]),
            [lines(vec![("gapbs_ideal", S::ideal()), ("gapbs_hermit", S::hermit())], App(RandomGraph)),
             lines(vec![("xsbench_ideal", S::ideal()), ("xsbench_hermit", S::hermit())], App(XsBench))].into_iter().flatten().collect(), PCT)
            .sizes(APP, APP).relative(),
        // §3.1's low-thread-count note; its 48-thread cells are fig03's runs.
        spec("fig03_4threads", "Hermit degradation at 10% offloading: 48 vs 4 threads",
            threads(&[48, 4]),
            [lines(vec![("gapbs", S::hermit())], App(RandomGraph)),
             lines(vec![("xsbench", S::hermit())], App(XsBench))].into_iter().flatten().collect(),
            &[Column("hermit_drop_pct", |c| f2(100.0 - c.pct()))])
            .sizes(APP, APP).relative().at(1.0 - 10.0 / 100.0).layout(Layout::Long("workload")),
        spec("fig04", "Sequential scan (48T): Hermit/DiLOS with and without prefetch, % of all-local",
            far_pct(&[0, 10, 20, 30, 50, 70]),
            lines(vec![("ideal", S::ideal()), ("hermit", no_prefetch(S::hermit())), ("hermit_prefetch", S::hermit()),
                       ("dilos", no_prefetch(S::dilos())), ("dilos_prefetch", S::dilos())], App(SeqScan)), PCT)
            .sizes(APP_REDUCED, seqscan).relative(),
        // 64–256 threads extend past the testbed (EXPERIMENTS.md "Scale sweep").
        spec("fig05", "Fault-in throughput (M ops/s) vs threads: fault-in only / with eviction",
            threads(&[1, 2, 4, 8, 16, 24, 28, 32, 40, 48, 64, 128, 256]),
            [fault_in("hermit_fault_only", "hermit_with_evict", S::hermit()),
             fault_in("dilos_fault_only", "dilos_with_evict", S::dilos()),
             fault_in("magelib_fault_only", "magelib_with_evict", S::mage_lib())].into_iter().flatten().collect(),
            &[Column("", |c| f2(c.s.r().fault_mops()))])
            .sizes(STORM_REDUCED, STORM).at(0.5),
        spec("fig06", "Per-fault latency breakdown (us): seq read with eviction",
            threads(&[24, 48]), storms(vec![S::hermit(), S::dilos()]), BREAKDOWN)
            .sizes(STORM, STORM).at(0.5).layout(Layout::Long("system")),
        spec("fig07", "TLB shootdown and IPI delivery latency (us) vs application threads",
            threads(&[1, 2, 4, 8, 16, 24, 28, 32, 40, 48]),
            lines(vec![("hermit", no_prefetch(S::hermit())), ("dilos", no_prefetch(S::dilos()))], Storm),
            &[Column("shootdown", |c| us(c.s.r().window.shootdown_latency.mean())),
              Column("ipi", |c| us(c.s.r().window.ipi_latency.mean()))])
            .sizes(STORM_REDUCED, STORM).at(0.5),
        spec("fig09_gapbs", "GapBS pagerank throughput vs local memory (48T), % of all-local",
            local_pct(&[100, 90, 80, 70, 60, 50, 40, 30, 20, 10]), named(four(), App(RandomGraph)), PCT)
            .relative(),
        spec("fig09_xsbench", "XSBench throughput vs local memory (48T), % of all-local",
            local_pct(&[100, 90, 80, 70, 60, 50, 40, 30, 20, 10]), named(four(), App(XsBench)), PCT)
            .relative(),
        spec("fig10", "Sequential scan (48T): MAGE-Lib +/- prefetch vs others, % of all-local",
            far_pct(&[0, 10, 20, 30, 50]),
            lines(vec![("ideal", S::ideal()), ("magelib", no_prefetch(S::mage_lib())),
                       ("magelib_prefetch", S::mage_lib().with_prefetch()), ("dilos_prefetch", S::dilos()),
                       ("hermit_prefetch", S::hermit())], App(SeqScan)), PCT)
            .sizes(APP_REDUCED, seqscan).relative(),
        spec("fig11", "GUPS ops per 0.5 ms bucket; phase change at 5 ms (85% local, 48T)",
            single(), named(four(), Timeline), &[])
            .sizes(gups, gups).at(0.85).layout(Layout::Buckets),
        spec("fig12_map", "Metis map phase throughput (M ops/s), 48T",
            local_pct(&[100, 80, 60, 40, 20]), named(four(), Metis), &[Column("", |c| f2(c.s.phase_mops()[0]))])
            .sizes(metis, metis),
        spec("fig12_reduce", "Metis reduce phase throughput (M ops/s), 48T",
            local_pct(&[100, 80, 60, 40, 20]), named(four(), Metis), &[Column("", |c| f2(c.s.phase_mops()[1]))])
            .sizes(metis, metis),
        Spec { load: 0.8, ..spec("fig13a", "Memcached p99 (us) vs local-memory % at fixed 0.8 M ops/s load (24 workers)",
            local_pct(&[100, 80, 60, 50, 40, 30, 20]), named(four(), Memcached), &[P99])
            .sizes(memcached.0, memcached.1) },
        // "(sat)": the system saturated below the offered load.
        spec("fig13b", "Memcached p99 (us) vs offered load (M ops/s) at 50% local memory",
            load("load_mops", &[0.2, 0.4, 0.8, 1.2, 1.6, 2.0, 2.4]), named(four(), Memcached),
            &[Column("", |c| match c.s.achieved_mops() < c.run.load * 0.9 {
                true => format!("{} (sat)", f1(c.s.p99_us())),
                false => f1(c.s.p99_us()),
            })])
            .sizes(memcached.0, memcached.1).at(0.5),
        spec("fig14", "Seq-read fault storm, 30% local, 48T: bandwidth, latency, sync evictions",
            single(), storms(four()),
            &[Column("read_gbps", |c| f1(c.s.r().read_gbps())),
              Column("fault_mops", |c| f2(c.s.r().fault_mops())),
              Column("p50_us", |c| us(c.s.r().window.fault_latency.p50() as f64)),
              Column("p99_us", |c| f1(c.s.p99_us())),
              Column("sync_evictions", |c| c.s.r().sync_evictions.to_string()),
              Column("evict_cancels", |c| c.s.r().window.evict_cancels.to_string())])
            .sizes(STORM, STORM).at(0.3).layout(Layout::Long("system")),
        spec("fig15", "Open-loop fault path: offered vs achieved (M ops/s) and p99 (us)",
            load("offered_mops", &[1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0]),
            [lines(vec![("magelib", no_prefetch(S::mage_lib())), ("dilos", no_prefetch(S::dilos())),
                        ("hermit", no_prefetch(S::hermit()))], OpenLoop),
             lines(vec![("rawrdma", S::mage_lib())], RawRdma)].into_iter().flatten().collect(),
            &[Column("ach", |c| f2(c.s.achieved_mops())), Column("p99", |c| f1(c.s.p99_us()))])
            .sizes(open_loop, open_loop).at(0.3),
        spec("fig16", "Per-fault latency breakdown (us): DiLOS vs MAGE variants",
            threads(&[24, 48]), storms(vec![S::dilos(), S::mage_lib(), S::mage_lnx()]), BREAKDOWN)
            .sizes(STORM, STORM).at(0.5).layout(Layout::Long("system")),
        spec("fig17_gapbs", "Ablation on GapBS (48T), % of each step's all-local throughput",
            local_pct(&[100, 90, 80, 70, 60, 50]), lines(ablation_steps(), App(RandomGraph)), PCT)
            .relative(),
        spec("fig17_xsbench", "Ablation on XSBench (48T), % of each step's all-local throughput",
            local_pct(&[100, 90, 80, 70, 60, 50]), lines(ablation_steps(), App(XsBench)), PCT)
            .relative(),
        spec("fig18a", "GapBS throughput (M ops/s) vs eviction batch size, 50% local, 48T",
            sweep("batch", &[16, 32, 64, 128, 256, 512], |b: usize| b.to_string(), Knob::Batch),
            lines(vec![("pipelined", S::mage_lib()), ("non_pipelined", sequential)], App(RandomGraph)), MOPS)
            .sizes(app(32, 32_768, 3_000, 1_000), APP).at(0.5),
        spec("fig18b", "GapBS throughput (M ops/s) at 4 threads vs local memory",
            local_pct(&[100, 90, 70, 50, 30, 10]), named(four(), App(RandomGraph)), MOPS)
            .sizes(app(4, 32_768, 4_000, 0), app(4, 49_152, 12_000, 3_000)),
        spec("tab02", "All-local throughput (M ops/s) and % vs the best system",
            sweep("workload", &[("gapbs", RandomGraph), ("xsbench", XsBench), ("seqscan_prefetch", SeqScan),
                                ("gups", Gups), ("metis", WorkloadKind::Metis)],
                  |(name, _)| name.to_string(), |(_, kind)| Knob::Kind(kind)),
            named(four(), App(RandomGraph)),
            &[Column("", |c| {
                let best = c.row.iter().map(|s| s.mops()).fold(0.0, f64::max);
                format!("{} ({:+.0}%)", f2(c.s.mops()), 100.0 * (c.s.mops() - best) / best)
            })])
            .sizes(app(16, 32_768, 4_000, 0), app(48, 49_152, 4_000, 1_000)),
        // Beyond the paper's figures: §4.2.2 argues S3-FIFO-class policies
        // need access frequencies a page table cannot provide.
        spec("ext_replacement", "Replacement policies on MAGE-Lib: GapBS 48T, 40% offloaded",
            single(), lines(replacement_policies(), App(RandomGraph)),
            &[Column("mops", |c| f2(c.s.mops())),
              Column("major_faults", |c| c.s.r().major_faults.to_string()),
              Column("evict_cancels", |c| c.s.r().window.evict_cancels.to_string())])
            .sizes(APP, APP).at(0.6).layout(Layout::Long("policy")),
        spec("ext_policies_gups", "Policy zoo on MAGE-Lib: GUPS 4T vs local memory",
            local_pct(&[20, 50, 80]), zoo(App(Gups)), ZOO)
            .sizes(zoo_size, zoo_size).layout(Layout::Long("policy")),
        spec("ext_policies_pagerank", "Policy zoo on MAGE-Lib: GapBS pagerank 4T vs local memory",
            local_pct(&[20, 50, 80]), zoo(App(RandomGraph)), ZOO)
            .sizes(zoo_size, zoo_size).layout(Layout::Long("policy")),
    ]
}

/// Runs specs at one scale, each distinct run once.
pub struct Lab {
    scale: Scale,
    seed: Option<u64>,
    specs: Vec<Spec>,
    samples: BTreeMap<String, Sample>,
}

fn find<'a>(specs: &'a [Spec], id: &str) -> &'a Spec {
    specs
        .iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("no spec {id}"))
}

fn sample<'a>(samples: &'a mut BTreeMap<String, Sample>, run: &Run) -> &'a Sample {
    samples
        .entry(format!("{run:?}"))
        .or_insert_with(|| run.execute())
}

impl Lab {
    /// A lab over every spec at `scale`; `seed` overrides every run's
    /// seed (by default batch and memcached runs use 42, open-loop runs 7).
    pub fn new(scale: Scale, seed: Option<u64>) -> Self {
        Lab {
            scale,
            seed,
            specs: specs(),
            samples: BTreeMap::new(),
        }
    }

    /// Ids of every spec, in paper order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.id).collect()
    }

    /// The sample of `spec`'s cell at point `point` on line `line`,
    /// after `tweak` has adjusted its run.
    fn variant(&mut self, id: &str, point: &str, line: &str, tweak: fn(&mut Run)) -> &Sample {
        let spec = find(&self.specs, id);
        let knob = spec.axis.points.iter().find(|(l, _)| l == point);
        let found = spec.lines.iter().find(|l| l.label == line);
        let (Some(&(_, knob)), Some(found)) = (knob, found) else {
            panic!("spec {id} has no cell at point {point:?} on line {line:?}")
        };
        let mut run = spec.run(knob, found, self.scale, self.seed);
        tweak(&mut run);
        sample(&mut self.samples, &run)
    }

    fn cell(&mut self, spec: &str, point: &str, line: &str) -> &Sample {
        self.variant(spec, point, line, |_| {})
    }

    /// Runs spec `id` and renders it as CSV: a `# id: title` line, the
    /// header, then the rows.
    pub fn csv(&mut self, id: &str) -> String {
        let spec = find(&self.specs, id);
        let points = &spec.axis.points;
        let runs: Vec<Vec<Run>> = points
            .iter()
            .map(|&(_, knob)| {
                spec.lines
                    .iter()
                    .map(|l| spec.run(knob, l, self.scale, self.seed))
                    .collect()
            })
            .collect();
        let all_local = |run: &Run| Run {
            local: 1.0,
            ..run.clone()
        };
        for run in runs.iter().flatten() {
            sample(&mut self.samples, run);
            if spec.relative {
                sample(&mut self.samples, &all_local(run));
            }
        }
        let get = |run: &Run| &self.samples[&format!("{run:?}")];
        let text = |p: usize, l: usize| -> Vec<String> {
            let run = &runs[p][l];
            let cell = Cell {
                run,
                s: get(run),
                base: spec.relative.then(|| get(&all_local(run))),
                row: runs[p].iter().map(get).collect(),
            };
            spec.columns.iter().map(|c| (c.1)(&cell)).collect()
        };
        let mut rows = Vec::new();
        match spec.layout {
            Layout::Wide => {
                for (p, (label, _)) in points.iter().enumerate() {
                    let mut row = vec![label.clone()];
                    (0..spec.lines.len()).for_each(|l| row.extend(text(p, l)));
                    rows.push(row);
                }
            }
            Layout::Long(_) => {
                for (l, line) in spec.lines.iter().enumerate() {
                    for (p, (label, _)) in points.iter().enumerate() {
                        let mut row = vec![line.label.to_string()];
                        if !spec.axis.name.is_empty() {
                            row.push(label.clone());
                        }
                        row.extend(text(p, l));
                        rows.push(row);
                    }
                }
            }
            Layout::Buckets => {
                let timelines: Vec<&[(u64, u64)]> = runs[0]
                    .iter()
                    .map(|r| get(r).r().timeline.as_slice())
                    .collect();
                for b in 0..timelines.iter().map(|t| t.len()).max().unwrap_or(0) {
                    let mut row = vec![(b + 1).to_string()];
                    row.extend(
                        timelines
                            .iter()
                            .map(|t| t.get(b).map_or_else(|| "-".into(), |&(_, o)| o.to_string())),
                    );
                    rows.push(row);
                }
            }
        }
        let mut csv = format!("# {id}: {}\n", spec.title);
        for row in std::iter::once(spec.header()).chain(rows) {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        csv
    }
}

/// Whether `v` passes `comparison` (`>`, `>=`, `<`, `<=` or `==`
/// against one bound, or `in` the bounds' `[lo, hi)`); `None` for an
/// unknown comparison or the wrong number of bounds.
pub fn passes(comparison: &str, tolerance: &[f64], v: f64) -> Option<bool> {
    Some(match (comparison, tolerance) {
        (">", &[t]) => v > t,
        (">=", &[t]) => v >= t,
        ("<", &[t]) => v < t,
        ("<=", &[t]) => v <= t,
        ("==", &[t]) => v == t,
        ("in", &[lo, hi]) => (lo..hi).contains(&v),
        _ => return None,
    })
}

/// One claim: how its value is measured, the paper's value and the
/// check the value must pass.
pub struct Claim {
    /// Row id: the spec id, then what is measured.
    pub id: &'static str,
    figure: &'static str,
    paper: Option<f64>,
    /// The comparison and tolerance the value must pass ([`passes`]).
    check: (&'static str, &'static [f64]),
    measure: fn(&mut Lab) -> f64,
}

fn claim(
    id: &'static str,
    figure: &'static str,
    paper: Option<f64>,
    check: (&'static str, &'static [f64]),
    measure: fn(&mut Lab) -> f64,
) -> Claim {
    Claim {
        id,
        figure,
        paper,
        check,
        measure,
    }
}

fn mops(lab: &mut Lab, spec: &str, point: &str, line: &str) -> f64 {
    lab.cell(spec, point, line).mops()
}

/// Throughput of cell `a` over cell `b` of one spec; each is a
/// `(point, line)` pair.
fn ratio(lab: &mut Lab, spec: &str, a: (&str, &str), b: (&str, &str)) -> f64 {
    mops(lab, spec, a.0, a.1) / mops(lab, spec, b.0, b.1)
}

/// Throughput as a percentage of the same line's all-local run.
fn pct(lab: &mut Lab, spec: &str, point: &str, line: &str) -> f64 {
    let base = lab.variant(spec, point, line, |r| r.local = 1.0).mops();
    100.0 * mops(lab, spec, point, line) / base
}

/// Reduce-phase throughput at `point` over the all-local point's.
fn reduce_kept(lab: &mut Lab, point: &str, line: &str) -> f64 {
    let base = lab.cell("fig12_reduce", "100", line).phase_mops()[1];
    lab.cell("fig12_reduce", point, line).phase_mops()[1] / base
}

fn readahead(run: &mut Run) {
    run.system.prefetch = PrefetchPolicy::Readahead;
}

/// Fig. 11: ms from the shift to the first bucket back at half the
/// pre-shift rate (to the run's end if none is).
fn recovery_ms(lab: &mut Lab, line: &str) -> f64 {
    let timeline = &lab.cell("fig11", "", line).r().timeline;
    let pre: Vec<u64> = timeline
        .iter()
        .filter(|(t, _)| *t <= PHASE_AT_NS)
        .map(|&(_, o)| o)
        .collect();
    let pre_avg = pre.iter().sum::<u64>() / pre.len().max(1) as u64;
    let end = timeline.last().map_or(PHASE_AT_NS, |&(t, _)| t);
    let back = timeline
        .iter()
        .find(|(t, o)| *t > PHASE_AT_NS + BUCKET_NS && *o * 2 >= pre_avg);
    (back.map_or(end, |&(t, _)| t) - PHASE_AT_NS) as f64 / 1e6
}

/// The policy zoo's (spec, point) groups.
fn zoo_groups() -> impl Iterator<Item = (&'static str, &'static str)> {
    ["ext_policies_gups", "ext_policies_pagerank"]
        .into_iter()
        .flat_map(|spec| ["20", "50", "80"].map(|point| (spec, point)))
}

fn re_fault_rate(lab: &mut Lab, spec: &str, point: &str, kind: EvictionPolicyKind) -> f64 {
    lab.cell(spec, point, kind.name()).r().re_fault_rate()
}

/// Groups where S3-FIFO's re-fault rate is strictly below every other
/// policy's: a tie is not a win.
fn s3fifo_refault_wins(lab: &mut Lab) -> f64 {
    let mut wins = 0;
    for (spec, point) in zoo_groups() {
        let s3 = re_fault_rate(lab, spec, point, EvictionPolicyKind::S3Fifo);
        let mut others = EvictionPolicyKind::BUILT_IN
            .into_iter()
            .filter(|k| !matches!(k, EvictionPolicyKind::S3Fifo));
        if others.all(|k| s3 < re_fault_rate(lab, spec, point, k)) {
            wins += 1;
        }
    }
    wins as f64
}

/// `kind`'s mean re-fault rate over the zoo's six cells, over second
/// chance's.
fn refault_over_second_chance(lab: &mut Lab, kind: EvictionPolicyKind) -> f64 {
    let mut sum = |kind| {
        zoo_groups()
            .map(|(spec, point)| re_fault_rate(lab, spec, point, kind))
            .sum::<f64>()
    };
    sum(kind) / sum(EvictionPolicyKind::SecondChance)
}

/// Every claim `BENCH_paper.json` records, in paper order. A claim that
/// does not hold is a known deviation (DESIGN.md §7).
#[rustfmt::skip] // one claim per two lines, laid out as a table
pub fn claims() -> Vec<Claim> {
    vec![
        // % of all-local throughput at 10% far memory.
        claim("fig01_hermit_pct_at_10_far", "Fig. 1", Some(25.0), ("<", &[50.0]), |lab| pct(lab, "fig01", "10", "Hermit")),
        claim("fig01_magelib_pct_at_10_far", "Fig. 1", Some(83.0), (">", &[50.0]), |lab| pct(lab, "fig01", "10", "MageLib")),
        claim("fig01_ideal_pct_at_10_far", "Fig. 1", Some(90.0), (">", &[50.0]), |lab| pct(lab, "fig01", "10", "Ideal")),
        // Hermit's drop at 10% offload, 48 threads over 4.
        claim("fig03_gapbs_hermit_drop_48t_over_4t", "Fig. 3", Some(73.0 / 35.0), (">", &[1.0]),
            |lab| (100.0 - pct(lab, "fig03_4threads", "48", "gapbs")) / (100.0 - pct(lab, "fig03_4threads", "4", "gapbs"))),
        claim("fig03_xsbench_hermit_drop_48t_over_4t", "Fig. 3", Some(69.0 / 19.0), (">", &[1.0]),
            |lab| (100.0 - pct(lab, "fig03_4threads", "48", "xsbench")) / (100.0 - pct(lab, "fig03_4threads", "4", "xsbench"))),
        // The paper cuts 27–44% of the baselines' faults with readahead.
        claim("fig04_hermit_prefetch_fault_ratio", "Fig. 4", Some(1.0 - 0.355), ("<", &[1.0]),
            |lab| lab.cell("fig04", "10", "hermit_prefetch").r().major_faults as f64
                / lab.cell("fig04", "10", "hermit").r().major_faults as f64),
        claim("fig04_hermit_prefetch_gain", "Fig. 4", None, ("<", &[1.15]),
            |lab| ratio(lab, "fig04", ("10", "hermit_prefetch"), ("10", "hermit"))),
        // Hermit with its readahead on, as in the paper's baselines.
        claim("fig05_hermit_evict_over_fault_only", "Fig. 5", Some(14.0 / 20.0), ("<", &[0.85]),
            |lab| lab.variant("fig05", "24", "hermit_with_evict", readahead).r().fault_mops()
                / lab.variant("fig05", "24", "hermit_fault_only", readahead).r().fault_mops()),
        claim("fig06_hermit_rdma_share_48t", "Fig. 6", None, ("<", &[0.5]),
            |lab| { let b = lab.cell("fig06", "48", "Hermit").breakdown(); b.rdma / b.total() }),
        claim("fig07_dilos_shootdown_48t_over_4t", "Fig. 7", None, (">", &[2.0]),
            |lab| lab.variant("fig07", "48", "dilos", readahead).r().window.shootdown_latency.mean()
                / lab.variant("fig07", "4", "dilos", readahead).r().window.shootdown_latency.mean()),
        claim("fig09_magelib_over_dilos", "Fig. 9", None, (">", &[1.2]),
            |lab| ratio(lab, "fig09_gapbs", ("50", "MageLib"), ("50", "DiLOS"))),
        claim("fig09_magelib_over_hermit", "Fig. 9", None, (">", &[1.2]),
            |lab| ratio(lab, "fig09_gapbs", ("50", "MageLib"), ("50", "Hermit"))),
        claim("fig09_magelnx_over_dilos", "Fig. 9", None, (">", &[1.0]),
            |lab| ratio(lab, "fig09_gapbs", ("50", "MageLnx"), ("50", "DiLOS"))),
        claim("fig10_magelib_prefetch_gain", "Fig. 10", None, (">", &[1.0]),
            |lab| ratio(lab, "fig10", ("10", "magelib_prefetch"), ("10", "magelib"))),
        claim("fig10_magelib_prefetches", "Fig. 10", None, (">", &[0.0]),
            |lab| lab.cell("fig10", "10", "magelib_prefetch").r().window.prefetches as f64),
        claim("fig11_magelib_recovery_ms", "Fig. 11", None, ("<", &[5.0]), |lab| recovery_ms(lab, "MageLib")),
        claim("fig11_hermit_recovery_ms", "Fig. 11", None, (">", &[10.0]), |lab| recovery_ms(lab, "Hermit")),
        // Share of all-local reduce throughput kept, MAGE-Lib over Hermit.
        claim("fig12_reduce_magelib_over_hermit_at_80", "Fig. 12", Some(0.86 / 0.39), (">", &[1.0]),
            |lab| reduce_kept(lab, "80", "MageLib") / reduce_kept(lab, "80", "Hermit")),
        claim("fig12_reduce_magelib_over_hermit_at_40", "Fig. 12", None, (">", &[1.0]),
            |lab| reduce_kept(lab, "40", "MageLib") / reduce_kept(lab, "40", "Hermit")),
        claim("fig13_magelib_p99_over_hermit", "Fig. 13", None, ("<", &[1.0]),
            |lab| lab.variant("fig13a", "40", "MageLib", |r| r.load = 0.6).p99_us()
                / lab.variant("fig13a", "40", "Hermit", |r| r.load = 0.6).p99_us()),
        claim("fig14_magelib_over_dilos_gbps", "Fig. 14", Some(3.1), (">", &[1.5]),
            |lab| lab.cell("fig14", "", "MageLib").r().read_gbps() / lab.cell("fig14", "", "DiLOS").r().read_gbps()),
        claim("fig14_magelib_over_hermit_gbps", "Fig. 14", Some(7.1), (">", &[3.0]),
            |lab| lab.cell("fig14", "", "MageLib").r().read_gbps() / lab.cell("fig14", "", "Hermit").r().read_gbps()),
        claim("fig14_magelib_sync_evictions", "Fig. 14", Some(0.0), ("==", &[0.0]),
            |lab| lab.cell("fig14", "", "MageLib").r().sync_evictions as f64),
        claim("fig15_magelib_p99_over_dilos_at_3", "Fig. 15", None, ("<", &[1.0]),
            |lab| lab.cell("fig15", "3.0", "magelib").p99_us() / lab.cell("fig15", "3.0", "dilos").p99_us()),
        claim("fig15_magelib_p99_us_at_3", "Fig. 15", None, ("<", &[50.0]), |lab| lab.cell("fig15", "3.0", "magelib").p99_us()),
        claim("fig16_magelib_tlb_us_48t", "Fig. 16", Some(0.0), ("==", &[0.0]),
            |lab| lab.cell("fig16", "48", "MageLib").breakdown().tlb / 1e3),
        claim("fig17_full_over_baseline", "Fig. 17", None, (">", &[1.0]),
            |lab| ratio(lab, "fig17_gapbs", ("60", "+MultiLayer"), ("60", "Baseline"))),
        claim("fig17_multilayer_over_partitioned", "Fig. 17", None, (">=", &[0.95]),
            |lab| ratio(lab, "fig17_gapbs", ("60", "+MultiLayer"), ("60", "+LRUpart"))),
        claim("fig17_partitioned_over_pipelined", "Fig. 17", None, (">", &[1.0]),
            |lab| ratio(lab, "fig17_gapbs", ("60", "+LRUpart"), ("60", "+Pipelined"))),
        claim("fig18a_pipelined_256_over_32", "Fig. 18a", None, (">", &[1.0]),
            |lab| ratio(lab, "fig18a", ("256", "pipelined"), ("32", "pipelined"))),
        claim("fig18a_pipelined_over_sequential_at_64", "Fig. 18a", None, (">", &[1.0]),
            |lab| ratio(lab, "fig18a", ("64", "pipelined"), ("64", "non_pipelined"))),
        claim("fig18a_sequential_512_over_16", "Fig. 18a", None, ("<=", &[1.0]),
            |lab| ratio(lab, "fig18a", ("512", "non_pipelined"), ("16", "non_pipelined"))),
        claim("fig18b_magelib_over_dilos_at_70", "Fig. 18b", None, ("in", &[0.85, 1.6]),
            |lab| ratio(lab, "fig18b", ("70", "MageLib"), ("70", "DiLOS"))),
        claim("tab02_hermit_over_magelib_xsbench", "Table 2", None, (">", &[1.0]),
            |lab| ratio(lab, "tab02", ("xsbench", "Hermit"), ("xsbench", "MageLib"))),
        claim("tab02_magelib_penalty_xsbench", "Table 2", None, ("<", &[0.15]),
            |lab| 1.0 - ratio(lab, "tab02", ("xsbench", "MageLib"), ("xsbench", "Hermit"))),
        claim("tab02_major_faults_xsbench", "Table 2", Some(0.0), ("==", &[0.0]),
            |lab| (lab.cell("tab02", "xsbench", "Hermit").r().major_faults
                + lab.cell("tab02", "xsbench", "MageLib").r().major_faults) as f64),
        claim("ext_partlru_over_globallru", "§4.2.2", None, (">", &[1.0]),
            |lab| ratio(lab, "ext_replacement", ("", "PartLru"), ("", "GlobalLru"))),
        claim("ext_policies_s3fifo_refault_wins", "§4.2.2", None, (">", &[0.0]), s3fifo_refault_wins),
        claim("ext_policies_fifo_refault_over_second_chance", "§4.2.2", None, (">", &[1.0]),
            |lab| refault_over_second_chance(lab, EvictionPolicyKind::Fifo)),
        claim("ext_policies_aging_clock_refault_over_second_chance", "§4.2.2", None, ("<", &[1.0]),
            |lab| refault_over_second_chance(lab, EvictionPolicyKind::AgingClock)),
        claim("ext_policies_approx_lru_refault_over_second_chance", "§4.2.2", None, ("<", &[1.0]),
            |lab| refault_over_second_chance(lab, EvictionPolicyKind::ApproxLru)),
        claim("ext_policies_s3fifo_refault_over_second_chance", "§4.2.2", None, ("<", &[1.0]),
            |lab| refault_over_second_chance(lab, EvictionPolicyKind::S3Fifo)),
    ]
}

/// One evaluated claim, as `BENCH_paper.json` records it.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Claim id.
    pub id: String,
    /// The paper's figure or table.
    pub figure: String,
    /// The measured value.
    pub measured: f64,
    /// The paper's value, where it states one.
    pub paper: Option<f64>,
    /// The comparison ([`passes`]).
    pub comparison: String,
    /// The comparison's bounds.
    pub tolerance: Vec<f64>,
    /// Whether the measured value passes the comparison.
    pub holds: bool,
}

/// Measures every claim at reduced scale, with `seed` overriding every
/// run's seed (see [`Lab::new`]).
pub fn run_claims(seed: Option<u64>) -> Vec<Row> {
    let mut lab = Lab::new(Scale::Reduced, seed);
    claims()
        .into_iter()
        .map(|c| {
            let measured = (c.measure)(&mut lab);
            assert!(measured.is_finite(), "{}: measured {measured}", c.id);
            let (comparison, tolerance) = c.check;
            Row {
                id: c.id.to_string(),
                figure: c.figure.to_string(),
                measured,
                paper: c.paper,
                comparison: comparison.to_string(),
                tolerance: tolerance.to_vec(),
                holds: passes(comparison, tolerance, measured).expect("a known comparison"),
            }
        })
        .collect()
}

/// Renders rows as `BENCH_paper.json`. Measured values print in full
/// (shortest round-trip form), so [`validate_report`] rechecks each
/// verdict on exactly the value it was made on.
pub fn render_json(rows: &[Row]) -> String {
    let mut out =
        format!("{{\n  \"schema\": \"{SCHEMA}\",\n  \"scale\": \"reduced\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (paper, ratio) = match r.paper {
            Some(p) if p != 0.0 => (format!("{p:?}"), format!("{:.3}", r.measured / p)),
            Some(p) => (format!("{p:?}"), "null".to_string()),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"figure\": \"{}\", \"measured\": {:?}, \"paper\": {paper}, \"ratio\": {ratio}, \
             \"comparison\": \"{}\", \"tolerance\": {:?}, \"holds\": {}}}{}\n",
            r.id,
            r.figure,
            r.measured,
            r.comparison,
            r.tolerance,
            r.holds,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn number(v: &Value) -> Result<f64, String> {
    match v {
        Value::Number(n) => n.parse().map_err(|_| format!("{n} is not an f64")),
        other => Err(format!("expected a number, found {other:?}")),
    }
}

fn parse_row(r: &Value) -> Result<Row, String> {
    let id = r.str_at("id")?.to_string();
    let tolerance = r
        .array_at("tolerance")?
        .iter()
        .map(number)
        .collect::<Result<Vec<_>, _>>()?;
    let comparison = r.str_at("comparison")?.to_string();
    let measured = r.f64_at("measured")?;
    let holds = match r.get("holds") {
        Some(Value::Bool(holds)) => *holds,
        _ => return Err(format!("{id}: expected a bool member \"holds\"")),
    };
    match passes(&comparison, &tolerance, measured) {
        None => return Err(format!("{id}: bad comparison {comparison} {tolerance:?}")),
        Some(pass) if pass != holds => {
            return Err(format!(
                "{id}: holds is {holds}, but {measured} {comparison} {tolerance:?} is {pass}"
            ));
        }
        Some(_) => {}
    }
    let paper = match r.get("paper") {
        Some(Value::Null) => None,
        _ => Some(r.f64_at("paper")?),
    };
    Ok(Row {
        figure: r.str_at("figure")?.to_string(),
        id,
        measured,
        paper,
        comparison,
        tolerance,
        holds,
    })
}

/// Parses and checks a `BENCH_paper.json` document: the schema marker,
/// one row per claim in [`claims`] order, and every row's `holds` equal
/// to its comparison evaluated on its measured value.
pub fn validate_report(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    if doc.str_at("schema") != Ok(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let rows = doc
        .array_at("rows")?
        .iter()
        .map(parse_row)
        .collect::<Result<Vec<_>, _>>()?;
    let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
    let expected: Vec<&str> = claims().iter().map(|c| c.id).collect();
    if ids != expected {
        return Err(format!("rows {ids:?} are not the claims {expected:?}"));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_and_claim_ids_are_unique() {
        let specs = Lab::new(Scale::Reduced, None).ids();
        let claims: Vec<&str> = claims().iter().map(|c| c.id).collect();
        for ids in [specs, claims] {
            assert!(
                ids.iter().enumerate().all(|(i, id)| !ids[..i].contains(id)),
                "duplicate in {ids:?}"
            );
        }
    }

    #[test]
    #[should_panic(
        expected = "spec ext_policies_gups has no cell at point \"20\" on line \"s3fifo\""
    )]
    fn a_missing_cell_is_named() {
        Lab::new(Scale::Reduced, None).cell("ext_policies_gups", "20", "s3fifo");
    }

    #[test]
    fn comparisons_compare_as_named() {
        for (comparison, tolerance, inside, outside) in [
            (">", &[1.2][..], 1.3, 1.2),
            (">=", &[0.95], 0.95, 0.94),
            ("<", &[0.15], 0.1, 0.15),
            ("<=", &[1.0], 1.0, 1.01),
            ("==", &[0.0], 0.0, 1.0),
            ("in", &[0.85, 1.6], 0.85, 1.6),
        ] {
            assert_eq!(
                passes(comparison, tolerance, inside),
                Some(true),
                "{comparison}"
            );
            assert_eq!(
                passes(comparison, tolerance, outside),
                Some(false),
                "{comparison}"
            );
        }
        assert_eq!(passes("in", &[1.0], 1.0), None);
        assert_eq!(passes("~", &[1.0], 1.0), None);
    }
}

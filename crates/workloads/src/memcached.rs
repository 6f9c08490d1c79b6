//! Open-loop Memcached-style latency-critical service (§6.3).
//!
//! Requests arrive Poisson at a configured load, keys follow a
//! Zipf(0.99) popularity distribution over the KV store's pages
//! (Facebook USR: 99.8% GET / 0.2% SET), and each of the (24 in the
//! paper) worker threads serves its own FIFO request queue. The reported
//! metric is the p99 *sojourn* time — queueing plus service plus any
//! page faults taken while touching the key's pages.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use mage::{FarMemory, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::rng::SplitMix64;
use mage_sim::slab::PageMap;
use mage_sim::stats::{Counter, Histogram};
use mage_sim::sync::WaitQueue;
use mage_sim::time::{Nanos, SimTime};
use mage_sim::Simulation;

use crate::patterns::Zipf;
use crate::runner::testbed;

/// Configuration of a Memcached latency experiment.
#[derive(Clone)]
pub struct MemcachedConfig {
    /// System under test.
    pub system: SystemConfig,
    /// Worker threads (the paper uses 24 to stay on one socket).
    pub workers: usize,
    /// KV-store size in pages.
    pub data_pages: u64,
    /// Fraction of the store resident locally.
    pub local_ratio: f64,
    /// Offered load in M ops/s.
    pub load_mops: f64,
    /// Run duration in virtual ns.
    pub duration_ns: Nanos,
    /// GET fraction (0.998 for Facebook USR).
    pub get_ratio: f64,
    /// Key-popularity skew.
    pub zipf_theta: f64,
    /// Pure service compute per request, ns.
    pub service_ns: Nanos,
    /// Seed.
    pub seed: u64,
    /// Simulated client connections. Each request is attributed to a
    /// connection (activity is Zipf-skewed, like key popularity — most
    /// connections are mostly idle), and per-connection bookkeeping is
    /// sparse, so millions of simulated connections cost the host only
    /// the connections that were actually active in the window.
    pub connections: u64,
    /// Skip KV-store population: pages zero-fill on first touch, making
    /// setup O(1) so the store can span hundreds of simulated GiB. The
    /// ≥256 GiB scale scenario uses this; classic runs populate eagerly
    /// to model a pre-warmed store.
    pub lazy_populate: bool,
}

impl MemcachedConfig {
    /// The paper's §6.3 setup scaled down.
    pub fn paper(system: SystemConfig, data_pages: u64) -> Self {
        MemcachedConfig {
            system,
            workers: 24,
            data_pages,
            local_ratio: 0.5,
            load_mops: 0.8,
            duration_ns: 50_000_000,
            get_ratio: 0.998,
            zipf_theta: 0.99,
            service_ns: 1_500,
            seed: 42,
            connections: 1_000_000,
            lazy_populate: false,
        }
    }
}

/// Results of a Memcached run.
#[derive(Clone, Debug)]
pub struct MemcachedReport {
    /// Completed requests per second, M ops/s.
    pub achieved_mops: f64,
    /// 99th-percentile sojourn, ns (the paper's SLO metric).
    pub p99_ns: u64,
    /// Major faults taken while serving.
    pub major_faults: u64,
    /// p99 of the major-fault latency itself (excluding queueing).
    pub fault_p99_ns: u64,
    /// Distinct connections that issued at least one request (host
    /// bookkeeping is proportional to this, not to
    /// [`MemcachedConfig::connections`]).
    pub active_connections: u64,
    /// Distinct KV pages requested during the run (host metadata is
    /// proportional to this, not to [`MemcachedConfig::data_pages`]).
    pub touched_pages: u64,
    /// Page-table nodes allocated by the end of the run.
    pub pt_nodes: u64,
    /// Executor task polls the run performed (the deterministic event
    /// count; the scale bench's events/sec numerator).
    pub executor_polls: u64,
    /// Final virtual time of the run, ns.
    pub runtime_ns: u64,
}

struct WorkerQueue {
    requests: RefCell<VecDeque<(SimTime, u64, bool)>>,
    signal: WaitQueue,
}

/// Runs the Memcached experiment.
pub fn run_memcached(cfg: &MemcachedConfig) -> MemcachedReport {
    let sim = Simulation::new();
    let params = testbed(
        Topology::xeon_6348_dual(),
        cfg.workers,
        cfg.data_pages,
        cfg.local_ratio,
        1024,
        Some(&cfg.system),
        cfg.seed,
    );
    let engine = FarMemory::launch(sim.handle(), cfg.system.clone(), params);
    let vma = engine.mmap(cfg.data_pages);
    if cfg.lazy_populate {
        engine.populate_lazy(&vma);
    } else {
        engine.populate(&vma);
    }
    let start = engine.metrics().snapshot();

    let queues: Vec<Rc<WorkerQueue>> = (0..cfg.workers)
        .map(|_| {
            Rc::new(WorkerQueue {
                requests: RefCell::new(VecDeque::new()),
                signal: WaitQueue::new(),
            })
        })
        .collect();
    let sojourn = Rc::new(Histogram::new());
    let completed = Rc::new(Counter::new());
    let stop = Rc::new(std::cell::Cell::new(false));

    // Workers.
    for (w, queue) in queues.iter().enumerate() {
        let engine = Rc::clone(&engine);
        let queue = Rc::clone(queue);
        let sojourn = Rc::clone(&sojourn);
        let completed = Rc::clone(&completed);
        let stop = Rc::clone(&stop);
        let h = sim.handle();
        let base = vma.start_vpn;
        let service = cfg.service_ns;
        sim.spawn(async move {
            let core = CoreId(w as u32);
            loop {
                let next = queue.requests.borrow_mut().pop_front();
                let Some((arrival, page, write)) = next else {
                    if stop.get() {
                        break;
                    }
                    queue.signal.wait().await;
                    continue;
                };
                engine.access(core, base + page, write).await;
                let compute = engine.inflate_compute(service);
                h.sleep(compute).await;
                sojourn.record(h.now().saturating_since(arrival));
                completed.inc();
            }
        });
    }

    // Load generator. Connection attribution and touched-page tracking
    // are sparse PageMaps: the host pays for *active* connections and
    // *requested* pages, so the config can claim millions of connections
    // over a multi-hundred-GiB store without dense bookkeeping.
    let conn_seen: Rc<RefCell<PageMap<u32>>> = Rc::new(RefCell::new(PageMap::new()));
    let page_seen: Rc<RefCell<PageMap<()>>> = Rc::new(RefCell::new(PageMap::new()));
    {
        let h = sim.handle();
        let queues = queues.clone();
        let stop = Rc::clone(&stop);
        let zipf = Zipf::new(cfg.data_pages, cfg.zipf_theta);
        let mean_gap_ns = 1e3 / cfg.load_mops;
        let duration = cfg.duration_ns;
        let get_ratio = cfg.get_ratio;
        let seed = cfg.seed;
        let connections = cfg.connections.max(1);
        let conn_seen = Rc::clone(&conn_seen);
        let page_seen = Rc::clone(&page_seen);
        sim.spawn(async move {
            let rng = SplitMix64::new(seed);
            // Separate stream for connection attribution, so the request
            // schedule (gaps, keys, GET/SET mix) is a function of `seed`
            // alone regardless of the connection-count knob.
            let conn_rng = SplitMix64::new(seed ^ 0xC0_77EC_7104);
            let conn_zipf = (connections > 1).then(|| Zipf::new(connections, 0.99));
            let mut next_worker = 0usize;
            while h.now().as_nanos() < duration {
                let u = rng.next_f64();
                let gap = (-(1.0 - u).ln() * mean_gap_ns).max(1.0) as u64;
                h.sleep(gap).await;
                let page = zipf.sample(&rng);
                let write = rng.next_f64() >= get_ratio;
                // Zipf-ranked connection activity, scattered over the id
                // space so hot connections are not adjacent ids.
                let conn = match &conn_zipf {
                    Some(z) => mage_sim::rng::mix64(z.sample(&conn_rng)) % connections,
                    None => 0,
                };
                *conn_seen.borrow_mut().get_or_insert_with(conn, || 0) += 1;
                page_seen.borrow_mut().get_or_insert_with(page, || ());
                let q = &queues[next_worker];
                next_worker = (next_worker + 1) % queues.len();
                q.requests.borrow_mut().push_back((h.now(), page, write));
                q.signal.wake_one();
            }
            // Drain: let workers exit once their queues are empty.
            stop.set(true);
            for q in &queues {
                q.signal.wake_all();
            }
        });
    }

    let h = sim.handle();
    let drain = cfg.duration_ns + 20_000_000;
    sim.block_on(async move { h.sleep(drain).await });
    engine.shutdown();

    let window = engine.metrics().window_since(&start);
    let active_connections = conn_seen.borrow().len() as u64;
    let touched_pages = page_seen.borrow().len() as u64;
    MemcachedReport {
        achieved_mops: completed.get() as f64 * 1e3 / cfg.duration_ns as f64,
        p99_ns: sojourn.p99(),
        major_faults: window.major_faults,
        fault_p99_ns: window.fault_latency.p99(),
        active_connections,
        touched_pages,
        pt_nodes: engine.page_table().node_count() as u64,
        executor_polls: sim.polls(),
        runtime_ns: sim.handle().now().as_nanos(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(system: SystemConfig, local_ratio: f64, load_mops: f64) -> MemcachedReport {
        let mut cfg = MemcachedConfig::paper(system, 30_000);
        cfg.workers = 8;
        cfg.local_ratio = local_ratio;
        cfg.load_mops = load_mops;
        cfg.duration_ns = 20_000_000;
        run_memcached(&cfg)
    }

    #[test]
    fn all_local_service_is_fast() {
        let r = quick(SystemConfig::mage_lib(), 1.0, 0.3);
        assert_eq!(r.major_faults, 0);
        assert!(r.p99_ns < 20_000, "p99 {}", r.p99_ns);
        assert!(r.achieved_mops > 0.25);
    }

    #[test]
    fn offloading_raises_tail_latency() {
        let local = quick(SystemConfig::mage_lib(), 1.0, 0.3);
        let off = quick(SystemConfig::mage_lib(), 0.4, 0.3);
        assert!(off.major_faults > 0);
        assert!(off.p99_ns > local.p99_ns);
    }

    #[test]
    fn million_connections_over_huge_store_cost_o_touched() {
        // The "millions of users" regime: 1M simulated connections over
        // a 256 GiB (2^26-page) store, lazily populated. The run must
        // complete with host bookkeeping proportional to what was
        // touched — active connections and requested pages — never to
        // the configured capacity.
        let mut cfg = MemcachedConfig::paper(SystemConfig::mage_lib(), 1u64 << 26);
        cfg.workers = 8;
        cfg.connections = 1_000_000;
        cfg.lazy_populate = true;
        cfg.duration_ns = 2_000_000;
        let r = run_memcached(&cfg);
        let requests = (r.achieved_mops * cfg.duration_ns as f64 / 1e3) as u64;
        assert!(requests > 100, "run must actually serve requests");
        assert!(r.active_connections > 0 && r.active_connections <= requests + 1);
        assert!(r.touched_pages > 0 && r.touched_pages <= requests + 1);
        // 5-level paths over a sparse space: < 5 nodes per touched page.
        assert!(
            r.pt_nodes <= 1 + 5 * r.touched_pages,
            "pt nodes {} not O(touched pages {})",
            r.pt_nodes,
            r.touched_pages
        );
    }

    #[test]
    fn mage_tail_beats_hermit_under_pressure() {
        let mage = quick(SystemConfig::mage_lib(), 0.4, 0.5);
        let hermit = quick(SystemConfig::hermit(), 0.4, 0.5);
        assert!(
            mage.p99_ns < hermit.p99_ns,
            "mage p99 {} vs hermit {}",
            mage.p99_ns,
            hermit.p99_ns
        );
    }
}

//! The NIC / link model: full-duplex FIFO serializers with base latency.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mage_sim::executor::Sleep;
use mage_sim::stats::{Counter, Histogram};
use mage_sim::time::{Nanos, SimTime};
use mage_sim::trace::{Tracer, TRACK_NIC};
use mage_sim::SimHandle;

use crate::faults::{FaultInjector, FaultPlan, OpInjection, TransferError};
use crate::node::NodeId;

/// Configuration of a simulated RDMA NIC / link.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Link bandwidth per direction, in bytes per nanosecond.
    /// 200 Gbps ≈ 25 B/ns; the paper measures a 192 Gbps practical ceiling.
    pub bandwidth_bytes_per_ns: f64,
    /// Base one-sided READ latency (wire RTT + NIC processing), ns.
    pub base_read_ns: Nanos,
    /// Base one-sided WRITE (+ACK) latency, ns.
    pub base_write_ns: Nanos,
}

impl NicConfig {
    /// The paper's testbed: 200 Gbps, 3.9 µs one-sided latency (§3.1, §6.1).
    pub fn bluefield2_200g() -> Self {
        NicConfig {
            bandwidth_bytes_per_ns: 24.0, // 192 Gbps practical ceiling (§6.4)
            base_read_ns: 3_900,
            base_write_ns: 3_900,
        }
    }

    /// A fast NVMe SSD used as the swap backend (§8: MAGE's OS-level
    /// optimizations apply to any fast swap backend): ~7 GB/s sequential,
    /// ~10 µs access latency.
    pub fn nvme_ssd() -> Self {
        NicConfig {
            bandwidth_bytes_per_ns: 7.0,
            base_read_ns: 10_000,
            base_write_ns: 12_000,
        }
    }

    /// Compressed-RAM swap (zswap-like): no wire at all — "transfer" is
    /// the compression/decompression cost on the direct path, modeled as
    /// a high-bandwidth, low-latency device.
    pub fn zswap() -> Self {
        NicConfig {
            bandwidth_bytes_per_ns: 12.0,
            base_read_ns: 1_500,
            base_write_ns: 2_500,
        }
    }

    /// Returns the serialization time for `bytes` on one direction.
    pub fn serialize_ns(&self, bytes: u64) -> Nanos {
        (bytes as f64 / self.bandwidth_bytes_per_ns).ceil() as Nanos
    }
}

/// Per-NIC transfer statistics.
#[derive(Default)]
pub struct NicStats {
    /// Completed one-sided reads.
    pub reads: Counter,
    /// Completed one-sided writes.
    pub writes: Counter,
    /// Bytes moved remote→local.
    pub read_bytes: Counter,
    /// Bytes moved local→remote.
    pub write_bytes: Counter,
    /// End-to-end read completion latency (post → completion), ns.
    pub read_latency: Histogram,
    /// End-to-end write completion latency (post → completion), ns.
    pub write_latency: Histogram,
}

struct Direction {
    busy_until: Cell<SimTime>,
}

impl Direction {
    fn new() -> Self {
        Direction {
            busy_until: Cell::new(SimTime::ZERO),
        }
    }

    /// Reserves a serialization slot of `ser` ns starting no earlier than
    /// `now`; returns the slot's end time.
    fn reserve(&self, now: SimTime, ser: Nanos) -> SimTime {
        let start = self.busy_until.get().max(now);
        let end = start + ser;
        self.busy_until.set(end);
        end
    }
}

/// A simulated RDMA NIC connected to a far-memory node.
///
/// # Examples
///
/// ```
/// use mage_sim::Simulation;
/// use mage_fabric::{Nic, NicConfig};
/// use std::rc::Rc;
///
/// let sim = Simulation::new();
/// let nic = Rc::new(Nic::new(sim.handle(), NicConfig::bluefield2_200g()));
/// let n2 = Rc::clone(&nic);
/// let h = sim.handle();
/// let latency = sim.block_on(async move {
///     let t0 = h.now();
///     n2.post_read(4096).await.expect("no faults configured");
///     h.now() - t0
/// });
/// // 3.9 µs base latency + ~171 ns of serialization at 24 B/ns.
/// assert!(latency >= 3_900 && latency < 4_200, "latency {latency}");
/// ```
pub struct Nic {
    sim: SimHandle,
    config: NicConfig,
    /// remote→local direction (read data).
    rx: Direction,
    /// local→remote direction (write data).
    tx: Direction,
    stats: NicStats,
    /// Fault injection, absent on a perfect link (the default): the
    /// clean path never consults the plan, so a `FaultPlan::none()`
    /// schedule is bit-identical to a build without this layer.
    injector: Option<FaultInjector>,
    /// Per-node fault injectors for multi-node fabrics (empty on the
    /// default single-node view). Node-targeted posts consult the node's
    /// own injector; nodes without one fall back to the link injector.
    node_injectors: Vec<Option<FaultInjector>>,
    /// Optional trace collector; `None` (the default) costs one branch
    /// per posted operation.
    tracer: RefCell<Option<Rc<Tracer>>>,
}

impl Nic {
    /// Creates a NIC with the given link configuration and no faults.
    pub fn new(sim: SimHandle, config: NicConfig) -> Self {
        Nic::with_faults(sim, config, FaultPlan::none())
    }

    /// Creates a NIC that executes `plan` against every posted operation.
    /// An inactive plan (all rates zero) is dropped entirely.
    pub fn with_faults(sim: SimHandle, config: NicConfig, plan: FaultPlan) -> Self {
        Nic::with_node_faults(sim, config, plan, Vec::new())
    }

    /// Creates a NIC serving a multi-node fabric: `plan` governs untargeted
    /// posts (and targeted posts at nodes without their own plan), while
    /// `node_plans[i]` governs posts targeted at node `i`. Inactive plans
    /// are dropped, keeping those paths bit-identical to the clean build.
    pub fn with_node_faults(
        sim: SimHandle,
        config: NicConfig,
        plan: FaultPlan,
        node_plans: Vec<FaultPlan>,
    ) -> Self {
        let injector = plan.is_active().then(|| FaultInjector::new(plan, 0));
        let node_injectors = node_plans
            .into_iter()
            .enumerate()
            .map(|(i, p)| p.is_active().then(|| FaultInjector::new(p, 1 + i as u64)))
            .collect();
        Nic {
            sim,
            config,
            rx: Direction::new(),
            tx: Direction::new(),
            stats: NicStats::default(),
            injector,
            node_injectors,
            tracer: RefCell::new(None),
        }
    }

    /// Attaches a tracer: every successful transfer is recorded on
    /// [`TRACK_NIC`] at post time (completion instants are fixed at post,
    /// so the whole interval is known synchronously).
    pub fn attach_tracer(&self, tracer: Rc<Tracer>) {
        *self.tracer.borrow_mut() = Some(tracer);
    }

    /// Transfer statistics.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    fn sample(&self, now: SimTime) -> OpInjection {
        match &self.injector {
            Some(inj) => inj.sample(now),
            None => OpInjection::CLEAN,
        }
    }

    fn sample_node(&self, node: NodeId, now: SimTime) -> OpInjection {
        match self.node_injectors.get(node.index()).and_then(|i| i.as_ref()) {
            Some(inj) => inj.sample(now),
            None => self.sample(now),
        }
    }

    /// Posts a one-sided RDMA read of `bytes`; the returned completion
    /// resolves when the data has fully arrived (or the failure has been
    /// detected, for injected faults).
    pub fn post_read(&self, bytes: u64) -> Completion {
        let now = self.sim.now();
        let inj = self.sample(now);
        self.finish_read(now, bytes, inj, None)
    }

    /// Posts a one-sided RDMA read of `bytes` targeted at `node`: the
    /// node's own fault plan (if any) decides the op's fate and the
    /// completion carries the node id for failover accounting.
    pub fn post_read_to(&self, node: NodeId, bytes: u64) -> Completion {
        let now = self.sim.now();
        let inj = self.sample_node(node, now);
        self.finish_read(now, bytes, inj, Some(node))
    }

    fn finish_read(
        &self,
        now: SimTime,
        bytes: u64,
        inj: OpInjection,
        node: Option<NodeId>,
    ) -> Completion {
        if inj.node_down {
            // No bandwidth consumed: the node never answers and the
            // initiator notices after one base latency.
            let done = now + self.config.base_read_ns;
            return Completion::new(
                self.sim.sleep_until(done),
                now,
                done,
                Err(TransferError::NodeUnreachable),
                node,
            );
        }
        let ser = self.config.serialize_ns(bytes).saturating_mul(inj.ser_factor);
        let slot_end = self.rx.reserve(now, ser);
        let done = slot_end + self.config.base_read_ns + inj.extra_ns;
        let result = match inj.error {
            Some(e) => Err(e),
            None => {
                // Only successful transfers count toward throughput and
                // the latency distribution.
                self.stats.reads.inc();
                self.stats.read_bytes.add(bytes);
                self.stats.read_latency.record(done - now);
                if let Some(t) = self.tracer.borrow().as_ref() {
                    t.record(
                        TRACK_NIC,
                        "nic",
                        "read",
                        now.as_nanos(),
                        done - now,
                        Some(("bytes", bytes)),
                    );
                }
                Ok(())
            }
        };
        Completion::new(self.sim.sleep_until(done), now, done, result, node)
    }

    /// Posts a one-sided RDMA write of `bytes`; the returned completion
    /// resolves when the write is acknowledged (or the failure has been
    /// detected, for injected faults).
    pub fn post_write(&self, bytes: u64) -> Completion {
        let now = self.sim.now();
        let inj = self.sample(now);
        self.finish_write(now, bytes, inj, None)
    }

    /// Posts a one-sided RDMA write of `bytes` targeted at `node` (the
    /// write-side counterpart of [`Nic::post_read_to`]).
    pub fn post_write_to(&self, node: NodeId, bytes: u64) -> Completion {
        let now = self.sim.now();
        let inj = self.sample_node(node, now);
        self.finish_write(now, bytes, inj, Some(node))
    }

    fn finish_write(
        &self,
        now: SimTime,
        bytes: u64,
        inj: OpInjection,
        node: Option<NodeId>,
    ) -> Completion {
        if inj.node_down {
            let done = now + self.config.base_write_ns;
            return Completion::new(
                self.sim.sleep_until(done),
                now,
                done,
                Err(TransferError::NodeUnreachable),
                node,
            );
        }
        let ser = self.config.serialize_ns(bytes).saturating_mul(inj.ser_factor);
        let slot_end = self.tx.reserve(now, ser);
        let done = slot_end + self.config.base_write_ns + inj.extra_ns;
        let result = match inj.error {
            Some(e) => Err(e),
            None => {
                self.stats.writes.inc();
                self.stats.write_bytes.add(bytes);
                self.stats.write_latency.record(done - now);
                if let Some(t) = self.tracer.borrow().as_ref() {
                    t.record(
                        TRACK_NIC,
                        "nic",
                        "write",
                        now.as_nanos(),
                        done - now,
                        Some(("bytes", bytes)),
                    );
                }
                Ok(())
            }
        };
        Completion::new(self.sim.sleep_until(done), now, done, result, node)
    }

    /// Whether `node` is reachable right now. Nodes without a fault plan
    /// (including every node of a single-node fabric) are always up.
    pub fn node_reachable(&self, node: NodeId) -> bool {
        match self.node_injectors.get(node.index()).and_then(|i| i.as_ref()) {
            Some(inj) => !inj.node_down(self.sim.now()),
            None => true,
        }
    }

    /// The per-node fault injector of `node`, if one is configured.
    pub fn node_injector(&self, node: NodeId) -> Option<&FaultInjector> {
        self.node_injectors.get(node.index()).and_then(|i| i.as_ref())
    }

    /// Achieved read bandwidth in Gbps over `elapsed` ns.
    pub fn read_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.stats.read_bytes.get() as f64 * 8.0 / elapsed as f64
    }

    /// Achieved write bandwidth in Gbps over `elapsed` ns.
    pub fn write_gbps(&self, elapsed: Nanos) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.stats.write_bytes.get() as f64 * 8.0 / elapsed as f64
    }
}

/// A pending RDMA completion; awaiting it suspends until the operation's
/// completion time and yields the completion status with the observed
/// latency.
pub struct Completion {
    sleep: Sleep,
    posted: SimTime,
    at: SimTime,
    result: Result<(), TransferError>,
    node: Option<NodeId>,
}

impl Completion {
    fn new(
        sleep: Sleep,
        posted: SimTime,
        at: SimTime,
        result: Result<(), TransferError>,
        node: Option<NodeId>,
    ) -> Self {
        Completion {
            sleep,
            posted,
            at,
            result,
            node,
        }
    }

    /// Builds a completion from an already-decided (instant, status) pair.
    /// Layered backends (mirrored writes, failover reads) use this to merge
    /// several wire completions into one logical completion whose instant
    /// and outcome are fixed at post time, like the NIC's own.
    pub fn compose(
        sim: &SimHandle,
        posted: SimTime,
        at: SimTime,
        result: Result<(), TransferError>,
        node: Option<NodeId>,
    ) -> Self {
        Completion::new(sim.sleep_until(at), posted, at, result, node)
    }

    /// The (already determined) completion instant.
    pub fn completes_at(&self) -> SimTime {
        self.at
    }

    /// The memory node the operation was targeted at, if it was posted
    /// through a node-addressed entry point.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    /// The completion status with post→completion latency, decided at
    /// post time. Readable synchronously — callers that already know the
    /// completion instant has passed (pipelined harvest) use this instead
    /// of awaiting, which keeps the task schedule untouched.
    pub fn outcome(&self) -> Result<Nanos, TransferError> {
        self.result.map(|()| self.at.saturating_since(self.posted))
    }
}

impl std::future::Future for Completion {
    type Output = Result<Nanos, TransferError>;

    fn poll(
        mut self: std::pin::Pin<&mut Self>,
        cx: &mut std::task::Context<'_>,
    ) -> std::task::Poll<Self::Output> {
        // `Sleep` is `Unpin`, so `Completion` is too and re-pinning the
        // field is safe-code-only.
        match std::pin::Pin::new(&mut self.sleep).poll(cx) {
            std::task::Poll::Ready(()) => std::task::Poll::Ready(self.outcome()),
            std::task::Poll::Pending => std::task::Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mage_sim::Simulation;
    use std::rc::Rc;

    fn fast_cfg() -> NicConfig {
        NicConfig {
            bandwidth_bytes_per_ns: 4.0, // 1024 ns per 4 KiB page
            base_read_ns: 1_000,
            base_write_ns: 2_000,
        }
    }

    #[test]
    fn single_read_latency_is_base_plus_serialization() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let h = sim.handle();
        let n = Rc::clone(&nic);
        let lat = sim.block_on(async move {
            let t0 = h.now();
            n.post_read(4096).await.unwrap();
            h.now() - t0
        });
        assert_eq!(lat, 1_000 + 1_024);
    }

    #[test]
    fn reads_serialize_on_shared_link() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let h = sim.handle();
        // Two concurrent reads: the second's data queues behind the first.
        let (n1, n2) = (Rc::clone(&nic), Rc::clone(&nic));
        let h1 = h.clone();
        let j1 = sim.spawn(async move {
            n1.post_read(4096).await.unwrap();
            h1.now().as_nanos()
        });
        let h2 = h.clone();
        let j2 = sim.spawn(async move {
            n2.post_read(4096).await.unwrap();
            h2.now().as_nanos()
        });
        let (t1, t2) = sim.block_on(async move { (j1.await, j2.await) });
        assert_eq!(t1, 2_024);
        assert_eq!(t2, 3_048); // queued one extra serialization slot
    }

    #[test]
    fn reads_and_writes_are_full_duplex() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let (n1, n2) = (Rc::clone(&nic), Rc::clone(&nic));
        let h = sim.handle();
        let h2 = h.clone();
        let jr = sim.spawn(async move {
            n1.post_read(4096).await.unwrap();
            h2.now().as_nanos()
        });
        let h3 = h.clone();
        let jw = sim.spawn(async move {
            n2.post_write(4096).await.unwrap();
            h3.now().as_nanos()
        });
        let (tr, tw) = sim.block_on(async move { (jr.await, jw.await) });
        // No queueing across directions.
        assert_eq!(tr, 2_024);
        assert_eq!(tw, 3_024);
    }

    #[test]
    fn sustained_load_is_bandwidth_limited() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let h = sim.handle();
        let n = Rc::clone(&nic);
        let elapsed = sim.block_on(async move {
            let t0 = h.now();
            // Issue 100 back-to-back page reads.
            let completions: Vec<_> = (0..100).map(|_| n.post_read(4096)).collect();
            for c in completions {
                c.await.unwrap();
            }
            h.now() - t0
        });
        // 100 pages * 1024 ns serialization + one base latency.
        assert_eq!(elapsed, 100 * 1_024 + 1_000);
        assert_eq!(nic.stats().reads.get(), 100);
        assert_eq!(nic.stats().read_bytes.get(), 409_600);
    }

    #[test]
    fn completion_time_is_fixed_at_post() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let h = sim.handle();
        let n = Rc::clone(&nic);
        sim.block_on(async move {
            let c = n.post_write(4096);
            let predicted = c.completes_at();
            h.sleep(10).await; // do other work first
            c.await.unwrap();
            assert_eq!(h.now(), predicted);
        });
    }

    #[test]
    fn back_to_back_reads_queue_on_their_direction() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let n = Rc::clone(&nic);
        sim.block_on(async move {
            let c1 = n.post_read(4096);
            let c2 = n.post_read(4096);
            let w = n.post_write(4096);
            assert_eq!(c1.completes_at().as_nanos(), 1_024 + 1_000);
            assert_eq!(c2.completes_at().as_nanos(), 2 * 1_024 + 1_000);
            // The write direction is empty: no queueing behind the reads.
            assert_eq!(w.completes_at().as_nanos(), 1_024 + 2_000);
        });
    }

    #[test]
    fn gbps_accounting() {
        let sim = Simulation::new();
        let nic = Rc::new(Nic::new(sim.handle(), fast_cfg()));
        let h = sim.handle();
        let n = Rc::clone(&nic);
        sim.block_on(async move {
            let completions: Vec<_> = (0..32).map(|_| n.post_read(4096)).collect();
            for c in completions {
                c.await.unwrap();
            }
            let elapsed = h.now().as_nanos();
            let gbps = n.read_gbps(elapsed);
            // Config is 32 Gbps; with the trailing base latency the
            // achieved figure must be slightly below the ceiling.
            assert!(gbps > 25.0 && gbps < 32.0, "gbps {gbps}");
        });
    }

    #[test]
    fn errored_op_consumes_wire_time_but_not_stats() {
        // error_rate 1.0: every op fails with a CQE error yet still holds
        // its serialization slot (the data crossed the wire; only the
        // completion status is bad).
        let plan = FaultPlan {
            seed: 1,
            error_rate: 1.0,
            ..FaultPlan::none()
        };
        let sim = Simulation::new();
        let nic = Rc::new(Nic::with_faults(sim.handle(), fast_cfg(), plan));
        let n = Rc::clone(&nic);
        let h = sim.handle();
        sim.block_on(async move {
            let c1 = n.post_read(4096);
            let c2 = n.post_read(4096);
            assert_eq!(c2.completes_at() - c1.completes_at(), 1_024);
            assert_eq!(c1.await, Err(TransferError::Cq));
            let err = c2.await.unwrap_err();
            assert_eq!(err, TransferError::Cq);
            assert_eq!(h.now().as_nanos(), 2 * 1_024 + 1_000);
        });
        assert_eq!(nic.stats().reads.get(), 0, "errored ops don't count");
    }

    #[test]
    fn crashed_node_fails_fast_without_bandwidth() {
        let plan = FaultPlan {
            seed: 1,
            crash_period_ns: 1_000_000,
            crash_duration_ns: 1_000_000,
            crash_rate: 1.0,
            ..FaultPlan::none()
        };
        let sim = Simulation::new();
        let nic = Rc::new(Nic::with_faults(sim.handle(), fast_cfg(), plan));
        let n = Rc::clone(&nic);
        let h = sim.handle();
        sim.block_on(async move {
            let c = n.post_write(4096);
            let next = n.post_write(4096);
            assert_eq!(
                next.completes_at(),
                c.completes_at(),
                "no serialization reserved"
            );
            assert_eq!(c.await, Err(TransferError::NodeUnreachable));
            // Detection after exactly one base write latency.
            assert_eq!(h.now().as_nanos(), 2_000);
        });
    }

    #[test]
    fn brownout_stretches_serialization() {
        let plan = FaultPlan {
            seed: 5,
            brownout_period_ns: 1_000_000,
            brownout_duration_ns: 1_000_000,
            brownout_rate: 1.0,
            brownout_bw_div: 4,
            ..FaultPlan::none()
        };
        let sim = Simulation::new();
        let nic = Rc::new(Nic::with_faults(sim.handle(), fast_cfg(), plan));
        let n = Rc::clone(&nic);
        sim.block_on(async move {
            let lat = n.post_read(4096).await.unwrap();
            // 4× the 1 024 ns serialization plus base latency.
            assert_eq!(lat, 4 * 1_024 + 1_000);
        });
    }

    #[test]
    fn node_targeted_posts_use_the_node_plan() {
        // Node 1 is permanently down; node 0 has no plan of its own and
        // untargeted posts stay clean.
        let down = FaultPlan {
            seed: 2,
            crash_period_ns: 1_000_000,
            crash_duration_ns: 1_000_000,
            crash_rate: 1.0,
            ..FaultPlan::none()
        };
        let sim = Simulation::new();
        let nic = Rc::new(Nic::with_node_faults(
            sim.handle(),
            fast_cfg(),
            FaultPlan::none(),
            vec![FaultPlan::none(), down],
        ));
        let n = Rc::clone(&nic);
        sim.block_on(async move {
            assert!(n.node_reachable(NodeId(0)));
            assert!(!n.node_reachable(NodeId(1)));
            let ok = n.post_read_to(NodeId(0), 4096);
            assert_eq!(ok.node(), Some(NodeId(0)));
            ok.await.unwrap();
            let bad = n.post_write_to(NodeId(1), 4096);
            assert_eq!(bad.node(), Some(NodeId(1)));
            assert_eq!(bad.await, Err(TransferError::NodeUnreachable));
            n.post_read(4096).await.unwrap();
        });
        assert_eq!(nic.stats().reads.get(), 2);
        assert_eq!(nic.stats().writes.get(), 0);
    }

    #[test]
    fn composed_completions_behave_like_posted_ones() {
        let sim = Simulation::new();
        let h = sim.handle();
        sim.block_on(async move {
            let at = SimTime::from_nanos(5_000);
            let c = Completion::compose(&h, h.now(), at, Ok(()), Some(NodeId(1)));
            assert_eq!(c.completes_at(), at);
            assert_eq!(c.node(), Some(NodeId(1)));
            assert_eq!(c.outcome(), Ok(5_000));
            assert_eq!(c.await, Ok(5_000));
            assert_eq!(h.now(), at);
        });
    }

    #[test]
    fn zero_fault_nic_has_no_injector() {
        let sim = Simulation::new();
        let nic = Nic::with_faults(sim.handle(), fast_cfg(), FaultPlan::none());
        assert!(nic.injector.is_none());
    }
}

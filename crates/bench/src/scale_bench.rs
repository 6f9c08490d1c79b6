//! The committed scale benchmark behind `BENCH_scale.json`.
//!
//! This harness measures how *big* a machine the simulator can model:
//! each scale point runs a scenario whose nominal capacity (virtual
//! cores, keyspace pages, address-space pages) far exceeds what a dense
//! per-capacity representation could afford, and records what the run
//! produced and what the host paid for it. The metadata gauges are the
//! proof that every per-page and per-core structure is O(touched pages),
//! not O(capacity): a dense regression would blow the `validate_report`
//! bound (or the host) immediately.
//!
//! Scale points:
//!
//! * `fig5_mage_c128` / `fig5_mage_c256` — the Fig-5 fault storm pushed
//!   past the paper testbed's 56 cores onto the scaled dual-socket
//!   geometry (the 256-virtual-core sweep end point).
//! * `memcached_1m_conn_256gib` — one million Zipf-active connections
//!   over a 2^26-page (256 GiB) keyspace, lazily populated.
//! * `sparse_2p40_replicated` — scattered touches over a 2^40-page
//!   (4 PiB) address space through the replicated backend, with a local
//!   cache small enough that evictions exercise replica tracking.
//!
//! The emitted JSON (`schema: mage-bench-scale/v2`) splits each point
//! into a `model` object and a `host` object. The model fields (capacity,
//! touched pages, metadata entries, virtual ns, executor polls) follow
//! from the deterministic schedule, so `tests/committed_reports.rs`
//! checks them against the committed file for exact equality. The host
//! fields (wall ms, peak RSS) are measurements; only peak RSS is checked,
//! against a bound. The `scale` binary runs each point in a child process
//! of its own so that peak RSS belongs to that point alone.

use std::rc::Rc;

use mage::{FarMemory, MachineParams, ReplicationConfig, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::Simulation;
use mage_workloads::memcached::{run_memcached, MemcachedConfig};
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

/// JSON schema marker written to (and expected in) `BENCH_scale.json`.
pub const SCHEMA: &str = "mage-bench-scale/v2";

/// Sparse-metadata slack allowed by [`validate_report`]: entries may be
/// at most this multiple of touched pages (plus [`META_FLOOR`]). The
/// honest per-touch costs are small — ≤ 5 page-table nodes, ≤ 1 replica
/// record, ≤ 2 workload-tracker records — so 16× is generous headroom
/// that still catches any dense O(capacity) regression by orders of
/// magnitude.
pub const META_SLACK: u64 = 16;

/// Fixed metadata floor allowed regardless of touches (root tables,
/// allocator free-list tails, per-core structures).
pub const META_FLOOR: u64 = 4_096;

/// Runs one scale point's scenario.
type PointRun = fn() -> Model;

/// The scale points in report order: id, and the run behind it.
const POINTS: [(&str, PointRun); 4] = [
    ("fig5_mage_c128", || run_fig5_point(128)),
    ("fig5_mage_c256", || run_fig5_point(256)),
    ("memcached_1m_conn_256gib", run_memcached_point),
    ("sparse_2p40_replicated", || run_sparse_point(4_096)),
];

/// The scale points' ids, in report order.
pub fn point_ids() -> impl Iterator<Item = &'static str> {
    POINTS.iter().map(|&(id, _)| id)
}

/// What a scale point's run produced: deterministic, so identical on
/// every host and build.
#[derive(Clone, Debug)]
pub struct Model {
    /// Nominal capacity of the scenario, pages (keyspace or address
    /// space) — what a dense representation would be sized by.
    pub capacity_pages: u64,
    /// Distinct pages the scenario actually touched.
    pub touched_pages: u64,
    /// Sparse-metadata entries alive at the end of the run (page-table
    /// nodes + replica records + workload trackers).
    pub metadata_entries: u64,
    /// Final virtual time of the run, nanoseconds.
    pub virtual_ns: u64,
    /// Executor task polls the run performed.
    pub events: u64,
}

/// One measured scale point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Stable scenario id (one of [`point_ids`]).
    pub id: &'static str,
    /// What the run produced.
    pub model: Model,
    /// Host wall-clock spent inside the run, milliseconds.
    pub wall_ms: f64,
    /// Process peak RSS (VmHWM) sampled after the run, KiB. Run the
    /// point in a fresh process (as the `scale` binary does) for this to
    /// be the point's own peak.
    pub peak_rss_kb: u64,
}

impl ScalePoint {
    /// Renders the point as one `mage-bench-scale/v2` row.
    pub fn to_json(&self) -> String {
        let m = &self.model;
        format!(
            "{{\"id\": \"{}\", \"model\": {{\"capacity_pages\": {}, \"touched_pages\": {}, \"metadata_entries\": {}, \"virtual_ns\": {}, \"events\": {}}}, \"host\": {{\"wall_ms\": {:.3}, \"peak_rss_kb\": {}}}}}",
            self.id,
            m.capacity_pages,
            m.touched_pages,
            m.metadata_entries,
            m.virtual_ns,
            m.events,
            self.wall_ms,
            self.peak_rss_kb,
        )
    }
}

/// Process peak RSS in KiB from `/proc/self/status` (`VmHWM`); 0 where
/// the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Runs the point named `id` in this process; `None` for an unknown id.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "wall_ms is a host gauge recorded next to the model; the clock is read outside the simulation"
)]
pub fn run_point(id: &str) -> Option<ScalePoint> {
    let &(id, run) = POINTS.iter().find(|&&(p, _)| p == id)?;
    let t0 = std::time::Instant::now();
    let model = run();
    Some(ScalePoint {
        id,
        model,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb(),
    })
}

/// One Fig-5-shaped fault storm at `threads` virtual cores on the
/// scaled dual-socket geometry (SeqFault, every page remote).
fn run_fig5_point(threads: usize) -> Model {
    const WSS_PAGES: u64 = 131_072;
    let mut cfg = RunConfig::new(
        SystemConfig::mage_lib(),
        WorkloadKind::SeqFault,
        threads,
        WSS_PAGES,
        1.0,
    );
    cfg.all_remote = true;
    cfg.ops_per_thread = WSS_PAGES / threads as u64;
    cfg.topo = Topology::dual_socket(threads.div_ceil(2) as u32);
    let r = run_batch(&cfg);
    Model {
        capacity_pages: WSS_PAGES,
        touched_pages: WSS_PAGES,
        metadata_entries: r.pt_nodes + r.replica_entries,
        virtual_ns: r.runtime_ns,
        events: r.executor_polls,
    }
}

/// One million connections over a 256 GiB keyspace, lazily populated:
/// the host pays for requested pages and active connections only.
fn run_memcached_point() -> Model {
    let capacity: u64 = 1 << 26; // 2^26 pages = 256 GiB of 4 KiB pages
    let mut cfg = MemcachedConfig::paper(SystemConfig::mage_lib(), capacity);
    cfg.workers = 8;
    cfg.connections = 1_000_000;
    cfg.lazy_populate = true;
    cfg.duration_ns = 20_000_000;
    let r = run_memcached(&cfg);
    Model {
        capacity_pages: capacity,
        touched_pages: r.touched_pages,
        metadata_entries: r.pt_nodes + r.active_connections + r.touched_pages,
        virtual_ns: r.runtime_ns,
        events: r.executor_polls,
    }
}

/// Scattered touches over a 2^40-page VMA through the replicated
/// backend. The local cache is far smaller than the touch count, so
/// evictions stream pages to the backend and the replica table tracks
/// them — all of it O(touched).
fn run_sparse_point(touched: u64) -> Model {
    const SPACE: u64 = 1 << 40; // 4 PiB of 4 KiB pages
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: 1_024,
        remote_pages: SPACE,
        tlb_entries: 1_536,
        seed: 7,
    };
    let engine = FarMemory::launch(
        sim.handle(),
        SystemConfig::mage_lib().with_replication(ReplicationConfig::default()),
        params,
    );
    let vma = engine.mmap(SPACE);
    engine.populate_lazy(&vma);
    let mut joins = Vec::new();
    for t in 0..4u64 {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        let start_vpn = vma.start_vpn;
        joins.push(sim.spawn(async move {
            for i in (t..touched).step_by(4) {
                // Golden-ratio scatter: no two touches share a radix
                // subtree until the space is saturated.
                let vpn = start_vpn + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % SPACE;
                engine.access(CoreId(t as u32), vpn, true).await;
                h.sleep(200).await;
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
    Model {
        capacity_pages: SPACE,
        touched_pages: touched,
        metadata_entries: engine.page_table().node_count() as u64
            + engine.backend().replica_entries(),
        virtual_ns: sim.handle().now().as_nanos(),
        events: sim.polls(),
    }
}

/// Renders a `mage-bench-scale/v2` report from point rows
/// ([`ScalePoint::to_json`]).
pub fn render_json(rows: &[String]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| format!("    {}", r.trim())).collect();
    format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"points\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// One parsed report row: `(id, capacity_pages, touched_pages,
/// metadata_entries)`.
pub type PointRow = (String, u64, u64, u64);

/// Validates an emitted report: a well-formed document with the schema
/// marker, at least one point, a positive event count everywhere, and —
/// the point of the harness — metadata within
/// [`META_SLACK`]·touched + [`META_FLOOR`] at every point. A dense
/// O(capacity) structure anywhere fails this by orders of magnitude
/// (capacity/touched is ≥ 2^14 at every point).
pub fn validate_report(json: &str) -> Result<Vec<PointRow>, String> {
    let doc = mage_sim::json::parse(json)?;
    if doc.str_at("schema") != Ok(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let points = doc.array_at("points")?;
    if points.is_empty() {
        return Err("no scale points found".to_string());
    }
    let mut rows = Vec::with_capacity(points.len());
    for p in points {
        let id = p.str_at("id")?;
        let model = p.get("model").ok_or(format!("point {id} has no model"))?;
        let (cap, touched, meta) = (
            model.u64_at("capacity_pages")?,
            model.u64_at("touched_pages")?,
            model.u64_at("metadata_entries")?,
        );
        if model.u64_at("events")? == 0 {
            return Err(format!("point {id} ran no events"));
        }
        if touched > cap {
            return Err(format!("point {id} touched {touched} > capacity {cap}"));
        }
        let bound = META_SLACK * touched + META_FLOOR;
        if meta > bound {
            return Err(format!(
                "point {id} metadata {meta} exceeds O(touched) bound {bound} \
                 ({touched} touched of {cap} capacity): dense-metadata regression"
            ));
        }
        rows.push((id.to_string(), cap, touched, meta));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_dense_metadata() {
        assert!(validate_report("{}").is_err());
        let dense = ScalePoint {
            id: "x",
            model: Model {
                capacity_pages: 1 << 40,
                touched_pages: 1_000,
                metadata_entries: 1 << 40,
                virtual_ns: 1,
                events: 1,
            },
            wall_ms: 1.0,
            peak_rss_kb: 1,
        };
        let dense = render_json(&[dense.to_json()]);
        let err = validate_report(&dense).expect_err("dense metadata must fail");
        assert!(err.contains("dense-metadata regression"), "{err}");
    }

    #[test]
    fn sparse_point_is_o_touched() {
        let p = run_sparse_point(256);
        assert_eq!(p.capacity_pages, 1 << 40);
        assert!(p.events > 0);
        assert!(
            p.metadata_entries <= META_SLACK * p.touched_pages + META_FLOOR,
            "metadata {} for {} touches",
            p.metadata_entries,
            p.touched_pages
        );
    }
}

//! The committed events/sec benchmark harness behind `BENCH_hotloop.json`.
//!
//! Unlike the figure benches (which report *virtual-time* metrics and
//! are wall-clock agnostic), this harness measures how fast the host
//! executes the simulator itself: discrete events per host second. The
//! event unit is one executor task poll (`Simulation::polls`) — a
//! monotone, schedule-determined count that the determinism goldens pin
//! bit-for-bit, so two builds of the same schedule are directly
//! comparable and only the wall-clock denominator moves.
//!
//! Two scenario families, mirroring the repo's two canonical runs:
//!
//! * `quickstart` — the README quickstart machine (4 threads streaming a
//!   16 K-page region through a 4 K-page local cache).
//! * `fig5_<system>_t<n>[_evict]` — Fig-5-shaped fault storms
//!   (`SeqFault`, all pages remote) across the three modelled systems,
//!   with and without eviction pressure.
//!
//! The emitted JSON (`schema: mage-bench-hotloop/v1`) is hand-rolled —
//! the workspace has no serde — and read back through `mage_sim::json`
//! for the baseline comparison and the smoke test.

use std::rc::Rc;

// Host timing is the entire point of this harness: it measures how fast
// the deterministic simulator runs on the host, never anything inside
// virtual time (scenario schedules stay pinned by the goldens).
// simlint: allow(wall-clock): events/sec needs host wall time; virtual time is the numerator, not the clock
use std::time::Instant;

use mage::{Access, FarMemory, MachineParams, SystemConfig};
use mage_mmu::{CoreId, Topology};
use mage_sim::Simulation;
use mage_workloads::runner::{run_batch, RunConfig};
use mage_workloads::WorkloadKind;

/// JSON schema marker written to (and expected in) `BENCH_hotloop.json`.
pub const SCHEMA: &str = "mage-bench-hotloop/v1";

/// Suite rounds in full mode. The schedule is deterministic, so every
/// round performs the identical event sequence and only the host wall
/// clock varies; each scenario reports its fastest round, the
/// least-noise estimate of the true cost. Nine rounds spread each
/// scenario's samples over several seconds, so multi-second host noise
/// bursts (a shared machine's co-tenants) rarely taint every sample.
/// Quick (smoke) mode runs each scenario once.
pub const FULL_REPEATS: usize = 9;

/// One measured scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario id (used to match against the baseline file).
    pub id: String,
    /// Host wall-clock spent inside the run, milliseconds.
    pub wall_ms: f64,
    /// Final virtual time of the run, nanoseconds.
    pub virtual_ns: u64,
    /// Executor task polls the run performed.
    pub events: u64,
}

impl Scenario {
    /// Discrete events per host second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            return 0.0;
        }
        self.events as f64 * 1e3 / self.wall_ms
    }
}

/// A full harness run: every scenario plus the aggregate.
#[derive(Clone, Debug)]
pub struct HotloopReport {
    /// `quick` runs scaled-down scenarios (smoke tests); `full` is the
    /// committed-trajectory configuration.
    pub mode: &'static str,
    /// Repeats each scenario ran; reported wall times are the best of these.
    pub repeats: usize,
    /// Per-scenario measurements.
    pub scenarios: Vec<Scenario>,
}

impl HotloopReport {
    /// Total events across scenarios.
    pub fn total_events(&self) -> u64 {
        self.scenarios.iter().map(|s| s.events).sum()
    }

    /// Total wall milliseconds across scenarios.
    pub fn total_wall_ms(&self) -> f64 {
        self.scenarios.iter().map(|s| s.wall_ms).sum()
    }

    /// Aggregate events per host second (total events / total wall).
    pub fn events_per_sec(&self) -> f64 {
        let wall = self.total_wall_ms();
        if wall <= 0.0 {
            return 0.0;
        }
        self.total_events() as f64 * 1e3 / wall
    }
}

/// The quickstart machine from `examples/quickstart.rs`, scaled by
/// `region_pages`, measured wall-clock end to end (launch → drain).
fn run_quickstart(region_pages: u64) -> Scenario {
    let t0 = Instant::now();
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 4,
        local_pages: region_pages / 4,
        remote_pages: region_pages * 2,
        tlb_entries: 1_536,
        seed: 1,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let vma = engine.mmap(region_pages);
    engine.populate(&vma);
    let mut joins = Vec::new();
    for t in 0..4u32 {
        let engine = Rc::clone(&engine);
        let h = sim.handle();
        joins.push(sim.spawn(async move {
            let mut faults = 0u64;
            for i in 0..region_pages {
                if i % 4 != t as u64 {
                    continue; // interleaved sharding
                }
                let access = engine.access(CoreId(t), vma.start_vpn + i, false).await;
                if matches!(access, Access::Major { .. }) {
                    faults += 1;
                }
                h.sleep(300).await; // per-page compute
            }
            faults
        }));
    }
    sim.block_on(async move {
        let mut sum = 0u64;
        for j in joins {
            sum += j.await;
        }
        sum
    });
    engine.shutdown();
    sim.run();
    Scenario {
        id: "quickstart".to_string(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virtual_ns: sim.handle().now().as_nanos(),
        events: sim.polls(),
    }
}

/// One Fig-5-shaped fault-storm cell (SeqFault, every page remote).
fn run_fig5_cell(
    id: String,
    system: SystemConfig,
    threads: usize,
    wss_pages: u64,
    with_eviction: bool,
) -> Scenario {
    let local_ratio = if with_eviction { 0.75 } else { 1.0 };
    let mut cfg = RunConfig::new(system, WorkloadKind::SeqFault, threads, wss_pages, local_ratio);
    cfg.all_remote = true;
    cfg.ops_per_thread = wss_pages / threads as u64;
    cfg.topo = Topology::single_socket(32.min(threads as u32 + 8));
    let t0 = Instant::now();
    let report = run_batch(&cfg);
    Scenario {
        id,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        virtual_ns: report.runtime_ns,
        events: report.executor_polls,
    }
}

/// One pass over every scenario.
fn run_suite(quick: bool) -> Vec<Scenario> {
    let (qs_pages, wss, threads): (u64, u64, &[usize]) = if quick {
        (1_024, 2_048, &[2])
    } else {
        (16_384, 24_576, &[8, 24])
    };
    let mut scenarios = vec![run_quickstart(qs_pages)];
    for (name, system) in [
        ("hermit", SystemConfig::hermit()),
        ("dilos", SystemConfig::dilos()),
        ("mage", SystemConfig::mage_lib()),
    ] {
        for &t in threads {
            scenarios.push(run_fig5_cell(
                format!("fig5_{name}_t{t}"),
                system.clone(),
                t,
                wss,
                false,
            ));
        }
    }
    // Eviction-pressure cells: the reclaim pipeline, watermarks and
    // page-waiter wakes join the hot loop.
    for (name, system) in [
        ("hermit", SystemConfig::hermit()),
        ("mage", SystemConfig::mage_lib()),
    ] {
        let t = *threads.last().expect("thread list is non-empty");
        scenarios.push(run_fig5_cell(
            format!("fig5_{name}_t{t}_evict"),
            system.clone(),
            t,
            wss,
            true,
        ));
    }
    scenarios
}

/// Runs the whole harness. `quick` shrinks every scenario (~100× less
/// work) for smoke tests; the committed trajectory uses `quick = false`,
/// which runs the suite [`FULL_REPEATS`] times and keeps each scenario's
/// fastest round. Determinism makes the rounds bit-identical in virtual
/// time (same events, same final virtual clock), so the minimum wall
/// time filters host noise without changing what is measured — and
/// taking it across whole-suite rounds, rather than back-to-back runs
/// of one scenario, spreads each scenario's samples seconds apart so a
/// transient noise burst cannot slow every sample of the same scenario.
pub fn run_hotloop(quick: bool) -> HotloopReport {
    let repeats = if quick { 1 } else { FULL_REPEATS };
    let mut scenarios = run_suite(quick);
    for _ in 1..repeats {
        for (best, s) in scenarios.iter_mut().zip(run_suite(quick)) {
            assert_eq!(s.events, best.events, "rounds must be deterministic");
            if s.wall_ms < best.wall_ms {
                *best = s;
            }
        }
    }
    HotloopReport {
        mode: if quick { "quick" } else { "full" },
        repeats,
        scenarios,
    }
}

/// Renders the report as `mage-bench-hotloop/v1` JSON. When a baseline
/// (read from a previous report via [`validate_report`]) is given,
/// per-scenario speedups and their geometric mean are included.
pub fn render_json(report: &HotloopReport, baseline: Option<(&str, &[(String, f64)])>) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", report.mode));
    out.push_str(&format!("  \"repeats\": {},\n", report.repeats));
    out.push_str("  \"scenarios\": [\n");
    let base_rate = |id: &str| -> Option<f64> {
        baseline
            .and_then(|(_, rows)| rows.iter().find(|(bid, _)| bid == id))
            .map(|&(_, eps)| eps)
            .filter(|&eps| eps > 0.0)
    };
    let mut speedups: Vec<f64> = Vec::new();
    for (i, s) in report.scenarios.iter().enumerate() {
        let mut line = format!(
            "    {{\"id\": \"{}\", \"wall_ms\": {:.3}, \"virtual_ns\": {}, \"events\": {}, \"events_per_sec\": {:.1}",
            s.id,
            s.wall_ms,
            s.virtual_ns,
            s.events,
            s.events_per_sec(),
        );
        if let Some(base) = base_rate(&s.id) {
            let speedup = s.events_per_sec() / base;
            speedups.push(speedup);
            line.push_str(&format!(", \"speedup_vs_baseline\": {speedup:.2}"));
        }
        line.push('}');
        if i + 1 < report.scenarios.len() {
            line.push(',');
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"total\": {{\"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}}}",
        report.total_wall_ms(),
        report.total_events(),
        report.events_per_sec(),
    ));
    if let Some((source, _)) = baseline {
        if !speedups.is_empty() {
            let geomean =
                (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
            out.push_str(&format!(",\n  \"baseline\": \"{source}\""));
            out.push_str(&format!(",\n  \"speedup_geomean\": {geomean:.2}"));
        }
    }
    out.push_str("\n}\n");
    out
}

/// Validates an emitted report: a well-formed document with the schema
/// marker, at least one scenario, and a positive events/sec everywhere.
/// Returns the `(id, events_per_sec)` rows, the baseline input of
/// [`render_json`].
pub fn validate_report(json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = mage_sim::json::parse(json)?;
    if doc.str_at("schema") != Ok(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let rows = doc
        .array_at("scenarios")?
        .iter()
        .map(|s| Ok((s.str_at("id")?.to_string(), s.f64_at("events_per_sec")?)))
        .collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err("no scenarios found".to_string());
    }
    for (id, eps) in &rows {
        if *eps <= 0.0 {
            return Err(format!("scenario {id} has non-positive events/sec {eps}"));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark-harness smoke test: a quick run must emit valid
    /// `mage-bench-hotloop/v1` JSON with events/sec > 0 everywhere, and
    /// the baseline round-trip must produce per-scenario speedups.
    #[test]
    fn quick_report_roundtrips_and_validates() {
        let report = run_hotloop(true);
        assert!(report.scenarios.len() >= 3, "quick mode covers all families");
        let json = render_json(&report, None);
        let rows = validate_report(&json).expect("fresh report validates");
        assert_eq!(rows.len(), report.scenarios.len());
        assert!(report.total_events() > 0);
        assert!(report.events_per_sec() > 0.0);
        // Round-trip as its own baseline: every speedup ≈ 1.
        let json2 = render_json(&report, Some(("self", &rows)));
        assert!(json2.contains("\"speedup_vs_baseline\": 1.00"));
        assert!(json2.contains("\"speedup_geomean\": 1.00"));
        validate_report(&json2).expect("baselined report still validates");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_report("{}").is_err());
        let bad = format!("{{\"schema\": \"{SCHEMA}\", \"scenarios\": []}}");
        assert!(validate_report(&bad).is_err());
    }
}

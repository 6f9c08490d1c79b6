//! Virtual-time tracing: structural and determinism properties of the
//! span capture and its Chrome `trace_event` export.
//!
//! - fault spans on a core's track nest properly: every `fp*` phase span
//!   lies inside a `major` span on the same track;
//! - the export is valid JSON and bit-identical across same-seed runs
//!   (the tracer reads the same virtual clock the engine runs on, so a
//!   trace is as deterministic as the simulation itself);
//! - attaching a tracer observes the run without perturbing it.

use std::rc::Rc;

use mage_far_memory::prelude::*;

/// An offloaded run that faults, evicts and shoots down TLBs — every
/// span source fires.
fn traced_cfg() -> RunConfig {
    let mut cfg = RunConfig::new(SystemConfig::mage_lib(), WorkloadKind::RandomGraph, 4, 8_192, 0.5);
    cfg.ops_per_thread = 2_000;
    cfg.topo = Topology::single_socket(10);
    cfg.capture_trace = true;
    cfg
}

/// Engine-level smoke test: drive faults with a tracer attached and
/// check the captured spans nest. On a core's track, every fault-phase
/// span (`fp1.*`/`fp2.*`/`fp3.*`) must be contained in some `major`
/// span; async hardware intervals live on their own tracks.
#[test]
fn fault_phase_spans_nest_inside_major_spans() {
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: 2,
        local_pages: 512,
        remote_pages: 8_192,
        tlb_entries: 256,
        seed: 9,
    };
    let engine = FarMemory::launch(sim.handle(), SystemConfig::mage_lib(), params);
    let tracer = Tracer::new();
    engine.attach_tracer(Rc::clone(&tracer));
    let vma = engine.mmap(2_048);
    engine.populate_all_remote(&vma);

    let e = Rc::clone(&engine);
    sim.block_on(async move {
        for i in 0..2_048 {
            e.access(CoreId((i % 2) as u32), vma.start_vpn + i, i % 3 == 0).await;
        }
    });
    engine.shutdown();

    let events = tracer.events();
    assert!(!events.is_empty(), "traced faulting run captured no events");

    let majors: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.cat == "fault" && e.name == "major")
        .collect();
    let phases: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.cat == "fault" && e.name.starts_with("fp"))
        .collect();
    assert!(!majors.is_empty(), "no major-fault spans captured");
    assert!(!phases.is_empty(), "no fault-phase spans captured");
    for p in &phases {
        let contained = majors.iter().any(|m| {
            m.track == p.track
                && p.start_ns >= m.start_ns
                && p.start_ns + p.dur_ns <= m.start_ns + m.dur_ns
        });
        assert!(
            contained,
            "phase span {}@{} (track {}) lies outside every major span",
            p.name, p.start_ns, p.track
        );
    }

    // Eviction pressure fired the async hardware tracks too.
    use mage_far_memory::sim::trace::{TRACK_NIC, TRACK_TLB};
    assert!(events.iter().any(|e| e.track == TRACK_NIC));
    assert!(events.iter().any(|e| e.track == TRACK_TLB));
}

/// Same seed ⇒ bit-identical trace JSON; different seed ⇒ different
/// trace. The export must also parse as JSON.
#[test]
fn same_seed_traces_are_bit_identical() {
    let a = run_batch(&traced_cfg());
    let b = run_batch(&traced_cfg());
    let ja = a.trace_json.expect("capture_trace produced no JSON");
    let jb = b.trace_json.expect("capture_trace produced no JSON");
    assert!(ja.contains("\"traceEvents\""));
    validate_json(&ja).expect("trace export must be valid JSON");
    assert_eq!(ja, jb, "same-seed traces must be bit-identical");

    let mut cfg = traced_cfg();
    cfg.seed = 43;
    let c = run_batch(&cfg);
    assert_ne!(
        ja,
        c.trace_json.expect("capture_trace produced no JSON"),
        "different seeds must produce different traces"
    );
}

/// Attaching a tracer is pure observation: every reported statistic is
/// bit-identical with and without capture.
#[test]
fn tracing_does_not_perturb_the_run() {
    // The trace is its own export; every other field must match.
    let mut traced = run_batch(&traced_cfg());
    assert!(traced.trace_json.take().is_some());
    let mut cfg = traced_cfg();
    cfg.capture_trace = false;
    let plain = run_batch(&cfg);
    assert!(plain.trace_json.is_none());
    assert_eq!(traced, plain);
}

//! Measurement-methodology regression tests: warmup must not pollute the
//! reported window, and open-loop runs must not censor their tails.
//!
//! The bug class under test: `RunReport` used to be computed from
//! *cumulative* counters after a destructive `EngineStats::reset()`
//! (since removed) at the warmup rendezvous. The reset only covered the
//! engine's own
//! counters — NIC byte counts and IPI/shootdown histograms kept their
//! warmup samples and were then divided by the post-warmup runtime,
//! inflating `read_gbps`/`write_gbps` and skewing `shootdown_mean_ns`
//! for every warmed-up run. Reports now come from snapshot-delta
//! [`MetricsWindow`]s, so a warmed-up run and a warmup-free run of the
//! same steady-state workload must agree.

use mage_far_memory::prelude::*;

/// Relative difference, tolerant of tiny denominators.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// A workload that is near eviction steady state from the first
/// operation: uniform random access with a small resident set, so the
/// miss rate is stationary and warmup changes nothing but the window.
/// The one real cold-start transient — `populate` leaves its resident
/// pages dirty (no remote copy yet), so the cold run writes back ~512
/// extra pages — is amortized by a window two orders of magnitude
/// larger.
fn steady(warmup_ops: u64) -> RunConfig {
    let mut cfg =
        RunConfig::new(SystemConfig::mage_lib(), WorkloadKind::RandomGraph, 4, 8_192, 0.0625);
    cfg.ops_per_thread = 32_000;
    cfg.warmup_ops = warmup_ops;
    cfg.topo = Topology::single_socket(10);
    cfg
}

/// The headline regression: a warmed-up run of a steady-state workload
/// must report the same bandwidth and shootdown figures as a warmup-free
/// run. Under the old cumulative-counter reporting the warmed-up run
/// inflated `read_gbps` by roughly `1 + warmup/measured` (warmup bytes
/// divided by post-warmup runtime).
#[test]
fn warmup_does_not_pollute_the_measurement_window() {
    let cold = run_batch(&steady(0));
    let warm = run_batch(&steady(3_000));

    assert!(cold.read_gbps() > 0.0 && warm.read_gbps() > 0.0);
    assert!(
        rel_diff(cold.read_gbps(), warm.read_gbps()) < 0.05,
        "read_gbps diverges: cold {:.4} vs warm {:.4}",
        cold.read_gbps(),
        warm.read_gbps()
    );
    assert!(
        rel_diff(cold.write_gbps(), warm.write_gbps()) < 0.05,
        "write_gbps diverges: cold {:.4} vs warm {:.4}",
        cold.write_gbps(),
        warm.write_gbps()
    );
    assert!(
        rel_diff(cold.window.shootdown_latency.mean(), warm.window.shootdown_latency.mean()) < 0.05,
        "shootdown_mean_ns diverges: cold {:.1} vs warm {:.1}",
        cold.window.shootdown_latency.mean(),
        warm.window.shootdown_latency.mean()
    );
}

/// The windowed fault count must cover the measured ops only: a warmed-up
/// run reports the same per-op fault rate as a cold one, not the warmup's
/// faults on top.
#[test]
fn windowed_fault_rate_matches_cold_run() {
    let cold = run_batch(&steady(0));
    let warm = run_batch(&steady(3_000));
    let cold_rate = cold.major_faults as f64 / cold.total_ops as f64;
    let warm_rate = warm.major_faults as f64 / warm.total_ops as f64;
    assert!(
        rel_diff(cold_rate, warm_rate) < 0.05,
        "fault rate diverges: cold {cold_rate:.4} vs warm {warm_rate:.4}"
    );
    // The window's per-thread fault counts must sum to the windowed total.
    assert_eq!(
        warm.faults_per_thread.iter().sum::<u64>(),
        warm.major_faults,
        "per-thread fault counts disagree with the windowed total"
    );
}

/// With sampling enabled the timeline must account for every measured op,
/// including the final partial bucket that used to be dropped when the
/// last thread finished mid-interval — also when a warmup phase precedes
/// the window.
#[test]
fn timeline_conserves_ops_with_warmup() {
    let mut cfg = steady(1_000);
    cfg.sample_interval_ns = Some(200_000);
    let report = run_batch(&cfg);
    let total: u64 = report.timeline.iter().map(|&(_, o)| o).sum();
    assert_eq!(
        total, report.total_ops,
        "sum(timeline buckets) must equal total measured ops"
    );
}

/// At a trivially sustainable offered load the bounded drain completes
/// every request: nothing is censored, and the issued/completed ledger
/// balances.
#[test]
fn open_loop_tail_is_not_censored_at_low_load() {
    let r = run_open_loop_faults(
        SystemConfig::mage_lib(),
        8,
        200_000,
        0.4,
        0.2,
        20_000_000,
        1,
    );
    assert!(r.issued_requests > 0, "generator issued nothing");
    assert_eq!(
        r.censored_requests, 0,
        "low-load run censored {} of {} requests",
        r.censored_requests, r.issued_requests
    );
    assert_eq!(r.completed_requests, r.issued_requests);

    let raw = run_raw_rdma(2.0, 20_000_000, 3);
    assert_eq!(
        raw.censored_requests, 0,
        "low-load raw-RDMA run censored {} of {} requests",
        raw.censored_requests, raw.issued_requests
    );
}

/// Every row of the metrics table reads the source field it names: from
/// an empty start line, each window equals the cumulative value read
/// straight off the source struct. A row pointed at the wrong field of
/// the right type still compiles, so only this comparison catches it.
/// The run is replicated with staggered node crashes, so the retry,
/// failover, re-replication and degraded rows carry real counts.
#[test]
fn every_window_row_reads_its_own_source() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use mage_far_memory::sim::stats::{
        Counter, Histogram, HistogramDelta, TimeStat, TimeStatDelta,
    };

    const THREADS: usize = 4;
    const PAGES: u64 = 512;
    // Node crashes drive failover and repair; transient CQ errors on top
    // drive the retry path.
    let plans = (0..REPLICA_NODES)
        .map(|i| FaultPlan {
            error_rate: 0.02,
            ..FaultPlan::staggered_node_crash(0x5EED, i, REPLICA_NODES, 400_000, 40_000)
        })
        .collect();
    let system = SystemConfig::mage_lib()
        .with_replication(ReplicationConfig {
            repair_poll_ns: 10_000,
            node_faults: plans,
        })
        .with_max_retries(2);
    let sim = Simulation::new();
    let params = MachineParams {
        topo: Topology::single_socket(8),
        app_threads: THREADS,
        local_pages: 256,
        remote_pages: 4_096,
        tlb_entries: 64,
        seed: 5,
    };
    let engine = FarMemory::launch(sim.handle(), system, params);
    let vma = engine.mmap(PAGES);
    engine.populate(&vma);
    let e = Rc::clone(&engine);
    sim.block_on(async move {
        for round in 0..2 {
            for i in 0..PAGES {
                let core = CoreId((i % THREADS as u64) as u32);
                e.access(core, vma.start_vpn + i, round == 0).await;
            }
        }
    });
    engine.shutdown();

    // Destructured without `..`, so a table row that this test does not
    // check is a compile error.
    let MetricsWindow {
        accesses,
        tlb_hits,
        minor_walks,
        major_faults,
        page_lock_waits,
        sync_evictions,
        evicted_pages,
        sync_evicted_pages,
        writebacks,
        clean_reclaims,
        eviction_batches,
        unmapped_pages,
        evict_cancels,
        evict_cancelled_pages,
        prefetches,
        prefetch_inflight_hits,
        transfer_retries,
        transfer_failures,
        aborted_faults,
        requeued_victims,
        failover_reads,
        re_faults,
        ghost_hits,
        nic_reads,
        nic_writes,
        nic_read_bytes,
        nic_write_bytes,
        ipis,
        shootdowns,
        acct_inserts,
        acct_scanned,
        acct_reactivated,
        acct_victims,
        rereplicated_pages,
        degraded_marks,
        fault_latency,
        retry_latency,
        nic_read_latency,
        nic_write_latency,
        ipi_latency,
        shootdown_latency,
        free_wait,
        breakdown_rdma,
        breakdown_tlb,
        breakdown_accounting,
        breakdown_circulation,
        breakdown_other,
    } = engine.metrics().window_since(&MetricsSnapshot::default());
    let s = engine.stats();
    let b = &s.breakdown;
    let nic = engine.nic().stats();
    let ipi = engine.interrupts().stats();
    let acct = engine.accounting().stats();
    let repl = engine
        .backend()
        .replication_stats()
        .expect("replicated backend exposes repair stats");

    let counters: [(&str, u64, &Counter); 35] = [
        ("accesses", accesses, &s.accesses),
        ("tlb_hits", tlb_hits, &s.tlb_hits),
        ("minor_walks", minor_walks, &s.minor_walks),
        ("major_faults", major_faults, &s.major_faults),
        ("page_lock_waits", page_lock_waits, &s.page_lock_waits),
        ("sync_evictions", sync_evictions, &s.sync_evictions),
        ("evicted_pages", evicted_pages, &s.evicted_pages),
        ("sync_evicted_pages", sync_evicted_pages, &s.sync_evicted_pages),
        ("writebacks", writebacks, &s.writebacks),
        ("clean_reclaims", clean_reclaims, &s.clean_reclaims),
        ("eviction_batches", eviction_batches, &s.eviction_batches),
        ("unmapped_pages", unmapped_pages, &s.unmapped_pages),
        ("evict_cancels", evict_cancels, &s.evict_cancels),
        ("evict_cancelled_pages", evict_cancelled_pages, &s.evict_cancelled_pages),
        ("prefetches", prefetches, &s.prefetches),
        ("prefetch_inflight_hits", prefetch_inflight_hits, &s.prefetch_inflight_hits),
        ("transfer_retries", transfer_retries, &s.transfer_retries),
        ("transfer_failures", transfer_failures, &s.transfer_failures),
        ("aborted_faults", aborted_faults, &s.aborted_faults),
        ("requeued_victims", requeued_victims, &s.requeued_victims),
        ("failover_reads", failover_reads, &s.failover_reads),
        ("re_faults", re_faults, &s.re_faults),
        ("ghost_hits", ghost_hits, &s.ghost_hits),
        ("nic_reads", nic_reads, &nic.reads),
        ("nic_writes", nic_writes, &nic.writes),
        ("nic_read_bytes", nic_read_bytes, &nic.read_bytes),
        ("nic_write_bytes", nic_write_bytes, &nic.write_bytes),
        ("ipis", ipis, &ipi.ipis),
        ("shootdowns", shootdowns, &ipi.shootdowns),
        ("acct_inserts", acct_inserts, &acct.inserts),
        ("acct_scanned", acct_scanned, &acct.scanned),
        ("acct_reactivated", acct_reactivated, &acct.reactivated),
        ("acct_victims", acct_victims, &acct.victims),
        ("rereplicated_pages", rereplicated_pages, &repl.rereplicated_pages),
        ("degraded_marks", degraded_marks, &repl.degraded_marks),
    ];
    for (name, windowed, source) in counters {
        assert_eq!(windowed, source.get(), "{name}");
    }
    let histograms: [(&str, &HistogramDelta, &Histogram); 6] = [
        ("fault_latency", &fault_latency, &s.fault_latency),
        ("retry_latency", &retry_latency, &s.retry_latency),
        ("nic_read_latency", &nic_read_latency, &nic.read_latency),
        ("nic_write_latency", &nic_write_latency, &nic.write_latency),
        ("ipi_latency", &ipi_latency, &ipi.ipi_latency),
        ("shootdown_latency", &shootdown_latency, &ipi.shootdown_latency),
    ];
    for (name, d, h) in histograms {
        assert_eq!(
            (d.count(), d.sum(), d.p50(), d.p99(), d.p999()),
            (h.count(), h.sum(), h.p50(), h.p99(), h.p999()),
            "{name}"
        );
    }
    let times: [(&str, TimeStatDelta, &RefCell<TimeStat>); 6] = [
        ("free_wait", free_wait, &s.free_wait),
        ("breakdown_rdma", breakdown_rdma, &b.rdma),
        ("breakdown_tlb", breakdown_tlb, &b.tlb),
        ("breakdown_accounting", breakdown_accounting, &b.accounting),
        ("breakdown_circulation", breakdown_circulation, &b.circulation),
        ("breakdown_other", breakdown_other, &b.other),
    ];
    for (name, d, t) in times {
        let t = t.borrow();
        assert_eq!((d.count(), d.sum()), (t.count(), t.sum()), "{name}");
    }

    for (name, count) in [
        ("transfer_retries", transfer_retries),
        ("failover_reads", failover_reads),
        ("rereplicated_pages", rereplicated_pages),
        ("degraded_marks", degraded_marks),
    ] {
        assert!(count > 0, "{name} never fired, so its row is untested");
    }
}

/// The three `RunReport` fields the benchmark's parity check reads by
/// name are the window's values. The run warms up first, so its window
/// and the cumulative counters differ, and it is a Hermit run under
/// pressure, so every one of the three is nonzero.
#[test]
fn report_contract_fields_equal_their_window_rows() {
    let mut cfg =
        RunConfig::new(SystemConfig::hermit(), WorkloadKind::RandomGraph, 16, 16_384, 0.3);
    cfg.ops_per_thread = 3_000;
    cfg.warmup_ops = 1_000;
    cfg.topo = Topology::single_socket(24);
    let r = run_batch(&cfg);
    assert!(r.sync_evictions > 0, "the run must evict synchronously");
    assert_eq!(r.major_faults, r.window.major_faults);
    assert_eq!(r.fault_p99_ns, r.window.fault_latency.p99());
    assert_eq!(r.sync_evictions, r.window.sync_evictions);
}

//! Shape tests for the paper's headline claims, on the committed
//! `BENCH_paper.json`.
//!
//! These assert the *qualitative* results of the evaluation — who wins,
//! in which regime, and in which direction each technique moves the
//! numbers — so a regression in any mechanism (pipelining, partitioning,
//! allocator layering, sync-eviction avoidance) fails loudly. The values
//! are the report's rows, measured at reduced scale by the `paper`
//! binary (`mage_bench::paper` names each row's runs). Each test keeps
//! its thresholds here and checks that the row records the same
//! comparison and tolerance; `crates/bench/tests/committed_reports.rs`
//! regenerates the report and requires it byte for byte, so the rows are
//! the current code's.

use mage_far_memory::sim::json::{self, Value};

/// The measured value of row `id`, after checking that the row records
/// `comparison` against `tolerance` (one bound, or `[lo, hi)` for `in`).
fn measured(id: &str, comparison: &str, tolerance: &[f64]) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_paper.json");
    let text = std::fs::read_to_string(path).expect("read BENCH_paper.json");
    let doc = json::parse(&text).expect("BENCH_paper.json parses");
    let rows = doc.array_at("rows").expect("rows");
    let row = rows
        .iter()
        .find(|r| r.str_at("id") == Ok(id))
        .unwrap_or_else(|| panic!("BENCH_paper.json has no row {id}"));
    assert_eq!(row.str_at("comparison"), Ok(comparison), "{id}: comparison");
    let recorded: Vec<f64> = row
        .array_at("tolerance")
        .expect("tolerance")
        .iter()
        .map(|bound| match bound {
            Value::Number(n) => n.parse().expect("numeric bound"),
            other => panic!("{id}: bound {other:?}"),
        })
        .collect();
    assert_eq!(recorded, tolerance, "{id}: tolerance");
    row.f64_at("measured").expect("measured")
}

/// §6.2 / Fig. 9: at 48 threads and substantial offload, MAGE variants
/// beat both baselines on random-access workloads (GapBS, 50% local).
#[test]
fn mage_wins_throughput_at_scale() {
    let over_dilos = measured("fig09_magelib_over_dilos", ">", &[1.2]);
    assert!(over_dilos > 1.2, "MageLib/DiLOS {over_dilos:.2}");
    let over_hermit = measured("fig09_magelib_over_hermit", ">", &[1.2]);
    assert!(over_hermit > 1.2, "MageLib/Hermit {over_hermit:.2}");
    let lnx_over_dilos = measured("fig09_magelnx_over_dilos", ">", &[1.0]);
    assert!(lnx_over_dilos > 1.0, "MageLnx/DiLOS {lnx_over_dilos:.2}");
}

/// Fig. 18b: at 4 threads the systems converge — no MAGE regression, and
/// no large MAGE advantage either (demand is below everyone's capacity).
#[test]
fn low_thread_count_is_a_wash() {
    let ratio = measured("fig18b_magelib_over_dilos_at_70", "in", &[0.85, 1.6]);
    assert!(
        (0.85..1.6).contains(&ratio),
        "4-thread ratio {ratio:.2} out of the expected near-parity band"
    );
}

/// §3.2 / Fig. 5: the eviction path, not the fault path, is what
/// collapses the baselines: enabling eviction costs them throughput.
#[test]
fn eviction_is_the_bottleneck_for_baselines() {
    let ratio = measured("fig05_hermit_evict_over_fault_only", "<", &[0.85]);
    assert!(
        ratio < 0.85,
        "eviction cost invisible: {ratio:.2} of fault-in only"
    );
}

/// §3.3.1 / Fig. 7: shootdown latency grows with thread count, with a
/// cross-socket penalty once threads span sockets.
#[test]
fn shootdown_latency_grows_with_threads() {
    let ratio = measured("fig07_dilos_shootdown_48t_over_4t", ">", &[2.0]);
    assert!(ratio > 2.0, "48T shootdown only {ratio:.2}x the 4T one");
}

/// Fig. 10: prefetching helps MAGE (fast EP absorbs the extra pressure)
/// but does not help Hermit.
#[test]
fn prefetch_only_pays_off_on_mage() {
    let mage = measured("fig10_magelib_prefetch_gain", ">", &[1.0]);
    assert!(mage > 1.0, "prefetch must help MAGE: {mage:.2}x");
    assert!(measured("fig10_magelib_prefetches", ">", &[0.0]) > 0.0);
    let hermit = measured("fig04_hermit_prefetch_gain", "<", &[1.15]);
    assert!(
        hermit < 1.15,
        "prefetch must not substantially help Hermit: {hermit:.2}x"
    );
}

/// §6.3 / Fig. 13: MAGE's tail latency beats the baselines under memory
/// pressure because requests never block behind synchronous eviction.
#[test]
fn memcached_tail_ordering() {
    let ratio = measured("fig13_magelib_p99_over_hermit", "<", &[1.0]);
    assert!(ratio < 1.0, "MAGE p99 is {ratio:.2}x Hermit's");
}

/// Fig. 17: each MAGE technique moves throughput in the right direction
/// at 48 threads under pressure.
#[test]
fn ablation_steps_improve_monotonically_enough() {
    let full = measured("fig17_full_over_baseline", ">", &[1.0]);
    assert!(
        full > 1.0,
        "all techniques combined must beat the baseline: {full:.2}x"
    );
    let multilayer = measured("fig17_multilayer_over_partitioned", ">=", &[0.95]);
    assert!(
        multilayer >= 0.95,
        "multilayer step must not regress: {multilayer:.2}x"
    );
    let partitioned = measured("fig17_partitioned_over_pipelined", ">", &[1.0]);
    assert!(
        partitioned > 1.0,
        "LRU partitioning must help under contention: {partitioned:.2}x"
    );
}

/// Fig. 18a: with pipelining, larger batches help up to a point.
#[test]
fn batch_size_sweet_spots() {
    let ratio = measured("fig18a_pipelined_256_over_32", ">", &[1.0]);
    assert!(
        ratio > 1.0,
        "pipelined 256 must beat pipelined 32: {ratio:.2}x"
    );
}

/// Table 2: with 100% local memory the bare-metal baseline (Hermit) is
/// fastest — virtualization costs the MAGE variants a few percent.
#[test]
fn all_local_virtualization_cost() {
    assert_eq!(measured("tab02_major_faults_xsbench", "==", &[0.0]), 0.0);
    let ratio = measured("tab02_hermit_over_magelib_xsbench", ">", &[1.0]);
    assert!(ratio > 1.0, "bare metal must win all-local: {ratio:.2}x");
    let penalty = measured("tab02_magelib_penalty_xsbench", "<", &[0.15]);
    assert!(
        penalty < 0.15,
        "virtualization penalty {penalty:.2} too large"
    );
}

/// §4.2.2 extension: on the one-bit accessed signal, strict FIFO evicts
/// more pages it needs right back than second chance, the counter
/// presets fewer, and S3-FIFO beats every other policy in at least one
/// (workload, local fraction) group. Ties are not wins.
#[test]
fn policy_zoo_refault_ordering() {
    let wins = measured("ext_policies_s3fifo_refault_wins", ">", &[0.0]);
    assert!(wins > 0.0, "S3-FIFO wins no group on re-fault rate");
    let fifo = measured("ext_policies_fifo_refault_over_second_chance", ">", &[1.0]);
    assert!(fifo > 1.0, "FIFO re-faults {fifo:.3}x second chance");
    for policy in ["aging_clock", "approx_lru", "s3fifo"] {
        let id = format!("ext_policies_{policy}_refault_over_second_chance");
        let ratio = measured(&id, "<", &[1.0]);
        assert!(ratio < 1.0, "{policy} re-faults {ratio:.3}x second chance");
    }
}

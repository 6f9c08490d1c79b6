//! Fig-17-style eviction-policy ablation behind `BENCH_policies.json`.
//!
//! The sweep crosses the policy zoo (`EvictionPolicyKind`) with two
//! access patterns and three local-memory fractions on the MAGE-Lib
//! preset, holding everything else fixed — so each cell isolates the
//! victim-selection policy exactly the way the paper's Fig. 17 isolates
//! one knob at a time. The figure of merit is the *re-fault rate*:
//! the fraction of major faults whose page was still on the accounting
//! ghost list, i.e. pages the policy evicted and then needed right back
//! (lower is better). Throughput and tail latency ride along so accuracy
//! gains that cost throughput are visible in the same row.
//!
//! All metrics are virtual-time quantities from
//! [`RunReport`](crate::runner::RunReport) measurement
//! windows — there is no wall clock anywhere, so the committed report is
//! bit-reproducible across hosts, and `mage-bench`'s
//! `committed_reports` test regenerates it byte for byte.
//!
//! The emitted JSON (`schema: mage-bench-policies/v1`) is hand-rolled —
//! the workspace has no serde — and read back through `mage_sim::json`
//! for validation.

use mage::{EvictionPolicyKind, SystemConfig};
use mage_mmu::Topology;

use crate::patterns::WorkloadKind;
use crate::runner::{run_batch, RunConfig};

/// JSON schema marker written to (and expected in) `BENCH_policies.json`.
pub const SCHEMA: &str = "mage-bench-policies/v1";

/// Local-memory fractions swept (the x-axis of the ablation).
pub const LOCAL_FRACTIONS: [f64; 3] = [0.2, 0.5, 0.8];

/// The policy zoo under ablation. `AgingClock` rides along so the sweep
/// covers every built-in (the acceptance bar is ≥ 3 policies).
pub fn policies() -> Vec<EvictionPolicyKind> {
    vec![
        EvictionPolicyKind::SecondChance,
        EvictionPolicyKind::Fifo,
        EvictionPolicyKind::AgingClock { hot_rounds: 3 },
        EvictionPolicyKind::ApproxLru,
        EvictionPolicyKind::S3Fifo,
    ]
}

/// The two access patterns swept: skewed point updates with a phase
/// change (GUPS) and power-law graph walks (page rank).
pub fn workloads() -> [WorkloadKind; 2] {
    [WorkloadKind::Gups, WorkloadKind::RandomGraph]
}

/// Stable id of a workload in the report.
pub fn workload_name(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::RandomGraph => "pagerank",
        WorkloadKind::XsBench => "xsbench",
        WorkloadKind::SeqScan => "seqscan",
        WorkloadKind::Gups => "gups",
        WorkloadKind::Metis => "metis",
        WorkloadKind::SeqFault => "seqfault",
    }
}

/// One measured cell of the policy × workload × fraction cube.
#[derive(Clone, Debug)]
pub struct PolicyCell {
    /// Policy display name (`EvictionPolicyKind::name`).
    pub policy: &'static str,
    /// Workload id ([`workload_name`]).
    pub workload: &'static str,
    /// Fraction of the working set resident locally.
    pub local_frac: f64,
    /// Application throughput, M ops/s.
    pub mops: f64,
    /// Major faults in the measurement window.
    pub major_faults: u64,
    /// Major faults that hit the ghost list (evicted too early).
    pub re_faults: u64,
    /// All ghost hits (re-faults + cancels + requeues).
    pub ghost_hits: u64,
    /// `re_faults / major_faults` — the figure of merit, lower is better.
    pub re_fault_rate: f64,
    /// p99 major-fault latency, ns.
    pub fault_p99_ns: u64,
}

fn run_cell(policy: EvictionPolicyKind, kind: WorkloadKind, local_frac: f64) -> PolicyCell {
    const OPS: u64 = 2_048;
    let system = SystemConfig::mage_lib().with_eviction_policy(policy);
    let mut cfg = RunConfig::new(system, kind, 4, 8_192, local_frac);
    cfg.ops_per_thread = OPS;
    // Let residency converge to the access distribution before measuring,
    // so the window sees steady-state policy behaviour, not cold start.
    cfg.warmup_ops = OPS / 4;
    cfg.seed = 0xAB1A;
    cfg.topo = Topology::single_socket(16);
    let report = run_batch(&cfg);
    PolicyCell {
        policy: policy.name(),
        workload: workload_name(kind),
        local_frac,
        mops: report.mops(),
        major_faults: report.major_faults,
        re_faults: report.window.re_faults,
        ghost_hits: report.window.ghost_hits,
        re_fault_rate: report.re_fault_rate(),
        fault_p99_ns: report.fault_p99_ns,
    }
}

/// Runs the full cube.
pub fn run_ablation() -> Vec<PolicyCell> {
    let mut cells = Vec::new();
    for kind in workloads() {
        for &frac in &LOCAL_FRACTIONS {
            for policy in policies() {
                cells.push(run_cell(policy, kind, frac));
            }
        }
    }
    cells
}

/// `(workload, local_frac)` groups where S3-FIFO's re-fault rate is
/// strictly below every other policy's.
pub fn s3fifo_win_cells(cells: &[PolicyCell]) -> Vec<(&'static str, f64)> {
    let mut wins = Vec::new();
    for kind in workloads() {
        let w = workload_name(kind);
        for &frac in &LOCAL_FRACTIONS {
            let group: Vec<&PolicyCell> = cells
                .iter()
                .filter(|c| c.workload == w && c.local_frac == frac)
                .collect();
            let Some(s3) = group.iter().find(|c| c.policy == "s3-fifo") else {
                continue;
            };
            if group
                .iter()
                .filter(|c| c.policy != "s3-fifo")
                .all(|c| s3.re_fault_rate < c.re_fault_rate)
            {
                wins.push((w, frac));
            }
        }
    }
    wins
}

/// Renders the cells as `mage-bench-policies/v1` JSON. The constant
/// `"mode": "full"` line is part of the v1 schema, which the committed
/// report is checked against byte for byte.
pub fn render_json(cells: &[PolicyCell]) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str("  \"mode\": \"full\",\n");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let mut line = format!(
            "    {{\"policy\": \"{}\", \"workload\": \"{}\", \"local_frac\": {:.2}, \
             \"mops\": {:.4}, \"major_faults\": {}, \"re_faults\": {}, \
             \"ghost_hits\": {}, \"re_fault_rate\": {:.6}, \"fault_p99_ns\": {}}}",
            c.policy,
            c.workload,
            c.local_frac,
            c.mops,
            c.major_faults,
            c.re_faults,
            c.ghost_hits,
            c.re_fault_rate,
            c.fault_p99_ns,
        );
        if i + 1 < cells.len() {
            line.push(',');
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str("  ],\n");
    let wins = s3fifo_win_cells(cells);
    out.push_str("  \"s3fifo_refault_wins\": [\n");
    for (i, (w, frac)) in wins.iter().enumerate() {
        let mut line = format!("    {{\"workload\": \"{w}\", \"local_frac\": {frac:.2}}}");
        if i + 1 < wins.len() {
            line.push(',');
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed report row: `(policy, workload, local_frac,
/// re_fault_rate)`.
pub type CellRow = (String, String, f64, f64);

/// Validates an emitted report: a well-formed document with the schema
/// marker, a complete cube (every policy × workload × fraction cell
/// present exactly once) and sane rates. Returns the parsed rows.
pub fn validate_report(json: &str) -> Result<Vec<CellRow>, String> {
    let doc = mage_sim::json::parse(json)?;
    if doc.str_at("schema") != Ok(SCHEMA) {
        return Err(format!("missing schema marker {SCHEMA:?}"));
    }
    let rows = doc
        .array_at("cells")?
        .iter()
        .map(|c| {
            Ok((
                c.str_at("policy")?.to_string(),
                c.str_at("workload")?.to_string(),
                c.f64_at("local_frac")?,
                c.f64_at("re_fault_rate")?,
            ))
        })
        .collect::<Result<Vec<CellRow>, String>>()?;
    let expected = policies().len() * workloads().len() * LOCAL_FRACTIONS.len();
    if rows.len() != expected {
        return Err(format!("expected {expected} cells, found {}", rows.len()));
    }
    for policy in policies() {
        for kind in workloads() {
            for &frac in &LOCAL_FRACTIONS {
                let hits = rows
                    .iter()
                    .filter(|(p, w, f, _)| {
                        p == policy.name()
                            && w == workload_name(kind)
                            && (f - frac).abs() < 1e-9
                    })
                    .count();
                if hits != 1 {
                    return Err(format!(
                        "cell ({}, {}, {frac}) appears {hits} times",
                        policy.name(),
                        workload_name(kind)
                    ));
                }
            }
        }
    }
    for (policy, workload, frac, rate) in &rows {
        if !(0.0..=1.0).contains(rate) {
            return Err(format!(
                "cell ({policy}, {workload}, {frac}) has re-fault rate {rate} outside [0, 1]"
            ));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_parses_and_validates() {
        // Synthetic cells: the renderer/parser round-trip must not need a
        // (slow) simulation run.
        let mut cells = Vec::new();
        for kind in workloads() {
            for &frac in &LOCAL_FRACTIONS {
                for (i, policy) in policies().into_iter().enumerate() {
                    cells.push(PolicyCell {
                        policy: policy.name(),
                        workload: workload_name(kind),
                        local_frac: frac,
                        mops: 1.0 + i as f64,
                        major_faults: 1_000,
                        re_faults: 100 * (i as u64 + 1),
                        ghost_hits: 120 * (i as u64 + 1),
                        re_fault_rate: 0.1 * (i as f64 + 1.0),
                        fault_p99_ns: 10_000,
                    });
                }
            }
        }
        let json = render_json(&cells);
        let rows = validate_report(&json).expect("synthetic report validates");
        assert_eq!(rows.len(), cells.len());
        // S3-FIFO is listed last (highest synthetic rate) => no wins.
        assert!(s3fifo_win_cells(&cells).is_empty());
        assert!(json.contains("\"s3fifo_refault_wins\": ["));
    }

    #[test]
    fn winner_detection_requires_strict_wins() {
        let mk = |policy: &'static str, rate: f64| PolicyCell {
            policy,
            workload: "gups",
            local_frac: 0.5,
            mops: 1.0,
            major_faults: 100,
            re_faults: (rate * 100.0) as u64,
            ghost_hits: 0,
            re_fault_rate: rate,
            fault_p99_ns: 1,
        };
        let tie = vec![mk("second-chance", 0.2), mk("s3-fifo", 0.2)];
        assert!(s3fifo_win_cells(&tie).is_empty(), "ties are not wins");
        let win = vec![mk("second-chance", 0.2), mk("s3-fifo", 0.1)];
        assert_eq!(s3fifo_win_cells(&win), vec![("gups", 0.5)]);
    }

    #[test]
    fn validate_rejects_incomplete_cubes() {
        assert!(validate_report("{}").is_err());
        let one_cell = format!(
            "{{\"schema\": \"{SCHEMA}\", \"cells\": [{{\"policy\": \"fifo\", \"workload\": \"gups\", \
             \"local_frac\": 0.20, \"re_fault_rate\": 0.5}}]}}\n"
        );
        mage_sim::json::parse(&one_cell).expect("the fixture is one JSON document");
        let err = validate_report(&one_cell).expect_err("cube incomplete");
        assert!(err.contains("cells, found 1"), "{err}");
    }
}

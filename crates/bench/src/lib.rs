//! Benchmark harness for the MAGE reproduction: the paper's evaluation
//! as one table of figure specs ([`paper`], the `paper` binary and
//! `BENCH_paper.json`) and the scale sweep ([`scale_bench`], the `scale`
//! binary and `BENCH_scale.json`). The eviction-policy cube behind
//! `BENCH_policies.json` lives in `mage_workloads::ablation`.

pub mod paper;
pub mod scale_bench;

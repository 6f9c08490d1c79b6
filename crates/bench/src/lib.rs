//! Benchmark harness for the MAGE reproduction: the paper's evaluation
//! as one table of figure specs ([`paper`], the `paper` binary and
//! `BENCH_paper.json`; the eviction-policy zoo is its `ext_policies`
//! specs) and the scale sweep ([`scale_bench`], the `scale` binary and
//! `BENCH_scale.json`).

pub mod paper;
pub mod scale_bench;

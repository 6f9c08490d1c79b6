#!/bin/sh
# CI gate: build, test (the determinism lint included), clippy. Fails on
# the first error.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
# Every test of every member: the chaos (DESIGN.md §8), mage-check
# (§9), simsan (§10) and replication (§13) suites included, with their
# planted-bug self-checks.
cargo test --workspace -q

echo "==> chaos + seams + placement + policy differentials + invariants + exploration + sparse scale under the race detector (MAGE_SIMSAN=1)"
# policy_diff and invariants run the MAGE-Lnx, DiLOS and Hermit presets
# through the shared invariant list. scale_sparse is the one end-to-end
# run whose page-table leaves widen to 64-bit words.
MAGE_SIMSAN=1 cargo test -q --test chaos --test seams --test populate_diff --test policy_diff \
    --test invariants --test check_explore --test scale_sparse

echo "==> determinism goldens under the race detector (MAGE_SIMSAN=1, DESIGN.md §10, §13)"
# The whole file: the refactor contract pins these goldens with simsan on
# as well as off, failover's replicated sweep included.
MAGE_SIMSAN=1 cargo test -q --test determinism

echo "==> task clocks, the lock/wait-queue edges and the one-lock rule under the race detector (MAGE_SIMSAN=1)"
# The run-ahead bound's skew invariant and its four clock edges; the
# random-program test's schedule digest is pinned, so this run also
# checks that the detector does not perturb the schedule. The lib tests
# include sync.rs's planted nested acquires, which must panic with both
# sites.
MAGE_SIMSAN=1 cargo test -q -p mage-sim --test task_clocks --lib

echo "==> reclaim unit tests under the race detector (MAGE_SIMSAN=1)"
# The unmap's live-entry read, cancel and stale-generation paths.
MAGE_SIMSAN=1 cargo test -q -p mage --lib reclaim::

echo "==> README race demo (the planted re-publish must fail replay_cell with a pte race report)"
# README "Catching a race"'s replay command, exactly as documented: the
# documented demo must keep reproducing.
if demo=$(MAGE_CHECK_BREAK=publish MAGE_CHECK_SEED=5 MAGE_CHECK_PLAN=0 \
MAGE_CHECK_OPS=64 MAGE_CHECK_THREADS=2 MAGE_CHECK_POLICY=seeded-random \
cargo test -q --test check_explore -- replay_cell --nocapture 2>&1); then
    echo "error: the README race demo passed; it must fail with a race report" >&2
    exit 1
fi
for want in 'simsan: data race on pte[' 'is unordered with earlier'; do
    printf '%s\n' "$demo" | grep -qF "$want" || {
        printf '%s\n' "$demo" >&2
        echo "error: the README race demo's output lacks '$want'" >&2
        exit 1
    }
done

echo "==> cargo build --examples"
cargo build --examples

echo "==> quickstart trace export (validates + writes Chrome trace_event JSON)"
rm -f target/quickstart_trace.json
# The example validates the export with mage_sim::trace::validate_json
# before writing; a missing or empty file means export or validation broke.
cargo run -q --release --example quickstart >/dev/null
test -s target/quickstart_trace.json || {
    echo "error: quickstart did not produce target/quickstart_trace.json" >&2
    exit 1
}

echo "==> swap_backends smoke (SystemConfig::with_backend is how a backend is swapped)"
# `set -e` fails the gate on a non-zero exit.
cargo run -q --release --example swap_backends >/dev/null

echo "==> custom_system smoke (each victim-policy row must differ from second chance)"
# The example asserts it; `set -e` fails the gate on the panic.
cargo run -q --release --example custom_system >/dev/null

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> benchmark tests (benchsuite/ builds against the workspace's public API)"
cargo test -q --release --manifest-path benchsuite/Cargo.toml

echo "==> sparse-metadata regression (O(touched) host metadata through the engine and the batch runner)"
# The committed paper claims (the policy zoo's rows among them) and the
# scale sweep are goldens in crates/bench/tests/committed_reports.rs, run
# by the workspace stage above.
cargo test -q --release --test scale_sparse >/dev/null

echo "==> paper-size smoke (the figure path the BENCH_paper.json golden does not run)"
rm -f target/experiments/fig18b.csv target/experiments/ext_policies_*.csv
cargo run -q --release -p mage-bench --bin paper -- fig18b ext_policies >/dev/null
test -s target/experiments/fig18b.csv || {
    echo "error: paper fig18b did not write target/experiments/fig18b.csv" >&2
    exit 1
}
# The policy zoo as CSV: 5 policies x 3 local fractions per workload,
# after the `# id: title` line and the header.
for workload in gups pagerank; do
    csv="target/experiments/ext_policies_$workload.csv"
    rows=$(tail -n +3 "$csv" 2>/dev/null | wc -l)
    test -s "$csv" && test "$rows" -eq 15 || {
        echo "error: paper ext_policies wrote $rows data rows to $csv, expected 15" >&2
        exit 1
    }
done

echo "==> micro benchmarks, one run (clippy --all-targets only type-checks them)"
# A case that panics at run time, such as a placement row whose machine
# no longer fits, fails the gate here.
cargo bench -q -p mage-bench --bench micro_datastructures >/dev/null

echo "==> cargo clippy --workspace --all-targets -- -D warnings -D clippy::allow_attributes_without_reason"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::allow_attributes_without_reason

echo "CI OK"

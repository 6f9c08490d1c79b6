//! The determinism rules of DESIGN.md §5, checked on every `cargo test`.
//!
//! Clippy checks the banned paths: the root `clippy.toml` lists them as
//! `disallowed-types` and `disallowed-methods`, and a deliberate
//! exception is an `#[expect(…, reason = "…")]` on the item. Two rules
//! Clippy cannot express are text checks here: no ordered map in the
//! hot-path files, and no crate from outside the workspace.

use std::path::Path;
use std::process::Command;

/// Files on the simulator's hot paths, where `BTreeMap` and `BTreeSet`
/// are banned (DESIGN.md §11): the per-poll executor loop, the
/// per-access TLB probe, the per-page engine maps, the per-candidate
/// policy test and the page accounting lists. The crates use ordered
/// maps elsewhere, so the ban is per file.
const HOT_PATH_FILES: &[&str] = &[
    "crates/sim-core/src/executor.rs",
    "crates/mmu/src/tlb.rs",
    "crates/core/src/machine.rs",
    "crates/core/src/reclaim/policy.rs",
    "crates/accounting/src/lib.rs",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the determinism lint on the workspace of `manifest`: Clippy on
/// every target with every lint allowed but the two banned-path lints
/// and the reason requirement. They warn rather than deny, so that a
/// violation in one crate does not stop the check of the crates built
/// on it. It builds in a target directory of its own, so it never waits
/// on the build running this test. Returns one `file:line:col: message`
/// per violation, reason-less exception or unneeded exception.
fn determinism_lint(manifest: &Path) -> Vec<String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args(["clippy", "--workspace", "--all-targets"])
        .args(["--message-format=short", "--manifest-path"])
        .arg(manifest)
        .arg("--target-dir")
        .arg(root().join("target/determinism-lint"))
        .args(["--", "-A", "clippy::all", "-W", "clippy::disallowed_types"])
        .args(["-W", "clippy::disallowed_methods"])
        .args(["-W", "clippy::allow_attributes_without_reason"])
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command") && !stderr.contains("is not installed"),
        "the determinism lint needs Clippy (`rustup component add clippy`):\n{stderr}"
    );
    assert!(out.status.success(), "cargo clippy failed:\n{stderr}");
    assert!(
        !stderr.contains("does not refer to"),
        "clippy.toml names a path that does not exist:\n{stderr}"
    );
    let mut found: Vec<String> = stderr
        .lines()
        .filter(|line| {
            line.contains(": warning: use of a disallowed")
                || line.contains("attribute without specifying a reason")
                || line.contains("lint expectation is unfulfilled")
        })
        .map(String::from)
        .collect();
    found.sort();
    found.dedup();
    found
}

/// 1-based numbers of the lines of `src` that name an ordered map
/// outside a `//` comment.
fn ordered_map_lines(src: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or_default();
            code.contains("BTreeMap") || code.contains("BTreeSet")
        })
        .map(|(i, _)| i + 1)
        .collect()
}

/// The lines of a `Cargo.lock` that give a package a source, which only
/// a package from outside the workspace has.
fn external_sources(lock: &str) -> Vec<&str> {
    lock.lines()
        .filter(|line| line.trim_start().starts_with("source ="))
        .collect()
}

#[test]
fn workspace_passes_the_determinism_lint() {
    let found = determinism_lint(&root().join("Cargo.toml"));
    assert!(
        found.is_empty(),
        "determinism lint (DESIGN.md §5): fix each site, or put \
         `#[expect(clippy::disallowed_types, reason = \"…\")]` on it\n{}",
        found.join("\n")
    );
}

#[test]
fn lint_rejects_every_planted_violation() {
    let found = determinism_lint(&root().join("tests/lint_fixture/Cargo.toml")).join("\n");
    for banned in [
        "`std::collections::HashMap`",
        "`std::collections::HashSet`",
        "`std::time::Instant::now`",
        "`std::time::SystemTime`",
        "`std::sync::Mutex`",
        "`std::sync::atomic::AtomicU64`",
        "`std::sync::Arc`",
        "`std::task::Wake`",
        "`std::thread::spawn`",
        "`expect` attribute without specifying a reason",
    ] {
        assert!(
            found.contains(banned),
            "no diagnostic names {banned}:\n{found}"
        );
    }
}

#[test]
fn hot_path_files_hold_no_ordered_map() {
    let mut found = Vec::new();
    for file in HOT_PATH_FILES {
        let src = std::fs::read_to_string(root().join(file)).expect("hot-path file exists");
        for line in ordered_map_lines(&src) {
            found.push(format!("{file}:{line}"));
        }
    }
    assert!(
        found.is_empty(),
        "BTreeMap/BTreeSet on a hot path (DESIGN.md §11); use PageMap, TimerWheel \
         or a frame-indexed array:\n{}",
        found.join("\n")
    );
}

#[test]
fn hot_path_scan_sees_code_not_comments() {
    let src = "use std::collections::BTreeSet;\n\
               // a BTreeMap here would be slow\n\
               let m: BTreeMap<u64, u8> = x; // BTreeSet\n";
    assert_eq!(ordered_map_lines(src), [1, 3]);
}

#[test]
fn workspace_uses_no_external_crate() {
    let lock = std::fs::read_to_string(root().join("Cargo.lock")).expect("Cargo.lock exists");
    let sources = external_sources(&lock);
    assert!(
        sources.is_empty(),
        "the workspace depends on crates from outside it (DESIGN.md §6):\n{}",
        sources.join("\n")
    );
}

#[test]
fn lockfile_check_rejects_a_registry_source() {
    let lock = "[[package]]\nname = \"mage\"\nversion = \"0.1.0\"\n\n\
                [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(
        external_sources(lock),
        ["source = \"registry+https://github.com/rust-lang/crates.io-index\""]
    );
}

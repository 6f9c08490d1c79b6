//! The lint rules, as passes over the token stream.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::lexer::{Lexed, Token};
use crate::{Rule, Violation};

/// `std::sync` leaves that are forbidden in simulation code (`Arc` and
/// `Weak` are sharing, not blocking, and stay legal).
const FORBIDDEN_SYNC: &[&str] = &[
    "Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock", "OnceCell", "mpsc", "atomic", "*",
];

/// Stats structs whose measurement fields must all be reachable from
/// `MetricsRegistry::snapshot`. A counter missing from the snapshot
/// silently escapes the measurement windows (the PR 5 bug class: it
/// keeps warmup samples and ignores tail censoring).
const STATS_STRUCTS: &[&str] = &[
    "EngineStats",
    "FaultBreakdown",
    "NicStats",
    "IpiStats",
    "AccountingStats",
];

/// Field types that carry measurement state (possibly nested in a
/// wrapper, e.g. `RefCell<TimeStat>`).
const STAT_FIELD_TYPES: &[&str] = &["Counter", "TimeStat", "Histogram"];

/// Files on the simulator's measured hot paths (the per-poll executor
/// loop, the per-access TLB probe, the per-page engine maps, the
/// per-candidate eviction-policy test), where
/// ordered maps are banned outright: the slab refactor (DESIGN.md §11)
/// bought its events/sec there, and a `BTreeMap` creeping back in would
/// silently give it up. Deliberate exceptions carry a justified
/// `allow(hot-path)`.
const HOT_PATH_FILES: &[&str] = &["executor.rs", "tlb.rs", "machine.rs", "policy.rs"];

/// Identifiers that imply an external or entropy-seeded RNG.
const RNG_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "ThreadRng",
    "StdRng",
    "SmallRng",
    "getrandom",
];

/// Runs every rule over a lexed file.
pub fn check(file: &Path, lexed: &Lexed) -> Vec<Violation> {
    let mut found: Vec<Violation> = Vec::new();
    let toks = &lexed.tokens;

    check_std_paths(toks, &mut found);
    check_idents(toks, &mut found);
    check_unseeded_rng(toks, &mut found);
    check_hot_path(file, toks, &mut found);

    // Apply justified allow directives (same line or the line above the
    // violation), then report bare ones.
    found.retain(|v| {
        !lexed.allows.iter().any(|a| {
            a.justified
                && a.rule == v.rule.name()
                && (a.line == v.line || a.line + 1 == v.line)
        })
    });
    for a in &lexed.allows {
        if !a.justified {
            found.push(Violation {
                file: file.to_path_buf(),
                line: a.line,
                rule: Rule::BareAllow,
                message: format!("allow({}) without a justification", a.rule),
            });
        }
    }

    for v in &mut found {
        v.file = file.to_path_buf();
    }
    found.sort_by_key(|v| (v.line, v.rule));
    found.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    found
}

fn violation(found: &mut Vec<Violation>, line: u32, rule: Rule, message: String) {
    found.push(Violation {
        file: Default::default(),
        line,
        rule,
        message,
    });
}

/// Checks `std::<module>` paths: `std::time::{Instant, SystemTime}`,
/// `std::thread`, and `std::sync::{forbidden}`.
fn check_std_paths(toks: &[Token], found: &mut Vec<Violation>) {
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident && toks[i].text == "std" {
            if let Some((seg, leaves, next)) = std_path(toks, i) {
                match seg.text.as_str() {
                    "time" => {
                        let bad: Vec<&(String, u32)> = leaves
                            .iter()
                            .filter(|(l, _)| l == "Instant" || l == "SystemTime" || l == "*")
                            .collect();
                        if leaves.is_empty() {
                            violation(
                                found,
                                seg.line,
                                Rule::WallClock,
                                "import of std::time (host wall-clock module)".into(),
                            );
                        }
                        for (leaf, line) in bad {
                            violation(
                                found,
                                *line,
                                Rule::WallClock,
                                format!("use of std::time::{leaf}"),
                            );
                        }
                    }
                    "thread" => violation(
                        found,
                        seg.line,
                        Rule::HostThread,
                        "use of std::thread (host threads)".into(),
                    ),
                    "sync" => {
                        let forbidden = |l: &str| {
                            FORBIDDEN_SYNC.contains(&l) || l.starts_with("Atomic")
                        };
                        if leaves.is_empty() {
                            violation(
                                found,
                                seg.line,
                                Rule::StdSync,
                                "bare import of std::sync".into(),
                            );
                        }
                        for (leaf, line) in leaves.iter().filter(|(l, _)| forbidden(l)) {
                            violation(
                                found,
                                *line,
                                Rule::StdSync,
                                format!("use of std::sync::{leaf}"),
                            );
                        }
                    }
                    _ => {}
                }
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

/// Parses a `std::<seg>` path at `i`, returning the segment token, the
/// leaf identifiers that follow (single ident, or the flattened contents
/// of a `{...}` group), and the index just past the parsed tokens.
type PathLeaves = Vec<(String, u32)>;

fn std_path(toks: &[Token], i: usize) -> Option<(&Token, PathLeaves, usize)> {
    if toks.get(i + 1)?.text != "::" {
        return None;
    }
    let seg = toks.get(i + 2)?;
    if !seg.is_ident {
        return None;
    }
    let mut leaves = Vec::new();
    let mut next = i + 3;
    if toks.get(i + 3).map(|t| t.text.as_str()) == Some("::") {
        match toks.get(i + 4) {
            Some(t) if t.text == "{" => {
                // Flatten every identifier (and `*`) in the group,
                // including nested paths like `atomic::{AtomicU64}`.
                let mut depth = 1usize;
                let mut j = i + 5;
                while j < toks.len() && depth > 0 {
                    match toks[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => depth -= 1,
                        "*" => leaves.push(("*".into(), toks[j].line)),
                        t if toks[j].is_ident && t != "self" && t != "as" => {
                            leaves.push((t.to_string(), toks[j].line));
                        }
                        _ => {}
                    }
                    j += 1;
                }
                next = j;
            }
            Some(t) if t.is_ident || t.text == "*" => {
                leaves.push((t.text.clone(), t.line));
                next = i + 5;
            }
            _ => {}
        }
    }
    Some((seg, leaves, next))
}

/// Flags nondeterministic collections and external-RNG identifiers.
fn check_idents(toks: &[Token], found: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => violation(
                found,
                t.line,
                Rule::HashCollection,
                format!("use of {} (nondeterministic iteration order)", t.text),
            ),
            "rand" if toks.get(i + 1).map(|n| n.text.as_str()) == Some("::") => violation(
                found,
                t.line,
                Rule::ExternalRng,
                "use of the rand crate".into(),
            ),
            name if RNG_IDENTS.contains(&name) => violation(
                found,
                t.line,
                Rule::ExternalRng,
                format!("use of external/entropy RNG `{name}`"),
            ),
            _ => {}
        }
    }
}

/// Flags ordered maps in the designated hot-path files (matched by file
/// name, so the rule follows the file wherever its crate lives).
fn check_hot_path(file: &Path, toks: &[Token], found: &mut Vec<Violation>) {
    let hot = file
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| HOT_PATH_FILES.contains(&n));
    if !hot {
        return;
    }
    for t in toks {
        if t.is_ident && (t.text == "BTreeMap" || t.text == "BTreeSet") {
            violation(
                found,
                t.line,
                Rule::HotPath,
                format!("use of {} in hot-path file", t.text),
            );
        }
    }
}

/// Flags constructor-shaped functions in `impl` blocks of RNG-named
/// types (`*Rng*`, `*Random*`) that take no `seed`-named parameter.
fn check_unseeded_rng(toks: &[Token], found: &mut Vec<Violation>) {
    let mut depth: i64 = 0;
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                if let Some(target) = pending_impl.take() {
                    impl_stack.push((target, depth));
                }
            }
            "}" => {
                depth -= 1;
                while impl_stack.last().is_some_and(|&(_, d)| d > depth) {
                    impl_stack.pop();
                }
            }
            "impl" if t.is_ident => {
                pending_impl = impl_target(toks, i);
            }
            "fn" if t.is_ident => {
                let in_rng_impl = impl_stack.last().is_some_and(|(target, d)| {
                    *d == depth && {
                        let lower = target.to_lowercase();
                        lower.contains("rng") || lower.contains("random")
                    }
                });
                if in_rng_impl {
                    if let Some(v) = unseeded_ctor(toks, i) {
                        found.push(v);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Extracts the self type name of an `impl` header starting at `i`
/// (first identifier after `for` if present, else the first identifier
/// after the generics).
fn impl_target(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i + 1;
    // Skip `<...>` generic parameters.
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
        let t = &toks[j];
        if t.is_ident {
            if t.text == "for" {
                saw_for = true;
            } else if t.text == "where" {
                break;
            } else if saw_for {
                if after_for.is_none() {
                    after_for = Some(t.text.clone());
                }
            } else if first.is_none() {
                first = Some(t.text.clone());
            }
        }
        j += 1;
    }
    after_for.or(first)
}

/// Checks the `fn` at `i`: returns a violation if it is a seedless
/// constructor (`new`, `default`, `new_*`, `from_*`).
fn unseeded_ctor(toks: &[Token], i: usize) -> Option<Violation> {
    let name_tok = toks.get(i + 1)?;
    if !name_tok.is_ident {
        return None;
    }
    let name = name_tok.text.as_str();
    let ctor = name == "new"
        || name == "default"
        || name.starts_with("new_")
        || name.starts_with("from_");
    if !ctor {
        return None;
    }
    // Skip optional generics, then scan the parameter list.
    let mut j = i + 2;
    if toks.get(j).map(|t| t.text.as_str()) == Some("<") {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return None;
    }
    let mut paren = 1i32;
    j += 1;
    let mut has_seed = false;
    while j < toks.len() && paren > 0 {
        match toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            t if toks[j].is_ident && t.to_lowercase().contains("seed") => has_seed = true,
            _ => {}
        }
        j += 1;
    }
    if has_seed {
        return None;
    }
    Some(Violation {
        file: Default::default(),
        line: name_tok.line,
        rule: Rule::UnseededRng,
        message: format!("RNG constructor `{name}` has no explicit seed parameter"),
    })
}

/// One `Counter`/`TimeStat`/`Histogram` field declared in a monitored
/// stats struct.
struct StatField {
    /// The declaring struct's name.
    strukt: &'static str,
    /// Field identifier.
    name: String,
    /// The stat type that matched inside the field's type tokens.
    ty: String,
    /// 1-based line of the field name.
    line: u32,
    /// Index of the field-name token in the file's token stream.
    token_idx: usize,
}

/// Scans a token stream for stat fields of the monitored structs.
fn stat_fields(toks: &[Token]) -> Vec<StatField> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_struct = toks[i].is_ident && toks[i].text == "struct";
        let strukt = is_struct
            .then(|| toks.get(i + 1))
            .flatten()
            .filter(|t| t.is_ident)
            .and_then(|t| STATS_STRUCTS.iter().find(|&&s| s == t.text).copied());
        let Some(strukt) = strukt else {
            i += 1;
            continue;
        };
        // Find the body's opening brace; bail on tuple/unit structs.
        let mut j = i + 2;
        while j < toks.len() && !matches!(toks[j].text.as_str(), "{" | ";" | "(") {
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some("{") {
            i = j;
            continue;
        }
        j += 1;
        let mut brace = 1i32;
        while j < toks.len() && brace > 0 {
            match toks[j].text.as_str() {
                "{" => brace += 1,
                "}" => brace -= 1,
                // A field is `name :` at body depth (the lexer merges
                // `::` into one token, so a lone `:` is a real colon).
                ":" if brace == 1 && j > 0 && toks[j - 1].is_ident => {
                    let name_idx = j - 1;
                    // Scan the type until a `,` (or the closing brace)
                    // at zero bracket nesting — `BTreeMap<K, V>` commas
                    // must not end the field early.
                    let mut nest = 0i32;
                    let mut k = j + 1;
                    let mut ty_hit: Option<String> = None;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "<" | "(" | "[" => nest += 1,
                            ">" | ")" | "]" => nest -= 1,
                            "," | "}" if nest <= 0 => break,
                            t if toks[k].is_ident && STAT_FIELD_TYPES.contains(&t) => {
                                ty_hit.get_or_insert_with(|| t.to_string());
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(ty) = ty_hit {
                        out.push(StatField {
                            strukt,
                            name: toks[name_idx].text.clone(),
                            ty,
                            line: toks[name_idx].line,
                            token_idx: name_idx,
                        });
                    }
                    j = k;
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        i = j;
    }
    out
}

/// The cross-file `stats-registration` pass: every stat field declared
/// in a monitored struct must be referenced (by field name) in a
/// *registry anchor* — a file in the batch mentioning both
/// `MetricsRegistry` and `snapshot`. Batches with no anchor at all are
/// skipped: a lone crate without the metrics façade has nothing to
/// register against.
pub fn stats_registration(files: &[(PathBuf, Lexed)]) -> Vec<Violation> {
    let decls: Vec<Vec<StatField>> = files.iter().map(|(_, l)| stat_fields(&l.tokens)).collect();

    // Idents visible from anchors. A field's own declaration inside an
    // anchor file does not count as a reference — exclude those exact
    // tokens, so declaring a struct next to the registry cannot
    // vacuously satisfy the rule.
    let mut registered: BTreeSet<&str> = BTreeSet::new();
    let mut any_anchor = false;
    for ((_, lexed), fields) in files.iter().zip(&decls) {
        let has = |name: &str| lexed.tokens.iter().any(|t| t.is_ident && t.text == name);
        if !has("MetricsRegistry") || !has("snapshot") {
            continue;
        }
        any_anchor = true;
        let decl_idx: BTreeSet<usize> = fields.iter().map(|f| f.token_idx).collect();
        for (idx, t) in lexed.tokens.iter().enumerate() {
            if t.is_ident && !decl_idx.contains(&idx) {
                registered.insert(&t.text);
            }
        }
    }
    if !any_anchor {
        return Vec::new();
    }

    let mut out = Vec::new();
    for ((path, lexed), fields) in files.iter().zip(&decls) {
        for f in fields {
            if registered.contains(f.name.as_str()) {
                continue;
            }
            let allowed = lexed.allows.iter().any(|a| {
                a.justified
                    && a.rule == Rule::StatsRegistration.name()
                    && (a.line == f.line || a.line + 1 == f.line)
            });
            if allowed {
                continue;
            }
            out.push(Violation {
                file: path.clone(),
                line: f.line,
                rule: Rule::StatsRegistration,
                message: format!(
                    "{} field `{}.{}` is never captured by MetricsRegistry::snapshot",
                    f.ty, f.strukt, f.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source;
    use std::path::PathBuf;

    fn rules_hit(src: &str) -> Vec<Rule> {
        lint_source(&PathBuf::from("test.rs"), src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn flags_wall_clock() {
        assert_eq!(
            rules_hit("use std::time::Instant;"),
            vec![Rule::WallClock]
        );
        assert_eq!(
            rules_hit("let t = std::time::SystemTime::now();"),
            vec![Rule::WallClock]
        );
        assert_eq!(rules_hit("use std::time::{Duration, Instant};").len(), 1);
        assert!(rules_hit("use std::time::Duration;").is_empty());
    }

    #[test]
    fn flags_host_thread() {
        assert_eq!(rules_hit("use std::thread;"), vec![Rule::HostThread]);
        assert_eq!(
            rules_hit("std::thread::spawn(|| {});"),
            vec![Rule::HostThread]
        );
    }

    #[test]
    fn flags_std_sync_but_not_arc() {
        assert_eq!(
            rules_hit("use std::sync::{Arc, Mutex};"),
            vec![Rule::StdSync]
        );
        assert!(rules_hit("use std::sync::Arc;").is_empty());
        assert_eq!(
            rules_hit("use std::sync::atomic::AtomicU64;"),
            vec![Rule::StdSync]
        );
        assert_eq!(
            rules_hit("use std::sync::{Arc, atomic::{AtomicBool, Ordering}};"),
            vec![Rule::StdSync]
        );
    }

    #[test]
    fn flags_hash_collections() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;"),
            vec![Rule::HashCollection]
        );
        assert_eq!(
            rules_hit("let s: HashSet<u64> = HashSet::new();"),
            vec![Rule::HashCollection]
        );
        assert!(rules_hit("use std::collections::BTreeMap;").is_empty());
    }

    #[test]
    fn flags_external_rng() {
        assert_eq!(rules_hit("let r = rand::thread_rng();").len(), 1);
        assert_eq!(
            rules_hit("let r = SmallRng::from_entropy();"),
            vec![Rule::ExternalRng]
        );
    }

    #[test]
    fn flags_unseeded_rng_ctor() {
        let src = "struct MyRng { s: u64 }\nimpl MyRng {\n pub fn new() -> Self { MyRng { s: 0 } }\n}";
        assert_eq!(rules_hit(src), vec![Rule::UnseededRng]);
        let seeded = "struct MyRng { s: u64 }\nimpl MyRng {\n pub fn new(seed: u64) -> Self { MyRng { s: seed } }\n}";
        assert!(rules_hit(seeded).is_empty());
        let default_impl =
            "struct PadRandom;\nimpl Default for PadRandom {\n fn default() -> Self { PadRandom }\n}";
        assert_eq!(rules_hit(default_impl), vec![Rule::UnseededRng]);
        // Non-RNG types may have seedless constructors.
        assert!(rules_hit("struct Tlb;\nimpl Tlb { pub fn new() -> Self { Tlb } }").is_empty());
    }

    #[test]
    fn hot_path_bans_ordered_maps_by_file_name() {
        let src = "use std::collections::BTreeMap;\nlet s: BTreeSet<u64> = BTreeSet::new();";
        for name in ["executor.rs", "tlb.rs", "machine.rs", "policy.rs"] {
            let hits = lint_source(&PathBuf::from(name), src);
            // One per line: same-line same-rule hits dedup.
            assert_eq!(hits.len(), 2, "{name}: {hits:#?}");
            assert!(hits.iter().all(|v| v.rule == Rule::HotPath), "{hits:#?}");
        }
        // Same tokens elsewhere are legal (ordered maps are the sanctioned
        // deterministic collection off the hot paths).
        assert!(lint_source(&PathBuf::from("config.rs"), src).is_empty());
        // Comments and strings never trip the rule.
        let doc = "// converted from `BTreeMap` by the slab refactor\nlet x = 1;";
        assert!(lint_source(&PathBuf::from("tlb.rs"), doc).is_empty());
    }

    #[test]
    fn hot_path_honors_justified_allow() {
        let src = "// simlint: allow(hot-path): cold shutdown path, never polled per event\nuse std::collections::BTreeMap;";
        assert!(lint_source(&PathBuf::from("executor.rs"), src).is_empty());
        let bare = "use std::collections::BTreeMap; // simlint: allow(hot-path)";
        let hits = lint_source(&PathBuf::from("executor.rs"), bare);
        assert!(hits.iter().any(|v| v.rule == Rule::HotPath));
        assert!(hits.iter().any(|v| v.rule == Rule::BareAllow));
    }

    #[test]
    fn justified_allow_suppresses() {
        let same_line =
            "use std::sync::Mutex; // simlint: allow(std-sync): waker contract requires Sync";
        assert!(rules_hit(same_line).is_empty());
        let line_above =
            "// simlint: allow(hash-collection): keyed lookups only, never iterated\nuse std::collections::HashMap;";
        assert!(rules_hit(line_above).is_empty());
    }

    #[test]
    fn bare_allow_is_reported_and_does_not_suppress() {
        let src = "use std::collections::HashMap; // simlint: allow(hash-collection)";
        let hits = rules_hit(src);
        assert!(hits.contains(&Rule::HashCollection));
        assert!(hits.contains(&Rule::BareAllow));
    }

    #[test]
    fn wrong_rule_allow_does_not_suppress() {
        let src = "use std::thread; // simlint: allow(wall-clock): mislabeled";
        assert_eq!(rules_hit(src), vec![Rule::HostThread]);
    }

    #[test]
    fn violations_in_comments_and_strings_ignored() {
        assert!(rules_hit("// std::thread::spawn\nlet s = \"HashMap\";").is_empty());
    }

    /// Batch-lints named in-memory files (for the cross-file rule).
    fn batch(files: &[(&str, &str)]) -> Vec<Violation> {
        let lexed: Vec<_> = files
            .iter()
            .map(|(name, src)| (PathBuf::from(name), crate::lexer::lex(src)))
            .collect();
        stats_registration(&lexed)
    }

    const REGISTRY: &str = "pub struct MetricsRegistry;\nimpl MetricsRegistry {\n pub fn snapshot(&self) -> u64 { self.engine.hits.get() }\n}";

    #[test]
    fn stats_registration_flags_an_orphan_field() {
        let stats = "pub struct EngineStats {\n pub hits: Counter,\n pub orphan_counter: Counter,\n}";
        let hits = batch(&[("stats.rs", stats), ("metrics.rs", REGISTRY)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, Rule::StatsRegistration);
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("EngineStats.orphan_counter"), "{}", hits[0].message);
    }

    #[test]
    fn stats_registration_sees_wrapped_and_generic_types() {
        // RefCell<TimeStat> is a stat; a BTreeMap's inner comma must not
        // truncate the field list; non-stat fields are ignored.
        let stats = "pub struct EngineStats {\n pub map: BTreeMap<u64, u64>,\n pub wait: RefCell<TimeStat>,\n pub lat: Histogram,\n}";
        let hits = batch(&[("stats.rs", stats), ("metrics.rs", REGISTRY)]);
        let named: Vec<_> = hits.iter().map(|v| v.message.clone()).collect();
        assert_eq!(hits.len(), 2, "{named:?}");
        assert!(named[0].contains("TimeStat field `EngineStats.wait`"));
        assert!(named[1].contains("Histogram field `EngineStats.lat`"));
    }

    #[test]
    fn stats_registration_is_silent_without_an_anchor() {
        let stats = "pub struct NicStats { pub orphan: Counter }";
        assert!(batch(&[("link.rs", stats)]).is_empty());
    }

    #[test]
    fn stats_registration_ignores_unmonitored_structs() {
        let stats = "pub struct ScratchStats { pub orphan: Counter }";
        assert!(batch(&[("x.rs", stats), ("metrics.rs", REGISTRY)]).is_empty());
    }

    #[test]
    fn stats_registration_declaration_in_anchor_does_not_self_satisfy() {
        // Struct declared in the SAME file as the registry: the field's
        // own declaration token must not count as a reference.
        let src = format!(
            "pub struct EngineStats {{\n pub hits: Counter,\n pub orphan_counter: Counter,\n}}\n{REGISTRY}"
        );
        let hits = batch(&[("metrics.rs", &src)]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("orphan_counter"));
    }

    #[test]
    fn stats_registration_honors_justified_allow() {
        let stats = "pub struct EngineStats {\n // simlint: allow(stats-registration): debug-only counter, not an experiment metric\n pub orphan_counter: Counter,\n pub hits: Counter,\n}";
        assert!(batch(&[("stats.rs", stats), ("metrics.rs", REGISTRY)]).is_empty());
    }
}

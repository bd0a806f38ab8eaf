//! The determinism rule engine.
//!
//! Rules run over the token stream of one file at a time and emit
//! [`Finding`]s. Suppression is per-site via `lint:allow` line comments
//! that *must* carry a reason (see [`crate::lexer::AllowDirective`]);
//! directive hygiene itself is enforced as rule CD000.
//!
//! # Rule catalogue
//!
//! | id | what it catches |
//! |-------|------------------------------------------------------------|
//! | CD000 | malformed / reason-less / unused `lint:allow` directives |
//! | CD001 | std's per-process-salted hash collections and hashers named in code (`HashMap`, `HashSet`, `hash_map`, `hash_set`, `RandomState`, `DefaultHasher`) |
//! | CD003 | wall-clock time (`Instant`, `SystemTime`, `std::time`) outside `crates/sim` |
//! | CD004 | ambient RNG (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`) anywhere, and `.jitter(...)` drawn in constructor/startup paths |
//! | CD005 | `panic!` / `.unwrap()` / `.expect()` on `cumulo-core`'s public client surface (the no-panic contract) |
//!
//! CD001 is exact: a salted collection's iteration order, or a salted
//! hasher's value, can only reach an output if the code names one, so
//! flagging every name needs no type information. Ordered collections
//! (`BTreeMap`, `BTreeSet`) and fixed-seed hashes are the alternatives.
//! CD002 (salted hashers) and CD006 (`derive(Hash)`-keyed maps in
//! scheduling paths) were retired into it.

use crate::lexer::{lex, Lexed, TokKind, Token};
use std::collections::BTreeSet;

/// One lint finding, addressed by workspace-relative file and line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule id (`CD001`, ...).
    pub rule: &'static str,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// The trimmed source line (capped), for context.
    pub excerpt: String,
}

/// Static metadata for one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The rule catalogue, in id order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "CD000",
        summary: "lint:allow directive is malformed, missing a reason, or unused",
    },
    RuleInfo {
        id: "CD001",
        summary: "std's salted HashMap/HashSet/RandomState/DefaultHasher named in code",
    },
    RuleInfo {
        id: "CD003",
        summary: "wall-clock time source outside crates/sim",
    },
    RuleInfo {
        id: "CD004",
        summary: "ambient RNG, or jitter drawn in a constructor/startup path",
    },
    RuleInfo {
        id: "CD005",
        summary: "panic!/unwrap/expect on cumulo-core's public client surface",
    },
];

/// Files forming `cumulo-core`'s public client surface — the PR 5
/// no-panic contract (typed `TxnError`s instead of panics on misuse).
pub const CORE_PUBLIC_SURFACE: &[&str] = &["crates/core/src/txn_client.rs"];

/// Function-name prefixes treated as constructor/startup paths for
/// CD004's jitter check (ROADMAP: background timers keep fixed phases;
/// drawing jitter at construction shifts calibrated RNG streams).
const STARTUP_PREFIXES: &[&str] = &[
    "new", "build", "start", "init", "restart", "spawn", "boot", "setup", "with_", "default",
];

/// Lints a single in-memory file: lexes, runs every rule, applies
/// suppressions, and returns sorted findings. This is the entry point
/// the fixture tests drive.
pub fn lint_str(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let raw = lint_tokens(rel, &lines, &lexed);
    let (mut findings, _used) = apply_allows(rel, &lines, &lexed, raw);
    findings.sort();
    findings
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

/// Whether the token sequence starting at `i` matches `pat` (idents and
/// puncts compared by text; string tokens never match).
fn is_seq(toks: &[Token], i: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| {
        toks.get(i + k)
            .is_some_and(|t| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == *p)
    })
}

fn excerpt(lines: &[&str], line: u32) -> String {
    let s = lines
        .get(line.saturating_sub(1) as usize)
        .copied()
        .unwrap_or("")
        .trim();
    let mut s = s.to_owned();
    if s.len() > 120 {
        let mut cut = 117;
        while cut > 0 && !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push_str("...");
    }
    s
}

/// Runs every rule over one lexed file, without suppression handling.
pub fn lint_tokens(rel: &str, lines: &[&str], lexed: &Lexed) -> Vec<Finding> {
    let rel_slash = rel.replace('\\', "/");
    let toks = &lexed.tokens;
    let in_sim = rel_slash.starts_with("crates/sim");
    let core_surface = CORE_PUBLIC_SURFACE.contains(&rel_slash.as_str());

    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let push = |seen: &mut BTreeSet<(u32, &'static str)>,
                findings: &mut Vec<Finding>,
                line: u32,
                rule: &'static str,
                message: String| {
        if seen.insert((line, rule)) {
            findings.push(Finding {
                file: rel_slash.clone(),
                line,
                rule,
                message,
                excerpt: excerpt(lines, line),
            });
        }
    };

    // Single pass with enclosing-fn and #[cfg(test)]-region tracking.
    let mut depth = 0usize;
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut cfg_test_pending = false;
    let mut cfg_test_depth: Option<usize> = None;

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                    if cfg_test_pending {
                        cfg_test_pending = false;
                        if cfg_test_depth.is_none() {
                            cfg_test_depth = Some(depth);
                        }
                    }
                }
                "}" => {
                    while fn_stack.last().is_some_and(|(_, d)| *d >= depth) {
                        fn_stack.pop();
                    }
                    if cfg_test_depth.is_some_and(|d| d >= depth) {
                        cfg_test_depth = None;
                    }
                    depth = depth.saturating_sub(1);
                }
                ";" => {
                    pending_fn = None;
                }
                _ => {}
            }
        }
        let in_test = cfg_test_depth.is_some();
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                if let Some(n) = toks.get(i + 1) {
                    if n.kind == TokKind::Ident {
                        pending_fn = Some(n.text.clone());
                    }
                }
            }
            "cfg"
                if is_seq(toks, i.saturating_sub(2), &["#", "["])
                    && is_seq(toks, i + 1, &["(", "test", ")"]) =>
            {
                cfg_test_pending = true;
            }
            // --- CD001: std's salted hash collections and hashers ------
            "HashMap" | "HashSet" | "hash_map" | "hash_set" | "RandomState" | "DefaultHasher" => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD001",
                    format!(
                        "`{}` is std's per-process-salted hashing; use `BTreeMap`/`BTreeSet` \
                         or a fixed-seed hash",
                        t.text
                    ),
                );
            }
            // --- CD003: wall-clock time outside sim --------------------
            "Instant" | "SystemTime" if !in_sim => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD003",
                    format!(
                        "`{}` reads the wall clock; simulated components must use `sim` time",
                        t.text
                    ),
                );
            }
            "std" if !in_sim && is_seq(toks, i + 1, &[":", ":", "time"]) => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD003",
                    "`std::time` outside `crates/sim`; simulated components must use `sim` time"
                        .to_owned(),
                );
            }
            // --- CD004: ambient RNG ------------------------------------
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom" => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD004",
                    format!(
                        "`{}` draws ambient randomness outside the seeded sim RNG",
                        t.text
                    ),
                );
            }
            "rand" if is_seq(toks, i + 1, &[":", ":", "random"]) => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD004",
                    "`rand::random` draws ambient randomness outside the seeded sim RNG".to_owned(),
                );
            }
            "jitter"
                if i > 0
                    && is_punct(&toks[i - 1], ".")
                    && toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) =>
            {
                if let Some((fname, _)) = fn_stack.last() {
                    let f = fname.as_str();
                    if STARTUP_PREFIXES.iter().any(|p| f == *p || f.starts_with(p)) {
                        push(
                            &mut seen,
                            &mut findings,
                            t.line,
                            "CD004",
                            format!(
                                "jitter drawn inside constructor/startup path `fn {f}`: shifts \
                                 calibrated RNG streams (keep fixed phases at startup)"
                            ),
                        );
                    }
                }
            }
            // --- CD005: no-panic contract on the core client surface ---
            "panic" | "unreachable" | "todo" | "unimplemented"
                if core_surface
                    && !in_test
                    && toks.get(i + 1).is_some_and(|n| is_punct(n, "!")) =>
            {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD005",
                    format!(
                        "`{}!` on the public client surface; misuse must surface as `TxnError`",
                        t.text
                    ),
                );
            }
            "unwrap" | "expect"
                if core_surface
                    && !in_test
                    && i > 0
                    && is_punct(&toks[i - 1], ".")
                    && toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) =>
            {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD005",
                    format!(
                        "`.{}()` on the public client surface; misuse must surface as `TxnError`",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
    findings
}

/// Applies `lint:allow` suppressions to `raw` findings and appends
/// CD000 findings for directive-hygiene violations. Returns the
/// surviving findings and the number of directives that suppressed at
/// least one finding.
pub fn apply_allows(
    rel: &str,
    lines: &[&str],
    lexed: &Lexed,
    raw: Vec<Finding>,
) -> (Vec<Finding>, usize) {
    let rel_slash = rel.replace('\\', "/");
    let mut used = vec![false; lexed.allows.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for (ai, a) in lexed.allows.iter().enumerate() {
            if a.parse_error.is_none()
                && a.reason.is_some()
                && a.rules.iter().any(|r| r == f.rule)
                && (f.line == a.line || f.line == a.line + 1)
            {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(f);
        }
    }
    for (ai, a) in lexed.allows.iter().enumerate() {
        let problem = if let Some(err) = &a.parse_error {
            Some(format!("malformed lint:allow directive: {err}"))
        } else if a.reason.is_none() {
            Some("lint:allow directive without a reason (reasons are mandatory)".to_owned())
        } else if !used[ai] {
            Some(format!(
                "unused lint:allow({}) — it suppresses nothing; remove it",
                a.rules.join(", ")
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            out.push(Finding {
                file: rel_slash.clone(),
                line: a.line,
                rule: "CD000",
                message,
                excerpt: excerpt(lines, a.line),
            });
        }
    }
    let used_count = used.iter().filter(|u| **u).count();
    (out, used_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(src: &str) -> Vec<&'static str> {
        lint_str("crates/store/src/x.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn cd001_flags_each_salted_name_once_per_line() {
        for src in [
            "use std::collections::HashMap;",
            "fn f(s: &HashSet<u64>) {}",
            "use std::collections::hash_map::Entry;",
            "fn f(i: hash_set::Iter<'_, u64>) {}",
            "fn f() { let s = RandomState::new(); }",
            "fn f() { let h = std::collections::hash_map::DefaultHasher::new(); }",
            "struct S { m: HashMap<u64, HashSet<u64>> }",
        ] {
            assert_eq!(rules_fired(src), vec!["CD001"], "{src}");
        }
    }

    #[test]
    fn cd001_ordered_collections_are_clean() {
        let src = "fn f(m: &BTreeMap<u64, u64>, s: BTreeSet<u64>) {\n\
                   for (k, v) in m.iter() { emit(k, v); }\n\
                   let hash_mapped = s.into_iter().collect::<Vec<_>>(); }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn cd003_fires_outside_sim_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_fired(src), vec!["CD003"]);
        assert!(lint_str("crates/sim/src/time.rs", src).is_empty());
    }

    #[test]
    fn cd004_ambient_rng_fires() {
        assert_eq!(
            rules_fired("fn f() { let r = thread_rng(); }"),
            vec!["CD004"]
        );
        assert_eq!(
            rules_fired("fn f() { let r: u8 = rand::random(); }"),
            vec!["CD004"]
        );
    }

    #[test]
    fn cd004_jitter_in_startup_fires_but_not_elsewhere() {
        let bad = "impl S { fn start(&self) { let d = self.sim.jitter(base, 0.5); } }";
        assert_eq!(rules_fired(bad), vec!["CD004"]);
        let ok = "impl S { fn on_tick(&self) { let d = self.sim.jitter(base, 0.5); } }";
        assert!(rules_fired(ok).is_empty());
    }

    #[test]
    fn cd005_only_on_core_surface_and_not_in_tests() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert!(rules_fired(src).is_empty());
        let on_surface = lint_str("crates/core/src/txn_client.rs", src);
        assert_eq!(on_surface.len(), 1);
        assert_eq!(on_surface[0].rule, "CD005");
        let test_mod = "#[cfg(test)]\nmod tests { fn f(x: Option<u8>) -> u8 { x.unwrap() } }";
        assert!(lint_str("crates/core/src/txn_client.rs", test_mod).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "struct S {\n\
                   // lint:allow(CD001, reason = \"a hot index, only probed\")\n\
                   m: HashMap<u64, u64>,\n}";
        assert!(lint_str("crates/store/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_cd000_and_does_not_suppress() {
        let src = "struct S {\n\
                   // lint:allow(CD001)\n\
                   m: HashMap<u64, u64>,\n}";
        let fired = rules_fired(src);
        assert_eq!(fired, vec!["CD000", "CD001"]);
    }

    #[test]
    fn unused_allow_is_cd000() {
        let src = "// lint:allow(CD001, reason = \"nothing here\")\nfn f() {}";
        assert_eq!(rules_fired(src), vec!["CD000"]);
    }

    #[test]
    fn findings_inside_strings_or_comments_never_fire() {
        let src = "fn f() { let s = \"thread_rng HashMap Instant\"; // thread_rng HashSet\n }";
        assert!(rules_fired(src).is_empty());
    }
}

//! The determinism rule engine.
//!
//! Rules run over the token stream of one file at a time (plus one
//! workspace-wide pre-pass collecting `derive(Hash)` type names for
//! CD006) and emit [`Finding`]s. Suppression is per-site via
//! `lint:allow` line comments that *must* carry a reason (see
//! [`crate::lexer::AllowDirective`]); directive hygiene itself is
//! enforced as rule CD000.
//!
//! # Rule catalogue
//!
//! | id | what it catches |
//! |-------|------------------------------------------------------------|
//! | CD000 | malformed / reason-less / unused `lint:allow` directives |
//! | CD001 | `HashMap`/`HashSet` iteration that may escape in nondeterministic order (no adjacent sort, no order-independent reduction in the same statement) |
//! | CD002 | `RandomState` / `DefaultHasher` / ambient hasher construction |
//! | CD003 | wall-clock time (`Instant`, `SystemTime`, `std::time`) outside `crates/sim` |
//! | CD004 | ambient RNG (`thread_rng`, `rand::random`, `from_entropy`, `OsRng`) anywhere, and `.jitter(...)` drawn in constructor/startup paths |
//! | CD005 | `panic!` / `.unwrap()` / `.expect()` on `cumulo-core`'s public client surface (the no-panic contract) |
//! | CD006 | `derive(Hash)`-keyed `HashMap`/`HashSet` declared in scheduling or output paths (flagged for review) |
//!
//! The engine is deliberately heuristic: it has no type information, so
//! it tracks names whose declarations mention `HashMap`/`HashSet` in the
//! same file. A conservative false positive costs one annotated reason;
//! a silent false negative costs a baseline divergence hunt — the
//! trade-off is intentional.

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
        summary: "HashMap/HashSet iteration may escape in nondeterministic order",
    },
    RuleInfo {
        id: "CD002",
        summary: "randomly seeded hasher construction (RandomState/DefaultHasher)",
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
    RuleInfo {
        id: "CD006",
        summary: "derive(Hash)-keyed collection in a scheduling/output path",
    },
];

/// Files forming `cumulo-core`'s public client surface — the PR 5
/// no-panic contract (typed `TxnError`s instead of panics on misuse).
pub const CORE_PUBLIC_SURFACE: &[&str] = &["crates/core/src/txn_client.rs"];

/// Map-iteration adaptors whose order is the hasher's order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Terminal adaptors that are order-independent reductions: iteration
/// order cannot reach the result.
const REDUCTIONS: &[&str] = &[
    "sum",
    "product",
    "count",
    "min",
    "max",
    "fold",
    "all",
    "any",
    "len",
    "is_empty",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "reduce",
];

/// Function-name prefixes treated as constructor/startup paths for
/// CD004's jitter check (ROADMAP: background timers keep fixed phases;
/// drawing jitter at construction shifts calibrated RNG streams).
const STARTUP_PREFIXES: &[&str] = &[
    "new", "build", "start", "init", "restart", "spawn", "boot", "setup", "with_", "default",
];

/// Lints a single in-memory file: lexes, runs every rule, applies
/// suppressions, and returns sorted findings. `derive(Hash)` names for
/// CD006 are collected from this file alone. This is the entry point
/// the fixture and mutation tests drive.
pub fn lint_str(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let hash_types = hash_derived_types(&lexed.tokens);
    let raw = lint_tokens(rel, &lines, &lexed, &hash_types, &BTreeSet::new());
    let (mut findings, _used) = apply_allows(rel, &lines, &lexed, raw);
    findings.sort();
    findings
}

/// Collects `#[derive(..., Hash, ...)]` struct/enum names.
pub fn hash_derived_types(toks: &[Token]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_seq(toks, i, &["#", "[", "derive", "("]) {
            // Scan the derive list for `Hash`.
            let mut j = i + 4;
            let mut saw_hash = false;
            while j < toks.len() && !is_punct(&toks[j], ")") {
                if toks[j].kind == TokKind::Ident && toks[j].text == "Hash" {
                    saw_hash = true;
                }
                j += 1;
            }
            if saw_hash {
                // Find the following struct/enum name, skipping other
                // attributes and doc attrs.
                let mut k = j;
                while k < toks.len() {
                    if toks[k].kind == TokKind::Ident
                        && matches!(toks[k].text.as_str(), "struct" | "enum" | "union")
                    {
                        if let Some(name) = toks.get(k + 1) {
                            if name.kind == TokKind::Ident {
                                out.insert(name.text.clone());
                            }
                        }
                        break;
                    }
                    // Give up if we hit an item body first.
                    if is_punct(&toks[k], "{") || is_punct(&toks[k], ";") {
                        break;
                    }
                    k += 1;
                }
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Whether `rel` is a scheduling or output path for CD006: the event
/// kernel and its services (`crates/sim/src`), the bench/report layer
/// (`crates/bench/src`), and any metrics/trace/report module elsewhere.
fn is_sched_or_output_path(rel: &str) -> bool {
    let rel = rel.replace('\\', "/");
    rel.starts_with("crates/sim/src")
        || rel.starts_with("crates/bench/src")
        || rel.ends_with("/metrics.rs")
        || rel.ends_with("/trace.rs")
        || rel.ends_with("/report.rs")
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
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

/// Names whose declarations in this file mention `HashMap`/`HashSet`:
/// `name: ... HashMap<...>` ascriptions (locals, params, struct fields,
/// struct-literal inits) and `let name = HashMap::new()`-style bindings.
pub fn map_typed_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        // `name : <type containing HashMap/HashSet>`
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| is_punct(t, ":"))
            && !toks.get(i + 2).is_some_and(|t| is_punct(t, ":"))
            && !(i > 0 && is_punct(&toks[i - 1], ":"))
        {
            let mut angle = 0i32;
            for j in i + 2..(i + 42).min(toks.len()) {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle -= 1,
                        "," | ";" | ")" | "{" | "=" | "|" if angle <= 0 => break,
                        _ => {}
                    }
                } else if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                    names.insert(toks[i].text.clone());
                    break;
                }
            }
        }
        // `let [mut] name = ... HashMap::... / HashSet::...`
        if is_ident(&toks[i], "let") {
            let mut ni = i + 1;
            if toks.get(ni).is_some_and(|t| is_ident(t, "mut")) {
                ni += 1;
            }
            let Some(name) = toks.get(ni) else { continue };
            if name.kind != TokKind::Ident {
                continue;
            }
            if !toks.get(ni + 1).is_some_and(|t| is_punct(t, "=")) {
                continue;
            }
            for t in toks.iter().skip(ni + 2).take(78) {
                if is_punct(t, ";") {
                    break;
                }
                if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                    names.insert(name.text.clone());
                    break;
                }
            }
        }
    }
    names
}

/// Identifier components of the method-receiver chain ending just
/// before the `.` at `dot`: for `self.v.borrow().keys()` with `dot` at
/// the final `.`, returns `[self, v, borrow]`.
fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = dot;
    let mut steps = 0;
    while k > 0 && steps < 16 {
        k -= 1;
        steps += 1;
        let t = &toks[k];
        match t.kind {
            TokKind::Ident => out.push(t.text.clone()),
            // `:` is deliberately excluded: it would walk across a
            // struct-literal field boundary (`field: expr.iter()`) and
            // wrongly attribute the iteration to the field name.
            TokKind::Punct if matches!(t.text.as_str(), "." | "(" | ")" | "&" | "?") => {}
            _ => break,
        }
    }
    out
}

/// `[start, end)` token bounds of the statement containing `idx`; `end`
/// stops *at* the terminating `;` or at a `{` opening a block (so a
/// `for` header's statement is just the header).
fn stmt_bounds(toks: &[Token], idx: usize) -> (usize, usize) {
    let mut start = idx;
    while start > 0 {
        let t = &toks[start - 1];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let mut end = idx;
    let mut paren = 0i32;
    while end < toks.len() && end < idx + 240 {
        let t = &toks[end];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren <= 0 => break,
                "{" if paren <= 0 => break,
                _ => {}
            }
        }
        end += 1;
    }
    (start, end)
}

/// Whether `toks[range]` contains an order-independent reduction call,
/// a sort, or a collect into an ordered B-tree collection.
fn has_order_independent_marker(toks: &[Token], start: usize, end: usize) -> bool {
    for j in start..end.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "BTreeMap" || t.text == "BTreeSet" || t.text.starts_with("sort") {
            return true;
        }
        if REDUCTIONS.contains(&t.text.as_str()) {
            let next = toks.get(j + 1);
            if next.is_some_and(|n| is_punct(n, "(") || is_punct(n, ":")) {
                return true;
            }
        }
    }
    false
}

/// Whether the statement *after* `end` (which points at a `;`) sorts —
/// the `let mut v = map.iter().collect(); v.sort();` idiom.
fn next_stmt_sorts(toks: &[Token], end: usize) -> bool {
    if !toks.get(end).is_some_and(|t| is_punct(t, ";")) {
        return false;
    }
    let mut j = end + 1;
    let mut paren = 0i32;
    while j < toks.len() && j < end + 90 {
        let t = &toks[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" if paren <= 0 => return false,
                _ => {}
            }
        } else if t.kind == TokKind::Ident && t.text.starts_with("sort") {
            return true;
        }
        j += 1;
    }
    false
}

/// Runs every rule over one lexed file, without suppression handling.
/// `inherited_maps` are hash-typed names declared outside this file that
/// its code can still reach by name (see [`map_typed_names`]).
pub fn lint_tokens(
    rel: &str,
    lines: &[&str],
    lexed: &Lexed,
    hash_types: &BTreeSet<String>,
    inherited_maps: &BTreeSet<String>,
) -> Vec<Finding> {
    let rel_slash = rel.replace('\\', "/");
    let toks = &lexed.tokens;
    let mut map_names = map_typed_names(toks);
    map_names.extend(inherited_maps.iter().cloned());
    let in_sim = rel_slash.starts_with("crates/sim");
    let core_surface = CORE_PUBLIC_SURFACE.contains(&rel_slash.as_str());
    let sched_out = is_sched_or_output_path(&rel_slash);

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
            // --- CD001: map iteration ----------------------------------
            m if ITER_METHODS.contains(&m)
                && i > 0
                && is_punct(&toks[i - 1], ".")
                && toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) =>
            {
                let chain = receiver_chain(toks, i - 1);
                if chain.iter().any(|c| map_names.contains(c)) {
                    let (s, e) = stmt_bounds(toks, i);
                    if !has_order_independent_marker(toks, s, e) && !next_stmt_sorts(toks, e) {
                        let who = chain
                            .iter()
                            .find(|c| map_names.contains(c.as_str()))
                            .cloned()
                            .unwrap_or_default();
                        push(
                            &mut seen,
                            &mut findings,
                            t.line,
                            "CD001",
                            format!(
                                "iteration over hash-ordered `{who}` via `.{m}()` escapes without \
                                 an adjacent sort or order-independent reduction"
                            ),
                        );
                    }
                }
            }
            // --- CD001: `for _ in <map>` -------------------------------
            "for" => {
                // Find `in` at paren depth 0, then scan the iterated
                // expression up to the body `{`.
                let mut paren = 0i32;
                let mut j = i + 1;
                let mut in_at = None;
                while j < toks.len() && j < i + 40 {
                    let u = &toks[j];
                    if u.kind == TokKind::Punct {
                        match u.text.as_str() {
                            "(" | "[" => paren += 1,
                            ")" | "]" => paren -= 1,
                            "{" if paren <= 0 => break,
                            _ => {}
                        }
                    } else if u.kind == TokKind::Ident && u.text == "in" && paren <= 0 {
                        in_at = Some(j);
                        break;
                    }
                    j += 1;
                }
                let Some(in_at) = in_at else { continue };
                let mut paren = 0i32;
                for k in in_at + 1..(in_at + 60).min(toks.len()) {
                    let u = &toks[k];
                    if u.kind == TokKind::Punct {
                        match u.text.as_str() {
                            "(" | "[" => paren += 1,
                            ")" | "]" => paren -= 1,
                            "{" if paren <= 0 => break,
                            _ => {}
                        }
                    } else if u.kind == TokKind::Ident && map_names.contains(&u.text) {
                        // A later `.iter()` in the same header is caught
                        // above; this also catches bare `for k in &map`.
                        let (s, e) = stmt_bounds(toks, k);
                        if !has_order_independent_marker(toks, s, e) {
                            push(
                                &mut seen,
                                &mut findings,
                                u.line,
                                "CD001",
                                format!(
                                    "`for` loop over hash-ordered `{}`: body runs in \
                                     nondeterministic order",
                                    u.text
                                ),
                            );
                        }
                        break;
                    }
                }
            }
            // --- CD002: randomly seeded hashers ------------------------
            "RandomState" | "DefaultHasher" => {
                push(
                    &mut seen,
                    &mut findings,
                    t.line,
                    "CD002",
                    format!(
                        "`{}` constructs a hasher with an unpinned seed; use a fixed-seed hasher",
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
            // --- CD006: derive(Hash)-keyed collections in sched/output -
            "HashMap" | "HashSet"
                if sched_out && toks.get(i + 1).is_some_and(|n| is_punct(n, "<")) =>
            {
                if let Some(key) = toks.get(i + 2) {
                    if key.kind == TokKind::Ident && hash_types.contains(&key.text) {
                        push(
                            &mut seen,
                            &mut findings,
                            t.line,
                            "CD006",
                            format!(
                                "`{}<{}>` keyed by a derive(Hash) type in a scheduling/output \
                                 path; review that its ordering never escapes",
                                t.text, key.text
                            ),
                        );
                    }
                }
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
    fn cd001_for_loop_over_map_fires() {
        let src = "fn f(m: &HashMap<u64, u64>) { for (k, v) in m.iter() { emit(k, v); } }";
        assert_eq!(rules_fired(src), vec!["CD001"]);
    }

    #[test]
    fn cd001_bare_for_over_map_fires() {
        let src =
            "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for kv in &m { emit(kv); } }";
        assert_eq!(rules_fired(src), vec!["CD001"]);
    }

    #[test]
    fn cd001_reduction_is_clean() {
        let src = "fn f(m: &HashMap<u64, u64>) -> u64 { m.values().sum() }";
        assert!(rules_fired(src).is_empty());
        let src = "fn g(m: &HashSet<u64>) -> usize { m.iter().count() }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn cd001_adjacent_sort_is_clean() {
        let src = "fn f(m: &HashMap<u64, u64>) -> Vec<u64> {\n\
                   let mut v: Vec<u64> = m.keys().copied().collect();\n\
                   v.sort_unstable();\n v }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn cd001_collect_into_btree_is_clean() {
        let src =
            "fn f(m: &HashMap<u64, u64>) -> BTreeMap<u64, u64> { m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>() }";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn cd001_through_refcell_borrow_fires() {
        let src = "struct S { v: Rc<RefCell<HashMap<u64, u64>>> }\n\
                   impl S { fn f(&self) { for k in self.v.borrow().keys() { emit(k); } } }";
        assert_eq!(rules_fired(src), vec!["CD001"]);
    }

    #[test]
    fn cd001_sees_a_map_field_its_parent_module_declares() {
        // `server/storage.rs` iterating a field `server/mod.rs` declares.
        let src = "impl S { fn f(&self) { for k in self.v.borrow().keys() { emit(k); } } }";
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let fired = |inherited: &[&str]| {
            let inherited = inherited.iter().map(|n| n.to_string()).collect();
            lint_tokens("a/b.rs", &lines, &lexed, &BTreeSet::new(), &inherited)
        };
        assert!(
            fired(&[]).is_empty(),
            "nothing in this file says `v` is a map"
        );
        assert_eq!(fired(&["v"]).len(), 1);
        assert_eq!(fired(&["v"])[0].rule, "CD001");
    }

    #[test]
    fn cd002_fires() {
        assert_eq!(
            rules_fired("fn f() { let s = RandomState::new(); }"),
            vec!["CD002"]
        );
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
    fn cd006_fires_in_sched_output_paths() {
        let src = "#[derive(Copy, Clone, PartialEq, Eq, Hash)]\nstruct NodeId(u64);\n\
                   struct Net { links: HashMap<NodeId, u64> }";
        let f = lint_str("crates/sim/src/net.rs", src);
        // The links field also registers as a map name but is never
        // iterated, so only CD006 fires.
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "CD006");
        assert!(lint_str("crates/store/src/server.rs", src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_is_used() {
        let src = "fn f(m: &HashMap<u64, u64>) {\n\
                   // lint:allow(CD001, reason = \"order-independent accumulation\")\n\
                   for (k, v) in m.iter() { acc(k, v); }\n}";
        assert!(lint_str("crates/store/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_cd000_and_does_not_suppress() {
        let src = "fn f(m: &HashMap<u64, u64>) {\n\
                   // lint:allow(CD001)\n\
                   for (k, v) in m.iter() { acc(k, v); }\n}";
        let fired = rules_fired(src);
        assert_eq!(fired, vec!["CD000", "CD001"]);
    }

    #[test]
    fn unused_allow_is_cd000() {
        let src = "// lint:allow(CD002, reason = \"nothing here\")\nfn f() {}";
        assert_eq!(rules_fired(src), vec!["CD000"]);
    }

    #[test]
    fn findings_inside_strings_or_comments_never_fire() {
        let src = "fn f() { let s = \"thread_rng RandomState Instant\"; // thread_rng\n }";
        assert!(rules_fired(src).is_empty());
    }
}

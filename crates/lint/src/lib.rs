//! **cumulo-lint** — a workspace determinism linter.
//!
//! The whole reproduction rests on one invariant: *same seed ⇒
//! byte-identical runs*. It is what makes the recovery chaos suites,
//! the pinned bench baselines and every CI double-run diff meaningful.
//! This crate enforces the invariant's known failure modes *statically*,
//! at `cargo` time, instead of at baseline-divergence time:
//!
//! * hash-ordered iteration escaping into ordered context (CD001, CD006)
//! * randomly seeded hashers (CD002)
//! * wall-clock time in simulated components (CD003)
//! * ambient RNG and startup-path jitter draws (CD004)
//! * panics on the core client surface (CD005)
//! * suppression-comment hygiene (CD000)
//!
//! See [`rules`] for the catalogue and `ARCHITECTURE.md`'s
//! "Determinism & static analysis" section for rationale and examples.
//!
//! The pipeline: [`walker`] discovers every file the workspace compiles
//! (following `mod` declarations from each crate root), [`lexer`] turns
//! each file into a comment/string/raw-string-aware token stream,
//! [`rules`] runs the checks and applies `lint:allow` suppressions, and
//! [`report`] renders human text or deterministic JSON.
//!
//! # Example
//!
//! ```
//! use cumulo_lint::rules::lint_str;
//!
//! let findings = lint_str(
//!     "crates/store/src/demo.rs",
//!     "fn f(m: &HashMap<u64, u64>) { for k in m.keys() { emit(k); } }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "CD001");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod walker;

use report::LintReport;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Lints every file reachable from the workspace's crate roots.
///
/// `root` is the workspace root. The `derive(Hash)` type inventory for
/// CD006 is collected across the whole workspace before per-file rules
/// run, so a type derived in `crates/store` is recognised when keyed
/// into a map in `crates/sim`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let files = walker::workspace_files(root);
    let mut sources: Vec<(String, String, lexer::Lexed)> = Vec::new();
    for f in &files {
        let Ok(src) = std::fs::read_to_string(root.join(f)) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        let rel = f.to_string_lossy().replace('\\', "/");
        sources.push((rel, src, lexed));
    }
    let mut hash_types: BTreeSet<String> = BTreeSet::new();
    for (_, _, lexed) in &sources {
        hash_types.extend(rules::hash_derived_types(&lexed.tokens));
    }
    let mut report = LintReport {
        files_scanned: sources.len(),
        ..LintReport::default()
    };
    // The files beside a `mod.rs` are its child modules, and child modules
    // see the private fields of the types their parent declares: a
    // `HashMap` field named in `server/mod.rs` is iterated by that name
    // in `server/storage.rs`, so CD001 has to know the name there too.
    let parent_maps: BTreeMap<&str, BTreeSet<String>> = sources
        .iter()
        .filter_map(|(rel, _, lexed)| {
            let dir = rel.strip_suffix("/mod.rs")?;
            Some((dir, rules::map_typed_names(&lexed.tokens)))
        })
        .collect();
    let no_maps = BTreeSet::new();
    for (rel, src, lexed) in &sources {
        let lines: Vec<&str> = src.lines().collect();
        let dir = rel.rsplit_once('/').map_or("", |(dir, _)| dir);
        let inherited = parent_maps.get(dir).unwrap_or(&no_maps);
        let raw = rules::lint_tokens(rel, &lines, lexed, &hash_types, inherited);
        let (kept, used) = rules::apply_allows(rel, &lines, lexed, raw);
        report.findings.extend(kept);
        report.allows_total += lexed.allows.len();
        report.allows_used += used;
    }
    report.findings.sort();
    report
}

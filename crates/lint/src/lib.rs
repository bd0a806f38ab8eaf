//! **cumulo-lint** — a workspace determinism linter.
//!
//! The whole reproduction rests on one invariant: *same seed ⇒
//! byte-identical runs*. It is what makes the recovery chaos suites,
//! the pinned bench baselines and every CI double-run diff meaningful.
//! This crate enforces the invariant's known failure modes *statically*,
//! at `cargo` time, instead of at baseline-divergence time:
//!
//! * std's per-process-salted hash collections and hashers (CD001)
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
//!     "fn f(m: &HashMap<u64, u64>) -> usize { m.len() }",
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
use std::path::Path;

/// Lints every file reachable from the workspace's crate roots.
///
/// `root` is the workspace root. Every rule is file-local, so each file
/// is lexed, linted and has its suppressions applied on its own.
pub fn lint_workspace(root: &Path) -> LintReport {
    let mut report = LintReport::default();
    for f in walker::workspace_files(root) {
        let Ok(src) = std::fs::read_to_string(root.join(&f)) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        let rel = f.to_string_lossy().replace('\\', "/");
        let lines: Vec<&str> = src.lines().collect();
        let raw = rules::lint_tokens(&rel, &lines, &lexed);
        let (kept, used) = rules::apply_allows(&rel, &lines, &lexed, raw);
        report.findings.extend(kept);
        report.files_scanned += 1;
        report.allows_total += lexed.allows.len();
        report.allows_used += used;
    }
    report.findings.sort();
    report
}

//! Seeded mutation test: builds a scratch workspace on disk, injects a
//! salted `HashMap` or `HashSet` at a seeded-random position in an
//! otherwise clean module, and asserts the full pipeline (walker →
//! lexer → rules → suppressions) reports exactly that file and line.
//! This is the linter's own "does the alarm actually ring" check — a
//! lexer or walker regression that silently drops files or findings
//! fails here, not in a future baseline-divergence hunt.

use cumulo_lint::lint_workspace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

/// Clean statements the scratch module is assembled from. None of them
/// trips any rule.
const CLEAN_STMTS: &[&str] = &[
    "    let a = keyed.len();",
    "    let b: u64 = keyed.values().sum();",
    "    for (k, v) in keyed.iter() { sink(*k + *v); }",
    "    sink(a as u64);",
    "    sink(b);",
    "    // a HashMap named in a comment is not code",
];

/// Salted collections to inject, one at a time.
const VIOLATIONS: &[&str] = &[
    "    let m: std::collections::HashMap<u64, u64> = Default::default();",
    "    let s = std::collections::HashSet::<u64>::new();",
    "    let copy: HashMap<u64, u64> = keyed.iter().map(|(k, v)| (*k, *v)).collect();",
];

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cumulo_lint_mutation_{}_{tag}", std::process::id()))
}

fn write_scratch_workspace(root: &Path, module_body: &str) {
    let src = root.join("m").join("src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\n    \"m\",\n]\n",
    )
    .unwrap();
    fs::write(
        root.join("m").join("Cargo.toml"),
        "[package]\nname = \"m\"\nversion = \"0.1.0\"\n",
    )
    .unwrap();
    fs::write(src.join("lib.rs"), "mod mutated;\n").unwrap();
    fs::write(src.join("mutated.rs"), module_body).unwrap();
}

fn module_with(stmts: &[&str]) -> String {
    let mut out = String::from(
        "use std::collections::BTreeMap;\n\n\
         fn exercise(keyed: &BTreeMap<u64, u64>) {\n",
    );
    for s in stmts {
        out.push_str(s);
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

#[test]
fn injected_hash_map_is_detected_clean_module_is_not() {
    let mut rng = StdRng::seed_from_u64(0x00C0_D001);
    for round in 0..8u32 {
        let root = scratch_root(&round.to_string());
        let _ = fs::remove_dir_all(&root);

        // Baseline: the clean module must produce zero findings.
        let clean = module_with(CLEAN_STMTS);
        write_scratch_workspace(&root, &clean);
        let report = lint_workspace(&root);
        assert!(
            report.findings.is_empty(),
            "round {round}: clean scratch module produced findings: {:?}",
            report.findings
        );
        assert_eq!(
            report.files_scanned, 2,
            "round {round}: walker must reach lib.rs and mutated.rs"
        );

        // Mutate: splice one violation at a seeded-random statement slot.
        let violation = VIOLATIONS[rng.gen_range(0usize..VIOLATIONS.len())];
        let slot = rng.gen_range(0usize..CLEAN_STMTS.len() + 1);
        let mut stmts: Vec<&str> = CLEAN_STMTS.to_vec();
        stmts.insert(slot, violation);
        let mutated = module_with(&stmts);
        write_scratch_workspace(&root, &mutated);
        let report = lint_workspace(&root);
        let expected_line = 3 + slot as u32 + 1; // header is 3 lines, slots follow
        assert_eq!(
            report
                .findings
                .iter()
                .map(|f| (f.file.as_str(), f.line, f.rule))
                .collect::<Vec<_>>(),
            vec![("m/src/mutated.rs", expected_line, "CD001")],
            "round {round}: injected violation (slot {slot}) not pinpointed"
        );

        let _ = fs::remove_dir_all(&root);
    }
}

//! Fixture corpus: every file under `tests/fixtures/` is linted as if it
//! sat at a virtual workspace path, and the findings must match the
//! trailing `//~ CDnnn` markers exactly — same line, same rule id, no
//! extras in either direction. Fixtures are lexed, never compiled, so
//! they can show violations without breaking the build.

use cumulo_lint::rules::lint_str;

/// (fixture name, virtual workspace path it is linted under, source).
/// The virtual path drives the path-scoped rules: CD003 is exempt under
/// `crates/sim`, and CD005 only fires on the core client surface.
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "cd001_salted.rs",
        "crates/store/src/fixture.rs",
        include_str!("fixtures/cd001_salted.rs"),
    ),
    (
        "cd001_ordered.rs",
        "crates/sim/src/metrics.rs",
        include_str!("fixtures/cd001_ordered.rs"),
    ),
    (
        "cd001_field_decl.rs",
        "crates/store/src/table.rs",
        include_str!("fixtures/cd001_field_decl.rs"),
    ),
    (
        "cd001_field_use.rs",
        "crates/store/src/reader.rs",
        include_str!("fixtures/cd001_field_use.rs"),
    ),
    (
        "cd001_cd003.rs",
        "crates/store/src/fixture.rs",
        include_str!("fixtures/cd001_cd003.rs"),
    ),
    (
        "cd003_sim_ok.rs",
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/cd003_sim_ok.rs"),
    ),
    (
        "cd004_rng.rs",
        "crates/store/src/fixture.rs",
        include_str!("fixtures/cd004_rng.rs"),
    ),
    (
        "cd005_surface.rs",
        "crates/core/src/txn_client.rs",
        include_str!("fixtures/cd005_surface.rs"),
    ),
    (
        "cd000_allows.rs",
        "crates/store/src/fixture.rs",
        include_str!("fixtures/cd000_allows.rs"),
    ),
];

fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for id in line[pos + 3..].split_whitespace() {
                out.push((i as u32 + 1, id.to_owned()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn fixtures_match_expected_findings() {
    for (name, vpath, src) in FIXTURES {
        let expected = expected_markers(src);
        let mut got: Vec<(u32, String)> = lint_str(vpath, src)
            .into_iter()
            .map(|f| (f.line, f.rule.to_owned()))
            .collect();
        got.sort();
        assert_eq!(
            got, expected,
            "fixture {name} (as {vpath}): findings diverge from //~ markers"
        );
    }
}

#[test]
fn every_rule_id_is_exercised_by_some_fixture() {
    let exercised: std::collections::BTreeSet<String> = FIXTURES
        .iter()
        .flat_map(|(_, _, src)| expected_markers(src))
        .map(|(_, id)| id)
        .collect();
    for rule in cumulo_lint::rules::RULES {
        assert!(
            exercised.contains(rule.id),
            "rule {} has no failing fixture coverage",
            rule.id
        );
    }
}

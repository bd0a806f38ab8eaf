//! The configuration surface, pinned. `ClusterConfig::default()` printed
//! field by field is every knob the system exposes and the value it
//! ships with, so a PR that adds a knob or flips a default shows up as a
//! diff of `tests/baselines/cluster_config_default.txt` — and a PR that
//! does neither leaves the file alone. What is *not* in it is a
//! constant beside its reader (ARCHITECTURE.md, "Configuration").
//!
//! To re-pin after a deliberate change, replace the file with the `got`
//! text this test prints.

use cumulo_core::ClusterConfig;

#[test]
fn default_cluster_config_matches_the_pinned_surface() {
    let got = format!("{:#?}\n", ClusterConfig::default());
    let want = include_str!("baselines/cluster_config_default.txt");
    assert_eq!(
        got, want,
        "the configuration surface moved: a knob was added or removed, or a default flipped.\n\
         got:\n{got}"
    );
}

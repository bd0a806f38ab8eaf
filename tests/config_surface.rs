//! The configuration surface, pinned. `ClusterConfig::default()` printed
//! field by field is every knob the system exposes and the value it
//! ships with, so a PR that adds a knob or flips a default shows up as a
//! diff of `tests/baselines/cluster_config_default.txt` — and a PR that
//! does neither leaves the file alone. What is *not* in it is a
//! constant beside its reader (ARCHITECTURE.md, "Configuration").
//!
//! The metric surface is pinned the same way: the sorted keys (no
//! values) of the default cluster's registry snapshot are
//! `tests/baselines/metrics_keys_default.txt`, so a metric added, lost or
//! relabelled is a diff of that file.
//!
//! To re-pin after a deliberate change, replace the file with the `got`
//! text the failing test prints.

use cumulo_core::{Cluster, ClusterConfig};

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

#[test]
fn default_cluster_metric_keys_match_the_pinned_surface() {
    let snapshot = Cluster::build(ClusterConfig::default()).metrics.snapshot();
    let got: String = snapshot
        .entries()
        .map(|(key, _)| format!("{key}\n"))
        .collect();
    let want = include_str!("baselines/metrics_keys_default.txt");
    assert_eq!(
        got, want,
        "the metric surface moved: a key was added, lost or relabelled.\ngot:\n{got}"
    );
}

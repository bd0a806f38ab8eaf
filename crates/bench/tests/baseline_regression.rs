//! Pinned bench CSVs. Two of them are replication-off output baselines:
//! with `region_replication` at its default of 1, the replication
//! subsystem must be completely inert — no extra messages, no extra RNG
//! draws, no timer phase shifts. The strongest cheap probe of that is
//! byte-identity of the calibrated bench CSVs: a single stray `net.send`
//! or reordered HashMap iteration anywhere near the scheduling path
//! shifts the jitter stream and diverges every number downstream.
//!
//! The third pins the other half of the structure-change protocol:
//! `split_bench` only splits, while `scale_bench --quick` also merges,
//! moves and fails over (106 splits, 29 merges, 4 moves and two
//! failovers by its last phase).
//!
//! The fourth is the only pinned output that runs with replication *on*:
//! `failover_bench`'s promotion mode ships every write to a backup lane,
//! syncs after flushes and promotes two shadows, so its journal instants
//! move if the ship/ack/gate stream takes a different step.
//!
//! What each pin was captured on. `policy_compare` and `split_bench`:
//! before the replication subsystem existed, byte-identical through
//! every PR up to 18. `scale_bench`: c0717f2, the last commit with
//! separate split and merge pipelines, re-pinned once by PR 16 when the
//! two failovers got shorter (the failed server's split WAL reaches the
//! next host as a store file, its replay is staged once and windowed).
//! `failover_bench`: c2c9aa2, the last commit with three ship and three
//! apply paths, once the bench read its instants from the event journal.
//! **PR 19 re-pinned all four together, in one commit made after the
//! change, because commit latency fell**: the recovery log's group commit
//! lost its 1 ms tick (≈ 0.5 ms off every writing commit), and a faster
//! commit shifts every transaction-driven schedule — when the next
//! transaction of a closed loop starts, which flush a write lands in,
//! what the load-aware placement sees. Each bin ran to completion on the
//! new tree with its own assertions green before its output was taken
//! (promotion still strictly shrinks the failover window; `scale_bench`
//! still merges and moves); CHANGES.md, PR 19, has the before and after
//! rows. `crates/store/tests/cluster_behavior.rs`'s three pins run no
//! transaction manager and did not move.
//! **PR 20 re-pinned two rows of `policy_compare` and dropped one column
//! of `scale_bench`, in one commit with their two causes.**
//! The store client's switch for scan continuation is gone, and with it
//! the two lines that turned it off here, so the `scan_heavy` phase times the
//! scan the system ships instead of one truncated at the first region boundary.
//! A full scan costs more than a truncated one: `size_tiered` 560.2 tps /
//! 42.62 ms mean / 88.08 ms p99 → 542.4 / 44.01 / 90.18, `leveled` 548.4 /
//! 43.56 / 90.18 → 529.8 / 45.04 / 94.37. The other six rows are
//! byte-identical — `write_heavy` and `mixed` run before any scan and the
//! two `storm` rows never scan, so the flag was inert there.
//! The master's shadow counter of placement work nobody does is gone with
//! its column: `cut -d, -f1-15` of the old `scale_bench` file is the new
//! one. `split_bench` and `failover_bench` did not move.
//!
//! The last four pin the paper's figures (`fig2a`, `fig2b`, `fig3`) and
//! the `ablations`; see `assert_figure_pinned`.

use std::process::Command;

fn run_quick(bin: &str) -> String {
    run(Command::new(bin).env("CUMULO_QUICK", "1"), bin)
}

fn run(command: &mut Command, bin: &str) -> String {
    let out = command
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("CSV output is UTF-8")
}

#[test]
fn policy_compare_csv_matches_pre_replication_baseline() {
    let got = run_quick(env!("CARGO_BIN_EXE_policy_compare"));
    let want = include_str!("baselines/policy_compare_quick.csv");
    assert_eq!(
        got, want,
        "policy_compare CSV diverged from the replication-off baseline: \
         something perturbed the default-path event or RNG stream"
    );
}

#[test]
fn split_bench_csv_matches_pre_replication_baseline() {
    let got = run_quick(env!("CARGO_BIN_EXE_split_bench"));
    let want = include_str!("baselines/split_bench_quick.csv");
    assert_eq!(
        got, want,
        "split_bench CSV diverged from the replication-off baseline: \
         something perturbed the default-path event or RNG stream"
    );
}

#[test]
fn scale_bench_csv_matches_pinned_baseline() {
    let bin = env!("CARGO_BIN_EXE_scale_bench");
    // This bin takes its quick mode as an argument, not from the
    // environment.
    let got = run(Command::new(bin).arg("--quick"), bin);
    let want = include_str!("baselines/scale_bench_quick.csv");
    assert_eq!(
        got, want,
        "scale_bench CSV diverged from the pinned baseline: a split, merge, \
         move or failover took a different step, or something perturbed the \
         event or RNG stream"
    );
}

#[test]
fn failover_bench_csv_matches_pinned_baseline() {
    let got = run_quick(env!("CARGO_BIN_EXE_failover_bench"));
    let want = include_str!("baselines/failover_bench_quick.csv");
    assert_eq!(
        got, want,
        "failover_bench CSV diverged from the pinned baseline: the replication \
         stream, a promotion or the replay path took a different step"
    );
}

/// The paper's three figures and the ablations, pinned at quick scale on
/// 3ed20b1 — the commit before ISSUE 20 deleted anything — so that
/// retiring bins, switches and counters is proved to move none of them.
fn assert_figure_pinned(bin: &str, want: &str) {
    assert_eq!(
        run_quick(bin),
        want,
        "{bin} CSV diverged from the pinned baseline: a paper figure moved"
    );
}

#[test]
fn fig2a_csv_matches_pinned_baseline() {
    assert_figure_pinned(
        env!("CARGO_BIN_EXE_fig2a"),
        include_str!("baselines/fig2a_quick.csv"),
    );
}

#[test]
fn fig2b_csv_matches_pinned_baseline() {
    assert_figure_pinned(
        env!("CARGO_BIN_EXE_fig2b"),
        include_str!("baselines/fig2b_quick.csv"),
    );
}

#[test]
fn fig3_csv_matches_pinned_baseline() {
    assert_figure_pinned(
        env!("CARGO_BIN_EXE_fig3"),
        include_str!("baselines/fig3_quick.csv"),
    );
}

#[test]
fn ablations_csv_matches_pinned_baseline() {
    assert_figure_pinned(
        env!("CARGO_BIN_EXE_ablations"),
        include_str!("baselines/ablations_quick.csv"),
    );
}

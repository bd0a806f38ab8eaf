//! Online region splits racing the failure-recovery machinery: the
//! split-under-failure suite.
//!
//! A split is a region-map change racing the T_F/T_P recovery protocol.
//! These tests crash the parent's server at the three interesting points
//! of the split lifecycle —
//!
//! 1. **before the split intent is persisted** (the split is only
//!    server-local state),
//! 2. **after the intent is durable but before the map flip** (the
//!    master must roll the split back), and
//! 3. **after the daughters are online in the map** (the daughters
//!    themselves fail over, with pre-split WAL records remapped at the
//!    daughter boundary) —
//!
//! and assert the same invariants every time: the recorded history
//! passes the checker and every written cell reads back as its newest
//! commit wrote it (`common::audit`), bank-transfer totals conserve,
//! every cell is served by exactly one region (parent and daughters
//! never both online), and the region map still partitions the key
//! space.

mod common;

use common::bank::{run_until, Bank};
use common::crash_points::CrashPoints;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;

const ACCOUNTS: u64 = 400;
const INITIAL: i64 = 1_000;
/// The hot prefix: filler traffic lands here so region 0 grows and
/// splits while transfers roam the whole key space.
const HOT: u64 = 100;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// A split-happy cluster: 2 regions, low split threshold, small flushes.
fn split_cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        servers: 3,
        clients: 6,
        regions: 2,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = 48 << 10;
    cfg.server_cfg.memstore_flush_bytes = 12 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.split.check_interval = SimDuration::from_millis(300);
    Cluster::build(cfg)
}

/// The three crash points (`common::crash_points`): a split crash
/// point polls its intent window every 2 ms.
const SPLITS: CrashPoints = CrashPoints {
    kind: ChangeKind::Split,
    cluster: split_cluster,
    load: |cluster, committed, round| BANK.transfer_fill_round(cluster, committed, HOT, round),
    bank: BANK,
    adjacency: false,
    intent_step: SimDuration::from_millis(2),
};

/// Crash point 1: the parent's server dies while a split is pending
/// server-side but *before* any intent reached the filesystem. Nothing
/// durable mentions the split; failover recovers the parent as if the
/// split had never been considered.
#[test]
fn crash_before_intent_persisted_recovers_parent() {
    SPLITS.before_intent(4101, [27_890, 16_952, 16_718, 234]);
}

/// Crash point 2: the intent is durable but the daughters never made it
/// into the region map. The master must roll the split back — the
/// parent's files and WAL still cover everything, and no client ever saw
/// a daughter id — and recover the parent on a surviving server.
#[test]
fn crash_after_intent_before_daughters_online_rolls_back() {
    SPLITS.after_intent(4202, [25_576, 15_460, 15_447, 13]);
}

/// Crash point 3: the split completed — daughters are live in the map
/// and absorbing writes — and *then* their server dies. The daughters
/// fail over like ordinary regions, except their recovered state is made
/// of reference half-files plus WAL records that predate the split (the
/// master remaps those at the daughter boundary).
#[test]
fn crash_after_daughters_online_fails_over_daughters() {
    SPLITS.after_apply(4303, [31_628, 19_111, 18_899, 212]);
}

/// The split switch has one home. A `ClusterConfig` that turns on
/// nothing but `server_cfg.split.enabled` (with a threshold the bulk
/// load crosses) must split: when a top-level alias was copied over the
/// nested field, this setting was silently ignored.
#[test]
fn the_nested_split_flag_alone_turns_splits_on() {
    let mut cfg = ClusterConfig::default();
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = 16 << 10;
    let cluster = Cluster::build(cfg);
    // 2 000 rows of a 500 000-row key space all land in the first region.
    cluster.load_rows(2_000, &["f0"], 100, false);
    let split = run_until(
        &cluster,
        SimDuration::from_millis(500),
        SimDuration::from_secs(20),
        || cluster.metrics.sum("master.split.applied") > 0,
    );
    assert!(
        split,
        "server_cfg.split.enabled = true never split a region"
    );
    cluster.assert_region_partition();
}

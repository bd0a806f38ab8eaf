//! Online region merges racing the failure-recovery machinery: the
//! merge-under-failure suite, the reverse operation of `tests/splits.rs`
//! through the same three crash points.
//!
//! A merge is a region-map change racing the T_F/T_P recovery protocol.
//! These tests crash the merging server at the three interesting points
//! of the merge lifecycle —
//!
//! 1. **before the merge intent is persisted** (the merge is only
//!    server-local state),
//! 2. **after the intent is durable but before the map flip** (the
//!    master must roll the merge back), and
//! 3. **after the merged region is online in the map** (the merged
//!    region itself fails over, its file set made of references over
//!    both daughters' files) —
//!
//! and assert the same invariants every time: the recorded history
//! passes the checker and every written cell reads back as its newest
//! commit wrote it (`common::audit`), bank-transfer totals conserve,
//! every cell is served by exactly one region, and the region map still
//! partitions the key space.
//!
//! Merge candidates need *adjacent co-hosted* regions, which the
//! bootstrap striping never produces. Each schedule therefore starts
//! with a setup crash (`common::crash_for_adjacency`): the failover's
//! load-aware placement puts the victim's regions onto survivors, and the
//! helper asserts that this left an adjacent co-hosted pair for the
//! merge-candidacy timer to find — whether it does depends on the seed.

mod common;

use common::bank::Bank;
use common::crash_points::CrashPoints;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;

const ACCOUNTS: u64 = 400;
const INITIAL: i64 = 1_000;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// A merge-happy cluster: many small regions, merges on with a generous
/// threshold (every adjacent co-hosted pair qualifies), splits off.
fn merge_cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        servers: 4,
        clients: 6,
        regions: 8,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.merge.enabled = true;
    cfg.server_cfg.memstore_flush_bytes = 12 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.merge.check_interval = SimDuration::from_millis(300);
    Cluster::build(cfg)
}

/// The three crash points (`common::crash_points`), each after the
/// setup crash; a merge crash point polls its intent window every 2 ms.
const MERGES: CrashPoints = CrashPoints {
    kind: ChangeKind::Merge,
    cluster: merge_cluster,
    load: |cluster, committed, _| BANK.transfer_round(cluster, committed),
    bank: BANK,
    adjacency: true,
    intent_step: SimDuration::from_millis(2),
};

/// Crash point 1: the merging server dies while a merge is pending
/// server-side but *before* any intent reached the filesystem. Nothing
/// durable mentions the merge; failover recovers both daughters as if
/// the merge had never been considered.
#[test]
fn crash_before_intent_persisted_recovers_daughters() {
    MERGES.before_intent(8101, [20_368, 12_070, 11_953, 117]);
}

/// Crash point 2: the intent is durable but the merged region never made
/// it into the region map. The master must roll the merge back — both
/// daughters' files and WAL still cover everything, and no client ever
/// saw the merged id — and recover the daughters on survivors.
#[test]
fn crash_after_intent_before_merged_online_rolls_back() {
    MERGES.after_intent(8202, [21_051, 12_512, 12_479, 33]);
}

/// Crash point 3: the merge completed — the merged region is live in the
/// map and absorbing writes — and *then* its server dies. The merged
/// region fails over like an ordinary region, except its recovered state
/// is made of reference files over both daughters' files plus WAL
/// records that predate the merge (the master remaps those into the
/// merged region by row).
#[test]
fn crash_after_merged_online_fails_over_merged_region() {
    MERGES.after_apply(8303, [24_705, 14_587, 14_460, 127]);
}

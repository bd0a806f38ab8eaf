//! Online region merges racing the failure-recovery machinery: the
//! merge-under-failure suite, mirroring `tests/splits.rs` for the
//! reverse operation.
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

use common::bank::{run_until, Bank};
use common::{changing_server, crash_for_adjacency};
use cumulo_core::{Cluster, ClusterConfig, History};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;
use std::cell::Cell;
use std::rc::Rc;

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

/// A merge cluster after its setup crash under bank-transfer load, the
/// history it records from its start, and the count of transfers
/// committed so far.
fn merge_cluster_with_adjacency(seed: u64) -> (Cluster, History, Rc<Cell<u32>>) {
    let cluster = merge_cluster(seed);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    crash_for_adjacency(&cluster, &format!("seed {seed}"), || {
        BANK.transfer_round(&cluster, &committed)
    });
    (cluster, history, committed)
}

/// Crash point 1: the merging server dies while a merge is pending
/// server-side but *before* any intent reached the filesystem. Nothing
/// durable mentions the merge; failover recovers both daughters as if
/// the merge had never been considered.
#[test]
fn crash_before_intent_persisted_recovers_daughters() {
    let (cluster, history, committed) = merge_cluster_with_adjacency(8101);
    // Drive load until a merge candidacy is accepted somewhere and no
    // intent has been persisted yet, then crash that server mid-window
    // (the window spans the pre-merge flush of both daughters, so
    // coarse polling catches it).
    let mut caught = false;
    for _ in 0..600 {
        BANK.transfer_round(&cluster, &committed);
        if run_until(
            &cluster,
            SimDuration::from_millis(10),
            SimDuration::from_millis(200),
            || {
                changing_server(&cluster, ChangeKind::Merge).is_some()
                    && cluster.metrics.sum("master.merge.intents_persisted") == 0
            },
        ) {
            caught = true;
            break;
        }
    }
    assert!(caught, "no merge candidacy was ever observed");
    let victim = changing_server(&cluster, ChangeKind::Merge).expect("just observed");
    assert_eq!(
        cluster.metrics.sum("master.merge.intents_persisted"),
        0,
        "crash point 1 requires no durable intent"
    );
    cluster.crash_server(victim);
    for _ in 0..20 {
        BANK.transfer_round(&cluster, &committed);
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "merge x failover");
}

/// Crash point 2: the intent is durable but the merged region never made
/// it into the region map. The master must roll the merge back — both
/// daughters' files and WAL still cover everything, and no client ever
/// saw the merged id — and recover the daughters on survivors.
#[test]
fn crash_after_intent_before_merged_online_rolls_back() {
    let (cluster, history, committed) = merge_cluster_with_adjacency(8202);
    let mut caught = false;
    for _ in 0..600 {
        BANK.transfer_round(&cluster, &committed);
        // Fine-grained stepping: the window between the durable intent
        // and the map flip is a handful of DFS marker writes wide.
        if run_until(
            &cluster,
            SimDuration::from_millis(2),
            SimDuration::from_millis(200),
            || {
                cluster.metrics.sum("master.merge.intents_persisted") > 0
                    && cluster.master.merges_applied() == 0
            },
        ) {
            caught = true;
            break;
        }
        if cluster.master.merges_applied() > 0 {
            panic!("merge completed before the crash window could be hit; lower the step size");
        }
    }
    assert!(caught, "never caught the intent-persisted window");
    let victim =
        changing_server(&cluster, ChangeKind::Merge).expect("a server holds the granted intent");
    cluster.crash_server(victim);
    // The master's failover must roll the intent back (never serve the
    // merged region of an unapplied merge).
    let rolled = run_until(
        &cluster,
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
        || cluster.metrics.sum("master.merge.rolled_back") > 0,
    );
    assert!(rolled, "failover did not roll the durable intent back");
    for _ in 0..20 {
        BANK.transfer_round(&cluster, &committed);
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "merge x failover");
}

/// Crash point 3: the merge completed — the merged region is live in the
/// map and absorbing writes — and *then* its server dies. The merged
/// region fails over like an ordinary region, except its recovered state
/// is made of reference files over both daughters' files plus WAL
/// records that predate the merge (the master remaps those into the
/// merged region by row).
#[test]
fn crash_after_merged_online_fails_over_merged_region() {
    let (cluster, history, committed) = merge_cluster_with_adjacency(8303);
    let mut applied = false;
    for _ in 0..600 {
        BANK.transfer_round(&cluster, &committed);
        cluster.run_for(SimDuration::from_millis(200));
        if cluster.master.merges_applied() > 0 {
            applied = true;
            break;
        }
    }
    assert!(applied, "no merge was ever applied");
    // Let the merged region absorb post-merge writes before the crash.
    for _ in 0..8 {
        BANK.transfer_round(&cluster, &committed);
        cluster.run_for(SimDuration::from_millis(300));
    }
    // Crash the server hosting a merged region (initial max id was 7,
    // so any region id >= 8 is merge output).
    let map = cluster.master.snapshot_map();
    let merged_server = map
        .regions()
        .iter()
        .filter(|d| d.id.0 >= 8)
        .find_map(|d| map.server_for(d.id))
        .expect("an assigned merged region");
    let victim = cluster
        .servers
        .iter()
        .position(|s| s.id() == merged_server)
        .expect("directory index");
    cluster.crash_server(victim);
    for _ in 0..25 {
        BANK.transfer_round(&cluster, &committed);
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "merge x failover");
    assert!(
        cluster.master.failover_count() >= 2,
        "the merged region's failover was not processed"
    );
}

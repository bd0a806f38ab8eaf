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

use common::bank::{filler, run_until, Bank};
use common::changing_server;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;
use std::cell::Cell;
use std::rc::Rc;

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

/// One scheduling round: every live client fires a transfer and a filler.
fn round(cluster: &Cluster, committed: &Rc<Cell<u32>>, round_no: u64) {
    for i in 0..cluster.clients.len() {
        let client = cluster.client(i).clone();
        if client.is_alive() {
            BANK.transfer(cluster, client.clone(), Rc::clone(committed));
            filler(cluster, client, HOT, round_no);
        }
    }
}

/// Crash point 1: the parent's server dies while a split is pending
/// server-side but *before* any intent reached the filesystem. Nothing
/// durable mentions the split; failover recovers the parent as if the
/// split had never been considered.
#[test]
fn crash_before_intent_persisted_recovers_parent() {
    let cluster = split_cluster(4101);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    // Drive load until a split candidacy is accepted somewhere and no
    // intent has been persisted yet, then crash that server mid-window
    // (the window spans the pre-split flush, so coarse polling catches it).
    let mut caught = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        if run_until(
            &cluster,
            SimDuration::from_millis(10),
            SimDuration::from_millis(200),
            || {
                changing_server(&cluster, ChangeKind::Split).is_some()
                    && cluster.metrics.sum("master.split.intents_persisted") == 0
            },
        ) {
            caught = true;
            break;
        }
    }
    assert!(caught, "no split candidacy was ever observed");
    let victim = changing_server(&cluster, ChangeKind::Split).expect("just observed");
    assert_eq!(
        cluster.metrics.sum("master.split.intents_persisted"),
        0,
        "crash point 1 requires no durable intent"
    );
    cluster.crash_server(victim);
    // Keep transferring through the failover, then drain.
    for _ in 0..20 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "split x failover");
}

/// Crash point 2: the intent is durable but the daughters never made it
/// into the region map. The master must roll the split back — the
/// parent's files and WAL still cover everything, and no client ever saw
/// a daughter id — and recover the parent on a surviving server.
#[test]
fn crash_after_intent_before_daughters_online_rolls_back() {
    let cluster = split_cluster(4202);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    let mut caught = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        // Fine-grained stepping: the window between the durable intent
        // and the map flip is a handful of DFS marker writes wide.
        if run_until(
            &cluster,
            SimDuration::from_millis(2),
            SimDuration::from_millis(200),
            || {
                cluster.metrics.sum("master.split.intents_persisted") > 0
                    && cluster.master.splits_applied() == 0
            },
        ) {
            caught = true;
            break;
        }
        if cluster.master.splits_applied() > 0 {
            panic!("split completed before the crash window could be hit; lower the step size");
        }
    }
    assert!(caught, "never caught the intent-persisted window");
    let victim =
        changing_server(&cluster, ChangeKind::Split).expect("a server holds the granted intent");
    cluster.crash_server(victim);
    // The master's failover must roll the intent back (never serve the
    // daughters of an unapplied split).
    let rolled = run_until(
        &cluster,
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
        || cluster.metrics.sum("master.split.rolled_back") > 0,
    );
    assert!(rolled, "failover did not roll the durable intent back");
    for _ in 0..20 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "split x failover");
}

/// Crash point 3: the split completed — daughters are live in the map
/// and absorbing writes — and *then* their server dies. The daughters
/// fail over like ordinary regions, except their recovered state is made
/// of reference half-files plus WAL records that predate the split (the
/// master remaps those at the daughter boundary).
#[test]
fn crash_after_daughters_online_fails_over_daughters() {
    let cluster = split_cluster(4303);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    let mut applied = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(200));
        if cluster.master.splits_applied() > 0 {
            applied = true;
            break;
        }
    }
    assert!(applied, "no split was ever applied");
    // Let the daughters absorb post-split writes before the crash.
    for _ in 0..8 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(300));
    }
    // Crash the server hosting a daughter (initial max id was 1, so any
    // region id >= 2 is a split daughter).
    let map = cluster.master.snapshot_map();
    let daughter_server = map
        .regions()
        .iter()
        .filter(|d| d.id.0 >= 2)
        .find_map(|d| map.server_for(d.id))
        .expect("an assigned daughter");
    let victim = cluster
        .servers
        .iter()
        .position(|s| s.id() == daughter_server)
        .expect("directory index");
    cluster.crash_server(victim);
    for _ in 0..25 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(400));
    }
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), "split x failover");
    // The daughters really did fail over (not just the bootstrap set).
    assert!(
        cluster.master.failover_count() >= 1,
        "no failover was processed"
    );
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

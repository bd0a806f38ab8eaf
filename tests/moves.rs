//! Proactive moves racing the failure-recovery machinery: the
//! move-under-failure suite, mirroring `tests/splits.rs` for the 1→1
//! structure change.
//!
//! A move is a region-map change racing the T_F/T_P recovery protocol:
//! the donor flushes the region, the master persists an intent, the
//! donor cuts references to the region's files under a fresh id and
//! drops the region at its flip, and the master applies the change and
//! places the output on the least-loaded live server. These tests crash
//! a server at the three interesting points of that lifecycle —
//!
//! 1. **before the move intent is persisted** (the move is only
//!    server-local state),
//! 2. **after the intent is durable but before the donor's flip** (the
//!    master must roll the move back), and
//! 3. **after the change is applied** (the output's new host dies, and
//!    the output fails over like any other region) —
//!
//! and assert the same invariants every time: the recorded history
//! passes the checker and every written cell reads back as its newest
//! commit wrote it (`common::audit`), bank-transfer totals conserve,
//! every region is back online, and the region map still partitions the
//! key space.

mod common;

use common::bank::{filler, run_until, Bank};
use common::changing_server;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::trace::Value;
use cumulo_sim::SimDuration;
use cumulo_store::{ChangeKind, RegionId};
use std::cell::Cell;
use std::rc::Rc;

const ACCOUNTS: u64 = 400;
const INITIAL: i64 = 1_000;
/// The hot prefix: filler traffic lands in the first region only, so its
/// server's load dwarfs the others' and the move checker fires.
const HOT: u64 = 60;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};
const LABEL: &str = "move x failover";

/// A move-happy cluster: moves on at a low load ratio (as
/// `tests/partitions.rs` sets it), two regions per server, small
/// flushes.
fn move_cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        servers: 3,
        clients: 6,
        regions: 6,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    };
    cfg.master_cfg.moves.enabled = true;
    cfg.master_cfg.moves.load_ratio = 1.5;
    cfg.server_cfg.memstore_flush_bytes = 12 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
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

/// `rounds` more rounds, `gap` apart.
fn keep_loading(cluster: &Cluster, committed: &Rc<Cell<u32>>, rounds: &mut u64, n: u64, gap: u64) {
    for _ in 0..n {
        round(cluster, committed, *rounds);
        *rounds += 1;
        cluster.run_for(SimDuration::from_millis(gap));
    }
}

/// Crash point 1: the donor dies while a move is pending server-side but
/// *before* any intent reached the filesystem. Nothing durable mentions
/// the move; failover recovers the region as if it had never been
/// considered.
#[test]
fn crash_before_intent_persisted_recovers_the_region() {
    let cluster = move_cluster(5101);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    // The window spans the pre-move flush and the move's 200 ms poll, so
    // coarse polling catches it.
    let mut caught = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        if run_until(
            &cluster,
            SimDuration::from_millis(10),
            SimDuration::from_millis(200),
            || {
                changing_server(&cluster, ChangeKind::Move).is_some()
                    && cluster.metrics.sum("master.move.intents_persisted") == 0
            },
        ) {
            caught = true;
            break;
        }
    }
    assert!(caught, "no move candidacy was ever observed");
    let victim = changing_server(&cluster, ChangeKind::Move).expect("just observed");
    assert_eq!(
        cluster.metrics.sum("master.move.intents_persisted"),
        0,
        "crash point 1 requires no durable intent"
    );
    cluster.crash_server(victim);
    keep_loading(&cluster, &committed, &mut rounds, 20, 400);
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), LABEL);
}

/// Crash point 2: the intent is durable but the donor has not flipped,
/// so the change never reaches the region map. The master must roll the
/// move back — the region's files and the donor's WAL still cover
/// everything, and no client ever saw the output id — and recover the
/// region on a survivor.
#[test]
fn crash_after_intent_before_the_flip_rolls_back() {
    let cluster = move_cluster(5202);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    let mut caught = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        // Fine-grained stepping: the window between the durable intent
        // and the flip is a handful of DFS marker writes wide.
        if run_until(
            &cluster,
            SimDuration::from_millis(1),
            SimDuration::from_millis(200),
            || {
                cluster.metrics.sum("master.move.intents_persisted") > 0
                    && cluster.metrics.sum("master.move.applied") == 0
                    && changing_server(&cluster, ChangeKind::Move).is_some()
            },
        ) {
            caught = true;
            break;
        }
        if cluster.metrics.sum("master.move.applied") > 0 {
            panic!("move completed before the crash window could be hit; lower the step size");
        }
    }
    assert!(caught, "never caught the intent-persisted window");
    let victim =
        changing_server(&cluster, ChangeKind::Move).expect("the donor holds the granted intent");
    cluster.crash_server(victim);
    let rolled = run_until(
        &cluster,
        SimDuration::from_millis(100),
        SimDuration::from_secs(30),
        || cluster.metrics.sum("master.move.rolled_back") > 0,
    );
    assert!(rolled, "failover did not roll the durable intent back");
    keep_loading(&cluster, &committed, &mut rounds, 20, 400);
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), LABEL);
}

/// Crash point 3: the move completed — the output is in the map, placed
/// on the least-loaded server and absorbing writes — and *then* that
/// server dies. The output fails over like an ordinary region: its
/// recovered state is the reference files the donor cut, the file the
/// master wrote from the donor's leftover cells, and its new host's WAL.
#[test]
fn crash_of_the_outputs_host_fails_the_output_over() {
    let cluster = move_cluster(5303);
    let history = cluster.attach_history();
    let committed = Rc::new(Cell::new(0u32));
    let mut rounds = 0u64;
    let mut applied = false;
    for _ in 0..600 {
        round(&cluster, &committed, rounds);
        rounds += 1;
        cluster.run_for(SimDuration::from_millis(200));
        if cluster.metrics.sum("master.move.applied") > 0 {
            applied = true;
            break;
        }
    }
    assert!(applied, "no move was ever applied");
    let moved = cluster
        .events
        .entries()
        .into_iter()
        .rev()
        .find(|e| e.kind == "move.applied")
        .and_then(|e| match e.field("moved") {
            Some(&Value::Id("r", n)) => Some(RegionId(n)),
            _ => None,
        })
        .expect("the applied move names its output");
    // Let the output open on its new host and absorb writes (well inside
    // the next move tick).
    keep_loading(&cluster, &committed, &mut rounds, 8, 300);
    let host = cluster
        .master
        .snapshot_map()
        .server_for(moved)
        .expect("the output is placed");
    let victim = cluster
        .servers
        .iter()
        .position(|s| s.id() == host)
        .expect("directory index");
    assert!(cluster.servers[victim].region_online(moved));
    cluster.crash_server(victim);
    keep_loading(&cluster, &committed, &mut rounds, 25, 400);
    cluster.run_for(SimDuration::from_secs(30));
    BANK.assert_recovered(&cluster, &history, committed.get(), LABEL);
    assert!(
        cluster.master.failover_count() >= 1,
        "no failover was processed"
    );
}

//! Proactive moves racing the failure-recovery machinery: the
//! move-under-failure suite, the 1→1 structure change through the same
//! three crash points as `tests/splits.rs`.
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

use common::bank::Bank;
use common::crash_points::CrashPoints;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::ChangeKind;

const ACCOUNTS: u64 = 400;
const INITIAL: i64 = 1_000;
/// The hot prefix: filler traffic lands in the first region only, so its
/// server's load dwarfs the others' and the move checker fires.
const HOT: u64 = 60;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

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

/// The three crash points (`common::crash_points`): a move crash point
/// polls its intent window every millisecond.
const MOVES: CrashPoints = CrashPoints {
    kind: ChangeKind::Move,
    cluster: move_cluster,
    load: |cluster, committed, round| BANK.transfer_fill_round(cluster, committed, HOT, round),
    bank: BANK,
    adjacency: false,
    intent_step: SimDuration::from_millis(1),
};

/// Crash point 1: the donor dies while a move is pending server-side but
/// *before* any intent reached the filesystem. Nothing durable mentions
/// the move; failover recovers the region as if it had never been
/// considered.
#[test]
fn crash_before_intent_persisted_recovers_the_region() {
    MOVES.before_intent(5101, [45_728, 27_891, 27_696, 195]);
}

/// Crash point 2: the intent is durable but the donor has not flipped,
/// so the change never reaches the region map. The master must roll the
/// move back — the region's files and the donor's WAL still cover
/// everything, and no client ever saw the output id — and recover the
/// region on a survivor.
#[test]
fn crash_after_intent_before_the_flip_rolls_back() {
    MOVES.after_intent(5202, [39_011, 23_848, 23_835, 13]);
}

/// Crash point 3: the move completed — the output is in the map, placed
/// on the least-loaded server and absorbing writes — and *then* that
/// server dies. The output fails over like an ordinary region: its
/// recovered state is the reference files the donor cut, the file the
/// master wrote from the donor's leftover cells, and its new host's WAL.
#[test]
fn crash_of_the_outputs_host_fails_the_output_over() {
    MOVES.after_apply(5303, [30_562, 18_825, 18_625, 200]);
}

//! Shrunken scale-campaign soak: the `scale_bench` scenario at test
//! size. Splits, merges and proactive moves all enabled at aggressive
//! thresholds, bank-transfer load plus hot-prefix filler, and a
//! seed-derived chaos lottery (server crashes, client crashes, recovery
//! manager flaps) rolling every round.
//!
//! Invariants checked:
//! * the region map partitions the key space and no two online regions
//!   overlap — **after every chaos round** (structural operations and
//!   failovers race continuously, so this runs mid-flight);
//! * bank-balance conservation — at every settle point (conservation is
//!   only meaningful once in-flight transfers drain, so each phase ends
//!   with a quiesce-then-audit);
//! * the cluster converges back to fully online after the final phase.
//!
//! Runs ≥3 seeds, each at two *RNG shifts*: the shifted run burns a few
//! draws from the cluster RNG before load starts, displacing every
//! downstream random choice (key picks, chaos dice) while keeping the
//! same configuration — cheap schedule diversity per seed.

mod common;

use common::bank::{filler, Bank};
use common::DiceFaults;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

const ACCOUNTS: u64 = 600;
const INITIAL: i64 = 1_000;
/// Hot prefix absorbing filler traffic, so regions there grow and split.
const HOT: u64 = 150;
const PHASES: u64 = 3;
const ROUNDS_PER_PHASE: u64 = 15;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// The scale scenario shrunk to test size: every structural feature on
/// at once — splits (low threshold), merges (lower still, so shrunken
/// region pairs collapse back), proactive moves.
fn soak_cluster(seed: u64) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        servers: 4,
        clients: 6,
        regions: 8,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = 48 << 10;
    cfg.server_cfg.merge.enabled = true;
    cfg.server_cfg.merge.threshold_bytes = 12 << 10;
    cfg.master_cfg.moves.enabled = true;
    cfg.server_cfg.memstore_flush_bytes = 12 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.split.check_interval = SimDuration::from_millis(400);
    cfg.server_cfg.merge.check_interval = SimDuration::from_millis(600);
    // Aggressive move tuning: act on mild imbalance, check often.
    cfg.master_cfg.moves.load_ratio = 1.3;
    cfg.master_cfg.moves.check_interval = SimDuration::from_millis(900);
    Cluster::build(cfg)
}

/// Quiesce and audit conservation: drain in-flight transfers, then sum
/// every balance. Transfers are zero-sum, so any deviation means a
/// committed write was lost or doubly applied somewhere in the
/// split/merge/move/failover churn.
fn audit_balances(cluster: &Cluster, seed: u64, label: &str) {
    cluster.run_for(SimDuration::from_secs(40));
    assert!(
        cluster.all_regions_online(),
        "seed {seed}: regions failed to converge before the {label} audit"
    );
    cluster.assert_region_partition();
    assert_eq!(
        BANK.total(cluster),
        ACCOUNTS as i64 * INITIAL,
        "seed {seed}: conservation violated at the {label} audit"
    );
}

/// Consolidation sweep at a settle point: request an admin merge for
/// every adjacent co-hosted region pair (skipping a pair's right region
/// once claimed — it is mid-merge). Returns how many were accepted.
/// The candidacy timer rarely finds daughters small enough on its own
/// at soak scale, so this drives the merge protocol deterministically
/// into the next chaos phase.
fn consolidate(cluster: &Cluster) -> u32 {
    let map = cluster.master.snapshot_map();
    let regions = map.regions().to_vec();
    let mut fired = 0u32;
    let mut skip_next = false;
    for w in regions.windows(2) {
        if skip_next {
            skip_next = false;
            continue;
        }
        let (l, r) = (&w[0], &w[1]);
        let co_hosted = match (map.assignments().get(&l.id), map.assignments().get(&r.id)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if co_hosted && cluster.request_merge(l.id, r.id) {
            fired += 1;
            skip_next = true;
        }
    }
    fired
}

/// One full soak: `PHASES` phases of `ROUNDS_PER_PHASE` chaos rounds,
/// partition-audited every round, balance-audited at every settle point.
/// `shift` burns that many RNG draws up front, displacing the whole
/// downstream schedule.
fn soak_run(seed: u64, shift: u64) {
    let cluster = soak_cluster(seed);
    for _ in 0..shift {
        let _ = cluster.sim.gen_range(0, 1 << 20);
    }
    let committed = Rc::new(Cell::new(0u32));
    let mut faults = DiceFaults::new();

    for phase in 0..PHASES {
        for round in 0..ROUNDS_PER_PHASE {
            for ci in 0..cluster.clients.len() {
                let client = cluster.client(ci).clone();
                if client.is_alive() {
                    BANK.transfer(&cluster, client.clone(), Rc::clone(&committed));
                    filler(&cluster, client, HOT, phase * ROUNDS_PER_PHASE + round);
                }
            }
            cluster.run_for(SimDuration::from_millis(400));
            faults.round(&cluster);
            // Mid-flight structural invariant, every single chaos round:
            // splits, merges, moves and failovers may all be in progress
            // right now, and the map must still partition the key space
            // with no two online regions overlapping.
            cluster.assert_region_partition();
            assert!(
                cluster.rm.t_p() <= cluster.rm.t_f(),
                "seed {seed} phase {phase} round {round}: T_P passed T_F"
            );
        }
        faults.settle(&cluster);
        audit_balances(&cluster, seed, &format!("phase-{phase}"));
        // Kick off merges into the next phase's chaos (no-op after the
        // final audit if nothing is adjacent-co-hosted anymore).
        consolidate(&cluster);
    }
    // Let the last consolidation sweep finish, then re-audit structure.
    cluster.run_for(SimDuration::from_secs(20));
    cluster.assert_region_partition();

    assert!(
        committed.get() > 100,
        "seed {seed}: too few transfers committed ({})",
        committed.get()
    );
    // The scenario must actually exercise the structural machinery.
    assert!(
        cluster.total_splits() > 0,
        "seed {seed}: no split ever applied — thresholds need tuning"
    );
    assert!(
        cluster.merge_totals().applied > 0,
        "seed {seed}: no merge ever applied — consolidation sweep found no pairs"
    );
    assert!(
        cluster.total_moves() > 0,
        "seed {seed}: no proactive move ever completed — ratio needs tuning"
    );
    eprintln!(
        "seed {seed} shift {shift}: committed={} splits={} merges={:?} moves={}",
        committed.get(),
        cluster.total_splits(),
        cluster.merge_totals(),
        cluster.total_moves(),
    );
}

#[test]
fn scale_soak_seed_1() {
    soak_run(11_001, 0);
}

#[test]
fn scale_soak_seed_1_shifted() {
    soak_run(11_001, 7);
}

#[test]
fn scale_soak_seed_2() {
    soak_run(11_002, 0);
}

#[test]
fn scale_soak_seed_2_shifted() {
    soak_run(11_002, 13);
}

#[test]
fn scale_soak_seed_3() {
    soak_run(11_003, 0);
}

#[test]
fn scale_soak_seed_3_shifted() {
    soak_run(11_003, 29);
}

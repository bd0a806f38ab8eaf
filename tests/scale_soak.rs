//! Shrunken scale-campaign soak: the `scale_bench` scenario at test
//! size. Splits, merges and proactive moves all enabled at aggressive
//! thresholds, bank-transfer load plus hot-prefix filler, and a
//! seed-derived chaos lottery (server crashes, client crashes, recovery
//! manager flaps) drawn up front, one plan per phase (`plan::Lottery`).
//!
//! Invariants checked:
//! * the region map partitions the key space and no two online regions
//!   overlap — **after every chaos round** (structural operations and
//!   failovers race continuously, so this runs mid-flight);
//! * the history audit (`common::audit`: the checker and a read-back of
//!   every written cell) and bank-balance conservation — at every settle
//!   point (both are only meaningful once in-flight transfers drain, so
//!   each phase ends with a quiesce-then-audit);
//! * the cluster converges back to fully online after the final phase.
//!
//! Runs ≥3 seeds, each at two *RNG shifts*: the shifted run burns a few
//! draws from the cluster RNG before load starts, displacing every
//! downstream random choice (key picks), and seeds its lottery with the
//! shift too, while keeping the same configuration — cheap schedule
//! diversity per seed.

mod common;

use common::bank::Bank;
use common::fingerprint;
use common::plan::{Drive, Lottery};
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
/// partition-audited every round, history- and balance-audited at every
/// settle point.
/// `shift` burns that many RNG draws up front, displacing the whole
/// downstream schedule, and shifts the lottery's seed.
fn soak_run(seed: u64, shift: u64, pin: [u64; 4]) {
    const TICK: SimDuration = SimDuration::from_millis(400);
    let cluster = soak_cluster(seed);
    let history = cluster.attach_history();
    for _ in 0..shift {
        let _ = cluster.sim.gen_range(0, 1 << 20);
    }
    let committed = Rc::new(Cell::new(0u32));
    let mut lottery = Lottery::new(
        seed << 8 | shift,
        cluster.servers.len(),
        cluster.clients.len(),
    );

    for phase in 0..PHASES {
        let load = |cluster: &Cluster, round: u64| {
            let round = phase * ROUNDS_PER_PHASE + round;
            BANK.transfer_fill_round(cluster, &committed, HOT, round);
        };
        // Mid-flight structural invariant, every single chaos round:
        // splits, merges, moves and failovers may all be in progress
        // right now, and the map must still partition the key space
        // with no two online regions overlapping.
        let check = |cluster: &Cluster, round: u64| {
            cluster.assert_region_partition();
            assert!(
                cluster.rm.t_p() <= cluster.rm.t_f(),
                "seed {seed} phase {phase} round {round}: T_P passed T_F"
            );
        };
        // The phase's plan follows on from the last phase's: servers and
        // clients it crashed stay down, and a recovery manager it left
        // down restarts at the phase's end. The report is held so that a
        // failed audit prints what fired.
        let plan = lottery.plan(ROUNDS_PER_PHASE, TICK);
        let drive = Drive::rounds(ROUNDS_PER_PHASE, TICK)
            .load(load)
            .check(check);
        let _report = plan.run(&cluster, drive);
        // Quiesce, then audit: in-flight transfers drain first, as
        // conservation and the read-back only mean something once they
        // have. Any deviation means a committed write was lost or doubly
        // applied somewhere in the split/merge/move/failover churn.
        cluster.run_for(SimDuration::from_secs(40));
        assert!(
            cluster.all_regions_online(),
            "seed {seed}: regions failed to converge before the phase-{phase} audit"
        );
        cluster.assert_region_partition();
        BANK.audit(&cluster, &history, &format!("seed {seed}: phase-{phase}"));
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
    let splits = cluster.metrics.sum("master.split.applied");
    let merges = cluster.metrics.sum("master.merge.applied");
    let moves = cluster.metrics.sum("master.move.applied");
    assert!(
        splits > 0,
        "seed {seed}: no split ever applied — thresholds need tuning"
    );
    assert!(
        merges > 0,
        "seed {seed}: no merge ever applied — consolidation sweep found no pairs"
    );
    assert!(
        moves > 0,
        "seed {seed}: no proactive move ever completed — ratio needs tuning"
    );
    eprintln!(
        "seed {seed} shift {shift}: committed={} splits={splits} merges={merges} \
         (rolled back {}) moves={moves}",
        committed.get(),
        cluster.metrics.sum("master.merge.rolled_back"),
    );
    assert_eq!(
        fingerprint(&cluster),
        pin,
        "seed {seed} shift {shift}: run fingerprint"
    );
}

#[test]
fn scale_soak_seed_1() {
    soak_run(11_001, 0, [83_456, 46_855, 46_652, 203]);
}

#[test]
fn scale_soak_seed_1_shifted() {
    soak_run(11_001, 7, [86_772, 51_741, 51_415, 326]);
}

#[test]
fn scale_soak_seed_2() {
    soak_run(11_002, 0, [73_643, 41_309, 40_970, 339]);
}

#[test]
fn scale_soak_seed_2_shifted() {
    soak_run(11_002, 13, [86_869, 52_387, 52_173, 214]);
}

#[test]
fn scale_soak_seed_3() {
    soak_run(11_003, 0, [87_752, 52_995, 52_898, 97]);
}

#[test]
fn scale_soak_seed_3_shifted() {
    soak_run(11_003, 29, [84_200, 47_592, 47_428, 164]);
}

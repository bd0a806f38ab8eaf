//! Chaos testing: randomized compound failure schedules (server crashes,
//! client crashes, recovery-manager flaps, partitions) under continuous
//! load, verifying after each run that (1) the recorded history passes
//! the checker and every written cell reads back as its newest commit
//! wrote it (`common::audit`), so every acknowledged commit is durable,
//! and (2) the cluster converges to fully-online regions.
//!
//! Every schedule is derived deterministically from the seed, so a failure
//! here is exactly reproducible.

mod common;

use common::plan::{Action, Drive, FaultPlan, State, Victim};
use common::{audit, fingerprint, key};
use cumulo_core::{Cluster, ClusterConfig, TransactionalClient};
use cumulo_sim::SimDuration;

const ROWS: u64 = 4_000;

/// One transaction writing `value` to the `f0` cell of each of `rows`.
fn write_rows(client: &TransactionalClient, rows: Vec<u64>, value: String) {
    client.begin(move |txn| {
        let Ok(txn) = txn else { return };
        for r in &rows {
            let _ = txn.put(key(*r), "f0", value.clone());
        }
        txn.commit(|_| {});
    });
}

/// One chaos run: 5 servers' worth of regions on 3 servers, 6 clients,
/// ~45 simulated seconds of load with `faults` injected along the way.
fn chaos_run(seed: u64, pin: [u64; 4]) {
    let cluster = Cluster::build(ClusterConfig {
        seed,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: ROWS,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    });
    let history = cluster.attach_history();
    // Load: every live client fires one 3-write transaction a round.
    let load = |cluster: &Cluster, round: u64| {
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            write_rows(&client, rows, format!("s{seed}r{round}c{ci}"));
        }
    };
    // Continuous global invariant: the persisted threshold never
    // passes the flushed threshold (§3.2: T_P ≤ T_F).
    let check = |cluster: &Cluster, round: u64| {
        assert!(
            cluster.rm.t_p() <= cluster.rm.t_f(),
            "seed {seed} round {round}: T_P {} > T_F {}",
            cluster.rm.t_p(),
            cluster.rm.t_f()
        );
    };
    let drive = Drive::rounds(90, SimDuration::from_millis(400))
        .load(load)
        .check(check);
    // Fault injection, seed-derived (the shared dice lottery), after
    // every round's check; a recovery manager it left down restarts at
    // the end. The report is held so that a failed audit prints what the
    // lottery did.
    let _report = FaultPlan::new()
        .every_round(Action::ROLL)
        .run(&cluster, drive);
    // Converge: recoveries, replays, flush retries all drain.
    cluster.run_for(SimDuration::from_secs(40));
    assert!(
        cluster.all_regions_online(),
        "seed {seed}: regions failed to converge"
    );

    let cells = audit(&cluster, &history);
    assert!(cells > 100, "seed {seed}: too few written cells ({cells})");
    assert_eq!(fingerprint(&cluster), pin, "seed {seed}: run fingerprint");
}

/// Crashes a server while a compaction is in flight and verifies
/// recovery: the history audit passes (no acked write is lost or stale),
/// regions converge, and the half-finished compaction leaves at worst
/// ignorable temp files (the surviving file set stays read-equivalent).
fn compaction_crash_run(seed: u64, pin: [u64; 4]) {
    let mut cfg = ClusterConfig {
        seed,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: ROWS,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.min_files = 3;
    // Aggressive flush + compaction cadence so compactions are frequent
    // enough to crash into one.
    cfg.server_cfg.memstore_flush_bytes = 16 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(400);
    cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(700);
    let cluster = Cluster::build(cfg);
    let history = cluster.attach_history();
    let load = |cluster: &Cluster, round: u64| {
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            write_rows(&client, rows, format!("s{seed}r{round}c{ci}{:#>120}", ""));
        }
    };
    // Fine-grained steps so the (short) in-flight compaction window
    // can be caught: crash the first server seen mid-compaction, from
    // round 21 on.
    const TICK: SimDuration = SimDuration::from_millis(300);
    const STEP: SimDuration = SimDuration::from_millis(20);
    let crash = Action::CrashServer(Victim::Observed);
    let report = FaultPlan::new()
        .when(State::Compacting, TICK * 21 + STEP, STEP, crash)
        .run(&cluster, Drive::rounds(110, TICK).load(load));
    report.assert_fired(
        0,
        &format!("seed {seed}: no compaction was ever in flight; tune the cadence"),
    );
    cluster.run_for(SimDuration::from_secs(40));
    assert!(
        cluster.all_regions_online(),
        "seed {seed}: regions failed to converge"
    );
    assert!(
        cluster.metrics.sum("store.compaction.completed") > 0,
        "seed {seed}: compaction never completed anywhere"
    );

    let cells = audit(&cluster, &history);
    assert!(cells > 100, "seed {seed}: too few written cells ({cells})");
    assert_eq!(fingerprint(&cluster), pin, "seed {seed}: run fingerprint");
}

#[test]
fn chaos_compaction_crash_seed_1() {
    compaction_crash_run(7101, [62_533, 43_046, 42_936, 110]);
}

#[test]
fn chaos_compaction_crash_seed_2() {
    compaction_crash_run(7102, [63_089, 43_423, 43_276, 147]);
}

#[test]
fn chaos_seed_1() {
    chaos_run(9001, [45_244, 31_492, 31_063, 429]);
}

#[test]
fn chaos_seed_2() {
    chaos_run(9002, [57_985, 40_896, 40_361, 535]);
}

#[test]
fn chaos_seed_3() {
    chaos_run(9003, [32_387, 20_769, 20_447, 322]);
}

#[test]
fn chaos_seed_4() {
    chaos_run(9004, [54_486, 35_935, 35_333, 602]);
}

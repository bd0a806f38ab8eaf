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

use common::{audit, crash_first_observed, key, DiceFaults};
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
fn chaos_run(seed: u64) {
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
    let mut faults = DiceFaults::new();

    for round in 0..90u64 {
        // Load: every live client fires one 3-write transaction.
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            write_rows(&client, rows, format!("s{seed}r{round}c{ci}"));
        }
        cluster.run_for(SimDuration::from_millis(400));

        // Continuous global invariant: the persisted threshold never
        // passes the flushed threshold (§3.2: T_P ≤ T_F).
        assert!(
            cluster.rm.t_p() <= cluster.rm.t_f(),
            "seed {seed} round {round}: T_P {} > T_F {}",
            cluster.rm.t_p(),
            cluster.rm.t_f()
        );

        // Fault injection, seed-derived (the shared dice lottery).
        faults.round(&cluster);
    }
    faults.settle(&cluster);
    // Converge: recoveries, replays, flush retries all drain.
    cluster.run_for(SimDuration::from_secs(40));
    assert!(
        cluster.all_regions_online(),
        "seed {seed}: regions failed to converge"
    );

    let cells = audit(&cluster, &history);
    assert!(cells > 100, "seed {seed}: too few written cells ({cells})");
}

/// Crashes a server while a compaction is in flight and verifies
/// recovery: the history audit passes (no acked write is lost or stale),
/// regions converge, and the half-finished compaction leaves at worst
/// ignorable temp files (the surviving file set stays read-equivalent).
fn compaction_crash_run(seed: u64) {
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
    let mut crashed = false;
    for round in 0..110u64 {
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            write_rows(&client, rows, format!("s{seed}r{round}c{ci}{:#>120}", ""));
        }
        // Fine-grained steps so the (short) in-flight compaction window
        // can be caught: crash the first server seen mid-compaction.
        for _ in 0..15 {
            cluster.run_for(SimDuration::from_millis(20));
            if !crashed && round > 20 {
                crashed = crash_first_observed(&cluster, |s, r| s.compaction_in_progress(r));
            }
        }
    }
    assert!(
        crashed,
        "seed {seed}: no compaction was ever in flight; tune the cadence"
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
}

#[test]
fn chaos_compaction_crash_seed_1() {
    compaction_crash_run(7101);
}

#[test]
fn chaos_compaction_crash_seed_2() {
    compaction_crash_run(7102);
}

#[test]
fn chaos_seed_1() {
    chaos_run(9001);
}

#[test]
fn chaos_seed_2() {
    chaos_run(9002);
}

#[test]
fn chaos_seed_3() {
    chaos_run(9003);
}

#[test]
fn chaos_seed_4() {
    chaos_run(9004);
}

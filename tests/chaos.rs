//! Chaos testing: randomized compound failure schedules (server crashes,
//! client crashes, recovery-manager flaps) under continuous load,
//! verifying after each run that (1) the recorded history passes the
//! checker and every written cell reads back as its newest commit wrote
//! it (`common::audit`), so every acknowledged commit is durable, and
//! (2) the cluster converges to fully-online regions.
//!
//! Every schedule is a plan the lottery draws from the seed before the
//! run (`plan::Lottery`), so a failure here is exactly reproducible, and
//! a failing run shrinks its plan to the few faults the failure needs
//! and prints it as a literal (`plan::run_or_shrink`).

mod common;

use common::plan::{run_or_shrink, Action, Drive, FaultPlan, Lottery, State, Victim};
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

/// Six regions on 3 servers, 6 clients, a 500 ms client heartbeat.
fn config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        seed,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: ROWS,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    }
}

/// One chaos run: 36 simulated seconds of load under the lottery's plan
/// for the seed, then the audits; a failure prints the shrunk plan.
fn chaos_run(seed: u64, pin: [u64; 4]) {
    const TICK: SimDuration = SimDuration::from_millis(400);
    let cfg = config(seed);
    let plan = Lottery::new(seed, cfg.servers, cfg.clients).plan(90, TICK);
    let label = format!("seed {seed}");
    let cluster = run_or_shrink(&label, &plan, |plan| {
        chaos_schedule(config(seed), plan, TICK)
    });
    assert_eq!(fingerprint(&cluster), pin, "seed {seed}: run fingerprint");
}

/// 90 rounds of `tick` under `plan`, then convergence and the audits.
fn chaos_schedule(cfg: ClusterConfig, plan: &FaultPlan, tick: SimDuration) -> Cluster {
    let seed = cfg.seed;
    let cluster = Cluster::build(cfg);
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
    // The report is held so that a failed audit prints what fired.
    let _report = plan.run(&cluster, Drive::rounds(90, tick).load(load).check(check));
    // Converge: recoveries, replays, flush retries all drain.
    cluster.run_for(SimDuration::from_secs(40));
    assert!(
        cluster.all_regions_online(),
        "seed {seed}: regions failed to converge"
    );

    let cells = audit(&cluster, &history);
    assert!(cells > 100, "seed {seed}: too few written cells ({cells})");
    cluster
}

/// Crashes a server while a compaction is in flight and verifies
/// recovery: the history audit passes (no acked write is lost or stale),
/// regions converge, and the half-finished compaction leaves at worst
/// ignorable temp files (the surviving file set stays read-equivalent).
fn compaction_crash_run(seed: u64, pin: [u64; 4]) {
    let mut cfg = config(seed);
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
    chaos_run(9001, [42_883, 29_924, 29_632, 292]);
}

#[test]
fn chaos_seed_2() {
    chaos_run(9002, [32_950, 21_029, 20_685, 344]);
}

#[test]
fn chaos_seed_3() {
    chaos_run(9003, [26_938, 17_097, 16_774, 323]);
}

#[test]
fn chaos_seed_4() {
    chaos_run(9004, [45_335, 31_680, 31_324, 356]);
}

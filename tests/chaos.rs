//! Chaos testing: randomized compound failure schedules (server crashes,
//! client crashes, recovery-manager flaps, partitions) under continuous
//! load, verifying after each run that (1) every acknowledged commit is
//! durable and (2) the cluster converges to fully-online regions.
//!
//! Every schedule is derived deterministically from the seed, so a failure
//! here is exactly reproducible.

mod common;

use common::{crash_first_observed, key, DiceFaults};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const ROWS: u64 = 4_000;

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
    // acked[row] = latest acked value writer order is by commit timestamp.
    let acked: Rc<RefCell<BTreeMap<u64, (u64, String)>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let mut faults = DiceFaults::new();

    for round in 0..90u64 {
        // Load: every live client fires one 3-write transaction.
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            let val = format!("s{seed}r{round}c{ci}");
            let acked2 = acked.clone();
            let rows2 = rows.clone();
            let val2 = val.clone();
            client.begin(move |txn| {
                let Ok(txn) = txn else { return };
                for r in &rows2 {
                    let _ = txn.put(key(*r), "f0", val2.clone());
                }
                let rows3 = rows2.clone();
                let val3 = val2.clone();
                txn.commit(move |result| {
                    if let Ok(ts) = result {
                        let mut map = acked2.borrow_mut();
                        for r in &rows3 {
                            match map.get(r) {
                                Some((old_ts, _)) if *old_ts > ts.0 => {}
                                _ => {
                                    map.insert(*r, (ts.0, val3.clone()));
                                }
                            }
                        }
                    }
                });
            });
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

    // Verify every acked row. A row may legitimately hold a *newer* acked
    // value than the one we recorded (ack ordering vs timestamp ordering),
    // so check the value is from the acked set for that row with ts >= ours.
    let acked = acked.borrow();
    assert!(
        acked.len() > 100,
        "seed {seed}: too few acked rows ({})",
        acked.len()
    );
    for (row, (_, val)) in acked.iter() {
        let got = cluster.read_cell(key(*row), "f0", SimDuration::from_secs(10));
        let got = got.unwrap_or_else(|| panic!("seed {seed}: acked row {row} missing"));
        let got = String::from_utf8_lossy(&got).into_owned();
        // The stored value must be the one we tracked as the newest ack
        // for this row (our map keeps the max-timestamp ack per row).
        assert_eq!(
            &got, val,
            "seed {seed}: row {row} holds '{got}' but newest acked was '{val}'"
        );
    }
}

/// Crashes a server while a compaction is in flight and verifies
/// recovery: no acked write is lost or stale, regions converge, and the
/// half-finished compaction leaves at worst ignorable temp files (the
/// surviving file set stays read-equivalent).
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

    let acked: Rc<RefCell<BTreeMap<u64, (u64, String)>>> = Rc::new(RefCell::new(BTreeMap::new()));
    let mut crashed = false;
    for round in 0..110u64 {
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, ROWS)).collect();
            let val = format!("s{seed}r{round}c{ci}{:#>120}", "");
            let acked2 = acked.clone();
            let rows2 = rows.clone();
            let val2 = val.clone();
            client.begin(move |txn| {
                let Ok(txn) = txn else { return };
                for r in &rows2 {
                    let _ = txn.put(key(*r), "f0", val2.clone());
                }
                let rows3 = rows2.clone();
                let val3 = val2.clone();
                txn.commit(move |result| {
                    if let Ok(ts) = result {
                        let mut map = acked2.borrow_mut();
                        for r in &rows3 {
                            match map.get(r) {
                                Some((old_ts, _)) if *old_ts > ts.0 => {}
                                _ => {
                                    map.insert(*r, (ts.0, val3.clone()));
                                }
                            }
                        }
                    }
                });
            });
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

    let acked = acked.borrow();
    assert!(
        acked.len() > 100,
        "seed {seed}: too few acked rows ({})",
        acked.len()
    );
    for (row, (_, val)) in acked.iter() {
        let got = cluster.read_cell(key(*row), "f0", SimDuration::from_secs(10));
        let got = got.unwrap_or_else(|| panic!("seed {seed}: acked row {row} missing"));
        let got = String::from_utf8_lossy(&got).into_owned();
        assert_eq!(
            &got, val,
            "seed {seed}: row {row} holds a lost or duplicated version after the crash"
        );
    }
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

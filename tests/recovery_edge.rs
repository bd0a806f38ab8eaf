//! Edge-case recovery scenarios: overlapping failures, no-op recoveries,
//! a flapping recovery manager, and the no-tracking ablation path.

mod common;

use common::key;
use cumulo_core::{Cluster, ClusterConfig, Timestamp, TxnError};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

fn commit_row(cluster: &Cluster, client_idx: usize, row: u64, val: &str) -> u64 {
    let client = cluster.client(client_idx).clone();
    let val = val.to_string();
    let done: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> = Rc::new(RefCell::new(None));
    let d = done.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(row), "f0", val.clone()).unwrap();
        txn.commit(move |r| *d.borrow_mut() = Some(r));
    });
    let deadline = cluster.now() + SimDuration::from_secs(30);
    while done.borrow().is_none() {
        cluster.run_for(SimDuration::from_millis(20));
        assert!(cluster.now() < deadline, "commit stalled");
    }
    let r = done.borrow_mut().take().unwrap();
    match r {
        Ok(ts) => ts.0,
        Err(e) => panic!("abort: {e}"),
    }
}

#[test]
fn server_failure_during_client_recovery() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 201,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        ..ClusterConfig::default()
    });
    // Client 0 commits and dies instantly (flush never happens).
    let client = cluster.client(0).clone();
    let c3 = client.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(100), "f0", "victim-data").unwrap();
        txn.put(key(4000), "f0", "victim-data2").unwrap();
        txn.commit(move |r| {
            assert!(r.is_ok());
            c3.crash();
        });
    });
    cluster.run_for(SimDuration::from_secs(1));
    // Kill a server too, before the client's session even expires: the
    // recovery client's replays must retry through the region outage.
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(25));
    assert!(cluster.rm.client_recovery_count() >= 1);
    assert!(cluster.all_regions_online());
    assert_eq!(
        cluster
            .read_cell(key(100), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"victim-data"[..])
    );
    assert_eq!(
        cluster
            .read_cell(key(4000), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"victim-data2"[..])
    );
}

#[test]
fn simultaneous_double_server_failure() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 202,
        clients: 3,
        servers: 3,
        regions: 6,
        key_count: 5_000,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..30u64 {
        commit_row(&cluster, (i % 3) as usize, i * 160, &format!("d{i}"));
        expected.push((i * 160, format!("d{i}")));
    }
    // Two of three servers die in the same instant.
    cluster.crash_server(0);
    cluster.crash_server(1);
    cluster.run_for(SimDuration::from_secs(25));
    assert!(cluster.all_regions_online());
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v.as_bytes()), "row {k}");
    }
}

#[test]
fn fully_flushed_client_crash_recovers_nothing_but_cleans_up() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 203,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        heartbeat_interval: SimDuration::from_millis(250),
        ..ClusterConfig::default()
    });
    commit_row(&cluster, 0, 5, "flushed");
    // Wait for the flush AND several heartbeats, so T_F(c) covers it.
    cluster.run_for(SimDuration::from_secs(3));
    assert_eq!(cluster.client(0).pending_flushes(), 0);
    let replayed_before = cluster.rm.recovery_client().client_txns_replayed();
    cluster.crash_client(0);
    cluster.run_for(SimDuration::from_secs(10));
    assert_eq!(cluster.rm.client_recovery_count(), 1, "recovery still runs");
    assert_eq!(
        cluster.rm.recovery_client().client_txns_replayed(),
        replayed_before,
        "but nothing needed replaying (threshold covered everything)"
    );
    // T_F keeps advancing afterwards (the dead client no longer pins it).
    commit_row(&cluster, 1, 6, "later");
    cluster.run_for(SimDuration::from_secs(3));
    assert!(cluster.rm.t_f().0 >= 1);
}

/// Crashes a server, then flaps the recovery manager three times during
/// the recovery window — first going down when `first_down` says so, for
/// 800 ms each time — and checks that recovery converges with every row
/// intact. Returns the cluster and the journal position of the crash.
fn flap_through_recovery(first_down: impl Fn(&Cluster, u64)) -> (Cluster, u64) {
    let cluster = Cluster::build(ClusterConfig {
        seed: 204,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..15u64 {
        commit_row(&cluster, (i % 3) as usize, i * 300, &format!("f{i}"));
        expected.push((i * 300, format!("f{i}")));
    }
    let crash_seq = cluster.events.total_recorded();
    cluster.crash_server(0);
    for flap in 0..3 {
        if flap == 0 {
            first_down(&cluster, crash_seq);
        } else {
            cluster.run_for(SimDuration::from_millis(1500));
        }
        cluster.crash_recovery_manager();
        cluster.run_for(SimDuration::from_millis(800));
        cluster.restart_recovery_manager();
    }
    cluster.run_for(SimDuration::from_secs(20));
    assert!(
        cluster.all_regions_online(),
        "recovery must converge despite RM flapping"
    );
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v.as_bytes()), "row {k}");
    }
    (cluster, crash_seq)
}

#[test]
fn flapping_recovery_manager_still_converges() {
    // Down across the failure detection: the manager first hears of the
    // failure from the retried notifications, after its restart.
    flap_through_recovery(|cluster, _| cluster.run_for(SimDuration::from_millis(1500)));

    // Down right after it staged the failed server's replay, before the
    // master has reassigned a single region: staging is volatile, so the
    // restarted manager rebuilds it when the first new host reports in.
    let kinds_since = |cluster: &Cluster, seq: u64| -> Vec<&'static str> {
        let entries = cluster.events.entries();
        entries
            .iter()
            .filter(|e| e.seq >= seq)
            .map(|e| e.kind)
            .collect()
    };
    let (cluster, crash_seq) = flap_through_recovery(|cluster, crash_seq| {
        while !kinds_since(cluster, crash_seq).contains(&"recovery.staged") {
            cluster.run_for(SimDuration::from_micros(100));
            assert!(cluster.now().nanos() < 60_000_000_000, "never staged");
        }
        assert!(
            !kinds_since(cluster, crash_seq).contains(&"region.assign"),
            "the manager must go down before any region is reassigned"
        );
    });
    let kinds = kinds_since(&cluster, crash_seq);
    let staged = kinds.iter().filter(|k| **k == "recovery.staged").count();
    assert!(
        staged >= 2,
        "the lost staging must have been rebuilt: staged {staged} time(s)"
    );
    let rebuilt = kinds
        .iter()
        .rposition(|k| *k == "recovery.staged")
        .expect("counted above");
    assert!(
        kinds[rebuilt..].contains(&"region.recovered"),
        "regions recover from the rebuilt staging"
    );
}

#[test]
fn no_tracking_ablation_still_recovers_by_full_replay() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 205,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        tracking: false,
        truncation: false,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..20u64 {
        commit_row(&cluster, (i % 2) as usize, i * 230, &format!("n{i}"));
        expected.push((i * 230, format!("n{i}")));
    }
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(20));
    assert!(cluster.all_regions_online());
    // Everything replayable because the log was never truncated.
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v.as_bytes()), "row {k}");
    }
    // Replay volume is the whole log filtered by region — strictly more
    // than the tracked equivalent would need.
    assert!(cluster.rm.recovery_client().region_txns_replayed() > 0);
    assert_eq!(cluster.rm.truncation_count(), 0);
}

/// Without tracking, clients write no threshold node, so a restarted
/// manager's listing has nothing to find a client by that died while it
/// was down: the client is never recovered and its acknowledged commit
/// is gone. With the manager up throughout, the same schedule recovers
/// the client and the row reads back.
#[test]
#[ignore = "ROADMAP item 11"]
fn no_tracking_client_lost_while_the_manager_is_down_is_recovered() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 8,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 10_000,
        tracking: false,
        truncation: false,
        ..ClusterConfig::default()
    });
    cluster.crash_recovery_manager();
    let client = cluster.client(0).clone();
    let c0 = client.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(77), "f0", "orphan").unwrap();
        txn.commit(move |r| {
            assert!(r.is_ok());
            c0.crash();
        });
    });
    cluster.run_for(SimDuration::from_secs(10));
    cluster.restart_recovery_manager();
    cluster.run_for(SimDuration::from_secs(15));
    assert_eq!(cluster.rm.client_recovery_count(), 1, "the client was lost");
    assert_eq!(
        cluster
            .read_cell(key(77), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"orphan"[..]),
        "the acknowledged commit is gone"
    );
}

#[test]
fn failures_with_memstore_flushes_in_between() {
    // Exercise the interaction of store-file flushes, WAL accumulation
    // and recovery: flush half-way, then more commits, then crash.
    let cluster = Cluster::build(ClusterConfig {
        seed: 206,
        clients: 2,
        servers: 2,
        regions: 2,
        key_count: 2_000,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..15u64 {
        commit_row(&cluster, (i % 2) as usize, i * 130, &format!("a{i}"));
        expected.push((i * 130, format!("a{i}")));
    }
    cluster.run_for(SimDuration::from_secs(2));
    for server in &cluster.servers {
        for r in server.hosted_regions() {
            server.flush_region(r);
        }
    }
    cluster.run_for(SimDuration::from_secs(2));
    for i in 15..30u64 {
        commit_row(&cluster, (i % 2) as usize, i * 130, &format!("a{i}"));
        expected.push((i * 130, format!("a{i}")));
    }
    cluster.crash_server(1);
    cluster.run_for(SimDuration::from_secs(20));
    assert!(cluster.all_regions_online());
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v.as_bytes()), "row {k}");
    }
}

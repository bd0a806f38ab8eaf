//! End-to-end recovery tests spanning every crate: the paper's central
//! claims — no committed transaction is lost under client, server,
//! cascading or recovery-manager failures, and recovery does not stop
//! processing on surviving servers.

mod common;

use common::{key, run_txn, small_cluster};
use cumulo_core::{Cluster, ClusterConfig, PersistenceMode, Timestamp, TxnError};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn committed_data_is_readable() {
    let cluster = small_cluster(1);
    run_txn(&cluster, 0, &[(1, "f0", "v1"), (7000, "f0", "v2")]);
    cluster.run_for(SimDuration::from_secs(1));
    assert_eq!(
        cluster
            .read_cell(key(1), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"v1"[..])
    );
    assert_eq!(
        cluster
            .read_cell(key(7000), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"v2"[..])
    );
}

#[test]
fn client_crash_mid_flush_is_replayed_by_recovery_manager() {
    let cluster = small_cluster(2);
    let client = cluster.client(0).clone();
    let committed: Rc<RefCell<Option<u64>>> = Rc::new(RefCell::new(None));
    let co = committed.clone();
    // Crash the client the instant the commit is acknowledged — before
    // the write-set flush can reach any server (async mode acks first).
    let c3 = client.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(42), "f0", "precious").unwrap();
        txn.put(key(9000), "f0", "precious2").unwrap(); // second region
        txn.commit(move |r| {
            if let Ok(ts) = r {
                *co.borrow_mut() = Some(ts.0);
                c3.crash();
            }
        });
    });
    cluster.run_for(SimDuration::from_secs(1));
    assert!(
        committed.borrow().is_some(),
        "commit must have succeeded before the crash"
    );
    assert_eq!(
        cluster.client(0).flushed_count(),
        0,
        "crash preceded the flush"
    );

    // Heartbeats stop; the session expires; the recovery manager replays
    // from the transaction manager's log.
    cluster.run_for(SimDuration::from_secs(15));
    assert!(
        cluster.rm.client_recovery_count() >= 1,
        "client recovery must have run"
    );
    assert_eq!(
        cluster
            .read_cell(key(42), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"precious"[..])
    );
    assert_eq!(
        cluster
            .read_cell(key(9000), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"precious2"[..])
    );
}

#[test]
fn clean_client_shutdown_triggers_no_recovery() {
    let cluster = small_cluster(3);
    run_txn(&cluster, 0, &[(5, "f0", "x")]);
    cluster.client(0).shutdown();
    cluster.run_for(SimDuration::from_secs(15));
    assert_eq!(cluster.rm.client_recovery_count(), 0);
}

/// A shutdown requested while a commit's ack is still on the wire must
/// not unregister the client under it: the commit is not in `FQ` yet, so
/// "every tracked commit has flushed" is vacuously true. If the client
/// then dies before flushing, that has to look like the crash it is.
#[test]
fn shutdown_with_a_commit_in_flight_does_not_unregister_under_it() {
    let cluster = small_cluster(2);
    let client = cluster.client(0).clone();
    let committed: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let (co, c2, c3) = (committed.clone(), client.clone(), client.clone());
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(1), "f0", "v1").unwrap();
        txn.put(key(7000), "f0", "v2").unwrap(); // second region
        txn.commit(move |r| {
            *co.borrow_mut() = Some(r.expect("commit acknowledged"));
            c3.crash();
        });
        c2.shutdown();
    });
    cluster.run_for(SimDuration::from_secs(30));
    let ts = committed.borrow().expect("the commit was acknowledged");
    for (k, v) in [(1, &b"v1"[..]), (7000, &b"v2"[..])] {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v), "acknowledged row {k} lost");
    }
    assert_eq!(
        cluster.rm.client_recovery_count(),
        1,
        "the crash must not pass for a clean shutdown"
    );
    assert!(
        cluster.tm.watermark() >= ts,
        "the manager's watermark is stuck below {ts}: {}",
        cluster.tm.watermark()
    );
}

/// A `begin` whose reply lands after `shutdown()` reports `ClientClosed`
/// and leaves nothing open at the manager, so the shutdown completes.
#[test]
fn begin_that_lands_on_a_closed_client_is_aborted_at_the_manager() {
    let cluster = small_cluster(3);
    let client = cluster.client(0).clone();
    let got: Rc<RefCell<Option<TxnError>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.begin(move |txn| *g.borrow_mut() = txn.err());
    client.shutdown();
    cluster.run_for(SimDuration::from_secs(15));
    assert_eq!(*got.borrow(), Some(TxnError::ClientClosed));
    assert_eq!(cluster.tm.active_count(), 0);
    assert_eq!(cluster.rm.client_recovery_count(), 0);
    assert!(
        !cluster
            .coord
            .exists(&cumulo_core::paths::client_live(client.id())),
        "the shutdown completed"
    );
}

#[test]
fn server_crash_with_unsynced_wal_loses_nothing() {
    let cluster = small_cluster(4);
    // Commit a batch of transactions; their flushes land in server WAL
    // buffers that sync only on the (1 s) tracker heartbeat.
    let mut expected = Vec::new();
    for i in 0..30u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 300, "f0", &format!("val{i}"))],
        );
        expected.push((i * 300, format!("val{i}")));
    }
    // Crash one server quickly — some WAL entries are not yet durable.
    // Everything after this sequence number in the failure-event journal
    // is the recovery protocol reacting to the crash.
    let crash_seq = cluster.events.total_recorded();
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(15));
    assert!(cluster.all_regions_online(), "failover must complete");
    assert!(
        cluster.rm.region_recovery_count() >= 1,
        "transactional recovery must have run"
    );
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(v.as_bytes()), "row {k} lost");
    }

    // One more commit after recovery, so the forward threshold has a
    // reason to advance past everything the crash forced to be replayed.
    run_txn(&cluster, 0, &[(31 * 300, "f0", "post")]);
    cluster.run_for(SimDuration::from_secs(3));

    // The failure-event journal must tell the recovery story in protocol
    // order: crash detection/failover, region reassignment, log replay
    // onto the new hosts (transactional recovery), regions coming back
    // online, and finally the global thresholds advancing past it all.
    let after: Vec<_> = cluster
        .events
        .entries()
        .into_iter()
        .filter(|e| e.seq >= crash_seq)
        .collect();
    let first = |kind: &str| {
        after
            .iter()
            .find(|e| e.kind == kind)
            .unwrap_or_else(|| panic!("{kind} event must be journaled"))
    };
    let failover = first("server.failover");
    assert!(
        failover.detail.contains("server=rs0"),
        "failover must name the crashed server: {}",
        failover.detail
    );
    let assign = first("region.assign");
    assert!(
        assign.seq > failover.seq,
        "reassignment must follow failover"
    );
    let recovered = first("region.recovered");
    assert!(
        recovered.seq > assign.seq,
        "log replay must follow reassignment"
    );
    let online: Vec<_> = after.iter().filter(|e| e.kind == "region.online").collect();
    assert!(!online.is_empty(), "recovered regions must come online");
    assert!(
        online.iter().all(|e| e.seq > failover.seq),
        "regions come online only after failover"
    );
    assert!(
        online.iter().any(|e| e.seq > recovered.seq),
        "a recovered region comes online after its replay"
    );
    assert!(
        after
            .iter()
            .any(|e| e.kind == "threshold.tf" && e.seq > recovered.seq),
        "T_F must advance past the recovery"
    );
    assert!(
        after
            .iter()
            .any(|e| e.kind == "threshold.tp" && e.seq > recovered.seq),
        "T_P must advance past the recovery"
    );
}

#[test]
fn processing_continues_on_surviving_server_during_recovery() {
    let cluster = small_cluster(5);
    run_txn(&cluster, 0, &[(1, "f0", "before")]);
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_millis(300));
    // While failover is in progress, transactions that only touch the
    // survivor's regions must still commit and flush.
    let survivor_regions: Vec<_> = cluster.servers[1].hosted_regions();
    assert!(!survivor_regions.is_empty());
    // Find a key hosted by the survivor.
    let map = cluster.master.snapshot_map();
    let k = (0..10_000u64)
        .find(|i| {
            let r = map.region_for(key(*i).as_bytes());
            map.server_for(r) == Some(cluster.servers[1].id())
        })
        .expect("survivor hosts keys");
    let ts = run_txn(&cluster, 1, &[(k, "f0", "during-recovery")]);
    assert!(ts > 0);
    cluster.run_for(SimDuration::from_secs(10));
    assert_eq!(
        cluster
            .read_cell(key(k), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"during-recovery"[..])
    );
}

#[test]
fn cascading_server_failures_preserve_all_commits() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 6,
        clients: 3,
        servers: 3,
        regions: 6,
        key_count: 10_000,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..40u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 200, "f0", &format!("v{i}"))],
        );
        expected.push((i * 200, format!("v{i}")));
    }
    // First failure; then, while its regions are still being recovered,
    // kill the server that inherited them.
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_millis(2500)); // mid-recovery
    cluster.crash_server(1);
    cluster.run_for(SimDuration::from_secs(25));
    assert!(
        cluster.all_regions_online(),
        "all regions must land on the survivor"
    );
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(
            got.as_deref(),
            Some(v.as_bytes()),
            "row {k} lost in cascade"
        );
    }
}

/// The value of `key=` in a journal detail line.
fn field<'a>(detail: &'a str, key: &str) -> &'a str {
    detail
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {detail:?}"))
}

#[test]
fn new_host_crash_before_online_hands_the_same_file_to_the_next_host() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 12,
        clients: 3,
        servers: 3,
        regions: 6,
        key_count: 10_000,
        ..ClusterConfig::default()
    });
    let mut expected = Vec::new();
    for i in 0..40u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 200, "f0", &format!("v{i}"))],
        );
        expected.push((i * 200, format!("v{i}")));
    }
    // Let WAL syncs and threshold heartbeats cover most of them, then a
    // few more that the dead server's WAL may not hold.
    cluster.run_for(SimDuration::from_secs(2));
    for i in 40..46u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 200, "f0", &format!("v{i}"))],
        );
        expected.push((i * 200, format!("v{i}")));
    }
    let crash_seq = cluster.events.total_recorded();
    cluster.crash_server(0);
    // Step to the first reassignment of one of rs0's regions and kill the
    // new host there and then: assigned, not yet online.
    let assign = loop {
        cluster.run_for(SimDuration::from_micros(100));
        let found = cluster
            .events
            .entries()
            .into_iter()
            .find(|e| e.seq >= crash_seq && e.kind == "region.assign");
        if let Some(e) = found {
            break e;
        }
        assert!(
            cluster.now().nanos() < 60_000_000_000,
            "rs0 was never failed over"
        );
    };
    let region = field(&assign.detail, "region").to_owned();
    let host = field(&assign.detail, "server").to_owned();
    let host_idx = cluster
        .servers
        .iter()
        .position(|s| s.id().to_string() == host)
        .expect("the new host is a cluster server");
    assert_ne!(host_idx, 0);
    assert!(
        !cluster
            .events
            .entries()
            .iter()
            .any(|e| e.kind == "region.online" && e.seq > assign.seq),
        "the host must die before the region is online"
    );
    // What the first round left behind: the region's split WAL as a store
    // file, and its replay floor in the coordination service.
    let split_files: Vec<String> = cluster
        .namenode
        .list(&format!("/store/{region}/"))
        .into_iter()
        .filter(|p| p.contains("/wal-"))
        .collect();
    assert_eq!(split_files.len(), 1, "one split output for {region}");
    let znode = |path: String| {
        cluster
            .coord
            .get_data(&path)
            .map(|d| cumulo_core::paths::decode_ts(&d))
    };
    let first_floor = znode(format!("/recovery/floor/{region}"))
        .expect("the floor is persisted before any host can report in");
    let host_t_p =
        znode(format!("/thresholds/servers/{host}")).expect("the new host publishes T_P");
    assert!(
        host_t_p > first_floor,
        "the seed must put the new host's T_P ({host_t_p:?}) above the persisted floor \
         ({first_floor:?}), or ignoring that floor would go unnoticed below"
    );
    cluster.crash_server(host_idx);
    cluster.run_for(SimDuration::from_secs(25));

    assert!(
        cluster.all_regions_online(),
        "all regions must land on the survivor"
    );
    let survivor = (1..3).find(|i| *i != host_idx).expect("three servers");
    assert!(cluster.servers[survivor]
        .hosted_regions()
        .iter()
        .any(|r| r.to_string() == region));
    // The second round staged the region again — under the floor the first
    // round persisted, not just under the second dead host's own T_P.
    let staged: Vec<_> = cluster
        .events
        .entries()
        .into_iter()
        .filter(|e| e.seq >= crash_seq && e.kind == "recovery.staged")
        .collect();
    let second = staged
        .iter()
        .find(|e| field(&e.detail, "server") == host)
        .expect("the new host's failure is staged too");
    assert_eq!(
        field(&second.detail, "floor"),
        first_floor.min(host_t_p).0.to_string(),
        "first floor {first_floor:?}, dead host's T_P {host_t_p:?}: {}",
        second.detail
    );
    // The file the first split wrote is still the region's: the survivor
    // adopted it (nothing else holds what rs0 had persisted).
    assert!(cluster.registry.get(&split_files[0]).is_some());
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(
            got.as_deref(),
            Some(v.as_bytes()),
            "row {k} lost in cascade"
        );
    }
    // Both failed servers are done with: nothing pins T_P any more.
    run_txn(&cluster, 0, &[(47 * 200, "f0", "post")]);
    cluster.run_for(SimDuration::from_secs(6));
    assert!(
        cluster.rm.t_p() > first_floor,
        "T_P must move on after the cascade: {:?} vs {first_floor:?}",
        cluster.rm.t_p()
    );
}

#[test]
fn recovery_manager_crash_delays_but_does_not_lose_recovery() {
    let cluster = small_cluster(7);
    let mut expected = Vec::new();
    for i in 0..20u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 400, "f0", &format!("v{i}"))],
        );
        expected.push((i * 400, format!("v{i}")));
    }
    // Kill the recovery manager first, then a region server.
    cluster.crash_recovery_manager();
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(10));
    // HBase-internal failover happened, but the regions stay gated
    // waiting for transactional recovery.
    assert!(
        !cluster.all_regions_online(),
        "regions must wait for the recovery manager"
    );
    // Transaction processing on the survivor continues meanwhile (reads
    // of its keys, new commits) — checked implicitly by restart below.
    cluster.restart_recovery_manager();
    cluster.run_for(SimDuration::from_secs(15));
    assert!(
        cluster.all_regions_online(),
        "recovery resumes after restart"
    );
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f0", SimDuration::from_secs(10));
        assert_eq!(
            got.as_deref(),
            Some(v.as_bytes()),
            "row {k} lost across RM restart"
        );
    }
}

/// The recovery manager is down across a server failover, so the
/// master's failure notification is lost and re-sent every 400 ms; the
/// first copy to reach the restarted manager stages the replay. When the
/// manager noted the failure, when the regions came back, and what it
/// all took on the wire are pinned.
#[test]
fn failure_noted_by_a_restarted_recovery_manager_is_pinned() {
    let cluster = small_cluster(7);
    for i in 0..20u64 {
        run_txn(&cluster, (i % 3) as usize, &[(i * 400, "f0", "v")]);
    }
    cluster.crash_recovery_manager();
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_millis(6_150));
    assert_eq!(cluster.events.count("recovery.staged"), 0);
    cluster.restart_recovery_manager();
    cluster.run_for(SimDuration::from_secs(10));
    assert!(
        cluster.all_regions_online(),
        "recovery resumes after restart"
    );
    let instants = |kind: &str| -> Vec<u64> {
        let entries = cluster.events.entries();
        let of_kind = entries.iter().filter(|e| e.kind == kind);
        of_kind.map(|e| e.time.nanos()).collect()
    };
    assert_eq!(instants("server.failover"), [2_600_311_657], "failed over");
    assert_eq!(
        instants("recovery.staged"),
        [7_402_610_849],
        "noted and staged"
    );
    let online = [
        287_487,
        288_763,
        289_599,
        316_475,
        7_484_576_003,
        7_485_495_859,
    ];
    assert_eq!(
        instants("region.online"),
        online,
        "opened, then back online"
    );
    let net = &cluster.net;
    assert_eq!((net.messages_sent(), net.messages_dropped()), (930, 74));
}

#[test]
fn client_crash_while_recovery_manager_down_is_recovered_on_restart() {
    let cluster = small_cluster(8);
    let client = cluster.client(0).clone();
    cluster.crash_recovery_manager();
    let c3 = client.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put(key(77), "f0", "orphan").unwrap();
        txn.commit(move |r| {
            assert!(r.is_ok());
            c3.crash(); // dies with the write-set unflushed, RM down
        });
    });
    cluster.run_for(SimDuration::from_secs(10));
    cluster.restart_recovery_manager();
    cluster.run_for(SimDuration::from_secs(15));
    assert!(cluster.rm.client_recovery_count() >= 1);
    assert_eq!(
        cluster
            .read_cell(key(77), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"orphan"[..])
    );
}

/// The client half of a restart: a client dies while the manager is
/// down, so only the restarted manager's listing of the coordination
/// service can find it. When it was recovered, from which threshold,
/// what that replayed and what it all took on the wire are pinned.
#[test]
fn client_lost_while_the_recovery_manager_is_down_is_pinned() {
    let cluster = small_cluster(8);
    for i in 0..9u64 {
        run_txn(&cluster, (i % 3) as usize, &[(i * 300, "f0", "v")]);
    }
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
    let recovered: Vec<(u64, String)> = cluster
        .events
        .entries()
        .iter()
        .filter(|e| e.kind == "client.recover")
        .map(|e| (e.time.nanos(), e.detail.clone()))
        .collect();
    assert_eq!(
        recovered,
        [(10_881_817_319, "client=c0 t_f_r=0".to_owned())],
        "recovered once, after the restart"
    );
    assert_eq!(cluster.rm.client_recovery_count(), 1);
    assert_eq!(cluster.rm.recovery_client().client_txns_replayed(), 4);
    assert_eq!(
        (cluster.rm.t_f(), cluster.rm.t_p()),
        (Timestamp(10), Timestamp(10))
    );
    let net = &cluster.net;
    assert_eq!((net.messages_sent(), net.messages_dropped()), (966, 41));
}

/// A client shuts down cleanly just as the manager restarts: the
/// restart lists its threshold, the shutdown deletes it, and the read
/// that follows finds nothing. That is a clean unregister, as it is for
/// the live watch — not a crash to recover from threshold zero.
#[test]
fn clean_shutdown_racing_a_manager_restart_is_not_recovered() {
    let cluster = small_cluster(11);
    for i in 0..6u64 {
        run_txn(&cluster, (i % 3) as usize, &[(i * 300, "f0", "v")]);
    }
    cluster.crash_recovery_manager();
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.now().nanos(), 2_820_000_000);
    cluster.restart_recovery_manager();
    cluster.run_for(SimDuration::from_micros(200));
    cluster.client(0).shutdown();
    cluster.run_for(SimDuration::from_secs(15));
    let recovered: Vec<String> = cluster
        .events
        .entries()
        .iter()
        .filter(|e| e.kind == "client.recover")
        .map(|e| format!("{} {}", e.time.nanos(), e.detail))
        .collect();
    assert!(
        recovered.is_empty(),
        "recovered a clean shutdown: {recovered:?}"
    );
    assert_eq!(cluster.rm.client_recovery_count(), 0);
}

#[test]
fn thresholds_advance_and_log_truncates() {
    let cluster = small_cluster(9);
    for i in 0..30u64 {
        run_txn(&cluster, (i % 3) as usize, &[(i * 100, "f0", "x")]);
    }
    // Let heartbeats, threshold propagation and checkpoints run.
    cluster.run_for(SimDuration::from_secs(10));
    let t_f = cluster.rm.t_f();
    let t_p = cluster.rm.t_p();
    assert!(t_f.0 > 0, "T_F must advance");
    assert!(t_p.0 > 0, "T_P must advance");
    assert!(t_p <= t_f, "T_P ≤ T_F invariant");
    assert!(
        cluster.rm.truncation_count() > 0,
        "checkpoints must truncate"
    );
    assert!(
        cluster.tm.log().truncated_below().0 > 0,
        "the log must actually shrink ({} records left)",
        cluster.tm.log().len()
    );
    // Crash a server now: recovery must still find everything it needs
    // (truncation only ever discards fully persisted transactions).
    let mut expected = Vec::new();
    for i in 0..10u64 {
        run_txn(&cluster, 0, &[(i * 137, "f1", &format!("y{i}"))]);
        expected.push((i * 137, format!("y{i}")));
    }
    cluster.crash_server(1);
    cluster.run_for(SimDuration::from_secs(15));
    for (k, v) in expected {
        let got = cluster.read_cell(key(k), "f1", SimDuration::from_secs(10));
        assert_eq!(
            got.as_deref(),
            Some(v.as_bytes()),
            "row {k} lost after truncation"
        );
    }
}

#[test]
fn synchronous_mode_survives_instant_server_crash() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 10,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 10_000,
        persistence: PersistenceMode::Synchronous,
        ..ClusterConfig::default()
    });
    let ts = run_txn(&cluster, 0, &[(123, "f0", "sync-durable")]);
    assert!(ts > 0);
    // In sync mode the commit ack implies WAL durability at the servers:
    // crash immediately, nothing may be lost even without replay.
    cluster.crash_server(0);
    cluster.crash_server(1);
    // Both servers dead: no reads possible. Restart path does not exist
    // for servers; instead verify by bringing the cluster's recovery to
    // a halt and... actually only one crash is needed.
    // (Keep it simple: new cluster, crash the single hosting server.)
    let cluster = Cluster::build(ClusterConfig {
        seed: 11,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 10_000,
        persistence: PersistenceMode::Synchronous,
        ..ClusterConfig::default()
    });
    run_txn(&cluster, 0, &[(123, "f0", "sync-durable")]);
    let hosting = {
        let map = cluster.master.snapshot_map();
        map.server_for(map.region_for(key(123).as_bytes())).unwrap()
    };
    let idx = cluster
        .servers
        .iter()
        .position(|s| s.id() == hosting)
        .unwrap();
    cluster.crash_server(idx);
    cluster.run_for(SimDuration::from_secs(15));
    assert_eq!(
        cluster
            .read_cell(key(123), "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"sync-durable"[..])
    );
}

#[test]
fn randomized_crash_schedule_loses_no_acknowledged_commit() {
    // Property-style end-to-end check: commit a stream of transactions
    // from several clients, crash a random server mid-stream, and verify
    // every acknowledged commit afterwards.
    for seed in [21u64, 22, 23] {
        let cluster = Cluster::build(ClusterConfig {
            seed,
            clients: 4,
            servers: 3,
            regions: 6,
            key_count: 10_000,
            ..ClusterConfig::default()
        });
        let acked: Rc<RefCell<Vec<(u64, String)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut launched = 0u64;
        for round in 0..12u64 {
            // Launch a few concurrent transactions without draining.
            for c in 0..4usize {
                let i = round * 4 + c as u64;
                launched += 1;
                let client = cluster.client(c).clone();
                let acked2 = acked.clone();
                let row = key(i * 97 % 10_000);
                let val = format!("s{seed}-v{i}");
                client.begin(move |txn| {
                    let Ok(txn) = txn else { return };
                    let val2 = val.clone();
                    let _ = txn.put(row.clone(), "f0", val.clone());
                    txn.commit(move |r| {
                        if r.is_ok() {
                            acked2.borrow_mut().push((i, val2.clone()));
                        }
                    });
                });
            }
            cluster.run_for(SimDuration::from_millis(150));
            if round == 6 {
                cluster.crash_server((seed % 3) as usize);
            }
        }
        cluster.run_for(SimDuration::from_secs(20));
        let acked = acked.borrow().clone();
        assert!(!acked.is_empty());
        assert!(launched >= acked.len() as u64);
        for (i, val) in &acked {
            let row = key(i * 97 % 10_000);
            let got = cluster.read_cell(row.clone(), "f0", SimDuration::from_secs(10));
            // Rows can be overwritten by later transactions hitting the
            // same key; accept any value from the acked set for that row.
            let candidates: Vec<&String> = acked
                .iter()
                .filter(|(j, _)| key(j * 97 % 10_000) == row)
                .map(|(_, v)| v)
                .collect();
            let got = got.expect("acked row must exist");
            assert!(
                candidates.iter().any(|v| v.as_bytes() == got),
                "row {row} has unexpected value {:?} (seed {seed}, txn {i}, val {val})",
                String::from_utf8_lossy(&got),
            );
        }
    }
}

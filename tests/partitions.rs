//! Network-partition behaviour: the paper treats partitions as crash
//! failures (§3.1) — a partitioned client's session expires (triggering
//! recovery) and the client terminates itself once it realizes it cannot
//! reach the coordination service.

mod common;

use bytes::Bytes;
use common::{ChaosAction, ChaosSchedule};
use cumulo_core::{Cluster, ClusterConfig, Timestamp, TxnError};
use cumulo_sim::SimDuration;
use cumulo_store::RegionId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[test]
fn partitioned_client_is_recovered_and_self_terminates() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 71,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    let client = cluster.client(0).clone();

    // Commit, then partition the client from the coordination service
    // *and* the store the instant the commit is acknowledged (so the
    // flush cannot complete).
    let committed: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> = Rc::new(RefCell::new(None));
    let co = committed.clone();
    let net = cluster.net.clone();
    let client_node = client.node();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put("user000000000099", "f0", "stranded").unwrap();
        txn.commit(move |r| {
            *co.borrow_mut() = Some(r);
            // Total partition: cut the client off from everyone.
            net.isolate(client_node);
        });
    });
    cluster.run_for(SimDuration::from_secs(1));
    assert!(matches!(*committed.borrow(), Some(Ok(_))));

    // Session expiry triggers client recovery; the write is replayed.
    cluster.run_for(SimDuration::from_secs(15));
    assert!(
        cluster.rm.client_recovery_count() >= 1,
        "partition must look like a crash"
    );
    assert_eq!(
        cluster
            .read_cell("user000000000099", "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"stranded"[..])
    );
    // And the client noticed the silence and terminated itself.
    assert!(
        !cluster.client(0).is_alive(),
        "partitioned client must self-terminate"
    );
}

#[test]
fn healed_partition_before_timeout_causes_no_recovery() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 72,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    let client = cluster.client(0).clone();
    let coord_node = cluster.coord.node();
    // Brief partition (1 s) — well under the 3 s session timeout.
    ChaosSchedule::new()
        .at(
            SimDuration::ZERO,
            ChaosAction::Partition(client.node(), coord_node),
        )
        .at(
            SimDuration::from_secs(1),
            ChaosAction::Heal(client.node(), coord_node),
        )
        .run(&cluster, SimDuration::from_secs(11));
    assert_eq!(
        cluster.rm.client_recovery_count(),
        0,
        "no spurious recovery"
    );
    assert!(
        cluster.client(0).is_alive(),
        "client survives a healed partition"
    );

    // The client still works.
    let ok: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> = Rc::new(RefCell::new(None));
    let o = ok.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.put("user000000000005", "f0", "fine").unwrap();
        txn.commit(move |r| *o.borrow_mut() = Some(r));
    });
    cluster.run_for(SimDuration::from_secs(2));
    assert!(matches!(*ok.borrow(), Some(Ok(_))));
}

#[test]
fn partitioned_server_is_failed_over_like_a_crash() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 73,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    // Commit some data first.
    let client = cluster.client(0).clone();
    for i in 0..10u64 {
        client.begin(move |txn| {
            let txn = txn.expect("begin on live client");
            txn.put(format!("user{:012}", i * 97), "f0", format!("p{i}"))
                .unwrap();
            txn.commit(|_| {});
        });
    }
    cluster.run_for(SimDuration::from_secs(2));

    // Partition server 0 from the coordination service: its session
    // expires, the master reassigns, recovery replays.
    let server_node = cluster.servers[0].node();
    let coord_node = cluster.coord.node();
    ChaosSchedule::new()
        .at(
            SimDuration::ZERO,
            ChaosAction::Partition(server_node, coord_node),
        )
        .run(&cluster, SimDuration::from_secs(15));
    assert!(
        cluster.master.failover_count() >= 1,
        "partition must trigger failover"
    );
    for i in 0..10u64 {
        let v = cluster.read_cell(
            format!("user{:012}", i * 97),
            "f0",
            SimDuration::from_secs(10),
        );
        assert_eq!(v.as_deref(), Some(format!("p{i}").as_bytes()), "row {i}");
    }
}

/// A flush whose filesystem write is never answered — the create request
/// is dropped by a partition between the server and the namenode that
/// heals long before any session expires — must not hold the region's
/// flush slot for good: the flush tick gives up on the write and issues
/// it again, the region flushes on, and every acknowledged write reads
/// back.
#[test]
fn flush_write_lost_to_a_healed_partition_is_reissued() {
    let mut cfg = ClusterConfig {
        seed: 74,
        clients: 2,
        servers: 2,
        regions: 2,
        key_count: 1_000,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.memstore_flush_bytes = 2 << 10;
    let cluster = Cluster::build(cfg);
    let server = Rc::clone(&cluster.servers[0]);
    let region = server.hosted_regions()[0];
    let namenode = cluster.namenode.node();

    // One acknowledged single-row write per call, spread over both
    // regions; `acked` keeps the newest acknowledged value per row.
    let acked: Rc<RefCell<BTreeMap<String, String>>> = Rc::default();
    let write = |n: u64| {
        let row = format!("user{:012}", (n * 37) % 1_000);
        let value = format!("v{n}{:x>200}", "");
        let acked = Rc::clone(&acked);
        cluster.client((n % 2) as usize).begin(move |txn| {
            let txn = txn.expect("begin");
            txn.put(row.clone(), "f0", value.clone()).unwrap();
            txn.commit(move |r| {
                if r.is_ok() {
                    acked.borrow_mut().insert(row, value);
                }
            });
        });
    };
    let mut n = 0;
    let mut load = |until: &dyn Fn() -> bool, max_steps: u32| {
        for _ in 0..max_steps {
            if until() {
                return true;
            }
            write(n);
            n += 1;
            cluster.run_for(SimDuration::from_millis(20));
        }
        until()
    };

    // Cut rs0 off from the namenode once its region is due for a flush,
    // and heal as soon as the flush tick has snapshot the memstore: the
    // write it issued went into the partition.
    let threshold = 2 << 10;
    assert!(load(&|| server.memstore_bytes(region) >= threshold, 500));
    cluster.net.partition(server.node(), namenode);
    assert!(
        load(&|| server.memstore_bytes(region) < threshold, 100),
        "the flush tick never came"
    );
    cluster.net.heal(server.node(), namenode);
    assert_eq!(server.storefile_count(region), 0, "the write was not lost");

    // More than the re-issue delay later the region has flushed again.
    load(&|| false, 2_000);
    cluster.run_for(SimDuration::from_secs(2));
    assert_eq!(cluster.master.failover_count(), 0, "nothing expired");
    assert!(
        server.storefile_count(region) >= 1 && server.memstore_bytes(region) < 8 * threshold,
        "the region never flushed again ({} files, {} memstore bytes)",
        server.storefile_count(region),
        server.memstore_bytes(region)
    );
    assert!(cluster.events.count("flush.reissue") >= 1);
    let acked = acked.borrow();
    assert!(acked.len() > 500, "only {} rows acknowledged", acked.len());
    for (row, value) in acked.iter() {
        let got = cluster.read_cell(row.clone(), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(value.as_bytes()), "row {row}");
    }
}

/// A region-map fetch dropped by a partition between a client and the
/// master — one that heals long before anything expires — must not be
/// that client's last: the fetch is given up as lost and sent again, so
/// reads routed to a server that crashed meanwhile find the regions'
/// new host instead of retrying the dead one for good.
#[test]
fn map_refresh_lost_to_a_healed_partition_is_retried() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 75,
        clients: 1,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    cluster.load_rows(1_000, &["f0"], 8, false);
    let store = cluster.client(0).store_client().clone();
    let (client_node, master_node) = (cluster.client(0).node(), cluster.master.node());

    // The reads to the crashed server time out and ask for a fresh map;
    // the request goes into the partition.
    cluster.net.partition(client_node, master_node);
    cluster.crash_server(1);
    let served: Rc<RefCell<Vec<Option<Bytes>>>> = Rc::default();
    for i in 0..10u64 {
        let served = Rc::clone(&served);
        let row = format!("user{:012}", i * 100);
        store.get(row.into(), "f0".into(), Timestamp::MAX, move |vv| {
            served.borrow_mut().push(vv.and_then(|v| v.value));
        });
    }
    cluster.run_for(SimDuration::from_millis(500));
    cluster.net.heal(client_node, master_node);
    cluster.run_for(SimDuration::from_secs(30));

    assert_eq!(cluster.master.failover_count(), 1);
    assert!(
        cluster.client(0).is_alive(),
        "nothing of the client expired"
    );
    let served = served.borrow();
    assert_eq!(served.len(), 10, "reads still outstanding");
    assert!(served
        .iter()
        .all(|v| v.as_deref() == Some(&b"aaaaaaaa"[..])));
}

// ----------------------------------------------------------------------
// Client ↔ transaction manager (ROADMAP item 2)
// ----------------------------------------------------------------------

fn tm_cluster(seed: u64) -> Cluster {
    Cluster::build(ClusterConfig {
        seed,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    })
}

type Outcome = Rc<RefCell<Option<Result<Timestamp, TxnError>>>>;

/// Starts a one-put transaction on `client`; the commit outcome lands in
/// the returned cell.
fn start_put(cluster: &Cluster, client: usize, row: u64) -> Outcome {
    let outcome: Outcome = Rc::default();
    let o = Rc::clone(&outcome);
    cluster.client(client).begin(move |txn| {
        let txn = txn.expect("begin");
        txn.put(format!("user{row:012}"), "f0", "v").unwrap();
        txn.commit(move |r| *o.borrow_mut() = Some(r));
    });
    outcome
}

/// What must hold once the cluster has gone quiet again after a healed
/// client↔manager partition: every commit callback fired, the watermark
/// (the snapshot of every new transaction) caught up with the newest
/// commit, the recovery log was truncated past the commit the partition
/// hit (row 7), and that commit is applied.
fn assert_nothing_is_stuck(cluster: &Cluster, hit: &Outcome, rest: &[Outcome]) {
    let hit_ts = match *hit.borrow() {
        Some(Ok(ts)) => ts,
        ref other => panic!("the commit the partition hit never settled: {other:?}"),
    };
    for o in rest {
        assert!(matches!(*o.borrow(), Some(Ok(_))), "a later commit hangs");
    }
    assert_eq!(
        cluster.tm.watermark(),
        cluster.tm.last_commit_ts(),
        "the watermark is stuck"
    );
    assert!(
        cluster.tm.log().truncated_below() > hit_ts,
        "the log is pinned: truncated below {} with {} records, the hit commit is {hit_ts}",
        cluster.tm.log().truncated_below(),
        cluster.tm.log().len()
    );
    assert_eq!(cluster.rm.client_recovery_count(), 0);
    let row = cluster.read_cell("user000000000007", "f0", SimDuration::from_secs(10));
    assert_eq!(
        row.as_deref(),
        Some(&b"v"[..]),
        "the hit commit is not applied"
    );
}

/// Drives the cluster until the manager assigns its next commit
/// timestamp — the commit request has just been served, its ack not yet
/// sent (the log force comes first) — and returns at that instant.
fn run_until_next_commit_ts(cluster: &Cluster) {
    let before = cluster.tm.last_commit_ts();
    while cluster.tm.last_commit_ts() == before {
        assert!(cluster.sim.step(), "no commit request ever arrived");
    }
}

/// The later traffic of the lost-message tests: both clients commit a few
/// more transactions, then everything gets time to flush, heartbeat and
/// checkpoint.
fn carry_on(cluster: &Cluster) -> Vec<Outcome> {
    let mut rest = Vec::new();
    for i in 0..4 {
        rest.push(start_put(cluster, i % 2, 100 + i as u64 * 211));
        cluster.run_for(SimDuration::from_millis(200));
    }
    cluster.run_for(SimDuration::from_secs(20));
    rest
}

/// A client cut off from the transaction manager while it has nothing in
/// flight loses nothing but idle-threshold queries: after the heal it
/// commits as before and nothing was recovered.
#[test]
fn client_cut_from_the_tm_while_idle_carries_on_after_the_heal() {
    let cluster = tm_cluster(76);
    let (client_node, tm_node) = (cluster.client(0).node(), cluster.tm.node());
    let first = start_put(&cluster, 0, 3);
    cluster.run_for(SimDuration::from_secs(2));
    assert!(matches!(*first.borrow(), Some(Ok(_))));

    // 2 s: several heartbeats' idle queries go into the cut; the 3 s
    // coordination session is not involved.
    let dropped = cluster.net.messages_dropped();
    cluster.net.partition(client_node, tm_node);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.net.heal(client_node, tm_node);
    assert!(cluster.net.messages_dropped() > dropped);

    let done: Outcome = Rc::default();
    let d = Rc::clone(&done);
    cluster.client(0).run(
        cumulo_core::RetryPolicy::no_retry(),
        |txn, finish| finish(txn.put("user000000000007", "f0", "v")),
        move |r| *d.borrow_mut() = Some(r),
    );
    let rest = carry_on(&cluster);
    assert!(cluster.client(0).is_alive());
    assert_nothing_is_stuck(&cluster, &done, &rest);
}

/// The commit *ack* is lost: the manager logged the commit, the client
/// never hears. Today the callback never fires, `commits_in_flight` stays
/// at 1 (so the client's `T_F(c)` stays pinned and the log is never
/// truncated) and the manager's `pending_flush` keeps the timestamp, so
/// the watermark every client reads at stops for good.
#[test]
#[ignore = "ROADMAP item 2"]
fn lost_commit_ack_hangs_nothing_once_healed() {
    let cluster = tm_cluster(77);
    let (client_node, tm_node) = (cluster.client(0).node(), cluster.tm.node());
    cluster.run_for(SimDuration::from_secs(1));
    let hit = start_put(&cluster, 0, 7);
    run_until_next_commit_ts(&cluster);
    cluster.net.partition(client_node, tm_node);
    cluster.run_for(SimDuration::from_millis(100));
    cluster.net.heal(client_node, tm_node);
    let rest = carry_on(&cluster);
    assert_nothing_is_stuck(&cluster, &hit, &rest);
}

/// The flush-complete notification is lost: the commit is acknowledged
/// and applied everywhere, but the manager never learns, so its
/// `pending_flush` keeps the timestamp and the watermark stops below it.
#[test]
#[ignore = "ROADMAP item 2"]
fn lost_flush_complete_hangs_nothing_once_healed() {
    let cluster = tm_cluster(78);
    let (client_node, tm_node) = (cluster.client(0).node(), cluster.tm.node());
    cluster.run_for(SimDuration::from_secs(1));
    let hit = start_put(&cluster, 0, 7);
    // Cut the pair the instant the commit is acknowledged: the flush goes
    // to the region server unhindered, its completion report is dropped.
    while hit.borrow().is_none() {
        assert!(cluster.sim.step(), "the commit never settled");
    }
    cluster.net.partition(client_node, tm_node);
    cluster.run_for(SimDuration::from_millis(100));
    cluster.net.heal(client_node, tm_node);
    assert_eq!(
        cluster.client(0).flushed_count(),
        1,
        "flushed inside the cut"
    );
    let rest = carry_on(&cluster);
    assert_nothing_is_stuck(&cluster, &hit, &rest);
}

// ----------------------------------------------------------------------
// Region server ↔ master (ROADMAP item 2, store side)
// ----------------------------------------------------------------------

/// The server that recorded the newest `kind` event (its detail starts
/// with `server=rsN`), and the region it names.
fn newest_event_site(cluster: &Cluster, kind: &str) -> (usize, RegionId) {
    let entry = cluster
        .events
        .entries()
        .into_iter()
        .rev()
        .find(|e| e.kind == kind);
    let detail = entry.expect("the event was recorded").detail;
    let field = |name: &str| -> u32 {
        let value = detail.split(' ').find_map(|f| f.strip_prefix(name));
        value
            .and_then(|v| v.parse().ok())
            .expect("the field is in the detail")
    };
    (field("server=rs") as usize, RegionId(field("region=r")))
}

/// Steps the simulation until `kind` has been recorded once more.
fn step_until_event(cluster: &Cluster, kind: &str) {
    let before = cluster.events.count(kind);
    while cluster.events.count(kind) == before {
        assert!(cluster.sim.step(), "no {kind} event ever came");
    }
}

/// Runs the cluster in 100 ms steps for up to 10 s, until `healthy`.
fn healthy_within_10s(cluster: &Cluster, healthy: impl Fn() -> bool) -> bool {
    for _ in 0..100 {
        if healthy() {
            return true;
        }
        cluster.run_for(SimDuration::from_millis(100));
    }
    healthy()
}

/// The donor's answer to a move is lost: it closed the region and
/// dropped it, the master never hears. Today the map keeps naming the
/// donor and `pending_move` never clears, so the region is unreadable
/// until the donor dies, and no move ever runs again.
#[test]
#[ignore = "ROADMAP item 2"]
fn lost_move_close_answer_hangs_nothing_once_healed() {
    let mut cfg = ClusterConfig {
        seed: 79,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    };
    cfg.master_cfg.moves.enabled = true;
    cfg.master_cfg.moves.load_ratio = 1.5;
    let cluster = Cluster::build(cfg);
    cluster.load_rows(1_000, &["f0"], 100, false);
    // rs0 hosts r0 (rows 0..250) and r2: heat r0 for the 5 s move tick.
    for row in 0..150 {
        start_put(&cluster, (row % 2) as usize, row);
        cluster.run_for(SimDuration::from_millis(20));
    }
    step_until_event(&cluster, "move.close");
    let (donor, region) = newest_event_site(&cluster, "move.close");
    let (donor_node, master_node) = (cluster.servers[donor].node(), cluster.master.node());
    cluster.net.partition(donor_node, master_node);
    step_until_event(&cluster, "move.closed");
    cluster.run_for(SimDuration::from_millis(100));
    cluster.net.heal(donor_node, master_node);

    let online = healthy_within_10s(&cluster, || cluster.all_regions_online());
    let map = cluster.master.snapshot_map();
    assert!(
        online,
        "{region} is still assigned to {:?}, which dropped it",
        map.server_for(region)
    );
    let start = &map.descriptor(region).expect("the region exists").start;
    let row = if start.is_empty() {
        common::key(0).into()
    } else {
        start.clone()
    };
    assert!(cluster
        .read_cell(row, "f0", SimDuration::from_secs(10))
        .is_some());
}

/// A split's intent request is lost on its way to the master. Today the
/// server waits for an answer that never comes: `pending_change` stays
/// `Some(Split)` and the parent stays `restructuring`, so it never
/// flushes again and the server never starts another change.
#[test]
#[ignore = "ROADMAP item 2"]
fn lost_split_intent_request_hangs_nothing_once_healed() {
    let mut cfg = ClusterConfig {
        seed: 80,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = 20 << 10;
    let cluster = Cluster::build(cfg);
    cluster.load_rows(1_000, &["f0"], 100, false);
    step_until_event(&cluster, "split.intent");
    let (server, _) = newest_event_site(&cluster, "split.intent");
    let server = Rc::clone(&cluster.servers[server]);
    let master_node = cluster.master.node();
    cluster.net.partition(server.node(), master_node);
    cluster.run_for(SimDuration::from_millis(100));
    cluster.net.heal(server.node(), master_node);

    let settled = healthy_within_10s(&cluster, || server.pending_change().is_none());
    assert!(
        settled,
        "{} still waits on its split intent ({:?} pending)",
        server.id(),
        server.pending_change()
    );
}

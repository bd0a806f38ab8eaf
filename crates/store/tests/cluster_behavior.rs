//! Integration tests of the store substrate: a full mini-cluster with
//! master, region servers, DFS, coordination service and a store client.

use bytes::Bytes;
use cumulo_coord::{CoordClient, CoordService};
use cumulo_dfs::{DataNode, DfsClient, NameNode, NameNodeConfig};
use cumulo_sim::trace::{Journal, JournalEntry};
use cumulo_sim::{DiskConfig, LatencyConfig, Network, Sim, SimDuration};
use cumulo_store::compaction::GcWatermark;
use cumulo_store::{
    ChangeKind, Master, MasterConfig, Mutation, RecoveryHooks, RegionId, RegionMap, RegionServer,
    RegionServerConfig, Replay, ServerDirectory, ServerId, StoreClient, StoreClientConfig,
    StoreFileRegistry, Timestamp, WalSyncMode, WriteSet,
};
use std::cell::RefCell;
use std::rc::Rc;

struct Cluster {
    sim: Sim,
    net: Rc<Network>,
    master: Rc<Master>,
    dir: Rc<ServerDirectory>,
    servers: Vec<Rc<RegionServer>>,
    client: StoreClient,
    /// The run's failure-event journal (`sim.events()`).
    events: Journal,
    /// The run's trace journal (`sim.trace()`).
    trace: Journal,
    /// A filesystem client on the client's node, for listing the namespace.
    dfs: DfsClient,
    /// The nodes the filesystem's datanodes run on.
    datanodes: Vec<cumulo_sim::NodeId>,
    /// The node the coordination service runs on.
    coord: cumulo_sim::NodeId,
}

fn build(seed: u64, n_servers: usize, n_regions: usize, wal_mode: WalSyncMode) -> Cluster {
    let cfg = RegionServerConfig {
        wal_mode,
        ..RegionServerConfig::default()
    };
    build_with(seed, n_servers, n_regions, cfg)
}

fn build_with(seed: u64, n_servers: usize, n_regions: usize, cfg: RegionServerConfig) -> Cluster {
    build_replicated(seed, n_servers, n_regions, cfg, 1)
}

/// As [`build_with`], every region hosted on `copies` servers (1 = no
/// region replication; more needs `cfg.replication.enabled`).
fn build_replicated(
    seed: u64,
    n_servers: usize,
    n_regions: usize,
    cfg: RegionServerConfig,
    copies: usize,
) -> Cluster {
    build_full(
        seed,
        n_servers,
        n_regions,
        cfg,
        copies,
        MasterConfig::default(),
    )
}

/// As [`build_replicated`], with the master run by `master_cfg`.
fn build_full(
    seed: u64,
    n_servers: usize,
    n_regions: usize,
    cfg: RegionServerConfig,
    copies: usize,
    master_cfg: MasterConfig,
) -> Cluster {
    let sim = Sim::new(seed);
    let net = Network::new(&sim, LatencyConfig::lan_100mbps());

    // Coordination service.
    let zk_node = net.add_node("coord");
    let coord_svc = CoordService::new(&sim, &net, zk_node, SimDuration::from_millis(200));

    // DFS: one datanode co-located per server node plus one spare.
    let mut dns = Vec::new();
    let mut server_nodes = Vec::new();
    for i in 0..n_servers {
        let node = net.add_node(&format!("rs{i}-machine"));
        server_nodes.push(node);
        dns.push(DataNode::new(
            &sim,
            net.add_node(&format!("dn{i}")),
            DiskConfig::server_hdd(),
        ));
    }
    dns.push(DataNode::new(
        &sim,
        net.add_node("dn-spare"),
        DiskConfig::server_hdd(),
    ));
    let datanodes = dns.iter().map(|dn| dn.node()).collect();
    let nn_node = net.add_node("namenode");
    let nn = NameNode::new(&net, nn_node, dns, NameNodeConfig::default());

    // Master, then the region servers it runs.
    let dir = ServerDirectory::new();
    let master_node = net.add_node("master");
    let master_dfs = DfsClient::new(&net, &nn, master_node);
    let master = Master::new(
        &sim,
        &net,
        master_node,
        master_cfg,
        master_dfs,
        Rc::clone(&dir),
        StoreFileRegistry::new(),
    );
    let mut servers = Vec::new();
    for (i, node) in server_nodes.iter().enumerate() {
        let server = RegionServer::new(
            &master,
            *node,
            ServerId(i as u32),
            cfg,
            DfsClient::new(&net, &nn, *node),
            CoordClient::new(&net, &coord_svc, *node),
            || GcWatermark::ZERO,
        );
        server.start();
        dir.register(Rc::clone(&server));
        servers.push(server);
    }
    let master_coord = CoordClient::new(&net, &coord_svc, master_node);
    master.start(&master_coord);
    master.bootstrap(
        RegionMap::split_decimal_keyspace("user", 1000, n_regions),
        copies,
    );
    sim.run_for(SimDuration::from_millis(500)); // let regions open

    // Client.
    let client_node = net.add_node("client");
    let client = StoreClient::new(
        &sim,
        &net,
        client_node,
        &master,
        &dir,
        StoreClientConfig::default(),
    );
    let dfs = DfsClient::new(&net, &nn, client_node);

    Cluster {
        events: sim.events().clone(),
        trace: sim.trace().clone(),
        sim,
        net,
        master,
        dir,
        servers,
        client,
        dfs,
        datanodes,
        coord: zk_node,
    }
}

fn key(i: u64) -> Bytes {
    Bytes::from(format!("user{i:012}"))
}

/// Writes `n` rows as transactions ts=1..n, one mutation each.
fn write_rows(c: &Cluster, base_ts: u64, n: u64) {
    for i in 0..n {
        let ts = Timestamp(base_ts + i);
        let ws: WriteSet = vec![Mutation::put(
            key(i),
            "f0",
            format!("value-{}", base_ts + i),
        )]
        .into_iter()
        .collect();
        c.client.flush(ts, &ws, || {});
    }
    c.sim.run_for(SimDuration::from_secs(2));
}

fn read_row(c: &Cluster, i: u64, snapshot: u64) -> Option<(Timestamp, Option<Bytes>)> {
    let out: Rc<RefCell<Option<Option<(Timestamp, Option<Bytes>)>>>> = Rc::new(RefCell::new(None));
    let o = out.clone();
    c.client.get(
        key(i),
        Bytes::from_static(b"f0"),
        Timestamp(snapshot),
        move |v| {
            *o.borrow_mut() = Some(v.map(|vv| (vv.ts, vv.value)));
        },
    );
    c.sim.run_for(SimDuration::from_secs(5));
    let result = out.borrow_mut().take();
    result.expect("get completed")
}

#[test]
fn write_then_read_roundtrip() {
    let c = build(1, 2, 4, WalSyncMode::Async);
    write_rows(&c, 1, 20);
    for i in 0..20 {
        let got = read_row(&c, i, 1000);
        assert_eq!(
            got.unwrap().1,
            Some(Bytes::from(format!("value-{}", 1 + i))),
            "row {i} mismatch"
        );
    }
    assert!(c.client.gets_ok() >= 20);
}

/// The harness does no observability wiring, and needs none: a component
/// records into its `Sim`'s journals and registry from its constructor
/// on, so a cluster built by hand shows what it did.
#[test]
fn a_cluster_built_without_wiring_records() {
    let c = build(1, 2, 4, WalSyncMode::Async);
    write_rows(&c, 1, 20);
    assert_eq!(c.sim.events().count("region.online"), 4);
    assert_eq!(c.sim.trace().count("rpc.put"), 20);
    let metrics = c.sim.metrics().snapshot();
    let puts = |server| metrics.get(&format!("store.puts{{server={server}}}"));
    assert_eq!(puts("rs0").zip(puts("rs1")).map(|(a, b)| a + b), Some(20));
    assert_eq!(metrics.get("master.failovers"), Some(0));
}

/// What building the harness leaves on the network: the node names in
/// id order, and the messages construction, bootstrap and the first
/// half second sent, delivered and dropped. A reordered `add_node` or a
/// construction-time send moved, added or lost shows here directly.
#[test]
fn harness_construction_is_pinned() {
    let c = build(1, 2, 4, WalSyncMode::Async);
    assert_eq!(
        format!("{:?}", c.net),
        "Network { nodes: [\"coord\", \"rs0-machine\", \"dn0\", \"rs1-machine\", \"dn1\", \
         \"dn-spare\", \"namenode\", \"master\", \"client\"], sent: 20, delivered: 20, dropped: 0 }"
    );
}

/// Regression (CD001): `handle_get` used to pick the serving region with
/// `regions.values().find(...)` — HashMap iteration order. When an offline
/// region also covers the row (a failover or split window), whether a get
/// served or bounced `NotServing` depended on per-process hash order. The
/// pick must prefer the online region deterministically.
/// Recovery hooks that hold every recovered region offline forever.
struct NeverOnline;

impl RecoveryHooks for NeverOnline {
    fn on_server_failed(&self, _: ServerId, _: &[RegionId]) {}
    fn on_region_recovered(
        &self,
        _: Rc<RegionServer>,
        _: RegionId,
        _: ServerId,
        _: bool,
        _online: Box<dyn FnOnce()>,
    ) {
    }
    fn on_write_set_applied(
        &self,
        _: ServerId,
        _: RegionId,
        _: Timestamp,
        _: u64,
        _: Option<Timestamp>,
    ) {
    }
}

/// Work queued on a server's handlers when it crashes never runs: the
/// handler pool completes on the kernel, not by a delivery to the
/// server's node, so its completion asks whether the process lives.
#[test]
fn work_queued_on_a_crashed_servers_handlers_never_runs() {
    let c = build(13, 1, 1, WalSyncMode::Async);
    let server = &c.servers[0];
    let ran: Rc<RefCell<Vec<&str>>> = Rc::default();
    let r = ran.clone();
    let column = Bytes::from_static(b"f0");
    server.handle_get(key(0), column, Timestamp(1), move |_| {
        r.borrow_mut().push("get")
    });
    let r = ran.clone();
    let service = SimDuration::from_millis(1);
    server.submit_background(service, move || r.borrow_mut().push("background"));
    server.crash();
    c.sim.run_for(SimDuration::from_secs(1));
    assert!(
        ran.borrow().is_empty(),
        "ran on a dead server: {:?}",
        ran.borrow()
    );
}

#[test]
fn get_prefers_online_region_over_offline_coverers() {
    let c = build(11, 1, 1, WalSyncMode::Async);
    write_rows(&c, 1, 5);
    // Pile whole-keyspace *offline* regions onto the same server: opened
    // as failovers, each stays offline until the recovery hooks let it go
    // online, and these hooks never do.
    let server = &c.servers[0];
    server.set_hooks(Rc::new(NeverOnline));
    for i in 0..8u32 {
        server.open_region(
            cumulo_store::RegionDescriptor {
                id: cumulo_store::RegionId(1000 + i),
                start: Bytes::new(),
                end: None,
            },
            Vec::new(),
            Some(ServerId(99)),
        );
    }
    // Issue the get directly at the server: the region pick happens
    // synchronously, while eight of the nine covering regions are offline.
    let out: Rc<RefCell<Option<Result<Option<Bytes>, cumulo_store::StoreError>>>> =
        Rc::new(RefCell::new(None));
    let o = out.clone();
    server.handle_get(
        key(0),
        Bytes::from_static(b"f0"),
        Timestamp(1000),
        move |r| {
            *o.borrow_mut() = Some(r.map(|vv| vv.and_then(|vv| vv.value)));
        },
    );
    c.sim.run_for(SimDuration::from_secs(2));
    let got = out.borrow_mut().take().expect("get completed");
    assert_eq!(
        got.expect("online region must serve the get"),
        Some(Bytes::from_static(b"value-1")),
        "get must be served by the online region, not bounced by an offline coverer"
    );
}

#[test]
fn snapshot_isolation_versions() {
    let c = build(2, 2, 4, WalSyncMode::Async);
    write_rows(&c, 1, 5); // version ts=1..5
    write_rows(&c, 100, 5); // overwrite rows 0..5 at ts=100..104
                            // Old snapshot sees old values.
    let old = read_row(&c, 0, 50).unwrap();
    assert_eq!(old.1, Some(Bytes::from_static(b"value-1")));
    let new = read_row(&c, 0, 200).unwrap();
    assert_eq!(new.1, Some(Bytes::from_static(b"value-100")));
}

#[test]
fn missing_row_reads_none() {
    let c = build(3, 2, 2, WalSyncMode::Async);
    assert_eq!(read_row(&c, 999, 100), None);
}

#[test]
fn server_failover_reassigns_regions_and_recovers_synced_data() {
    let c = build(4, 2, 4, WalSyncMode::Async);
    write_rows(&c, 1, 40);
    // Force WAL to be synced everywhere (async sync interval is 50ms and
    // write_rows already ran 2s, so the WAL is durable).
    let victim = Rc::clone(&c.servers[0]);
    let victim_regions = victim.hosted_regions();
    assert!(!victim_regions.is_empty());
    victim.crash();

    // Failure detection (session timeout ~1.8s) + split + reassignment.
    c.sim.run_for(SimDuration::from_secs(8));
    assert_eq!(c.master.failover_count(), 1);
    let survivor = Rc::clone(&c.servers[1]);
    for r in &victim_regions {
        assert!(
            survivor.region_online(*r),
            "region {r} should be online on the survivor"
        );
    }

    // All rows readable, including those that only lived in the victim's
    // memstore + synced WAL.
    for i in 0..40 {
        let got = read_row(&c, i, 1000);
        assert_eq!(
            got.unwrap().1,
            Some(Bytes::from(format!("value-{}", 1 + i))),
            "row {i}"
        );
    }
}

#[test]
fn unsynced_wal_tail_is_lost_without_transactional_recovery() {
    // Demonstrates the durability gap the paper's middleware closes: in
    // async mode, a write acked just before the crash may vanish.
    let mut cfg_cluster = build(5, 2, 2, WalSyncMode::Async);
    // Use a huge WAL sync interval by rebuilding servers? Simpler: write
    // and crash immediately, before the 50ms background sync fires.
    let c = &mut cfg_cluster;
    let ws: WriteSet = vec![Mutation::put(key(0), "f0", "doomed")]
        .into_iter()
        .collect();
    let acked = Rc::new(RefCell::new(false));
    let a = acked.clone();
    c.client.flush(Timestamp(7), &ws, move || {
        *a.borrow_mut() = true;
    });
    // Run just long enough for the ack but not the WAL sync.
    c.sim.run_for(SimDuration::from_millis(8));
    let victim_id = {
        let map = c.master.snapshot_map();
        map.server_for(c.client.region_for(&key(0))).unwrap()
    };
    let victim = c.dir.get(victim_id).unwrap();
    victim.crash();
    c.sim.run_for(SimDuration::from_secs(8));
    assert!(*acked.borrow(), "write was acknowledged before the crash");
    let got = read_row(c, 0, 1000);
    assert_eq!(
        got, None,
        "acked-but-unsynced write must be lost in plain async mode"
    );
}

#[test]
fn sync_mode_survives_immediate_crash() {
    // Same scenario as above but with synchronous WAL persistence: the
    // ack implies durability, so the value must survive.
    let c = build(6, 2, 2, WalSyncMode::Sync);
    let ws: WriteSet = vec![Mutation::put(key(0), "f0", "durable")]
        .into_iter()
        .collect();
    let acked = Rc::new(RefCell::new(false));
    let a = acked.clone();
    c.client.flush(Timestamp(7), &ws, move || {
        *a.borrow_mut() = true;
    });
    c.sim.run_for(SimDuration::from_millis(100));
    assert!(*acked.borrow());
    let victim_id = {
        let map = c.master.snapshot_map();
        map.server_for(c.client.region_for(&key(0))).unwrap()
    };
    c.dir.get(victim_id).unwrap().crash();
    c.sim.run_for(SimDuration::from_secs(8));
    let got = read_row(&c, 0, 1000);
    assert_eq!(got.unwrap().1, Some(Bytes::from_static(b"durable")));
}

#[test]
fn memstore_flush_to_storefile_keeps_data_readable() {
    let c = build(7, 1, 1, WalSyncMode::Async);
    write_rows(&c, 1, 30);
    let server = Rc::clone(&c.servers[0]);
    let region = server.hosted_regions()[0];
    assert!(server.memstore_bytes(region) > 0);
    server.flush_region(region);
    c.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(server.memstore_bytes(region), 0);
    assert_eq!(server.storefile_count(region), 1);
    for i in 0..30 {
        let got = read_row(&c, i, 1000);
        assert_eq!(
            got.unwrap().1,
            Some(Bytes::from(format!("value-{}", 1 + i))),
            "row {i}"
        );
    }
}

#[test]
fn reads_before_region_online_retry_until_served() {
    let c = build(8, 2, 2, WalSyncMode::Async);
    write_rows(&c, 1, 10);
    let victim = Rc::clone(&c.servers[0]);
    victim.crash();
    // Immediately issue a read for a row the victim hosted: the client
    // must stall and retry through detection + failover, then succeed.
    let row = (0..10)
        .find(|i| {
            let map = c.master.snapshot_map();
            map.server_for(c.client.region_for(&key(*i))) == Some(victim.id())
        })
        .expect("victim hosts some row");
    let got = read_row(&c, row, 1000); // read_row runs 5s, enough for recovery
    assert_eq!(
        got.unwrap().1,
        Some(Bytes::from(format!("value-{}", 1 + row)))
    );
    assert!(c.client.retry_count() > 0, "client must have retried");
}

#[test]
fn scan_merges_memstore_and_storefiles() {
    let c = build(9, 1, 1, WalSyncMode::Async);
    write_rows(&c, 1, 10);
    let server = Rc::clone(&c.servers[0]);
    let region = server.hosted_regions()[0];
    server.flush_region(region);
    c.sim.run_for(SimDuration::from_secs(1));
    write_rows(&c, 100, 5); // newer versions for rows 0..5 in the memstore
    let out: Rc<RefCell<Option<Vec<(Bytes, Bytes, cumulo_store::VersionedValue)>>>> =
        Rc::new(RefCell::new(None));
    let o = out.clone();
    c.client
        .scan(key(0), None, Timestamp(1000), 100, move |hits| {
            *o.borrow_mut() = Some(hits)
        });
    c.sim.run_for(SimDuration::from_secs(2));
    let hits = out.borrow_mut().take().expect("scan completed");
    assert_eq!(hits.len(), 10);
    // Rows 0..5 must show the newer (memstore) versions.
    assert_eq!(hits[0].2.value, Some(Bytes::from_static(b"value-100")));
    assert_eq!(hits[9].2.value, Some(Bytes::from_static(b"value-10")));
}

#[test]
fn cache_warms_with_reads() {
    let c = build(10, 1, 1, WalSyncMode::Async);
    write_rows(&c, 1, 10);
    let server = Rc::clone(&c.servers[0]);
    let region = server.hosted_regions()[0];
    // Move data out of the memstore so reads depend on cache + files.
    server.flush_region(region);
    c.sim.run_for(SimDuration::from_secs(1));
    for i in 0..10 {
        read_row(&c, i, 1000);
    }
    let cold_rate = server.cache_hit_rate();
    for i in 0..10 {
        read_row(&c, i, 1000);
    }
    let warm_rate = server.cache_hit_rate();
    assert!(
        warm_rate > cold_rate,
        "hit rate should improve: {cold_rate} -> {warm_rate}"
    );
}

/// The filter accounting of a fixed read sequence over a three-file
/// stack did not move when point reads went from a binary search per
/// file to one key hash per get and a hash-index probe per file: the
/// numbers below are the ones commit bdbd7a7 (binary search, a prune
/// loop in each of `handle_get`, `handle_multi_get` and `lookup`)
/// counts for this sequence. They feed the simulated service time.
#[test]
fn filter_stats_of_a_fixed_read_sequence_are_pinned() {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    let c = build_with(12, 1, 1, cfg);
    let server = Rc::clone(&c.servers[0]);
    let region = server.hosted_regions()[0];
    let put = |ts: u64, mutation: Mutation| {
        c.client
            .multi_put(region, Timestamp(ts), vec![mutation], None, || {});
    };
    // Three overlapping files (rows 0..40 at ts 100.., 20..60 at 200..,
    // deletes and rewrites of 50..56 at 300..), then a live memstore.
    let flush = || {
        c.sim.run_for(SimDuration::from_secs(2));
        server.flush_region(region);
        c.sim.run_for(SimDuration::from_secs(2));
    };
    for i in 0..40 {
        put(100 + i, Mutation::put(key(i), "f0", format!("a{i}")));
    }
    flush();
    for i in 20..60 {
        put(200 + i, Mutation::put(key(i), "f0", format!("b{i}")));
    }
    flush();
    for i in 50..56 {
        put(300 + i, Mutation::delete(key(i), "f0"));
        put(320 + i, Mutation::put(key(i), "f1", format!("c{i}")));
    }
    flush();
    for i in 0..5 {
        put(400 + i, Mutation::put(key(i), "f0", format!("d{i}")));
    }
    c.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(server.storefile_count(region), 3);

    let got: Rc<RefCell<Vec<Option<Bytes>>>> = Rc::default();
    let get = |row: Bytes, column: &'static str, snapshot: u64| {
        let got = Rc::clone(&got);
        c.client.get(
            row,
            Bytes::from_static(column.as_bytes()),
            Timestamp(snapshot),
            move |v| got.borrow_mut().push(v.and_then(|vv| vv.value)),
        );
        c.sim.run_for(SimDuration::from_secs(1));
    };
    // Present rows at the newest snapshot, then between and below the
    // files' versions; rows past every file; absent keys inside them.
    for i in (0..70).step_by(3) {
        get(key(i), "f0", 1000);
    }
    for i in (0..60).step_by(7) {
        get(key(i), "f0", 250);
        get(key(i), "f0", 50);
    }
    for i in (1..60).step_by(11) {
        get(Bytes::from(format!("user{i:012}x")), "f0", 1000);
        get(key(i), "f1", 1000);
    }
    let batch: Vec<(Bytes, Bytes)> = (0..64)
        .step_by(4)
        .flat_map(|i| [(key(i), "f0"), (key(i + 1), "f1")])
        .map(|(row, column)| (row, Bytes::from_static(column.as_bytes())))
        .collect();
    for snapshot in [1000, 210] {
        let got = Rc::clone(&got);
        c.client
            .multi_get(batch.clone(), Timestamp(snapshot), move |cells| {
                got.borrow_mut()
                    .extend(cells.into_iter().map(|v| v.and_then(|vv| vv.value)));
            });
        c.sim.run_for(SimDuration::from_secs(1));
    }
    let got = got.borrow();
    assert_eq!(got.len(), 24 + 18 + 12 + 64);
    assert_eq!(got[0].as_deref(), Some(&b"d0"[..]), "memstore wins");
    assert_eq!(got[7].as_deref(), Some(&b"b21"[..]), "newer file wins");
    assert_eq!(got[17], None, "row 51 is deleted");

    let stats = server.filter_stats();
    assert_eq!(
        [
            stats.probes.get(),
            stats.range_skips.get(),
            stats.filter_skips.get(),
            stats.files_consulted.get(),
            stats.false_positives.get(),
            stats.false_negatives.get(),
        ],
        [153, 201, 56, 97, 0, 0]
    );
    assert_eq!(server.gets_served(), 24 + 18 + 12 + 64);
}

#[test]
fn concurrent_failures_leave_no_region_unassigned_forever() {
    let c = build(11, 3, 6, WalSyncMode::Async);
    write_rows(&c, 1, 30);
    c.servers[0].crash();
    c.servers[1].crash();
    c.sim.run_for(SimDuration::from_secs(15));
    let survivor = Rc::clone(&c.servers[2]);
    let map = c.master.snapshot_map();
    for r in map.regions() {
        assert_eq!(
            map.server_for(r.id),
            Some(survivor.id()),
            "region {} placement",
            r.id
        );
        assert!(survivor.region_online(r.id), "region {} online", r.id);
    }
    let _ = c.net;
}

/// An FNV-1a digest over one full `<nanos> <kind> <detail>` line per
/// entry, as `Journal::dump` renders it: the pin beside the `<nanos>
/// <kind>` digests below that covers what each record says.
fn lines_digest<'a>(entries: impl IntoIterator<Item = &'a JournalEntry>) -> u64 {
    let text: String = entries
        .into_iter()
        .map(|e| format!("{} {} {}\n", e.time.nanos(), e.kind, e.detail))
        .collect();
    fnv1a(&text)
}

/// The 64-bit FNV-1a hash of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |digest, byte| {
        (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The full `<nanos> <kind> <detail>` lines of the `journal`'s records
/// whose kind starts with `prefix`.
fn lines(journal: &Journal, prefix: &str) -> Vec<String> {
    let entries = journal.entries().into_iter();
    entries
        .filter(|e| e.kind.starts_with(prefix))
        .map(|e| format!("{} {} {}", e.time.nanos(), e.kind, e.detail))
        .collect()
}

fn run_to(c: &Cluster, millis: u64) {
    c.sim
        .run_until(cumulo_sim::SimTime::from_nanos(millis * 1_000_000));
}

/// Puts `value` under column `f0` of rows `rows`, one single-mutation
/// batch per row at timestamp `base_ts + row`, routed by the client's
/// cached map.
fn put_rows(c: &Cluster, base_ts: u64, rows: impl Iterator<Item = u64>, value: &str) {
    for i in rows {
        let m = Mutation::put(key(i), "f0", format!("{value}{i:0>90}"));
        let region = c.client.region_for(&key(i));
        c.client
            .multi_put(region, Timestamp(base_ts + i), vec![m], None, || {});
    }
}

/// A server configuration for driving structure changes by hand: both
/// candidacy timers on at the given periods, a split threshold any
/// flushed region exceeds, a merge threshold no pair is under (only the
/// admin trigger starts a merge), compaction off so file sets only
/// change through flushes and structure changes.
fn structure_cfg(split_every: u64, merge_every: u64) -> RegionServerConfig {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    cfg.split.enabled = true;
    cfg.split.threshold_bytes = 1 << 10;
    cfg.split.check_interval = SimDuration::from_secs(split_every);
    cfg.merge.enabled = true;
    cfg.merge.threshold_bytes = 0;
    cfg.merge.check_interval = SimDuration::from_secs(merge_every);
    cfg
}

/// One region is split by the candidacy timer and its daughters are
/// merged back by the admin trigger, with writes landing between each
/// pre-change flush and its flip. The journal counts, the final map and
/// the filesystem namespace below are what the last commit with two
/// separate pipelines (c0717f2) produces for this schedule: the unified
/// protocol must walk the same steps and leave the same files.
#[test]
fn split_then_merge_of_a_fixed_schedule_is_pinned() {
    // Split ticks at 10 s, 20 s, ...; merge ticks at 7 s, 14 s, ...
    let c = build_with(21, 1, 1, structure_cfg(10, 7));
    let server = Rc::clone(&c.servers[0]);
    let parent = server.hosted_regions()[0];
    put_rows(&c, 1_000, 0..120, "a");
    run_to(&c, 3_000);
    server.flush_region(parent);
    run_to(&c, 5_000);
    put_rows(&c, 2_000, (0..120).step_by(5), "b");
    // 10 s: candidacy accepted, pre-split flush. 20 s: intent, flip.
    run_to(&c, 19_900);
    assert_eq!(server.hosted_regions(), vec![parent], "not split yet");
    // Absorbed after the pre-split flush: partitioned at the flip.
    put_rows(&c, 3_000, (0..120).step_by(7), "c");
    run_to(&c, 22_000);
    let daughters = server.hosted_regions();
    assert_eq!(daughters.len(), 2, "split at the 20 s tick");
    assert_eq!(c.sim.metrics().sum("master.split.applied"), 1);
    put_rows(&c, 4_000, (0..120).step_by(11), "d");
    run_to(&c, 23_000);
    // Both daughters dirty: the trigger flushes them and the 28 s merge
    // tick sends the intent.
    assert!(server.request_region_merge(daughters[0], daughters[1]));
    run_to(&c, 27_900);
    // Absorbed after the pre-merge flush: combined at the flip.
    put_rows(&c, 5_000, (0..120).step_by(13), "e");
    run_to(&c, 29_500);
    assert_eq!(c.sim.metrics().sum("master.merge.applied"), 1);

    let counts: Vec<(&str, u64)> = c
        .events
        .counts()
        .into_iter()
        .filter(|(kind, _)| kind.starts_with("split.") || kind.starts_with("merge."))
        .collect();
    assert_eq!(
        counts,
        [
            ("merge.applied", 1),
            ("merge.consider", 1),
            ("merge.execute", 1),
            ("merge.flip", 1),
            ("merge.intent", 1),
            ("merge.persisted", 1),
            ("split.applied", 1),
            ("split.consider", 1),
            ("split.execute", 1),
            ("split.flip", 1),
            ("split.intent", 1),
            ("split.persisted", 1),
        ]
    );
    let mut changes = lines(&c.events, "split.");
    changes.extend(lines(&c.events, "merge."));
    assert_eq!(
        changes,
        [
            "10000000000 split.consider server=rs0 region=r0",
            "20000000000 split.intent server=rs0 region=r0",
            "20003061617 split.persisted region=r0 server=rs0 bottom=r1 top=r2",
            "20003357766 split.execute server=rs0 region=r0 bottom=r1 top=r2",
            "20014406628 split.flip server=rs0 region=r0 bottom=r1 top=r2",
            "20014699596 split.applied region=r0 bottom=r1 top=r2",
            "23000000000 merge.consider server=rs0 left=r1 right=r2",
            "28000000000 merge.intent server=rs0 left=r1 right=r2",
            "28003140118 merge.persisted left=r1 right=r2 server=rs0 merged=r3",
            "28003432623 merge.execute server=rs0 left=r1 right=r2 merged=r3",
            "28020001837 merge.flip server=rs0 left=r1 right=r2 merged=r3",
            "28020320541 merge.applied left=r1 right=r2 merged=r3",
        ]
    );
    let map = c.master.snapshot_map();
    let shape: Vec<(u32, &[u8], Option<&[u8]>, Option<u32>)> = map
        .regions()
        .iter()
        .map(|d| {
            (
                d.id.0,
                &d.start[..],
                d.end.as_deref(),
                map.server_for(d.id).map(|s| s.0),
            )
        })
        .collect();
    assert_eq!(shape, [(3, &b""[..], None, Some(0))]);
    assert_eq!(server.hosted_regions(), vec![RegionId(3)]);

    let files: Rc<RefCell<Vec<String>>> = Rc::default();
    let sink = Rc::clone(&files);
    c.dfs.list("/", move |mut paths| {
        paths.sort();
        *sink.borrow_mut() = paths;
    });
    c.sim.run_for(SimDuration::from_millis(100));
    assert_eq!(*files.borrow(), PINNED_NAMESPACE);

    // Every row reads back its newest write through the merged region.
    for i in 0..120u64 {
        let newest = [(13, "e"), (11, "d"), (7, "c"), (5, "b"), (1, "a")]
            .into_iter()
            .find(|(step, _)| i % step == 0)
            .map(|(_, value)| format!("{value}{i:0>90}"))
            .expect("every row was written");
        let got = read_row(&c, i, 10_000).and_then(|(_, v)| v);
        assert_eq!(got, Some(Bytes::from(newest)), "row {i}");
    }
}

/// The filesystem namespace [`split_then_merge_of_a_fixed_schedule_is_pinned`]
/// ends with.
/// ends with: the parent's two flushes, each daughter's one, and the
/// merged region's references — over the daughters' own files and, the
/// daughters' references having been superseded and retired, directly
/// over the parent's.
const PINNED_NAMESPACE: &[&str] = &[
    "/store/r0/000000-rs0",
    "/store/r0/000001-rs0",
    "/store/r1/000002-rs0",
    "/store/r2/000003-rs0",
    "/store/r3/ref-1-000002-rs0",
    "/store/r3/ref-1-ref-000000-rs0",
    "/store/r3/ref-1-ref-000001-rs0",
    "/store/r3/ref-2-000003-rs0",
    "/store/r3/ref-2-ref-000000-rs0",
    "/store/r3/ref-2-ref-000001-rs0",
    "/wal/rs0",
];

/// One structure change runs at a time per server: while one of either
/// kind is pending, the admin merge trigger refuses, and the *other*
/// kind's candidacy tick neither starts a change of its own nor pushes
/// the pending one along — only the pending change's own timer does.
#[test]
fn a_pending_change_defers_the_other_kinds_candidacy() {
    // A pending merge, split ticks every second: three regions, the
    // upper two (clean store files plus dirty memstores) get the merge
    // request, then the lowest grows past the split threshold.
    let c = build_with(22, 1, 3, structure_cfg(1, 10));
    let server = Rc::clone(&c.servers[0]);
    let splits = server.structure_stats(ChangeKind::Split);
    let merges = server.structure_stats(ChangeKind::Merge);
    let regions = server.hosted_regions();
    put_rows(&c, 1_000, 400..1_000, "a");
    c.sim.run_for(SimDuration::from_millis(400));
    assert!(server.request_region_merge(regions[1], regions[2]));
    assert!(
        !server.request_region_merge(regions[0], regions[1]),
        "the slot is taken"
    );
    put_rows(&c, 2_000, 0..100, "b");
    c.sim.run_for(SimDuration::from_millis(200));
    server.flush_region(regions[0]);
    // Split ticks at 1 s .. 9 s all see the pending merge.
    run_to(&c, 9_500);
    assert_eq!(merges.considered.get(), 1);
    assert_eq!(
        merges.intents_requested.get(),
        0,
        "a split tick advanced the pending merge"
    );
    assert_eq!(
        splits.considered.get(),
        0,
        "a split started beside the pending merge"
    );
    // The 10 s merge tick sends the intent; the split follows.
    run_to(&c, 10_900);
    assert_eq!(merges.intents_requested.get(), 1);
    assert_eq!(merges.completed.get(), 1);
    assert_eq!(splits.considered.get(), 0);
    run_to(&c, 11_500);
    assert_eq!(splits.considered.get(), 1);

    // A pending split, merge ticks every second: the lowest of three
    // regions is over the split threshold and dirty at the 10 s tick.
    let c = build_with(23, 1, 3, structure_cfg(10, 1));
    let server = Rc::clone(&c.servers[0]);
    let splits = server.structure_stats(ChangeKind::Split);
    let merges = server.structure_stats(ChangeKind::Merge);
    let regions = server.hosted_regions();
    put_rows(&c, 1_000, 0..100, "a");
    c.sim.run_for(SimDuration::from_millis(200));
    server.flush_region(regions[0]);
    run_to(&c, 9_000);
    put_rows(&c, 2_000, 0..10, "b");
    run_to(&c, 10_500);
    assert_eq!(splits.considered.get(), 1);
    assert!(
        !server.request_region_merge(regions[1], regions[2]),
        "the slot is taken"
    );
    // Merge ticks at 11 s .. 19 s all see the pending split.
    run_to(&c, 19_500);
    assert_eq!(
        splits.intents_requested.get(),
        0,
        "a merge tick advanced the pending split"
    );
    assert_eq!(merges.considered.get(), 0);
    run_to(&c, 20_900);
    assert_eq!(splits.intents_requested.get(), 1);
    assert_eq!(splits.completed.get(), 1);
    assert!(server.request_region_merge(regions[1], regions[2]));
}

/// One fixed schedule that draws every answer the master and a region
/// server give each other across a structure change: a move the donor
/// refuses (5 s: its hottest region is mid-split), a split the master
/// grants (6 s), a move the donor begins and the master grants (10 s),
/// and a split the master denies (12 s: rs2, cut off from the
/// coordination service at 9.2 s, was failed over while it kept running,
/// and its request comes from a server the master has declared dead).
/// When each event happened and how many messages it took are pinned.
/// The moved region is unavailable only from the donor's flip to the
/// output's open on the least-loaded server, about a millisecond.
#[test]
fn master_answers_of_a_fixed_schedule_are_pinned() {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    cfg.split.enabled = true;
    cfg.split.threshold_bytes = 14 << 10;
    cfg.split.check_interval = SimDuration::from_secs(3);
    let mut master_cfg = MasterConfig::default();
    master_cfg.moves.enabled = true;
    master_cfg.moves.load_ratio = 1.5;
    master_cfg.moves.check_interval = SimDuration::from_secs(5);
    // rs0 hosts r0 and r3, rs1 r1 and r4, rs2 r2 and r5.
    let c = build_full(41, 3, 6, cfg, 1, master_cfg);
    let (rs0, rs2) = (Rc::clone(&c.servers[0]), Rc::clone(&c.servers[2]));
    // r0 is rs0's hottest region and over the split threshold, dirty at
    // the 3 s split tick; r3 is hot enough to be the next move.
    put_rows(&c, 1_000, 0..150, "a");
    run_to(&c, 1_500);
    put_rows(&c, 1_000, 500..620, "a");
    run_to(&c, 2_500);
    rs0.flush_region(RegionId(0));
    run_to(&c, 2_800);
    put_rows(&c, 2_000, (0..150).step_by(3), "b");
    // r2 likewise on rs2, for the 9 s tick.
    run_to(&c, 6_500);
    put_rows(&c, 3_000, 333..483, "c");
    run_to(&c, 7_500);
    rs2.flush_region(RegionId(2));
    run_to(&c, 8_500);
    put_rows(&c, 4_000, (333..483).step_by(3), "d");
    run_to(&c, 9_200);
    c.net.partition(rs2.node(), c.coord);
    run_to(&c, 14_000);

    let metrics = c.sim.metrics().snapshot();
    let moves = ["intents_persisted", "applied", "rolled_back"]
        .map(|m| metrics.get(&format!("master.move.{m}")));
    assert_eq!(
        moves,
        [Some(1), Some(1), Some(0)],
        "move intents persisted, applied, rolled back"
    );
    assert_eq!(
        metrics.get("net.sent{exchange=store.request_move}"),
        Some(4),
        "two move requests, each answered"
    );
    assert_eq!(c.sim.metrics().sum("master.split.applied"), 2);
    assert_eq!(
        rs2.structure_stats(ChangeKind::Split).aborted.get(),
        1,
        "the denial"
    );
    let counts: Vec<(&str, u64)> = c
        .events
        .counts()
        .into_iter()
        .filter(|(kind, _)| kind.starts_with("move.") || kind.starts_with("split."))
        .collect();
    assert_eq!(
        counts,
        [
            ("move.applied", 1),
            ("move.consider", 1),
            ("move.execute", 1),
            ("move.flip", 1),
            ("move.intent", 1),
            ("move.persisted", 1),
            ("move.refused", 1),
            ("split.applied", 2),
            ("split.consider", 3),
            ("split.denied", 1),
            ("split.execute", 2),
            ("split.flip", 2),
            ("split.intent", 3),
            ("split.persisted", 2),
        ]
    );
    assert_eq!(c.events.dropped(), 0);
    let instants: String = c
        .events
        .entries()
        .iter()
        .map(|e| format!("{} {}\n", e.time.nanos(), e.kind))
        .collect();
    assert_eq!(
        fnv1a(&instants),
        14_938_507_293_202_064_768,
        "event instants"
    );
    assert_eq!(
        lines_digest(&c.events.entries()),
        16_291_555_462_139_005_377,
        "event lines"
    );
    assert_eq!(
        lines(&c.events, "move."),
        [
            "5000608604 move.refused region=r0 donor=rs0",
            "10000286727 move.consider server=rs0 region=r3",
            "10200286727 move.intent server=rs0 region=r3",
            "10203386428 move.persisted region=r3 server=rs0 moved=r8",
            "10203673450 move.execute server=rs0 region=r3 moved=r8",
            "10206420397 move.flip server=rs0 region=r3 moved=r8",
            "10206729641 move.applied region=r3 moved=r8",
        ]
    );
    // The output opens on the least-loaded server, rs1.
    let opened: Vec<String> = lines(&c.events, "region.")
        .into_iter()
        .filter(|l| l.contains(" region=r8"))
        .collect();
    assert_eq!(
        opened,
        [
            "10206729641 region.assign region=r8 server=rs1",
            "10207639767 region.online server=rs1 region=r8",
        ]
    );
    assert_eq!(
        (c.net.messages_sent(), c.net.messages_dropped()),
        (1496, 10)
    );
}

/// One fixed schedule through the replication stream with two copies of
/// each region and splits on: data ships gated on their acks, full-state
/// syncs after flushes, split intents and the daughters' inherited lanes,
/// a lane dropped by a gap nack and one by an ack timeout (each re-synced
/// by the next tick), then a primary crash and the promotions and lane
/// repairs that follow. The numbers below are what commit c2c9aa2 (three
/// ship and three apply functions) produces; with one backup lane per
/// region the one-stream server must send the same elements in the same
/// order at the same instants.
#[test]
fn replication_of_a_fixed_schedule_is_pinned() {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    cfg.replication = true;
    cfg.split.enabled = true;
    cfg.split.threshold_bytes = 6 << 10;
    cfg.split.check_interval = SimDuration::from_secs(10);
    let c = build_replicated(31, 3, 3, cfg, 2);
    let node = |i: usize| c.servers[i].node();
    // The schedule's writes: rows `0, step, 2 * step, ..` get `value`.
    let writes: [(u64, &str); 8] = [
        (5, "a"),
        (7, "b"),
        (11, "c"),
        (13, "d"),
        (17, "e"),
        (19, "f"),
        (23, "g"),
        (29, "h"),
    ];
    let put = |n: usize| {
        let (step, value) = writes[n];
        put_rows(
            &c,
            1_000 * (n as u64 + 1),
            (0..1000).step_by(step as usize),
            value,
        );
    };
    put(0);
    run_to(&c, 3_000);
    for server in &c.servers {
        for region in server.hosted_regions() {
            server.flush_region(region);
        }
    }
    run_to(&c, 5_000);
    put(1);
    // 10 s: every server's region is a split candidate and flushes.
    // 20 s: intents, flips; the daughters inherit the lanes.
    run_to(&c, 19_900);
    put(2);
    run_to(&c, 23_000);
    assert_eq!(c.sim.metrics().sum("master.split.applied"), 3);
    put(3);
    // Ships lost behind a short partition, the next ones arrive: the
    // backup nacks the gap, the 26 s re-sync tick restores the lane.
    run_to(&c, 24_000);
    c.net.partition(node(1), node(2));
    put(4);
    run_to(&c, 24_600);
    c.net.heal(node(1), node(2));
    run_to(&c, 24_700);
    put(5);
    // Ships lost and nothing after them: the ack timeout drops the lane
    // at 28.5 s, the 30 s tick restores it.
    run_to(&c, 27_000);
    c.net.partition(node(0), node(1));
    put(6);
    run_to(&c, 28_800);
    c.net.heal(node(0), node(1));
    // 30 s: the next round of split candidates; rs2 dies holding one.
    run_to(&c, 33_000);
    c.servers[2].crash();
    put(7);
    run_to(&c, 47_000);

    let counts = |journal: &Journal, prefix: &str| -> Vec<(&str, u64)> {
        journal
            .counts()
            .into_iter()
            .filter(|(kind, _)| kind.starts_with(prefix))
            .collect()
    };
    assert_eq!(
        counts(&c.events, "replication."),
        [
            ("replication.eligible", 4),
            ("replication.establish", 34),
            ("replication.ineligible", 6),
            ("replication.lane_resynced", 21),
            ("replication.lane_unsynced", 6),
            ("replication.promote", 4),
            ("replication.repair", 2),
            ("replication.shadow_close", 5),
            ("replication.shadow_open", 17),
            ("replication.sync", 39),
        ]
    );
    assert_eq!(counts(&c.trace, "repl."), [("repl.ship", 717)]);
    assert_eq!(
        lines(&c.trace, "repl.ship")[0],
        "5000838801 repl.ship server=rs2 region=r2 seq=2 backup=rs0 bytes=149"
    );
    // When each of those events happened, as an FNV-1a digest over one
    // `<nanos> <kind>` line per event in journal order (details are left
    // out: they carry sequence numbers, which are not part of the pin).
    assert_eq!(c.events.dropped(), 0);
    let entries = c.events.entries();
    let instants: String = entries
        .iter()
        .filter(|e| e.kind.starts_with("replication."))
        .map(|e| format!("{} {}\n", e.time.nanos(), e.kind))
        .collect();
    assert_eq!(
        fnv1a(&instants),
        3_112_701_426_328_024_054,
        "replication event instants"
    );
    let replication = entries
        .iter()
        .filter(|e| e.kind.starts_with("replication."));
    assert_eq!(
        lines_digest(replication),
        6_704_772_698_682_124_541,
        "replication event lines"
    );
    let stats: Vec<[u64; 11]> = c
        .servers
        .iter()
        .map(|s| {
            let r = s.replication_stats();
            [
                r.ships.get(),
                r.ship_bytes.get(),
                r.acks.get(),
                r.nacks.get(),
                r.syncs.get(),
                r.applied.get(),
                r.fences.get(),
                r.fenced.get(),
                r.lane_drops.get(),
                r.backlog_bytes.get(),
                r.lag.get(),
            ]
        })
        .collect();
    // ships, ship_bytes, acks, nacks, syncs, applied, fences, fenced,
    // lane_drops, backlog_bytes, lag — rs0, rs1, rs2.
    assert_eq!(
        stats,
        [
            [264, 63630, 176, 0, 15, 167, 0, 0, 2, 0, 0],
            [300, 79358, 134, 7, 16, 176, 0, 0, 4, 0, 0],
            [153, 37619, 161, 0, 8, 128, 0, 0, 0, 0, 0],
        ]
    );
    assert_eq!((c.master.promotions(), c.master.fallback_replays()), (2, 0));
    let map = c.master.snapshot_map();
    // Region, start key, primary, backups — in key order.
    let shape: Vec<(u32, &str, Option<u32>, Vec<u32>)> = map
        .regions()
        .iter()
        .map(|d| {
            (
                d.id.0,
                std::str::from_utf8(&d.start).expect("ascii keys"),
                map.server_for(d.id).map(|s| s.0),
                map.replicas_of(d.id).iter().map(|s| s.0).collect(),
            )
        })
        .collect();
    assert_eq!(
        shape,
        [
            (7, "", Some(0), vec![1]),
            (11, "user000000000165", Some(0), vec![1]),
            (12, "user000000000250", Some(0), vec![1]),
            (3, "user000000000333", Some(1), vec![0]),
            (9, "user000000000500", Some(1), vec![0]),
            (10, "user000000000585", Some(1), vec![0]),
            (5, "user000000000666", Some(0), vec![1]),
            (6, "user000000000835", Some(0), vec![1]),
        ]
    );

    // Every row reads back its newest write.
    let rows: Vec<u64> = (0..1000u64)
        .filter(|i| writes.iter().any(|(step, _)| i % step == 0))
        .collect();
    let got: Rc<RefCell<Vec<Option<Bytes>>>> = Rc::default();
    // Batches small enough to be served inside the client's request
    // timeout.
    for batch in rows.chunks(32) {
        let cells = batch.iter().map(|i| (key(*i), Bytes::from_static(b"f0")));
        let sink = Rc::clone(&got);
        c.client
            .multi_get(cells.collect(), Timestamp(100_000), move |cells| {
                let values = cells.into_iter().map(|v| v.and_then(|vv| vv.value));
                sink.borrow_mut().extend(values);
            });
        c.sim.run_for(SimDuration::from_secs(1));
    }
    assert_eq!(got.borrow().len(), rows.len());
    for (i, got) in rows.iter().zip(got.borrow().iter()) {
        let newest = writes
            .iter()
            .rev()
            .find(|(step, _)| i % step == 0)
            .map(|(_, value)| format!("{value}{i:0>90}"));
        assert_eq!(
            got.as_deref(),
            newest.as_deref().map(str::as_bytes),
            "row {i}"
        );
    }
}

/// A primary cut off from its backup and from the master at once: the
/// ack timeout takes the lane out of sync, and the ineligibility report
/// that starts is lost and re-sent every 400 ms until the master cut
/// heals. The re-sync tick after the second heal brings the lane back
/// in. When each of those happened and how many messages it took are
/// pinned.
#[test]
fn a_lane_report_lost_to_a_master_cut_is_resent_until_answered() {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    cfg.replication = true;
    let c = build_replicated(71, 3, 3, cfg, 2);
    run_to(&c, 3_000);
    assert_eq!(c.events.count("replication.lane_resynced"), 3);
    let map = c.master.snapshot_map();
    let region = map.regions()[0].id;
    let primary = map.server_for(region).and_then(|s| c.dir.get(s));
    let primary = primary.expect("the primary is registered").node();
    let backup = c.dir.get(map.replicas_of(region)[0]);
    let backup = backup.expect("the backup is registered").node();
    c.net.partition(primary, backup);
    c.net.partition(primary, c.master.node());
    put_row_7(&c, region);
    run_to(&c, 6_000);
    assert_eq!(c.events.count("replication.lane_unsynced"), 1);
    assert_eq!(c.events.count("replication.ineligible"), 0);
    c.net.heal(primary, c.master.node());
    run_to(&c, 7_000);
    assert_eq!(c.events.count("replication.ineligible"), 1);
    c.net.heal(primary, backup);
    run_to(&c, 10_000);
    assert_eq!(c.events.count("replication.lane_resynced"), 4);
    assert_eq!(c.events.dropped(), 0);
    let after_the_cut: Vec<(u64, &str)> = c
        .events
        .entries()
        .iter()
        .filter(|e| e.kind.starts_with("replication.") && e.time.nanos() > 3_000_000_000)
        .map(|e| (e.time.nanos(), e.kind))
        .collect();
    assert_eq!(
        after_the_cut,
        [
            (4_500_859_285, "replication.lane_unsynced"),
            (6_101_171_095, "replication.ineligible"),
            (8_000_000_000, "replication.sync"),
            (8_000_607_063, "replication.lane_resynced"),
            (8_000_936_496, "replication.eligible"),
        ],
        "replication event instants"
    );
    assert_eq!((c.net.messages_sent(), c.net.messages_dropped()), (185, 11));
}

/// One region on rs0 with one backup lane, stopped at the instant the
/// primary ships the lane's first full-state sync (the 2 s re-sync tick;
/// the lane is out of sync since the establish). The memstore is large
/// enough that the sync spends milliseconds on the wire. Writes are
/// acknowledged once their WAL record is durable.
fn at_first_sync_ship() -> (Cluster, RegionId, Rc<RegionServer>) {
    let mut cfg = RegionServerConfig {
        wal_mode: WalSyncMode::Sync,
        ..RegionServerConfig::default()
    };
    cfg.replication = true;
    let c = build_replicated(47, 3, 1, cfg, 2);
    let map = c.master.snapshot_map();
    let region = map.regions()[0].id;
    let primary = c.dir.get(map.server_for(region).expect("assigned"));
    let primary = primary.expect("the primary is registered");
    for i in 100..164 {
        let m = Mutation::put(key(i), "f0", vec![b'a'; 2048]);
        c.client
            .multi_put(region, Timestamp(1_000 + i), vec![m], None, || {});
    }
    run_to(&c, 1_900);
    while primary.replication_stats().syncs.get() == 0 {
        c.sim.run_for(SimDuration::from_micros(50));
    }
    (c, region, primary)
}

/// Puts row 7 and returns the flag its acknowledgement sets.
fn put_row_7(c: &Cluster, region: RegionId) -> Rc<std::cell::Cell<bool>> {
    let acked = Rc::new(std::cell::Cell::new(false));
    let on_ack = Rc::clone(&acked);
    let m = Mutation::put(key(7), "f0", "acknowledged");
    c.client
        .multi_put(region, Timestamp(5_000), vec![m], None, move || {
            on_ack.set(true)
        });
    acked
}

/// Crashes `primary`, waits out the failover, and checks which way the
/// master recovered the region and that row 7 reads back.
fn crash_and_read_row_7(c: &Cluster, primary: &RegionServer, promotions: u64, replays: u64) {
    primary.crash();
    c.sim.run_for(SimDuration::from_secs(10));
    let recovered = (c.master.promotions(), c.master.fallback_replays());
    assert_eq!(recovered, (promotions, replays), "promotions, replays");
    let got = read_row(c, 7, 100_000).expect("row 7 exists");
    assert_eq!(got.1.as_deref(), Some(&b"acknowledged"[..]));
}

/// A write the primary serves while a full-state sync is on its way to an
/// out-of-sync lane is in neither the sync (cut before it) nor the lane's
/// stream (write-sets skip an out-of-sync lane), and it is acknowledged
/// ungated. That sync's ack must not bring the lane in, and the master
/// must not take the shadow's word for being in sync: a primary crash
/// right after falls back to the WAL, one after the next re-sync tick
/// promotes — and either way the write reads back.
#[test]
fn a_write_inside_a_sync_window_is_not_lost_to_a_promotion() {
    for crash_after_the_next_resync in [false, true] {
        let (c, region, primary) = at_first_sync_ship();
        let repl = primary.replication_stats().clone();
        let before = primary.memstore_bytes(region);
        let acked = put_row_7(&c, region);
        while primary.memstore_bytes(region) == before {
            c.sim.run_for(SimDuration::from_micros(50));
        }
        assert_eq!(repl.acks.get(), 0, "the write landed after the sync's ack");
        c.sim.run_for(SimDuration::from_millis(200));
        assert!(acked.get(), "the write was acknowledged");
        assert_eq!(repl.acks.get(), 1, "the sync was acked");
        assert_eq!(c.events.count("replication.lane_resynced"), 0);
        if crash_after_the_next_resync {
            run_to(&c, 4_500);
            assert_eq!(c.events.count("replication.lane_resynced"), 1);
            crash_and_read_row_7(&c, &primary, 1, 0);
        } else {
            crash_and_read_row_7(&c, &primary, 0, 1);
        }
    }
}

/// The sync reaches the shadow and its ack is lost: the shadow believes
/// it is in sync, the primary never learns so and keeps acknowledging
/// writes without it. The master holds a backup ineligible until its
/// *primary* confirms the lane, so the crash replays the WAL instead of
/// promoting a shadow that lacks the later write.
#[test]
fn a_shadow_whose_sync_ack_was_lost_is_not_promoted() {
    let (c, region, primary) = at_first_sync_ship();
    let backup = c.master.snapshot_map().replicas_of(region)[0];
    let backup = c.dir.get(backup).expect("the backup is registered");
    while backup.replication_stats().applied.get() == 0 {
        c.sim.run_for(SimDuration::from_micros(50));
    }
    c.net.partition(primary.node(), backup.node());
    c.sim.run_for(SimDuration::from_millis(50));
    c.net.heal(primary.node(), backup.node());
    assert_eq!(primary.replication_stats().acks.get(), 0, "the ack arrived");
    let acked = put_row_7(&c, region);
    c.sim.run_for(SimDuration::from_millis(200));
    assert!(acked.get(), "the write was acknowledged");
    crash_and_read_row_7(&c, &primary, 0, 1);
}

/// A flush write that is held up, not lost: the server cannot reach the
/// datanodes, so the append keeps retrying, and the flush tick issues a
/// second write of the same snapshot beside it. After the heal both
/// answer. The snapshot is the unit, not the attempt: the first durable
/// copy becomes the store file under its own name and frees the flush
/// slot, the other copy is deleted when it answers.
#[test]
fn the_first_answered_write_of_a_reissued_flush_wins_and_the_other_is_deleted() {
    let mut cfg = RegionServerConfig::default();
    cfg.compaction.enabled = false;
    let c = build_with(53, 1, 1, cfg);
    let server = Rc::clone(&c.servers[0]);
    let region = server.hosted_regions()[0];
    put_rows(&c, 1_000, 0..100, "a");
    run_to(&c, 5_000);
    for dn in &c.datanodes {
        c.net.partition(server.node(), *dn);
    }
    server.flush_region(region);
    let store_files = || {
        let files: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = Rc::clone(&files);
        c.dfs
            .list("/store/", move |paths| *sink.borrow_mut() = paths);
        c.sim.run_for(SimDuration::from_millis(100));
        files.take()
    };
    run_to(&c, 37_030);
    assert_eq!(c.events.count("flush.reissue"), 1);
    assert_eq!(server.storefile_count(region), 0, "nothing answered yet");
    assert_eq!(store_files().len(), 2, "both copies were created");
    c.net.heal_all();
    run_to(&c, 39_000);
    assert_eq!(server.storefile_count(region), 1);
    assert_eq!(server.memstore_bytes(region), 0);
    // With the heal at this instant it is the first write that answers
    // first, the one the flush tick had stopped waiting for.
    let first = format!("/store/{region}/000000-{}", server.id());
    assert_eq!(store_files(), [first], "the surplus copy is gone");
    run_to(&c, 100_000);
    assert_eq!(c.events.count("flush.reissue"), 1, "the slot was freed");
    assert_eq!(
        lines(&c.events, "flush.reissue"),
        ["35163026170 flush.reissue server=rs0 region=r0 file=/store/r0/000001-rs0"]
    );
    assert_eq!(c.master.failover_count(), 0);
    for i in [0, 57, 99] {
        let got = read_row(&c, i, 10_000).and_then(|(_, v)| v);
        assert_eq!(got, Some(Bytes::from(format!("a{i:0>90}"))), "row {i}");
    }
}

/// A server-recovery replay put's first attempt goes to the host its
/// hint names. When that host has died, the attempt times out and the
/// retry routes by the cached map: the put completes on the map's host
/// after exactly one retry.
#[test]
fn a_replay_hinted_at_a_crashed_server_completes_on_the_maps_host() {
    let c = build(5, 2, 4, WalSyncMode::Async);
    let map = c.master.snapshot_map();
    let live = c.servers[0].id();
    let row = (0..1_000u64)
        .find(|i| map.server_for(map.region_for(&key(*i))) == Some(live))
        .expect("rs0 hosts a row");
    let region = map.region_for(&key(row));
    c.servers[1].crash();
    let sent = c.sim.now();
    let acked: Rc<std::cell::Cell<Option<cumulo_sim::SimTime>>> = Rc::default();
    let (on_ack, sim) = (Rc::clone(&acked), c.sim.clone());
    let replay = Replay {
        floor: Timestamp(1),
        host: c.servers[1].id(),
    };
    let m = Mutation::put(key(row), "f0", "replayed");
    c.client
        .multi_put(region, Timestamp(7_000), vec![m], Some(replay), move || {
            on_ack.set(Some(sim.now()))
        });
    c.sim.run_for(SimDuration::from_secs(1));
    let acked = acked.get().expect("the replay put completes");
    assert_eq!(c.client.retry_count(), 1, "one retry, by the map");
    let timeout = StoreClientConfig::default().request_timeout;
    assert!(acked - sent > timeout, "the hinted attempt timed out first");
    let puts = c.sim.metrics().snapshot().get("store.puts{server=rs0}");
    assert_eq!(puts, Some(1), "served by the map's host");
    let got = read_row(&c, row, 100_000);
    assert_eq!(got, Some((Timestamp(7_000), Some("replayed".into()))));
}

/// A client whose request timeout is shorter than a loaded server's
/// answer: attempts time out while their requests are still queued, the
/// requests are served anyway, and their replies come back to attempts
/// long since re-issued. Every operation still completes exactly once,
/// with the right contents — a late reply settles nothing.
#[test]
fn a_late_reply_completes_nothing_twice() {
    let c = build(61, 2, 4, WalSyncMode::Async);
    put_rows(&c, 1, (0..100).chain(900..1_000), "v");
    c.sim.run_for(SimDuration::from_secs(2));
    let impatient = StoreClient::new(
        &c.sim,
        &c.net,
        c.net.add_node("impatient"),
        &c.master,
        &c.dir,
        StoreClientConfig {
            request_timeout: SimDuration::from_millis(4),
            ..StoreClientConfig::default()
        },
    );
    let loaded = |i: u64| Some(Bytes::from(format!("v{i:0>90}")));
    let f0 = Bytes::from_static(b"f0");
    // Below the burst's own flushes, so every read sees the loaded rows.
    let snapshot = Timestamp(5_000);
    // Completions per kind: get, multi_get, scan, flush.
    let completed: Rc<RefCell<[u32; 4]>> = Rc::default();
    let count = |kind: usize| {
        let completed = Rc::clone(&completed);
        move || completed.borrow_mut()[kind] += 1
    };
    for k in 0..40u64 {
        let far = 999 - k;
        let counted = count(0);
        impatient.get(key(k), f0.clone(), snapshot, move |v| {
            assert_eq!(v.and_then(|v| v.value), loaded(k));
            counted();
        });
        let counted = count(1);
        let cells = vec![(key(k), f0.clone()), (key(far), f0.clone())];
        impatient.multi_get(cells, snapshot, move |values| {
            let values: Vec<_> = values
                .into_iter()
                .map(|v| v.and_then(|v| v.value))
                .collect();
            assert_eq!(values, [loaded(k), loaded(far)]);
            counted();
        });
        let counted = count(2);
        impatient.scan(key(0), None, snapshot, 100, move |cells| {
            assert_eq!(cells.len(), 100);
            for (i, (row, _, v)) in cells.into_iter().enumerate() {
                assert_eq!((row, v.value), (key(i as u64), loaded(i as u64)));
            }
            counted();
        });
        let ws: WriteSet = [k, far]
            .into_iter()
            .map(|row| Mutation::put(key(row), "f0", format!("late-{k}")))
            .collect();
        impatient.flush(Timestamp(10_000 + k), &ws, count(3));
    }
    c.sim.run_for(SimDuration::from_secs(10));
    assert!(impatient.retry_count() > 0, "no attempt ever timed out");
    assert_eq!(*completed.borrow(), [40; 4]);
    for k in 0..40u64 {
        let flushed = Some((Timestamp(10_000 + k), Some(format!("late-{k}").into())));
        assert_eq!(read_row(&c, k, 100_000), flushed, "row {k}");
        assert_eq!(read_row(&c, 999 - k, 100_000), flushed, "row {}", 999 - k);
    }
}

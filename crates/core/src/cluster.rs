//! One-stop cluster harness: wires the filesystem, coordination service,
//! store, transaction manager and recovery middleware into a running
//! simulated deployment, with fault-injection helpers.
//!
//! The defaults mirror the paper's testbed (§4.1): two region servers
//! with co-located datanodes, HDFS replication factor 2, a combined
//! transaction/recovery management tier, 500 k rows, heartbeats of one
//! second, and a 100 Mbps LAN.

use crate::hooks_impl::MiddlewareHooks;
use crate::recovery_client::RecoveryClient;
use crate::recovery_manager::{RecoveryManager, RecoveryManagerConfig};
use crate::server_tracker::{ServerTracker, ServerTrackerConfig};
use crate::txn_client::{PersistenceMode, TransactionalClient, TxnClientConfig};
use bytes::Bytes;
use cumulo_coord::{CoordClient, CoordService};
use cumulo_dfs::{DataNode, DfsClient, NameNode, NameNodeConfig};
use cumulo_sim::{
    DiskConfig, Journal, LatencyConfig, MetricsRegistry, Network, Sim, SimDuration, SimTime,
};
use cumulo_store::{
    ChangeKind, ClientId, Master, MasterConfig, MemStore, RegionId, RegionMap, RegionServer,
    RegionServerConfig, ServerDirectory, ServerId, StoreClient, StoreClientConfig, StoreFileData,
    StoreFileRegistry, Timestamp, WalSyncMode,
};
use cumulo_txn::{TmClient, TransactionManager};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Row-key prefix of the loaded table.
const KEY_PREFIX: &str = "user";

/// Cluster-wide configuration: the deployment's shape, the paper's four
/// dials (`persistence`, `heartbeat_interval`, `tracking`, `truncation`)
/// and `region_replication` — each one value that [`Cluster::build`]
/// fans out to several components — plus the per-component knobs, each
/// of which lives in its component's config and nowhere else.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Simulation seed (same seed ⇒ identical run).
    pub seed: u64,
    /// Number of region servers (paper: 2). The filesystem runs one
    /// datanode per server plus a spare.
    pub servers: usize,
    /// Number of transactional client processes (paper: 50 threads).
    pub clients: usize,
    /// Number of regions the table is split into.
    pub regions: usize,
    /// Filesystem replication factor (paper: 2).
    pub replication: usize,
    /// Number of rows the key space is sized for (paper: 500 000).
    pub key_count: u64,
    /// Asynchronous (paper) vs synchronous (baseline) persistence: the
    /// clients' commit path and the servers' `server_cfg.wal_mode`.
    pub persistence: PersistenceMode,
    /// Tracker heartbeat period for clients and servers (Fig. 2b sweeps
    /// 50 ms – 10 s; the failure experiment uses 1 s). Also sizes the
    /// clients' coordination session timeout.
    pub heartbeat_interval: SimDuration,
    /// Whether threshold tracking runs (ablation): clients, server
    /// trackers and the recovery manager.
    pub tracking: bool,
    /// Whether log truncation runs (ablation).
    pub truncation: bool,
    /// Copies of each *region* (primary + backups): 2 means one backup
    /// shadow per region with promotion-based failover. 1 (the default)
    /// disables region replication entirely — zero extra messages, so
    /// calibrated experiments keep byte-identical schedules. Sets the
    /// master's replication factor and `server_cfg.replication`.
    /// Distinct from [`ClusterConfig::replication`], the *filesystem*
    /// block replication factor.
    pub region_replication: usize,
    /// Master knobs (proactive moves: `master_cfg.moves`).
    pub master_cfg: MasterConfig,
    /// Region-server knobs: flushes, block cache, and compaction, splits
    /// and merges under `server_cfg.{compaction, split, merge}`. Splits,
    /// merges and moves are off by default so calibrated experiments
    /// that predate them keep their schedules. `wal_mode` and
    /// `replication` are set from `persistence` and `region_replication`.
    pub server_cfg: RegionServerConfig,
    /// Store-client knobs.
    pub store_client_cfg: StoreClientConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            seed: 42,
            servers: 2,
            clients: 4,
            regions: 4,
            replication: 2,
            key_count: 500_000,
            persistence: PersistenceMode::Asynchronous,
            heartbeat_interval: SimDuration::from_secs(1),
            tracking: true,
            truncation: true,
            region_replication: 1,
            master_cfg: MasterConfig::default(),
            server_cfg: RegionServerConfig::default(),
            store_client_cfg: StoreClientConfig::default(),
        }
    }
}

/// A fully wired simulated deployment.
pub struct Cluster {
    /// The simulation kernel (drive it with `run_for`).
    pub sim: Sim,
    /// The network (crash/partition nodes through it).
    pub net: Rc<Network>,
    /// The coordination service.
    pub coord: Rc<CoordService>,
    /// The filesystem namenode.
    pub namenode: Rc<NameNode>,
    /// The filesystem datanodes, by index (crash one through
    /// [`Cluster::crash_datanode`] to exercise re-replication).
    pub datanodes: Vec<Rc<DataNode>>,
    /// The shared store-file registry.
    pub registry: Rc<StoreFileRegistry>,
    /// The server directory.
    pub dir: Rc<ServerDirectory>,
    /// The store master.
    pub master: Rc<Master>,
    /// The transaction manager.
    pub tm: Rc<TransactionManager>,
    /// The recovery manager (the paper's contribution).
    pub rm: Rc<RecoveryManager>,
    /// The hook bridge between store and middleware.
    pub hooks: Rc<MiddlewareHooks>,
    /// Region servers, by index.
    pub servers: Vec<Rc<RegionServer>>,
    /// Per-server tracking runtimes.
    pub server_trackers: Vec<Rc<ServerTracker>>,
    /// Transactional clients, by index.
    pub clients: Vec<TransactionalClient>,
    /// The run's metrics registry ([`Sim::metrics`]): every component
    /// registered its counters and gauges there under stable names and
    /// labels as it was built, so one [`MetricsRegistry::snapshot`]
    /// captures the whole deployment. The aggregate views
    /// ([`Cluster::filter_totals`], [`Cluster::compaction_totals`], …)
    /// are thin queries over it.
    pub metrics: MetricsRegistry,
    /// The run's trace journal ([`Sim::trace`]): per-RPC service spans
    /// (`rpc.*`) and per-transaction lifecycle spans (`txn.*`), in
    /// deterministic simulation order. Ring-buffered; evicted records
    /// stay counted.
    pub trace: Journal,
    /// The run's failure-event journal ([`Sim::events`]):
    /// recovery-protocol transitions (failover, threshold advancement,
    /// split intent/flip/rollback, compaction and flush backpressure)
    /// that chaos tests assert sequences over.
    pub events: Journal,
    probe: StoreClient,
    cfg: ClusterConfig,
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("servers", &self.servers.len())
            .field("clients", &self.clients.len())
            .field("now", &self.sim.now())
            .finish()
    }
}

impl Cluster {
    /// Builds and starts a cluster; returns once every region is online
    /// and every client is registered.
    ///
    /// # Panics
    ///
    /// Panics if the cluster fails to come up within simulated 30 s
    /// (a configuration error).
    pub fn build(cfg: ClusterConfig) -> Cluster {
        let sim = Sim::new(cfg.seed);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());

        // Coordination service.
        let coord_node = net.add_node("coord");
        let coord = CoordService::new(&sim, &net, coord_node, SimDuration::from_millis(100));

        // Filesystem: one datanode per server plus a spare.
        let dns: Vec<Rc<DataNode>> = (0..cfg.servers + 1)
            .map(|i| {
                DataNode::new(
                    &sim,
                    net.add_node(&format!("dn{i}")),
                    DiskConfig::server_hdd(),
                )
            })
            .collect();
        let nn_node = net.add_node("namenode");
        let nn_cfg = NameNodeConfig {
            replication: cfg.replication,
            ..NameNodeConfig::default()
        };
        let namenode = NameNode::new(&sim, &net, nn_node, dns.clone(), nn_cfg);

        let registry = StoreFileRegistry::new();
        let dir = ServerDirectory::new();

        // Transaction manager on its own node.
        let tm_node = net.add_node("txn-manager");
        let tm = TransactionManager::new(&sim, tm_node);

        // Region servers.
        let mut server_cfg = cfg.server_cfg;
        server_cfg.wal_mode = match cfg.persistence {
            PersistenceMode::Asynchronous => WalSyncMode::Async,
            PersistenceMode::Synchronous => WalSyncMode::Sync,
        };
        server_cfg.replication = cfg.region_replication > 1;
        if cfg.tracking && cfg.persistence == PersistenceMode::Asynchronous {
            // Paper-faithful: with the middleware installed, the WAL is
            // synced by the tracker heartbeat (Algorithm 3), not by a
            // separate background timer.
            server_cfg.wal_sync_interval = SimDuration::from_secs(3600);
        }
        let mut servers = Vec::new();
        for i in 0..cfg.servers {
            let node = net.add_node(&format!("rs{i}"));
            let dfs = DfsClient::new(&sim, &net, &namenode, node);
            let server = RegionServer::new(
                &sim,
                &net,
                node,
                ServerId(i as u32),
                server_cfg,
                dfs,
                Rc::clone(&registry),
            );
            let server_coord = CoordClient::new(&net, &coord, node);
            // Compaction garbage-collects versions shadowed below the
            // transaction manager's oldest active snapshot.
            let tm_for_gc = Rc::clone(&tm);
            server.set_gc_watermark_source(Rc::new(move || {
                let horizon = tm_for_gc.oldest_active_snapshot();
                // Tombstone purge must not outrun the recovery log:
                // write-sets still in the log can be replayed after a
                // client or server failure, and a purged tombstone would
                // let a replayed older version resurrect.
                cumulo_store::compaction::GcWatermark {
                    horizon,
                    purge_floor: horizon.min(tm_for_gc.log().truncated_below()),
                }
            }));
            server.start(&server_coord);
            dir.register(Rc::clone(&server));
            servers.push(server);
        }

        // Master.
        let master_node = net.add_node("master");
        let master_dfs = DfsClient::new(&sim, &net, &namenode, master_node);
        let master = Master::new(
            &sim,
            &net,
            master_node,
            cfg.master_cfg,
            master_dfs,
            Rc::clone(&dir),
            Rc::clone(&registry),
        );
        let master_coord = CoordClient::new(&net, &coord, master_node);
        master.start(&master_coord);

        // Recovery manager + recovery client on their own node.
        let rm_node = net.add_node("recovery-manager");
        let rc_store = StoreClient::new(&sim, &net, rm_node, &master, &dir, cfg.store_client_cfg);
        let rm_tm = TmClient::new(&net, &tm, rm_node);
        let rc = RecoveryClient::new(&sim, rc_store, rm_tm.clone());
        let rm_coord = CoordClient::new(&net, &coord, rm_node);
        let rm_cfg = RecoveryManagerConfig {
            tracking: cfg.tracking,
            truncation: cfg.truncation,
        };
        let rm = RecoveryManager::new(&sim, &net, rm_node, rm_coord, rm_tm, rc, rm_cfg);
        rm.start();

        // Hook bridge + per-server trackers.
        let hooks = MiddlewareHooks::new(&sim, &net, &rm, master_node);
        let tracker_cfg = ServerTrackerConfig {
            heartbeat_interval: cfg.heartbeat_interval,
            tracking: cfg.tracking,
        };
        let mut server_trackers = Vec::new();
        for server in &servers {
            let coord_client = CoordClient::new(&net, &coord, server.node());
            let tracker = ServerTracker::new(&sim, server, coord_client, tracker_cfg);
            tracker.start();
            hooks.register_tracker(Rc::clone(&tracker));
            server_trackers.push(tracker);
        }
        master.set_hooks(hooks.clone() as Rc<dyn cumulo_store::RecoveryHooks>);

        // Table bootstrap.
        master.set_replication_factor(cfg.region_replication);
        master.bootstrap(RegionMap::split_decimal_keyspace(
            KEY_PREFIX,
            cfg.key_count,
            cfg.regions,
        ));
        let deadline = sim.now() + SimDuration::from_secs(30);
        loop {
            sim.run_for(SimDuration::from_millis(200));
            if every_region_online(&master, &dir) {
                break;
            }
            assert!(sim.now() < deadline, "cluster failed to bootstrap");
        }

        rm.recovery_client().reseed_region_map();

        // Clients.
        let session_timeout = {
            let three = cfg.heartbeat_interval * 3;
            three
                .max(SimDuration::from_secs(1))
                .min(SimDuration::from_secs(30))
        };
        let client_cfg = TxnClientConfig {
            heartbeat_interval: cfg.heartbeat_interval,
            session_timeout,
            persistence: cfg.persistence,
            tracking: cfg.tracking,
        };
        let mut clients = Vec::new();
        for i in 0..cfg.clients {
            let node = net.add_node(&format!("client{i}"));
            let store = StoreClient::new(&sim, &net, node, &master, &dir, cfg.store_client_cfg);
            let coord_client = CoordClient::new(&net, &coord, node);
            let client = TransactionalClient::new(
                &sim,
                &net,
                ClientId(i as u32),
                node,
                TmClient::new(&net, &tm, node),
                store,
                coord_client,
                client_cfg,
            );
            client.start();
            clients.push(client);
        }

        // Probe client for out-of-band reads in tests and verification.
        let probe_node = net.add_node("probe");
        let probe = StoreClient::new(&sim, &net, probe_node, &master, &dir, cfg.store_client_cfg);

        sim.run_for(SimDuration::from_millis(500)); // registrations settle

        Cluster {
            metrics: sim.metrics().clone(),
            trace: sim.trace().clone(),
            events: sim.events().clone(),
            sim,
            net,
            coord,
            namenode,
            datanodes: dns,
            registry,
            dir,
            master,
            tm,
            rm,
            hooks,
            servers,
            server_trackers,
            clients,
            probe,
            cfg,
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Runs the simulation forward.
    pub fn run_for(&self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// A client by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client(&self, i: usize) -> &TransactionalClient {
        &self.clients[i]
    }

    /// Crashes region server `i` (crash-stop; the master detects it via
    /// the coordination session timeout).
    pub fn crash_server(&self, i: usize) {
        self.servers[i].crash();
    }

    /// Crashes client `i` (the recovery manager detects the missed
    /// heartbeats and replays its interrupted commits).
    pub fn crash_client(&self, i: usize) {
        self.clients[i].crash();
    }

    /// Crashes datanode `i`'s node: the namenode's sweep detects the
    /// missing replicas and re-replicates every under-replicated file
    /// onto surviving datanodes.
    pub fn crash_datanode(&self, i: usize) {
        self.net.crash(self.datanodes[i].node());
    }

    /// Crashes the recovery manager (§3.3).
    pub fn crash_recovery_manager(&self) {
        self.rm.crash();
    }

    /// Restarts the recovery manager; it catches up from the
    /// coordination service.
    pub fn restart_recovery_manager(&self) {
        self.rm.restart();
    }

    /// Bulk-loads `rows` rows (named `prefix{i:012}`) with the given
    /// columns and value size, as pre-versioned store files (version 0),
    /// and optionally pre-warms the hosting servers' block caches (the
    /// paper warms the cache before every experiment, §4.1).
    ///
    /// Drives the simulation while the files replicate.
    pub fn load_rows(&self, rows: u64, columns: &[&str], value_len: usize, warm_cache: bool) {
        let map = self.master.snapshot_map();
        let loader_node = self.net.add_node("loader");
        let dfs = DfsClient::new(&self.sim, &self.net, &self.namenode, loader_node);
        let value = Bytes::from(vec![0x61; value_len]);
        for desc in map.regions() {
            let region = desc.id;
            let mut ms = MemStore::new();
            let mut region_rows: Vec<Bytes> = Vec::new();
            for i in 0..rows {
                let key = Bytes::from(format!("{KEY_PREFIX}{i:012}"));
                if !desc.contains(&key) {
                    continue;
                }
                for col in columns {
                    ms.apply(
                        key.clone(),
                        Bytes::copy_from_slice(col.as_bytes()),
                        Timestamp::ZERO,
                        Some(value.clone()),
                    );
                }
                region_rows.push(key);
            }
            if ms.is_empty() {
                continue;
            }
            let path = format!("/store/{region}/loaded");
            let data = Rc::new(StoreFileData::from_memstore(region, path.clone(), &ms));
            let registry = Rc::clone(&self.registry);
            let done: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
            let done2 = Rc::clone(&done);
            let data2 = Rc::clone(&data);
            dfs.create(&path, move |file| {
                let file = file.expect("loader file create");
                let encoded = data2.encode();
                file.append(encoded, move |r| {
                    r.expect("loader append");
                    registry.insert(data2);
                    *done2.borrow_mut() = true;
                });
            });
            // Drive the replication to completion.
            let deadline = self.sim.now() + SimDuration::from_secs(120);
            while !*done.borrow() {
                self.sim.run_for(SimDuration::from_millis(250));
                assert!(self.sim.now() < deadline, "bulk load stalled");
            }
            let server = map
                .server_for(region)
                .and_then(|s| self.dir.get(s))
                .expect("region assigned during load");
            server.attach_storefile(region, Rc::clone(&data));
            if warm_cache {
                server.warm_cache(region, region_rows);
            }
        }
    }

    /// Reads the newest committed-and-flushed version of a cell through
    /// the probe client, driving the simulation until the read completes
    /// (or `within` elapses, which panics — reads retry forever, so this
    /// indicates an unrecoverable cluster).
    pub fn read_cell(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        within: SimDuration,
    ) -> Option<Bytes> {
        let result: Rc<RefCell<Option<Option<Bytes>>>> = Rc::new(RefCell::new(None));
        let r2 = Rc::clone(&result);
        self.probe
            .get(row.into(), column.into(), Timestamp::MAX, move |vv| {
                *r2.borrow_mut() = Some(vv.and_then(|v| v.value));
            });
        let deadline = self.sim.now() + within;
        while result.borrow().is_none() {
            self.sim.run_for(SimDuration::from_millis(100));
            assert!(
                self.sim.now() < deadline,
                "read did not complete within {within}"
            );
        }
        let out = result.borrow_mut().take();
        out.expect("loop exits only when set")
    }

    /// Whether every region of the table is online on its assigned server.
    pub fn all_regions_online(&self) -> bool {
        every_region_online(&self.master, &self.dir)
    }

    /// Total transactions committed across all clients (a registry view
    /// over `txn.committed`).
    pub fn total_committed(&self) -> u64 {
        self.metrics.sum("txn.committed")
    }

    /// Total transactions aborted across all clients (a registry view
    /// over `txn.aborted`).
    pub fn total_aborted(&self) -> u64 {
        self.metrics.sum("txn.aborted")
    }

    /// Background compactions completed across all servers (a registry
    /// view over `store.compaction.completed`).
    pub fn total_compactions(&self) -> u64 {
        self.metrics.sum("store.compaction.completed")
    }

    /// Worst-case read amplification right now: the largest store-file
    /// count backing any region on any server (a registry view over the
    /// `store.read_amplification` gauges).
    pub fn max_read_amplification(&self) -> u64 {
        self.metrics.max("store.read_amplification")
    }

    /// Cluster-wide snapshot of the point-get filter statistics, summed
    /// across all region servers — a view over the registry's
    /// `store.filter.*` metrics (see `cumulo_store::FilterStats`).
    pub fn filter_totals(&self) -> FilterTotals {
        FilterTotals {
            probes: self.metrics.sum("store.filter.probes"),
            range_skips: self.metrics.sum("store.filter.range_skips"),
            filter_skips: self.metrics.sum("store.filter.filter_skips"),
            false_positives: self.metrics.sum("store.filter.false_positives"),
            false_negatives: self.metrics.sum("store.filter.false_negatives"),
            files_consulted: self.metrics.sum("store.filter.files_consulted"),
            gets_served: self.metrics.sum("store.gets"),
            filter_bytes: self.metrics.sum("store.filter.bytes"),
        }
    }

    /// Toggles bloom probing on point gets on every region server (the
    /// benchmarks' A/B switch; the store-file stacks are unaffected).
    pub fn set_bloom_filters(&self, enabled: bool) {
        for s in &self.servers {
            s.set_bloom_filters(enabled);
        }
    }

    /// Cluster-wide snapshot of the compaction statistics, summed across
    /// all region servers — a view over the registry's
    /// `store.compaction.*` metrics (see `cumulo_store::CompactionStats`).
    pub fn compaction_totals(&self) -> CompactionTotals {
        CompactionTotals {
            started: self.metrics.sum("store.compaction.started"),
            completed: self.metrics.sum("store.compaction.completed"),
            bytes_rewritten: self.metrics.sum("store.compaction.bytes_rewritten"),
            versions_dropped: self.metrics.sum("store.compaction.versions_dropped"),
            files_retired: self.metrics.sum("store.compaction.files_retired"),
            deferred: self.metrics.sum("store.compaction.deferred"),
            forced: self.metrics.sum("store.compaction.forced"),
            flush_stalls: self.metrics.sum("store.compaction.flush_stalls"),
            stall_ns: self.metrics.sum("store.compaction.stall_ns"),
        }
    }

    /// Cluster-wide snapshot of the online-split statistics: per-server
    /// counters summed, master-side intent/apply/rollback counters
    /// attached (see `cumulo_store::StructureStats`).
    pub fn split_totals(&self) -> StructureTotals {
        self.structure_totals(ChangeKind::Split)
    }

    /// Cluster-wide snapshot of the online-merge statistics, in the same
    /// terms as [`Cluster::split_totals`].
    pub fn merge_totals(&self) -> StructureTotals {
        self.structure_totals(ChangeKind::Merge)
    }

    fn structure_totals(&self, kind: ChangeKind) -> StructureTotals {
        let kind = kind.name();
        let sum = |side: &str, name: &str| self.metrics.sum(&format!("{side}.{kind}.{name}"));
        StructureTotals {
            considered: sum("store", "considered"),
            intents_requested: sum("store", "intents_requested"),
            executing: sum("store", "executing"),
            completed: sum("store", "completed"),
            server_aborted: sum("store", "aborted"),
            intents_persisted: sum("master", "intents_persisted"),
            applied: sum("master", "applied"),
            rolled_back: sum("master", "rolled_back"),
        }
    }

    /// Splits applied to the region map so far.
    pub fn total_splits(&self) -> u64 {
        self.master.splits_applied()
    }

    /// Merges applied to the region map so far.
    pub fn total_merges(&self) -> u64 {
        self.master.merges_applied()
    }

    /// Proactive region moves completed by the master so far.
    pub fn total_moves(&self) -> u64 {
        self.master.moves_completed()
    }

    /// Admin trigger: ask the server currently hosting `left` to merge
    /// it with the adjacent region `right`. Returns `false` (no side
    /// effects) when the pair is not currently mergeable — not
    /// co-hosted, not adjacent, or a structural operation is already in
    /// flight on that server. Deterministic alternative to waiting for
    /// the merge-candidacy timer; tests and benches drive the full
    /// intent→execute→flip protocol through it.
    pub fn request_merge(&self, left: RegionId, right: RegionId) -> bool {
        let map = self.master.snapshot_map();
        let (Some(&owner_l), Some(&owner_r)) =
            (map.assignments().get(&left), map.assignments().get(&right))
        else {
            return false;
        };
        if owner_l != owner_r {
            return false;
        }
        let Some(server) = self.servers.iter().find(|s| s.id() == owner_l) else {
            return false;
        };
        if !server.is_alive() {
            return false;
        }
        server.request_region_merge(left, right)
    }

    /// Asserts the region map still partitions the key space: regions
    /// sorted by start, contiguous, non-overlapping, covering
    /// `(-inf, +inf)` — the invariant every split must preserve. Also
    /// checks that no two *online* hosted regions cover the same row
    /// range (a parent and its daughters must never be served at once).
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) when the invariant is violated; used by
    /// the split test suites after every crash schedule.
    pub fn assert_region_partition(&self) {
        let map = self.master.snapshot_map();
        let regions = map.regions();
        assert!(!regions.is_empty(), "region map is empty");
        assert!(
            regions[0].start.is_empty(),
            "first region must start at -inf"
        );
        assert!(
            regions[regions.len() - 1].end.is_none(),
            "last region must end at +inf"
        );
        for w in regions.windows(2) {
            assert_eq!(
                w[0].end.as_ref(),
                Some(&w[1].start),
                "gap or overlap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        // No two online hosted regions may cover the same key anywhere
        // in the cluster (parent + daughter simultaneously online would
        // show up here).
        let mut online: Vec<(cumulo_store::RegionDescriptor, ServerId)> = Vec::new();
        for s in &self.servers {
            if !s.is_alive() {
                // A crashed process's in-memory region states are moot:
                // the network drops all traffic to it.
                continue;
            }
            for r in s.hosted_regions() {
                if !s.region_online(r) {
                    continue;
                }
                if let Some(desc) = s.region_descriptor(r) {
                    online.push((desc, s.id()));
                }
            }
        }
        for (i, (a, sa)) in online.iter().enumerate() {
            for (b, sb) in online.iter().skip(i + 1) {
                let disjoint = a
                    .end
                    .as_ref()
                    .map(|e| e[..] <= b.start[..])
                    .unwrap_or(false)
                    || b.end
                        .as_ref()
                        .map(|e| e[..] <= a.start[..])
                        .unwrap_or(false);
                assert!(
                    disjoint,
                    "regions {a:?} (on {sa}) and {b:?} (on {sb}) are both online and overlap"
                );
            }
        }
    }

    /// Per-level `(file count, bytes)` summed across all region servers,
    /// indexed by LSM level (slot 0 holds everything under size-tiered) —
    /// a view over the registry's `store.level.files`/`store.level.bytes`
    /// gauge vectors.
    pub fn level_profile(&self) -> Vec<(u64, u64)> {
        let files = self.metrics.sum_vec("store.level.files");
        let bytes = self.metrics.sum_vec("store.level.bytes");
        let levels = files.len().max(bytes.len());
        (0..levels)
            .map(|i| {
                (
                    files.get(i).copied().unwrap_or(0),
                    bytes.get(i).copied().unwrap_or(0),
                )
            })
            .collect()
    }
}

/// Whether every region in the master's map is online on the server the
/// map assigns it to.
fn every_region_online(master: &Master, dir: &ServerDirectory) -> bool {
    let map = master.snapshot_map();
    map.regions().iter().all(|r| {
        map.server_for(r.id)
            .and_then(|s| dir.get(s))
            .map(|srv| srv.region_online(r.id))
            .unwrap_or(false)
    })
}

/// Cluster-wide sums of the statistics of one kind of online structure
/// change — splits or merges (server counters plus the master's intent
/// bookkeeping).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StructureTotals {
    /// Candidacies accepted by servers (timer or admin trigger).
    pub considered: u64,
    /// Intent requests sent to the master.
    pub intents_requested: u64,
    /// Intents whose execution reached reference building.
    pub executing: u64,
    /// Changes flipped on a server (inputs replaced by outputs).
    pub completed: u64,
    /// Requests the master denied plus granted intents abandoned
    /// server-side.
    pub server_aborted: u64,
    /// Intents the master made durable.
    pub intents_persisted: u64,
    /// Changes applied to the region map.
    pub applied: u64,
    /// Intents rolled back at the master (failover or abort).
    pub rolled_back: u64,
}

/// Cluster-wide sums of the per-server compaction statistics.
///
/// Counters only ever grow, so the difference of two snapshots
/// ([`CompactionTotals::since`]) isolates one measurement phase — the
/// same pattern as [`FilterTotals`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactionTotals {
    /// Compactions started.
    pub started: u64,
    /// Compactions that swapped their merged outputs in.
    pub completed: u64,
    /// Bytes written into merged output files.
    pub bytes_rewritten: u64,
    /// MVCC versions garbage-collected.
    pub versions_dropped: u64,
    /// Input files retired.
    pub files_retired: u64,
    /// Due merges deferred by the backpressure scheduler.
    pub deferred: u64,
    /// Deferred merges forced through after the deficit bank filled.
    pub forced: u64,
    /// Memstore flushes stalled by the file-count hard limit.
    pub flush_stalls: u64,
    /// Simulated nanoseconds flush work spent stalled.
    pub stall_ns: u64,
}

impl CompactionTotals {
    /// The counter deltas accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &CompactionTotals) -> CompactionTotals {
        CompactionTotals {
            started: self.started - earlier.started,
            completed: self.completed - earlier.completed,
            bytes_rewritten: self.bytes_rewritten - earlier.bytes_rewritten,
            versions_dropped: self.versions_dropped - earlier.versions_dropped,
            files_retired: self.files_retired - earlier.files_retired,
            deferred: self.deferred - earlier.deferred,
            forced: self.forced - earlier.forced,
            flush_stalls: self.flush_stalls - earlier.flush_stalls,
            stall_ns: self.stall_ns - earlier.stall_ns,
        }
    }
}

/// Cluster-wide sums of the per-server point-get filter statistics.
///
/// Counters only ever grow, so the difference of two snapshots
/// ([`FilterTotals::since`]) isolates one measurement phase.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FilterTotals {
    /// Bloom-filter probes performed.
    pub probes: u64,
    /// Files excluded by key-range pruning.
    pub range_skips: u64,
    /// Files excluded by a negative bloom probe.
    pub filter_skips: u64,
    /// Consulted files that did not hold the key (filter false positives).
    pub false_positives: u64,
    /// Wrong filter exclusions (requires `verify_filters`; must be zero).
    pub false_negatives: u64,
    /// Store files consulted by point gets.
    pub files_consulted: u64,
    /// Point gets served.
    pub gets_served: u64,
    /// Current filter-metadata bytes across all servers (a gauge, not a
    /// counter — `since` keeps the later snapshot's value).
    pub filter_bytes: u64,
}

impl FilterTotals {
    /// The counter deltas accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &FilterTotals) -> FilterTotals {
        FilterTotals {
            probes: self.probes - earlier.probes,
            range_skips: self.range_skips - earlier.range_skips,
            filter_skips: self.filter_skips - earlier.filter_skips,
            false_positives: self.false_positives - earlier.false_positives,
            false_negatives: self.false_negatives - earlier.false_negatives,
            files_consulted: self.files_consulted - earlier.files_consulted,
            gets_served: self.gets_served - earlier.gets_served,
            filter_bytes: self.filter_bytes,
        }
    }

    /// Mean store files consulted per point get (0 if no gets).
    pub fn consulted_per_get(&self) -> f64 {
        if self.gets_served == 0 {
            0.0
        } else {
            self.files_consulted as f64 / self.gets_served as f64
        }
    }

    /// Fraction of filter *negatives-or-false-positives* that were false
    /// positives: `fp / (fp + true negatives)`, the standard bloom
    /// false-positive rate (0 if the filter never answered for an absent
    /// key).
    pub fn false_positive_rate(&self) -> f64 {
        let denominator = self.false_positives + self.filter_skips;
        if denominator == 0 {
            0.0
        } else {
            self.false_positives as f64 / denominator as f64
        }
    }
}

//! One-stop cluster harness: wires the filesystem, coordination service,
//! store, transaction manager and recovery middleware into a running
//! simulated deployment, with fault-injection helpers.
//!
//! The defaults mirror the paper's testbed (§4.1): two region servers
//! with co-located datanodes, HDFS replication factor 2, a combined
//! transaction/recovery management tier, 500 k rows, heartbeats of one
//! second, and a 100 Mbps LAN.

use crate::history::{History, Read, Seen};
use crate::hooks_impl::MiddlewareHooks;
use crate::recovery_client::RecoveryClient;
use crate::recovery_manager::{RecoveryManager, RecoveryManagerConfig};
use crate::server_tracker::{ServerTracker, ServerTrackerConfig};
use crate::txn_client::{PersistenceMode, TransactionalClient, TxnClientConfig};
use bytes::Bytes;
use cumulo_coord::{CoordClient, CoordService};
use cumulo_dfs::{DataNode, DfsClient, NameNode, NameNodeConfig};
use cumulo_sim::{
    DiskConfig, Journal, LatencyConfig, MetricsRegistry, Network, NodeId, Sim, SimDuration, SimTime,
};
use cumulo_store::compaction::GcWatermark;
use cumulo_store::{
    ClientId, Master, MasterConfig, RegionId, RegionMap, RegionServer, RegionServerConfig,
    ServerDirectory, ServerId, StoreClient, StoreClientConfig, StoreFileBuilder, StoreFileRegistry,
    Timestamp, VersionedValue, WalSyncMode,
};
use cumulo_txn::{TmClient, TransactionManager};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write as _;
use std::rc::Rc;

/// Row-key prefix of the loaded table.
const KEY_PREFIX: &str = "user";

/// Writes the key of row `i` of the loaded table over `key`.
fn write_row_key(key: &mut Vec<u8>, i: u64) {
    key.clear();
    write!(key, "{KEY_PREFIX}{i:012}").expect("a Vec takes every write");
}

/// Turns `key`, the key of row `i`, into the key of row `i + 1` by
/// incrementing its decimal digits in place: the loader's rows ascend,
/// so it steps through them rather than formatting each.
///
/// # Panics
///
/// If `i + 1` needs more digits than `key` has (13 from row 10^12 on).
fn next_row_key(key: &mut [u8]) {
    for digit in key[KEY_PREFIX.len()..].iter_mut().rev() {
        if *digit < b'9' {
            *digit += 1;
            return;
        }
        *digit = b'0';
    }
    panic!("a row key widens past row 10^12");
}

/// The first of rows `0..rows` whose key is at or above `bound` (`rows`
/// if none is): keys ascend with the row number, so a binary search over
/// numbers finds it.
fn first_row_at_or_above(bound: &[u8], rows: u64) -> u64 {
    let mut probe = Vec::new();
    let (mut lo, mut hi) = (0, rows);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        write_row_key(&mut probe, mid);
        if probe.as_slice() < bound {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Cluster-wide configuration: the deployment's shape, the paper's three
/// dials (`persistence`, `heartbeat_interval`, `tracking`) and
/// `region_replication` — each one value that [`Cluster::build`]
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
    /// trackers and the recovery manager. Without it no `T_P` is ever
    /// published, so the recovery log is never truncated either.
    pub tracking: bool,
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
    /// Region servers, by index.
    pub servers: Vec<Rc<RegionServer>>,
    /// Transactional clients, by index.
    pub clients: Vec<TransactionalClient>,
    /// The run's metrics registry ([`Sim::metrics`]): every component
    /// registered its counters and gauges there under stable names and
    /// labels as it was built, so one [`MetricsRegistry::snapshot`]
    /// captures the whole deployment. It is how callers read the
    /// cluster's numbers: `sum` / `max` for totals, a snapshot `diff`
    /// for one phase.
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
    /// What the clients record their transactions in: nothing until
    /// [`Cluster::attach_history`].
    history: History,
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
        let namenode = NameNode::new(&net, nn_node, dns.clone(), nn_cfg);

        let registry = StoreFileRegistry::new();
        let dir = ServerDirectory::new();

        // Transaction manager on its own node.
        let tm_node = net.add_node("txn-manager");
        let tm = TransactionManager::new(&sim, &net, tm_node);

        // The master, then the region servers it runs (node ids in the
        // order servers first, then the master).
        let server_nodes: Vec<NodeId> = (0..cfg.servers)
            .map(|i| net.add_node(&format!("rs{i}")))
            .collect();
        let master_node = net.add_node("master");
        let master_dfs = DfsClient::new(&net, &namenode, master_node);
        let master = Master::new(
            &sim,
            &net,
            master_node,
            cfg.master_cfg,
            master_dfs,
            Rc::clone(&dir),
            Rc::clone(&registry),
        );
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
        for (i, &node) in server_nodes.iter().enumerate() {
            // Compaction garbage-collects versions shadowed below the
            // transaction manager's oldest active snapshot.
            let tm_for_gc = Rc::clone(&tm);
            let server = RegionServer::new(
                &master,
                node,
                ServerId(i as u32),
                server_cfg,
                DfsClient::new(&net, &namenode, node),
                CoordClient::new(&net, &coord, node),
                move || {
                    let horizon = tm_for_gc.oldest_active_snapshot();
                    // Tombstone purge must not outrun the recovery log:
                    // write-sets still in the log can be replayed after a
                    // client or server failure, and a purged tombstone
                    // would let a replayed older version resurrect.
                    GcWatermark {
                        horizon,
                        purge_floor: horizon.min(tm_for_gc.log().truncated_below()),
                    }
                },
            );
            server.start();
            dir.register(Rc::clone(&server));
            servers.push(server);
        }
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
        };
        let rm = RecoveryManager::new(&sim, &net, rm_node, rm_coord, rm_tm, rc, rm_cfg);
        rm.start();

        // Hook bridge + per-server trackers.
        let hooks = MiddlewareHooks::new(&net, &rm, master_node);
        let tracker_cfg = ServerTrackerConfig {
            heartbeat_interval: cfg.heartbeat_interval,
            tracking: cfg.tracking,
        };
        for server in &servers {
            let coord_client = CoordClient::new(&net, &coord, server.node());
            let tracker = ServerTracker::new(&sim, &net, server, coord_client, tracker_cfg);
            tracker.start();
            hooks.register_tracker(tracker);
        }
        master.set_hooks(hooks);

        // Table bootstrap.
        master.bootstrap(
            RegionMap::split_decimal_keyspace(KEY_PREFIX, cfg.key_count, cfg.regions),
            cfg.region_replication,
        );
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
        let history = History::detached();
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
                history.clone(),
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
            servers,
            clients,
            probe,
            history,
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
    /// Row keys ascend with the row number, so a region's rows are one
    /// run of numbers, found by binary search, and its file is built
    /// straight from them in file order: each row is formatted once. The
    /// file is the one a memstore holding the same cells would flush to.
    ///
    /// Drives the simulation while each file replicates; then it joins its
    /// region as a flush's does ([`RegionServer::add_storefile`]).
    pub fn load_rows(&self, rows: u64, columns: &[&str], value_len: usize, warm_cache: bool) {
        let map = self.master.snapshot_map();
        let loader_node = self.net.add_node("loader");
        let dfs = DfsClient::new(&self.net, &self.namenode, loader_node);
        let value = vec![0x61; value_len];
        // A row's cells in file order, each once.
        let mut columns: Vec<&[u8]> = columns.iter().map(|c| c.as_bytes()).collect();
        columns.sort_unstable();
        columns.dedup();
        // No key is wider than this one, so sizing by it regrows no file.
        let mut key = Vec::new();
        write_row_key(&mut key, rows);
        let row_bytes: usize = columns
            .iter()
            .map(|c| StoreFileBuilder::entry_bytes(&key, c, Some(&value)))
            .sum();
        for desc in map.regions() {
            let region = desc.id;
            let first = first_row_at_or_above(&desc.start, rows);
            let end = desc
                .end
                .as_deref()
                .map_or(rows, |end| first_row_at_or_above(end, rows));
            let count = (end - first) as usize;
            let mut builder =
                StoreFileBuilder::with_capacity(count * columns.len(), count * row_bytes);
            // The region's warm keys, back to back: one allocation that
            // every cached key is a slice of.
            write_row_key(&mut key, first);
            let width = key.len();
            let mut warm_keys = Vec::with_capacity(if warm_cache { count * width } else { 0 });
            for i in first..end {
                if i > first {
                    next_row_key(&mut key);
                }
                for column in &columns {
                    builder.push(&key, column, Timestamp::ZERO, Some(&value));
                }
                if warm_cache {
                    warm_keys.extend_from_slice(&key);
                }
            }
            if builder.is_empty() {
                continue;
            }
            let path = format!("/store/{region}/loaded");
            let data = Rc::new(builder.finish(region, path.clone()));
            let done = Rc::new(Cell::new(false));
            let done2 = Rc::clone(&done);
            dfs.write_file(&path, data.encode(), move |written| {
                written.expect("loader write");
                done2.set(true);
            });
            // Drive the replication to completion.
            let deadline = self.sim.now() + SimDuration::from_secs(120);
            while !done.get() {
                self.sim.run_for(SimDuration::from_millis(250));
                assert!(self.sim.now() < deadline, "bulk load stalled");
            }
            let server = map
                .server_for(region)
                .and_then(|s| self.dir.get(s))
                .expect("region assigned during load");
            server.add_storefile(region, Some(data));
            if warm_cache {
                let warm_keys = Bytes::from(warm_keys);
                server.warm_cache(
                    region,
                    (0..count).map(|j| warm_keys.slice(j * width..(j + 1) * width)),
                );
            }
        }
    }

    /// Starts recording every client's transactions from now on, and
    /// returns the record (see [`History`]). Recording draws no RNG,
    /// schedules no event and sends no message, so the run is the same
    /// with it as without.
    pub fn attach_history(&self) -> History {
        self.history.attach();
        self.history.clone()
    }

    /// Reads the newest committed-and-flushed value of a cell through
    /// the probe client, driving the simulation until the read completes
    /// (or `within` elapses, which panics — reads retry forever, so this
    /// indicates an unrecoverable cluster).
    pub fn read_cell(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        within: SimDuration,
    ) -> Option<Bytes> {
        self.read_version(row, column, within).and_then(|v| v.value)
    }

    /// Reads back every cell a committed or unresolved write-set of
    /// `history` holds, one after another in cell order, at the newest
    /// version, as [`Cluster::read_cell`] does but keeping the version:
    /// what [`History::check_read_back`] checks.
    pub fn read_back(&self, history: &History) -> Vec<Read> {
        history
            .written_cells()
            .into_iter()
            .map(|(row, column)| {
                let version =
                    self.read_version(row.clone(), column.clone(), SimDuration::from_secs(10));
                Read {
                    row,
                    column,
                    seen: Seen::of(version.as_ref()),
                }
            })
            .collect()
    }

    /// [`Cluster::read_cell`] with the version's timestamp kept.
    fn read_version(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        within: SimDuration,
    ) -> Option<VersionedValue> {
        let result: Rc<RefCell<Option<Option<VersionedValue>>>> = Rc::new(RefCell::new(None));
        let r2 = Rc::clone(&result);
        self.probe
            .get(row.into(), column.into(), Timestamp::MAX, move |vv| {
                *r2.borrow_mut() = Some(vv);
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

    /// Whether every region of the table is online on its assigned
    /// server; a crashed server's regions are offline until failed over.
    pub fn all_regions_online(&self) -> bool {
        every_region_online(&self.master, &self.dir)
    }

    /// Toggles bloom probing on point gets on every region server (the
    /// benchmarks' A/B switch; the store-file stacks are unaffected).
    pub fn set_bloom_filters(&self, enabled: bool) {
        for s in &self.servers {
            s.set_bloom_filters(enabled);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_a_row_key_equals_formatting_the_next_one() {
        let (mut stepped, mut formatted) = (Vec::new(), Vec::new());
        for i in [0, 8, 9, 99, 1_099, 999_999, 123_456_789, 999_999_999_998] {
            write_row_key(&mut stepped, i);
            next_row_key(&mut stepped);
            write_row_key(&mut formatted, i + 1);
            assert_eq!(stepped, formatted, "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "widens")]
    fn a_row_key_does_not_step_past_twelve_digits() {
        let mut key = Vec::new();
        write_row_key(&mut key, 999_999_999_999);
        next_row_key(&mut key);
    }
}

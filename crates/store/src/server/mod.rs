//! The region server: serves gets/puts/scans for its assigned regions,
//! applies updates to WAL + memstore, flushes memstores to store files,
//! and participates in recovery via the [`RecoveryHooks`].
//!
//! This module is the router: configuration, the per-region state every
//! part shares, construction, lifecycle and the accessors. The work is
//! in four child modules that see the private fields directly — the
//! request handlers in [`data_path`], flushes, compaction and the file
//! gauges in [`storage`], splits, merges and moves in [`structure`],
//! primary/backup replication in [`replication`].

mod data_path;
mod replication;
mod storage;
mod structure;

pub use data_path::{FilterStats, ScanPage};
pub use replication::ReplicationStats;
pub use structure::StructureStats;

use crate::blockcache::BlockCache;
use crate::compaction::{self, CompactionConfig, CompactionStats, GcWatermark};
use crate::hooks::{NoopHooks, RecoveryHooks};
use crate::master::Master;
use crate::memstore::MemStore;
use crate::region::{ChangeKind, RegionDescriptor};
use crate::sstable::{StoreFileData, StoreFileRegistry};
use crate::types::{RegionId, ServerId};
use crate::wal::{Wal, WalSyncMode};
use bytes::Bytes;
use cumulo_coord::CoordClient;
use cumulo_dfs::DfsClient;
use cumulo_sim::metrics::{Counter, GaugeMap};
use cumulo_sim::trace::Field;
use cumulo_sim::{fields, Exchange, Network, NodeId, ServiceQueue, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Concurrent request handler slots (the paper's VMs had 2 cores).
const HANDLERS: usize = 2;
/// Liveness heartbeat period to the coordination service.
const COORD_HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// Coordination session timeout (failure-detection latency).
const COORD_SESSION_TIMEOUT: SimDuration = SimDuration::from_millis(1800);

/// Region-server tuning knobs: what an experiment or a test varies. The
/// calibrated service model (what a request costs a handler) is
/// constants in `server/data_path.rs`; the replication timers are
/// constants in `server/replication.rs`.
#[derive(Copy, Clone, Debug)]
pub struct RegionServerConfig {
    /// Whether updates are acknowledged before (Async) or after (Sync)
    /// the WAL reaches the filesystem.
    pub wal_mode: WalSyncMode,
    /// Background WAL sync period in Async mode.
    pub wal_sync_interval: SimDuration,
    /// Memstore size that triggers a flush to a store file.
    pub memstore_flush_bytes: usize,
    /// How often memstore sizes are checked.
    pub flush_check_interval: SimDuration,
    /// Block-cache capacity, in row-blocks.
    pub block_cache_capacity: usize,
    /// Background compaction knobs.
    pub compaction: CompactionConfig,
    /// Online region-split knobs.
    pub split: SplitConfig,
    /// Online region-merge knobs.
    pub merge: MergeConfig,
    /// Whether primary/backup region replication runs. Off by default:
    /// shipping mutations to backups adds network messages (each draws
    /// latency jitter from the shared RNG), so calibrated experiments
    /// that predate replication must not shift. The replication suites
    /// and `failover_bench` enable it.
    pub replication: bool,
}

/// Online region-split tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct SplitConfig {
    /// Master switch. Off by default: splits add master RPCs and map
    /// epochs, and calibrated experiments that predate them should not
    /// shift. The hotspot workloads and the split test suites enable it.
    pub enabled: bool,
    /// Durable store-file bytes (excluding the flushing snapshot) at
    /// which a hosted region becomes a split candidate.
    pub threshold_bytes: usize,
    /// How often regions are checked for split candidacy. The timer runs
    /// at a fixed phase — no RNG jitter (see the compaction timer note).
    pub check_interval: SimDuration,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            enabled: false,
            threshold_bytes: 256 << 20,
            check_interval: SimDuration::from_secs(2),
        }
    }
}

/// Online region-merge tuning knobs (the inverse of [`SplitConfig`]).
#[derive(Copy, Clone, Debug)]
pub struct MergeConfig {
    /// Master switch. Off by default for the same determinism reason as
    /// splits: merges add master RPCs and map epochs, and calibrated
    /// experiments that predate them must not shift. The scale campaign
    /// and the merge test suites enable it.
    pub enabled: bool,
    /// Combined durable store-file bytes below which two adjacent
    /// co-hosted regions become merge candidates. Keep this well under
    /// [`SplitConfig::threshold_bytes`] or a freshly merged region would
    /// immediately re-split (an oscillation, not a rebalance).
    pub threshold_bytes: usize,
    /// How often hosted regions are checked for merge candidacy. Fixed
    /// phase — no RNG jitter (see the compaction timer note).
    pub check_interval: SimDuration,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            enabled: false,
            threshold_bytes: 32 << 20,
            check_interval: SimDuration::from_secs(5),
        }
    }
}

impl Default for RegionServerConfig {
    fn default() -> Self {
        RegionServerConfig {
            wal_mode: WalSyncMode::Async,
            wal_sync_interval: SimDuration::from_millis(50),
            memstore_flush_bytes: 48 << 20,
            flush_check_interval: SimDuration::from_secs(1),
            block_cache_capacity: 700_000,
            compaction: CompactionConfig::default(),
            split: SplitConfig::default(),
            merge: MergeConfig::default(),
            replication: false,
        }
    }
}

struct RegionState {
    desc: RegionDescriptor,
    memstore: MemStore,
    /// Snapshot currently being flushed (still readable), and the
    /// instant its filesystem write was last issued.
    flushing: Option<(Rc<StoreFileData>, SimTime)>,
    storefiles: Vec<Rc<StoreFileData>>,
    online: bool,
    compaction_in_progress: bool,
    /// A structural operation (split, merge or move) on this region is
    /// pending or executing: flush checks and new compactions skip it so
    /// the file set stays stable until the flip (the region keeps
    /// serving requests throughout).
    restructuring: bool,
}

impl RegionState {
    /// A region over `storefiles` that is not online yet and has
    /// nothing in flight.
    fn new(desc: RegionDescriptor, memstore: MemStore, storefiles: Vec<Rc<StoreFileData>>) -> Self {
        RegionState {
            desc,
            memstore,
            flushing: None,
            storefiles,
            online: false,
            compaction_in_progress: false,
            restructuring: false,
        }
    }

    /// Whether a flush is running: its snapshot is not yet a durable
    /// store file.
    fn flush_busy(&self) -> bool {
        self.flushing.is_some()
    }

    /// The snapshot being flushed, as the newest file of the readable
    /// stack.
    fn flushing_file(&self) -> Option<&Rc<StoreFileData>> {
        self.flushing.as_ref().map(|(file, _)| file)
    }

    /// Whether the file set is stable: no flush and no compaction in
    /// flight. References may only be cut over a quiescent file set.
    fn quiescent(&self) -> bool {
        !self.compaction_in_progress && !self.flush_busy()
    }

    /// Whether a structural operation may start on this region: online
    /// and not already in one.
    fn restructurable(&self) -> bool {
        self.online && !self.restructuring
    }
}

/// What the process keeps in memory, and loses with it: a crash
/// replaces it whole ([`RegionServer::crash`]). A field added to the
/// server's memory goes here, or it survives a crash.
struct Memory {
    regions: BTreeMap<RegionId, RegionState>,
    cache: BlockCache,
    /// Primary/backup replication state (groups this server is primary
    /// for, shadows it keeps as a backup).
    repl: replication::ReplState,
    /// The in-flight split, merge or move, if any (one structure change
    /// at a time per server, so their flush/quiescence phases never
    /// interleave).
    pending_change: Option<structure::PendingChange>,
    /// Number of the next store file this server names.
    storefile_counter: u64,
    /// Backpressure deficit bank: one token accrues per check tick that
    /// defers a due merge; at `max_deferrals` the merge runs regardless.
    compaction_deficit: u32,
    /// Handler busy-ns at the last compaction check (windowed
    /// utilization sampling).
    sched_busy_ns: u64,
    /// Sim-instant of the last compaction check, in nanoseconds.
    sched_checked_ns: u64,
    /// Total service-ns this server itself submitted as background work
    /// (merges, recovery tracking). Subtracted from the utilization
    /// sample so the scheduler measures *foreground* pressure — one
    /// admitted large merge must not make the next windows read as
    /// saturated and defer merges out of genuinely idle gaps.
    background_ns: u64,
    /// `background_ns` at the last compaction check.
    sched_background_ns: u64,
}

impl Memory {
    /// A fresh process's memory: no region, a cold cache of
    /// `cache_rows` rows, and the utilization window opening at `now_ns`.
    fn new(cache_rows: usize, now_ns: u64) -> Self {
        Memory {
            regions: BTreeMap::new(),
            cache: BlockCache::new(cache_rows),
            repl: replication::ReplState::default(),
            pending_change: None,
            storefile_counter: 0,
            compaction_deficit: 0,
            sched_busy_ns: 0,
            sched_checked_ns: now_ns,
            background_ns: 0,
            sched_background_ns: 0,
        }
    }
}

/// One region server process. Shared via `Rc`; all requests arrive as
/// events scheduled by [`crate::StoreClient`] or the master.
pub struct RegionServer {
    sim: Sim,
    net: Rc<Network>,
    node: NodeId,
    id: ServerId,
    cfg: RegionServerConfig,
    handlers: Rc<ServiceQueue>,
    wal: Wal,
    registry: Rc<StoreFileRegistry>,
    dfs: DfsClient,
    mem: RefCell<Memory>,
    hooks: RefCell<Rc<dyn RecoveryHooks>>,
    gets: Counter,
    multi_gets: Counter,
    puts: Counter,
    scans: Counter,
    /// Stored versions the scan merges read from their sources — with
    /// the cells returned, the "keys examined per result" ratio.
    scan_cells_examined: Counter,
    not_serving: Counter,
    compaction_stats: CompactionStats,
    filter_stats: FilterStats,
    /// Runtime master switch for bloom probes (on until
    /// [`RegionServer::set_bloom_filters`] says otherwise).
    bloom_enabled: Cell<bool>,
    /// The coordination service: the liveness session, and the fencing
    /// check before retired files are destroyed.
    coord: CoordClient,
    /// The master this server proposes structure changes and reports
    /// lane sync state to.
    master: Rc<Master>,
    /// One exchange per message the server sends: replication's to its
    /// backups and the master, and structure changes' to the master.
    ship: Exchange,
    probe_epoch: Exchange,
    close_shadow: Exchange,
    replica_synced: Exchange,
    replica_unsynced: Exchange,
    request_change: Exchange,
    change_aborted: Exchange,
    change_completed: Exchange,
    split_stats: StructureStats,
    merge_stats: StructureStats,
    move_stats: StructureStats,
    /// Cumulative foreground service nanoseconds charged per hosted
    /// region — the master's load-aware placement signal and the
    /// per-region load gauge the split threshold reasoning builds on.
    region_load: GaugeMap,
    /// Supplies the MVCC garbage-collection watermark (the transaction
    /// manager's oldest active snapshot). A store without the
    /// transactional tier supplies [`GcWatermark::ZERO`]: compaction
    /// still merges files but garbage-collects nothing.
    gc_watermark: Box<dyn Fn() -> GcWatermark>,
    repl_stats: ReplicationStats,
}

impl fmt::Debug for RegionServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionServer")
            .field("id", &self.id)
            .field("node", &self.node)
            .field("regions", &self.mem.borrow().regions.len())
            .field("alive", &self.is_alive())
            .field("gets", &self.gets.get())
            .field("puts", &self.puts.get())
            .finish()
    }
}

impl RegionServer {
    /// Creates a region server on `node`, run by `master`: it shares the
    /// master's simulation, network and store-file registry. `dfs` and
    /// `coord` must be clients bound to the same node; `gc_watermark`
    /// supplies compaction's MVCC garbage-collection watermark. The WAL
    /// file is created at `/wal/rs{id}`.
    pub fn new(
        master: &Rc<Master>,
        node: NodeId,
        id: ServerId,
        cfg: RegionServerConfig,
        dfs: DfsClient,
        coord: CoordClient,
        gc_watermark: impl Fn() -> GcWatermark + 'static,
    ) -> Rc<RegionServer> {
        let (sim, net) = (&master.sim, &master.net);
        let wal = Wal::new(&dfs, format!("/wal/{id}"));
        // Every metric is registered under a `store.*{server=<id>}` key.
        let metrics = sim.metrics();
        let sid = id.to_string();
        let labels: &[(&str, &str)] = &[("server", sid.as_str())];
        let counter = |name: &str| metrics.counter(name, labels);
        Rc::new(RegionServer {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            id,
            cfg,
            handlers: ServiceQueue::new(sim, HANDLERS),
            wal,
            registry: Rc::clone(&master.registry),
            dfs,
            mem: RefCell::new(Memory::new(cfg.block_cache_capacity, sim.now().nanos())),
            hooks: RefCell::new(Rc::new(NoopHooks)),
            gets: counter("store.gets"),
            multi_gets: counter("store.multi_gets"),
            puts: counter("store.puts"),
            scans: counter("store.scans"),
            scan_cells_examined: counter("store.scan.cells_examined"),
            not_serving: counter("store.not_serving"),
            compaction_stats: CompactionStats::new(metrics, labels),
            filter_stats: FilterStats::new(metrics, labels),
            bloom_enabled: Cell::new(true),
            coord,
            master: Rc::clone(master),
            ship: net.exchange("repl.ship"),
            probe_epoch: net.exchange("repl.probe_epoch"),
            close_shadow: net.exchange("repl.close_shadow"),
            replica_synced: net.exchange("master.replica_synced"),
            replica_unsynced: net.exchange("master.replica_unsynced"),
            request_change: net.exchange("master.request_change"),
            change_aborted: net.exchange("master.change_aborted"),
            change_completed: net.exchange("master.change_completed"),
            split_stats: StructureStats::new(metrics, labels, ChangeKind::Split),
            merge_stats: StructureStats::new(metrics, labels, ChangeKind::Merge),
            move_stats: StructureStats::new(metrics, labels, ChangeKind::Move),
            region_load: metrics.gauge_map("store.region.load_ns", labels, "region"),
            gc_watermark: Box::new(gc_watermark),
            repl_stats: ReplicationStats::new(metrics, labels),
        })
    }

    /// Starts background tasks: the liveness session with the coordination
    /// service, the async WAL sync timer and the memstore flush checker.
    pub fn start(self: &Rc<Self>) {
        // Liveness: ephemeral znode kept alive by heartbeat touches.
        let (id, coord) = (self.id, &self.coord);
        let coord2 = coord.clone();
        let weak = Rc::downgrade(self);
        coord.create_session(COORD_SESSION_TIMEOUT, move |sid| {
            let Some(server) = weak.upgrade() else { return };
            coord2.create(&id.live_path(), Bytes::new(), Some(sid));
            let beat = COORD_HEARTBEAT_INTERVAL;
            server.every(beat.mul_f64(0.5), beat, move |_| coord2.touch(sid));
        });

        // Async WAL sync.
        if self.cfg.wal_mode == WalSyncMode::Async {
            #[expect(
                clippy::disallowed_methods,
                reason = "WAL sync phase stagger draws from the seeded sim RNG; per-server desync is intended and pinned baselines include this draw"
            )]
            let first = self.sim.jitter(self.cfg.wal_sync_interval, 0.5);
            self.every(first, self.cfg.wal_sync_interval, |s| s.wal.sync(|| {}));
        }

        // Memstore flush checks.
        #[expect(
            clippy::disallowed_methods,
            reason = "flush check phase stagger draws from the seeded sim RNG; per-server desync is intended and pinned baselines include this draw"
        )]
        let first = self.sim.jitter(self.cfg.flush_check_interval, 0.5);
        self.every(first, self.cfg.flush_check_interval, Self::check_flushes);

        // The background checks run at a fixed phase (no RNG jitter):
        // drawing from the shared simulation RNG here would shift the
        // random stream of every run that merely *enables* one of them,
        // perturbing previously calibrated schedules.
        let cfg = &self.cfg;
        let fixed_phase = |interval: SimDuration, tick: fn(&Rc<RegionServer>)| {
            self.every(interval, interval, tick)
        };
        if cfg.compaction.enabled {
            fixed_phase(cfg.compaction.check_interval, Self::check_compactions);
        }
        if cfg.split.enabled {
            fixed_phase(cfg.split.check_interval, Self::check_splits);
        }
        if cfg.merge.enabled {
            fixed_phase(cfg.merge.check_interval, Self::check_merges);
        }
        // Ships full region state to out-of-sync backup lanes.
        if cfg.replication {
            fixed_phase(replication::RESYNC_INTERVAL, Self::check_resyncs);
        }
    }

    /// Runs `tick` every `interval`, first after `first`, for as long as
    /// the server's node lives.
    fn every(
        self: &Rc<Self>,
        first: SimDuration,
        interval: SimDuration,
        tick: impl Fn(&Rc<RegionServer>) + 'static,
    ) {
        let weak = Rc::downgrade(self);
        self.net.every(self.node, first, interval, move || {
            if let Some(server) = weak.upgrade() {
                tick(&server);
            }
        });
    }

    /// Runs `f` on this server after `delay`, unless it is dead by then.
    fn after(self: &Rc<Self>, delay: SimDuration, f: impl FnOnce(&Rc<RegionServer>) + 'static) {
        let this = Rc::clone(self);
        self.net.after(self.node, delay, move || f(&this));
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The machine the server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the process is alive: whether its node is.
    pub fn is_alive(&self) -> bool {
        self.net.is_alive(self.node)
    }

    /// Installs the recovery middleware's hooks.
    pub fn set_hooks(&self, hooks: Rc<dyn RecoveryHooks>) {
        *self.hooks.borrow_mut() = hooks;
    }

    /// The server's write-ahead log (the recovery middleware syncs it on
    /// its heartbeat, per Algorithm 3).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Cumulative foreground service nanoseconds across this server's
    /// hosted regions — the master's load-aware placement signal.
    pub fn service_load_ns(&self) -> u64 {
        self.region_load.total()
    }

    /// Cumulative foreground service nanoseconds charged to `region`.
    pub fn region_load_ns(&self, region: RegionId) -> u64 {
        self.region_load.get(region.0 as u64)
    }

    /// The per-region load gauges behind
    /// [`RegionServer::region_load_ns`], keyed by region id (a shared
    /// handle; clone freely).
    pub fn region_load(&self) -> &GaugeMap {
        &self.region_load
    }

    /// The descriptor of a hosted region (recovery replay filters
    /// write-sets by the *descriptor's* key range, not by a possibly
    /// stale region map — after an online split the two can disagree).
    pub fn region_descriptor(&self, region: RegionId) -> Option<RegionDescriptor> {
        self.with_region(region, |st| st.desc.clone())
    }

    /// What `read` makes of hosted `region`, if it is hosted here.
    fn with_region<T>(&self, region: RegionId, read: impl FnOnce(&RegionState) -> T) -> Option<T> {
        self.mem.borrow().regions.get(&region).map(read)
    }

    /// Records `kind` in the failure-event journal: `server=` first,
    /// then `fields`.
    fn event(&self, kind: &'static str, fields: &[Field]) {
        let server = fields!(server = self.id);
        self.sim
            .events()
            .record(self.sim.now(), kind, &[server, fields]);
    }

    /// Records `kind` in the trace journal: the one door this server's
    /// spans (`rpc.*` via `Span::record`, `repl.ship`) leave through,
    /// the fields of each of `parts` in order.
    fn span(&self, kind: &'static str, parts: &[&[Field]]) {
        self.sim.trace().record(self.sim.now(), kind, parts);
    }

    /// Crash-stop failure: the node dies, so the network drops its
    /// traffic and its timers stop, and the coordination session expires
    /// on its own. The process's memory goes whole: the regions'
    /// memstores and file stacks, the block cache, replication state, a
    /// pending split, merge or move, and the WAL's unsynced buffer and
    /// waiters. The WAL's file and counters, the registry's metrics and
    /// the handler pool stay (ARCHITECTURE.md, "A process is its node").
    pub fn crash(&self) {
        self.net.crash(self.node);
        let now = self.sim.now().nanos();
        *self.mem.borrow_mut() = Memory::new(self.cfg.block_cache_capacity, now);
        self.wal.crash();
    }

    /// Ids of regions currently hosted (online or recovering).
    pub fn hosted_regions(&self) -> Vec<RegionId> {
        self.mem.borrow().regions.keys().copied().collect()
    }

    /// Whether `region` is hosted here and online.
    pub fn region_online(&self, region: RegionId) -> bool {
        self.with_region(region, |st| st.online) == Some(true)
    }

    /// Submits background work to the request handlers (used by the
    /// recovery middleware to charge its tracking CPU cost against the
    /// same resource that serves requests — the contention the paper
    /// measures in Fig. 2b).
    pub fn submit_background(self: &Rc<Self>, service: SimDuration, run: impl FnOnce() + 'static) {
        if !self.is_alive() {
            return;
        }
        // Attributed as background for the utilization sample (charged
        // at submit while the queue charges at start — close enough for
        // a scheduling signal, and always in the same direction).
        self.mem.borrow_mut().background_ns += service.nanos();
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if this.is_alive() {
                run();
            }
        });
    }

    // ------------------------------------------------------------------
    // Region lifecycle
    // ------------------------------------------------------------------

    /// Opens a region on this server over the store files at
    /// `storefile_paths`.
    ///
    /// For a fresh open `failed` is `None` and the region goes online
    /// immediately. After a failover it names the failed server: what
    /// that server had persisted is already among the files (the master
    /// wrote its split WAL records out as one — HBase-internal recovery
    /// is a file adoption, no edits are replayed here), and the region
    /// stays offline until the recovery hooks call back (transactional
    /// recovery, §3.2).
    pub fn open_region(
        self: &Rc<Self>,
        desc: RegionDescriptor,
        storefile_paths: Vec<String>,
        failed: Option<ServerId>,
    ) {
        let region = desc.id;
        let storefiles = self.adoptable_files(&storefile_paths);
        let st = RegionState::new(desc, MemStore::new(), storefiles);
        self.mem.borrow_mut().regions.insert(region, st);
        self.update_file_metrics();
        self.finish_region_open(region, failed, false);
    }

    /// The store files a region opened over `paths` adopts, resolved
    /// through the registry. In-flight compaction temporaries (a crashed
    /// server's half-written merge output) are skipped: the retired
    /// inputs are only deleted after the merged file is renamed into its
    /// final name, so the remaining files always cover all data.
    fn adoptable_files(&self, paths: &[String]) -> Vec<Rc<StoreFileData>> {
        let durable = paths.iter().filter(|p| !compaction::is_tmp_path(p));
        durable.filter_map(|p| self.registry.get(p)).collect()
    }

    fn finish_region_open(
        self: &Rc<Self>,
        region: RegionId,
        failed: Option<ServerId>,
        promoted: bool,
    ) {
        match failed {
            Some(failed_server) => {
                let hooks = Rc::clone(&*self.hooks.borrow());
                let weak = Rc::downgrade(self);
                hooks.on_region_recovered(
                    Rc::clone(self),
                    region,
                    failed_server,
                    promoted,
                    Box::new(move || {
                        if let Some(server) = weak.upgrade() {
                            server.mark_region_online(region);
                        }
                    }),
                );
            }
            None => self.mark_region_online(region),
        }
    }

    /// Declares a hosted region online (ends its recovery gating).
    fn mark_region_online(&self, region: RegionId) {
        if let Some(st) = self.mem.borrow_mut().regions.get_mut(&region) {
            st.online = true;
            self.event("region.online", fields!(region));
        }
    }
}

//! The region server: serves gets/puts/scans for its assigned regions,
//! applies updates to WAL + memstore, flushes memstores to store files,
//! and participates in recovery via the [`RecoveryHooks`].
//!
//! Online splits and merges — one protocol — live in [`structure`];
//! everything else is still this one `impl`.

mod structure;

pub use structure::StructureStats;

use crate::blockcache::BlockCache;
use crate::bloom::CellKey;
use crate::codec::WalRecord;
use crate::compaction::{
    self, CompactionConfig, CompactionJob, CompactionPolicy, CompactionPolicyKind, CompactionStats,
    FileMeta, GcWatermark, StallSignal,
};
use crate::error::StoreError;
use crate::hooks::{NoopHooks, RecoveryHooks, StructureCoordinator};
use crate::memstore::{MemStore, VersionedValue};
use crate::merge_iter;
use crate::region::{ChangeKind, RegionDescriptor};
use crate::sstable::{StoreFileData, StoreFileRegistry};
use crate::types::{Mutation, RegionId, ServerId, Timestamp};
use crate::wal::{Wal, WalSyncMode};
use bytes::Bytes;
use cumulo_coord::CoordClient;
use cumulo_dfs::DfsClient;
use cumulo_sim::metrics::{Counter, Gauge, GaugeMap, MetricsRegistry};
use cumulo_sim::trace::Journal;
use cumulo_sim::{every_from, Network, NodeId, ServiceQueue, Sim, SimDuration, TimerHandle};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};

/// Region-server tuning knobs.
///
/// The defaults are calibrated so that one server with 50 closed-loop
/// clients saturates near ~250–300 transactions/s (10 ops each, 50/50
/// read/update), matching the paper's observation that 250 tps is "near
/// the peak capacity for a single region server serving 50 client
/// threads" (§4.4).
#[derive(Copy, Clone, Debug)]
pub struct RegionServerConfig {
    /// Concurrent request handler slots (the paper's VMs had 2 cores).
    pub handlers: usize,
    /// Base CPU cost of any request.
    pub base_service: SimDuration,
    /// CPU cost of a get served from memstore/block cache.
    pub read_service: SimDuration,
    /// Extra handler occupancy when a get misses the block cache and must
    /// fetch a block from the filesystem.
    pub block_fetch_penalty: SimDuration,
    /// CPU cost per mutation in a write batch.
    pub write_service_per_mutation: SimDuration,
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
    /// Extra handler occupancy per write batch in [`WalSyncMode::Sync`]:
    /// the handler thread blocks while the WAL pipeline syncs (this is
    /// why synchronous persistence also costs peak throughput, not just
    /// latency).
    pub sync_mode_handler_hold: SimDuration,
    /// Liveness heartbeat period to the coordination service.
    pub coord_heartbeat_interval: SimDuration,
    /// Coordination session timeout (failure-detection latency).
    pub coord_session_timeout: SimDuration,
    /// Extra handler occupancy per store file consulted *beyond the
    /// first* on gets and scans — the read-amplification cost that
    /// background compaction exists to bound. Point gets consult only
    /// files that survive key-range pruning and a bloom-filter probe;
    /// scans consult every file whose row range overlaps theirs.
    pub storefile_read_service: SimDuration,
    /// Handler occupancy per bloom-filter probe on a point get: filters
    /// are not free, they trade a small fixed cost per range-covering
    /// file for the much larger `storefile_read_service` of consulting
    /// files that cannot contain the key.
    pub filter_probe_service: SimDuration,
    /// Whether point gets use the per-file bloom filters (key-range
    /// pruning is always on — it is a free metadata comparison). Mostly
    /// an A/B switch for benchmarks; see [`RegionServer::set_bloom_filters`].
    pub bloom_filters: bool,
    /// Measurement-only cross-check: when a filter excludes a file, also
    /// run the exact membership check and count a false negative if the
    /// filter was wrong (it never should be). Costs host time, not
    /// simulated service time; enable in tests and benches.
    pub verify_filters: bool,
    /// Background compaction knobs.
    pub compaction: CompactionConfig,
    /// Online region-split knobs.
    pub split: SplitConfig,
    /// Online region-merge knobs.
    pub merge: MergeConfig,
    /// Primary/backup region-replication knobs.
    pub replication: ReplicationConfig,
}

/// Primary/backup region-replication tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ReplicationConfig {
    /// Master switch. Off by default: shipping mutations to backups adds
    /// network messages (each draws latency jitter from the shared RNG),
    /// so calibrated experiments that predate replication must not
    /// shift. The replication suites and `failover_bench` enable it.
    pub enabled: bool,
    /// Unacknowledged shipped bytes per backup lane at which the lane is
    /// declared lagging: the primary stops shipping (and stops gating
    /// client acks on it) and reports the backup ineligible for
    /// promotion until a full re-sync completes.
    pub max_backlog_bytes: usize,
    /// How long the primary waits for a backup's ack before declaring
    /// the lane out of sync (fixed delay, no RNG).
    pub ack_timeout: SimDuration,
    /// Period of the re-sync timer that ships full region state to
    /// out-of-sync lanes. Fixed phase — no RNG jitter (see the
    /// compaction timer note).
    pub resync_interval: SimDuration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            enabled: false,
            max_backlog_bytes: 8 << 20,
            ack_timeout: SimDuration::from_millis(1500),
            resync_interval: SimDuration::from_secs(2),
        }
    }
}

/// Shared observability for primary/backup replication (all handles
/// clone cheaply and share state, like [`CompactionStats`]).
#[derive(Clone, Default, Debug)]
pub struct ReplicationStats {
    /// Mutation records shipped to backup lanes (primary side).
    pub ships: Counter,
    /// Payload bytes shipped to backup lanes (primary side).
    pub ship_bytes: Counter,
    /// Acks received from backups (primary side).
    pub acks: Counter,
    /// Gap/stale rejections received from backups (primary side).
    pub nacks: Counter,
    /// Full-state syncs shipped (primary side).
    pub syncs: Counter,
    /// Shipped records applied to a shadow (backup side).
    pub applied: Counter,
    /// Ships rejected because the sender's epoch was stale (backup side).
    pub fences: Counter,
    /// Regions this server fenced itself out of after learning a newer
    /// epoch exists (stale-primary self-fencing).
    pub fenced: Counter,
    /// Backup lanes declared out of sync (ack timeout, gap or backlog).
    pub lane_drops: Counter,
    /// Current unacknowledged shipped bytes across all lanes (primary).
    pub backlog_bytes: Gauge,
    /// Worst `shipped - acked` sequence distance across lanes (primary).
    pub lag: Gauge,
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
            handlers: 2,
            base_service: SimDuration::from_micros(40),
            read_service: SimDuration::from_micros(700),
            // Calibrated for a datanode co-located with the server (the
            // paper's layout): a cache miss reads a block that is likely
            // in the local datanode's page cache, not cold disk.
            block_fetch_penalty: SimDuration::from_micros(900),
            write_service_per_mutation: SimDuration::from_micros(500),
            wal_mode: WalSyncMode::Async,
            wal_sync_interval: SimDuration::from_millis(50),
            memstore_flush_bytes: 48 << 20,
            flush_check_interval: SimDuration::from_secs(1),
            sync_mode_handler_hold: SimDuration::from_millis(2),
            block_cache_capacity: 700_000,
            coord_heartbeat_interval: SimDuration::from_millis(500),
            coord_session_timeout: SimDuration::from_millis(1800),
            storefile_read_service: SimDuration::from_micros(120),
            filter_probe_service: SimDuration::from_micros(2),
            bloom_filters: true,
            verify_filters: false,
            compaction: CompactionConfig::default(),
            split: SplitConfig::default(),
            merge: MergeConfig::default(),
            replication: ReplicationConfig::default(),
        }
    }
}

/// Shared observability for the bloom-filtered point-get read path (all
/// handles clone cheaply and share state, like [`CompactionStats`]).
///
/// Probes, skips and consultations are recorded where the read actually
/// executes, so the counters describe real behavior, not the up-front
/// cost estimate. Scans are not metered here (they use range pruning
/// only).
#[derive(Clone, Default, Debug)]
pub struct FilterStats {
    /// Bloom-filter probes performed (one per range-covering file per
    /// point get, while filters are enabled).
    pub probes: Counter,
    /// Files excluded from a point get by key-range pruning.
    pub range_skips: Counter,
    /// Files excluded from a point get by a negative bloom probe.
    pub filter_skips: Counter,
    /// Consulted files that turned out not to hold the key at all — the
    /// filter's false positives (measurable because the registry holds
    /// real bytes, so the exact membership check is cheap).
    pub false_positives: Counter,
    /// Filter exclusions that were wrong (requires
    /// `RegionServerConfig::verify_filters`). Must stay zero: a false
    /// negative would silently lose a committed version from reads.
    pub false_negatives: Counter,
    /// Store files actually consulted by point gets.
    pub files_consulted: Counter,
    /// Current bytes of bloom-filter metadata across the server's hosted
    /// store files (including flushing snapshots).
    pub filter_bytes: Gauge,
}

/// What [`RegionServer::files_to_consult`] decided on the way to the
/// files it yielded, in [`FilterStats`] terms.
#[derive(Default)]
struct Pruned {
    range_skips: u64,
    probes: u64,
    filter_skips: u64,
    false_negatives: u64,
}

struct RegionState {
    desc: RegionDescriptor,
    memstore: MemStore,
    /// Snapshot currently being flushed (still readable).
    flushing: Option<Rc<StoreFileData>>,
    storefiles: Vec<Rc<StoreFileData>>,
    /// LSM level per store-file path; paths absent from the map are
    /// level 0 (flush outputs, bulk loads, files adopted at open — only
    /// compaction outputs placed below L0 need an entry).
    file_levels: HashMap<String, u32>,
    online: bool,
    flush_in_progress: bool,
    compaction_in_progress: bool,
    /// A structural operation (split, merge or move) on this region is
    /// pending or executing: flush checks and new compactions skip it so
    /// the file set stays stable until the flip or the close (a region
    /// being split or merged keeps serving requests throughout).
    restructuring: bool,
}

impl RegionState {
    /// A region over `storefiles`, all at level 0, that is not online
    /// yet and has nothing in flight.
    fn new(desc: RegionDescriptor, memstore: MemStore, storefiles: Vec<Rc<StoreFileData>>) -> Self {
        RegionState {
            desc,
            memstore,
            flushing: None,
            storefiles,
            file_levels: HashMap::new(),
            online: false,
            flush_in_progress: false,
            compaction_in_progress: false,
            restructuring: false,
        }
    }

    /// Whether a flush is running or its snapshot is not yet a durable
    /// store file.
    fn flush_busy(&self) -> bool {
        self.flush_in_progress || self.flushing.is_some()
    }

    /// Whether the file set is stable: no flush and no compaction in
    /// flight. References may only be cut over — and a moving region may
    /// only be dropped from — a quiescent file set.
    fn quiescent(&self) -> bool {
        !self.compaction_in_progress && !self.flush_busy()
    }

    /// Whether a structural operation may start on this region: online
    /// and not already in one.
    fn restructurable(&self) -> bool {
        self.online && !self.restructuring
    }

    /// The LSM level of the file at `path` (level 0 unless a compaction
    /// placed it deeper).
    fn level_of(&self, path: &str) -> u32 {
        self.file_levels.get(path).copied().unwrap_or(0)
    }

    /// The flush-stall check's cheap file-count summary (runs every
    /// flush tick, so no per-file metadata is materialized).
    fn stall_signal(&self) -> StallSignal {
        StallSignal {
            total_files: self.storefiles.len(),
            l0_files: self
                .storefiles
                .iter()
                .filter(|sf| self.level_of(sf.path()) == 0)
                .count(),
        }
    }

    /// The policy's view of this region's durable file stack (the
    /// flushing snapshot is excluded — it is not compactable yet).
    fn file_metas(&self) -> Vec<FileMeta> {
        self.storefiles
            .iter()
            .map(|sf| FileMeta {
                path: sf.path().to_owned(),
                bytes: sf.total_bytes(),
                entries: sf.len(),
                level: self.level_of(sf.path()),
                key_range: sf
                    .key_range()
                    .map(|(a, z)| (Bytes::copy_from_slice(a), Bytes::copy_from_slice(z))),
            })
            .collect()
    }
}

/// A compaction the policy planned, resolved to paths so it survives the
/// gap between the candidacy check and the handler slot becoming free.
struct PlannedCompaction {
    input_paths: Vec<String>,
    output_level: u32,
    max_output_bytes: Option<usize>,
}

/// A serialized memstore image shipped in a full-state sync:
/// `(row, column, version, value-or-tombstone)` per cell version.
pub type MemstoreSnapshot = Vec<(Bytes, Bytes, Timestamp, Option<Bytes>)>;

/// One region's worth of a range scan: the cells served plus the serving
/// region's exclusive end bound. The client's cross-region continuation
/// ([`crate::StoreClient::scan`]) uses `region_end` as the next leg's
/// cursor, so the resume key is always *server truth* — whatever region
/// actually served the page, even if the client routed here through a
/// stale map while a split or merge was in flight.
#[derive(Clone, Debug)]
pub struct ScanPage {
    /// Newest visible version per `(row, column)` at the scan snapshot,
    /// sorted, tombstones elided, truncated to the requested limit.
    pub cells: Vec<(Bytes, Bytes, VersionedValue)>,
    /// Exclusive end key of the region that served this page (`None` =
    /// the region extends to the end of the table).
    pub region_end: Option<Bytes>,
}

/// A backup's reply to a shipped record or sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplAck {
    /// Applied; the lane is caught up through this sequence number.
    Applied(u64),
    /// The record did not extend the shadow contiguously (ships were
    /// lost); the lane needs a full re-sync.
    Gap(u64),
    /// The sender's epoch is older than the backup's: a newer replica
    /// group exists, the sender must fence itself. Carries the epoch the
    /// backup holds.
    Stale(u64),
}

/// Primary-side state of one backup lane.
struct ReplLane {
    backup: ServerId,
    handle: Weak<RegionServer>,
    node: NodeId,
    /// Highest sequence number the backup has acked.
    acked_seq: u64,
    /// `seq -> payload bytes` of shipped-but-unacked records.
    pending: std::collections::BTreeMap<u64, usize>,
    backlog_bytes: usize,
    /// In sync: data ships flow and client acks gate on this lane. A
    /// lane starts out of sync and is brought in by a full-state sync.
    synced: bool,
    /// An unsync report to the master is in flight; gates still hold
    /// until the master acks (the report is the fencing point — a
    /// primary partitioned from the master can never un-gate).
    drop_pending: bool,
    /// Sequence number of the in-flight full-state sync, if any. Its
    /// `Applied` ack is what flips an out-of-sync lane back in (a late
    /// ack for an ordinary data ship must not).
    sync_seq: Option<u64>,
}

/// Fires every gate at the front of the queue whose acks are all in,
/// strictly in sequence order (the client-visible commit order must
/// match the ship order). Returns the finish closures for the caller to
/// invoke *after* releasing the `repl` borrow.
fn drain_ready_gates(group: &mut ReplGroup) -> Vec<Box<dyn FnOnce(Result<(), StoreError>)>> {
    let mut finishes = Vec::new();
    while let Some((&seq, gate)) = group.gates.iter().next() {
        if !gate.waiting.is_empty() || gate.finish.is_none() {
            break;
        }
        let gate = group.gates.remove(&seq).expect("front gate present");
        finishes.push(gate.finish.expect("checked above"));
    }
    finishes
}

/// One client ack (plus its T_P bookkeeping) gated on backup acks.
struct ReplGate {
    /// Lanes whose ack is still outstanding.
    waiting: Vec<ServerId>,
    /// Runs with `Ok` once every lane acked (in sequence order), or with
    /// `Err(WrongRegion)` when the group is fenced.
    finish: Option<Box<dyn FnOnce(Result<(), StoreError>)>>,
}

/// Primary-side replication state of one hosted region.
struct ReplGroup {
    epoch: u64,
    next_seq: u64,
    lanes: Vec<ReplLane>,
    gates: std::collections::BTreeMap<u64, ReplGate>,
    /// A backup holds a newer epoch: this server is no longer the
    /// rightful primary. The region was marked offline; all pending
    /// gates failed with `WrongRegion`.
    fenced: bool,
}

/// Backup-side shadow of a region hosted elsewhere.
struct ShadowRegion {
    desc: RegionDescriptor,
    epoch: u64,
    /// Next sequence number expected from the primary.
    next_seq: u64,
    memstore: MemStore,
    /// Durable store-file paths of the primary's file set, refreshed by
    /// each full-state sync (resolved through the shared registry at
    /// promotion).
    storefile_paths: Vec<String>,
    /// In sync with the primary: contiguous ship stream since the last
    /// full-state sync. Only a synced shadow is eligible for promotion.
    synced: bool,
    /// A split intent the primary propagated (parent about to split).
    /// Promotion discards it — the master rolls intents back first.
    split_intent: Option<(RegionId, RegionId)>,
}

#[derive(Default)]
struct ReplState {
    /// Primary-side groups, keyed by hosted region.
    groups: HashMap<RegionId, ReplGroup>,
    /// Backup-side shadows, keyed by region.
    shadows: HashMap<RegionId, ShadowRegion>,
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
    cache: RefCell<BlockCache>,
    registry: Rc<StoreFileRegistry>,
    dfs: DfsClient,
    regions: RefCell<HashMap<RegionId, RegionState>>,
    hooks: RefCell<Rc<dyn RecoveryHooks>>,
    alive: Cell<bool>,
    timers: RefCell<Vec<TimerHandle>>,
    storefile_counter: Cell<u64>,
    gets: Counter,
    multi_gets: Counter,
    puts: Counter,
    scans: Counter,
    /// Stored versions the scan merges read from their sources — with
    /// the cells returned, the "keys examined per result" ratio.
    scan_cells_examined: Counter,
    not_serving: Counter,
    /// Per-RPC trace journal (queue wait + service breakdown per request;
    /// [`Journal::disabled`] until the cluster wiring installs a shared
    /// one via [`RegionServer::set_journals`]).
    trace: RefCell<Journal>,
    /// Failure-event journal: flush stalls, compaction lifecycle, split
    /// protocol transitions (shared with the cluster like `trace`).
    events: RefCell<Journal>,
    compaction_stats: CompactionStats,
    filter_stats: FilterStats,
    /// Runtime master switch for bloom probes (initialized from
    /// [`RegionServerConfig::bloom_filters`]).
    bloom_enabled: Cell<bool>,
    /// The active compaction policy (initialized from
    /// [`CompactionConfig::policy`]; swappable at runtime).
    policy: RefCell<Rc<dyn CompactionPolicy>>,
    /// Backpressure deficit bank: one token accrues per check tick that
    /// defers a due merge; at `max_deferrals` the merge runs regardless.
    compaction_deficit: Cell<u32>,
    /// Handler busy-ns at the last compaction check (windowed
    /// utilization sampling).
    sched_busy_ns: Cell<u64>,
    /// Sim-instant of the last compaction check, in nanoseconds.
    sched_checked_ns: Cell<u64>,
    /// Total service-ns this server itself submitted as background work
    /// (merges, recovery tracking). Subtracted from the utilization
    /// sample so the scheduler measures *foreground* pressure — one
    /// admitted large merge must not make the next windows read as
    /// saturated and defer merges out of genuinely idle gaps.
    background_ns: Cell<u64>,
    /// `background_ns` at the last compaction check.
    sched_background_ns: Cell<u64>,
    /// Coordination handle (set by [`RegionServer::start`]); compaction
    /// uses it as a fencing check before destroying retired files.
    coord: RefCell<Option<CoordClient>>,
    /// The master-side structure-change coordination surface (installed
    /// by the cluster wiring; splits and merges are inert without it).
    structure_coord: RefCell<Option<Rc<dyn StructureCoordinator>>>,
    /// The in-flight split or merge, if any (one structure change at a
    /// time per server, so their flush/quiescence phases never
    /// interleave).
    pending_change: RefCell<Option<structure::PendingChange>>,
    split_stats: StructureStats,
    merge_stats: StructureStats,
    /// Cumulative foreground service nanoseconds charged per hosted
    /// region — the master's load-aware placement signal and the
    /// per-region load gauge the split threshold reasoning builds on.
    region_load: GaugeMap,
    /// The region currently being closed for a master-driven move, if
    /// any (one at a time per server, like splits and merges).
    pending_move: RefCell<Option<RegionId>>,
    /// Supplies the MVCC garbage-collection watermark (the transaction
    /// manager's oldest active snapshot). `None` — e.g. a vanilla cluster
    /// without the transactional tier — degrades to watermark zero:
    /// compaction still merges files but garbage-collects nothing.
    gc_watermark: RefCell<Option<Rc<dyn Fn() -> GcWatermark>>>,
    /// Primary/backup replication state (groups this server is primary
    /// for, shadows it keeps as a backup).
    repl: RefCell<ReplState>,
    repl_stats: ReplicationStats,
    /// The master-side replication coordination surface (installed by
    /// the cluster wiring; lane-drop reports are inert without it).
    repl_coord: RefCell<Option<Rc<dyn crate::hooks::ReplicationCoordinator>>>,
    self_weak: RefCell<Weak<RegionServer>>,
}

impl fmt::Debug for RegionServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionServer")
            .field("id", &self.id)
            .field("node", &self.node)
            .field("regions", &self.regions.borrow().len())
            .field("alive", &self.alive.get())
            .field("gets", &self.gets.get())
            .field("puts", &self.puts.get())
            .finish()
    }
}

impl RegionServer {
    /// Creates a region server on `node`. `dfs` must be a client bound to
    /// the same node. The WAL file is created at `/wal/rs{id}`.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        node: NodeId,
        id: ServerId,
        cfg: RegionServerConfig,
        dfs: DfsClient,
        registry: Rc<StoreFileRegistry>,
    ) -> Rc<RegionServer> {
        let wal = Wal::new(sim, &dfs, format!("/wal/{id}"));
        let server = Rc::new(RegionServer {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            id,
            cfg,
            handlers: ServiceQueue::new(sim, cfg.handlers),
            wal,
            cache: RefCell::new(BlockCache::new(cfg.block_cache_capacity)),
            registry,
            dfs,
            regions: RefCell::new(HashMap::new()),
            hooks: RefCell::new(Rc::new(NoopHooks)),
            alive: Cell::new(true),
            timers: RefCell::new(Vec::new()),
            storefile_counter: Cell::new(0),
            gets: Counter::new(),
            multi_gets: Counter::new(),
            puts: Counter::new(),
            scans: Counter::new(),
            scan_cells_examined: Counter::new(),
            not_serving: Counter::new(),
            trace: RefCell::new(Journal::disabled()),
            events: RefCell::new(Journal::disabled()),
            compaction_stats: CompactionStats::default(),
            filter_stats: FilterStats::default(),
            bloom_enabled: Cell::new(cfg.bloom_filters),
            policy: RefCell::new(compaction::policy_for(cfg.compaction.policy)),
            compaction_deficit: Cell::new(0),
            sched_busy_ns: Cell::new(0),
            sched_checked_ns: Cell::new(sim.now().nanos()),
            background_ns: Cell::new(0),
            sched_background_ns: Cell::new(0),
            coord: RefCell::new(None),
            structure_coord: RefCell::new(None),
            pending_change: RefCell::new(None),
            split_stats: StructureStats::default(),
            merge_stats: StructureStats::default(),
            region_load: GaugeMap::default(),
            pending_move: RefCell::new(None),
            gc_watermark: RefCell::new(None),
            repl: RefCell::new(ReplState::default()),
            repl_stats: ReplicationStats::default(),
            repl_coord: RefCell::new(None),
            self_weak: RefCell::new(Weak::new()),
        });
        *server.self_weak.borrow_mut() = Rc::downgrade(&server);
        server
    }

    /// Starts background tasks: the liveness session with the coordination
    /// service, the async WAL sync timer and the memstore flush checker.
    pub fn start(self: &Rc<Self>, coord: &CoordClient) {
        *self.coord.borrow_mut() = Some(coord.clone());
        // Liveness: ephemeral znode kept alive by heartbeat touches.
        let id = self.id;
        let coord2 = coord.clone();
        let weak = Rc::downgrade(self);
        coord.create_session(self.cfg.coord_session_timeout, move |sid| {
            let Some(server) = weak.upgrade() else { return };
            coord2.create(&format!("/live/servers/{id}"), Bytes::new(), Some(sid));
            let coord3 = coord2.clone();
            let weak2 = Rc::downgrade(&server);
            let timer = every_from(
                &server.sim,
                server.cfg.coord_heartbeat_interval.mul_f64(0.5),
                server.cfg.coord_heartbeat_interval,
                move || {
                    if weak2.upgrade().is_some() {
                        coord3.touch(sid);
                    }
                },
            );
            server.timers.borrow_mut().push(timer);
        });

        // Async WAL sync.
        if self.cfg.wal_mode == WalSyncMode::Async {
            let wal = self.wal.clone();
            let weak = Rc::downgrade(self);
            let timer = every_from(
                &self.sim,
                // lint:allow(CD004, reason = "WAL sync phase stagger draws from the seeded sim RNG; per-server desync is intended and pinned baselines include this draw")
                self.sim.jitter(self.cfg.wal_sync_interval, 0.5),
                self.cfg.wal_sync_interval,
                move || {
                    if weak.upgrade().is_some() {
                        wal.sync(|| {});
                    }
                },
            );
            self.timers.borrow_mut().push(timer);
        }

        // Memstore flush checks.
        let weak = Rc::downgrade(self);
        let timer = every_from(
            &self.sim,
            // lint:allow(CD004, reason = "flush check phase stagger draws from the seeded sim RNG; per-server desync is intended and pinned baselines include this draw")
            self.sim.jitter(self.cfg.flush_check_interval, 0.5),
            self.cfg.flush_check_interval,
            move || {
                if let Some(server) = weak.upgrade() {
                    server.check_flushes();
                }
            },
        );
        self.timers.borrow_mut().push(timer);

        // The background checks run at a fixed phase (no RNG jitter):
        // drawing from the shared simulation RNG here would shift the
        // random stream of every run that merely *enables* one of them,
        // perturbing previously calibrated schedules.
        let cfg = &self.cfg;
        if cfg.compaction.enabled {
            self.every_fixed_phase(cfg.compaction.check_interval, Self::check_compactions);
        }
        if cfg.split.enabled {
            self.every_fixed_phase(cfg.split.check_interval, Self::check_splits);
        }
        if cfg.merge.enabled {
            self.every_fixed_phase(cfg.merge.check_interval, Self::check_merges);
        }
        // Ships full region state to out-of-sync backup lanes.
        if cfg.replication.enabled {
            self.every_fixed_phase(cfg.replication.resync_interval, Self::check_resyncs);
        }
    }

    /// Runs `tick` every `interval`, first after one `interval`, for as
    /// long as the server lives.
    fn every_fixed_phase(self: &Rc<Self>, interval: SimDuration, tick: fn(&Rc<RegionServer>)) {
        let weak = Rc::downgrade(self);
        let timer = every_from(&self.sim, interval, interval, move || {
            if let Some(server) = weak.upgrade() {
                tick(&server);
            }
        });
        self.timers.borrow_mut().push(timer);
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The machine the server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the process is alive.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
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

    /// Installs the source of the MVCC garbage-collection watermark
    /// (typically the transaction manager's oldest active snapshot).
    /// Without one, compaction merges files but drops no versions.
    pub fn set_gc_watermark_source(&self, source: Rc<dyn Fn() -> GcWatermark>) {
        *self.gc_watermark.borrow_mut() = Some(source);
    }

    /// Compaction observability: counters and the read-amplification
    /// gauge (shared handles; clone freely).
    pub fn compaction_stats(&self) -> &CompactionStats {
        &self.compaction_stats
    }

    /// Point-get filter observability: probes, skips, false positives
    /// and the current filter-metadata footprint (shared handles; clone
    /// freely).
    pub fn filter_stats(&self) -> &FilterStats {
        &self.filter_stats
    }

    /// Observability of one kind of structure change — splits or merges:
    /// candidacies, intents, completions (shared handles; clone freely).
    pub fn structure_stats(&self, kind: ChangeKind) -> &StructureStats {
        kind.pick(&self.split_stats, &self.merge_stats)
    }

    /// The kind of the split or merge this server has pending or
    /// executing, if any.
    pub fn pending_change(&self) -> Option<ChangeKind> {
        self.pending_change.borrow().as_ref().map(|p| p.kind())
    }

    /// Installs the master's structure-change coordination surface
    /// (cluster wiring; without one, candidacy checks never fire an
    /// intent).
    pub fn set_structure_coordinator(&self, coord: Rc<dyn StructureCoordinator>) {
        *self.structure_coord.borrow_mut() = Some(coord);
    }

    /// Installs the cluster-shared trace and failure-event journals.
    /// Until called, both are [`Journal::disabled`] and recording is a
    /// no-op (standalone servers, unit tests).
    pub fn set_journals(&self, trace: Journal, events: Journal) {
        *self.trace.borrow_mut() = trace;
        *self.events.borrow_mut() = events;
    }

    /// Adopts this server's metric handles into `registry` under
    /// `store.*{server=<id>}` keys: request counters, the filter and
    /// compaction statistics (per-level profiles under a `level=` slot
    /// label) and the split statistics (per-region load under a
    /// `region=` key label). Cluster wiring; call once per server.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let sid = self.id.to_string();
        let labels: &[(&str, &str)] = &[("server", sid.as_str())];
        let c = |name: &str, counter: &Counter| registry.register_counter(name, labels, counter);
        c("store.gets", &self.gets);
        c("store.multi_gets", &self.multi_gets);
        c("store.puts", &self.puts);
        c("store.scans", &self.scans);
        c("store.scan.cells_examined", &self.scan_cells_examined);
        c("store.not_serving", &self.not_serving);
        let f = &self.filter_stats;
        c("store.filter.probes", &f.probes);
        c("store.filter.range_skips", &f.range_skips);
        c("store.filter.filter_skips", &f.filter_skips);
        c("store.filter.false_positives", &f.false_positives);
        c("store.filter.false_negatives", &f.false_negatives);
        c("store.filter.files_consulted", &f.files_consulted);
        registry.register_gauge("store.filter.bytes", labels, &f.filter_bytes);
        let k = &self.compaction_stats;
        c("store.compaction.started", &k.started);
        c("store.compaction.completed", &k.completed);
        c("store.compaction.bytes_rewritten", &k.bytes_rewritten);
        c("store.compaction.versions_dropped", &k.versions_dropped);
        c("store.compaction.files_retired", &k.files_retired);
        c("store.compaction.deletes_confirmed", &k.deletes_confirmed);
        c(
            "store.compaction.filter_bytes_dropped",
            &k.filter_bytes_dropped,
        );
        c(
            "store.compaction.filter_bytes_created",
            &k.filter_bytes_created,
        );
        c("store.compaction.deferred", &k.deferred);
        c("store.compaction.forced", &k.forced);
        c("store.compaction.flush_stalls", &k.flush_stalls);
        c("store.compaction.stall_ns", &k.stall_ns);
        registry.register_gauge("store.read_amplification", labels, &k.read_amplification);
        registry.register_vec("store.level.files", labels, "level", &k.level_files);
        registry.register_vec("store.level.bytes", labels, "level", &k.level_bytes);
        for kind in [ChangeKind::Split, ChangeKind::Merge] {
            let (s, name) = (self.structure_stats(kind), kind.name());
            c(&format!("store.{name}.considered"), &s.considered);
            c(
                &format!("store.{name}.intents_requested"),
                &s.intents_requested,
            );
            c(&format!("store.{name}.executing"), &s.executing);
            c(&format!("store.{name}.completed"), &s.completed);
            c(&format!("store.{name}.aborted"), &s.aborted);
        }
        registry.register_map("store.region.load_ns", labels, "region", &self.region_load);
        let r = &self.repl_stats;
        c("store.repl.ships", &r.ships);
        c("store.repl.ship_bytes", &r.ship_bytes);
        c("store.repl.acks", &r.acks);
        c("store.repl.nacks", &r.nacks);
        c("store.repl.syncs", &r.syncs);
        c("store.repl.applied", &r.applied);
        c("store.repl.fences", &r.fences);
        c("store.repl.fenced", &r.fenced);
        c("store.repl.lane_drops", &r.lane_drops);
        registry.register_gauge("store.repl.backlog_bytes", labels, &r.backlog_bytes);
        registry.register_gauge("store.repl.lag", labels, &r.lag);
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
        self.regions.borrow().get(&region).map(|st| st.desc.clone())
    }

    /// Attributes foreground service time to the region that pays it.
    fn charge_region_load(&self, region: RegionId, service: SimDuration) {
        self.region_load.add(region.0 as u64, service.nanos());
    }

    /// Enables or disables bloom probing on point gets at runtime (the
    /// benchmarks' A/B switch — the store-file stack stays identical
    /// across the toggle, unlike rebuilding a cluster with a different
    /// config).
    pub fn set_bloom_filters(&self, enabled: bool) {
        self.bloom_enabled.set(enabled);
    }

    /// Whether bloom probing on point gets is currently enabled.
    pub fn bloom_filters_enabled(&self) -> bool {
        self.bloom_enabled.get()
    }

    /// Switches the compaction policy at runtime (the benches' A/B
    /// switch, like [`RegionServer::set_bloom_filters`]). Policies are
    /// stateless over the current file stack, so the switch simply
    /// changes what the next candidacy check decides; in-flight merges
    /// finish under their already-planned placement. Files a previous
    /// policy placed on deeper levels keep their level — the size-tiered
    /// policy ignores levels, and a switch back to leveled resumes from
    /// the recorded ones.
    pub fn set_compaction_policy(&self, kind: CompactionPolicyKind) {
        *self.policy.borrow_mut() = compaction::policy_for(kind);
    }

    /// The compaction policy currently deciding candidacy.
    pub fn compaction_policy(&self) -> CompactionPolicyKind {
        self.policy.borrow().kind()
    }

    /// Per-level `(file count, bytes)` across this server's hosted
    /// regions, indexed by LSM level (slot 0 includes flushing
    /// snapshots). Size-tiered keeps everything in slot 0.
    pub fn level_profile(&self) -> Vec<(u64, u64)> {
        let files = self.compaction_stats.level_files.snapshot();
        let bytes = self.compaction_stats.level_bytes.snapshot();
        files.into_iter().zip(bytes).collect()
    }

    /// Whether `region` currently has a compaction in flight.
    pub fn compaction_in_progress(&self, region: RegionId) -> bool {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.compaction_in_progress)
            .unwrap_or(false)
    }

    /// Crash-stop failure: the process dies, the network drops its
    /// traffic, timers stop, the coordination session expires on its own.
    /// In-memory state (memstores, WAL buffer) is lost.
    pub fn crash(&self) {
        self.alive.set(false);
        self.net.crash(self.node);
        for t in self.timers.borrow().iter() {
            t.cancel();
        }
        self.timers.borrow_mut().clear();
        // Shadow memstores and primary-side lane state are in-memory
        // state: gone with the process.
        let mut repl = self.repl.borrow_mut();
        repl.groups.clear();
        repl.shadows.clear();
    }

    /// Ids of regions currently hosted (online or recovering).
    pub fn hosted_regions(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> = self.regions.borrow().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether `region` is hosted here and online.
    pub fn region_online(&self, region: RegionId) -> bool {
        self.regions
            .borrow()
            .get(&region)
            .map(|r| r.online)
            .unwrap_or(false)
    }

    /// Block-cache hit rate so far (Fig. 3's warm-up indicator).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.borrow().hit_rate()
    }

    /// Number of gets served (batched reads count one per cell, so the
    /// per-get filter statistics stay comparable across both paths).
    pub fn gets_served(&self) -> u64 {
        self.gets.get()
    }

    /// Number of batched-read requests ([`RegionServer::handle_multi_get`]
    /// messages) served.
    pub fn multi_gets_served(&self) -> u64 {
        self.multi_gets.get()
    }

    /// Number of write batches applied.
    pub fn puts_applied(&self) -> u64 {
        self.puts.get()
    }

    /// Number of scan legs served ([`RegionServer::handle_scan`] pages;
    /// a cross-region scan counts once per region walked).
    pub fn scans_served(&self) -> u64 {
        self.scans.get()
    }

    /// Number of requests rejected with `NotServing`.
    pub fn not_serving_count(&self) -> u64 {
        self.not_serving.get()
    }

    /// Current handler queue length (for overload diagnostics).
    pub fn handler_queue_len(&self) -> usize {
        self.handlers.queue_len()
    }

    /// Submits background work to the request handlers (used by the
    /// recovery middleware to charge its tracking CPU cost against the
    /// same resource that serves requests — the contention the paper
    /// measures in Fig. 2b).
    pub fn submit_background(self: &Rc<Self>, service: SimDuration, run: impl FnOnce() + 'static) {
        if !self.alive.get() {
            return;
        }
        // Attributed as background for the utilization sample (charged
        // at submit while the queue charges at start — close enough for
        // a scheduling signal, and always in the same direction).
        self.background_ns
            .set(self.background_ns.get() + service.nanos());
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if this.alive.get() {
                run();
            }
        });
    }

    // ------------------------------------------------------------------
    // Request handling (invoked at this node via network events)
    // ------------------------------------------------------------------

    /// The hosted region a get of `row` (or a scan starting there) is
    /// served by, and whether it is online. More than one can transiently
    /// cover a row (e.g. an offline parent beside an online daughter
    /// mid-split): the online one is preferred, the lowest id breaks
    /// ties. A minimum is the same whatever order the map yields its
    /// regions in — `HashMap` iteration order must never pick the reply —
    /// and allocates nothing on the path of every read.
    fn covering_region(&self, row: &[u8]) -> Option<(RegionId, bool)> {
        self.regions
            .borrow()
            .values()
            .filter(|st| st.desc.contains(row))
            .map(|st| (!st.online, st.desc.id))
            .min()
            .map(|(offline, id)| (id, !offline))
    }

    /// Serves a versioned read at `snapshot`.
    pub fn handle_get(
        self: &Rc<Self>,
        row: Bytes,
        column: Bytes,
        snapshot: Timestamp,
        reply: impl FnOnce(Result<Option<VersionedValue>, StoreError>) + 'static,
    ) {
        if !self.alive.get() {
            return;
        }
        let region_id = match self.covering_region(&row) {
            Some((id, true)) => id,
            Some((id, false)) => {
                self.not_serving.inc();
                reply(Err(StoreError::NotServing(id)));
                return;
            }
            None => {
                self.not_serving.inc();
                reply(Err(StoreError::RegionUnknown));
                return;
            }
        };
        // Hit/miss and the consulted-file plan are decided up front; they
        // determine handler occupancy. Key-range pruning is free, each
        // bloom probe on a range-covering file costs
        // `filter_probe_service`, and only files the filter cannot
        // exclude charge the `storefile_read_service` amplification term.
        // The cell is hashed here, once, for every filter probe and file
        // lookup of this get.
        let key = CellKey::new(row, column);
        let (in_memstore, probes, consulted_files) = {
            let regions = self.regions.borrow();
            let st = &regions[&region_id];
            let mut pruned = Pruned::default();
            let consulted = self.files_to_consult(st, &key, &mut pruned).count();
            (
                st.memstore.get(key.row(), key.column(), snapshot).is_some(),
                pruned.probes,
                consulted,
            )
        };
        let hit = in_memstore || self.cache.borrow_mut().access(region_id, key.row());
        // Read amplification: every *consulted* store file beyond the
        // first costs extra handler time. Compaction bounds the file
        // count; range pruning and bloom filters bound how many of those
        // files a point get actually consults.
        let amplification = self.cfg.storefile_read_service
            * consulted_files.saturating_sub(1) as u64
            + self.cfg.filter_probe_service * probes;
        let service = self.cfg.base_service
            + self.cfg.read_service
            + amplification
            + if hit {
                SimDuration::ZERO
            } else {
                self.cfg.block_fetch_penalty
            };
        self.charge_region_load(region_id, service);
        let submitted = self.sim.now();
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if !this.alive.get() {
                return;
            }
            let result = this.lookup(region_id, &key, snapshot);
            if !hit {
                this.cache.borrow_mut().insert(region_id, key.row().clone());
            }
            this.gets.inc();
            // Span: queue wait is everything between submission and
            // completion that was not this request's own service.
            let now = this.sim.now();
            let queue_ns = (now.nanos() - submitted.nanos()).saturating_sub(service.nanos());
            let me = this.id;
            this.trace.borrow().record(now, "rpc.get", move || {
                format!(
                    "server={} region={} queue_ns={} service_ns={} files={} probes={} hit={}",
                    me,
                    region_id,
                    queue_ns,
                    service.nanos(),
                    consulted_files,
                    probes,
                    hit
                )
            });
            reply(result);
        });
    }

    /// The files of `st` a point read of `key` has to consult, newest
    /// first, each with whether it is durable (a store file) or the
    /// flushing snapshot: those that neither the row range (free) nor,
    /// while filters are on, the bloom probe (`filter_probe_service`
    /// each) excludes. This is the one place both the admission plan and
    /// [`RegionServer::lookup`] prune; `pruned` counts what was decided
    /// for the files pulled so far.
    fn files_to_consult<'a>(
        &self,
        st: &'a RegionState,
        key: &'a CellKey,
        pruned: &'a mut Pruned,
    ) -> impl Iterator<Item = (&'a StoreFileData, bool)> + 'a {
        let bloom = self.bloom_enabled.get();
        let verify = self.cfg.verify_filters;
        let flushing = st.flushing.iter().map(|sf| (&**sf, false));
        let durable = st.storefiles.iter().map(|sf| (&**sf, true));
        flushing.chain(durable).filter(move |(sf, _)| {
            if !sf.row_in_range(key.row()) {
                pruned.range_skips += 1;
                return false;
            }
            if bloom {
                pruned.probes += 1;
                if !sf.filter_may_contain_cell(key) {
                    pruned.filter_skips += 1;
                    if verify && sf.contains_cell(key) {
                        pruned.false_negatives += 1;
                    }
                    return false;
                }
            }
            true
        })
    }

    fn lookup(
        &self,
        region_id: RegionId,
        key: &CellKey,
        snapshot: Timestamp,
    ) -> Result<Option<VersionedValue>, StoreError> {
        let regions = self.regions.borrow();
        let Some(st) = regions.get(&region_id) else {
            return Err(StoreError::NotServing(region_id));
        };
        if !st.online {
            return Err(StoreError::NotServing(region_id));
        }
        let mut best = st.memstore.get(key.row(), key.column(), snapshot);
        let bloom = self.bloom_enabled.get();
        let stats = &self.filter_stats;
        let mut pruned = Pruned::default();
        let mut unreadable = None;
        for (sf, durable) in self.files_to_consult(st, key, &mut pruned) {
            // Honesty check: a consulted store file is only readable
            // while at least one filesystem replica survives (pruned
            // files are not touched, so their replicas need not be).
            // Reference half-files check the *backing* parent file —
            // that is where the bytes physically live. The flushing
            // snapshot is served from memory while its DFS write is in
            // flight, so it gets no replica-liveness check.
            if durable && !self.dfs.namenode().has_live_replica(sf.backing_path()) {
                unreadable = Some(sf.path().to_owned());
                break;
            }
            stats.files_consulted.inc();
            match sf.get_cell(key, snapshot) {
                Some(found) if best.as_ref().is_none_or(|b| found.ts > b.ts) => {
                    best = Some(found);
                }
                Some(_) => {}
                // A version at the snapshot proves the key is in the
                // file; only a miss needs the exact check (a second probe
                // of the hash index) to tell a filter false positive from
                // versions above the snapshot.
                None if bloom && !sf.contains_cell(key) => stats.false_positives.inc(),
                None => {}
            }
        }
        stats.range_skips.add(pruned.range_skips);
        stats.probes.add(pruned.probes);
        stats.filter_skips.add(pruned.filter_skips);
        stats.false_negatives.add(pruned.false_negatives);
        match unreadable {
            Some(path) => Err(StoreError::Unavailable(path)),
            None => Ok(best),
        }
    }

    /// Serves a batch of point reads for one region in a single message
    /// round trip (the batched half of the client's `multi_get`).
    ///
    /// The whole batch occupies one handler slot for the *sum* of its
    /// per-cell service: each cell charges the same read service, range
    /// pruning (free), bloom probes (`filter_probe_service` each) and
    /// per-consulted-file `storefile_read_service` amplification it
    /// would have paid as a lone [`RegionServer::handle_get`] — the
    /// saving is round trips and per-request base cost, not a discount
    /// on the read work itself. Per-cell [`FilterStats`] accounting is
    /// identical to the single-get path.
    ///
    /// Addressing is by region id (like [`RegionServer::handle_multi_put`]):
    /// region ids are never reused, so every row grouped under `region`
    /// by any map epoch lies inside its descriptor. A batch for a
    /// split-away id gets [`StoreError::WrongRegion`] when another hosted
    /// region covers its rows, so the client re-groups by its refreshed
    /// map and retries.
    pub fn handle_multi_get(
        self: &Rc<Self>,
        region: RegionId,
        cells: Vec<(Bytes, Bytes)>,
        snapshot: Timestamp,
        reply: impl FnOnce(Result<Vec<Option<VersionedValue>>, StoreError>) + 'static,
    ) {
        if !self.alive.get() {
            return;
        }
        {
            let regions = self.regions.borrow();
            match regions.get(&region) {
                None => {
                    self.not_serving.inc();
                    let covered = cells
                        .first()
                        .map(|(row, _)| regions.values().any(|st| st.desc.contains(row)))
                        .unwrap_or(false);
                    reply(Err(if covered {
                        StoreError::WrongRegion(region)
                    } else {
                        StoreError::NotServing(region)
                    }));
                    return;
                }
                Some(st) if !st.online => {
                    self.not_serving.inc();
                    reply(Err(StoreError::NotServing(region)));
                    return;
                }
                Some(_) => {}
            }
        }
        // Per-cell consulted-file plan and cache hit/miss, decided up
        // front exactly like `handle_get`; the batch's handler occupancy
        // is the sum of its cells'.
        let cells: Vec<CellKey> = cells
            .into_iter()
            .map(|(row, column)| CellKey::new(row, column))
            .collect();
        let mut service = self.cfg.base_service;
        let mut misses: Vec<Bytes> = Vec::new();
        {
            let regions = self.regions.borrow();
            let st = &regions[&region];
            let mut cache = self.cache.borrow_mut();
            for key in &cells {
                let row = key.row();
                let mut pruned = Pruned::default();
                let consulted = self.files_to_consult(st, key, &mut pruned).count();
                // A row already planned as a miss earlier in this batch
                // is fetched once for the whole batch: later cells on it
                // ride the same block, like sequential gets would hit
                // the cache the first miss populated.
                let hit = st.memstore.get(row, key.column(), snapshot).is_some()
                    || misses.contains(row)
                    || cache.access(region, row);
                service += self.cfg.read_service
                    + self.cfg.storefile_read_service * consulted.saturating_sub(1) as u64
                    + self.cfg.filter_probe_service * pruned.probes;
                if !hit {
                    service += self.cfg.block_fetch_penalty;
                    misses.push(row.clone());
                }
            }
        }
        self.charge_region_load(region, service);
        let submitted = self.sim.now();
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if !this.alive.get() {
                return;
            }
            let mut out: Vec<Option<VersionedValue>> = Vec::with_capacity(cells.len());
            for key in &cells {
                match this.lookup(region, key, snapshot) {
                    Ok(v) => out.push(v),
                    Err(e) => {
                        // A partially readable stack fails the whole
                        // batch (same retry the lone get would take).
                        reply(Err(e));
                        return;
                    }
                }
            }
            let (cell_count, miss_count) = (cells.len(), misses.len());
            for row in misses {
                this.cache.borrow_mut().insert(region, row);
            }
            this.gets.add(cell_count as u64);
            this.multi_gets.inc();
            let now = this.sim.now();
            let queue_ns = (now.nanos() - submitted.nanos()).saturating_sub(service.nanos());
            let me = this.id;
            this.trace.borrow().record(now, "rpc.multi_get", move || {
                format!(
                    "server={} region={} cells={} queue_ns={} service_ns={} misses={}",
                    me,
                    region,
                    cell_count,
                    queue_ns,
                    service.nanos(),
                    miss_count
                )
            });
            reply(Ok(out));
        });
    }

    /// Applies one transaction's mutations for one region (the flush of a
    /// committed write-set portion, or a recovery replay when `replay`).
    ///
    /// Matches Algorithm 3 "On receive": WAL-buffer append, memstore
    /// apply, PQ tracking via the hook, then the ack — immediately in
    /// Async mode, after the filesystem sync in Sync mode.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_multi_put(
        self: &Rc<Self>,
        region: RegionId,
        ts: Timestamp,
        mutations: Vec<Mutation>,
        floor: Option<Timestamp>,
        replay: bool,
        reply: impl FnOnce(Result<(), StoreError>) + 'static,
    ) {
        if !self.alive.get() {
            return;
        }
        {
            let regions = self.regions.borrow();
            match regions.get(&region) {
                None => {
                    self.not_serving.inc();
                    // The region id is unknown here — if a *different*
                    // hosted region covers the batch's rows, the map
                    // changed under the client (an online split replaced
                    // the id); retrying the same id can never succeed, so
                    // tell the client to refresh and re-group.
                    let covered = mutations
                        .first()
                        .map(|m| regions.values().any(|st| st.desc.contains(&m.row)))
                        .unwrap_or(false);
                    reply(Err(if covered {
                        StoreError::WrongRegion(region)
                    } else {
                        StoreError::NotServing(region)
                    }));
                    return;
                }
                Some(st) if !st.online && !replay => {
                    self.not_serving.inc();
                    // A fenced ex-primary can never serve this region
                    // again under its old epoch — send the client to the
                    // map, not into a retry loop.
                    reply(Err(if self.region_fenced(region) {
                        StoreError::WrongRegion(region)
                    } else {
                        StoreError::NotServing(region)
                    }));
                    return;
                }
                Some(_) => {}
            }
        }
        let mut service = self.cfg.base_service
            + self.cfg.write_service_per_mutation * mutations.len().max(1) as u64;
        if self.cfg.wal_mode == WalSyncMode::Sync {
            service += self.cfg.sync_mode_handler_hold;
        }
        self.charge_region_load(region, service);
        let submitted = self.sim.now();
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if !this.alive.get() {
                return;
            }
            let applied = {
                let mut regions = this.regions.borrow_mut();
                match regions.get_mut(&region) {
                    Some(st) => {
                        for m in &mutations {
                            st.memstore.apply_mutation(
                                m.row.clone(),
                                m.column.clone(),
                                ts,
                                &m.kind,
                            );
                        }
                        true
                    }
                    None => false,
                }
            };
            if !applied {
                reply(Err(StoreError::NotServing(region)));
                return;
            }
            let n_mutations = mutations.len();
            // Ship to backup lanes *before* the WAL append consumes the
            // batch. Returns the gate sequence when at least one in-sync
            // lane was shipped; the client ack (and the T_P bookkeeping
            // hook) then waits for every shipped lane's ack — this is
            // what makes `T_P(failed)` a sound promotion floor: nothing
            // at or below it can be missing from an eligible backup.
            let gate_seq = this.ship_to_replicas(region, ts, &mutations);
            let seq = this.wal.append(WalRecord {
                region,
                ts,
                mutations,
            });
            this.puts.inc();
            let now = this.sim.now();
            let queue_ns = (now.nanos() - submitted.nanos()).saturating_sub(service.nanos());
            let me = this.id;
            this.trace.borrow().record(now, "rpc.put", move || {
                format!(
                    "server={} region={} mutations={} queue_ns={} service_ns={} replay={}",
                    me,
                    region,
                    n_mutations,
                    queue_ns,
                    service.nanos(),
                    replay
                )
            });
            let complete: Box<dyn FnOnce(Result<(), StoreError>)> = {
                let this = Rc::clone(&this);
                Box::new(move |result| match result {
                    Ok(()) => {
                        this.hooks
                            .borrow()
                            .on_write_set_applied(this.id, region, ts, seq, floor);
                        match this.cfg.wal_mode {
                            WalSyncMode::Sync => this.wal.sync_upto(seq, move || reply(Ok(()))),
                            WalSyncMode::Async => reply(Ok(())),
                        }
                    }
                    Err(e) => reply(Err(e)),
                })
            };
            match gate_seq {
                Some(gate_seq) => this.arm_gate(region, gate_seq, complete),
                None => complete(Ok(())),
            }
        });
    }

    /// Serves one page of a snapshot range scan: the newest visible
    /// version per cell in `[start, end)` (end-exclusive, tombstones
    /// elided) *within the hosted region containing `start`*, plus that
    /// region's exclusive end bound as the continuation resume key. The
    /// client stitches pages from consecutive regions into one merged
    /// cross-region result (see [`crate::StoreClient::scan`]).
    pub fn handle_scan(
        self: &Rc<Self>,
        start: Bytes,
        end: Option<Bytes>,
        snapshot: Timestamp,
        limit: usize,
        reply: impl FnOnce(Result<ScanPage, StoreError>) + 'static,
    ) {
        if !self.alive.get() {
            return;
        }
        let region_id = match self.covering_region(&start) {
            Some((id, true)) => id,
            Some((id, false)) => {
                reply(Err(StoreError::NotServing(id)));
                return;
            }
            None => {
                reply(Err(StoreError::RegionUnknown));
                return;
            }
        };
        // Scans touch many rows, so per-(row, column) bloom filters
        // cannot exclude a file for them — key-range pruning only: a
        // file is consulted iff its row range overlaps [start, end).
        let consulted_files = {
            let regions = self.regions.borrow();
            regions
                .get(&region_id)
                .map(|st| {
                    st.flushing
                        .iter()
                        .chain(st.storefiles.iter())
                        .filter(|sf| sf.range_overlaps(&start, end.as_deref()))
                        .count()
                })
                .unwrap_or(0)
        };
        let service = self.cfg.base_service
            + self.cfg.read_service * 3
            + self.cfg.storefile_read_service * consulted_files.saturating_sub(1) as u64;
        self.charge_region_load(region_id, service);
        let submitted = self.sim.now();
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if !this.alive.get() {
                return;
            }
            let regions = this.regions.borrow();
            let Some(st) = regions.get(&region_id) else {
                reply(Err(StoreError::NotServing(region_id)));
                return;
            };
            // One streaming merge over memstore, flushing snapshot and
            // store files, newest source first; it seeks to `start` and
            // stops at `limit` live cells.
            let files = st.flushing.iter().chain(st.storefiles.iter().rev());
            let (out, examined) = merge_iter::scan_page(
                &st.memstore,
                files.map(Rc::as_ref),
                &start,
                end.as_deref(),
                snapshot,
                limit,
            );
            this.scan_cells_examined.add(examined);
            let region_end = st.desc.end.clone();
            this.scans.inc();
            let now = this.sim.now();
            let queue_ns = (now.nanos() - submitted.nanos()).saturating_sub(service.nanos());
            let (me, returned) = (this.id, out.len());
            this.trace.borrow().record(now, "rpc.scan", move || {
                format!(
                    "server={} region={} files={} queue_ns={} service_ns={} returned={} examined={}",
                    me,
                    region_id,
                    consulted_files,
                    queue_ns,
                    service.nanos(),
                    returned,
                    examined
                )
            });
            reply(Ok(ScanPage {
                cells: out,
                region_end,
            }));
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
        if !self.alive.get() {
            return;
        }
        let region = desc.id;
        // Skip in-flight compaction temporaries (a crashed server's
        // half-written merge output): the retired inputs are only deleted
        // after the merged file is renamed into its final name, so the
        // remaining files always cover all data.
        let storefiles: Vec<Rc<StoreFileData>> = storefile_paths
            .iter()
            .filter(|p| !compaction::is_tmp_path(p))
            .filter_map(|p| self.registry.get(p))
            .collect();
        self.regions.borrow_mut().insert(
            region,
            // Adopted files all start at level 0: a failed-over server
            // does not know its predecessor's level layout, and L0 is
            // the only level that tolerates overlapping ranges. The
            // leveled policy re-sorts them down.
            RegionState::new(desc, MemStore::new(), storefiles),
        );
        self.update_file_metrics();
        self.finish_region_open(region, failed, false);
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
    pub fn mark_region_online(&self, region: RegionId) {
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.online = true;
            let me = self.id;
            self.events
                .borrow()
                .record(self.sim.now(), "region.online", move || {
                    format!("server={me} region={region}")
                });
        }
    }

    // ------------------------------------------------------------------
    // Memstore flushing
    // ------------------------------------------------------------------

    fn check_flushes(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let ccfg = self.cfg.compaction;
        let policy = Rc::clone(&*self.policy.borrow());
        let mut candidates: Vec<RegionId> = Vec::new();
        {
            let regions = self.regions.borrow();
            let mut due: Vec<(&RegionId, &RegionState)> = regions
                .iter()
                .filter(|(_, st)| {
                    st.online
                        && !st.flush_in_progress
                        // A restructuring region's file set must stay
                        // stable between reference creation and the
                        // flip; its memstore leftovers move to the
                        // outputs.
                        && !st.restructuring
                        && st.memstore.approx_bytes() >= self.cfg.memstore_flush_bytes
                })
                .collect();
            // HashMap iteration order varies per process; flush in region
            // order so runs with the same seed stay byte-identical.
            due.sort_unstable_by_key(|(id, _)| **id);
            for (id, st) in due {
                // Flush stall (hard backpressure): past the file-count
                // limit a flush would only deepen the unmerged backlog,
                // so the memstore keeps absorbing writes until
                // compaction catches up. Only meaningful while
                // compaction runs — without it the backlog would never
                // drain and the stall would hold forever.
                if ccfg.enabled
                    && ccfg.backpressure
                    && policy.flush_should_stall(st.stall_signal(), &ccfg)
                {
                    self.compaction_stats.flush_stalls.inc();
                    self.compaction_stats
                        .stall_ns
                        .add(self.cfg.flush_check_interval.nanos());
                    let (me, region, files) = (self.id, *id, st.stall_signal().total_files);
                    self.events
                        .borrow()
                        .record(self.sim.now(), "flush.stall", move || {
                            format!("server={me} region={region} files={files}")
                        });
                    continue;
                }
                candidates.push(*id);
            }
        }
        for region in candidates {
            self.flush_region(region);
        }
    }

    /// Flushes `region`'s memstore to a new store file in the filesystem.
    /// Reads keep seeing the data throughout (flushing snapshot).
    pub fn flush_region(self: &Rc<Self>, region: RegionId) {
        let path = {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                return;
            };
            if st.flush_in_progress || st.memstore.is_empty() {
                return;
            }
            st.flush_in_progress = true;
            let n = self.storefile_counter.get();
            self.storefile_counter.set(n + 1);
            format!("/store/{region}/{:06}-{}", n, self.id)
        };
        let data = {
            let mut regions = self.regions.borrow_mut();
            let st = regions.get_mut(&region).expect("checked above");
            let snapshot = st.memstore.take();
            let data = Rc::new(StoreFileData::from_memstore(
                region,
                path.clone(),
                &snapshot,
            ));
            st.flushing = Some(Rc::clone(&data));
            data
        };
        // The flushing snapshot is immediately part of the readable file
        // stack; refresh the gauges now, not only when the DFS write acks.
        self.update_file_metrics();
        let weak = Rc::downgrade(self);
        let registry = Rc::clone(&self.registry);
        let data2 = Rc::clone(&data);
        self.dfs.create(&path, move |file| {
            let Ok(file) = file else { return };
            let encoded = data2.encode();
            let weak = weak.clone();
            file.append(encoded, move |result| {
                let Some(server) = weak.upgrade() else { return };
                if result.is_err() {
                    // Filesystem unavailable: leave the snapshot readable
                    // in `flushing`; the next flush-check retries nothing
                    // (flush_in_progress stays set) but data is not lost —
                    // the WAL still covers it.
                    return;
                }
                registry.insert(Rc::clone(&data2));
                if let Some(st) = server.regions.borrow_mut().get_mut(&region) {
                    st.storefiles.push(Rc::clone(&data2));
                    st.flushing = None;
                    st.flush_in_progress = false;
                }
                server.update_file_metrics();
                // The file set changed and the memstore was truncated:
                // re-baseline every backup lane with a full-state sync
                // (this is also what keeps shadow memstores bounded).
                server.ship_sync(region);
            });
        });
    }

    // ------------------------------------------------------------------
    // Background compaction (see `crate::compaction` for the policy, the
    // merge and the crash-safety argument)
    // ------------------------------------------------------------------

    /// Foreground handler utilization over the window since the last
    /// compaction check (the deficit scheduler's admission signal).
    /// Work this server itself submitted as background (merges, recovery
    /// tracking) is subtracted out, so an admitted merge does not make
    /// the following windows read as foreground saturation.
    fn sample_utilization(&self) -> f64 {
        let now_ns = self.sim.now().nanos();
        let busy_ns = self.handlers.busy_nanos();
        let background_ns = self.background_ns.get();
        let elapsed = now_ns.saturating_sub(self.sched_checked_ns.get());
        let busy_delta = busy_ns.saturating_sub(self.sched_busy_ns.get());
        let background_delta = background_ns.saturating_sub(self.sched_background_ns.get());
        self.sched_checked_ns.set(now_ns);
        self.sched_busy_ns.set(busy_ns);
        self.sched_background_ns.set(background_ns);
        if elapsed == 0 {
            return 0.0;
        }
        let foreground = busy_delta.saturating_sub(background_delta);
        foreground as f64 / (elapsed as f64 * self.cfg.handlers as f64)
    }

    fn check_compactions(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let cfg = self.cfg.compaction;
        let utilization = self.sample_utilization();
        let policy = Rc::clone(&*self.policy.borrow());
        // One candidate region per tick: compaction competes with
        // foreground traffic for handler slots, so pace it. The policy
        // decides per region whether a merge is due; the deepest file
        // backlog wins (regions in sorted order for determinism).
        let picked = {
            let regions = self.regions.borrow();
            let mut ordered: Vec<(&RegionId, &RegionState)> = regions.iter().collect();
            ordered.sort_unstable_by_key(|(id, _)| **id);
            let mut best: Option<(usize, RegionId, PlannedCompaction, u64)> = None;
            for (id, st) in ordered {
                if !st.online || st.compaction_in_progress || st.restructuring {
                    continue;
                }
                let metas = st.file_metas();
                let Some(CompactionJob {
                    inputs,
                    output_level,
                    max_output_bytes,
                }) = policy.pick(&metas, &cfg)
                else {
                    continue;
                };
                let entries: u64 = inputs.iter().map(|&i| metas[i].entries as u64).sum();
                let plan = PlannedCompaction {
                    input_paths: inputs.iter().map(|&i| metas[i].path.clone()).collect(),
                    output_level,
                    max_output_bytes,
                };
                let depth = st.storefiles.len();
                if best.as_ref().map(|(d, ..)| depth > *d).unwrap_or(true) {
                    best = Some((depth, *id, plan, entries));
                }
            }
            best
        };
        let Some((_, region, plan, total_entries)) = picked else {
            // Nothing due: the deficit bank only accrues against real
            // deferred work.
            self.compaction_deficit.set(0);
            return;
        };
        // Soft backpressure: while the foreground is saturated, a due
        // merge waits — but each deferral banks a deficit token, and a
        // full bank forces the merge so read amplification cannot grow
        // without bound under sustained overload.
        let me = self.id;
        if cfg.backpressure && utilization > cfg.utilization_threshold {
            if self.compaction_deficit.get() < cfg.max_deferrals {
                let deficit = self.compaction_deficit.get() + 1;
                self.compaction_deficit.set(deficit);
                self.compaction_stats.deferred.inc();
                self.events
                    .borrow()
                    .record(self.sim.now(), "compaction.defer", move || {
                        format!("server={me} region={region} deficit={deficit}")
                    });
                return;
            }
            self.compaction_stats.forced.inc();
            self.events
                .borrow()
                .record(self.sim.now(), "compaction.force", move || {
                    format!("server={me} region={region}")
                });
        }
        self.compaction_deficit.set(0);
        {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                return;
            };
            st.compaction_in_progress = true;
        }
        self.compaction_stats.started.inc();
        let (inputs, level) = (plan.input_paths.len(), plan.output_level);
        self.events
            .borrow()
            .record(self.sim.now(), "compaction.start", move || {
                format!("server={me} region={region} inputs={inputs} level={level}")
            });
        let service = self.cfg.base_service + cfg.merge_service_per_entry * total_entries.max(1);
        let this = Rc::clone(self);
        self.submit_background(service, move || this.run_compaction(region, plan));
    }

    /// Clears the in-flight flag so a failed attempt can be retried by a
    /// later check.
    fn abort_compaction(&self, region: RegionId) {
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.compaction_in_progress = false;
        }
    }

    /// The merge phase, running on a handler slot. The input set was
    /// chosen when the work was queued; it is re-validated here because
    /// flushes (or a region reopen) may have run in between.
    fn run_compaction(self: &Rc<Self>, region: RegionId, plan: PlannedCompaction) {
        if !self.alive.get() {
            return;
        }
        let merged = {
            let regions = self.regions.borrow();
            let Some(st) = regions.get(&region) else {
                return; // region moved away; nothing to clean up
            };
            let inputs: Vec<Rc<StoreFileData>> = st
                .storefiles
                .iter()
                .filter(|sf| plan.input_paths.iter().any(|p| p == sf.path()))
                .cloned()
                .collect();
            if inputs.len() != plan.input_paths.len() {
                drop(regions);
                self.abort_compaction(region);
                return;
            }
            // Tombstones may only be purged when this merge sees every
            // file of the region (nothing left for them to shadow) — and
            // even then, a recovery's log-suffix replay can park *older*
            // versions in the memstore, so a guard checks for those.
            let major = inputs.len() == st.storefiles.len() && st.flushing.is_none();
            let watermark = self
                .gc_watermark
                .borrow()
                .as_ref()
                .map(|source| source())
                .unwrap_or(GcWatermark::ZERO);
            let guard = |row: &[u8], col: &[u8], ts: Timestamp| -> bool {
                if ts == Timestamp::ZERO {
                    return false;
                }
                let below = Timestamp(ts.0 - 1);
                st.memstore.get(row, col, below).is_some()
                    || st
                        .flushing
                        .as_ref()
                        .and_then(|f| f.get(row, col, below))
                        .is_some()
            };
            // Output names draw from the same counter flushes use, one
            // per partition, in partition order — deterministic.
            let counter = &self.storefile_counter;
            let server_id = self.id;
            let path_for = |_: usize| {
                let n = counter.get();
                counter.set(n + 1);
                format!("/store/{region}/{:06}c-{}", n, server_id)
            };
            compaction::merge_store_files_partitioned(
                region,
                &path_for,
                &inputs,
                watermark,
                major,
                &guard,
                plan.max_output_bytes,
            )
        };
        self.compaction_stats
            .versions_dropped
            .add(merged.versions_dropped);

        // Everything was garbage (e.g. a fully deleted key range): no
        // output file to write, just retire the inputs.
        if merged.outputs.is_empty() {
            self.finish_compaction(region, plan.input_paths, Vec::new(), plan.output_level);
            return;
        }

        let outputs: Rc<Vec<Rc<StoreFileData>>> =
            Rc::new(merged.outputs.into_iter().map(Rc::new).collect());
        self.write_compaction_outputs(region, plan.input_paths, outputs, plan.output_level, 0);
    }

    /// Writes output partition `idx` to the filesystem under its temp
    /// name, then recurses to the next; once all are durable, the rename
    /// phase promotes them. A crash mid-way leaves only ignorable `.tmp-`
    /// files — the inputs still cover all data.
    fn write_compaction_outputs(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Rc<Vec<Rc<StoreFileData>>>,
        level: u32,
        idx: usize,
    ) {
        if !self.alive.get() {
            return;
        }
        if idx == outputs.len() {
            self.rename_compaction_outputs(region, input_paths, outputs, level, 0);
            return;
        }
        let data = Rc::clone(&outputs[idx]);
        let tmp = compaction::tmp_name(data.path());
        let weak = Rc::downgrade(self);
        let outputs2 = Rc::clone(&outputs);
        self.dfs.create(&tmp, move |file| {
            let Some(server) = weak.upgrade() else { return };
            let Ok(file) = file else {
                server.abort_compaction_cleanup(region, &outputs2, 0, idx + 1);
                return;
            };
            let encoded = data.encode();
            let weak = weak.clone();
            file.append(encoded, move |result| {
                let Some(server) = weak.upgrade() else { return };
                if !server.alive.get() {
                    return;
                }
                if result.is_err() {
                    // Filesystem unavailable: give up this attempt; the
                    // temp files are ignorable garbage by construction.
                    server.abort_compaction_cleanup(region, &outputs2, 0, idx + 1);
                    return;
                }
                server.write_compaction_outputs(region, input_paths, outputs2, level, idx + 1);
            });
        });
    }

    /// Promotes durable temp files into their final names one by one,
    /// registering each, then swaps the full output run in. If a rename
    /// fails, the already-promoted prefix stays behind as registered but
    /// unreferenced files — read-equivalent duplicates of the inputs
    /// (which are *not* retired on this path), exactly the crash window
    /// the recovery path already tolerates.
    fn rename_compaction_outputs(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Rc<Vec<Rc<StoreFileData>>>,
        level: u32,
        idx: usize,
    ) {
        if !self.alive.get() {
            return;
        }
        if idx == outputs.len() {
            let outputs = (*outputs).clone();
            self.finish_compaction(region, input_paths, outputs, level);
            return;
        }
        let data = Rc::clone(&outputs[idx]);
        let tmp = compaction::tmp_name(data.path());
        let final_path = data.path().to_owned();
        let weak = Rc::downgrade(self);
        let outputs2 = Rc::clone(&outputs);
        self.dfs.clone().rename(&tmp, &final_path, move |renamed| {
            let Some(server) = weak.upgrade() else { return };
            if !server.alive.get() {
                return;
            }
            if renamed.is_err() {
                server.abort_compaction_cleanup(region, &outputs2, idx, outputs2.len());
                return;
            }
            server.registry.insert(Rc::clone(&data));
            server.rename_compaction_outputs(region, input_paths, outputs2, level, idx + 1);
        });
    }

    /// Deletes the temp files of output partitions `[lo, hi)` (best
    /// effort) and clears the in-flight flag so a later check retries.
    fn abort_compaction_cleanup(
        &self,
        region: RegionId,
        outputs: &Rc<Vec<Rc<StoreFileData>>>,
        lo: usize,
        hi: usize,
    ) {
        for data in &outputs[lo..hi.min(outputs.len())] {
            self.dfs.delete(&compaction::tmp_name(data.path()));
        }
        self.abort_compaction(region);
    }

    /// Atomically swaps the merged output run in for its inputs,
    /// invalidates the region's cached blocks (compaction rewrote them),
    /// records the outputs' level, updates the metrics and retires the
    /// obsolete files from registry + filesystem.
    fn finish_compaction(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Vec<Rc<StoreFileData>>,
        level: u32,
    ) {
        let bytes: u64 = outputs.iter().map(|o| o.total_bytes() as u64).sum();
        let filter_created: u64 = outputs.iter().map(|o| o.filter_bytes() as u64).sum();
        let mut filter_dropped = 0u64;
        {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                // The region moved away mid-compaction. Leave the inputs
                // alone — the new host is reading them; the merged files
                // are harmless (read-equivalent) duplicates that a later
                // compaction there will fold in.
                return;
            };
            st.storefiles.retain(|sf| {
                let retired = input_paths.iter().any(|p| p == sf.path());
                if retired {
                    filter_dropped += sf.filter_bytes() as u64;
                }
                !retired
            });
            for p in &input_paths {
                st.file_levels.remove(p);
            }
            for output in outputs {
                if level > 0 {
                    st.file_levels.insert(output.path().to_owned(), level);
                }
                st.storefiles.push(output);
            }
            st.compaction_in_progress = false;
        }
        // The inputs' blocks died with them; drop the region's cached
        // rows so the cache refills from the merged file's blocks.
        self.cache.borrow_mut().evict_region(region);
        self.compaction_stats.completed.inc();
        self.compaction_stats.bytes_rewritten.add(bytes);
        self.compaction_stats
            .files_retired
            .add(input_paths.len() as u64);
        self.compaction_stats
            .filter_bytes_dropped
            .add(filter_dropped);
        self.compaction_stats
            .filter_bytes_created
            .add(filter_created);
        let (me, retired) = (self.id, input_paths.len());
        self.events
            .borrow()
            .record(self.sim.now(), "compaction.finish", move || {
                format!("server={me} region={region} retired={retired} bytes={bytes}")
            });
        self.update_file_metrics();
        // Compaction rewrote the file set; re-baseline backup lanes so a
        // promoted shadow resolves the merged files, not retired ones.
        self.ship_sync(region);
        // Fencing: retiring the inputs is the one destructive step, and a
        // server partitioned from the coordination service may already
        // have been failed over — the new host still reads these files.
        // Confirm our liveness znode exists before destroying anything; a
        // partitioned server's query never comes back (the network drops
        // it), so the files survive for the rightful host. If the fence
        // wrongly holds the files (znode raced away), they merely leak —
        // reads stay correct because the merged file is read-equivalent
        // to the inputs.
        let coord = self.coord.borrow().clone();
        match coord {
            Some(coord) => {
                let weak = Rc::downgrade(self);
                coord.get_data(&format!("/live/servers/{}", self.id), move |znode| {
                    let Some(server) = weak.upgrade() else { return };
                    if znode.is_some() && server.alive.get() {
                        server.retire_compacted_inputs(input_paths);
                    }
                });
            }
            // No coordination service (standalone server, unit tests):
            // there is no failover to fence against.
            None => self.retire_compacted_inputs(input_paths),
        }
    }

    fn retire_compacted_inputs(&self, input_paths: Vec<String>) {
        for path in input_paths {
            let data = self.registry.get(&path);
            self.registry.remove(&path);
            let backing = data
                .as_ref()
                .filter(|d| d.is_reference())
                .map(|d| d.backing_path().to_owned());
            match backing {
                // A split reference half-file: delete its marker file and
                // release the hold on the parent's physical file; when
                // the sibling daughter's reference is gone too, the
                // parent file itself finally dies — "the first major
                // compaction per daughter rewrites the references and
                // drops the parent files".
                Some(backing) => {
                    self.dfs.delete(&path);
                    if self.registry.release_backing_ref(&backing) {
                        self.registry.remove(&backing);
                        let stats = self.compaction_stats.clone();
                        self.dfs.delete_with_callback(&backing, move |existed| {
                            if existed {
                                stats.deletes_confirmed.inc();
                            }
                        });
                    }
                }
                None => {
                    let stats = self.compaction_stats.clone();
                    self.dfs.delete_with_callback(&path, move |existed| {
                        if existed {
                            stats.deletes_confirmed.inc();
                        }
                    });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Master-driven region moves (proactive load shedding)
    // ------------------------------------------------------------------

    /// Master RPC: close `region` so it can reopen on another server.
    /// The region goes offline immediately (requests get NotServing, as
    /// during a failover), its memstore is flushed, and once the file
    /// set is quiescent the state is dropped and `done(true)` reports
    /// back. Refuses (`done(false)`) when the region is mid-flight in
    /// any other operation; a crash mid-close simply never reports, and
    /// the master's failover of this server recovers the region — still
    /// assigned here — through the normal WAL path.
    pub fn prepare_move(self: &Rc<Self>, region: RegionId, done: Box<dyn FnOnce(bool)>) {
        if !self.alive.get() {
            return;
        }
        let ok = self.pending_move.borrow().is_none() && !self.cfg.replication.enabled && {
            let regions = self.regions.borrow();
            regions
                .get(&region)
                .map(|st| st.restructurable() && !st.compaction_in_progress)
                .unwrap_or(false)
        };
        if !ok {
            done(false);
            return;
        }
        {
            let mut regions = self.regions.borrow_mut();
            let st = regions.get_mut(&region).expect("checked above");
            st.online = false;
            // The structural-op flag keeps flush checks and compaction
            // candidacy away while this close drives the flush itself.
            st.restructuring = true;
        }
        *self.pending_move.borrow_mut() = Some(region);
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "move.close", move || {
                format!("server={me} region={region}")
            });
        self.advance_pending_move(region, done, 0);
    }

    /// Polls the moving region toward quiescence (fixed 200ms steps, no
    /// RNG): flush anything dirty, wait out in-flight flushes, then drop
    /// the state and acknowledge. Gives up (reopening the region in
    /// place) if the filesystem stays unavailable past the attempt cap.
    fn advance_pending_move(
        self: &Rc<Self>,
        region: RegionId,
        done: Box<dyn FnOnce(bool)>,
        attempts: u32,
    ) {
        const MAX_ATTEMPTS: u32 = 50;
        if !self.alive.get() {
            return;
        }
        let (gone, busy, dirty) = {
            let regions = self.regions.borrow();
            match regions.get(&region) {
                Some(st) => (false, !st.quiescent(), !st.memstore.is_empty()),
                None => (true, false, false),
            }
        };
        if gone {
            self.pending_move.borrow_mut().take();
            done(false);
            return;
        }
        if busy || dirty {
            if attempts >= MAX_ATTEMPTS {
                // Filesystem unavailable: abandon the move and resume
                // serving in place — the region lost availability for
                // the poll window, not its data.
                {
                    let mut regions = self.regions.borrow_mut();
                    if let Some(st) = regions.get_mut(&region) {
                        st.online = true;
                        st.restructuring = false;
                    }
                }
                self.pending_move.borrow_mut().take();
                done(false);
                return;
            }
            if dirty && !busy {
                self.flush_region(region);
            }
            let this = Rc::clone(self);
            self.sim
                .schedule_in(SimDuration::from_millis(200), move || {
                    this.advance_pending_move(region, done, attempts + 1)
                });
            return;
        }
        self.regions.borrow_mut().remove(&region);
        self.cache.borrow_mut().evict_region(region);
        self.region_load.remove(region.0 as u64);
        self.pending_move.borrow_mut().take();
        self.update_file_metrics();
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "move.closed", move || {
                format!("server={me} region={region}")
            });
        done(true);
    }

    /// Refreshes the gauges derived from the current file sets: the
    /// worst-case read amplification, the filter-metadata footprint and
    /// the per-level file/byte profile. (Order-independent reductions
    /// over the region map, so HashMap iteration order is harmless.)
    fn update_file_metrics(&self) {
        let regions = self.regions.borrow();
        let max_files = regions
            .values()
            .map(|st| st.storefiles.len() + usize::from(st.flushing.is_some()))
            .max()
            .unwrap_or(0);
        self.compaction_stats
            .read_amplification
            .set(max_files as u64);
        let filter_bytes: usize = regions
            .values()
            .flat_map(|st| st.flushing.iter().chain(st.storefiles.iter()))
            .map(|sf| sf.filter_bytes())
            .sum();
        self.filter_stats.filter_bytes.set(filter_bytes as u64);
        let mut level_files: Vec<u64> = Vec::new();
        let mut level_bytes: Vec<u64> = Vec::new();
        let mut bump = |level: usize, bytes: u64| {
            if level_files.len() <= level {
                level_files.resize(level + 1, 0);
                level_bytes.resize(level + 1, 0);
            }
            level_files[level] += 1;
            level_bytes[level] += bytes;
        };
        // lint:allow(CD001, reason = "order-independent reduction: bump() only adds into per-level counters, so the final gauge values do not depend on region visit order")
        for st in regions.values() {
            if let Some(fl) = &st.flushing {
                bump(0, fl.total_bytes() as u64);
            }
            for sf in &st.storefiles {
                bump(st.level_of(sf.path()) as usize, sf.total_bytes() as u64);
            }
        }
        self.compaction_stats.level_files.set_all(level_files);
        self.compaction_stats.level_bytes.set_all(level_bytes);
    }

    // ------------------------------------------------------------------
    // Primary/backup replication (see ARCHITECTURE.md, "Region
    // replication": ship protocol, epoch fencing, promotion vs replay)
    // ------------------------------------------------------------------

    /// Installs the master's replication coordination surface (cluster
    /// wiring; lane-drop reports are inert without it).
    pub fn set_replication_coordinator(&self, coord: Rc<dyn crate::hooks::ReplicationCoordinator>) {
        *self.repl_coord.borrow_mut() = Some(coord);
    }

    /// Replication observability: ship/ack/fence counters and the
    /// backlog/lag gauges (shared handles; clone freely).
    pub fn replication_stats(&self) -> &ReplicationStats {
        &self.repl_stats
    }

    /// Whether this server fenced itself out of `region` (a backup holds
    /// a newer replica-group epoch).
    pub fn region_fenced(&self, region: RegionId) -> bool {
        self.repl
            .borrow()
            .groups
            .get(&region)
            .map(|g| g.fenced)
            .unwrap_or(false)
    }

    /// Regions this server currently keeps a backup shadow for (sorted).
    pub fn shadow_regions(&self) -> Vec<RegionId> {
        let mut v: Vec<RegionId> = self.repl.borrow().shadows.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether the shadow for `region` is in sync with its primary.
    pub fn shadow_synced(&self, region: RegionId) -> bool {
        self.repl
            .borrow()
            .shadows
            .get(&region)
            .map(|s| s.synced)
            .unwrap_or(false)
    }

    /// Master RPC: (re)establishes the replica group this server leads
    /// for `region`. Every lane starts (or resets to) out of sync — the
    /// next full-state sync brings it in, and only from then on do
    /// client acks gate on it. Pending gates are released: no lane is in
    /// sync anymore, and the syncs that follow carry the full state the
    /// gated writes are part of.
    pub fn establish_replica_group(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backups: Vec<(ServerId, NodeId, Weak<RegionServer>)>,
    ) {
        if !self.alive.get() {
            return;
        }
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let group = repl.groups.entry(region).or_insert_with(|| ReplGroup {
                epoch,
                next_seq: 0,
                lanes: Vec::new(),
                gates: std::collections::BTreeMap::new(),
                fenced: false,
            });
            group.epoch = epoch;
            group.fenced = false;
            group.lanes = backups
                .into_iter()
                .map(|(backup, node, handle)| ReplLane {
                    backup,
                    handle,
                    node,
                    acked_seq: 0,
                    pending: std::collections::BTreeMap::new(),
                    backlog_bytes: 0,
                    synced: false,
                    drop_pending: false,
                    sync_seq: None,
                })
                .collect();
            group.lanes.sort_unstable_by_key(|l| l.backup);
            let mut finishes: Vec<Box<dyn FnOnce(Result<(), StoreError>)>> = Vec::new();
            let seqs: Vec<u64> = group.gates.keys().copied().collect();
            for seq in seqs {
                if let Some(gate) = group.gates.remove(&seq) {
                    if let Some(f) = gate.finish {
                        finishes.push(f);
                    }
                }
            }
            finishes
        };
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.establish", move || {
                format!("server={me} region={region} epoch={epoch}")
            });
        for f in finishes {
            f(Ok(()));
        }
        self.update_repl_gauges();
    }

    /// Master RPC: this server is (or stays) a backup for `region` under
    /// `epoch`. The shadow is created if missing and always marked out
    /// of sync — the primary's next full-state sync re-baselines it
    /// (sequence numbers from different primaries must never be mixed).
    pub fn open_shadow(&self, region: RegionId, desc: RegionDescriptor, epoch: u64) {
        if !self.alive.get() {
            return;
        }
        {
            let mut repl = self.repl.borrow_mut();
            let shadow = repl.shadows.entry(region).or_insert_with(|| ShadowRegion {
                desc: desc.clone(),
                epoch,
                next_seq: 0,
                memstore: MemStore::new(),
                storefile_paths: Vec::new(),
                synced: false,
                split_intent: None,
            });
            shadow.desc = desc;
            shadow.epoch = shadow.epoch.max(epoch);
            shadow.synced = false;
        }
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.shadow_open", move || {
                format!("server={me} region={region} epoch={epoch}")
            });
    }

    /// Master RPC: `region`'s shadow is obsolete (parent of an applied
    /// split, or this backup left the group).
    pub fn close_shadow(&self, region: RegionId, epoch: u64) {
        if !self.alive.get() {
            return;
        }
        let removed = {
            let mut repl = self.repl.borrow_mut();
            match repl.shadows.get(&region) {
                Some(s) if s.epoch <= epoch => repl.shadows.remove(&region).is_some(),
                _ => false,
            }
        };
        if removed {
            let me = self.id;
            self.events
                .borrow()
                .record(self.sim.now(), "replication.shadow_close", move || {
                    format!("server={me} region={region}")
                });
        }
    }

    /// Master RPC: a backup lane's server died; stop shipping and stop
    /// gating on it.
    pub fn drop_replica_lane(&self, region: RegionId, backup: ServerId) {
        if !self.alive.get() {
            return;
        }
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            group.lanes.retain(|l| l.backup != backup);
            for gate in group.gates.values_mut() {
                gate.waiting.retain(|b| *b != backup);
            }
            drain_ready_gates(group)
        };
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.drop_lane", move || {
                format!("server={me} region={region} backup={backup}")
            });
        for f in finishes {
            f(Ok(()));
        }
        self.update_repl_gauges();
    }

    /// Master RPC (promotion probe): reports this backup's view of
    /// `region` — shadow epoch, applied-through sequence and sync state.
    pub fn query_replica(&self, region: RegionId, reply: Box<dyn FnOnce(u64, u64, bool)>) {
        if !self.alive.get() {
            return;
        }
        let (epoch, seq, synced) = self
            .repl
            .borrow()
            .shadows
            .get(&region)
            .map(|s| (s.epoch, s.next_seq, s.synced))
            .unwrap_or((0, 0, false));
        reply(epoch, seq, synced);
    }

    /// Master RPC: this backup won the promotion for `region` after
    /// `failed`'s crash. The shadow converts into a hosted (offline)
    /// region; its inherited memstore is flushed (the shadow's data is
    /// durable only in the dead primary's WAL until then) and the
    /// regular recovery gating runs with `promoted = true` — the
    /// recovery manager replays only the transaction-log suffix above
    /// the persisted floor instead of waiting for a full WAL split.
    pub fn promote_replica(self: &Rc<Self>, region: RegionId, epoch: u64, failed: ServerId) {
        if !self.alive.get() {
            return;
        }
        let shadow = self.repl.borrow_mut().shadows.remove(&region);
        let Some(shadow) = shadow else {
            return;
        };
        let storefiles: Vec<Rc<StoreFileData>> = shadow
            .storefile_paths
            .iter()
            .filter(|p| !compaction::is_tmp_path(p))
            .filter_map(|p| self.registry.get(p))
            .collect();
        self.regions.borrow_mut().insert(
            region,
            RegionState::new(shadow.desc, shadow.memstore, storefiles),
        );
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.promote", move || {
                format!("server={me} region={region} epoch={epoch} failed={failed}")
            });
        self.update_file_metrics();
        self.flush_region(region);
        self.finish_region_open(region, Some(failed), true);
    }

    /// Ships one committed write-set portion to every in-sync backup
    /// lane. Returns the gate sequence to arm when at least one lane was
    /// shipped (the client ack must wait for those acks), `None` when
    /// the region is unreplicated or no lane is in sync.
    fn ship_to_replicas(
        self: &Rc<Self>,
        region: RegionId,
        ts: Timestamp,
        mutations: &[Mutation],
    ) -> Option<u64> {
        if self.repl.borrow().groups.is_empty() {
            return None;
        }
        let bytes: usize = 40
            + mutations
                .iter()
                .map(|m| {
                    m.row.len()
                        + m.column.len()
                        + match &m.kind {
                            crate::types::MutationKind::Put(v) => v.len(),
                            crate::types::MutationKind::Delete => 0,
                        }
                })
                .sum::<usize>();
        let mut laggards: Vec<ServerId> = Vec::new();
        let (seq, epoch, targets) = {
            let mut repl = self.repl.borrow_mut();
            let group = repl.groups.get_mut(&region)?;
            if group.fenced {
                return None;
            }
            let seq = group.next_seq;
            group.next_seq += 1;
            let epoch = group.epoch;
            let max_backlog = self.cfg.replication.max_backlog_bytes;
            let mut targets: Vec<(ServerId, NodeId, Rc<RegionServer>)> = Vec::new();
            for lane in group.lanes.iter_mut() {
                if !lane.synced || lane.drop_pending {
                    continue;
                }
                if lane.backlog_bytes + bytes > max_backlog {
                    laggards.push(lane.backup);
                    continue;
                }
                let Some(handle) = lane.handle.upgrade() else {
                    laggards.push(lane.backup);
                    continue;
                };
                lane.pending.insert(seq, bytes);
                lane.backlog_bytes += bytes;
                targets.push((lane.backup, lane.node, handle));
            }
            if targets.is_empty() {
                (seq, epoch, targets)
            } else {
                group.gates.insert(
                    seq,
                    ReplGate {
                        waiting: targets.iter().map(|(b, ..)| *b).collect(),
                        finish: None,
                    },
                );
                (seq, epoch, targets)
            }
        };
        for backup in laggards {
            self.begin_lane_drop(region, backup);
        }
        if targets.is_empty() {
            return None;
        }
        for (backup, node, handle) in targets {
            self.repl_stats.ships.inc();
            self.repl_stats.ship_bytes.add(bytes as u64);
            let me = self.id;
            self.trace
                .borrow()
                .record(self.sim.now(), "repl.ship", move || {
                    format!("server={me} region={region} seq={seq} backup={backup} bytes={bytes}")
                });
            let muts = mutations.to_vec();
            let reply = self.ack_reply(region, epoch, backup, node);
            self.net.send(self.node, node, bytes, move || {
                handle.apply_shipped(region, epoch, seq, ts, muts, reply);
            });
            self.schedule_ack_timeout(region, epoch, backup, seq);
        }
        self.update_repl_gauges();
        Some(seq)
    }

    /// Builds the reply closure a backup invokes to ack a ship: one
    /// network hop back to this primary.
    fn ack_reply(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        backup_node: NodeId,
    ) -> Box<dyn FnOnce(ReplAck)> {
        let this = Rc::clone(self);
        let net = Rc::clone(&self.net);
        Box::new(move |ack| {
            let node = this.node;
            net.send(backup_node, node, 40, move || {
                this.handle_repl_ack(region, epoch, backup, ack);
            });
        })
    }

    /// Declares the lane out of sync if `seq` is still unacked when the
    /// fixed timeout fires (a dead or partitioned backup must not hold
    /// client acks forever — but un-gating waits for the master's ack,
    /// see [`RegionServer::begin_lane_drop`]).
    fn schedule_ack_timeout(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        seq: u64,
    ) {
        let weak = Rc::downgrade(self);
        self.sim
            .schedule_in(self.cfg.replication.ack_timeout, move || {
                let Some(this) = weak.upgrade() else { return };
                if !this.alive.get() {
                    return;
                }
                let timed_out = {
                    let repl = this.repl.borrow();
                    repl.groups
                        .get(&region)
                        .filter(|g| g.epoch == epoch)
                        .and_then(|g| g.lanes.iter().find(|l| l.backup == backup))
                        .map(|l| l.synced && !l.drop_pending && l.pending.contains_key(&seq))
                        .unwrap_or(false)
                };
                if timed_out {
                    this.begin_lane_drop(region, backup);
                }
            });
    }

    /// Starts taking a lane out of sync: report it to the master and
    /// only release the lane's gates once the master acked. The report
    /// is the fencing point — the master now considers the backup
    /// ineligible for promotion, so acking clients without its coverage
    /// is sound. A primary partitioned from the master never receives
    /// the ack, never un-gates, and therefore never acks a write an
    /// eligible backup is missing.
    fn begin_lane_drop(self: &Rc<Self>, region: RegionId, backup: ServerId) {
        let epoch = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            let Some(lane) = group.lanes.iter_mut().find(|l| l.backup == backup) else {
                return;
            };
            if !lane.synced || lane.drop_pending {
                return;
            }
            lane.drop_pending = true;
            group.epoch
        };
        self.repl_stats.lane_drops.inc();
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.lane_unsynced", move || {
                format!("server={me} region={region} backup={backup}")
            });
        self.report_lane_unsynced(region, epoch, backup);
    }

    /// Sends (and re-sends on a fixed period until the master's ack
    /// lands) the ineligibility report for an out-of-sync lane.
    fn report_lane_unsynced(self: &Rc<Self>, region: RegionId, epoch: u64, backup: ServerId) {
        const REPORT_RETRY: SimDuration = SimDuration::from_millis(400);
        let Some(coord) = self.repl_coord.borrow().clone() else {
            // No master wiring (unit tests): release locally.
            self.finish_lane_drop(region, epoch, backup, false);
            return;
        };
        let still_pending = {
            let repl = self.repl.borrow();
            repl.groups
                .get(&region)
                .filter(|g| g.epoch == epoch)
                .and_then(|g| g.lanes.iter().find(|l| l.backup == backup))
                .map(|l| l.drop_pending)
                .unwrap_or(false)
        };
        if !still_pending {
            return;
        }
        let master_node = coord.node();
        let done: Box<dyn FnOnce(bool)> = {
            let this = Rc::clone(self);
            let net = Rc::clone(&self.net);
            Box::new(move |stale| {
                let node = this.node;
                net.send(master_node, node, 32, move || {
                    this.finish_lane_drop(region, epoch, backup, stale);
                });
            })
        };
        self.net.send(self.node, master_node, 64, move || {
            coord.replica_unsynced(region, epoch, backup, done);
        });
        let weak = Rc::downgrade(self);
        self.sim.schedule_in(REPORT_RETRY, move || {
            if let Some(this) = weak.upgrade() {
                if this.alive.get() {
                    this.report_lane_unsynced(region, epoch, backup);
                }
            }
        });
    }

    /// The master answered the ineligibility report. Normally the lane
    /// leaves the gating set and its held gates release; a `stale`
    /// answer means this server is a fenced-out ex-primary — fence the
    /// whole group instead of un-gating (its held acks must fail, never
    /// succeed).
    fn finish_lane_drop(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        stale: bool,
    ) {
        if !self.alive.get() {
            return;
        }
        if stale {
            let matches = self
                .repl
                .borrow()
                .groups
                .get(&region)
                .map(|g| g.epoch == epoch)
                .unwrap_or(false);
            if matches {
                self.fence_group(region, epoch + 1);
            }
            return;
        }
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            if group.epoch != epoch {
                return;
            }
            let Some(lane) = group.lanes.iter_mut().find(|l| l.backup == backup) else {
                return;
            };
            if !lane.drop_pending {
                return;
            }
            lane.drop_pending = false;
            lane.synced = false;
            lane.sync_seq = None;
            lane.pending.clear();
            lane.backlog_bytes = 0;
            for gate in group.gates.values_mut() {
                gate.waiting.retain(|b| *b != backup);
            }
            drain_ready_gates(group)
        };
        for f in finishes {
            f(Ok(()));
        }
        self.update_repl_gauges();
    }

    /// Attaches the completion of a gated client ack to its gate (the
    /// gate was registered by [`RegionServer::ship_to_replicas`] in the
    /// same event, so it still exists unless the group was fenced or
    /// re-established in between).
    fn arm_gate(
        self: &Rc<Self>,
        region: RegionId,
        seq: u64,
        finish: Box<dyn FnOnce(Result<(), StoreError>)>,
    ) {
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                finish(Ok(()));
                return;
            };
            if group.fenced {
                finish(Err(StoreError::WrongRegion(region)));
                return;
            }
            match group.gates.get_mut(&seq) {
                Some(gate) => gate.finish = Some(finish),
                None => {
                    finish(Ok(()));
                    return;
                }
            }
            drain_ready_gates(group)
        };
        for f in finishes {
            f(Ok(()));
        }
    }

    /// Primary side: a backup's reply to a shipped record or sync.
    fn handle_repl_ack(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        ack: ReplAck,
    ) {
        if !self.alive.get() {
            return;
        }
        match ack {
            ReplAck::Applied(seq) => {
                self.repl_stats.acks.inc();
                let (finishes, resynced) = {
                    let mut repl = self.repl.borrow_mut();
                    let Some(group) = repl.groups.get_mut(&region) else {
                        return;
                    };
                    if group.epoch != epoch {
                        return;
                    }
                    let Some(lane) = group.lanes.iter_mut().find(|l| l.backup == backup) else {
                        return;
                    };
                    let mut resynced = false;
                    if lane.sync_seq == Some(seq) {
                        lane.sync_seq = None;
                        if !lane.synced && !lane.drop_pending {
                            lane.synced = true;
                            resynced = true;
                        }
                    }
                    if seq > lane.acked_seq || lane.acked_seq == 0 {
                        lane.acked_seq = seq;
                    }
                    let acked: Vec<u64> = lane.pending.range(..=seq).map(|(s, _)| *s).collect();
                    for s in acked {
                        if let Some(b) = lane.pending.remove(&s) {
                            lane.backlog_bytes = lane.backlog_bytes.saturating_sub(b);
                        }
                    }
                    for (s, gate) in group.gates.range_mut(..=seq) {
                        let _ = s;
                        gate.waiting.retain(|b| *b != backup);
                    }
                    (drain_ready_gates(group), resynced)
                };
                for f in finishes {
                    f(Ok(()));
                }
                if resynced {
                    let me = self.id;
                    self.events.borrow().record(
                        self.sim.now(),
                        "replication.lane_resynced",
                        move || format!("server={me} region={region} backup={backup}"),
                    );
                    if let Some(coord) = self.repl_coord.borrow().clone() {
                        let node = self.node;
                        self.net.send(node, coord.node(), 48, move || {
                            coord.replica_synced(region, epoch, backup);
                        });
                    }
                }
                self.update_repl_gauges();
            }
            ReplAck::Gap(_) => {
                self.repl_stats.nacks.inc();
                self.begin_lane_drop(region, backup);
            }
            ReplAck::Stale(newer) => {
                self.repl_stats.nacks.inc();
                self.fence_group(region, newer);
            }
        }
    }

    /// A backup holds a newer epoch than this server's group: a
    /// promotion happened behind a partition and this server is a stale
    /// primary. Fence: the region goes offline (clients get
    /// `WrongRegion` and refresh their maps toward the new primary) and
    /// every gated-but-unacked write fails — it was never acknowledged,
    /// so failing it loses nothing the client could rely on.
    fn fence_group(self: &Rc<Self>, region: RegionId, newer_epoch: u64) {
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            // A fence directive names the epoch that supersedes this
            // group; one that does not (a reply delayed across a
            // re-establish) is itself stale and must be ignored.
            if group.fenced || group.epoch >= newer_epoch {
                return;
            }
            group.fenced = true;
            let mut finishes: Vec<Box<dyn FnOnce(Result<(), StoreError>)>> = Vec::new();
            let seqs: Vec<u64> = group.gates.keys().copied().collect();
            for seq in seqs {
                if let Some(gate) = group.gates.remove(&seq) {
                    if let Some(f) = gate.finish {
                        finishes.push(f);
                    }
                }
            }
            for lane in group.lanes.iter_mut() {
                lane.pending.clear();
                lane.backlog_bytes = 0;
                lane.synced = false;
            }
            finishes
        };
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.online = false;
        }
        self.repl_stats.fenced.inc();
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.fenced", move || {
                format!("server={me} region={region} newer_epoch={newer_epoch}")
            });
        for f in finishes {
            f(Err(StoreError::WrongRegion(region)));
        }
        self.update_repl_gauges();
    }

    /// Backup side: applies one shipped write-set portion to the shadow.
    pub fn apply_shipped(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        seq: u64,
        ts: Timestamp,
        mutations: Vec<Mutation>,
        reply: Box<dyn FnOnce(ReplAck)>,
    ) {
        if !self.alive.get() {
            return;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            reply(stale);
            return;
        }
        let ack = {
            let mut repl = self.repl.borrow_mut();
            match repl.shadows.get_mut(&region) {
                None => ReplAck::Gap(seq),
                Some(shadow) if epoch < shadow.epoch => ReplAck::Stale(shadow.epoch),
                Some(shadow) if !shadow.synced || seq != shadow.next_seq => {
                    shadow.synced = false;
                    ReplAck::Gap(seq)
                }
                Some(shadow) => {
                    for m in &mutations {
                        shadow.memstore.apply_mutation(
                            m.row.clone(),
                            m.column.clone(),
                            ts,
                            &m.kind,
                        );
                    }
                    shadow.next_seq = seq + 1;
                    ReplAck::Applied(seq)
                }
            }
        };
        self.note_backup_ack(region, &ack);
        reply(ack);
    }

    /// Backup side: applies a full-state sync, re-baselining the shadow
    /// (this is what brings an out-of-sync lane back in).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_sync(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        seq: u64,
        desc: RegionDescriptor,
        paths: Vec<String>,
        snapshot: MemstoreSnapshot,
        reply: Box<dyn FnOnce(ReplAck)>,
    ) {
        if !self.alive.get() {
            return;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            reply(stale);
            return;
        }
        let ack = {
            let mut repl = self.repl.borrow_mut();
            let shadow = repl.shadows.entry(region).or_insert_with(|| ShadowRegion {
                desc: desc.clone(),
                epoch,
                next_seq: 0,
                memstore: MemStore::new(),
                storefile_paths: Vec::new(),
                synced: false,
                split_intent: None,
            });
            if epoch < shadow.epoch {
                ReplAck::Stale(shadow.epoch)
            } else {
                shadow.desc = desc;
                shadow.epoch = epoch;
                let mut ms = MemStore::new();
                for (row, col, ts, value) in snapshot {
                    ms.apply(row, col, ts, value);
                }
                shadow.memstore = ms;
                shadow.storefile_paths = paths;
                shadow.next_seq = seq + 1;
                shadow.synced = true;
                shadow.split_intent = None;
                ReplAck::Applied(seq)
            }
        };
        self.note_backup_ack(region, &ack);
        reply(ack);
    }

    /// Backup side: the primary is executing a split of `region`.
    pub fn apply_split_intent(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        seq: u64,
        bottom: RegionId,
        top: RegionId,
        reply: Box<dyn FnOnce(ReplAck)>,
    ) {
        if !self.alive.get() {
            return;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            reply(stale);
            return;
        }
        let ack = {
            let mut repl = self.repl.borrow_mut();
            match repl.shadows.get_mut(&region) {
                None => ReplAck::Gap(seq),
                Some(shadow) if epoch < shadow.epoch => ReplAck::Stale(shadow.epoch),
                Some(shadow) if !shadow.synced || seq != shadow.next_seq => {
                    shadow.synced = false;
                    ReplAck::Gap(seq)
                }
                Some(shadow) => {
                    shadow.split_intent = Some((bottom, top));
                    shadow.next_seq = seq + 1;
                    ReplAck::Applied(seq)
                }
            }
        };
        if matches!(ack, ReplAck::Applied(_)) {
            let me = self.id;
            self.events
                .borrow()
                .record(self.sim.now(), "replication.split_intent", move || {
                    format!("server={me} region={region} bottom={bottom} top={top}")
                });
        }
        self.note_backup_ack(region, &ack);
        reply(ack);
    }

    /// Peer side of the idle-lane epoch probe: replies `Stale` only when
    /// the probing server's epoch is superseded here — this server hosts
    /// `region` as primary, or holds a shadow under a newer epoch.
    /// Silence is the healthy answer; the probe repeats on the next
    /// re-sync tick. This is how a quiesced stale primary (nothing in
    /// flight when a partition cut it off, so no ack timeout ever fired)
    /// discovers a promotion it slept through and fences itself.
    pub fn probe_epoch(&self, region: RegionId, epoch: u64, reply: Box<dyn FnOnce(ReplAck)>) {
        if !self.alive.get() {
            return;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            reply(stale);
            return;
        }
        let newer = self
            .repl
            .borrow()
            .shadows
            .get(&region)
            .map(|s| s.epoch)
            .filter(|e| *e > epoch);
        if let Some(newer) = newer {
            let ack = ReplAck::Stale(newer);
            self.note_backup_ack(region, &ack);
            reply(ack);
        }
    }

    /// A ship addressed to a region this server now hosts as *primary*
    /// can only come from a stale ex-primary: fence it with this group's
    /// epoch (or one past the sender's, if the group is not established
    /// yet).
    fn fence_check(&self, region: RegionId, epoch: u64) -> Option<ReplAck> {
        if !self.regions.borrow().contains_key(&region) {
            return None;
        }
        let newer = self
            .repl
            .borrow()
            .groups
            .get(&region)
            .map(|g| g.epoch)
            .unwrap_or(epoch + 1)
            .max(epoch + 1);
        self.repl_stats.fences.inc();
        let me = self.id;
        self.events
            .borrow()
            .record(self.sim.now(), "replication.fence", move || {
                format!("server={me} region={region} stale_epoch={epoch} newer={newer}")
            });
        Some(ReplAck::Stale(newer))
    }

    /// Counts backup-side outcomes (fence events are recorded at the
    /// rejection site).
    fn note_backup_ack(&self, region: RegionId, ack: &ReplAck) {
        match ack {
            ReplAck::Applied(_) => self.repl_stats.applied.inc(),
            ReplAck::Gap(_) => {}
            ReplAck::Stale(_) => {
                self.repl_stats.fences.inc();
                let me = self.id;
                self.events
                    .borrow()
                    .record(self.sim.now(), "replication.fence", move || {
                        format!("server={me} region={region}")
                    });
            }
        }
    }

    /// Ships a full-state sync for `region` to backup lanes: every lane
    /// when `only_unsynced` is false (flush/compaction/split re-baseline),
    /// out-of-sync lanes only on the re-sync timer. Skipped while a
    /// flush snapshot is in flight — its data is in neither the memstore
    /// nor the durable file set yet; the flush completion re-ships.
    fn ship_sync_inner(self: &Rc<Self>, region: RegionId, only_unsynced: bool) {
        if !self.alive.get() {
            return;
        }
        let (desc, paths, snapshot) = {
            let regions = self.regions.borrow();
            let Some(st) = regions.get(&region) else {
                return;
            };
            if st.flush_busy() {
                return;
            }
            let snapshot: MemstoreSnapshot = st
                .memstore
                .iter()
                .map(|(r, c, ts, v)| (r.clone(), c.clone(), ts, v.clone()))
                .collect();
            (
                st.desc.clone(),
                st.storefiles
                    .iter()
                    .map(|sf| sf.path().to_owned())
                    .collect::<Vec<String>>(),
                snapshot,
            )
        };
        let bytes: usize = 96
            + paths.iter().map(|p| p.len()).sum::<usize>()
            + snapshot
                .iter()
                .map(|(r, c, _, v)| r.len() + c.len() + v.as_ref().map(|v| v.len()).unwrap_or(0))
                .sum::<usize>();
        let targets = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            if group.fenced {
                return;
            }
            let epoch = group.epoch;
            let mut targets: Vec<(u64, u64, ServerId, NodeId, Rc<RegionServer>)> = Vec::new();
            for lane in group.lanes.iter_mut() {
                if lane.drop_pending || (only_unsynced && lane.synced) {
                    continue;
                }
                // One un-acked sync at a time per out-of-sync lane; the
                // next timer tick retries.
                if !lane.synced && lane.sync_seq.is_some() {
                    continue;
                }
                let Some(handle) = lane.handle.upgrade() else {
                    continue;
                };
                let seq = group.next_seq;
                group.next_seq += 1;
                lane.sync_seq = Some(seq);
                if lane.synced {
                    lane.pending.insert(seq, bytes);
                    lane.backlog_bytes += bytes;
                }
                targets.push((seq, epoch, lane.backup, lane.node, handle));
            }
            targets
        };
        for (seq, epoch, backup, node, handle) in targets {
            self.repl_stats.syncs.inc();
            self.repl_stats.ship_bytes.add(bytes as u64);
            let me = self.id;
            self.events
                .borrow()
                .record(self.sim.now(), "replication.sync", move || {
                    format!("server={me} region={region} seq={seq} backup={backup} bytes={bytes}")
                });
            let desc = desc.clone();
            let paths = paths.clone();
            let snapshot = snapshot.clone();
            let reply = self.ack_reply(region, epoch, backup, node);
            self.net.send(self.node, node, bytes, move || {
                handle.apply_sync(region, epoch, seq, desc, paths, snapshot, reply);
            });
            self.schedule_ack_timeout(region, epoch, backup, seq);
        }
        self.update_repl_gauges();
    }

    /// Full-state sync to every lane of `region` (no-op when the region
    /// is unreplicated).
    fn ship_sync(self: &Rc<Self>, region: RegionId) {
        if self.repl.borrow().groups.contains_key(&region) {
            self.ship_sync_inner(region, false);
        }
    }

    /// The re-sync timer tick: bring out-of-sync lanes back via
    /// full-state syncs (regions in sorted order for determinism), and
    /// epoch-probe idle in-sync lanes — a primary with nothing in flight
    /// would otherwise never learn it was superseded behind a partition.
    fn check_resyncs(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let (mut due, mut probes) = {
            let repl = self.repl.borrow();
            let due: Vec<RegionId> = repl
                .groups
                .iter()
                .filter(|(_, g)| {
                    !g.fenced
                        && g.lanes
                            .iter()
                            .any(|l| !l.synced && !l.drop_pending && l.sync_seq.is_none())
                })
                .map(|(r, _)| *r)
                .collect();
            let mut probes: Vec<(RegionId, u64, ServerId, NodeId, Rc<RegionServer>)> = Vec::new();
            // lint:allow(CD001, reason = "probes are only collected here; they are sorted by (region, backup) below before any send, so hash order never reaches the network")
            for (&region, group) in repl.groups.iter() {
                if group.fenced {
                    continue;
                }
                for lane in group.lanes.iter() {
                    if lane.synced
                        && !lane.drop_pending
                        && lane.pending.is_empty()
                        && lane.sync_seq.is_none()
                    {
                        if let Some(handle) = lane.handle.upgrade() {
                            probes.push((region, group.epoch, lane.backup, lane.node, handle));
                        }
                    }
                }
            }
            (due, probes)
        };
        due.sort_unstable();
        for region in due {
            self.ship_sync_inner(region, true);
        }
        probes.sort_unstable_by_key(|(region, _, backup, ..)| (*region, *backup));
        for (region, epoch, backup, node, handle) in probes {
            let reply = self.ack_reply(region, epoch, backup, node);
            self.net.send(self.node, node, 24, move || {
                handle.probe_epoch(region, epoch, reply);
            });
        }
    }

    /// Ships the split-intent notification to in-sync lanes (stream
    /// element, same contiguity rules as data ships).
    fn ship_split_intent(self: &Rc<Self>, parent: RegionId, bottom: RegionId, top: RegionId) {
        let targets = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&parent) else {
                return;
            };
            if group.fenced {
                return;
            }
            let epoch = group.epoch;
            let mut targets: Vec<(u64, u64, ServerId, NodeId, Rc<RegionServer>)> = Vec::new();
            for lane in group.lanes.iter_mut() {
                if !lane.synced || lane.drop_pending {
                    continue;
                }
                let Some(handle) = lane.handle.upgrade() else {
                    continue;
                };
                let seq = group.next_seq;
                group.next_seq += 1;
                lane.pending.insert(seq, 48);
                lane.backlog_bytes += 48;
                targets.push((seq, epoch, lane.backup, lane.node, handle));
            }
            targets
        };
        for (seq, epoch, backup, node, handle) in targets {
            self.repl_stats.ships.inc();
            let reply = self.ack_reply(parent, epoch, backup, node);
            self.net.send(self.node, node, 48, move || {
                handle.apply_split_intent(parent, epoch, seq, bottom, top, reply);
            });
            self.schedule_ack_timeout(parent, epoch, backup, seq);
        }
    }

    /// Moves the parent's replica group to the split daughters at the
    /// flip: daughters inherit the lanes (out of sync until the
    /// immediate full-state syncs ack), the parent's shadows close, and
    /// any write still gated on the parent fails with `WrongRegion` —
    /// the retry is idempotent by `(row, version)` and re-routes to a
    /// daughter after a map refresh.
    fn split_replica_groups(self: &Rc<Self>, parent: RegionId, bottom: RegionId, top: RegionId) {
        let (finishes, lanes) = {
            let mut repl = self.repl.borrow_mut();
            let Some(mut group) = repl.groups.remove(&parent) else {
                return;
            };
            let mut finishes: Vec<Box<dyn FnOnce(Result<(), StoreError>)>> = Vec::new();
            let seqs: Vec<u64> = group.gates.keys().copied().collect();
            for seq in seqs {
                if let Some(gate) = group.gates.remove(&seq) {
                    if let Some(f) = gate.finish {
                        finishes.push(f);
                    }
                }
            }
            let lanes: Vec<(ServerId, NodeId, Weak<RegionServer>)> = group
                .lanes
                .iter()
                .map(|l| (l.backup, l.node, l.handle.clone()))
                .collect();
            for daughter in [bottom, top] {
                repl.groups.insert(
                    daughter,
                    ReplGroup {
                        epoch: group.epoch,
                        next_seq: 0,
                        lanes: lanes
                            .iter()
                            .map(|(backup, node, handle)| ReplLane {
                                backup: *backup,
                                handle: handle.clone(),
                                node: *node,
                                acked_seq: 0,
                                pending: std::collections::BTreeMap::new(),
                                backlog_bytes: 0,
                                synced: false,
                                drop_pending: false,
                                sync_seq: None,
                            })
                            .collect(),
                        gates: std::collections::BTreeMap::new(),
                        fenced: false,
                    },
                );
            }
            (finishes, (group.epoch, lanes))
        };
        for f in finishes {
            f(Err(StoreError::WrongRegion(parent)));
        }
        let (epoch, lanes) = lanes;
        for (_, node, handle) in &lanes {
            let Some(handle) = handle.upgrade() else {
                continue;
            };
            let node = *node;
            self.net.send(self.node, node, 48, move || {
                handle.close_shadow(parent, epoch);
            });
        }
        self.ship_sync_inner(bottom, false);
        self.ship_sync_inner(top, false);
        self.update_repl_gauges();
    }

    /// Refreshes the replication gauges: total unacked backlog bytes and
    /// the worst shipped-minus-acked distance across in-sync lanes.
    fn update_repl_gauges(&self) {
        let repl = self.repl.borrow();
        let mut backlog = 0u64;
        let mut lag = 0u64;
        // lint:allow(CD001, reason = "order-independent reduction: a sum and a max over all lanes, both commutative")
        for group in repl.groups.values() {
            for lane in &group.lanes {
                backlog += lane.backlog_bytes as u64;
                if lane.synced {
                    let lane_lag = lane.pending.len() as u64;
                    lag = lag.max(lane_lag);
                }
            }
        }
        self.repl_stats.backlog_bytes.set(backlog);
        self.repl_stats.lag.set(lag);
    }

    /// Approximate bytes buffered in `region`'s memstore.
    pub fn memstore_bytes(&self, region: RegionId) -> usize {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.memstore.approx_bytes())
            .unwrap_or(0)
    }

    /// Number of store files backing `region` on this server.
    pub fn storefile_count(&self, region: RegionId) -> usize {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.storefiles.len())
            .unwrap_or(0)
    }

    /// Directly injects a store file into a hosted region (bulk load).
    /// Used by the workload loader; the file must already be registered.
    pub fn attach_storefile(&self, region: RegionId, data: Rc<StoreFileData>) {
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.storefiles.push(data);
        }
        self.update_file_metrics();
    }

    /// Pre-warms the block cache with the given rows (the paper warms the
    /// cache before measuring, §4.1).
    pub fn warm_cache(&self, region: RegionId, rows: impl IntoIterator<Item = Bytes>) {
        let mut cache = self.cache.borrow_mut();
        for row in rows {
            cache.insert(region, row);
        }
    }
}

//! The master: region assignment, server-failure detection via the
//! coordination service, WAL splitting and region reassignment.

use crate::codec::WalRecord;
use crate::hooks::{NoopHooks, RecoveryHooks};
use crate::region::{ChangeKind, RegionDescriptor, RegionMap, StructureChange};
use crate::server::RegionServer;
use crate::sstable::{StoreFileData, StoreFileRegistry};
use crate::types::{Mutation, RegionId, ServerId};
use crate::wal::split_wal;
use bytes::Bytes;
use cumulo_coord::CoordClient;
use cumulo_dfs::DfsClient;
use cumulo_sim::metrics::{Counter, MetricsRegistry};
use cumulo_sim::{every, Network, NodeId, Reply, Sim, SimDuration, TimerHandle};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::rc::{Rc, Weak};

/// Each already-assigned region charges a nominal placement cost on top
/// of its server's measured service load: service loads only move when
/// traffic does, so without this a whole failed server's region set
/// would dogpile onto whichever target momentarily reads least loaded —
/// consecutive placements must see their own weight. (Shared by failover
/// placement and the proactive move checker, which must agree on what
/// "load" means.)
const ASSIGNED_REGION_COST_NS: u64 = 50_000_000;

/// Registry resolving [`ServerId`]s to live process handles, shared by the
/// master and the store clients (it plays the role of connection strings /
/// RPC stubs in a real deployment).
#[derive(Default)]
pub struct ServerDirectory {
    servers: RefCell<BTreeMap<ServerId, Rc<RegionServer>>>,
}

impl fmt::Debug for ServerDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerDirectory")
            .field("servers", &self.servers.borrow().len())
            .finish()
    }
}

impl ServerDirectory {
    /// Creates an empty directory.
    pub fn new() -> Rc<ServerDirectory> {
        Rc::new(ServerDirectory::default())
    }

    /// Registers a server.
    pub fn register(&self, server: Rc<RegionServer>) {
        self.servers.borrow_mut().insert(server.id(), server);
    }

    /// Resolves a server handle.
    pub fn get(&self, id: ServerId) -> Option<Rc<RegionServer>> {
        self.servers.borrow().get(&id).cloned()
    }

    /// All registered server ids, in order.
    pub fn ids(&self) -> Vec<ServerId> {
        self.servers.borrow().keys().copied().collect()
    }

    /// Ids of servers whose process is currently alive.
    pub fn live_ids(&self) -> Vec<ServerId> {
        self.servers
            .borrow()
            .iter()
            .filter(|(_, s)| s.is_alive())
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Retry period for regions that could not be placed (no live server).
const ASSIGN_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// How long a promotion probe waits for the backups' answers before it
/// concludes on those it has: long against a LAN round trip, short
/// against the WAL split it runs beside, so a dead or partitioned backup
/// costs the failover nothing (fixed delay, no RNG).
const PROBE_DEADLINE: SimDuration = SimDuration::from_millis(500);

/// Master tuning knobs.
#[derive(Copy, Clone, Debug, Default)]
pub struct MasterConfig {
    /// Proactive hot-region move knobs.
    pub moves: MoveConfig,
}

/// Proactive hot-region move tuning knobs. Moves reuse the load-aware
/// placement signal: when one server's load dwarfs the least-loaded
/// server's, its hottest region is closed there and reopened on the cold
/// server — the proactive mirror of what failover placement already does
/// reactively for a dead server's regions.
#[derive(Copy, Clone, Debug)]
pub struct MoveConfig {
    /// Master switch. Off by default: moves add master RPCs, flushes and
    /// map epochs, so calibrated experiments that predate them must not
    /// shift. The scale campaign enables them.
    pub enabled: bool,
    /// How often server loads are compared. The timer runs at a fixed
    /// phase — no RNG jitter (see the split timer note in `server.rs`).
    pub check_interval: SimDuration,
    /// A move is considered only when the most loaded server's placement
    /// load exceeds the least loaded server's by this factor.
    pub load_ratio: f64,
}

impl Default for MoveConfig {
    fn default() -> Self {
        MoveConfig {
            enabled: false,
            check_interval: SimDuration::from_secs(5),
            load_ratio: 4.0,
        }
    }
}

/// The master's bookkeeping for one kind of structure change (kept once
/// for splits and once for merges, like the servers' `StructureStats`).
struct IntentCounters {
    /// Intents made durable in the filesystem.
    persisted: Counter,
    /// Changes applied to the region map.
    applied: Counter,
    /// Intents rolled back (server failed mid-change, marker writes
    /// failed, or the server no longer recognized the intent).
    rolled_back: Counter,
}

impl IntentCounters {
    /// The counters for `kind`, registered under `master.{split,merge}.*`.
    fn new(metrics: &MetricsRegistry, kind: ChangeKind) -> Self {
        let c = |field: &str| metrics.counter(&format!("master.{}.{field}", kind.name()), &[]);
        IntentCounters {
            persisted: c("intents_persisted"),
            applied: c("applied"),
            rolled_back: c("rolled_back"),
        }
    }
}

/// Per-region state of an in-flight failover of a *replicated* region:
/// the promotion probe and the WAL-split records race, and the region is
/// resolved once both the probe concluded and (on fallback) the records
/// arrived.
struct PendingRecovery {
    failed: ServerId,
    /// Recovered WAL records, once `split_wal` delivered them (discarded
    /// when the region was promoted — every acknowledged write is already
    /// present at the promoted replica, and the recovery manager replays
    /// the transaction-log suffix on top).
    records: Option<Vec<WalRecord>>,
    probe_done: bool,
    promoted: bool,
    /// Probe replies collected so far: (backup, shadow epoch, synced).
    replies: Vec<(ServerId, u64, bool)>,
    expected: usize,
}

/// The cluster master. Shared via `Rc`.
pub struct Master {
    sim: Sim,
    net: Rc<Network>,
    node: NodeId,
    cfg: MasterConfig,
    dfs: DfsClient,
    dir: Rc<ServerDirectory>,
    region_map: RefCell<RegionMap>,
    hooks: RefCell<Rc<dyn RecoveryHooks>>,
    handled_failures: RefCell<HashSet<ServerId>>,
    /// Regions awaiting placement (no live server was available, or
    /// their split WAL records could not be written), with those records
    /// and their failed-server attribution.
    unplaced: RefCell<Vec<(RegionId, Vec<WalRecord>, Option<ServerId>)>>,
    /// Store files written by WAL splits so far (names them).
    split_files: Cell<u64>,
    failovers: Counter,
    /// WAL batches a split could not decode although later batches
    /// follow them — acknowledged writes the log no longer holds.
    wal_split_corrupt_batches: Counter,
    /// The next region id to hand out to a split daughter (ids are never
    /// reused, so a cached id always means the same key range).
    next_region_id: Cell<u32>,
    /// Structure-change intents granted but not yet completed, keyed by
    /// their first input (a split's parent, a merge's left region). The
    /// master's authoritative in-flight set; the DFS record at
    /// [`StructureChange::intent_path`] mirrors it for a real
    /// deployment's master restart.
    intents: RefCell<BTreeMap<RegionId, StructureChange>>,
    split_counters: IntentCounters,
    merge_counters: IntentCounters,
    /// The one in-flight proactive move, if any: (region, donor, target).
    /// One at a time — moves are a background rebalance, not a bulk
    /// migration, and serializing them keeps the load signal honest
    /// (each move sees the previous one's effect).
    pending_move: RefCell<Option<(RegionId, ServerId, ServerId)>>,
    moves_started: Counter,
    moves_completed: Counter,
    moves_refused: Counter,
    /// Placement target-selection work performed: one unit per live
    /// server examined (the assigned-region counts are indexed, so no
    /// placement scans the assignments map). Emitted in `BENCH_scale.json`.
    placement_cost: Counter,
    /// The shared store-file registry: a WAL split's output enters it
    /// once durable, and intent rollback purges a crashed split's
    /// orphaned reference registrations through it so backing-ref
    /// counts cannot leak.
    registry: Rc<StoreFileRegistry>,
    timers: RefCell<Vec<TimerHandle>>,
    self_weak: RefCell<Weak<Master>>,
    /// Copies of each region hosted on `replication_factor - 1` backup
    /// servers; 1 (the default) disables replication entirely — no
    /// replica bookkeeping, no extra messages, byte-identical schedules.
    replication_factor: Cell<usize>,
    /// Replica-group epoch last established per region (a probe reply
    /// claiming sync under any other epoch is not trusted).
    repl_epochs: RefCell<HashMap<RegionId, u64>>,
    /// Lanes that may not win a promotion, keyed `(region, epoch,
    /// backup)`. The value is how the lane got here. `false`: established
    /// and not yet confirmed in sync by its primary — a shadow's own word
    /// is not enough, it cannot know what the primary served while the
    /// sync that re-baselined it was in flight. `true`: reported out of
    /// sync by its primary; recording this *before* acking the report is
    /// what lets the primary release its write gates soundly.
    repl_ineligible: RefCell<HashMap<(RegionId, u64, ServerId), bool>>,
    /// Failovers of replicated regions resolved in flight.
    pending_recoveries: RefCell<HashMap<RegionId, PendingRecovery>>,
    repl_promotions: Counter,
    repl_fallback_replays: Counter,
}

impl fmt::Debug for Master {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Master")
            .field("node", &self.node)
            .field("failovers", &self.failovers.get())
            .field("map", &*self.region_map.borrow())
            .finish()
    }
}

impl Master {
    /// Creates the master on `node`; `dfs` must be bound to the same node.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        node: NodeId,
        cfg: MasterConfig,
        dfs: DfsClient,
        dir: Rc<ServerDirectory>,
        registry: Rc<StoreFileRegistry>,
    ) -> Rc<Master> {
        let metrics = sim.metrics();
        let counter = |name: &str| metrics.counter(name, &[]);
        let master = Rc::new(Master {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            cfg,
            dfs,
            dir,
            region_map: RefCell::new(RegionMap::default()),
            hooks: RefCell::new(Rc::new(NoopHooks)),
            handled_failures: RefCell::new(HashSet::new()),
            unplaced: RefCell::new(Vec::new()),
            split_files: Cell::new(0),
            failovers: counter("master.failovers"),
            wal_split_corrupt_batches: counter("master.wal_split.corrupt_batches"),
            next_region_id: Cell::new(0),
            intents: RefCell::new(BTreeMap::new()),
            split_counters: IntentCounters::new(metrics, ChangeKind::Split),
            merge_counters: IntentCounters::new(metrics, ChangeKind::Merge),
            pending_move: RefCell::new(None),
            moves_started: counter("master.move.started"),
            moves_completed: counter("master.move.completed"),
            moves_refused: counter("master.move.refused"),
            placement_cost: counter("master.placement.cost"),
            registry,
            timers: RefCell::new(Vec::new()),
            self_weak: RefCell::new(Weak::new()),
            replication_factor: Cell::new(1),
            repl_epochs: RefCell::new(HashMap::new()),
            repl_ineligible: RefCell::new(HashMap::new()),
            pending_recoveries: RefCell::new(HashMap::new()),
            repl_promotions: counter("master.repl.promotions"),
            repl_fallback_replays: counter("master.repl.fallback_replays"),
        });
        *master.self_weak.borrow_mut() = Rc::downgrade(&master);
        master
    }

    /// The machine the master runs on (RPC destination for clients).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Installs the recovery middleware's hooks (also propagated to every
    /// registered server).
    pub fn set_hooks(&self, hooks: Rc<dyn RecoveryHooks>) {
        for id in self.dir.ids() {
            if let Some(s) = self.dir.get(id) {
                s.set_hooks(Rc::clone(&hooks));
            }
        }
        *self.hooks.borrow_mut() = hooks;
    }

    /// Starts failure detection (a watch on the servers' liveness znodes)
    /// and the unplaced-region retry timer.
    pub fn start(self: &Rc<Self>, coord: &CoordClient) {
        let weak = Rc::downgrade(self);
        coord.watch_prefix(
            ServerId::LIVE_PREFIX,
            move |event| {
                if let cumulo_coord::WatchEvent::Deleted(path) = event {
                    if let Some(master) = weak.upgrade() {
                        if let Some(id) = ServerId::from_path(&path) {
                            master.handle_server_failure(id);
                        }
                    }
                }
            },
            |_| {},
        );
        let weak = Rc::downgrade(self);
        let timer = every(&self.sim, ASSIGN_RETRY_INTERVAL, move || {
            if let Some(master) = weak.upgrade() {
                master.retry_unplaced();
            }
        });
        self.timers.borrow_mut().push(timer);
        // Proactive hot-region moves. Fixed phase, no RNG jitter, and off
        // by default (see the split timer note in `server.rs`).
        if self.cfg.moves.enabled {
            let weak = Rc::downgrade(self);
            let timer = every(&self.sim, self.cfg.moves.check_interval, move || {
                if let Some(master) = weak.upgrade() {
                    master.check_moves();
                }
            });
            self.timers.borrow_mut().push(timer);
        }
    }

    /// Assigns every region of `map` round-robin across the registered
    /// servers and opens them (cluster bootstrap). Also hands every
    /// registered server this master (its structure-change and
    /// lane-report calls are inert without one) and seeds the region-id
    /// allocator above the map's largest id.
    pub fn bootstrap(self: &Rc<Self>, map: RegionMap) {
        self.next_region_id
            .set(map.max_region_id().map(|r| r.0 + 1).unwrap_or(0));
        *self.region_map.borrow_mut() = map;
        for id in self.dir.ids() {
            if let Some(server) = self.dir.get(id) {
                server.set_master(Rc::clone(self));
            }
        }
        let descs: Vec<RegionDescriptor> = self.region_map.borrow().regions().to_vec();
        let servers = self.dir.ids();
        assert!(
            !servers.is_empty(),
            "bootstrap requires at least one registered server"
        );
        let rf = self.replication_factor.get();
        let mut assigned: Vec<(RegionId, ServerId)> = Vec::new();
        for (i, desc) in descs.into_iter().enumerate() {
            let target = servers[i % servers.len()];
            self.region_map.borrow_mut().assign(desc.id, target);
            assigned.push((desc.id, target));
            let server = self.dir.get(target).expect("registered");
            let node = server.node();
            self.net.send(self.node, node, 256, move || {
                server.open_region(desc, Vec::new(), None);
            });
        }
        if rf > 1 && servers.len() > 1 {
            // Backups round-robin after the primary so load spreads and
            // no region replicates onto its own primary.
            for (i, (region, primary)) in assigned.iter().enumerate() {
                let want = (rf - 1).min(servers.len() - 1);
                let replicas: Vec<ServerId> = (1..=want)
                    .map(|k| servers[(i + k) % servers.len()])
                    .filter(|s| s != primary)
                    .collect();
                self.region_map.borrow_mut().set_replicas(*region, replicas);
            }
            let regions: Vec<RegionId> = assigned.iter().map(|(r, _)| *r).collect();
            for region in regions {
                self.establish_group(region);
            }
        }
    }

    /// A snapshot of the region map for client caches.
    pub fn snapshot_map(&self) -> RegionMap {
        self.region_map.borrow().clone()
    }

    /// Current map epoch (bumps on each assignment change).
    pub fn map_epoch(&self) -> u64 {
        self.region_map.borrow().epoch()
    }

    /// Number of server failovers processed.
    pub fn failover_count(&self) -> u64 {
        self.failovers.get()
    }

    /// Records `kind` in the failure-event journal: the one door the
    /// master's events leave through. `detail` obeys the journal's
    /// capture-values rule.
    fn event(&self, kind: &'static str, detail: impl Fn() -> String + 'static) {
        self.sim.events().record(self.sim.now(), kind, detail);
    }

    /// Handles a detected server failure: marks its regions offline,
    /// notifies the recovery hooks, splits the failed server's WAL into
    /// one store file per region and reassigns each region (§2.1 + §3.2).
    ///
    /// Idempotent per server id.
    fn handle_server_failure(self: &Rc<Self>, failed: ServerId) {
        if !self.handled_failures.borrow_mut().insert(failed) {
            return;
        }
        self.failovers.inc();
        let regions = self.region_map.borrow().regions_of(failed);
        let count = regions.len();
        self.event("server.failover", move || {
            format!("server={failed} regions={count}")
        });
        // Roll back every intent granted to the failed server. This is
        // always safe before the map flip: clients can only address
        // region ids the map has shown them, so no write was ever
        // acknowledged under an output id — the inputs' WALs and store
        // files still cover everything, and the outputs' orphaned
        // reference markers are deleted below. (Once `change_completed`
        // has flipped the map, the intent is gone and the outputs
        // recover here like any other region.)
        // (The map is ordered, so the rollbacks run in key order and
        // runs with the same seed stay byte-identical.)
        let (doomed, kept): (BTreeMap<_, _>, BTreeMap<_, _>) = self
            .intents
            .take()
            .into_iter()
            .partition(|(_, change)| change.server == failed);
        self.intents.replace(kept);
        for change in doomed.into_values() {
            self.rollback_intent(change);
        }
        // A move whose donor or target died is abandoned: the region is
        // either still assigned to the donor (recovered right here) or
        // already assigned to the target (its own failover recovers it).
        let abandoned_move = matches!(
            *self.pending_move.borrow(),
            Some((_, donor, target)) if donor == failed || target == failed
        );
        if abandoned_move {
            self.pending_move.borrow_mut().take();
        }
        {
            let mut map = self.region_map.borrow_mut();
            for r in &regions {
                map.unassign(*r);
            }
        }
        if self.replication_factor.get() > 1 {
            self.scrub_backup_roles(failed);
        }
        self.hooks.borrow().on_server_failed(failed, &regions);
        if regions.is_empty() {
            return;
        }
        // Replicated regions race a promotion probe against the WAL
        // split; unreplicated regions (always, when replication is off)
        // go straight to replay-based placement.
        let replicated: Vec<RegionId> = regions
            .iter()
            .copied()
            .filter(|r| !self.region_map.borrow().replicas_of(*r).is_empty())
            .collect();
        for region in &replicated {
            self.begin_promotion_probe(*region, failed);
        }
        let weak = Rc::downgrade(self);
        split_wal(&self.dfs, &format!("/wal/{failed}"), move |split| {
            let Some(master) = weak.upgrade() else { return };
            for batch in split.corrupt_batches {
                master.wal_split_corrupt_batches.inc();
                master.event("wal.split.corrupt", move || {
                    format!("server={failed} batch={batch}")
                });
            }
            // WAL records written before an online split are tagged with
            // the parent region id, which may no longer exist — re-route
            // every record against the current map first.
            let mut remapped = master.remap_wal_groups(split.groups);
            for region in regions {
                let records = remapped.remove(&region).unwrap_or_default();
                if replicated.contains(&region) {
                    master.recovery_records_ready(region, records);
                } else {
                    master.place_region(region, records, Some(failed));
                }
            }
        });
    }

    /// Rolls a granted-but-uncompleted intent back: the intent record
    /// and the outputs' orphaned reference markers are deleted; the
    /// region map was never touched, so the inputs carry on (or recover)
    /// from their own untouched files.
    fn rollback_intent(&self, change: StructureChange) {
        let kind = change.kind();
        self.counters(kind).rolled_back.inc();
        let (inputs, server) = (change.inputs.clone(), change.server);
        self.event(kind.pick("split.rollback", "merge.rollback"), move || {
            format!("{} server={server}", kind.inputs_label(&inputs))
        });
        self.dfs.delete(&change.intent_path());
        for output in change.outputs {
            let dir = format!("/store/{}/", output.id);
            // The dead server may have registered reference files before
            // crashing; purge them so the inputs' physical files do not
            // carry inflated backing counts forever (which would make
            // them undeletable after a later successful change).
            self.registry.purge_references_under(&dir);
            let dfs = self.dfs.clone();
            self.dfs.clone().list(&dir, move |paths| {
                for p in paths {
                    dfs.delete(&p);
                }
            });
        }
    }

    /// Re-groups a failed server's WAL records by the *current* region
    /// map: records tagged with a since-split parent id are partitioned
    /// at the daughter boundary (a record whose region still exists
    /// passes through untouched). Source groups are visited in sorted
    /// region order so every region's records — and the store file built
    /// from them — are the same in every process.
    fn remap_wal_groups(
        &self,
        grouped: HashMap<RegionId, Vec<WalRecord>>,
    ) -> BTreeMap<RegionId, Vec<WalRecord>> {
        let map = self.region_map.borrow();
        let mut source: Vec<(RegionId, Vec<WalRecord>)> = grouped.into_iter().collect();
        source.sort_by_key(|(id, _)| *id);
        let mut out: BTreeMap<RegionId, Vec<WalRecord>> = BTreeMap::new();
        for (_, records) in source {
            for rec in records {
                if map.descriptor(rec.region).is_some() {
                    // Region ids are never reused, so a live id still
                    // means the same key range: the record stands.
                    out.entry(rec.region).or_default().push(rec);
                    continue;
                }
                let mut per: BTreeMap<RegionId, Vec<Mutation>> = BTreeMap::new();
                for m in rec.mutations {
                    per.entry(map.region_for(&m.row)).or_default().push(m);
                }
                for (region, mutations) in per {
                    out.entry(region).or_default().push(WalRecord {
                        region,
                        ts: rec.ts,
                        mutations,
                    });
                }
            }
        }
        out
    }

    /// Places a region: its split WAL records, if any, are first written
    /// as one store file under `/store/{region}/`, then a host is chosen
    /// ([`Master::assign_region`]) and adopts the file with the region's
    /// others. The persisted part of a failed server's state so reaches
    /// the new host as a file, not as edits to replay — and a cascading
    /// failure of that host cannot lose it: the next round's host lists
    /// and adopts the same file.
    fn place_region(
        self: &Rc<Self>,
        region: RegionId,
        records: Vec<WalRecord>,
        failed: Option<ServerId>,
    ) {
        if records.is_empty() {
            self.assign_region(region, failed);
            return;
        }
        let n = self.split_files.get();
        self.split_files.set(n + 1);
        // `wal-`: neither a flush (`{n}-{server}`) nor a compaction
        // (`{n}c-{server}`) output, a reference or a compaction temporary.
        let path = format!("/store/{region}/wal-{n:06}");
        let file = Rc::new(StoreFileData::from_wal_records(
            region,
            path.clone(),
            &records,
        ));
        // Not created, or created and not written: no datanodes. Retry
        // from the queue (under a new name; an unwritten file is in no
        // registry, so nothing ever opens it).
        let weak = self.self_weak.borrow().clone();
        self.dfs.write_file(&path, file.encode(), move |result| {
            let Some(master) = weak.upgrade() else { return };
            if result.is_err() {
                master.unplaced.borrow_mut().push((region, records, failed));
                return;
            }
            master.registry.insert(file);
            master.assign_region(region, failed);
        });
    }

    /// Second placement phase: whatever the region's past hosts persisted
    /// is in its store files; choose a host and open the region there.
    ///
    /// Placement is *load-aware*: the least-loaded live server wins,
    /// where load is the cumulative foreground service time its assigned
    /// regions have charged (ties broken by server id, so placement is
    /// deterministic). Region counts are a poor proxy under skew — one
    /// hot region outweighs many cold ones, and it is exactly the hot
    /// parent's daughters this most often places.
    fn assign_region(self: &Rc<Self>, region: RegionId, failed: Option<ServerId>) {
        let target = {
            let map = self.region_map.borrow();
            let live = self.ranked_live(&map);
            self.placement_cost.add(live.len() as u64);
            live.first().map(|(_, id)| *id)
        };
        let Some(target) = target else {
            self.unplaced
                .borrow_mut()
                .push((region, Vec::new(), failed));
            return;
        };
        self.region_map.borrow_mut().assign(region, target);
        self.event("region.assign", move || {
            format!("region={region} server={target}")
        });
        self.open_on(region, target, failed);
        // A replicated region placed via the replay fallback gets its
        // group rebuilt around the new primary.
        if self.replication_factor.get() > 1
            && !self.region_map.borrow().replicas_of(region).is_empty()
        {
            let mut replicas: Vec<ServerId> = self
                .region_map
                .borrow()
                .replicas_of(region)
                .iter()
                .copied()
                .filter(|s| *s != target && Some(*s) != failed)
                .collect();
            self.fill_replicas(region, target, &mut replicas);
            self.region_map.borrow_mut().set_replicas(region, replicas);
            self.establish_group(region);
        }
    }

    /// Live servers by placement load, lightest first: the cumulative
    /// foreground service time a server's regions have charged plus a
    /// fixed cost per assigned region, ties broken by server id.
    fn ranked_live(&self, map: &RegionMap) -> Vec<(u64, ServerId)> {
        let mut live: Vec<(u64, ServerId)> = self
            .dir
            .live_ids()
            .into_iter()
            .map(|id| {
                let load = self
                    .dir
                    .get(id)
                    .map(|s| s.service_load_ns())
                    .unwrap_or(u64::MAX);
                let assigned = map.assigned_count(id) as u64;
                (load.saturating_add(assigned * ASSIGNED_REGION_COST_NS), id)
            })
            .collect();
        live.sort_unstable();
        live
    }

    /// Tells `target` to open `region` over the store files listed under
    /// its directory in the filesystem namespace (the equivalent of
    /// listing the region's HDFS directory).
    fn open_on(&self, region: RegionId, target: ServerId, failed: Option<ServerId>) {
        let desc = self
            .region_map
            .borrow()
            .descriptor(region)
            .expect("region exists in the map")
            .clone();
        let server = self.dir.get(target).expect("registered");
        let node = server.node();
        let net = Rc::clone(&self.net);
        let master_node = self.node;
        self.dfs.list(&format!("/store/{region}/"), move |paths| {
            net.send(master_node, node, 512, move || {
                server.open_region(desc, paths, failed);
            });
        });
    }

    fn retry_unplaced(self: &Rc<Self>) {
        let pending: Vec<_> = self.unplaced.borrow_mut().drain(..).collect();
        for (region, records, failed) in pending {
            self.place_region(region, records, failed);
        }
    }

    // ------------------------------------------------------------------
    // Online structure changes — splits and merges (master side). A
    // region server proposes a change (`request_change`), the master
    // validates it, allocates the output ids and persists the
    // `StructureChange` intent, and the server reports completion
    // (`change_completed`) or abandonment (`change_aborted`). Servers
    // call all three *at the master's node*: they send themselves there
    // through the simulated network first.
    // ------------------------------------------------------------------

    /// Splits applied to the region map.
    pub fn splits_applied(&self) -> u64 {
        self.split_counters.applied.get()
    }

    /// Merges applied to the region map.
    pub fn merges_applied(&self) -> u64 {
        self.merge_counters.applied.get()
    }

    fn counters(&self, kind: ChangeKind) -> &IntentCounters {
        kind.pick(&self.split_counters, &self.merge_counters)
    }

    /// Whether an outstanding intent names `region` as an input.
    fn intent_involves(&self, region: RegionId) -> bool {
        self.intents
            .borrow()
            .values()
            .any(|change| change.inputs.contains(&region))
    }

    /// Validates a server's proposal and builds the change it asks for,
    /// with freshly allocated output ids. Every input must be assigned
    /// to the (live) requesting server with no intent outstanding on it;
    /// beyond that a split's key must fall strictly inside the parent,
    /// and a merge's pair must be adjacent in key order and
    /// unreplicated (the inputs' shadow lanes would have to be collapsed
    /// too, and the scale campaign does not need the combination). Any
    /// other shape is refused.
    fn admit_change(
        &self,
        server: ServerId,
        inputs: &[RegionId],
        cuts: &[Bytes],
    ) -> Option<StructureChange> {
        let map = self.region_map.borrow();
        let descs: Vec<&RegionDescriptor> = inputs
            .iter()
            .map(|r| map.descriptor(*r))
            .collect::<Option<_>>()?;
        let shape_valid = match (&descs[..], cuts) {
            ([parent], [key]) => parent.splits_at(key),
            ([left, right], []) => {
                left.end.as_deref() == Some(&right.start[..])
                    && map.replicas_of(left.id).is_empty()
                    && map.replicas_of(right.id).is_empty()
            }
            _ => false,
        };
        let valid = shape_valid
            && !self.handled_failures.borrow().contains(&server)
            && inputs
                .iter()
                .all(|r| map.server_for(*r) == Some(server) && !self.intent_involves(*r));
        if !valid {
            return None;
        }
        let next = self.next_region_id.get();
        let ids: Vec<RegionId> = (next..).take(cuts.len() + 1).map(RegionId).collect();
        self.next_region_id.set(next + ids.len() as u32);
        Some(StructureChange::new(&descs, cuts, &ids, server))
    }

    /// A server asks to replace `inputs` (which it hosts; adjacent, in
    /// key order) by `cuts.len() + 1` new regions with `cuts` as the
    /// boundaries between them: one input and one cut is a split, two
    /// inputs and no cut a merge. The master validates, persists the
    /// intent, and — once it is durable — answers with the change to
    /// execute; anything else is answered `None`, a denial.
    pub(crate) fn request_change<D: FnOnce(Option<StructureChange>) + 'static>(
        self: &Rc<Self>,
        server: ServerId,
        inputs: Vec<RegionId>,
        cuts: Vec<Bytes>,
        reply: Reply<Option<StructureChange>, D>,
    ) {
        let Some(&first) = inputs.first() else {
            return;
        };
        let Some(change) = self.admit_change(server, &inputs, &cuts) else {
            reply.send(48, None);
            return;
        };
        // Record in memory first so a racing second request is denied;
        // the DFS record is written before the server may execute — the
        // durability point the crash-window analysis hinges on.
        self.intents.borrow_mut().insert(first, change.clone());
        let encoded = change.encode();
        let weak = Rc::downgrade(self);
        let path = change.intent_path();
        self.dfs.write_file(&path, encoded, move |result| {
            let Some(master) = weak.upgrade() else { return };
            if result.is_err() {
                master.refuse_intent(&change);
                reply.send(48, None);
                return;
            }
            let kind = change.kind();
            master.counters(kind).persisted.inc();
            let journal_change = change.clone();
            master.event(kind.pick("split.persisted", "merge.persisted"), move || {
                format!(
                    "{} server={server} {}",
                    kind.inputs_label(&journal_change.inputs),
                    journal_change.outputs_label()
                )
            });
            // The server may have died while the intent was being
            // written; its failover already rolled the intent back.
            if !master.intents.borrow().contains_key(&first) {
                return;
            }
            reply.send(96, Some(change));
        });
    }

    /// The intent record could not be written. Creating it fails with
    /// AlreadyExists when an earlier attempt's append died half-way and
    /// left the file behind, and a created-but-unwritten record would do
    /// the same to every later attempt: delete it so the inputs are not
    /// permanently blocked; the request is then denied (the server
    /// re-requests).
    fn refuse_intent(&self, change: &StructureChange) {
        self.dfs.delete(&change.intent_path());
        self.intents.borrow_mut().remove(&change.inputs[0]);
    }

    /// The server finished the local flip of the change whose first
    /// input is `first`: the outputs are online in its memory, the
    /// inputs are gone. The master applies the change to the region map
    /// and retires the intent.
    pub(crate) fn change_completed(self: &Rc<Self>, server: ServerId, first: RegionId) {
        // A failover that raced ahead has already rolled the intent back
        // (and this message came from a now-dead server): ignore.
        let change = self
            .intents
            .borrow()
            .get(&first)
            .filter(|change| change.server == server)
            .cloned();
        let Some(change) = change else { return };
        if self.handled_failures.borrow().contains(&server) {
            return;
        }
        if !self.region_map.borrow_mut().apply_change(&change) {
            return;
        }
        self.intents.borrow_mut().remove(&first);
        let kind = change.kind();
        self.counters(kind).applied.inc();
        let journal_change = change.clone();
        self.event(kind.pick("split.applied", "merge.applied"), move || {
            journal_change.label()
        });
        self.dfs.delete(&change.intent_path());
        // Split daughters inherited the parent's replicas in the map;
        // rebuild their groups under the bumped epoch (the server already
        // moved its lanes and closed the parent shadows at the flip).
        // Merges only ever touch unreplicated regions.
        if self.replication_factor.get() > 1 && kind == ChangeKind::Split {
            self.repl_epochs.borrow_mut().remove(&first);
            for daughter in &change.outputs {
                if !self.region_map.borrow().replicas_of(daughter.id).is_empty() {
                    self.establish_group(daughter.id);
                }
            }
        }
    }

    /// The server abandoned an intent it was granted (e.g. the reference
    /// marker writes failed); the master rolls the intent back.
    pub(crate) fn change_aborted(&self, server: ServerId, first: RegionId) {
        let change = {
            let mut intents = self.intents.borrow_mut();
            match intents.get(&first) {
                Some(change) if change.server == server => intents.remove(&first),
                _ => None,
            }
        };
        if let Some(change) = change {
            self.rollback_intent(change);
        }
    }

    // ------------------------------------------------------------------
    // Proactive hot-region moves (master side)
    // ------------------------------------------------------------------

    /// Moves completed (region reopened on its new host).
    pub fn moves_completed(&self) -> u64 {
        self.moves_completed.get()
    }

    /// Compares live servers' placement loads and, when the spread
    /// exceeds the configured ratio, closes the most loaded server's
    /// hottest region and reopens it on the least loaded server. One
    /// move at a time; each runs the same close → flush → reopen path a
    /// failover uses, minus the WAL replay (the donor flushes before
    /// closing, so the region's state is entirely in its store files).
    fn check_moves(self: &Rc<Self>) {
        if self.pending_move.borrow().is_some() {
            return;
        }
        let picked = {
            let map = self.region_map.borrow();
            let live = self.ranked_live(&map);
            if live.len() < 2 {
                return;
            }
            let (cold_load, cold) = live[0];
            let (hot_load, hot) = *live.last().expect("non-empty");
            if (hot_load as f64) < (cold_load.max(1) as f64) * self.cfg.moves.load_ratio {
                return;
            }
            if map.assigned_count(hot) < 2 {
                return; // never strip a server of its only region
            }
            let Some(donor) = self.dir.get(hot) else {
                return;
            };
            // Hottest hosted region by charged load, ids as the
            // deterministic tie-break; regions tangled in a split or
            // merge intent (or replicated) stay put.
            let candidate = map
                .regions_of(hot)
                .into_iter()
                .filter(|r| !self.intent_involves(*r) && map.replicas_of(*r).is_empty())
                .map(|r| (donor.region_load_ns(r), r))
                .max_by(|a, b| (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1))));
            candidate.map(|(_, region)| (region, hot, cold))
        };
        let Some((region, donor, target)) = picked else {
            return;
        };
        *self.pending_move.borrow_mut() = Some((region, donor, target));
        self.moves_started.inc();
        self.event("move.start", move || {
            format!("region={region} donor={donor} target={target}")
        });
        let Some(server) = self.dir.get(donor) else {
            self.pending_move.borrow_mut().take();
            return;
        };
        let weak = Rc::downgrade(self);
        self.net.request(
            self.node,
            server.node(),
            64,
            move |reply| server.prepare_move(region, reply),
            move |closed| {
                if let Some(master) = weak.upgrade() {
                    master.move_closed(region, donor, closed);
                }
            },
        );
    }

    /// The donor closed (or refused to close) the moving region. On
    /// success the region is reassigned and reopened on the chosen
    /// target — or wherever placement prefers now, if the target died in
    /// the meantime.
    fn move_closed(self: &Rc<Self>, region: RegionId, donor: ServerId, ok: bool) {
        let matches = matches!(
            *self.pending_move.borrow(),
            Some((r, d, _)) if r == region && d == donor
        );
        if !matches || self.handled_failures.borrow().contains(&donor) {
            return;
        }
        let (_, _, target) = self.pending_move.borrow_mut().take().expect("checked");
        if !ok {
            self.moves_refused.inc();
            return;
        }
        // The donor flushed and dropped the region; until the reopen
        // completes the region is offline (clients retry on NotServing,
        // exactly as during a failover).
        let alive = self.dir.get(target).map(|s| s.is_alive()).unwrap_or(false);
        if !alive {
            self.region_map.borrow_mut().unassign(region);
            self.assign_region(region, None);
            return;
        }
        self.region_map.borrow_mut().assign(region, target);
        self.moves_completed.inc();
        self.event("move.open", move || {
            format!("region={region} donor={donor} target={target}")
        });
        self.open_on(region, target, None);
    }

    // ------------------------------------------------------------------
    // Region replication (master side). Beyond the structure-change
    // calls, primaries report lane sync state (`replica_unsynced`,
    // `replica_synced`) — at the master's node, like those. A primary
    // must not release write gates for an out-of-sync lane until the
    // master has acknowledged the report: the master is the promotion
    // arbiter, so its ack is what makes un-gating sound (the backup is
    // now ineligible).
    // ------------------------------------------------------------------

    /// Sets the number of copies each region is hosted on (1 = primary
    /// only, replication disabled). Call before [`Master::bootstrap`].
    pub fn set_replication_factor(&self, factor: usize) {
        self.replication_factor.set(factor.max(1));
    }

    /// Promotions of a caught-up replica in place of a WAL replay.
    pub fn promotions(&self) -> u64 {
        self.repl_promotions.get()
    }

    /// Failovers of replicated regions that had to fall back to a full
    /// WAL replay (no eligible replica survived).
    pub fn fallback_replays(&self) -> u64 {
        self.repl_fallback_replays.get()
    }

    /// (Re)establishes `region`'s replica group from the current map:
    /// backups get shadows opened, the primary gets the lane set, and the
    /// map epoch at this instant becomes the group's fencing epoch.
    fn establish_group(self: &Rc<Self>, region: RegionId) {
        if self.replication_factor.get() <= 1 {
            return;
        }
        let (primary, replicas, epoch, desc) = {
            let map = self.region_map.borrow();
            (
                map.server_for(region),
                map.replicas_of(region).to_vec(),
                map.epoch(),
                map.descriptor(region).cloned(),
            )
        };
        let (Some(primary), Some(desc)) = (primary, desc) else {
            return;
        };
        let Some(pserver) = self.dir.get(primary) else {
            return;
        };
        if !pserver.is_alive() || replicas.is_empty() {
            return;
        }
        self.repl_epochs.borrow_mut().insert(region, epoch);
        {
            let mut ineligible = self.repl_ineligible.borrow_mut();
            ineligible.retain(|(r, e, _), _| *r != region || *e >= epoch);
            ineligible.extend(replicas.iter().map(|b| ((region, epoch, *b), false)));
        }
        let backups: Vec<(ServerId, NodeId, Weak<RegionServer>)> = replicas
            .iter()
            .filter_map(|id| {
                self.dir
                    .get(*id)
                    .map(|s| (*id, s.node(), Rc::downgrade(&s)))
            })
            .collect();
        for id in &replicas {
            let Some(bserver) = self.dir.get(*id) else {
                continue;
            };
            if !bserver.is_alive() {
                continue;
            }
            let bnode = bserver.node();
            let desc = desc.clone();
            self.net.send(self.node, bnode, 128, move || {
                bserver.open_shadow(region, desc, epoch);
            });
        }
        let backup_count = replicas.len();
        self.event("replication.establish", move || {
            format!("region={region} primary={primary} epoch={epoch} backups={backup_count}")
        });
        let pnode = pserver.node();
        self.net.send(self.node, pnode, 128, move || {
            pserver.establish_replica_group(region, epoch, backups);
        });
    }

    /// Tops `replicas` back up to `replication_factor - 1` live servers
    /// distinct from `primary`, rotating candidates by region id so
    /// repairs spread deterministically.
    fn fill_replicas(&self, region: RegionId, primary: ServerId, replicas: &mut Vec<ServerId>) {
        let want = self.replication_factor.get().saturating_sub(1);
        replicas.retain(|s| self.dir.get(*s).map(|h| h.is_alive()).unwrap_or(false));
        if replicas.len() >= want {
            replicas.truncate(want);
            return;
        }
        let candidates: Vec<ServerId> = self
            .dir
            .live_ids()
            .into_iter()
            .filter(|s| *s != primary && !replicas.contains(s))
            .collect();
        for k in 0..candidates.len() {
            if replicas.len() >= want {
                break;
            }
            let c = candidates[(region.0 as usize + k) % candidates.len()];
            if !replicas.contains(&c) {
                replicas.push(c);
            }
        }
    }

    /// `failed` was a *backup* for some regions: shrink those replica
    /// sets, repair them with deterministic replacements, and re-establish
    /// the groups so the primaries stop gating on the dead lane.
    fn scrub_backup_roles(self: &Rc<Self>, failed: ServerId) {
        let hosts = self.region_map.borrow().replica_hosts(failed);
        for region in hosts {
            let primary = self.region_map.borrow().server_for(region);
            let mut replicas: Vec<ServerId> = self
                .region_map
                .borrow()
                .replicas_of(region)
                .iter()
                .copied()
                .filter(|s| *s != failed)
                .collect();
            if let Some(p) = primary {
                self.fill_replicas(region, p, &mut replicas);
            }
            self.region_map.borrow_mut().set_replicas(region, replicas);
            self.event("replication.repair", move || {
                format!("region={region} lost_backup={failed}")
            });
            if primary.is_some() {
                self.establish_group(region);
            }
        }
    }

    /// Starts the promotion probe for a replicated region whose primary
    /// just died: ask every live backup for its shadow state, conclude on
    /// the last reply or a fixed deadline, whichever first.
    fn begin_promotion_probe(self: &Rc<Self>, region: RegionId, failed: ServerId) {
        let backups: Vec<Rc<RegionServer>> = self
            .region_map
            .borrow()
            .replicas_of(region)
            .iter()
            .filter(|s| **s != failed)
            .filter_map(|s| self.dir.get(*s))
            .filter(|s| s.is_alive())
            .collect();
        self.pending_recoveries.borrow_mut().insert(
            region,
            PendingRecovery {
                failed,
                records: None,
                probe_done: false,
                promoted: false,
                replies: Vec::new(),
                expected: backups.len(),
            },
        );
        if backups.is_empty() {
            self.conclude_probe(region);
            return;
        }
        for backup in backups {
            let (bid, weak) = (backup.id(), Rc::downgrade(self));
            self.net.request(
                self.node,
                backup.node(),
                48,
                move |reply| {
                    if let Some(shadow) = backup.query_replica(region) {
                        reply.send(48, shadow);
                    }
                },
                move |(epoch, synced)| {
                    if let Some(master) = weak.upgrade() {
                        master.probe_reply(region, bid, epoch, synced);
                    }
                },
            );
        }
        let weak = Rc::downgrade(self);
        self.sim.schedule_in(PROBE_DEADLINE, move || {
            if let Some(master) = weak.upgrade() {
                master.conclude_probe(region);
            }
        });
    }

    fn probe_reply(self: &Rc<Self>, region: RegionId, backup: ServerId, epoch: u64, synced: bool) {
        let ready = {
            let mut pending = self.pending_recoveries.borrow_mut();
            let Some(p) = pending.get_mut(&region) else {
                return;
            };
            if p.probe_done {
                return;
            }
            p.replies.push((backup, epoch, synced));
            p.replies.len() >= p.expected
        };
        if ready {
            self.conclude_probe(region);
        }
    }

    /// Decides promotion vs replay fallback. Eligible replicas must be
    /// alive, in sync *at the currently established epoch* by their own
    /// account, and confirmed in sync by their primary since (absent from
    /// the ineligibility map); the lowest server id wins. Any eligible
    /// replica will do: the primary confirms a lane only when its shadow
    /// holds everything served so far, gates every client ack on it from
    /// then on, and un-gates only after the master recorded its report —
    /// so each of them holds every acknowledged write. How far each has
    /// applied beyond that is not comparable: sequence numbers are per
    /// lane.
    fn conclude_probe(self: &Rc<Self>, region: RegionId) {
        let (failed, winner) = {
            let mut pending = self.pending_recoveries.borrow_mut();
            let Some(p) = pending.get_mut(&region) else {
                return;
            };
            if p.probe_done {
                return;
            }
            p.probe_done = true;
            let current_epoch = self.repl_epochs.borrow().get(&region).copied().unwrap_or(0);
            let ineligible = self.repl_ineligible.borrow();
            let eligible = p.replies.iter().filter(|(b, e, synced)| {
                *synced
                    && *e == current_epoch
                    && !ineligible.contains_key(&(region, *e, *b))
                    && self.dir.get(*b).map(|s| s.is_alive()).unwrap_or(false)
            });
            let winner = eligible.map(|(b, ..)| *b).min();
            p.promoted = winner.is_some();
            (p.failed, winner)
        };
        match winner {
            Some(winner) => {
                self.repl_promotions.inc();
                self.event("replication.promote", move || {
                    format!("region={region} winner={winner} failed={failed}")
                });
                self.region_map.borrow_mut().assign(region, winner);
                let mut replicas: Vec<ServerId> = self
                    .region_map
                    .borrow()
                    .replicas_of(region)
                    .iter()
                    .copied()
                    .filter(|s| *s != winner && *s != failed)
                    .collect();
                self.fill_replicas(region, winner, &mut replicas);
                self.region_map.borrow_mut().set_replicas(region, replicas);
                let epoch = self.region_map.borrow().epoch();
                if let Some(server) = self.dir.get(winner) {
                    let node = server.node();
                    self.net.send(self.node, node, 256, move || {
                        server.promote_replica(region, epoch, failed);
                    });
                }
                self.establish_group(region);
                let mut pending = self.pending_recoveries.borrow_mut();
                if pending.get(&region).map(|p| p.records.is_some()) == Some(true) {
                    pending.remove(&region);
                }
            }
            None => {
                self.repl_fallback_replays.inc();
                self.event("replication.fallback", move || {
                    format!("region={region} failed={failed}")
                });
                let records = {
                    let mut pending = self.pending_recoveries.borrow_mut();
                    match pending.get_mut(&region).and_then(|p| p.records.take()) {
                        Some(r) => {
                            pending.remove(&region);
                            Some(r)
                        }
                        None => None, // WAL split still running; resolved on arrival.
                    }
                };
                if let Some(records) = records {
                    self.place_region(region, records, Some(failed));
                }
            }
        }
    }

    /// The WAL split delivered `region`'s records: written out and placed
    /// on the fallback path, discarded after a promotion (the promoted
    /// replica already holds every acknowledged write).
    fn recovery_records_ready(self: &Rc<Self>, region: RegionId, records: Vec<WalRecord>) {
        let next: Option<Option<ServerId>> = {
            let mut pending = self.pending_recoveries.borrow_mut();
            match pending.get_mut(&region) {
                // No probe outstanding (e.g. a re-failure raced): replay.
                None => Some(None),
                Some(p) if !p.probe_done => {
                    p.records = Some(records);
                    return;
                }
                Some(p) => {
                    let next = if p.promoted {
                        None
                    } else {
                        Some(Some(p.failed))
                    };
                    pending.remove(&region);
                    next
                }
            }
        };
        if let Some(failed) = next {
            self.place_region(region, records, failed);
        }
    }

    /// `backup`'s lane for `region` (replica-group `epoch`) fell out of
    /// sync (gap, backlog overflow, or ack timeout). The master records
    /// the ineligibility and answers `false`; only then may the primary
    /// release gates held for that lane. When the report's epoch is older
    /// than the currently established group (the reporter is a stale
    /// ex-primary, e.g. resurfacing from a healed partition after a
    /// promotion), the master answers `true` instead: the reporter must
    /// fence itself rather than un-gate.
    pub(crate) fn replica_unsynced(&self, region: RegionId, epoch: u64, backup: ServerId) -> bool {
        // A report under an older epoch than the currently established
        // group comes from a stale ex-primary (it resurfaced after a
        // promotion it never saw). Acking would let it un-gate and hand
        // out write acks for a region it no longer owns — direct it to
        // fence itself instead.
        let current = self.repl_epochs.borrow().get(&region).copied();
        let stale = current.map(|c| epoch < c).unwrap_or(true);
        if stale {
            self.event("replication.stale_report", move || {
                format!("region={region} epoch={epoch} backup={backup}")
            });
            return true;
        }
        self.repl_ineligible
            .borrow_mut()
            .insert((region, epoch, backup), true);
        self.event("replication.ineligible", move || {
            format!("region={region} epoch={epoch} backup={backup}")
        });
        // Acking *after* recording is the soundness point: the primary
        // releases gates only once this backup can no longer win a
        // promotion at this epoch.
        false
    }

    /// `backup`'s lane for `region` completed a full-state sync that
    /// nothing outran: its shadow holds everything the primary served,
    /// and every client ack gates on it from here on. This — not the
    /// shadow's own account — is what makes the backup eligible for
    /// promotion, first after an establish and again after a report.
    pub(crate) fn replica_synced(&self, region: RegionId, epoch: u64, backup: ServerId) {
        let was = self
            .repl_ineligible
            .borrow_mut()
            .remove(&(region, epoch, backup));
        // The journal follows reports: a lane's first sync after an
        // establish makes it eligible without an event.
        if was == Some(true) {
            self.event("replication.eligible", move || {
                format!("region={region} epoch={epoch} backup={backup}")
            });
        }
    }
}

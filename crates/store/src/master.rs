//! The master: region assignment, server-failure detection via the
//! coordination service, WAL splitting and region reassignment.

use crate::codec::WalRecord;
use crate::hooks::{NoopHooks, RecoveryHooks, ReplicationCoordinator, SplitCoordinator};
use crate::region::{MergeIntent, RegionDescriptor, RegionMap, SplitIntent};
use crate::server::RegionServer;
use crate::sstable::StoreFileRegistry;
use crate::types::{Mutation, RegionId, ServerId};
use crate::wal::split_wal;
use bytes::Bytes;
use cumulo_coord::CoordClient;
use cumulo_dfs::DfsClient;
use cumulo_sim::metrics::{Counter, MetricsRegistry};
use cumulo_sim::trace::Journal;
use cumulo_sim::{every, Network, NodeId, Sim, SimDuration, TimerHandle};
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

/// Master tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct MasterConfig {
    /// Retry period for regions that could not be placed (no live server).
    pub assign_retry_interval: SimDuration,
    /// Proactive hot-region move knobs.
    pub moves: MoveConfig,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            assign_retry_interval: SimDuration::from_secs(1),
            moves: MoveConfig::default(),
        }
    }
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
    /// Probe replies collected so far: (backup, shadow epoch,
    /// applied-through seq, synced).
    replies: Vec<(ServerId, u64, u64, bool)>,
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
    /// Regions awaiting placement (no live server was available), with
    /// their pending recovered edits and failed-server attribution.
    unplaced: RefCell<Vec<(RegionId, Vec<crate::codec::WalRecord>, Option<ServerId>)>>,
    edits_counter: Cell<u64>,
    failovers: Counter,
    /// Failure-event journal (shared cluster journal; disabled until the
    /// cluster wiring installs one via [`Master::set_events_journal`]).
    events: RefCell<Journal>,
    /// The next region id to hand out to a split daughter (ids are never
    /// reused, so a cached id always means the same key range).
    next_region_id: Cell<u32>,
    /// Split intents granted and durable but not yet completed, keyed by
    /// parent region. The master's authoritative in-flight set; the DFS
    /// record at `/split/{parent}` mirrors it for a real deployment's
    /// master restart.
    split_intents: RefCell<HashMap<RegionId, SplitIntent>>,
    intents_persisted: Counter,
    splits_applied: Counter,
    splits_rolled_back: Counter,
    /// Merge intents granted and durable but not yet completed, keyed by
    /// the *left* daughter (the intent's filesystem record lives at
    /// `/merge/{left}`), mirroring `split_intents`.
    merge_intents: RefCell<HashMap<RegionId, MergeIntent>>,
    merge_intents_persisted: Counter,
    merges_applied: Counter,
    merges_rolled_back: Counter,
    /// The one in-flight proactive move, if any: (region, donor, target).
    /// One at a time — moves are a background rebalance, not a bulk
    /// migration, and serializing them keeps the load signal honest
    /// (each move sees the previous one's effect).
    pending_move: RefCell<Option<(RegionId, ServerId, ServerId)>>,
    moves_started: Counter,
    moves_completed: Counter,
    moves_refused: Counter,
    /// Placement target-selection work actually performed (one unit per
    /// live server examined) vs what the pre-fix O(servers × regions)
    /// assignment scan would have cost — the before/after evidence pair
    /// for the placement scaling cliff, emitted in `BENCH_scale.json`.
    placement_cost: Counter,
    placement_cost_naive: Counter,
    /// The shared store-file registry (installed by the cluster wiring);
    /// intent rollback purges a crashed split's orphaned reference
    /// registrations through it so backing-ref counts cannot leak.
    registry: RefCell<Option<Rc<StoreFileRegistry>>>,
    timers: RefCell<Vec<TimerHandle>>,
    self_weak: RefCell<Weak<Master>>,
    /// Copies of each region hosted on `replication_factor - 1` backup
    /// servers; 1 (the default) disables replication entirely — no
    /// replica bookkeeping, no extra messages, byte-identical schedules.
    replication_factor: Cell<usize>,
    /// Replica-group epoch last established per region (a probe reply
    /// claiming sync under any other epoch is not trusted).
    repl_epochs: RefCell<HashMap<RegionId, u64>>,
    /// Lanes reported out of sync by their primary, keyed
    /// `(region, epoch, backup)`: ineligible for promotion. Recording
    /// this *before* acking the report is what lets the primary release
    /// its write gates soundly.
    repl_ineligible: RefCell<HashSet<(RegionId, u64, ServerId)>>,
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
    ) -> Rc<Master> {
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
            edits_counter: Cell::new(0),
            failovers: Counter::new(),
            events: RefCell::new(Journal::disabled()),
            next_region_id: Cell::new(0),
            split_intents: RefCell::new(HashMap::new()),
            intents_persisted: Counter::new(),
            splits_applied: Counter::new(),
            splits_rolled_back: Counter::new(),
            merge_intents: RefCell::new(HashMap::new()),
            merge_intents_persisted: Counter::new(),
            merges_applied: Counter::new(),
            merges_rolled_back: Counter::new(),
            pending_move: RefCell::new(None),
            moves_started: Counter::new(),
            moves_completed: Counter::new(),
            moves_refused: Counter::new(),
            placement_cost: Counter::new(),
            placement_cost_naive: Counter::new(),
            registry: RefCell::new(None),
            timers: RefCell::new(Vec::new()),
            self_weak: RefCell::new(Weak::new()),
            replication_factor: Cell::new(1),
            repl_epochs: RefCell::new(HashMap::new()),
            repl_ineligible: RefCell::new(HashSet::new()),
            pending_recoveries: RefCell::new(HashMap::new()),
            repl_promotions: Counter::new(),
            repl_fallback_replays: Counter::new(),
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
            "/live/servers/",
            move |event| {
                if let cumulo_coord::WatchEvent::Deleted(path) = event {
                    if let Some(master) = weak.upgrade() {
                        if let Some(id) = parse_server_path(&path) {
                            master.handle_server_failure(id);
                        }
                    }
                }
            },
            |_| {},
        );
        let weak = Rc::downgrade(self);
        let timer = every(&self.sim, self.cfg.assign_retry_interval, move || {
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
    /// servers and opens them (cluster bootstrap). Also wires every
    /// registered server's split coordination back to this master and
    /// seeds the daughter-id allocator above the map's largest id.
    pub fn bootstrap(self: &Rc<Self>, map: RegionMap) {
        self.next_region_id
            .set(map.max_region_id().map(|r| r.0 + 1).unwrap_or(0));
        *self.region_map.borrow_mut() = map;
        for id in self.dir.ids() {
            if let Some(server) = self.dir.get(id) {
                server.set_split_coordinator(Rc::clone(self) as Rc<dyn SplitCoordinator>);
            }
        }
        let descs: Vec<RegionDescriptor> = self.region_map.borrow().regions().to_vec();
        let servers = self.dir.ids();
        assert!(
            !servers.is_empty(),
            "bootstrap requires at least one registered server"
        );
        let rf = self.replication_factor.get();
        if rf > 1 {
            for id in &servers {
                if let Some(server) = self.dir.get(*id) {
                    server.set_replication_coordinator(
                        Rc::clone(self) as Rc<dyn ReplicationCoordinator>
                    );
                }
            }
        }
        let mut assigned: Vec<(RegionId, ServerId)> = Vec::new();
        for (i, desc) in descs.into_iter().enumerate() {
            let target = servers[i % servers.len()];
            self.region_map.borrow_mut().assign(desc.id, target);
            assigned.push((desc.id, target));
            let server = self.dir.get(target).expect("registered");
            let node = server.node();
            self.net.send(self.node, node, 256, move || {
                server.open_region(desc, Vec::new(), Vec::new(), None);
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

    /// Installs the cluster-shared failure-event journal (disabled until
    /// then; standalone masters and unit tests record nothing).
    pub fn set_events_journal(&self, events: Journal) {
        *self.events.borrow_mut() = events;
    }

    /// Adopts the master's counters into `registry` under `master.*`
    /// keys. Cluster wiring; call once.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter("master.failovers", &[], &self.failovers);
        registry.register_counter(
            "master.split.intents_persisted",
            &[],
            &self.intents_persisted,
        );
        registry.register_counter("master.split.applied", &[], &self.splits_applied);
        registry.register_counter("master.split.rolled_back", &[], &self.splits_rolled_back);
        registry.register_counter(
            "master.merge.intents_persisted",
            &[],
            &self.merge_intents_persisted,
        );
        registry.register_counter("master.merge.applied", &[], &self.merges_applied);
        registry.register_counter("master.merge.rolled_back", &[], &self.merges_rolled_back);
        registry.register_counter("master.move.started", &[], &self.moves_started);
        registry.register_counter("master.move.completed", &[], &self.moves_completed);
        registry.register_counter("master.move.refused", &[], &self.moves_refused);
        registry.register_counter("master.placement.cost", &[], &self.placement_cost);
        registry.register_counter(
            "master.placement.cost_naive",
            &[],
            &self.placement_cost_naive,
        );
        registry.register_counter("master.repl.promotions", &[], &self.repl_promotions);
        registry.register_counter(
            "master.repl.fallback_replays",
            &[],
            &self.repl_fallback_replays,
        );
    }

    /// Handles a detected server failure: marks its regions offline,
    /// notifies the recovery hooks, splits the failed server's WAL and
    /// reassigns each region with its recovered edits (§2.1 + §3.2).
    ///
    /// Idempotent per server id.
    pub fn handle_server_failure(self: &Rc<Self>, failed: ServerId) {
        if !self.handled_failures.borrow_mut().insert(failed) {
            return;
        }
        self.failovers.inc();
        let regions = self.region_map.borrow().regions_of(failed);
        let count = regions.len();
        self.events
            .borrow()
            .record(self.sim.now(), "server.failover", move || {
                format!("server={failed} regions={count}")
            });
        // Roll back any split intent granted to the failed server. This
        // is always safe before the map flip: clients can only address
        // region ids the map has shown them, so no write was ever
        // acknowledged under a daughter id — the parent's WAL and store
        // files still cover everything, and the daughters' orphaned
        // reference markers are deleted below. (Once `split_completed`
        // has flipped the map, the intent is gone and the daughters
        // recover here like any other region.)
        let intents: Vec<SplitIntent> = {
            let mut pending = self.split_intents.borrow_mut();
            regions.iter().filter_map(|r| pending.remove(r)).collect()
        };
        for intent in intents {
            self.rollback_intent(intent);
        }
        // Merge intents granted to the failed server roll back under the
        // same argument: the map never flipped, so no client ever
        // addressed the merged id — both daughters' WALs and store files
        // are untouched and recover normally below.
        let merge_intents: Vec<MergeIntent> = {
            let mut pending = self.merge_intents.borrow_mut();
            let mut doomed: Vec<RegionId> = pending
                .iter()
                .filter(|(_, i)| i.server == failed)
                .map(|(k, _)| *k)
                .collect();
            // HashMap iteration order varies per process; roll back in
            // key order so runs with the same seed stay byte-identical.
            doomed.sort_unstable();
            doomed
                .into_iter()
                .filter_map(|k| pending.remove(&k))
                .collect()
        };
        // lint:allow(CD001, reason = "false positive: this `merge_intents` is the local Vec built above, already sorted by key — it shadows the map field of the same name")
        for intent in merge_intents {
            self.rollback_merge_intent(intent);
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
        split_wal(&self.dfs, &format!("/wal/{failed}"), move |grouped| {
            let Some(master) = weak.upgrade() else { return };
            // WAL records written before an online split are tagged with
            // the parent region id, which may no longer exist — re-route
            // every record against the current map before replay.
            let mut remapped = master.remap_wal_groups(grouped);
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

    /// Rolls a durable-but-uncompleted split intent back: the intent
    /// record and the daughters' orphaned reference markers are deleted;
    /// the region map was never touched.
    fn rollback_intent(&self, intent: SplitIntent) {
        self.splits_rolled_back.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "split.rollback", move || {
                format!("region={} server={}", intent.parent, intent.server)
            });
        self.dfs.delete(&format!("/split/{}", intent.parent));
        for daughter in [intent.bottom, intent.top] {
            // The dead server may have registered reference half-files
            // before crashing; purge them so the parent's physical files
            // do not carry inflated backing counts forever (which would
            // make them undeletable after a later successful split).
            if let Some(registry) = self.registry.borrow().as_ref() {
                registry.purge_references_under(&format!("/store/{daughter}/"));
            }
            let dfs = self.dfs.clone();
            self.dfs
                .clone()
                .list(&format!("/store/{daughter}/"), move |paths| {
                    for p in paths {
                        dfs.delete(&p);
                    }
                });
        }
    }

    /// Rolls a durable-but-uncompleted merge intent back: the intent
    /// record and the merged region's orphaned reference markers are
    /// deleted; the region map was never touched, so both daughters
    /// recover from their own untouched files.
    fn rollback_merge_intent(&self, intent: MergeIntent) {
        self.merges_rolled_back.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "merge.rollback", move || {
                format!(
                    "left={} right={} server={}",
                    intent.left, intent.right, intent.server
                )
            });
        self.dfs.delete(&format!("/merge/{}", intent.left));
        let merged = intent.merged;
        if let Some(registry) = self.registry.borrow().as_ref() {
            registry.purge_references_under(&format!("/store/{merged}/"));
        }
        let dfs = self.dfs.clone();
        self.dfs
            .clone()
            .list(&format!("/store/{merged}/"), move |paths| {
                for p in paths {
                    dfs.delete(&p);
                }
            });
    }

    /// Installs the shared store-file registry (cluster wiring) so split
    /// rollbacks can purge a crashed server's orphaned reference
    /// registrations. Without one, rollbacks only clean the filesystem.
    pub fn set_registry(&self, registry: Rc<StoreFileRegistry>) {
        *self.registry.borrow_mut() = Some(registry);
    }

    /// Re-groups a failed server's WAL records by the *current* region
    /// map: records tagged with a since-split parent id are partitioned
    /// at the daughter boundary (a record whose region still exists
    /// passes through untouched). Source groups are visited in sorted
    /// region order so the recovered-edits encoding stays byte-identical
    /// across processes.
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

    /// Places a region on the live server hosting the fewest regions;
    /// queues it for retry if no server is alive.
    ///
    /// Split WAL records are first persisted as a *recovered-edits file*
    /// in the filesystem (as HBase does), so that a cascading failure of
    /// the new host cannot lose them: the next recovery round re-reads
    /// them. The file is deleted once the region's memstore flushes.
    fn place_region(
        self: &Rc<Self>,
        region: RegionId,
        records: Vec<crate::codec::WalRecord>,
        failed: Option<ServerId>,
    ) {
        if records.is_empty() {
            self.place_region_with_edits(region, failed);
            return;
        }
        let n = self.edits_counter.get();
        self.edits_counter.set(n + 1);
        let path = format!("/recovered/{region}/{n:06}");
        let encoded = crate::codec::encode_wal_batch(&records);
        let weak = self.self_weak.borrow().clone();
        self.dfs.create(&path, move |file| {
            let Ok(file) = file else {
                // Already exists should be impossible (unique counter);
                // a failed create means no datanodes — retry via queue.
                if let Some(master) = weak.upgrade() {
                    master.unplaced.borrow_mut().push((region, records, failed));
                }
                return;
            };
            let weak = weak.clone();
            file.append(encoded, move |result| {
                let Some(master) = weak.upgrade() else { return };
                if result.is_err() {
                    master.unplaced.borrow_mut().push((region, records, failed));
                    return;
                }
                master.place_region_with_edits(region, failed);
            });
        });
    }

    /// Second placement phase: recovered edits (if any) are durable in the
    /// filesystem; choose a host and open the region there.
    ///
    /// Placement is *load-aware*: the least-loaded live server wins,
    /// where load is the cumulative foreground service time its assigned
    /// regions have charged (ties broken by server id, so placement is
    /// deterministic). Region counts are a poor proxy under skew — one
    /// hot region outweighs many cold ones, and it is exactly the hot
    /// parent's daughters this most often places.
    fn place_region_with_edits(self: &Rc<Self>, region: RegionId, failed: Option<ServerId>) {
        let target = {
            let map = self.region_map.borrow();
            let live_ids = self.dir.live_ids();
            // Before the indexed counts, each server's assigned-region
            // count was a full scan of the assignments map — O(servers ×
            // regions) per placement, the cliff a mass-split failover
            // storm runs into. The counter pair records the work actually
            // done vs what the scan would have cost, so the scale bench
            // can emit the before/after evidence.
            self.placement_cost.add(live_ids.len() as u64);
            self.placement_cost_naive
                .add((live_ids.len() * map.regions().len()) as u64);
            let mut live: Vec<(u64, ServerId)> = live_ids
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
            live.first().map(|(_, id)| *id)
        };
        let Some(target) = target else {
            self.unplaced
                .borrow_mut()
                .push((region, Vec::new(), failed));
            return;
        };
        let desc = self
            .region_map
            .borrow()
            .descriptor(region)
            .expect("region exists in the map")
            .clone();
        self.region_map.borrow_mut().assign(region, target);
        self.events
            .borrow()
            .record(self.sim.now(), "region.assign", move || {
                format!("region={region} server={target}")
            });
        let server = self.dir.get(target).expect("registered");
        let node = server.node();
        let dfs = self.dfs.clone();
        let net = Rc::clone(&self.net);
        let master_node = self.node;
        // Resolve the region's store files and recovered-edits files from
        // the filesystem namespace (the equivalent of listing the
        // region's HDFS directories).
        dfs.clone()
            .list(&format!("/store/{region}/"), move |paths| {
                dfs.list(&format!("/recovered/{region}/"), move |edits| {
                    net.send(master_node, node, 512, move || {
                        server.open_region(desc, paths, edits, failed);
                    });
                });
            });
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

    fn retry_unplaced(self: &Rc<Self>) {
        let pending: Vec<_> = self.unplaced.borrow_mut().drain(..).collect();
        for (region, records, failed) in pending {
            self.place_region(region, records, failed);
        }
    }

    /// Client RPC: current assignments (used to refresh location caches).
    pub fn get_assignments(&self) -> (u64, HashMap<RegionId, ServerId>) {
        let map = self.region_map.borrow();
        (map.epoch(), map.assignments().clone())
    }

    // ------------------------------------------------------------------
    // Online region splits (master side; see `SplitCoordinator`)
    // ------------------------------------------------------------------

    /// Split intents made durable in the filesystem.
    pub fn split_intents_persisted(&self) -> u64 {
        self.intents_persisted.get()
    }

    /// Splits applied to the region map.
    pub fn splits_applied(&self) -> u64 {
        self.splits_applied.get()
    }

    /// Split intents rolled back (server failed mid-split, marker writes
    /// failed, or the intent could not be persisted).
    pub fn splits_rolled_back(&self) -> u64 {
        self.splits_rolled_back.get()
    }

    /// Whether a split intent is currently outstanding for `region`.
    pub fn split_intent_outstanding(&self, region: RegionId) -> bool {
        self.split_intents.borrow().contains_key(&region)
    }

    /// Validates a server's split request; on success persists the
    /// intent and, once durable, tells the server to execute.
    fn handle_split_request(self: &Rc<Self>, server: ServerId, region: RegionId, split_key: Bytes) {
        let valid = {
            let map = self.region_map.borrow();
            let assigned_here = map.server_for(region) == Some(server);
            let inside = map
                .descriptor(region)
                .map(|d| {
                    split_key[..] > d.start[..]
                        && d.end.as_ref().map(|e| &split_key < e).unwrap_or(true)
                })
                .unwrap_or(false);
            assigned_here
                && inside
                && !self.handled_failures.borrow().contains(&server)
                && !self.split_intents.borrow().contains_key(&region)
                && !self.merge_involves(region)
        };
        if !valid {
            self.deny_split(server, region);
            return;
        }
        let bottom = RegionId(self.next_region_id.get());
        let top = RegionId(self.next_region_id.get() + 1);
        self.next_region_id.set(self.next_region_id.get() + 2);
        let intent = SplitIntent {
            parent: region,
            split_key: split_key.clone(),
            bottom,
            top,
            server,
        };
        // Record in memory first so a racing second request is denied;
        // the DFS record is written before the server may execute — the
        // durability point the crash-window analysis hinges on.
        self.split_intents
            .borrow_mut()
            .insert(region, intent.clone());
        let encoded = intent.encode();
        let weak = Rc::downgrade(self);
        self.dfs.create(&format!("/split/{region}"), move |file| {
            let Some(master) = weak.upgrade() else { return };
            let Ok(file) = file else {
                // Create can fail with AlreadyExists when an earlier
                // attempt's append died half-way and left the file
                // behind; delete it so the region is not permanently
                // split-blocked, then deny (the server re-requests).
                master.dfs.delete(&format!("/split/{region}"));
                master.split_intents.borrow_mut().remove(&region);
                master.deny_split(server, region);
                return;
            };
            let weak = weak.clone();
            file.append(encoded, move |result| {
                let Some(master) = weak.upgrade() else { return };
                if result.is_err() {
                    // The created-but-unwritten intent file would block
                    // every future split of this region (AlreadyExists).
                    master.dfs.delete(&format!("/split/{region}"));
                    master.split_intents.borrow_mut().remove(&region);
                    master.deny_split(server, region);
                    return;
                }
                master.intents_persisted.inc();
                master
                    .events
                    .borrow()
                    .record(master.sim.now(), "split.persisted", move || {
                        format!("region={region} server={server} bottom={bottom} top={top}")
                    });
                // The server may have died while the intent was being
                // written; its failover already rolled the intent back.
                if !master.split_intents.borrow().contains_key(&region) {
                    return;
                }
                let Some(target) = master.dir.get(server) else {
                    return;
                };
                let node = target.node();
                master.net.send(master.node, node, 96, move || {
                    target.execute_split(region, split_key, bottom, top);
                });
            });
        });
    }

    fn deny_split(&self, server: ServerId, region: RegionId) {
        let Some(target) = self.dir.get(server) else {
            return;
        };
        let node = target.node();
        self.net.send(self.node, node, 48, move || {
            target.split_request_denied(region);
        });
    }

    // ------------------------------------------------------------------
    // Online region merges (master side; see `SplitCoordinator`)
    // ------------------------------------------------------------------

    /// Merge intents made durable in the filesystem.
    pub fn merge_intents_persisted(&self) -> u64 {
        self.merge_intents_persisted.get()
    }

    /// Merges applied to the region map.
    pub fn merges_applied(&self) -> u64 {
        self.merges_applied.get()
    }

    /// Merge intents rolled back (server failed mid-merge, marker writes
    /// failed, or the intent could not be persisted).
    pub fn merges_rolled_back(&self) -> u64 {
        self.merges_rolled_back.get()
    }

    /// Whether a merge intent currently involves `region` (as either
    /// daughter).
    pub fn merge_involves(&self, region: RegionId) -> bool {
        self.merge_intents
            .borrow()
            .values()
            .any(|i| i.left == region || i.right == region)
    }

    /// Validates a server's merge request; on success persists the
    /// intent and, once durable, tells the server to execute. Valid
    /// requests name two regions that are adjacent in key order, both
    /// assigned to the requesting server, with no split or merge intent
    /// outstanding on either. Merging replicated regions is not
    /// supported: the daughters' shadow lanes would have to be collapsed
    /// too, and the scale campaign does not need the combination.
    fn handle_merge_request(self: &Rc<Self>, server: ServerId, left: RegionId, right: RegionId) {
        let valid = {
            let map = self.region_map.borrow();
            let assigned_here =
                map.server_for(left) == Some(server) && map.server_for(right) == Some(server);
            let adjacent = map
                .descriptor(left)
                .zip(map.descriptor(right))
                .map(|(l, r)| l.end.as_deref() == Some(&r.start[..]))
                .unwrap_or(false);
            let unreplicated =
                map.replicas_of(left).is_empty() && map.replicas_of(right).is_empty();
            let intents = self.split_intents.borrow();
            assigned_here
                && adjacent
                && unreplicated
                && !self.handled_failures.borrow().contains(&server)
                && !intents.contains_key(&left)
                && !intents.contains_key(&right)
                && !self.merge_involves(left)
                && !self.merge_involves(right)
        };
        if !valid {
            self.deny_merge(server, left);
            return;
        }
        let merged = RegionId(self.next_region_id.get());
        self.next_region_id.set(self.next_region_id.get() + 1);
        let intent = MergeIntent {
            left,
            right,
            merged,
            server,
        };
        // Record in memory first so a racing second request is denied;
        // the DFS record is written before the server may execute — the
        // same durability point as the split intent.
        self.merge_intents.borrow_mut().insert(left, intent.clone());
        let encoded = intent.encode();
        let weak = Rc::downgrade(self);
        self.dfs.create(&format!("/merge/{left}"), move |file| {
            let Some(master) = weak.upgrade() else { return };
            let Ok(file) = file else {
                // Create can fail with AlreadyExists when an earlier
                // attempt's append died half-way and left the file
                // behind; delete it so the pair is not permanently
                // merge-blocked, then deny (the server re-requests).
                master.dfs.delete(&format!("/merge/{left}"));
                master.merge_intents.borrow_mut().remove(&left);
                master.deny_merge(server, left);
                return;
            };
            let weak = weak.clone();
            file.append(encoded, move |result| {
                let Some(master) = weak.upgrade() else { return };
                if result.is_err() {
                    master.dfs.delete(&format!("/merge/{left}"));
                    master.merge_intents.borrow_mut().remove(&left);
                    master.deny_merge(server, left);
                    return;
                }
                master.merge_intents_persisted.inc();
                master
                    .events
                    .borrow()
                    .record(master.sim.now(), "merge.persisted", move || {
                        format!("left={left} right={right} server={server} merged={merged}")
                    });
                // The server may have died while the intent was being
                // written; its failover already rolled the intent back.
                if !master.merge_intents.borrow().contains_key(&left) {
                    return;
                }
                let Some(target) = master.dir.get(server) else {
                    return;
                };
                let node = target.node();
                master.net.send(master.node, node, 96, move || {
                    target.execute_merge(left, right, merged);
                });
            });
        });
    }

    fn deny_merge(&self, server: ServerId, left: RegionId) {
        let Some(target) = self.dir.get(server) else {
            return;
        };
        let node = target.node();
        self.net.send(self.node, node, 48, move || {
            target.merge_request_denied(left);
        });
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
                .filter(|r| {
                    !self.split_intents.borrow().contains_key(r)
                        && !self.merge_involves(*r)
                        && map.replicas_of(*r).is_empty()
                })
                .map(|r| (donor.region_load_ns(r), r))
                .max_by(|a, b| (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1))));
            candidate.map(|(_, region)| (region, hot, cold))
        };
        let Some((region, donor, target)) = picked else {
            return;
        };
        *self.pending_move.borrow_mut() = Some((region, donor, target));
        self.moves_started.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "move.start", move || {
                format!("region={region} donor={donor} target={target}")
            });
        let Some(server) = self.dir.get(donor) else {
            self.pending_move.borrow_mut().take();
            return;
        };
        let node = server.node();
        let done: Box<dyn FnOnce(bool)> = {
            let weak = Rc::downgrade(self);
            let net = Rc::clone(&self.net);
            let mnode = self.node;
            Box::new(move |ok| {
                net.send(node, mnode, 48, move || {
                    if let Some(master) = weak.upgrade() {
                        master.move_closed(region, donor, ok);
                    }
                });
            })
        };
        self.net.send(self.node, node, 64, move || {
            server.prepare_move(region, done);
        });
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
            self.place_region_with_edits(region, None);
            return;
        }
        self.region_map.borrow_mut().assign(region, target);
        self.moves_completed.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "move.open", move || {
                format!("region={region} donor={donor} target={target}")
            });
        let desc = self
            .region_map
            .borrow()
            .descriptor(region)
            .expect("region exists in the map")
            .clone();
        let server = self.dir.get(target).expect("alive implies registered");
        let node = server.node();
        let dfs = self.dfs.clone();
        let net = Rc::clone(&self.net);
        let master_node = self.node;
        dfs.clone()
            .list(&format!("/store/{region}/"), move |paths| {
                net.send(master_node, node, 512, move || {
                    server.open_region(desc, paths, Vec::new(), None);
                });
            });
    }

    // ------------------------------------------------------------------
    // Region replication (master side; see `ReplicationCoordinator`)
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
        self.repl_ineligible
            .borrow_mut()
            .retain(|(r, e, _)| *r != region || *e >= epoch);
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
        self.events
            .borrow()
            .record(self.sim.now(), "replication.establish", move || {
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
            self.events
                .borrow()
                .record(self.sim.now(), "replication.repair", move || {
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
        const PROBE_DEADLINE: SimDuration = SimDuration::from_millis(500);
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
            let bid = backup.id();
            let bnode = backup.node();
            let reply: Box<dyn FnOnce(u64, u64, bool)> = {
                let weak = Rc::downgrade(self);
                let net = Rc::clone(&self.net);
                let mnode = self.node;
                Box::new(move |epoch, seq, synced| {
                    net.send(bnode, mnode, 48, move || {
                        if let Some(master) = weak.upgrade() {
                            master.probe_reply(region, bid, epoch, seq, synced);
                        }
                    });
                })
            };
            self.net.send(self.node, bnode, 48, move || {
                backup.query_replica(region, reply);
            });
        }
        let weak = Rc::downgrade(self);
        self.sim.schedule_in(PROBE_DEADLINE, move || {
            if let Some(master) = weak.upgrade() {
                master.conclude_probe(region);
            }
        });
    }

    fn probe_reply(
        self: &Rc<Self>,
        region: RegionId,
        backup: ServerId,
        epoch: u64,
        seq: u64,
        synced: bool,
    ) {
        let ready = {
            let mut pending = self.pending_recoveries.borrow_mut();
            let Some(p) = pending.get_mut(&region) else {
                return;
            };
            if p.probe_done {
                return;
            }
            p.replies.push((backup, epoch, seq, synced));
            p.replies.len() >= p.expected
        };
        if ready {
            self.conclude_probe(region);
        }
    }

    /// Decides promotion vs replay fallback. Eligible replicas must be
    /// alive, in sync *at the currently established epoch*, and not in
    /// the ineligibility set; the most caught-up wins (ties to the lower
    /// server id).
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
            let mut eligible: Vec<(u64, ServerId)> = p
                .replies
                .iter()
                .filter(|(b, e, _, synced)| {
                    *synced
                        && *e == current_epoch
                        && !ineligible.contains(&(region, *e, *b))
                        && self.dir.get(*b).map(|s| s.is_alive()).unwrap_or(false)
                })
                .map(|(b, _, seq, _)| (*seq, *b))
                .collect();
            eligible.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let winner = eligible.first().map(|(_, b)| *b);
            p.promoted = winner.is_some();
            (p.failed, winner)
        };
        match winner {
            Some(winner) => {
                self.repl_promotions.inc();
                self.events
                    .borrow()
                    .record(self.sim.now(), "replication.promote", move || {
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
                self.events
                    .borrow()
                    .record(self.sim.now(), "replication.fallback", move || {
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

    /// The WAL split delivered `region`'s recovered records: replayed on
    /// the fallback path, discarded after a promotion (the promoted
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
}

impl SplitCoordinator for Master {
    fn node(&self) -> NodeId {
        self.node
    }

    fn request_split(&self, server: ServerId, region: RegionId, split_key: Bytes) {
        if let Some(master) = self.self_weak.borrow().upgrade() {
            master.handle_split_request(server, region, split_key);
        }
    }

    fn split_completed(&self, server: ServerId, parent: RegionId) {
        // A failover that raced ahead has already rolled the intent back
        // (and this message came from a now-dead server): ignore.
        let intent = {
            let intents = self.split_intents.borrow();
            match intents.get(&parent) {
                Some(i) if i.server == server => Some(i.clone()),
                _ => None,
            }
        };
        let Some(intent) = intent else { return };
        if self.handled_failures.borrow().contains(&server) {
            return;
        }
        let applied = self.region_map.borrow_mut().apply_split(
            parent,
            &intent.split_key,
            intent.bottom,
            intent.top,
        );
        if !applied {
            return;
        }
        self.split_intents.borrow_mut().remove(&parent);
        self.splits_applied.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "split.applied", move || {
                format!(
                    "region={parent} bottom={} top={}",
                    intent.bottom, intent.top
                )
            });
        self.dfs.delete(&format!("/split/{parent}"));
        self.hooks
            .borrow()
            .on_region_split(parent, intent.bottom, intent.top);
        // The daughters inherited the parent's replicas in the map;
        // rebuild their groups under the bumped epoch (the server already
        // moved its lanes and closed the parent shadows at the flip).
        if self.replication_factor.get() > 1 {
            if let Some(master) = self.self_weak.borrow().upgrade() {
                master.repl_epochs.borrow_mut().remove(&parent);
                for daughter in [intent.bottom, intent.top] {
                    if !master.region_map.borrow().replicas_of(daughter).is_empty() {
                        master.establish_group(daughter);
                    }
                }
            }
        }
    }

    fn split_aborted(&self, server: ServerId, parent: RegionId) {
        let intent = {
            let mut intents = self.split_intents.borrow_mut();
            match intents.get(&parent) {
                Some(i) if i.server == server => intents.remove(&parent),
                _ => None,
            }
        };
        if let Some(intent) = intent {
            self.rollback_intent(intent);
        }
    }

    fn request_merge(&self, server: ServerId, left: RegionId, right: RegionId) {
        if let Some(master) = self.self_weak.borrow().upgrade() {
            master.handle_merge_request(server, left, right);
        }
    }

    fn merge_completed(&self, server: ServerId, left: RegionId) {
        // A failover that raced ahead has already rolled the intent back
        // (and this message came from a now-dead server): ignore.
        let intent = {
            let intents = self.merge_intents.borrow();
            match intents.get(&left) {
                Some(i) if i.server == server => Some(i.clone()),
                _ => None,
            }
        };
        let Some(intent) = intent else { return };
        if self.handled_failures.borrow().contains(&server) {
            return;
        }
        let applied =
            self.region_map
                .borrow_mut()
                .apply_merge(intent.left, intent.right, intent.merged);
        if !applied {
            return;
        }
        self.merge_intents.borrow_mut().remove(&left);
        self.merges_applied.inc();
        self.events
            .borrow()
            .record(self.sim.now(), "merge.applied", move || {
                format!(
                    "left={} right={} merged={}",
                    intent.left, intent.right, intent.merged
                )
            });
        self.dfs.delete(&format!("/merge/{left}"));
        self.hooks
            .borrow()
            .on_region_merged(intent.left, intent.right, intent.merged);
    }

    fn merge_aborted(&self, server: ServerId, left: RegionId) {
        let intent = {
            let mut intents = self.merge_intents.borrow_mut();
            match intents.get(&left) {
                Some(i) if i.server == server => intents.remove(&left),
                _ => None,
            }
        };
        if let Some(intent) = intent {
            self.rollback_merge_intent(intent);
        }
    }
}

impl ReplicationCoordinator for Master {
    fn node(&self) -> NodeId {
        self.node
    }

    fn replica_unsynced(
        &self,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        done: Box<dyn FnOnce(bool)>,
    ) {
        // A report under an older epoch than the currently established
        // group comes from a stale ex-primary (it resurfaced after a
        // promotion it never saw). Acking would let it un-gate and hand
        // out write acks for a region it no longer owns — direct it to
        // fence itself instead.
        let current = self.repl_epochs.borrow().get(&region).copied();
        let stale = current.map(|c| epoch < c).unwrap_or(true);
        if stale {
            self.events
                .borrow()
                .record(self.sim.now(), "replication.stale_report", move || {
                    format!("region={region} epoch={epoch} backup={backup}")
                });
            done(true);
            return;
        }
        self.repl_ineligible
            .borrow_mut()
            .insert((region, epoch, backup));
        self.events
            .borrow()
            .record(self.sim.now(), "replication.ineligible", move || {
                format!("region={region} epoch={epoch} backup={backup}")
            });
        // Acking *after* recording is the soundness point: the primary
        // releases gates only once this backup can no longer win a
        // promotion at this epoch.
        done(false);
    }

    fn replica_synced(&self, region: RegionId, epoch: u64, backup: ServerId) {
        if self
            .repl_ineligible
            .borrow_mut()
            .remove(&(region, epoch, backup))
        {
            self.events
                .borrow()
                .record(self.sim.now(), "replication.eligible", move || {
                    format!("region={region} epoch={epoch} backup={backup}")
                });
        }
    }
}

fn parse_server_path(path: &str) -> Option<ServerId> {
    let name = path.rsplit('/').next()?;
    let digits = name.strip_prefix("rs")?;
    digits.parse().ok().map(ServerId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_server_paths() {
        assert_eq!(parse_server_path("/live/servers/rs3"), Some(ServerId(3)));
        assert_eq!(parse_server_path("/live/servers/rs12"), Some(ServerId(12)));
        assert_eq!(parse_server_path("/live/servers/garbage"), None);
        assert_eq!(parse_server_path("/live/servers/rsX"), None);
    }
}

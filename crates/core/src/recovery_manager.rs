//! The recovery manager — the paper's central middleware service
//! (Algorithms 2 and 4, plus the §3.3 treatment of its own failure).
//!
//! It tracks per-client flushed thresholds `T_F(c)` and per-server
//! persisted thresholds `T_P(s)` from heartbeats exchanged through the
//! coordination service, maintains the global thresholds
//! `T_F = min_c T_F(c)` and `T_P = min_s T_P(s)`, detects client failures
//! (missed heartbeats → session expiry), coordinates with the store's
//! master for server failures, replays interrupted commits from the
//! transaction manager's log via the recovery client, truncates the log
//! below `T_P`, and — because its only state is the thresholds, which
//! live in the coordination service — can crash and be restarted without
//! stopping transaction processing.
//!
//! ## Watermark invariants relied on here
//!
//! The replay bounds are only correct because the publishers maintain
//! their local invariants (see ARCHITECTURE.md for the full protocol):
//!
//! * client recovery replays `(T_F(c), ∞)` — sound because every local
//!   commit ≤ `T_F(c)` is fully flushed ([`crate::FlushTracker`]);
//! * server recovery replays `(T_P(s_f), ∞)` per region — sound because
//!   every commit ≤ `T_P(s_f)` involving `s_f` is durable in its WAL on
//!   the filesystem ([`crate::PersistTracker`]), i.e. in the store file
//!   the master's WAL split writes for the region's next host;
//! * log truncation below `T_P = min_s T_P(s)` destroys only records
//!   every participant has persisted — and the store's compaction
//!   tombstone purge is in turn fenced by the truncation point, so a
//!   replay can never resurrect a purged-over version.
//!
//! ## Server recovery is staged once per failed server
//!
//! Everything the replay needs that does not depend on where a region
//! lands — the per-region floors, durable in the coordination service,
//! and the log suffix above the lowest of them — is gathered once, when
//! the master reports the failure, while the master is still splitting
//! the dead server's WAL. A region's new host then only has to report in
//! for its share to be cut out of the staged suffix (by *its*
//! descriptor) and replayed. Staging is volatile: a restarted manager
//! rebuilds it when the first host reports in.

use crate::paths;
use crate::recovery_client::RecoveryClient;
use bytes::Bytes;
use cumulo_coord::{CoordClient, WatchEvent};
use cumulo_sim::metrics::Counter;
use cumulo_sim::{every, Network, NodeId, Sim, SimDuration, TimerHandle};
use cumulo_store::{ClientId, Mutation, RegionId, RegionServer, ServerId, Timestamp};
use cumulo_txn::{LogRecord, TmClient};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::{Rc, Weak};

/// Checkpoint period: recompute `T_P`, truncate the log, republish
/// thresholds.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Recovery-manager settings (both fanned out from `ClusterConfig`).
#[derive(Copy, Clone, Debug)]
pub struct RecoveryManagerConfig {
    /// Whether log truncation below `T_P` runs (§3.2).
    pub truncation: bool,
    /// Whether threshold tracking is honoured. When disabled (ablation),
    /// every recovery replays from the beginning of the log.
    pub tracking: bool,
}

struct RegionTask {
    generation: u64,
    /// The region's new host.
    server: Rc<RegionServer>,
    /// The server whose failure this recovers the region from.
    failed: ServerId,
    /// Deferred online declarations (shared with the hook's retry loop).
    online: Rc<RefCell<Option<Box<dyn FnOnce()>>>>,
    /// The replay floor (pins `T_P`); provisional until the replay has
    /// been cut from the failed server's staging.
    floor: Timestamp,
    /// The region's share of the staged suffix has been handed to the
    /// recovery client.
    replaying: bool,
    /// True when the region arrived via replica promotion rather than a
    /// WAL split: the same floor/replay machinery runs (the replay is
    /// idempotent), but the recovery is counted and journaled as a
    /// promotion epoch.
    promoted: bool,
}

/// The transactional replay of one failed server's regions, staged once
/// (module docs).
struct StagedReplay {
    /// Tells this staging from one it superseded.
    generation: u64,
    /// Effective replay floor per region: the failed server's `T_P(s)`,
    /// lowered to the floor an interrupted earlier recovery of the region
    /// persisted (cascading failure; ARCHITECTURE.md, server failure).
    floors: BTreeMap<RegionId, Timestamp>,
    /// The log suffix above the lowest floor. `None` until it arrives,
    /// which is after every floor is durable in the coordination service
    /// — so no replay is ever sent under a floor a restarted manager
    /// could not find again.
    suffix: Option<Rc<Vec<LogRecord>>>,
}

/// The recovery manager. Shared via `Rc`.
pub struct RecoveryManager {
    sim: Sim,
    net: Rc<Network>,
    node: NodeId,
    coord: CoordClient,
    tm: TmClient,
    rc: Rc<RecoveryClient>,
    cfg: RecoveryManagerConfig,
    /// `T_F_r(c)` per registered client.
    clients: RefCell<BTreeMap<ClientId, Timestamp>>,
    /// `T_P_r(s)` per registered server (failed servers stay until all
    /// their regions have been recovered).
    servers: RefCell<BTreeMap<ServerId, Timestamp>>,
    /// Virtual registrations pinning `T_F` during client recoveries (the
    /// recovery client acts as a tracked client; ARCHITECTURE.md, client failure).
    pins: RefCell<BTreeMap<u64, Timestamp>>,
    next_pin: Cell<u64>,
    /// In-progress region recoveries (also pin `T_P` via their floors).
    region_tasks: RefCell<HashMap<RegionId, RegionTask>>,
    next_generation: Cell<u64>,
    /// Regions of each failed server still awaiting recovery.
    pending_regions: RefCell<BTreeMap<ServerId, BTreeSet<RegionId>>>,
    /// The staged replay of each failed server (volatile).
    staged: RefCell<BTreeMap<ServerId, StagedReplay>>,
    t_f: Cell<Timestamp>,
    t_p: Cell<Timestamp>,
    last_truncated: Cell<Timestamp>,
    alive: Cell<bool>,
    timers: RefCell<Vec<TimerHandle>>,
    client_recoveries: Counter,
    region_recoveries: Counter,
    promotion_recoveries: Counter,
    truncations: Counter,
    self_weak: RefCell<Weak<RecoveryManager>>,
}

impl fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryManager")
            .field("node", &self.node)
            .field("alive", &self.alive.get())
            .field("t_f", &self.t_f.get())
            .field("t_p", &self.t_p.get())
            .field("clients", &self.clients.borrow().len())
            .field("servers", &self.servers.borrow().len())
            .finish()
    }
}

impl RecoveryManager {
    /// Creates the recovery manager on `node`; `rc` is its recovery
    /// client (bound to the same node). Its counters are the run's
    /// `rm.*` metrics, so a [`Sim`] takes one manager.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        node: NodeId,
        coord: CoordClient,
        tm: TmClient,
        rc: Rc<RecoveryClient>,
        cfg: RecoveryManagerConfig,
    ) -> Rc<RecoveryManager> {
        let metrics = sim.metrics();
        let rm = Rc::new(RecoveryManager {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            coord,
            tm,
            rc,
            cfg,
            clients: RefCell::new(BTreeMap::new()),
            servers: RefCell::new(BTreeMap::new()),
            pins: RefCell::new(BTreeMap::new()),
            next_pin: Cell::new(0),
            region_tasks: RefCell::new(HashMap::new()),
            next_generation: Cell::new(0),
            pending_regions: RefCell::new(BTreeMap::new()),
            staged: RefCell::new(BTreeMap::new()),
            t_f: Cell::new(Timestamp::ZERO),
            t_p: Cell::new(Timestamp::ZERO),
            last_truncated: Cell::new(Timestamp::ZERO),
            alive: Cell::new(true),
            timers: RefCell::new(Vec::new()),
            client_recoveries: metrics.counter("rm.client_recoveries", &[]),
            region_recoveries: metrics.counter("rm.region_recoveries", &[]),
            promotion_recoveries: metrics.counter("rm.promotion_recoveries", &[]),
            truncations: metrics.counter("rm.truncations", &[]),
            self_weak: RefCell::new(Weak::new()),
        });
        *rm.self_weak.borrow_mut() = Rc::downgrade(&rm);
        rm
    }

    /// Registers the coordination watches, publishes the initial
    /// thresholds and starts the checkpoint timer.
    pub fn start(self: &Rc<Self>) {
        self.coord
            .set_data(paths::TF_PATH, paths::encode_ts(self.t_f.get()));
        self.coord
            .set_data(paths::TP_PATH, paths::encode_ts(self.t_p.get()));

        self.watch("/live/clients/", |rm, event| match event {
            WatchEvent::Created(path) => {
                if let Some(c) = paths::parse_client_path(path) {
                    rm.on_client_up(c);
                }
            }
            WatchEvent::Deleted(path) => {
                if let Some(c) = paths::parse_client_path(path) {
                    rm.on_client_down(c);
                }
            }
            WatchEvent::DataChanged(_) => {}
        });
        // Server deletions are driven by the master's hook (it must split
        // the WAL and reassign regions first).
        self.watch(ServerId::LIVE_PREFIX, |rm, event| {
            if let WatchEvent::Created(path) = event {
                if let Some(s) = ServerId::from_path(path) {
                    rm.on_server_up(s, |_| {});
                }
            }
        });
        self.watch("/thresholds/", |rm, event| match event {
            WatchEvent::Created(path) | WatchEvent::DataChanged(path) => {
                rm.refresh_threshold(path.clone());
            }
            WatchEvent::Deleted(_) => {}
        });
        self.arm_checkpoint_timer();
    }

    /// Passes every event under `prefix` to `on_event` while the process
    /// lives. The registration outlives a crash — the coordination service
    /// keeps it, and only the events sent while the node is down are lost —
    /// so a restart does not register again.
    fn watch(self: &Rc<Self>, prefix: &str, on_event: impl Fn(&Rc<Self>, &WatchEvent) + 'static) {
        let weak = Rc::downgrade(self);
        self.coord.watch_prefix(
            prefix,
            move |event| {
                if let Some(rm) = weak.upgrade().filter(|rm| rm.alive.get()) {
                    on_event(&rm, &event);
                }
            },
            |_| {},
        );
    }

    /// Checkpoints every [`CHECKPOINT_INTERVAL`] while the process lives.
    fn arm_checkpoint_timer(self: &Rc<Self>) {
        let weak = Rc::downgrade(self);
        let timer = every(&self.sim, CHECKPOINT_INTERVAL, move || {
            if let Some(rm) = weak.upgrade() {
                if rm.alive.get() {
                    rm.checkpoint();
                }
            }
        });
        self.timers.borrow_mut().push(timer);
    }

    /// The node the recovery manager runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the process is alive.
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }

    /// The global flushed threshold `T_F`.
    pub fn t_f(&self) -> Timestamp {
        self.t_f.get()
    }

    /// The global persisted threshold `T_P` (the log-truncation point).
    pub fn t_p(&self) -> Timestamp {
        self.t_p.get()
    }

    /// Client recoveries performed.
    pub fn client_recovery_count(&self) -> u64 {
        self.client_recoveries.get()
    }

    /// Region recoveries performed (server recovery is per affected
    /// region).
    pub fn region_recovery_count(&self) -> u64 {
        self.region_recoveries.get()
    }

    /// Log truncations issued.
    pub fn truncation_count(&self) -> u64 {
        self.truncations.get()
    }

    /// The recovery client.
    pub fn recovery_client(&self) -> &Rc<RecoveryClient> {
        &self.rc
    }

    /// Records `kind` in the failure-event journal: the one door the
    /// manager's events leave through. `detail` obeys the journal's
    /// capture-values rule.
    fn event(&self, kind: &'static str, detail: impl Fn() -> String + 'static) {
        self.sim.events().record(self.sim.now(), kind, detail);
    }

    // ------------------------------------------------------------------
    // Registration and thresholds
    // ------------------------------------------------------------------

    fn on_client_up(self: &Rc<Self>, c: ClientId) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::client_threshold(c), move |data| {
                let ts = data
                    .map(|d| paths::decode_ts(&d))
                    .unwrap_or(Timestamp::ZERO);
                this.clients.borrow_mut().insert(c, ts);
                this.recompute_t_f();
            });
    }

    /// A client's liveness node vanished: a clean shutdown deleted its
    /// threshold first (unregister); a crash left the threshold behind —
    /// recover from it (Algorithm 2 "On failure(c)").
    fn on_client_down(self: &Rc<Self>, c: ClientId) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::client_threshold(c), move |data| {
                match (data, this.cfg.tracking) {
                    (Some(d), true) => this.recover_client(c, paths::decode_ts(&d)),
                    // Without tracking there is no threshold to go by and no
                    // telling a clean shutdown from a crash: replay from the
                    // beginning.
                    (_, false) => this.recover_client(c, Timestamp::ZERO),
                    (None, true) => {
                        // Clean unregister.
                        this.clients.borrow_mut().remove(&c);
                        this.recompute_t_f();
                    }
                }
            });
    }

    /// Registers `s` at the threshold it reported, then runs `then` in the
    /// same reply.
    fn on_server_up(self: &Rc<Self>, s: ServerId, then: impl FnOnce(&Rc<Self>) + 'static) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::server_threshold(s), move |data| {
                let ts = data
                    .map(|d| paths::decode_ts(&d))
                    .unwrap_or(Timestamp::ZERO);
                this.servers.borrow_mut().insert(s, ts);
                this.recompute_t_p();
                then(&this);
            });
    }

    fn refresh_threshold(self: &Rc<Self>, path: String) {
        let this = Rc::clone(self);
        let path2 = path.clone();
        self.coord.get_data(&path2, move |data| {
            let Some(d) = data else { return };
            let ts = paths::decode_ts(&d);
            if path.starts_with("/thresholds/clients/") {
                if let Some(c) = paths::parse_client_path(&path) {
                    if let Some(entry) = this.clients.borrow_mut().get_mut(&c) {
                        if ts > *entry {
                            *entry = ts;
                        }
                    }
                    this.recompute_t_f();
                }
            } else if path.starts_with("/thresholds/servers/") {
                if let Some(s) = ServerId::from_path(&path) {
                    let mut servers = this.servers.borrow_mut();
                    match servers.get_mut(&s) {
                        // Floors may legitimately *lower* a server's
                        // threshold (replay inheritance), so take the
                        // reported value as-is.
                        Some(entry) => *entry = ts,
                        None => {
                            servers.insert(s, ts);
                        }
                    }
                    drop(servers);
                    this.recompute_t_p();
                }
            }
        });
    }

    /// `T_F = min over clients (and recovery pins) of T_F(c)`.
    fn recompute_t_f(&self) {
        let clients = self.clients.borrow();
        let pins = self.pins.borrow();
        let min = clients.values().chain(pins.values()).min().copied();
        let Some(min) = min else { return };
        if min > self.t_f.get() {
            self.t_f.set(min);
            self.event("threshold.tf", move || format!("t_f={}", min.0));
            self.coord.set_data(paths::TF_PATH, paths::encode_ts(min));
        }
    }

    /// `T_P = min over servers (and active region-recovery floors)`.
    fn recompute_t_p(&self) {
        let servers = self.servers.borrow();
        let tasks = self.region_tasks.borrow();
        let min = servers
            .values()
            .copied()
            .chain(tasks.values().map(|t| t.floor))
            .min();
        let Some(min) = min else { return };
        if min > self.t_p.get() {
            self.t_p.set(min);
            self.event("threshold.tp", move || format!("t_p={}", min.0));
            self.coord.set_data(paths::TP_PATH, paths::encode_ts(min));
        }
    }

    /// Checkpoint tick: republish `T_P` and truncate the log below it.
    fn checkpoint(self: &Rc<Self>) {
        self.recompute_t_p();
        let t_p = self.t_p.get();
        if self.cfg.truncation && t_p > self.last_truncated.get() {
            self.last_truncated.set(t_p);
            self.truncations.inc();
            self.event("log.truncate", move || format!("below={}", t_p.0));
            self.tm.truncate_below(t_p);
        }
    }

    // ------------------------------------------------------------------
    // Client recovery (Algorithm 2)
    // ------------------------------------------------------------------

    fn recover_client(self: &Rc<Self>, c: ClientId, t_f_r: Timestamp) {
        self.client_recoveries.inc();
        self.event("client.recover", move || {
            format!("client={c} t_f_r={}", t_f_r.0)
        });
        // Pin the global T_F at the dead client's threshold: the recovery
        // client now vouches for the interrupted flushes.
        let pin = self.next_pin.get();
        self.next_pin.set(pin + 1);
        self.pins.borrow_mut().insert(pin, t_f_r);
        self.clients.borrow_mut().remove(&c);
        self.recompute_t_f();

        // Reap the client's open transactions and fetch its
        // committed-but-possibly-unflushed suffix.
        let this = Rc::clone(self);
        self.tm.reap_and_fetch_client(c, t_f_r, move |records| {
            if !this.alive.get() {
                return;
            }
            let this2 = Rc::clone(&this);
            let rc = Rc::clone(&this.rc);
            rc.replay_client_log(
                records,
                Box::new(move || {
                    this2.pins.borrow_mut().remove(&pin);
                    this2.recompute_t_f();
                    // Unregister the dead client permanently.
                    this2.coord.delete(&paths::client_threshold(c));
                }),
            );
        });
    }

    // ------------------------------------------------------------------
    // Server recovery (Algorithm 4)
    // ------------------------------------------------------------------

    /// Master hook: server `failed` died and its `regions` are being
    /// reassigned. Records the pending-recovery set and stages their
    /// replay (idempotent).
    pub fn note_server_failed(self: &Rc<Self>, failed: ServerId, regions: Vec<RegionId>) {
        if self.pending_regions.borrow().contains_key(&failed) {
            return;
        }
        let set: BTreeSet<RegionId> = regions.iter().copied().collect();
        self.coord.set_data(
            &paths::pending_recovery(failed),
            paths::encode_regions(&regions),
        );
        self.pending_regions
            .borrow_mut()
            .insert(failed, set.clone());
        if set.is_empty() {
            self.finish_failed_server(failed);
        } else {
            self.stage_replay(failed, set);
        }
    }

    fn next_generation(&self) -> u64 {
        let generation = self.next_generation.get();
        self.next_generation.set(generation + 1);
        generation
    }

    /// The failed server's last reported `T_P(s)`: what its regions
    /// replay from, unless an earlier recovery left a lower floor.
    fn failed_threshold(&self, failed: ServerId) -> Timestamp {
        let tracked = self.servers.borrow().get(&failed).copied();
        tracked
            .filter(|_| self.cfg.tracking)
            .unwrap_or(Timestamp::ZERO)
    }

    /// `failed`'s staging, if it is still the one `generation` names.
    fn staging(
        staged: &mut BTreeMap<ServerId, StagedReplay>,
        failed: ServerId,
        generation: u64,
    ) -> Option<&mut StagedReplay> {
        staged
            .get_mut(&failed)
            .filter(|st| st.generation == generation)
    }

    /// Stages the replay of `failed`'s `regions` (replacing any earlier
    /// staging of that server): combines each region's floor with the one
    /// an interrupted earlier recovery persisted, persists the effective
    /// floors, and fetches the log suffix above the lowest — once, not
    /// once per region. Regions whose hosts report in meanwhile start
    /// when the suffix lands.
    fn stage_replay(self: &Rc<Self>, failed: ServerId, regions: BTreeSet<RegionId>) {
        let generation = self.next_generation();
        let t_p_r = self.failed_threshold(failed);
        self.staged.borrow_mut().insert(
            failed,
            StagedReplay {
                generation,
                floors: regions.iter().map(|r| (*r, t_p_r)).collect(),
                suffix: None,
            },
        );
        let unread = Rc::new(Cell::new(regions.len()));
        for region in regions {
            let this = Rc::clone(self);
            let unread = Rc::clone(&unread);
            self.coord
                .get_data(&paths::region_floor(region), move |stored| {
                    let mut staged = this.staged.borrow_mut();
                    let Some(st) = Self::staging(&mut staged, failed, generation) else {
                        return; // superseded, or lost in a crash
                    };
                    if let (Some(prior), Some(floor)) = (stored, st.floors.get_mut(&region)) {
                        *floor = (*floor).min(paths::decode_ts(&prior));
                    }
                    unread.set(unread.get() - 1);
                    if unread.get() == 0 {
                        let floors = st.floors.clone();
                        drop(staged);
                        this.fetch_staged_suffix(failed, generation, floors);
                    }
                });
        }
    }

    /// Second half of [`RecoveryManager::stage_replay`]: `floors` are
    /// final; make them durable, then fetch the suffix above the lowest.
    fn fetch_staged_suffix(
        self: &Rc<Self>,
        failed: ServerId,
        generation: u64,
        floors: BTreeMap<RegionId, Timestamp>,
    ) {
        let (Some((&last_region, _)), Some(&lowest)) =
            (floors.last_key_value(), floors.values().min())
        else {
            return;
        };
        for (region, floor) in &floors {
            self.coord
                .set_data(&paths::region_floor(*region), paths::encode_ts(*floor));
        }
        // The read is a write barrier: messages to the coordination
        // service arrive in order, so when it returns every floor above is
        // durable there — before the suffix is fetched, so before any
        // replay is sent.
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::region_floor(last_region), move |_| {
                let tm = this.tm.clone();
                tm.fetch_after(lowest, move |records| {
                    this.suffix_staged(failed, generation, lowest, records);
                });
            });
    }

    /// The staged suffix arrived: journal it and start every region of
    /// `failed` whose host has already reported in.
    fn suffix_staged(
        self: &Rc<Self>,
        failed: ServerId,
        generation: u64,
        lowest: Timestamp,
        records: Vec<LogRecord>,
    ) {
        {
            let mut staged = self.staged.borrow_mut();
            let Some(st) = Self::staging(&mut staged, failed, generation) else {
                return;
            };
            let (regions, count) = (st.floors.len(), records.len());
            st.suffix = Some(Rc::new(records));
            self.event("recovery.staged", move || {
                format!(
                    "server={failed} regions={regions} records={count} floor={}",
                    lowest.0
                )
            });
        }
        // Sorted: `HashMap` order must not pick which replay goes first.
        let mut waiting: Vec<RegionId> = self
            .region_tasks
            .borrow()
            .iter()
            .filter(|(_, task)| task.failed == failed && !task.replaying)
            .map(|(region, _)| *region)
            .collect();
        waiting.sort_unstable();
        for region in waiting {
            self.start_region_replay(region);
        }
    }

    /// Region hook: `region` finished HBase-internal recovery on `server`
    /// after `failed`'s crash; replay its share of the staged log suffix,
    /// then let it go online. `online` is shared with the hook's retry
    /// loop — taken exactly once, when the replay completes.
    pub fn handle_region_recovered(
        self: &Rc<Self>,
        server: Rc<RegionServer>,
        region: RegionId,
        failed: ServerId,
        promoted: bool,
        online: Rc<RefCell<Option<Box<dyn FnOnce()>>>>,
    ) {
        if !self.alive.get() || !server.is_alive() {
            return;
        }
        // Duplicate notification for an in-progress task on the same
        // target: the retry loop re-delivered; nothing to do.
        if let Some(task) = self.region_tasks.borrow().get(&region) {
            if task.server.id() == server.id() {
                return;
            }
        }
        // Late duplicate after completion: the region is already online.
        if server.region_online(region) {
            if let Some(cb) = online.borrow_mut().take() {
                let net = Rc::clone(&self.net);
                net.send(self.node, server.node(), 32, cb);
            }
            return;
        }
        let staged_floor = self
            .staged
            .borrow()
            .get(&failed)
            .and_then(|st| st.floors.get(&region).copied());
        self.region_tasks.borrow_mut().insert(
            region,
            RegionTask {
                generation: self.next_generation(),
                server,
                failed,
                online,
                floor: staged_floor.unwrap_or_else(|| self.failed_threshold(failed)),
                promoted,
                replaying: false,
            },
        );
        if staged_floor.is_none() {
            // Nothing staged covers the region: the manager restarted
            // since the failure (staging is volatile), or this host beat
            // the master's notification here. Stage on demand, for every
            // region of `failed` known to be waiting.
            let mut regions = BTreeSet::from([region]);
            if let Some(pending) = self.pending_regions.borrow().get(&failed) {
                regions.extend(pending);
            }
            if let Some(st) = self.staged.borrow().get(&failed) {
                regions.extend(st.floors.keys());
            }
            self.stage_replay(failed, regions);
        }
        self.start_region_replay(region);
    }

    /// Cuts `region`'s share out of its failed server's staged suffix and
    /// hands it to the recovery client — unless the suffix is still on
    /// its way, in which case [`RecoveryManager::suffix_staged`] calls
    /// back here.
    fn start_region_replay(self: &Rc<Self>, region: RegionId) {
        let (generation, server, failed, floor, suffix) = {
            let mut tasks = self.region_tasks.borrow_mut();
            let Some(task) = tasks.get_mut(&region).filter(|t| !t.replaying) else {
                return;
            };
            let staged = self.staged.borrow();
            let Some(st) = staged.get(&task.failed) else {
                return;
            };
            let (Some(suffix), Some(floor)) = (&st.suffix, st.floors.get(&region)) else {
                return;
            };
            task.replaying = true;
            task.floor = *floor;
            (
                task.generation,
                Rc::clone(&task.server),
                task.failed,
                *floor,
                Rc::clone(suffix),
            )
        };
        // Filter each write-set above the region's floor down to the
        // updates that fall in the region (Algorithm 4's per-update
        // region check). The filter runs on the *recovering server's
        // descriptor* for the region, not on the recovery client's cached
        // region map: after an online split, the cached map can still
        // show the parent and would silently filter every daughter-bound
        // update away.
        let desc = server.region_descriptor(region);
        let in_region = |row: &[u8]| match &desc {
            Some(d) => d.contains(row),
            None => self.rc.region_for(row) == region,
        };
        let items: Vec<(Timestamp, Vec<Mutation>)> = suffix
            .iter()
            .filter(|r| r.ts > floor)
            .filter_map(|r| {
                let muts: Vec<Mutation> = r
                    .write_set
                    .mutations
                    .iter()
                    .filter(|m| in_region(&m.row))
                    .cloned()
                    .collect();
                (!muts.is_empty()).then_some((r.ts, muts))
            })
            .collect();
        let this = Rc::clone(self);
        self.rc.replay_region_log(
            region,
            items,
            floor,
            Box::new(move || {
                this.finish_region_recovery(generation, server, region, failed);
            }),
        );
    }

    fn finish_region_recovery(
        self: &Rc<Self>,
        generation: u64,
        server: Rc<RegionServer>,
        region: RegionId,
        failed: ServerId,
    ) {
        if !self.alive.get() {
            return;
        }
        let (online, promoted) = {
            let mut tasks = self.region_tasks.borrow_mut();
            match tasks.get(&region) {
                Some(task) if task.generation == generation => {
                    let task = tasks.remove(&region).expect("present");
                    (task.online, task.promoted)
                }
                _ => return, // superseded
            }
        };
        self.region_recoveries.inc();
        if promoted {
            self.promotion_recoveries.inc();
        }
        // The `promoted` marker only appears on promotion epochs so the
        // replay-path event text stays byte-identical to earlier releases.
        let host = server.id();
        self.event("region.recovered", move || {
            if promoted {
                format!("region={region} server={host} failed={failed} promoted=true")
            } else {
                format!("region={region} server={host} failed={failed}")
            }
        });
        self.coord.delete(&paths::region_floor(region));
        // Let the region declare itself online (runs at the server).
        if let Some(cb) = online.borrow_mut().take() {
            self.net.send(self.node, server.node(), 32, cb);
        }
        // The region is off every failed server's pending set — in a
        // cascade it was still on the set of the host before `failed`,
        // whose own recovery of it never finished. A server whose set
        // empties is done with.
        let mut done = Vec::new();
        for (server, set) in self.pending_regions.borrow_mut().iter_mut() {
            if set.remove(&region) {
                let regions: Vec<RegionId> = set.iter().copied().collect();
                self.coord.set_data(
                    &paths::pending_recovery(*server),
                    paths::encode_regions(&regions),
                );
                if set.is_empty() {
                    done.push(*server);
                }
            }
        }
        for st in self.staged.borrow_mut().values_mut() {
            st.floors.remove(&region);
        }
        for server in done {
            self.finish_failed_server(server);
        }
        self.recompute_t_p();
    }

    fn finish_failed_server(&self, failed: ServerId) {
        self.pending_regions.borrow_mut().remove(&failed);
        self.staged.borrow_mut().remove(&failed);
        self.coord.delete(&paths::pending_recovery(failed));
        self.servers.borrow_mut().remove(&failed);
        self.coord.delete(&paths::server_threshold(failed));
        self.recompute_t_p();
    }

    // ------------------------------------------------------------------
    // Recovery-manager failure (§3.3)
    // ------------------------------------------------------------------

    /// Crash-stop failure of the recovery manager itself. Transaction
    /// processing continues; heartbeats keep updating the coordination
    /// service; failure notifications are retried by their hooks.
    pub fn crash(&self) {
        self.alive.set(false);
        self.net.crash(self.node);
        for t in self.timers.borrow().iter() {
            t.cancel();
        }
        self.timers.borrow_mut().clear();
        // Volatile recovery state is lost with the process.
        self.region_tasks.borrow_mut().clear();
        self.staged.borrow_mut().clear();
        self.pins.borrow_mut().clear();
        self.pending_regions.borrow_mut().clear();
        self.clients.borrow_mut().clear();
        self.servers.borrow_mut().clear();
    }

    /// Restart after a crash: catches up from the coordination service
    /// ("contacts ZooKeeper to catch up with the system's progress"). The
    /// watches registered by [`RecoveryManager::start`] outlive the crash,
    /// so only the checkpoint timer is re-armed. Then, in order: the client
    /// thresholds and liveness nodes are listed, and each client goes to
    /// the handler its liveness watch would have called — up if it has a
    /// liveness node, down (recovered) if it died while the manager was
    /// down; each server threshold goes to the server-up handler, whose
    /// reply reads the server's pending-recovery set; `T_F` and `T_P` are
    /// read back.
    pub fn restart(self: &Rc<Self>) {
        self.alive.set(true);
        self.net.restart(self.node);
        self.arm_checkpoint_timer();

        // A client with a threshold but no liveness node died while the
        // manager was down: the down handler recovers it.
        let this = Rc::clone(self);
        self.coord.children("/thresholds/clients/", move |tpaths| {
            let this2 = Rc::clone(&this);
            this.coord.children("/live/clients/", move |live| {
                let client = |p: &String| paths::parse_client_path(p);
                let live: BTreeSet<ClientId> = live.iter().filter_map(client).collect();
                for c in tpaths.iter().filter_map(client) {
                    if live.contains(&c) {
                        this2.on_client_up(c);
                    } else {
                        this2.on_client_down(c);
                    }
                }
            });
        });

        let this = Rc::clone(self);
        self.coord.children("/thresholds/servers/", move |tpaths| {
            for s in tpaths.iter().filter_map(|p| ServerId::from_path(p)) {
                this.on_server_up(s, move |this| this.resume_pending_recovery(s));
            }
        });

        let this = Rc::clone(self);
        self.coord.get_data(paths::TF_PATH, move |data| {
            raise(&this.t_f, data);
            let this2 = Rc::clone(&this);
            this.coord
                .get_data(paths::TP_PATH, move |data| raise(&this2.t_p, data));
        });
    }

    /// Reads back whether `s` was under recovery when the manager crashed.
    fn resume_pending_recovery(self: &Rc<Self>, s: ServerId) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::pending_recovery(s), move |pending| {
                let Some(d) = pending else { return };
                let set: BTreeSet<RegionId> = paths::decode_regions(&d).into_iter().collect();
                if set.is_empty() {
                    this.finish_failed_server(s);
                } else {
                    // The per-region hooks keep retrying their notifications;
                    // the first to arrive re-stages the replay.
                    this.pending_regions.borrow_mut().insert(s, set);
                }
            });
    }
}

/// Raises `cell` to the timestamp `data` holds, if that is higher.
fn raise(cell: &Cell<Timestamp>, data: Option<Bytes>) {
    if let Some(d) = data {
        cell.set(cell.get().max(paths::decode_ts(&d)));
    }
}

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
//! descriptor) and replayed. Staging is volatile, like everything the
//! manager keeps in memory (`Volatile`): a crash drops it, a restarted
//! manager rebuilds it when the first host reports in.

use crate::paths;
use crate::recovery_client::RecoveryClient;
use bytes::Bytes;
use cumulo_coord::{CoordClient, WatchEvent};
use cumulo_sim::metrics::Counter;
use cumulo_sim::trace::Field;
use cumulo_sim::{fields, Exchange, Network, NodeId, Sim, SimDuration};
use cumulo_store::{ClientId, Mutation, RegionId, RegionServer, ServerId, Timestamp};
use cumulo_txn::{LogRecord, TmClient};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Checkpoint period: recompute `T_P`, truncate the log, republish
/// thresholds.
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Recovery-manager settings (fanned out from `ClusterConfig`).
#[derive(Copy, Clone, Debug)]
pub struct RecoveryManagerConfig {
    /// Whether threshold tracking is honoured. When disabled (ablation),
    /// every recovery replays from the beginning of the log, and the log
    /// is never truncated: no server publishes a threshold, so `T_P`
    /// stays 0.
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

/// What the manager keeps in memory, and loses with its process.
#[derive(Default)]
struct Volatile {
    /// A restarted manager's reads have not all landed: it publishes no
    /// threshold and truncates nothing.
    catching_up: bool,
    /// `T_F_r(c)` per registered client.
    clients: BTreeMap<ClientId, Timestamp>,
    /// `T_P_r(s)` per registered server (failed servers stay until all
    /// their regions have been recovered).
    servers: BTreeMap<ServerId, Timestamp>,
    /// Virtual registrations pinning `T_F` during client recoveries (the
    /// recovery client acts as a tracked client; ARCHITECTURE.md, client failure).
    pins: BTreeMap<u64, Timestamp>,
    next_pin: u64,
    /// In-progress region recoveries (also pin `T_P` via their floors).
    region_tasks: BTreeMap<RegionId, RegionTask>,
    next_generation: u64,
    /// Regions of each failed server still awaiting recovery.
    pending_regions: BTreeMap<ServerId, BTreeSet<RegionId>>,
    /// The staged replay of each failed server.
    staged: BTreeMap<ServerId, StagedReplay>,
    t_f: Timestamp,
    t_p: Timestamp,
    last_truncated: Timestamp,
}

impl Volatile {
    fn next_generation(&mut self) -> u64 {
        self.next_generation += 1;
        self.next_generation - 1
    }

    /// `failed`'s staging, if it is still the one `generation` names.
    fn staging(&mut self, failed: ServerId, generation: u64) -> Option<&mut StagedReplay> {
        let st = self.staged.get_mut(&failed);
        st.filter(|st| st.generation == generation)
    }
}

/// The recovery manager. Shared via `Rc`.
pub struct RecoveryManager {
    sim: Sim,
    net: Rc<Network>,
    node: NodeId,
    /// A recovered region's go-ahead to its new host.
    region_online: Exchange,
    coord: CoordClient,
    tm: TmClient,
    rc: Rc<RecoveryClient>,
    cfg: RecoveryManagerConfig,
    state: RefCell<Volatile>,
    client_recoveries: Counter,
    region_recoveries: Counter,
    promotion_recoveries: Counter,
    truncations: Counter,
}

impl fmt::Debug for RecoveryManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("RecoveryManager")
            .field("node", &self.node)
            .field("alive", &self.is_alive())
            .field("t_f", &st.t_f)
            .field("t_p", &st.t_p)
            .field("clients", &st.clients.len())
            .field("servers", &st.servers.len())
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
        Rc::new(RecoveryManager {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            region_online: net.exchange("store.region_online"),
            coord,
            tm,
            rc,
            cfg,
            state: RefCell::default(),
            client_recoveries: metrics.counter("rm.client_recoveries", &[]),
            region_recoveries: metrics.counter("rm.region_recoveries", &[]),
            promotion_recoveries: metrics.counter("rm.promotion_recoveries", &[]),
            truncations: metrics.counter("rm.truncations", &[]),
        })
    }

    /// Registers the coordination watches, publishes the initial
    /// thresholds and starts the checkpoint timer.
    pub fn start(self: &Rc<Self>) {
        self.coord
            .set_data(paths::TF_PATH, paths::encode_ts(Timestamp::ZERO));
        self.coord
            .set_data(paths::TP_PATH, paths::encode_ts(Timestamp::ZERO));

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
                    rm.on_server_up(s);
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
                if let Some(rm) = weak.upgrade() {
                    on_event(&rm, &event);
                }
            },
            |_| {},
        );
    }

    /// Checkpoints every [`CHECKPOINT_INTERVAL`] while the process lives.
    fn arm_checkpoint_timer(self: &Rc<Self>) {
        let weak = Rc::downgrade(self);
        let interval = CHECKPOINT_INTERVAL;
        self.net.every(self.node, interval, interval, move || {
            if let Some(rm) = weak.upgrade() {
                rm.checkpoint();
            }
        });
    }

    /// The node the recovery manager runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the process is alive: whether its node is.
    pub fn is_alive(&self) -> bool {
        self.net.is_alive(self.node)
    }

    /// The global flushed threshold `T_F`.
    pub fn t_f(&self) -> Timestamp {
        self.state.borrow().t_f
    }

    /// The global persisted threshold `T_P` (the log-truncation point).
    pub fn t_p(&self) -> Timestamp {
        self.state.borrow().t_p
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
    /// manager's events leave through.
    fn event(&self, kind: &'static str, fields: &[Field]) {
        self.sim.events().record(self.sim.now(), kind, &[fields]);
    }

    // ------------------------------------------------------------------
    // Registration and thresholds
    // ------------------------------------------------------------------

    fn on_client_up(self: &Rc<Self>, c: ClientId) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::client_threshold(c), move |data| {
                this.state.borrow_mut().clients.insert(c, decode(data));
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
                        this.state.borrow_mut().clients.remove(&c);
                        this.recompute_t_f();
                    }
                }
            });
    }

    /// Registers `s` at the threshold it reported.
    fn on_server_up(self: &Rc<Self>, s: ServerId) {
        let this = Rc::clone(self);
        self.coord
            .get_data(&paths::server_threshold(s), move |data| {
                this.state.borrow_mut().servers.insert(s, decode(data));
                this.recompute_t_p();
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
                    if let Some(entry) = this.state.borrow_mut().clients.get_mut(&c) {
                        *entry = (*entry).max(ts);
                    }
                    this.recompute_t_f();
                }
            } else if path.starts_with("/thresholds/servers/") {
                if let Some(s) = ServerId::from_path(&path) {
                    // Floors may legitimately *lower* a server's threshold
                    // (replay inheritance), so take the reported value
                    // as-is.
                    this.state.borrow_mut().servers.insert(s, ts);
                    this.recompute_t_p();
                }
            }
        });
    }

    /// `T_F = min over clients (and recovery pins) of T_F(c)`.
    fn recompute_t_f(&self) {
        let mut st = self.state.borrow_mut();
        let min = st.clients.values().chain(st.pins.values()).min().copied();
        let raised = min.filter(|min| *min > st.t_f && !st.catching_up);
        let Some(t_f) = raised else { return };
        st.t_f = t_f;
        drop(st);
        self.event("threshold.tf", fields!(t_f));
        self.coord.set_data(paths::TF_PATH, paths::encode_ts(t_f));
    }

    /// `T_P = min over servers (and active region-recovery floors)`.
    fn recompute_t_p(&self) {
        let mut st = self.state.borrow_mut();
        let floors = st.region_tasks.values().map(|t| t.floor);
        let min = st.servers.values().copied().chain(floors).min();
        let raised = min.filter(|min| *min > st.t_p && !st.catching_up);
        let Some(t_p) = raised else { return };
        st.t_p = t_p;
        drop(st);
        self.event("threshold.tp", fields!(t_p));
        self.coord.set_data(paths::TP_PATH, paths::encode_ts(t_p));
    }

    /// Checkpoint tick: republish `T_P` and truncate the log below it
    /// (`T_P` stays zero while a restarted manager catches up).
    fn checkpoint(self: &Rc<Self>) {
        self.recompute_t_p();
        let t_p = self.t_p();
        let last = std::mem::replace(&mut self.state.borrow_mut().last_truncated, t_p);
        if t_p > last {
            self.truncations.inc();
            self.event("log.truncate", fields!(below = t_p));
            self.tm.truncate_below(t_p);
        }
    }

    // ------------------------------------------------------------------
    // Client recovery (Algorithm 2)
    // ------------------------------------------------------------------

    fn recover_client(self: &Rc<Self>, c: ClientId, t_f_r: Timestamp) {
        self.client_recoveries.inc();
        self.event("client.recover", fields!(client = c, t_f_r));
        // Pin the global T_F at the dead client's threshold: the recovery
        // client now vouches for the interrupted flushes.
        let pin = {
            let mut st = self.state.borrow_mut();
            let pin = st.next_pin;
            st.next_pin += 1;
            st.pins.insert(pin, t_f_r);
            st.clients.remove(&c);
            pin
        };
        self.recompute_t_f();

        // Reap the client's open transactions and fetch its
        // committed-but-possibly-unflushed suffix.
        let this = Rc::clone(self);
        self.tm.reap_and_fetch_client(c, t_f_r, move |records| {
            let this2 = Rc::clone(&this);
            let rc = Rc::clone(&this.rc);
            rc.replay_client_log(
                records,
                Box::new(move || {
                    this2.state.borrow_mut().pins.remove(&pin);
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
        let set: BTreeSet<RegionId> = regions.iter().copied().collect();
        let mut st = self.state.borrow_mut();
        if st.pending_regions.contains_key(&failed) {
            return;
        }
        st.pending_regions.insert(failed, set.clone());
        drop(st);
        self.coord.set_data(
            &paths::pending_recovery(failed),
            paths::encode_regions(&regions),
        );
        if set.is_empty() {
            self.finish_failed_server(failed);
        } else {
            self.stage_replay(failed, set);
        }
    }

    /// The failed server's last reported `T_P(s)`: what its regions
    /// replay from, unless an earlier recovery left a lower floor.
    fn failed_threshold(&self, st: &Volatile, failed: ServerId) -> Timestamp {
        let tracked = st.servers.get(&failed).filter(|_| self.cfg.tracking);
        tracked.copied().unwrap_or(Timestamp::ZERO)
    }

    /// Stages the replay of `failed`'s `regions` (replacing any earlier
    /// staging of that server): combines each region's floor with the one
    /// an interrupted earlier recovery persisted, persists the effective
    /// floors, and fetches the log suffix above the lowest — once, not
    /// once per region. Regions whose hosts report in meanwhile start
    /// when the suffix lands.
    fn stage_replay(self: &Rc<Self>, failed: ServerId, regions: BTreeSet<RegionId>) {
        let mut st = self.state.borrow_mut();
        let generation = st.next_generation();
        let t_p_r = self.failed_threshold(&st, failed);
        let staging = StagedReplay {
            generation,
            floors: regions.iter().map(|r| (*r, t_p_r)).collect(),
            suffix: None,
        };
        st.staged.insert(failed, staging);
        drop(st);
        let unread = Rc::new(Cell::new(regions.len()));
        for region in regions {
            let this = Rc::clone(self);
            let unread = Rc::clone(&unread);
            self.coord
                .get_data(&paths::region_floor(region), move |stored| {
                    let mut state = this.state.borrow_mut();
                    let Some(st) = state.staging(failed, generation) else {
                        return; // superseded
                    };
                    if let (Some(prior), Some(floor)) = (stored, st.floors.get_mut(&region)) {
                        *floor = (*floor).min(paths::decode_ts(&prior));
                    }
                    unread.set(unread.get() - 1);
                    if unread.get() == 0 {
                        let floors = st.floors.clone();
                        drop(state);
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
        let mut state = self.state.borrow_mut();
        let Some(st) = state.staging(failed, generation) else {
            return;
        };
        let (regions, count) = (st.floors.len(), records.len());
        st.suffix = Some(Rc::new(records));
        self.event(
            "recovery.staged",
            fields!(server = failed, regions, records = count, floor = lowest),
        );
        let waiting: Vec<RegionId> = (state.region_tasks.iter())
            .filter(|(_, task)| task.failed == failed && !task.replaying)
            .map(|(region, _)| *region)
            .collect();
        drop(state);
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
        // The new host may have died since it sent this.
        if !server.is_alive() {
            return;
        }
        // Duplicate notification for an in-progress task on the same
        // target: the retry loop re-delivered; nothing to do.
        let same_target = |task: &RegionTask| task.server.id() == server.id();
        if self
            .state
            .borrow()
            .region_tasks
            .get(&region)
            .is_some_and(same_target)
        {
            return;
        }
        // Late duplicate after completion: the region is already online.
        if server.region_online(region) {
            if let Some(cb) = online.borrow_mut().take() {
                let net = Rc::clone(&self.net);
                net.send(&self.region_online, self.node, server.node(), 32, cb);
            }
            return;
        }
        let mut st = self.state.borrow_mut();
        let staged = st.staged.get(&failed);
        let staged_floor = staged.and_then(|st| st.floors.get(&region).copied());
        // Nothing staged covers the region: the manager restarted since the
        // failure (staging is volatile), or this host beat the master's
        // notification here. Stage on demand, for every region of `failed`
        // known to be waiting.
        let unstaged = staged_floor.is_none().then(|| {
            let mut regions = BTreeSet::from([region]);
            regions.extend(st.pending_regions.get(&failed).into_iter().flatten());
            regions.extend(staged.into_iter().flat_map(|st| st.floors.keys()));
            regions
        });
        let task = RegionTask {
            generation: st.next_generation(),
            server,
            failed,
            online,
            floor: staged_floor.unwrap_or_else(|| self.failed_threshold(&st, failed)),
            promoted,
            replaying: false,
        };
        st.region_tasks.insert(region, task);
        drop(st);
        if let Some(regions) = unstaged {
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
            let mut state = self.state.borrow_mut();
            let state = &mut *state;
            let Some(task) = state.region_tasks.get_mut(&region).filter(|t| !t.replaying) else {
                return;
            };
            let Some(st) = state.staged.get(&task.failed) else {
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
            server.id(),
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
        let (online, promoted) = {
            let tasks = &mut self.state.borrow_mut().region_tasks;
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
        let fields = fields!(region, server = host, failed, promoted = true);
        let fields = if promoted { &fields[..] } else { &fields[..3] };
        self.event("region.recovered", fields);
        self.coord.delete(&paths::region_floor(region));
        // Let the region declare itself online (runs at the server).
        if let Some(cb) = online.borrow_mut().take() {
            let ex = &self.region_online;
            self.net.send(ex, self.node, server.node(), 32, cb);
        }
        // The region is off every failed server's pending set — in a
        // cascade it was still on the set of the host before `failed`,
        // whose own recovery of it never finished. A server whose set
        // empties is done with.
        let (mut done, mut st) = (Vec::new(), self.state.borrow_mut());
        for (server, set) in st.pending_regions.iter_mut() {
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
        for staging in st.staged.values_mut() {
            staging.floors.remove(&region);
        }
        drop(st);
        for server in done {
            self.finish_failed_server(server);
        }
        self.recompute_t_p();
    }

    fn finish_failed_server(&self, failed: ServerId) {
        let mut st = self.state.borrow_mut();
        st.pending_regions.remove(&failed);
        st.staged.remove(&failed);
        st.servers.remove(&failed);
        drop(st);
        self.coord.delete(&paths::pending_recovery(failed));
        self.coord.delete(&paths::server_threshold(failed));
        self.recompute_t_p();
    }

    // ------------------------------------------------------------------
    // Recovery-manager failure (§3.3)
    // ------------------------------------------------------------------

    /// Crash-stop failure of the recovery manager itself: its node dies
    /// and its volatile state is dropped whole. Transaction processing
    /// continues; heartbeats keep updating the coordination service;
    /// failure notifications are retried by their hooks.
    pub fn crash(&self) {
        self.net.crash(self.node);
        *self.state.borrow_mut() = Volatile::default();
    }

    /// Restart after a crash: catches up from the coordination service
    /// ("contacts ZooKeeper to catch up with the system's progress"), and
    /// publishes and truncates nothing until it has. The watches
    /// [`RecoveryManager::start`] registered outlive the crash, so only
    /// the checkpoint timer is re-armed.
    ///
    /// With tracking, the candidate clients are those with a threshold
    /// node. Without it clients write none, so the candidates are the
    /// clients the recovery log has records of. Nothing truncates that
    /// log without tracking, so every restart replays each such dead
    /// client from the start again — idempotent, as every version is
    /// keyed by its commit timestamp.
    pub fn restart(self: &Rc<Self>) {
        self.net.restart(self.node);
        self.state.borrow_mut().catching_up = true;
        self.arm_checkpoint_timer();
        let this = Rc::clone(self);
        let catch_up = move |candidates| this.catch_up(candidates);
        if self.cfg.tracking {
            let listed = move |p: Vec<String>| catch_up(client_ids(&p));
            self.coord.children("/thresholds/clients/", listed);
        } else {
            self.tm.fetch_after(Timestamp::ZERO, move |records| {
                catch_up(records.iter().map(|r| r.client).collect());
            });
        }
    }

    /// Reads every threshold back, in one run of requests on the FIFO link
    /// to the coordination service: the client liveness nodes, whose
    /// answer reads each candidate's threshold through the handler its
    /// liveness watch would call (down, so recovered, if it died while the
    /// manager was down); the server thresholds, whose answer reads each
    /// one and its pending-recovery set; then `T_F` and `T_P`. The service
    /// answers each read as it arrives, so `T_P`'s answer lands last and
    /// ends the catch-up.
    fn catch_up(self: &Rc<Self>, candidates: BTreeSet<ClientId>) {
        let this = Rc::clone(self);
        self.coord.children("/live/clients/", move |live| {
            let live = client_ids(&live);
            for c in candidates {
                if live.contains(&c) {
                    this.on_client_up(c);
                } else {
                    this.on_client_down(c);
                }
            }
        });
        let this = Rc::clone(self);
        self.coord.children("/thresholds/servers/", move |tpaths| {
            for s in tpaths.iter().filter_map(|p| ServerId::from_path(p)) {
                this.on_server_up(s);
                this.resume_pending_recovery(s);
            }
            let this2 = Rc::clone(&this);
            this.coord.get_data(paths::TF_PATH, move |data| {
                let mut st = this2.state.borrow_mut();
                st.t_f = st.t_f.max(decode(data));
            });
            let this2 = Rc::clone(&this);
            this.coord.get_data(paths::TP_PATH, move |data| {
                let mut st = this2.state.borrow_mut();
                st.t_p = st.t_p.max(decode(data));
                st.catching_up = false;
                drop(st);
                this2.recompute_t_f();
                this2.recompute_t_p();
            });
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
                    this.state.borrow_mut().pending_regions.insert(s, set);
                }
            });
    }
}

/// The timestamp `data` holds; zero if there is none.
fn decode(data: Option<Bytes>) -> Timestamp {
    data.map_or(Timestamp::ZERO, |d| paths::decode_ts(&d))
}

/// The clients `paths` name.
fn client_ids(paths: &[String]) -> BTreeSet<ClientId> {
    paths
        .iter()
        .filter_map(|p| paths::parse_client_path(p))
        .collect()
}

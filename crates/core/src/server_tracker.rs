//! The server-side tracking runtime — Algorithm 3's heartbeat loop.
//!
//! Each region server gets a [`ServerTracker`] that owns its
//! [`PersistTracker`] and, every heartbeat interval: pays the tracking
//! CPU cost on the server's handlers (the synchronized-structure
//! contention the paper measures in Fig. 2b), forces the WAL to the
//! filesystem ("while |PQ| > 0: persist"), advances `T_P(s)` up to the
//! latest `T_F`, publishes the threshold to the recovery manager via the
//! coordination service, and reads back the recovery manager's current
//! global `T_F` for the next round.

use crate::paths;
use crate::persist_tracker::PersistTracker;
use bytes::Bytes;
use cumulo_coord::CoordClient;
use cumulo_sim::{Network, Sim, SimDuration};
use cumulo_store::{RegionServer, ServerId, Timestamp};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Fixed CPU cost per heartbeat. Calibrated to model the paper's
/// observed contention: "our tracking data structures need to be
/// synchronized … updating the tracking information too frequently
/// can potentially reduce performance due to added contention"
/// (§4.3). Request handlers stall behind this work.
const CPU_FIXED: SimDuration = SimDuration::from_micros(3500);
/// CPU cost per tracked PQ entry drained.
const CPU_PER_ENTRY: SimDuration = SimDuration::from_micros(20);
/// PQ length above which an alert znode is raised (§3.2).
const ALERT_PENDING_THRESHOLD: usize = 10_000;

/// Server-tracker settings (both fanned out from `ClusterConfig`).
#[derive(Copy, Clone, Debug)]
pub struct ServerTrackerConfig {
    /// Heartbeat period (the paper sweeps 50 ms – 10 s in Fig. 2b).
    pub heartbeat_interval: SimDuration,
    /// Whether tracking runs at all (ablation).
    pub tracking: bool,
}

/// The per-server tracking runtime. Shared via `Rc`.
pub struct ServerTracker {
    sim: Sim,
    net: Rc<Network>,
    server: Rc<RegionServer>,
    coord: CoordClient,
    cfg: ServerTrackerConfig,
    tracker: Rc<RefCell<PersistTracker>>,
}

impl fmt::Debug for ServerTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerTracker")
            .field("server", &self.server.id())
            .field("t_p", &self.tracker.borrow().t_p())
            .field("pending", &self.tracker.borrow().pending())
            .finish()
    }
}

impl ServerTracker {
    /// Creates the tracker for `server`; its heartbeat runs at the
    /// server's node, so it stops when the server crashes.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        server: &Rc<RegionServer>,
        coord: CoordClient,
        cfg: ServerTrackerConfig,
    ) -> Rc<ServerTracker> {
        Rc::new(ServerTracker {
            sim: sim.clone(),
            net: Rc::clone(net),
            server: Rc::clone(server),
            coord,
            cfg,
            tracker: Rc::new(RefCell::new(PersistTracker::new())),
        })
    }

    /// Registers the threshold znode and starts the heartbeat loop.
    pub fn start(self: &Rc<Self>) {
        if self.cfg.tracking {
            self.coord.create(
                &paths::server_threshold(self.server.id()),
                paths::encode_ts(Timestamp::ZERO),
                None,
            );
        }
        let this = Rc::clone(self);
        let beat = self.cfg.heartbeat_interval;
        #[expect(
            clippy::disallowed_methods,
            reason = "heartbeat first-fire stagger draws from the seeded sim RNG; the desync avoids lockstep heartbeats and all pinned baselines include this draw"
        )]
        let first = self.sim.jitter(beat, 0.9);
        let node = self.server.node();
        self.net.every(node, first, beat, move || this.heartbeat());
    }

    /// The server this tracker belongs to.
    pub fn server_id(&self) -> ServerId {
        self.server.id()
    }

    /// The server's current persisted threshold `T_P(s)`.
    pub fn t_p(&self) -> Timestamp {
        self.tracker.borrow().t_p()
    }

    /// Records an applied write-set portion (wired into the store's
    /// `on_write_set_applied` hook). A replay's `floor` lowers `T_P`
    /// immediately and, per Algorithm 3, triggers an immediate threshold
    /// publication so the recovery manager learns of the inheritance as
    /// fast as possible ("heartbeat()" on line 21).
    pub fn on_applied(&self, ts: Timestamp, wal_seq: u64, floor: Option<Timestamp>) {
        self.tracker.borrow_mut().on_applied(ts, wal_seq, floor);
        if floor.is_some() && self.cfg.tracking {
            let t_p = self.tracker.borrow().t_p();
            self.coord.set_data(
                &paths::server_threshold(self.server.id()),
                paths::encode_ts(t_p),
            );
        }
    }

    /// One heartbeat: tracking CPU cost → WAL sync → advance → publish.
    fn heartbeat(self: &Rc<Self>) {
        let entries = self.tracker.borrow().pending() as u64;
        if entries as usize > ALERT_PENDING_THRESHOLD {
            self.coord.set_data(
                &paths::alert("servers", self.server.id().0),
                paths::encode_ts(Timestamp(entries)),
            );
        }
        let cost = CPU_FIXED + CPU_PER_ENTRY * entries;
        let this = Rc::clone(self);
        self.server.submit_background(cost, move || {
            let wal = this.server.wal().clone();
            let seq = wal.last_seq();
            let this2 = Rc::clone(&this);
            wal.sync_upto(seq, move || {
                let t_p = this2.tracker.borrow_mut().on_synced(seq);
                if this2.cfg.tracking {
                    this2.coord.set_data(
                        &paths::server_threshold(this2.server.id()),
                        paths::encode_ts(t_p),
                    );
                    let tracker = Rc::clone(&this2.tracker);
                    this2
                        .coord
                        .get_data(paths::TF_PATH, move |data: Option<Bytes>| {
                            if let Some(d) = data {
                                tracker.borrow_mut().on_t_f(paths::decode_ts(&d));
                            }
                        });
                }
            });
        });
    }
}

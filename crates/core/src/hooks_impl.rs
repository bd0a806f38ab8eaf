//! The store-side hook implementation that bridges the key-value store
//! into the recovery middleware.
//!
//! Master and region-server notifications are delivered to the recovery
//! manager **reliably**: each is retried until the recovery manager has
//! actually processed it, so a recovery-manager crash merely delays
//! recovery (§3.3: "transaction processing can continue while the
//! recovery manager is down") — a recovered region stays gated until a
//! live recovery manager completes its transactional replay.

use crate::recovery_manager::RecoveryManager;
use crate::server_tracker::ServerTracker;
use cumulo_sim::{Network, NodeId, Sim, SimDuration};
use cumulo_store::{RecoveryHooks, RegionId, RegionServer, ServerId, Timestamp};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// How often undelivered recovery-manager notifications are retried.
const NOTIFY_RETRY: SimDuration = SimDuration::from_millis(400);

/// The middleware's implementation of the store's recovery hooks.
pub struct MiddlewareHooks {
    sim: Sim,
    net: Rc<Network>,
    rm: Rc<RecoveryManager>,
    master_node: NodeId,
    trackers: RefCell<HashMap<ServerId, Rc<ServerTracker>>>,
}

impl fmt::Debug for MiddlewareHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MiddlewareHooks")
            .field("trackers", &self.trackers.borrow().len())
            .finish()
    }
}

impl MiddlewareHooks {
    /// Creates the hook bridge. `master_node` is where master-side
    /// notifications originate.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        rm: &Rc<RecoveryManager>,
        master_node: NodeId,
    ) -> Rc<MiddlewareHooks> {
        Rc::new(MiddlewareHooks {
            sim: sim.clone(),
            net: Rc::clone(net),
            rm: Rc::clone(rm),
            master_node,
            trackers: RefCell::new(HashMap::new()),
        })
    }

    /// Registers a server's tracking runtime (receives the applied-write
    /// callbacks for that server).
    pub fn register_tracker(&self, tracker: Rc<ServerTracker>) {
        self.trackers
            .borrow_mut()
            .insert(tracker.server_id(), tracker);
    }
}

impl RecoveryHooks for MiddlewareHooks {
    fn on_server_failed(&self, failed: ServerId, regions: &[RegionId]) {
        let regions = regions.to_vec();
        let acked = Rc::new(Cell::new(false));
        let sim = self.sim.clone();
        let net = Rc::clone(&self.net);
        let rm = Rc::clone(&self.rm);
        let src = self.master_node;
        notify_server_failed(sim, net, rm, src, failed, regions, acked);
    }

    fn on_region_recovered(
        &self,
        server: Rc<RegionServer>,
        region: RegionId,
        failed: ServerId,
        promoted: bool,
        online: Box<dyn FnOnce()>,
    ) {
        // The retry loop stops only when the region actually goes online
        // (i.e. the recovery manager completed the transactional replay).
        let acked = Rc::new(Cell::new(false));
        let acked2 = Rc::clone(&acked);
        let wrapped: Box<dyn FnOnce()> = Box::new(move || {
            acked2.set(true);
            online();
        });
        let shared = Rc::new(RefCell::new(Some(wrapped)));
        notify_region_recovered(
            self.sim.clone(),
            Rc::clone(&self.net),
            Rc::clone(&self.rm),
            server,
            region,
            failed,
            promoted,
            shared,
            acked,
        );
    }

    fn on_write_set_applied(
        &self,
        server: ServerId,
        _region: RegionId,
        ts: Timestamp,
        wal_seq: u64,
        floor: Option<Timestamp>,
    ) {
        if let Some(tracker) = self.trackers.borrow().get(&server) {
            tracker.on_applied(ts, wal_seq, floor);
        }
    }
}

fn notify_server_failed(
    sim: Sim,
    net: Rc<Network>,
    rm: Rc<RecoveryManager>,
    src: NodeId,
    failed: ServerId,
    regions: Vec<RegionId>,
    acked: Rc<Cell<bool>>,
) {
    if acked.get() {
        return;
    }
    {
        let rm2 = Rc::clone(&rm);
        let regions2 = regions.clone();
        let acked2 = Rc::clone(&acked);
        net.request(
            src,
            rm.node(),
            64 + regions.len() * 4,
            move |reply| {
                if !rm2.is_alive() {
                    return;
                }
                rm2.note_server_failed(failed, regions2);
                reply.send(32, ());
            },
            move |()| acked2.set(true),
        );
    }
    let sim2 = sim.clone();
    sim.schedule_in(NOTIFY_RETRY, move || {
        notify_server_failed(sim2, net, rm, src, failed, regions, acked);
    });
}

#[allow(clippy::too_many_arguments)]
fn notify_region_recovered(
    sim: Sim,
    net: Rc<Network>,
    rm: Rc<RecoveryManager>,
    server: Rc<RegionServer>,
    region: RegionId,
    failed: ServerId,
    promoted: bool,
    online: Rc<RefCell<Option<Box<dyn FnOnce()>>>>,
    acked: Rc<Cell<bool>>,
) {
    if acked.get() || !server.is_alive() {
        return;
    }
    {
        let rm2 = Rc::clone(&rm);
        let server2 = Rc::clone(&server);
        let online2 = Rc::clone(&online);
        net.send(server.node(), rm.node(), 128, move || {
            if !rm2.is_alive() {
                return;
            }
            rm2.handle_region_recovered(server2, region, failed, promoted, online2);
        });
    }
    let sim2 = sim.clone();
    sim.schedule_in(NOTIFY_RETRY, move || {
        notify_region_recovered(
            sim2, net, rm, server, region, failed, promoted, online, acked,
        );
    });
}

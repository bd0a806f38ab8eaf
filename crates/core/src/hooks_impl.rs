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
use cumulo_sim::{Exchange, Network, NodeId, Reply, SimDuration};
use cumulo_store::{RecoveryHooks, RegionId, RegionServer, ServerId, Timestamp};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// How often undelivered recovery-manager notifications are retried.
const NOTIFY_RETRY: SimDuration = SimDuration::from_millis(400);

/// What a notification's retry loop holds on to.
struct Link {
    net: Rc<Network>,
    rm: Rc<RecoveryManager>,
    server_failed: Exchange,
    region_recovered: Exchange,
}

/// The middleware's implementation of the store's recovery hooks.
pub struct MiddlewareHooks {
    link: Rc<Link>,
    master_node: NodeId,
    trackers: RefCell<BTreeMap<ServerId, Rc<ServerTracker>>>,
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
        net: &Rc<Network>,
        rm: &Rc<RecoveryManager>,
        master_node: NodeId,
    ) -> Rc<MiddlewareHooks> {
        Rc::new(MiddlewareHooks {
            link: Rc::new(Link {
                net: Rc::clone(net),
                rm: Rc::clone(rm),
                server_failed: net.exchange("rm.server_failed"),
                region_recovered: net.exchange("rm.region_recovered"),
            }),
            master_node,
            trackers: RefCell::new(BTreeMap::new()),
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
        let link = Rc::clone(&self.link);
        notify_server_failed(link, self.master_node, failed, regions.to_vec());
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
        let link = Rc::clone(&self.link);
        notify_region_recovered(link, server, region, failed, promoted, shared, acked);
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

fn notify_server_failed(link: Rc<Link>, src: NodeId, failed: ServerId, regions: Vec<RegionId>) {
    let (rm, regions2) = (Rc::clone(&link.rm), regions.clone());
    let serve = move |reply: Reply<_, _>| {
        rm.note_server_failed(failed, regions2);
        reply.send(32, ());
    };
    let (net, to, request_bytes) = (Rc::clone(&link.net), link.rm.node(), 64 + regions.len() * 4);
    let ex = link.server_failed.clone();
    let acked = move |acked: Option<()>| {
        if acked.is_none() {
            notify_server_failed(link, src, failed, regions);
        }
    };
    net.request_within(&ex, NOTIFY_RETRY, src, to, request_bytes, serve, acked);
}

fn notify_region_recovered(
    link: Rc<Link>,
    server: Rc<RegionServer>,
    region: RegionId,
    failed: ServerId,
    promoted: bool,
    online: Rc<RefCell<Option<Box<dyn FnOnce()>>>>,
    acked: Rc<Cell<bool>>,
) {
    if acked.get() {
        return;
    }
    let (rm, server2, online2) = (Rc::clone(&link.rm), Rc::clone(&server), Rc::clone(&online));
    let ex = &link.region_recovered;
    link.net.send(ex, server.node(), rm.node(), 128, move || {
        rm.handle_region_recovered(server2, region, failed, promoted, online2);
    });
    let (net, node) = (Rc::clone(&link.net), server.node());
    net.after(node, NOTIFY_RETRY, move || {
        notify_region_recovered(link, server, region, failed, promoted, online, acked);
    });
}

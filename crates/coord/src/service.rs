//! The coordination service state machine: znodes, sessions, watches.

use bytes::Bytes;
use cumulo_sim::{Exchange, Network, NodeId, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::{Rc, Weak};

/// Identifier of a coordination session (one per registered component).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Debug for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// Identifier of a registered watch, used to remove it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct WatchId(pub u64);

/// A change notification delivered to a prefix watcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WatchEvent {
    /// A znode was created at `path`.
    Created(String),
    /// The data of the znode at `path` changed.
    DataChanged(String),
    /// The znode at `path` was deleted (explicitly or by session expiry).
    Deleted(String),
}

impl WatchEvent {
    /// The path this event concerns.
    pub fn path(&self) -> &str {
        match self {
            WatchEvent::Created(p) | WatchEvent::DataChanged(p) | WatchEvent::Deleted(p) => p,
        }
    }
}

struct Znode {
    data: Bytes,
    ephemeral_owner: Option<SessionId>,
    version: u64,
}

struct Session {
    timeout: SimDuration,
    last_touch: SimTime,
}

struct Watch {
    prefix: String,
    watcher: NodeId,
    cb: Rc<dyn Fn(WatchEvent)>,
}

/// The coordination service. Lives on one node; shared via `Rc`.
///
/// All methods represent the *server-side* handling of a request; use
/// [`crate::CoordClient`] from components so requests and responses pay
/// network latency and obey crash/partition semantics.
pub struct CoordService {
    sim: Sim,
    net: Rc<Network>,
    /// The node this service runs on.
    node: NodeId,
    /// A watch firing at its watcher.
    watch_event: Exchange,
    znodes: RefCell<BTreeMap<String, Znode>>,
    sessions: RefCell<BTreeMap<SessionId, Session>>,
    watches: RefCell<Vec<(WatchId, Watch)>>,
    next_session: Cell<u64>,
    next_watch: Cell<u64>,
    expired_sessions: Cell<u64>,
}

impl fmt::Debug for CoordService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoordService")
            .field("node", &self.node)
            .field("znodes", &self.znodes.borrow().len())
            .field("sessions", &self.sessions.borrow().len())
            .field("watches", &self.watches.borrow().len())
            .finish()
    }
}

impl CoordService {
    /// Creates the service on `node` and starts its session-expiry sweep
    /// (every `sweep_interval`).
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        node: NodeId,
        sweep_interval: SimDuration,
    ) -> Rc<CoordService> {
        let svc = Rc::new(CoordService {
            sim: sim.clone(),
            net: Rc::clone(net),
            node,
            watch_event: net.exchange("coord.watch_event"),
            znodes: RefCell::new(BTreeMap::new()),
            sessions: RefCell::new(BTreeMap::new()),
            watches: RefCell::new(Vec::new()),
            next_session: Cell::new(1),
            next_watch: Cell::new(1),
            expired_sessions: Cell::new(0),
        });
        let weak: Weak<CoordService> = Rc::downgrade(&svc);
        net.every(node, sweep_interval, sweep_interval, move || {
            if let Some(svc) = weak.upgrade() {
                svc.expire_dead_sessions();
            }
        });
        svc
    }

    /// The node the service runs on (RPC destination).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Opens a session that expires `timeout` after its most recent
    /// touch.
    pub fn create_session(&self, timeout: SimDuration) -> SessionId {
        let id = SessionId(self.next_session.get());
        self.next_session.set(id.0 + 1);
        self.sessions.borrow_mut().insert(
            id,
            Session {
                timeout,
                last_touch: self.sim.now(),
            },
        );
        id
    }

    /// Refreshes a session's liveness. Unknown (already expired) sessions
    /// are ignored — the owner will discover the expiry via its znodes.
    pub fn touch(&self, session: SessionId) {
        if let Some(s) = self.sessions.borrow_mut().get_mut(&session) {
            s.last_touch = self.sim.now();
        }
    }

    /// Whether `session` is still open.
    pub fn session_alive(&self, session: SessionId) -> bool {
        self.sessions.borrow().contains_key(&session)
    }

    /// Closes a session cleanly, deleting its ephemeral znodes (watchers
    /// are notified, as with an expiry).
    pub fn close_session(&self, session: SessionId) {
        if self.sessions.borrow_mut().remove(&session).is_some() {
            self.delete_ephemerals_of(session);
        }
    }

    /// Creates or replaces the znode at `path`.
    ///
    /// With `ephemeral_owner`, the znode is deleted automatically when that
    /// session closes or expires.
    pub fn create(&self, path: &str, data: Bytes, ephemeral_owner: Option<SessionId>) {
        let existed = {
            let mut z = self.znodes.borrow_mut();
            let existed = z.contains_key(path);
            let version = z.get(path).map(|n| n.version + 1).unwrap_or(0);
            z.insert(
                path.to_owned(),
                Znode {
                    data,
                    ephemeral_owner,
                    version,
                },
            );
            existed
        };
        let ev = if existed {
            WatchEvent::DataChanged(path.to_owned())
        } else {
            WatchEvent::Created(path.to_owned())
        };
        self.fire(ev);
    }

    /// Updates the data at `path`, creating a persistent znode if absent.
    pub fn set_data(&self, path: &str, data: Bytes) {
        let existed = {
            let mut z = self.znodes.borrow_mut();
            match z.get_mut(path) {
                Some(n) => {
                    n.data = data;
                    n.version += 1;
                    true
                }
                None => {
                    z.insert(
                        path.to_owned(),
                        Znode {
                            data,
                            ephemeral_owner: None,
                            version: 0,
                        },
                    );
                    false
                }
            }
        };
        let ev = if existed {
            WatchEvent::DataChanged(path.to_owned())
        } else {
            WatchEvent::Created(path.to_owned())
        };
        self.fire(ev);
    }

    /// Reads the data at `path`.
    pub fn get_data(&self, path: &str) -> Option<Bytes> {
        self.znodes.borrow().get(path).map(|n| n.data.clone())
    }

    /// Whether a znode exists at `path`.
    pub fn exists(&self, path: &str) -> bool {
        self.znodes.borrow().contains_key(path)
    }

    /// Deletes the znode at `path` if present.
    pub fn delete(&self, path: &str) {
        let removed = self.znodes.borrow_mut().remove(path).is_some();
        if removed {
            self.fire(WatchEvent::Deleted(path.to_owned()));
        }
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn children(&self, prefix: &str) -> Vec<String> {
        self.znodes
            .borrow()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Registers a persistent prefix watch. `cb` runs *at the watcher's
    /// node* (after network delivery) for every event under `prefix`; it is
    /// never invoked if the watcher node is dead at delivery time.
    pub fn watch_prefix(
        &self,
        prefix: &str,
        watcher: NodeId,
        cb: impl Fn(WatchEvent) + 'static,
    ) -> WatchId {
        let id = WatchId(self.next_watch.get());
        self.next_watch.set(id.0 + 1);
        self.watches.borrow_mut().push((
            id,
            Watch {
                prefix: prefix.to_owned(),
                watcher,
                cb: Rc::new(cb),
            },
        ));
        id
    }

    /// Removes a watch registered with [`CoordService::watch_prefix`].
    pub fn unwatch(&self, id: WatchId) {
        self.watches.borrow_mut().retain(|(wid, _)| *wid != id);
    }

    /// Number of sessions expired by the sweep since startup.
    pub fn expired_session_count(&self) -> u64 {
        self.expired_sessions.get()
    }

    fn fire(&self, ev: WatchEvent) {
        let targets: Vec<(NodeId, Rc<dyn Fn(WatchEvent)>)> = self
            .watches
            .borrow()
            .iter()
            .filter(|(_, w)| ev.path().starts_with(&w.prefix))
            .map(|(_, w)| (w.watcher, Rc::clone(&w.cb)))
            .collect();
        for (watcher, cb) in targets {
            let ev = ev.clone();
            let (ex, bytes) = (&self.watch_event, 64 + ev.path().len());
            self.net.send(ex, self.node, watcher, bytes, move || cb(ev));
        }
    }

    fn delete_ephemerals_of(&self, session: SessionId) {
        let doomed: Vec<String> = self
            .znodes
            .borrow()
            .iter()
            .filter(|(_, n)| n.ephemeral_owner == Some(session))
            .map(|(k, _)| k.clone())
            .collect();
        for path in doomed {
            self.delete(&path);
        }
    }

    /// Sessions expire in id order: expiry deletes ephemerals and those
    /// deletes fire watches, so the order is observable.
    fn expire_dead_sessions(&self) {
        let now = self.sim.now();
        let dead: Vec<SessionId> = self
            .sessions
            .borrow()
            .iter()
            .filter(|(_, s)| now.saturating_since(s.last_touch) > s.timeout)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.sessions.borrow_mut().remove(&id);
            self.expired_sessions.set(self.expired_sessions.get() + 1);
            self.delete_ephemerals_of(id);
        }
    }
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::disallowed_methods,
        reason = "CD007: a test drives the kernel from outside any process"
    )]
    use super::*;
    use cumulo_sim::LatencyConfig;

    fn setup() -> (Sim, Rc<Network>, Rc<CoordService>, NodeId) {
        let sim = Sim::new(7);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let zk_node = net.add_node("coord");
        let other = net.add_node("other");
        let svc = CoordService::new(&sim, &net, zk_node, SimDuration::from_millis(100));
        (sim, net, svc, other)
    }

    #[test]
    fn create_get_delete() {
        let (_sim, _net, svc, _) = setup();
        svc.create("/a/b", Bytes::from_static(b"v1"), None);
        assert_eq!(svc.get_data("/a/b"), Some(Bytes::from_static(b"v1")));
        assert!(svc.exists("/a/b"));
        svc.set_data("/a/b", Bytes::from_static(b"v2"));
        assert_eq!(svc.get_data("/a/b"), Some(Bytes::from_static(b"v2")));
        svc.delete("/a/b");
        assert!(!svc.exists("/a/b"));
        assert_eq!(svc.get_data("/a/b"), None);
    }

    #[test]
    fn children_lists_prefix_only() {
        let (_sim, _net, svc, _) = setup();
        for p in ["/live/a", "/live/b", "/live/c", "/thresholds/a", "/liv"] {
            svc.create(p, Bytes::new(), None);
        }
        assert_eq!(
            svc.children("/live/"),
            vec!["/live/a", "/live/b", "/live/c"]
        );
        assert_eq!(svc.children("/none/"), Vec::<String>::new());
    }

    #[test]
    fn watches_deliver_events_over_network() {
        let (sim, _net, svc, watcher) = setup();
        let events: Rc<RefCell<Vec<WatchEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let ev2 = events.clone();
        svc.watch_prefix("/live/", watcher, move |e| ev2.borrow_mut().push(e));
        svc.create("/live/x", Bytes::new(), None);
        svc.set_data("/live/x", Bytes::from_static(b"1"));
        svc.delete("/live/x");
        svc.create("/other/y", Bytes::new(), None); // not under the prefix
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            *events.borrow(),
            vec![
                WatchEvent::Created("/live/x".into()),
                WatchEvent::DataChanged("/live/x".into()),
                WatchEvent::Deleted("/live/x".into()),
            ]
        );
    }

    #[test]
    fn watch_events_not_delivered_to_dead_node() {
        let (sim, net, svc, watcher) = setup();
        let events = Rc::new(RefCell::new(Vec::new()));
        let ev2 = events.clone();
        svc.watch_prefix("/", watcher, move |e| ev2.borrow_mut().push(e));
        net.crash(watcher);
        svc.create("/x", Bytes::new(), None);
        sim.run_for(SimDuration::from_secs(1));
        assert!(events.borrow().is_empty());
    }

    #[test]
    fn unwatch_stops_events() {
        let (sim, _net, svc, watcher) = setup();
        let events = Rc::new(RefCell::new(Vec::new()));
        let ev2 = events.clone();
        let wid = svc.watch_prefix("/", watcher, move |e| ev2.borrow_mut().push(e));
        svc.unwatch(wid);
        svc.create("/x", Bytes::new(), None);
        sim.run_for(SimDuration::from_secs(1));
        assert!(events.borrow().is_empty());
    }

    #[test]
    fn session_expiry_removes_ephemerals_and_notifies() {
        let (sim, _net, svc, watcher) = setup();
        let sid = svc.create_session(SimDuration::from_secs(1));
        svc.create("/live/w", Bytes::new(), Some(sid));
        svc.create("/thresholds/w", Bytes::new(), None);
        let events = Rc::new(RefCell::new(Vec::new()));
        let ev2 = events.clone();
        svc.watch_prefix("/live/", watcher, move |e| ev2.borrow_mut().push(e));

        // Touch regularly for 3 seconds: session stays alive.
        for i in 1..=30u64 {
            let svc2 = Rc::clone(&svc);
            sim.schedule_at(SimTime::from_millis(i * 100), move || svc2.touch(sid));
        }
        sim.run_until(SimTime::from_secs(3));
        assert!(svc.exists("/live/w"));
        assert!(svc.session_alive(sid));

        // Stop touching: expires ~1s later.
        sim.run_until(SimTime::from_secs(6));
        assert!(!svc.session_alive(sid));
        assert!(!svc.exists("/live/w"));
        assert!(
            svc.exists("/thresholds/w"),
            "persistent znode must survive expiry"
        );
        assert_eq!(
            *events.borrow(),
            vec![WatchEvent::Deleted("/live/w".into())]
        );
        assert_eq!(svc.expired_session_count(), 1);
    }

    /// Regression (CD001): a single sweep expiring many sessions used to
    /// process them in `sessions` HashMap order, so the ephemeral-delete
    /// watch events reached watchers in a per-process order. They must
    /// arrive in session-id order.
    #[test]
    fn mass_expiry_fires_watches_in_session_order() {
        let (sim, _net, svc, watcher) = setup();
        let mut paths = Vec::new();
        for _ in 0..12 {
            let sid = svc.create_session(SimDuration::from_secs(1));
            let path = format!("/live/{:04}", sid.0);
            svc.create(&path, Bytes::new(), Some(sid));
            paths.push(path);
        }
        let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let ev2 = events.clone();
        svc.watch_prefix("/live/", watcher, move |e| {
            ev2.borrow_mut().push(e.path().to_owned());
        });
        // No touches: every session expires in the same sweep tick.
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(svc.expired_session_count(), 12);
        assert_eq!(
            *events.borrow(),
            paths,
            "expiry watch events must arrive in session-id order"
        );
    }

    #[test]
    fn clean_close_also_removes_ephemerals() {
        let (_sim, _net, svc, _) = setup();
        let sid = svc.create_session(SimDuration::from_secs(1));
        svc.create("/live/w", Bytes::new(), Some(sid));
        svc.close_session(sid);
        assert!(!svc.exists("/live/w"));
        assert!(!svc.session_alive(sid));
    }

    #[test]
    fn touch_on_expired_session_is_ignored() {
        let (sim, _net, svc, _) = setup();
        let sid = svc.create_session(SimDuration::from_millis(200));
        sim.run_until(SimTime::from_secs(2));
        assert!(!svc.session_alive(sid));
        svc.touch(sid); // must not resurrect
        assert!(!svc.session_alive(sid));
    }
}

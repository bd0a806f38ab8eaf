//! Client-side handle to the coordination service, paying RPC latency.
//!
//! Fire-and-forget operations (touch, set_data, delete) cost one network
//! message; read operations cost a round trip and deliver their result
//! through a callback at the caller's node.

use crate::service::{CoordService, SessionId, WatchEvent, WatchId};
use bytes::Bytes;
use cumulo_sim::{Exchange, Network, NodeId, Reply, SimDuration};
use std::fmt;
use std::rc::Rc;

/// A component's connection to the coordination service.
///
/// Cheap to clone; all clones share the same identity (`from` node).
#[derive(Clone)]
pub struct CoordClient {
    net: Rc<Network>,
    svc: Rc<CoordService>,
    from: NodeId,
    /// One exchange per operation, named after it.
    create_session: Exchange,
    touch: Exchange,
    close_session: Exchange,
    create: Exchange,
    set_data: Exchange,
    delete: Exchange,
    get_data: Exchange,
    children: Exchange,
    watch_prefix: Exchange,
    unwatch: Exchange,
}

impl fmt::Debug for CoordClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoordClient")
            .field("from", &self.from)
            .finish()
    }
}

impl CoordClient {
    /// Creates a client for the component running on node `from`.
    pub fn new(net: &Rc<Network>, svc: &Rc<CoordService>, from: NodeId) -> CoordClient {
        CoordClient {
            net: Rc::clone(net),
            svc: Rc::clone(svc),
            from,
            create_session: net.exchange("coord.create_session"),
            touch: net.exchange("coord.touch"),
            close_session: net.exchange("coord.close_session"),
            create: net.exchange("coord.create"),
            set_data: net.exchange("coord.set_data"),
            delete: net.exchange("coord.delete"),
            get_data: net.exchange("coord.get_data"),
            children: net.exchange("coord.children"),
            watch_prefix: net.exchange("coord.watch_prefix"),
            unwatch: net.exchange("coord.unwatch"),
        }
    }

    /// The node this client sends from.
    pub fn from_node(&self) -> NodeId {
        self.from
    }

    /// Opens a session with the given timeout; `done` runs at the caller
    /// with the new session id.
    pub fn create_session(&self, timeout: SimDuration, done: impl FnOnce(SessionId) + 'static) {
        let (svc, from) = (Rc::clone(&self.svc), self.from);
        let serve = move |reply: Reply<_, _>| reply.send(64, svc.create_session(timeout));
        self.net
            .request(&self.create_session, from, self.svc.node(), 64, serve, done);
    }

    /// Sends a liveness touch for `session` (fire and forget).
    pub fn touch(&self, session: SessionId) {
        let (svc, to) = (Rc::clone(&self.svc), self.svc.node());
        self.net
            .send(&self.touch, self.from, to, 48, move || svc.touch(session));
    }

    /// Closes `session` cleanly, removing its ephemeral znodes.
    pub fn close_session(&self, session: SessionId) {
        let (svc, to) = (Rc::clone(&self.svc), self.svc.node());
        self.net
            .send(&self.close_session, self.from, to, 48, move || {
                svc.close_session(session)
            });
    }

    /// Creates or replaces a znode (fire and forget).
    pub fn create(&self, path: &str, data: Bytes, ephemeral_owner: Option<SessionId>) {
        let svc = Rc::clone(&self.svc);
        let path = path.to_owned();
        let (to, size) = (svc.node(), 64 + path.len() + data.len());
        self.net.send(&self.create, self.from, to, size, move || {
            svc.create(&path, data, ephemeral_owner)
        });
    }

    /// Updates (or creates persistent) znode data (fire and forget).
    pub fn set_data(&self, path: &str, data: Bytes) {
        let svc = Rc::clone(&self.svc);
        let path = path.to_owned();
        let (to, size) = (svc.node(), 64 + path.len() + data.len());
        self.net.send(&self.set_data, self.from, to, size, move || {
            svc.set_data(&path, data)
        });
    }

    /// Deletes a znode (fire and forget).
    pub fn delete(&self, path: &str) {
        let svc = Rc::clone(&self.svc);
        let path = path.to_owned();
        let (to, size) = (svc.node(), 64 + path.len());
        self.net
            .send(&self.delete, self.from, to, size, move || svc.delete(&path));
    }

    /// Reads znode data; `done` runs at the caller with the result.
    pub fn get_data(&self, path: &str, done: impl FnOnce(Option<Bytes>) + 'static) {
        let svc = Rc::clone(&self.svc);
        let path = path.to_owned();
        let request_bytes = 64 + path.len();
        let serve = move |reply: Reply<_, _>| {
            let data = svc.get_data(&path);
            reply.send(64 + data.as_ref().map(|d| d.len()).unwrap_or(0), data);
        };
        let (ex, to) = (&self.get_data, self.svc.node());
        self.net
            .request(ex, self.from, to, request_bytes, serve, done);
    }

    /// Lists paths under `prefix`; `done` runs at the caller.
    pub fn children(&self, prefix: &str, done: impl FnOnce(Vec<String>) + 'static) {
        let svc = Rc::clone(&self.svc);
        let prefix = prefix.to_owned();
        let request_bytes = 64 + prefix.len();
        let serve = move |reply: Reply<_, _>| {
            let kids = svc.children(&prefix);
            reply.send(64 + kids.iter().map(|k| k.len()).sum::<usize>(), kids);
        };
        let (ex, to) = (&self.children, self.svc.node());
        self.net
            .request(ex, self.from, to, request_bytes, serve, done);
    }

    /// Registers a prefix watch whose callback runs at this client's node;
    /// `registered` runs once the watch is installed.
    pub fn watch_prefix(
        &self,
        prefix: &str,
        cb: impl Fn(WatchEvent) + 'static,
        registered: impl FnOnce(WatchId) + 'static,
    ) {
        let (svc, from) = (Rc::clone(&self.svc), self.from);
        let prefix = prefix.to_owned();
        let request_bytes = 64 + prefix.len();
        let serve = move |reply: Reply<_, _>| reply.send(32, svc.watch_prefix(&prefix, from, cb));
        let (ex, to) = (&self.watch_prefix, self.svc.node());
        self.net
            .request(ex, from, to, request_bytes, serve, registered);
    }

    /// Removes a previously registered watch (fire and forget).
    pub fn unwatch(&self, id: WatchId) {
        let (svc, to) = (Rc::clone(&self.svc), self.svc.node());
        self.net
            .send(&self.unwatch, self.from, to, 32, move || svc.unwatch(id));
    }

    /// Direct (non-RPC) access to the service, for assertions in tests and
    /// for the harness to inspect state without perturbing the simulation.
    pub fn service(&self) -> &Rc<CoordService> {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_sim::{LatencyConfig, Sim, SimTime};
    use std::cell::{Cell, RefCell};

    fn setup() -> (Sim, Rc<Network>, CoordClient) {
        let sim = Sim::new(3);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let zk = net.add_node("coord");
        let me = net.add_node("component");
        let svc = CoordService::new(&sim, &net, zk, SimDuration::from_millis(100));
        let client = CoordClient::new(&net, &svc, me);
        (sim, net, client)
    }

    #[test]
    fn round_trip_create_and_get() {
        let (sim, _net, client) = setup();
        client.create("/x", Bytes::from_static(b"hello"), None);
        let got: Rc<RefCell<Option<Option<Bytes>>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.get_data("/x", move |d| *g.borrow_mut() = Some(d));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*got.borrow(), Some(Some(Bytes::from_static(b"hello"))));
    }

    #[test]
    fn session_lifecycle_through_client() {
        let (sim, _net, client) = setup();
        let sid: Rc<Cell<Option<SessionId>>> = Rc::new(Cell::new(None));
        let s2 = sid.clone();
        client.create_session(SimDuration::from_millis(500), move |s| s2.set(Some(s)));
        sim.run_until(SimTime::from_millis(100));
        let session = sid.get().expect("session created");
        client.create("/live/me", Bytes::new(), Some(session));
        sim.run_until(SimTime::from_millis(200));
        assert!(client.service().exists("/live/me"));
        // No touches: expires.
        sim.run_until(SimTime::from_secs(3));
        assert!(!client.service().exists("/live/me"));
    }

    #[test]
    fn dead_component_stops_heartbeating_and_expires() {
        let (sim, net, client) = setup();
        let sid: Rc<Cell<Option<SessionId>>> = Rc::new(Cell::new(None));
        let s2 = sid.clone();
        client.create_session(SimDuration::from_millis(300), move |s| s2.set(Some(s)));
        sim.run_until(SimTime::from_millis(50));
        let session = sid.get().unwrap();
        client.create("/live/me", Bytes::new(), Some(session));

        // Heartbeat every 100ms via timer; crash the component at 1s.
        let c2 = client.clone();
        let beat = SimDuration::from_millis(100);
        net.every(client.from_node(), beat, beat, move || c2.touch(session));
        sim.run_until(SimTime::from_millis(900));
        assert!(client.service().session_alive(session));
        net.crash(client.from_node());
        sim.run_until(SimTime::from_secs(3));
        assert!(!client.service().session_alive(session));
        assert!(!client.service().exists("/live/me"));
    }

    #[test]
    fn children_round_trip() {
        let (sim, _net, client) = setup();
        client.create("/t/a", Bytes::new(), None);
        client.create("/t/b", Bytes::new(), None);
        let got: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        client.children("/t/", move |kids| *g.borrow_mut() = kids);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*got.borrow(), vec!["/t/a".to_owned(), "/t/b".to_owned()]);
    }

    #[test]
    fn watch_through_client() {
        let (sim, _net, client) = setup();
        let events: Rc<RefCell<Vec<WatchEvent>>> = Rc::new(RefCell::new(Vec::new()));
        let ev = events.clone();
        client.watch_prefix("/w/", move |e| ev.borrow_mut().push(e), |_| {});
        sim.run_until(SimTime::from_millis(50));
        client.create("/w/1", Bytes::new(), None);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*events.borrow(), vec![WatchEvent::Created("/w/1".into())]);
    }
}

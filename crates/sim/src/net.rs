//! Network model: named nodes, latency with jitter, FIFO delivery per
//! (source, destination) pair, crash-stop node failures and partitions.
//!
//! FIFO per-pair ordering models TCP connections. The recovery protocol in
//! `cumulo-core` relies on it: a client must observe its own commit
//! timestamps in monotonic order or its flushed-threshold `T_F(c)` could
//! overclaim (see ARCHITECTURE.md, "Protocol refinements").

use crate::kernel::Sim;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

/// Identifier of a simulated machine on the network.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Latency parameters for message delivery.
///
/// One-way latency is `base + per_kb * ceil(bytes / 1024)`, plus
/// multiplicative jitter uniform in `[1, 1 + jitter_frac)`. Messages a node
/// sends to itself use `loopback` instead.
#[derive(Copy, Clone, Debug)]
pub struct LatencyConfig {
    /// Fixed one-way propagation plus protocol overhead.
    pub base: SimDuration,
    /// Serialization cost per kilobyte (models link bandwidth).
    pub per_kb: SimDuration,
    /// Multiplicative jitter fraction (0.0 disables jitter).
    pub jitter_frac: f64,
    /// Latency for node-local messages.
    pub loopback: SimDuration,
}

impl LatencyConfig {
    /// A 100 Mbps-switched-Ethernet-like LAN, matching the paper's testbed:
    /// ~200 µs one-way base latency, ~80 µs per KB serialization, 20% jitter.
    pub fn lan_100mbps() -> Self {
        LatencyConfig {
            base: SimDuration::from_micros(200),
            per_kb: SimDuration::from_micros(80),
            jitter_frac: 0.2,
            loopback: SimDuration::from_micros(15),
        }
    }

    /// Near-zero latency, for unit tests that don't care about timing.
    pub fn instant() -> Self {
        LatencyConfig {
            base: SimDuration::from_nanos(1),
            per_kb: SimDuration::ZERO,
            jitter_frac: 0.0,
            loopback: SimDuration::from_nanos(1),
        }
    }
}

struct NodeMeta {
    name: String,
    alive: bool,
}

struct NetState {
    nodes: Vec<NodeMeta>,
    partitions: HashSet<(u32, u32)>,
    /// Per-(src,dst) earliest next delivery instant, enforcing FIFO order.
    fifo_horizon: HashMap<(u32, u32), u64>,
}

/// The simulated network. Shared via `Rc`.
///
/// # Example
///
/// ```
/// use cumulo_sim::{LatencyConfig, Network, Sim, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let sim = Sim::new(1);
/// let net = Network::new(&sim, LatencyConfig::lan_100mbps());
/// let a = net.add_node("a");
/// let b = net.add_node("b");
/// let got = Rc::new(Cell::new(false));
/// let g = got.clone();
/// net.send(a, b, 128, move || g.set(true));
/// sim.run_until(SimTime::from_secs(1));
/// assert!(got.get());
/// ```
pub struct Network {
    sim: Sim,
    latency: LatencyConfig,
    state: RefCell<NetState>,
    sent: Cell<u64>,
    delivered: Cell<u64>,
    dropped: Cell<u64>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field(
                "nodes",
                &Vec::from_iter(self.state.borrow().nodes.iter().map(|n| n.name.as_str())),
            )
            .field("sent", &self.sent.get())
            .field("delivered", &self.delivered.get())
            .field("dropped", &self.dropped.get())
            .finish()
    }
}

fn pair(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl Network {
    /// Creates an empty network on `sim` with the given latency model.
    pub fn new(sim: &Sim, latency: LatencyConfig) -> Rc<Network> {
        Rc::new(Network {
            sim: sim.clone(),
            latency,
            state: RefCell::new(NetState {
                nodes: Vec::new(),
                partitions: HashSet::new(),
                fifo_horizon: HashMap::new(),
            }),
            sent: Cell::new(0),
            delivered: Cell::new(0),
            dropped: Cell::new(0),
        })
    }

    /// Registers a machine and returns its id. Nodes start alive.
    pub fn add_node(&self, name: &str) -> NodeId {
        let mut st = self.state.borrow_mut();
        let id = NodeId(st.nodes.len() as u32);
        st.nodes.push(NodeMeta {
            name: name.to_owned(),
            alive: true,
        });
        id
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.state.borrow().nodes[node.0 as usize].alive
    }

    /// Marks a node dead. In-flight messages to or from it are dropped at
    /// their delivery instant; future sends from it are dropped immediately.
    pub fn crash(&self, node: NodeId) {
        self.state.borrow_mut().nodes[node.0 as usize].alive = false;
    }

    /// Marks a node alive again (a restarted process on the same machine).
    pub fn restart(&self, node: NodeId) {
        self.state.borrow_mut().nodes[node.0 as usize].alive = true;
    }

    /// Installs a bidirectional partition between `a` and `b`.
    pub fn partition(&self, a: NodeId, b: NodeId) {
        self.state.borrow_mut().partitions.insert(pair(a, b));
    }

    /// Removes the partition between `a` and `b`, if any.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        self.state.borrow_mut().partitions.remove(&pair(a, b));
    }

    /// Whether `a` and `b` are currently partitioned from each other.
    pub fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.state.borrow().partitions.contains(&pair(a, b))
    }

    /// Partitions `node` from every other registered node: total isolation
    /// without enumerating pairs. The node stays alive — its timers keep
    /// firing and loopback messages still deliver; only cross-node traffic
    /// is cut. Chaos schedules use this to model a machine that drops off
    /// the rack switch rather than crashing.
    pub fn isolate(&self, node: NodeId) {
        let mut st = self.state.borrow_mut();
        let n = st.nodes.len() as u32;
        for other in 0..n {
            if other != node.0 {
                st.partitions.insert(pair(node, NodeId(other)));
            }
        }
    }

    /// Removes every installed partition (both pairwise [`Network::partition`]
    /// and [`Network::isolate`] cuts). Messages sent while partitioned were
    /// dropped, not queued — healing restores connectivity, it does not
    /// retransmit.
    pub fn heal_all(&self) {
        self.state.borrow_mut().partitions.clear();
    }

    /// Sends a message of `bytes` payload from `from` to `to`; `deliver`
    /// runs at the receiver when (and if) the message arrives.
    ///
    /// The message is dropped — `deliver` never runs — if the sender is dead
    /// at send time, the pair is partitioned at send or delivery time, or
    /// the receiver is dead at delivery time. Delivery is FIFO per
    /// (from, to) pair.
    pub fn send(
        self: &Rc<Self>,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        deliver: impl FnOnce() + 'static,
    ) {
        self.sent.set(self.sent.get() + 1);
        {
            let st = self.state.borrow();
            if !st.nodes[from.0 as usize].alive || st.partitions.contains(&pair(from, to)) {
                self.dropped.set(self.dropped.get() + 1);
                return;
            }
        }
        let lat = if from == to {
            self.latency.loopback
        } else {
            let kb = (bytes as u64).div_ceil(1024);
            let raw = self.latency.base + self.latency.per_kb * kb;
            self.sim.jitter(raw, self.latency.jitter_frac)
        };
        let mut at = (self.sim.now() + lat).nanos();
        {
            let mut st = self.state.borrow_mut();
            let horizon = st.fifo_horizon.entry((from.0, to.0)).or_insert(0);
            if at <= *horizon {
                at = *horizon + 1;
            }
            *horizon = at;
        }
        let this = Rc::clone(self);
        self.sim.schedule_at(SimTime::from_nanos(at), move || {
            let ok = {
                let st = this.state.borrow();
                st.nodes[to.0 as usize].alive && !st.partitions.contains(&pair(from, to))
            };
            if ok {
                this.delivered.set(this.delivered.get() + 1);
                deliver();
            } else {
                this.dropped.set(this.dropped.get() + 1);
            }
        });
    }

    /// One round trip: `serve` runs at `to` when the `request_bytes`
    /// message from `from` arrives, and answers through the [`Reply`] it is
    /// given — at once, or later from a callback of its own (a handler
    /// that forces a log first); the reply message then runs `done` at
    /// `from`.
    ///
    /// These are exactly two [`Network::send`]s, the second issued where
    /// `serve` answers, so either hop is dropped under `send`'s rules and
    /// `done` then never runs: there is no timeout here — a caller that
    /// wants one uses [`Network::request_within`]. Every service stub's
    /// request/reply exchange goes through one of the two.
    pub fn request<T: 'static, D: FnOnce(T) + 'static>(
        self: &Rc<Self>,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, D>) + 'static,
        done: D,
    ) {
        self.exchange(from, to, request_bytes, serve, done);
    }

    /// [`Network::request`] with a deadline: `done` runs once, with the
    /// answer if it arrives within `deadline`, else with `None` at
    /// `now + deadline` — whether or not `from` is still alive. The timer
    /// is scheduled right after the request leaves, in the same event. A
    /// late request is still served; only its answer is dropped, so a
    /// fan-out whose late answers must still count is not this shape.
    pub fn request_within<T: 'static, D: FnOnce(Option<T>) + 'static>(
        self: &Rc<Self>,
        deadline: SimDuration,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, Within<D>>) + 'static,
        done: D,
    ) {
        let slot = Rc::new(Cell::new(Some(done)));
        self.exchange(from, to, request_bytes, serve, Within(Rc::clone(&slot)));
        self.sim.schedule_in(deadline, move || {
            if let Some(done) = slot.take() {
                done(None);
            }
        });
    }

    /// Both round trips, over any [`Settle`]; `request` keeps its own
    /// `FnOnce(T)` bound so that callers' closures infer their argument.
    fn exchange<T: 'static, D: Settle<T>>(
        self: &Rc<Self>,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, D>) + 'static,
        done: D,
    ) {
        let reply = Reply {
            net: Rc::clone(self),
            server: to,
            caller: from,
            done,
            value: PhantomData,
        };
        self.send(from, to, request_bytes, move || serve(reply));
    }

    /// Total messages submitted to the network.
    pub fn messages_sent(&self) -> u64 {
        self.sent.get()
    }

    /// Total messages delivered to a live receiver.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Total messages dropped (dead endpoint or partition).
    pub fn messages_dropped(&self) -> u64 {
        self.dropped.get()
    }
}

/// The server's end of a [`Network::request`]: consumed by the one answer.
pub struct Reply<T, D> {
    net: Rc<Network>,
    server: NodeId,
    caller: NodeId,
    done: D,
    value: PhantomData<fn(T)>,
}

impl<T: 'static, D: Settle<T>> Reply<T, D> {
    /// Answers with `value` in a message of `reply_bytes`. Dropping the
    /// `Reply` instead answers nothing (a dead handler).
    pub fn send(self, reply_bytes: usize, value: T) {
        let (net, server, caller, done) = (self.net, self.server, self.caller, self.done);
        net.send(server, caller, reply_bytes, move || done.settle(value));
    }
}

/// What an answer completes at the caller: a [`Network::request`]'s
/// `done`, or a [`Network::request_within`]'s [`Within`].
pub trait Settle<T>: 'static {
    /// Hands the answer over.
    fn settle(self, value: T);
}

impl<T, F: FnOnce(T) + 'static> Settle<T> for F {
    fn settle(self, value: T) {
        self(value)
    }
}

/// The caller's end of a [`Network::request_within`]: the `done` that
/// the reply and the deadline race for. Whichever comes first takes it.
pub struct Within<D>(Rc<Cell<Option<D>>>);

impl<T, D: FnOnce(Option<T>) + 'static> Settle<T> for Within<D> {
    fn settle(self, value: T) {
        if let Some(done) = self.0.take() {
            done(Some(value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn setup() -> (Sim, Rc<Network>, NodeId, NodeId) {
        let sim = Sim::new(42);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let a = net.add_node("a");
        let b = net.add_node("b");
        (sim, net, a, b)
    }

    #[test]
    fn delivery_to_live_node() {
        let (sim, net, a, b) = setup();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.send(a, b, 100, move || g.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
        assert_eq!(net.messages_delivered(), 1);
    }

    #[test]
    fn fifo_per_pair_even_with_jitter() {
        let (sim, net, a, b) = setup();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..200u32 {
            let log = log.clone();
            // Alternate tiny and huge messages so raw latencies interleave.
            let size = if i % 2 == 0 { 16 } else { 64 * 1024 };
            net.send(a, b, size, move || log.borrow_mut().push(i));
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*log.borrow(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn crash_drops_inflight_and_future() {
        let (sim, net, a, b) = setup();
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        net.send(a, b, 100, move || g.set(g.get() + 1));
        net.crash(b);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 0);
        // Sends from a dead node are dropped at send time.
        net.crash(a);
        let g2 = got.clone();
        net.send(a, b, 100, move || g2.set(g2.get() + 1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(got.get(), 0);
        assert_eq!(net.messages_dropped(), 2);
    }

    #[test]
    fn restart_restores_delivery() {
        let (sim, net, a, b) = setup();
        net.crash(b);
        net.restart(b);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.send(a, b, 100, move || g.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
    }

    #[test]
    fn partitions_block_both_directions_until_healed() {
        let (sim, net, a, b) = setup();
        net.partition(a, b);
        let got = Rc::new(Cell::new(0u32));
        let (g1, g2) = (got.clone(), got.clone());
        net.send(a, b, 10, move || g1.set(g1.get() + 1));
        net.send(b, a, 10, move || g2.set(g2.get() + 1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 0);
        net.heal(a, b);
        let g3 = got.clone();
        net.send(a, b, 10, move || g3.set(g3.get() + 1));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(got.get(), 1);
    }

    #[test]
    fn isolate_cuts_node_from_everyone_else() {
        let (sim, net, a, b) = setup();
        let c = net.add_node("c");
        net.isolate(b);
        assert!(net.partitioned(a, b));
        assert!(net.partitioned(b, c));
        assert!(!net.partitioned(a, c));
        let got = Rc::new(Cell::new(0u32));
        let (g1, g2, g3, g4) = (got.clone(), got.clone(), got.clone(), got.clone());
        net.send(a, b, 10, move || g1.set(g1.get() + 1));
        net.send(b, c, 10, move || g2.set(g2.get() + 1));
        net.send(a, c, 10, move || g3.set(g3.get() + 1));
        // Loopback on the isolated node still works.
        net.send(b, b, 10, move || g4.set(g4.get() + 1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 2);
        assert_eq!(net.messages_dropped(), 2);
    }

    #[test]
    fn heal_all_clears_pairwise_and_isolation_cuts() {
        let (sim, net, a, b) = setup();
        let c = net.add_node("c");
        net.partition(a, c);
        net.isolate(b);
        net.heal_all();
        assert!(!net.partitioned(a, b));
        assert!(!net.partitioned(b, c));
        assert!(!net.partitioned(a, c));
        let got = Rc::new(Cell::new(0u32));
        let (g1, g2) = (got.clone(), got.clone());
        net.send(a, b, 10, move || g1.set(g1.get() + 1));
        net.send(b, c, 10, move || g2.set(g2.get() + 1));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 2);
    }

    #[test]
    fn isolation_registered_before_later_nodes_does_not_cover_them() {
        // isolate() snapshots the node set: nodes added afterwards are
        // reachable. Chaos schedules isolate existing topologies, so this
        // is the behavior they want — documented here as a regression net.
        let (sim, net, a, b) = setup();
        net.isolate(b);
        let d = net.add_node("d");
        assert!(!net.partitioned(b, d));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.send(d, b, 10, move || g.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
        let _ = a;
    }

    /// `request` is the hand-written pair, event for event: under one
    /// seed both draw the same jitter and deliver at the same instants.
    #[test]
    fn request_delivers_when_the_pair_it_replaces_does() {
        fn trace(by_request: bool) -> (Vec<(&'static str, SimTime)>, u64) {
            let (sim, net, a, b) = setup();
            let log = Rc::new(RefCell::new(Vec::new()));
            // Background traffic on both directions, so FIFO horizons matter.
            net.send(a, b, 64 * 1024, || {});
            net.send(b, a, 64 * 1024, || {});
            for _ in 0..3 {
                let (l1, l2) = (log.clone(), log.clone());
                let (s1, s2) = (sim.clone(), sim.clone());
                if by_request {
                    net.request(
                        a,
                        b,
                        100,
                        move |reply| {
                            l1.borrow_mut().push(("served", s1.now()));
                            reply.send(2000, 7u32);
                        },
                        move |v| {
                            assert_eq!(v, 7);
                            l2.borrow_mut().push(("done", s2.now()));
                        },
                    );
                } else {
                    let net2 = Rc::clone(&net);
                    net.send(a, b, 100, move || {
                        l1.borrow_mut().push(("served", s1.now()));
                        net2.send(b, a, 2000, move || l2.borrow_mut().push(("done", s2.now())));
                    });
                }
            }
            sim.run_until(SimTime::from_secs(1));
            let out = log.borrow().clone();
            (out, net.messages_sent())
        }
        let (by_request, sent) = trace(true);
        assert_eq!(by_request.len(), 6);
        assert_eq!(sent, 8);
        assert_eq!((by_request, sent), trace(false));
    }

    /// `request_within` is a `request` raced by a hand-written slot and
    /// timer, event for event: the same jitter draws, the same instants,
    /// the same messages and the same number of events.
    #[test]
    fn request_within_delivers_when_the_race_it_replaces_does() {
        type Log = Rc<RefCell<Vec<(&'static str, SimTime)>>>;
        fn serve<D: Settle<u32>>(log: Log, sim: Sim, delay: SimDuration, reply: Reply<u32, D>) {
            log.borrow_mut().push(("served", sim.now()));
            sim.schedule_in(delay, move || reply.send(2000, 7));
        }
        fn trace(by_request_within: bool) -> (Vec<(&'static str, SimTime)>, u64, u64) {
            let (sim, net, a, b) = setup();
            let log: Log = Rc::default();
            // Background traffic on both directions, so FIFO horizons matter.
            net.send(a, b, 64 * 1024, || {});
            net.send(b, a, 64 * 1024, || {});
            let deadline = SimDuration::from_millis(20);
            for late in [false, true, false] {
                // The second request is answered after its deadline.
                let delay = SimDuration::from_millis(if late { 30 } else { 1 });
                let (l1, l2, s1, s2) = (log.clone(), log.clone(), sim.clone(), sim.clone());
                let done = move |v: Option<u32>| {
                    let what = if v == Some(7) { "done" } else { "timed out" };
                    l2.borrow_mut().push((what, s2.now()));
                };
                if by_request_within {
                    let serve = move |reply| serve(l1, s1, delay, reply);
                    net.request_within(deadline, a, b, 100, serve, done);
                } else {
                    let slot = Rc::new(Cell::new(Some(done)));
                    let slot2 = Rc::clone(&slot);
                    let serve = move |reply| serve(l1, s1, delay, reply);
                    net.request(a, b, 100, serve, move |v| {
                        if let Some(done) = slot2.take() {
                            done(Some(v));
                        }
                    });
                    sim.schedule_in(deadline, move || {
                        if let Some(done) = slot.take() {
                            done(None);
                        }
                    });
                }
            }
            sim.run_until(SimTime::from_secs(1));
            let out = log.borrow().clone();
            (out, net.messages_sent(), sim.events_executed())
        }
        let (by_request_within, sent, events) = trace(true);
        let timed_out = by_request_within
            .iter()
            .filter(|(what, _)| *what == "timed out");
        assert_eq!((by_request_within.len(), timed_out.count()), (6, 1));
        assert_eq!(sent, 8);
        assert_eq!((by_request_within, sent, events), trace(false));
    }

    /// Runs one `request_within` from `a` to `b` whose server answers
    /// `delay` after the request arrives; returns how often the server
    /// served it and every `(answer, instant)` that reached `done`.
    fn run_within(
        sim: &Sim,
        net: &Rc<Network>,
        (a, b): (NodeId, NodeId),
        delay: SimDuration,
    ) -> (u32, Vec<(Option<u32>, SimTime)>) {
        let served = Rc::new(Cell::new(0));
        let got = Rc::new(RefCell::new(Vec::new()));
        let (s, g, sim1, sim2) = (served.clone(), got.clone(), sim.clone(), sim.clone());
        let serve = move |reply: Reply<u32, _>| {
            s.set(s.get() + 1);
            sim1.schedule_in(delay, move || reply.send(10, 7));
        };
        let deadline = SimDuration::from_millis(10);
        net.request_within(deadline, a, b, 10, serve, move |v| {
            g.borrow_mut().push((v, sim2.now()));
        });
        sim.run_for(SimDuration::from_secs(1));
        let got = got.borrow().clone();
        (served.get(), got)
    }

    #[test]
    fn request_within_answered_in_time_settles_once() {
        let (sim, net, a, b) = setup();
        let (served, got) = run_within(&sim, &net, (a, b), SimDuration::ZERO);
        assert_eq!(served, 1);
        assert!(matches!(got[..], [(Some(7), at)] if at < SimTime::from_millis(10)));
        assert_eq!(net.messages_delivered(), 2);
    }

    #[test]
    fn request_within_cut_on_either_hop_settles_none_at_the_deadline() {
        let (sim, net, a, b) = setup();
        // Request hop cut.
        net.partition(a, b);
        let start = sim.now();
        let (served, got) = run_within(&sim, &net, (a, b), SimDuration::ZERO);
        let deadline = start + SimDuration::from_millis(10);
        assert_eq!((served, got), (0, vec![(None, deadline)]));
        // Reply hop cut: the pair is partitioned while the server answers.
        net.heal(a, b);
        let (net2, start) = (Rc::clone(&net), sim.now());
        sim.schedule_in(SimDuration::from_millis(2), move || net2.partition(a, b));
        let (served, got) = run_within(&sim, &net, (a, b), SimDuration::from_millis(5));
        let deadline = start + SimDuration::from_millis(10);
        assert_eq!((served, got), (1, vec![(None, deadline)]));
        assert_eq!(net.messages_dropped(), 2);
    }

    #[test]
    fn request_within_late_reply_is_served_and_dropped() {
        let (sim, net, a, b) = setup();
        let (served, got) = run_within(&sim, &net, (a, b), SimDuration::from_millis(20));
        assert_eq!((served, got), (1, vec![(None, SimTime::from_millis(10))]));
        // The late answer crossed the network; only `done` ignored it.
        assert_eq!((net.messages_delivered(), net.messages_dropped()), (2, 0));
    }

    #[test]
    fn request_cut_on_either_hop_never_completes() {
        let (sim, net, a, b) = setup();
        let served = Rc::new(Cell::new(0u32));
        let done = Rc::new(Cell::new(0u32));
        // Request hop cut.
        net.partition(a, b);
        let (s, d) = (served.clone(), done.clone());
        net.request(
            a,
            b,
            10,
            move |reply| {
                s.set(s.get() + 1);
                reply.send(10, ());
            },
            move |()| d.set(d.get() + 1),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            (served.get(), done.get(), net.messages_dropped()),
            (0, 0, 1)
        );
        // Reply hop cut: the server partitions the pair as it answers.
        net.heal(a, b);
        let (s, d, net2) = (served.clone(), done.clone(), Rc::clone(&net));
        net.request(
            a,
            b,
            10,
            move |reply| {
                s.set(s.get() + 1);
                net2.partition(a, b);
                reply.send(10, ());
            },
            move |()| d.set(d.get() + 1),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            (served.get(), done.get(), net.messages_dropped()),
            (1, 0, 2)
        );
    }

    #[test]
    fn larger_messages_take_longer() {
        let sim = Sim::new(1);
        let mut cfg = LatencyConfig::lan_100mbps();
        cfg.jitter_frac = 0.0;
        let net = Network::new(&sim, cfg);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let t_small = Rc::new(Cell::new(SimTime::ZERO));
        let t_big = Rc::new(Cell::new(SimTime::ZERO));
        let (ts, tb) = (t_small.clone(), t_big.clone());
        let (s1, s2) = (sim.clone(), sim.clone());
        net.send(a, b, 10, move || ts.set(s1.now()));
        sim.run_until(SimTime::from_secs(1));
        net.send(a, b, 1024 * 1024, move || tb.set(s2.now()));
        sim.run_until(SimTime::from_secs(2));
        let small_lat = t_small.get() - SimTime::ZERO;
        let big_lat = t_big.get() - SimTime::from_secs(1);
        assert!(big_lat > small_lat * 10, "{big_lat} vs {small_lat}");
    }

    #[test]
    fn loopback_is_fast() {
        let (sim, net, a, _) = setup();
        let t = Rc::new(Cell::new(SimTime::ZERO));
        let tc = t.clone();
        let s = sim.clone();
        net.send(a, a, 10_000, move || tc.set(s.now()));
        sim.run_until(SimTime::from_secs(1));
        assert!(t.get() <= SimTime::ZERO + SimDuration::from_micros(100));
    }
}

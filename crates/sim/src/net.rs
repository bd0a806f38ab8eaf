//! Network model: named nodes, latency with jitter, FIFO delivery per
//! (source, destination) pair, crash-stop node failures and partitions.
//!
//! A node's state is the process's liveness: code at a node runs only
//! from a delivery to it, one of its timers ([`Network::every`]) or a
//! callback it scheduled on itself ([`Network::after`]), and each of the
//! three is dropped while the node is dead. An `after`, a deadline and a
//! reply run only in the incarnation of the node that asked for them.
//!
//! Every message belongs to an [`Exchange`], the name of what it carries
//! (`tm.begin`, `store.get`, …): the network counts what it sent and
//! dropped per exchange, in the run's metrics registry, and nowhere else.
//!
//! FIFO per-pair ordering models TCP connections. The recovery protocol in
//! `cumulo-core` relies on it: a client must observe its own commit
//! timestamps in monotonic order or its flushed-threshold `T_F(c)` could
//! overclaim (see ARCHITECTURE.md, "Protocol refinements").

use crate::kernel::Sim;
use crate::metrics::Counter;
use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
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
    /// Bumped by [`Network::crash`] (module docs).
    incarnation: u64,
    /// Bumped by [`Network::crash`] and [`Network::stop_timers`]: a timer
    /// fires only while the generation it was armed in is current.
    timers: u64,
}

struct NetState {
    nodes: Vec<NodeMeta>,
    partitions: BTreeSet<(u32, u32)>,
    /// Per-(src,dst) earliest next delivery instant, enforcing FIFO order.
    fifo_horizon: BTreeMap<(u32, u32), u64>,
}

/// One kind of message, a round trip's or a one-way notification's,
/// named `<service>.<operation>`: the handle its senders pass to
/// [`Network::send`], [`Network::request`] and
/// [`Network::request_within`]. [`Network::exchange`] makes it and
/// registers its `net.sent{exchange=…}` and `net.dropped{exchange=…}`
/// counters; a message, request hop and reply hop alike, adds one to the
/// first, and one to the second if it is dropped. Clones share the
/// counters.
#[derive(Clone)]
pub struct Exchange(Rc<Counts>);

struct Counts {
    name: &'static str,
    sent: Counter,
    dropped: Counter,
}

impl fmt::Debug for Exchange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0.name)
    }
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
/// let ping = net.exchange("b.ping");
/// let got = Rc::new(Cell::new(false));
/// let g = got.clone();
/// net.send(&ping, a, b, 128, move || g.set(true));
/// sim.run_until(SimTime::from_secs(1));
/// assert!(got.get());
/// let sent = sim.metrics().snapshot().get("net.sent{exchange=b.ping}");
/// assert_eq!(sent, Some(1));
/// ```
pub struct Network {
    sim: Sim,
    latency: LatencyConfig,
    state: RefCell<NetState>,
    /// Every exchange made on this network, by name.
    exchanges: RefCell<BTreeMap<&'static str, Exchange>>,
    delivered: Cell<u64>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field(
                "nodes",
                &Vec::from_iter(self.state.borrow().nodes.iter().map(|n| n.name.as_str())),
            )
            .field("sent", &self.messages_sent())
            .field("delivered", &self.delivered.get())
            .field("dropped", &self.messages_dropped())
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
                partitions: BTreeSet::new(),
                fifo_horizon: BTreeMap::new(),
            }),
            exchanges: RefCell::default(),
            delivered: Cell::new(0),
        })
    }

    /// The handle of the exchange called `name`: made, with its two
    /// counters registered, by the first call for the name; a clone of
    /// that one after. A component takes its handles when it is built,
    /// so a message costs no lookup.
    pub fn exchange(&self, name: &'static str) -> Exchange {
        let mut exchanges = self.exchanges.borrow_mut();
        let made = exchanges.entry(name).or_insert_with(|| {
            let (metrics, label) = (self.sim.metrics(), [("exchange", name)]);
            Exchange(Rc::new(Counts {
                name,
                sent: metrics.counter("net.sent", &label),
                dropped: metrics.counter("net.dropped", &label),
            }))
        });
        made.clone()
    }

    /// Registers a machine and returns its id. Nodes start alive.
    pub fn add_node(&self, name: &str) -> NodeId {
        let mut st = self.state.borrow_mut();
        let id = NodeId(st.nodes.len() as u32);
        st.nodes.push(NodeMeta {
            name: name.to_owned(),
            alive: true,
            incarnation: 0,
            timers: 0,
        });
        id
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.state.borrow().nodes[node.0 as usize].alive
    }

    /// The node's current incarnation, if it is alive.
    fn incarnation(&self, node: NodeId) -> Option<u64> {
        let meta = &self.state.borrow().nodes[node.0 as usize];
        meta.alive.then_some(meta.incarnation)
    }

    /// Marks a node dead, ends its incarnation and stops its timers.
    /// In-flight messages to or from it are dropped at their delivery
    /// instant; future sends from it are dropped immediately.
    pub fn crash(&self, node: NodeId) {
        let mut st = self.state.borrow_mut();
        let meta = &mut st.nodes[node.0 as usize];
        meta.alive = false;
        meta.incarnation += 1;
        meta.timers += 1;
    }

    /// Marks a node alive again (a restarted process on the same machine).
    /// Its timers stay stopped: the restarted process arms its own.
    pub fn restart(&self, node: NodeId) {
        self.state.borrow_mut().nodes[node.0 as usize].alive = true;
    }

    /// Stops every timer armed on `node`; the node stays alive (a process
    /// that shut down cleanly).
    pub fn stop_timers(&self, node: NodeId) {
        self.state.borrow_mut().nodes[node.0 as usize].timers += 1;
    }

    /// Runs `tick` at `node` every `interval`, first after `first`, until
    /// the node crashes or its timers are stopped.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the timer would livelock the event loop).
    ///
    /// # Example
    ///
    /// ```
    /// use cumulo_sim::{LatencyConfig, Network, Sim, SimDuration, SimTime};
    /// use std::{cell::Cell, rc::Rc};
    ///
    /// let sim = Sim::new(1);
    /// let net = Network::new(&sim, LatencyConfig::instant());
    /// let node = net.add_node("n");
    /// let n = Rc::new(Cell::new(0));
    /// let n2 = n.clone();
    /// let second = SimDuration::from_secs(1);
    /// net.every(node, second, second, move || n2.set(n2.get() + 1));
    /// sim.run_until(SimTime::from_secs(5));
    /// net.crash(node);
    /// sim.run_until(SimTime::from_secs(10));
    /// assert_eq!(n.get(), 5);
    /// ```
    pub fn every(
        self: &Rc<Self>,
        node: NodeId,
        first: SimDuration,
        interval: SimDuration,
        tick: impl FnMut() + 'static,
    ) {
        assert!(!interval.is_zero(), "timer interval must be non-zero");
        let armed = self.state.borrow().nodes[node.0 as usize].timers;
        self.tick_after(node, armed, first, interval, Box::new(tick));
    }

    #[expect(clippy::disallowed_methods, reason = "CD007: a node's timer")]
    fn tick_after(
        self: &Rc<Self>,
        node: NodeId,
        armed: u64,
        delay: SimDuration,
        interval: SimDuration,
        mut tick: Box<dyn FnMut()>,
    ) {
        let this = Rc::clone(self);
        self.sim.schedule_in(delay, move || {
            let running = || {
                let meta = &this.state.borrow().nodes[node.0 as usize];
                meta.alive && meta.timers == armed
            };
            if !running() {
                return;
            }
            tick();
            if running() {
                this.tick_after(node, armed, interval, interval, tick);
            }
        });
    }

    /// Runs `f` at `node` after `delay` — a retry or poll a process
    /// schedules on itself — unless the node has crashed since.
    #[expect(clippy::disallowed_methods, reason = "CD007: bound to its node")]
    pub fn after(self: &Rc<Self>, node: NodeId, delay: SimDuration, f: impl FnOnce() + 'static) {
        let (this, asked) = (Rc::clone(self), self.incarnation(node));
        self.sim.schedule_in(delay, move || {
            if asked.is_some() && this.incarnation(node) == asked {
                f();
            }
        });
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

    /// Sends a message of `exchange` with `bytes` payload from `from` to
    /// `to`; `deliver` runs at the receiver when (and if) the message
    /// arrives.
    ///
    /// The message is dropped — `deliver` never runs — if the sender is dead
    /// at send time, the pair is partitioned at send or delivery time, or
    /// the receiver is dead at delivery time. Delivery is FIFO per
    /// (from, to) pair.
    #[expect(clippy::disallowed_methods, reason = "CD007: delivered at a live node")]
    pub fn send(
        self: &Rc<Self>,
        exchange: &Exchange,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        deliver: impl FnOnce() + 'static,
    ) {
        exchange.0.sent.inc();
        {
            let st = self.state.borrow();
            if !st.nodes[from.0 as usize].alive || st.partitions.contains(&pair(from, to)) {
                exchange.0.dropped.inc();
                return;
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "message latency jitter: every send between two nodes draws it from the seeded sim RNG; the latency model and all pinned baselines include this draw"
        )]
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
        let (this, dropped) = (Rc::clone(self), exchange.0.dropped.clone());
        self.sim.schedule_at(SimTime::from_nanos(at), move || {
            let ok = {
                let st = this.state.borrow();
                st.nodes[to.0 as usize].alive && !st.partitions.contains(&pair(from, to))
            };
            if ok {
                this.delivered.set(this.delivered.get() + 1);
                deliver();
            } else {
                dropped.inc();
            }
        });
    }

    /// One round trip of `exchange`: `serve` runs at `to` when the
    /// `request_bytes` message from `from` arrives, and answers through the
    /// [`Reply`] it is given — at once, or later from a callback of its own
    /// (a handler that forces a log first); the reply message then runs
    /// `done` at `from`.
    ///
    /// These are exactly two [`Network::send`]s of `exchange`, the second
    /// issued where `serve` answers, so either hop is dropped under
    /// `send`'s rules and `done` then never runs: there is no timeout here
    /// — a caller that wants one uses [`Network::request_within`]. Every
    /// service stub's request/reply exchange goes through one of the two.
    pub fn request<T: 'static, D: FnOnce(T) + 'static>(
        self: &Rc<Self>,
        exchange: &Exchange,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, D>) + 'static,
        done: D,
    ) {
        self.round_trip(exchange, from, to, request_bytes, serve, done);
    }

    /// [`Network::request`] with a deadline: `done` runs once, with the
    /// answer if it arrives within `deadline`, else with `None` at
    /// `now + deadline` — or never, if `from` crashes first. The timer is
    /// a [`Network::after`] on `from` right after the request leaves. A
    /// late request is still served; only its answer is dropped, so a
    /// fan-out whose late answers must still count is not this shape.
    #[expect(
        clippy::too_many_arguments,
        reason = "a request's six parts, as `request` takes them, plus its deadline; a struct of them would only be unpacked here"
    )]
    pub fn request_within<T: 'static, D: FnOnce(Option<T>) + 'static>(
        self: &Rc<Self>,
        exchange: &Exchange,
        deadline: SimDuration,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, Within<D>>) + 'static,
        done: D,
    ) {
        let slot = Rc::new(Cell::new(Some(done)));
        let within = Within(Rc::clone(&slot));
        self.round_trip(exchange, from, to, request_bytes, serve, within);
        self.after(from, deadline, move || {
            if let Some(done) = slot.take() {
                done(None);
            }
        });
    }

    /// Both round trips, over any [`Settle`]; `request` keeps its own
    /// `FnOnce(T)` bound so that callers' closures infer their argument.
    fn round_trip<T: 'static, D: Settle<T>>(
        self: &Rc<Self>,
        exchange: &Exchange,
        from: NodeId,
        to: NodeId,
        request_bytes: usize,
        serve: impl FnOnce(Reply<T, D>) + 'static,
        done: D,
    ) {
        let reply = Reply {
            net: Rc::clone(self),
            exchange: exchange.clone(),
            server: to,
            caller: (from, self.incarnation(from)),
            done,
            value: PhantomData,
        };
        self.send(exchange, from, to, request_bytes, move || serve(reply));
    }

    /// Total messages submitted to the network: the sum of every
    /// exchange's `net.sent`.
    pub fn messages_sent(&self) -> u64 {
        let exchanges = self.exchanges.borrow();
        exchanges.values().map(|e| e.0.sent.get()).sum()
    }

    /// Total messages delivered to a live receiver.
    pub fn messages_delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Total messages dropped (dead endpoint or partition): the sum of
    /// every exchange's `net.dropped`.
    pub fn messages_dropped(&self) -> u64 {
        let exchanges = self.exchanges.borrow();
        exchanges.values().map(|e| e.0.dropped.get()).sum()
    }
}

/// The server's end of a [`Network::request`]: consumed by the one answer.
pub struct Reply<T, D> {
    net: Rc<Network>,
    exchange: Exchange,
    server: NodeId,
    /// The caller, and its incarnation that asked.
    caller: (NodeId, Option<u64>),
    done: D,
    value: PhantomData<fn(T)>,
}

impl<T: 'static, D: Settle<T>> Reply<T, D> {
    /// Answers with `value` in a message of `reply_bytes`, discarded if the
    /// caller has restarted. Dropping the `Reply` answers nothing.
    pub fn send(self, reply_bytes: usize, value: T) {
        let (net, server, (caller, asked), done) = (self.net, self.server, self.caller, self.done);
        let fence = Rc::clone(&net);
        net.send(&self.exchange, server, caller, reply_bytes, move || {
            if fence.incarnation(caller) == asked {
                done.settle(value)
            }
        });
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
    #![expect(
        clippy::disallowed_methods,
        reason = "CD007: a test drives the kernel from outside any process"
    )]
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
        net.send(&net.exchange("test.msg"), a, b, 100, move || g.set(true));
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
            net.send(&net.exchange("test.msg"), a, b, size, move || {
                log.borrow_mut().push(i)
            });
        }
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(*log.borrow(), (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn crash_drops_inflight_and_future() {
        let (sim, net, a, b) = setup();
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        net.send(&net.exchange("test.msg"), a, b, 100, move || {
            g.set(g.get() + 1)
        });
        net.crash(b);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 0);
        // Sends from a dead node are dropped at send time.
        net.crash(a);
        let g2 = got.clone();
        net.send(&net.exchange("test.msg"), a, b, 100, move || {
            g2.set(g2.get() + 1)
        });
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
        net.send(&net.exchange("test.msg"), a, b, 100, move || g.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
    }

    #[test]
    fn partitions_block_both_directions_until_healed() {
        let (sim, net, a, b) = setup();
        net.partition(a, b);
        let got = Rc::new(Cell::new(0u32));
        let (g1, g2) = (got.clone(), got.clone());
        net.send(&net.exchange("test.msg"), a, b, 10, move || {
            g1.set(g1.get() + 1)
        });
        net.send(&net.exchange("test.msg"), b, a, 10, move || {
            g2.set(g2.get() + 1)
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.get(), 0);
        net.heal(a, b);
        let g3 = got.clone();
        net.send(&net.exchange("test.msg"), a, b, 10, move || {
            g3.set(g3.get() + 1)
        });
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
        net.send(&net.exchange("test.msg"), a, b, 10, move || {
            g1.set(g1.get() + 1)
        });
        net.send(&net.exchange("test.msg"), b, c, 10, move || {
            g2.set(g2.get() + 1)
        });
        net.send(&net.exchange("test.msg"), a, c, 10, move || {
            g3.set(g3.get() + 1)
        });
        // Loopback on the isolated node still works.
        net.send(&net.exchange("test.msg"), b, b, 10, move || {
            g4.set(g4.get() + 1)
        });
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
        net.send(&net.exchange("test.msg"), a, b, 10, move || {
            g1.set(g1.get() + 1)
        });
        net.send(&net.exchange("test.msg"), b, c, 10, move || {
            g2.set(g2.get() + 1)
        });
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
        net.send(&net.exchange("test.msg"), d, b, 10, move || g.set(true));
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
            net.send(&net.exchange("test.msg"), a, b, 64 * 1024, || {});
            net.send(&net.exchange("test.msg"), b, a, 64 * 1024, || {});
            for _ in 0..3 {
                let (l1, l2) = (log.clone(), log.clone());
                let (s1, s2) = (sim.clone(), sim.clone());
                if by_request {
                    net.request(
                        &net.exchange("test.msg"),
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
                    net.send(&net.exchange("test.msg"), a, b, 100, move || {
                        l1.borrow_mut().push(("served", s1.now()));
                        net2.send(&net2.exchange("test.msg"), b, a, 2000, move || {
                            l2.borrow_mut().push(("done", s2.now()))
                        });
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
            net.send(&net.exchange("test.msg"), a, b, 64 * 1024, || {});
            net.send(&net.exchange("test.msg"), b, a, 64 * 1024, || {});
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
                    net.request_within(&net.exchange("test.msg"), deadline, a, b, 100, serve, done);
                } else {
                    let slot = Rc::new(Cell::new(Some(done)));
                    let slot2 = Rc::clone(&slot);
                    let serve = move |reply| serve(l1, s1, delay, reply);
                    net.request(&net.exchange("test.msg"), a, b, 100, serve, move |v| {
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
        net.request_within(
            &net.exchange("test.msg"),
            deadline,
            a,
            b,
            10,
            serve,
            move |v| {
                g.borrow_mut().push((v, sim2.now()));
            },
        );
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
            &net.exchange("test.msg"),
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
            &net.exchange("test.msg"),
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

    /// A request dropped on either hop counts once under its own
    /// exchange's `net.dropped`, and under no other exchange's.
    #[test]
    fn a_dropped_request_counts_under_its_own_exchange_only() {
        let (sim, net, a, b) = setup();
        let (ping, pong) = (net.exchange("b.ping"), net.exchange("b.pong"));
        let count = |what: &str, name: &str| {
            let key = format!("net.{what}{{exchange={name}}}");
            sim.metrics().snapshot().get(&key).expect("registered")
        };
        // Request hop cut.
        net.partition(a, b);
        net.request(&ping, a, b, 10, |reply| reply.send(10, ()), |()| {});
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            (count("dropped", "b.ping"), count("dropped", "b.pong")),
            (1, 0)
        );
        // Reply hop cut: the server partitions the pair as it answers.
        net.heal(a, b);
        let net2 = Rc::clone(&net);
        let serve = move |reply: Reply<(), _>| {
            net2.partition(a, b);
            reply.send(10, ());
        };
        net.request(&ping, a, b, 10, serve, |()| {});
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            (count("dropped", "b.ping"), count("dropped", "b.pong")),
            (2, 0)
        );
        assert_eq!((count("sent", "b.ping"), count("sent", "b.pong")), (3, 0));
        assert_eq!(net.messages_dropped(), 2);
        assert_eq!(format!("{pong:?}"), "b.pong");
    }

    /// Arms a timer on `node` that logs the instant of every tick.
    fn log_ticks(
        net: &Rc<Network>,
        sim: &Sim,
        node: NodeId,
        first_ms: u64,
    ) -> Rc<RefCell<Vec<u64>>> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let (l, s) = (log.clone(), sim.clone());
        let (first, interval) = (
            SimDuration::from_millis(first_ms),
            SimDuration::from_millis(100),
        );
        net.every(node, first, interval, move || {
            l.borrow_mut().push(s.now().nanos() / 1_000_000)
        });
        log
    }

    #[test]
    fn a_node_timer_fires_on_its_phase_and_stops_at_crash_for_good() {
        let (sim, net, a, b) = setup();
        let ticks = log_ticks(&net, &sim, a, 7);
        let other = log_ticks(&net, &sim, b, 100);
        sim.run_until(SimTime::from_millis(350));
        assert_eq!(*ticks.borrow(), [7, 107, 207, 307]);
        // Crashed and restarted between two ticks: a restarted process
        // re-arms its own timers, and the old ones stay stopped.
        net.crash(a);
        net.restart(a);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*ticks.borrow(), [7, 107, 207, 307]);
        assert_eq!(other.borrow().len(), 10, "another node's timer runs on");
        let rearmed = log_ticks(&net, &sim, a, 50);
        sim.run_until(SimTime::from_millis(1_200));
        assert_eq!(*rearmed.borrow(), [1_050, 1_150]);
    }

    #[test]
    fn stop_timers_stops_a_node_timer_and_leaves_the_node_alive() {
        let (sim, net, a, b) = setup();
        let ticks = log_ticks(&net, &sim, a, 100);
        sim.run_until(SimTime::from_millis(250));
        net.stop_timers(a);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*ticks.borrow(), [100, 200]);
        assert!(net.is_alive(a));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        net.send(&net.exchange("test.msg"), b, a, 10, move || g.set(true));
        sim.run_until(SimTime::from_secs(2));
        assert!(got.get(), "the node still takes deliveries");
    }

    #[test]
    fn a_tick_that_stops_its_node_timers_is_the_last() {
        let (sim, net, a, _) = setup();
        let n = Rc::new(Cell::new(0u32));
        let (n2, net2) = (n.clone(), Rc::clone(&net));
        let ms = SimDuration::from_millis(10);
        net.every(a, ms, ms, move || {
            n2.set(n2.get() + 1);
            if n2.get() == 2 {
                net2.stop_timers(a);
            }
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(n.get(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn a_zero_interval_panics() {
        let (_, net, a, _) = setup();
        net.every(a, SimDuration::ZERO, SimDuration::ZERO, || {});
    }

    #[test]
    fn after_runs_only_in_the_incarnation_that_asked() {
        let (sim, net, a, _) = setup();
        let ran = Rc::new(RefCell::new(Vec::new()));
        let at = |ms: u64, what: &'static str| {
            let r = ran.clone();
            net.after(a, SimDuration::from_millis(ms), move || {
                r.borrow_mut().push(what)
            });
        };
        at(100, "before the crash");
        at(300, "while dead");
        at(600, "after a crash and restart");
        let net2 = Rc::clone(&net);
        sim.schedule_at(SimTime::from_millis(200), move || net2.crash(a));
        let (net3, r) = (Rc::clone(&net), ran.clone());
        sim.schedule_at(SimTime::from_millis(500), move || {
            net3.restart(a);
            net3.after(a, SimDuration::from_millis(200), move || {
                r.borrow_mut().push("asked by the restarted process")
            });
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            *ran.borrow(),
            ["before the crash", "asked by the restarted process"]
        );
    }

    /// A caller that crashes with a `request_within` outstanding never
    /// runs `done`: not with the answer, which reaches a dead node, and
    /// not with `None` at the deadline. Restarted before the answer
    /// arrives, it does not receive it either.
    #[test]
    fn a_crashed_caller_gets_neither_the_answer_nor_the_deadline() {
        for restart in [false, true] {
            let (sim, net, a, b) = setup();
            // The request reaches `b` about 200 µs after it leaves.
            let net2 = Rc::clone(&net);
            sim.schedule_in(SimDuration::from_micros(100), move || {
                net2.crash(a);
                if restart {
                    net2.restart(a);
                }
            });
            let (served, got) = run_within(&sim, &net, (a, b), SimDuration::ZERO);
            assert_eq!((served, got), (1, vec![]), "restarted: {restart}");
            // Dropped at a dead node; delivered and discarded at a restarted one.
            let dropped = u64::from(!restart);
            assert_eq!(net.messages_dropped(), dropped, "restarted: {restart}");
            assert_eq!(net.is_alive(a), restart);
        }
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
        net.send(&net.exchange("test.msg"), a, b, 10, move || {
            ts.set(s1.now())
        });
        sim.run_until(SimTime::from_secs(1));
        net.send(&net.exchange("test.msg"), a, b, 1024 * 1024, move || {
            tb.set(s2.now())
        });
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
        net.send(&net.exchange("test.msg"), a, a, 10_000, move || {
            tc.set(s.now())
        });
        sim.run_until(SimTime::from_secs(1));
        assert!(t.get() <= SimTime::ZERO + SimDuration::from_micros(100));
    }
}

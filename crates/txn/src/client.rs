//! Client-side handle to the transaction manager, paying RPC latency.
//!
//! Every exchange with the manager is one method here, and this file is
//! the one place its wire sizes are written down. A request/reply
//! exchange is one [`Network::request`] round trip; the two notifications
//! (flush-complete, truncate) are one message, fire and forget. Nothing is
//! retried: a lost begin, commit or commit ack never runs its callback
//! (ROADMAP item 2).

use crate::log::LogRecord;
use crate::manager::{CommitOutcome, Session, TransactionManager, TxnId};
use cumulo_sim::{Exchange, Network, NodeId, Reply};
use cumulo_store::{ClientId, Timestamp, WriteSet};
use std::rc::Rc;

/// A message of ids and timestamps only: every request and reply that
/// carries no write-set.
const SMALL: usize = 48;
/// Fixed part of a message that carries write-sets (a commit request, a
/// log-fetch reply) or asks for them (a log-fetch request).
const BULK_HEADER: usize = 64;

/// Answers a log fetch: the records, sized by what they carry.
fn send_records<D: FnOnce(Vec<LogRecord>) + 'static>(
    reply: Reply<Vec<LogRecord>, D>,
    records: Vec<LogRecord>,
) {
    let bytes = BULK_HEADER + records.iter().map(LogRecord::wire_size).sum::<usize>();
    reply.send(bytes, records);
}

/// A component's connection to the transaction manager.
///
/// Cheap to clone; all clones share the same identity (`from` node).
#[derive(Clone, Debug)]
pub struct TmClient {
    net: Rc<Network>,
    tm: Rc<TransactionManager>,
    from: NodeId,
    /// One exchange per method, named after it.
    begin: Exchange,
    commit: Exchange,
    flush_complete: Exchange,
    last_commit_ts: Exchange,
    reap_and_fetch_client: Exchange,
    fetch_after: Exchange,
    truncate_below: Exchange,
}

impl TmClient {
    /// Creates a client for the component running on node `from`.
    pub fn new(net: &Rc<Network>, tm: &Rc<TransactionManager>, from: NodeId) -> TmClient {
        TmClient {
            net: Rc::clone(net),
            tm: Rc::clone(tm),
            from,
            begin: net.exchange("tm.begin"),
            commit: net.exchange("tm.commit"),
            flush_complete: net.exchange("tm.flush_complete"),
            last_commit_ts: net.exchange("tm.last_commit_ts"),
            reap_and_fetch_client: net.exchange("tm.reap_and_fetch_client"),
            fetch_after: net.exchange("tm.fetch_after"),
            truncate_below: net.exchange("tm.truncate_below"),
        }
    }

    /// One round trip: `serve` runs at the manager and answers through
    /// the `Reply`. Every request/reply exchange goes through here.
    fn call<T: 'static, D: FnOnce(T) + 'static>(
        &self,
        exchange: &Exchange,
        request_bytes: usize,
        serve: impl FnOnce(&Rc<TransactionManager>, Reply<T, D>) + 'static,
        done: D,
    ) {
        let tm = Rc::clone(&self.tm);
        let serve = move |reply| serve(&tm, reply);
        let (from, to) = (self.from, self.tm.node());
        self.net
            .request(exchange, from, to, request_bytes, serve, done);
    }

    /// One `SMALL` message, no reply. Every notification goes through here.
    fn tell(&self, exchange: &Exchange, serve: impl FnOnce(&TransactionManager) + 'static) {
        let tm = Rc::clone(&self.tm);
        self.net
            .send(exchange, self.from, tm.node(), SMALL, move || serve(&tm));
    }

    /// Begins `txn` (named by its client, see [`TxnId::new`]) after
    /// catching the manager up with `session`; `done` gets the snapshot. A
    /// commit of `txn` may follow at once: the FIFO link delivers it behind.
    pub fn begin(&self, txn: TxnId, session: Session, done: impl FnOnce(Timestamp) + 'static) {
        self.call(
            &self.begin,
            SMALL,
            move |tm, reply| reply.send(SMALL, tm.handle_begin(txn, session)),
            done,
        );
    }

    /// Commit request carrying the write-set, which is never empty (a
    /// read-only transaction sends nothing); `done` runs at the
    /// caller with the outcome, which the manager sends only after the log
    /// force.
    pub fn commit(
        &self,
        txn: TxnId,
        write_set: WriteSet,
        done: impl FnOnce(CommitOutcome) + 'static,
    ) {
        self.call(
            &self.commit,
            BULK_HEADER + write_set.wire_size(),
            move |tm, reply| {
                tm.handle_commit(txn, write_set, move |outcome| reply.send(SMALL, outcome))
            },
            done,
        );
    }

    /// Reports commit `ts` applied at every participant (fire and
    /// forget). The manager's watermark — the snapshot of every new
    /// transaction — stays below `ts` until this arrives.
    pub fn flush_complete(&self, ts: Timestamp) {
        self.tell(&self.flush_complete, move |tm| tm.handle_flush_complete(ts));
    }

    /// Catches the manager up with an idle client's `session` and reads
    /// the newest commit timestamp it has assigned.
    pub fn last_commit_ts(&self, session: Session, done: impl FnOnce(Timestamp) + 'static) {
        self.call(
            &self.last_commit_ts,
            SMALL,
            move |tm, reply| {
                tm.catch_up(session);
                reply.send(SMALL, tm.last_commit_ts())
            },
            done,
        );
    }

    /// Client-failure recovery's one request: reaps the open transactions
    /// of dead client `c` — they can never commit, and their pinned
    /// snapshots hold back the MVCC garbage-collection watermark — then
    /// fetches its log records above `after`.
    pub fn reap_and_fetch_client(
        &self,
        c: ClientId,
        after: Timestamp,
        done: impl FnOnce(Vec<LogRecord>) + 'static,
    ) {
        self.call(
            &self.reap_and_fetch_client,
            BULK_HEADER,
            move |tm, reply| {
                tm.handle_client_failed(c);
                send_records(reply, tm.log().fetch_client_after(c, after));
            },
            done,
        );
    }

    /// Fetches every log record above `ts` (server recovery).
    pub fn fetch_after(&self, ts: Timestamp, done: impl FnOnce(Vec<LogRecord>) + 'static) {
        self.call(
            &self.fetch_after,
            BULK_HEADER,
            move |tm, reply| send_records(reply, tm.log().fetch_after(ts)),
            done,
        );
    }

    /// Truncates the log below `ts` (fire and forget).
    pub fn truncate_below(&self, ts: Timestamp) {
        self.tell(&self.truncate_below, move |tm| tm.log().truncate_below(ts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecoveryLogConfig;
    use cumulo_sim::{LatencyConfig, Sim, SimDuration};
    use cumulo_store::Mutation;
    use std::cell::{Cell, RefCell};

    struct Setup {
        sim: Sim,
        net: Rc<Network>,
        tm: Rc<TransactionManager>,
        client: TmClient,
        seq: Cell<u32>,
    }

    impl Setup {
        /// An id `client` has not used yet, as the client would name it.
        fn txn_of(&self, client: ClientId) -> TxnId {
            self.seq.set(self.seq.get() + 1);
            TxnId::new(client, self.seq.get())
        }
    }

    /// The session of a client that has ended nothing and flushed nothing.
    fn fresh(client: ClientId) -> Session {
        Session {
            floor: TxnId::new(client, 0),
            t_f: Timestamp::ZERO,
        }
    }

    fn setup() -> Setup {
        let sim = Sim::new(3);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let tm = TransactionManager::new(&sim, &net, net.add_node("txn-manager"));
        let client = TmClient::new(&net, &tm, net.add_node("component"));
        Setup {
            sim,
            net,
            tm,
            client,
            seq: Cell::new(0),
        }
    }

    fn ws(row: &str) -> WriteSet {
        [Mutation::put(row.to_string(), "c", "v")]
            .into_iter()
            .collect()
    }

    /// A commit made at the manager directly (no messages), so a test has
    /// a log record and a pending flush to work on.
    fn commit_directly(s: &Setup, client: ClientId, row: &str) -> Timestamp {
        let txn = s.txn_of(client);
        s.tm.handle_begin(txn, fresh(client));
        let got = Rc::new(Cell::new(None));
        let g = got.clone();
        s.tm.handle_commit(txn, ws(row), move |o| match o {
            CommitOutcome::Committed(ts) => g.set(Some(ts)),
            other => panic!("unexpected outcome {other:?}"),
        });
        s.sim.run_for(SimDuration::from_millis(50));
        got.get().expect("committed")
    }

    /// How many messages of the exchange called `name` were dropped.
    fn dropped_under(s: &Setup, name: &str) -> u64 {
        let key = format!("net.dropped{{exchange={name}}}");
        s.sim.metrics().snapshot().get(&key).expect("registered")
    }

    /// Calls `exchange` with a completion flag, checks that it put `sent`
    /// messages on the wire, that a round trip completes only after both
    /// hops (twice the base latency) and a notification has no completion
    /// at all; then runs it again with the pair cut around `cut` — the
    /// request hop or the reply hop — and checks nothing completes and the
    /// network counted the drop, under the exchange called `name`.
    fn check(s: &Setup, name: &str, sent: u64, exchange: impl Fn(&TmClient, Rc<Cell<bool>>)) {
        let me = s.client.from;
        let tm_node = s.tm.node();
        let one_way = LatencyConfig::lan_100mbps().base;

        let done = Rc::new(Cell::new(false));
        let before = s.net.messages_sent();
        exchange(&s.client, done.clone());
        assert_eq!(s.net.messages_sent() - before, 1, "only the request is out");
        s.sim
            .run_for(SimDuration::from_nanos(one_way.nanos() * 2 - 1));
        assert!(!done.get(), "completed before two hops could have passed");
        s.sim.run_for(SimDuration::from_millis(50));
        assert_eq!(s.net.messages_sent() - before, sent);
        assert_eq!(
            done.get(),
            sent == 2,
            "a round trip completes at the caller"
        );

        // The request hop cut.
        let done = Rc::new(Cell::new(false));
        let dropped = s.net.messages_dropped();
        let under = dropped_under(s, name);
        s.net.partition(me, tm_node);
        exchange(&s.client, done.clone());
        s.sim.run_for(SimDuration::from_millis(50));
        s.net.heal(me, tm_node);
        assert!(!done.get());
        assert_eq!(s.net.messages_dropped() - dropped, 1);
        assert_eq!(dropped_under(s, name) - under, 1, "dropped under {name}");

        // The reply hop cut: partition once the request has landed.
        if sent == 2 {
            let done = Rc::new(Cell::new(false));
            let dropped = s.net.messages_dropped();
            let under = dropped_under(s, name);
            let delivered = s.net.messages_delivered();
            exchange(&s.client, done.clone());
            while s.net.messages_delivered() == delivered {
                assert!(s.sim.step(), "the request never arrived");
            }
            s.net.partition(me, tm_node);
            s.sim.run_for(SimDuration::from_millis(50));
            s.net.heal(me, tm_node);
            assert!(!done.get());
            assert_eq!(s.net.messages_dropped() - dropped, 1);
            assert_eq!(dropped_under(s, name) - under, 1, "dropped under {name}");
        }
    }

    #[test]
    fn begin_is_a_round_trip() {
        let s = setup();
        check(&s, "tm.begin", 2, |c, done| {
            c.begin(s.txn_of(ClientId(0)), fresh(ClientId(0)), move |_| {
                done.set(true)
            })
        });
        // Begun twice at the manager: the first run and the lost reply.
        assert_eq!(s.tm.active_count(), 2);
    }

    #[test]
    fn commit_is_a_round_trip_acked_after_the_log_force() {
        let s = setup();
        let row = Cell::new(0);
        check(&s, "tm.commit", 2, |c, done| {
            row.set(row.get() + 1);
            let txn = s.txn_of(ClientId(0));
            s.tm.handle_begin(txn, fresh(ClientId(0)));
            let tm = Rc::clone(&s.tm);
            c.commit(txn, ws(&format!("row{}", row.get())), move |outcome| {
                assert!(matches!(outcome, CommitOutcome::Committed(_)));
                assert_eq!(tm.log().len(), 1, "acked before the record was durable");
                done.set(true);
            });
        });
        // The commit whose ack was lost is in the log all the same.
        assert_eq!(s.tm.log().len(), 2);
    }

    /// A transactional client sends its commit right behind the begin,
    /// before the begin is answered: the link is FIFO, so the manager
    /// knows the transaction when the commit lands, and the commit is
    /// still one round trip, acked once its record is durable.
    #[test]
    fn commit_right_behind_its_begin_is_one_round_trip_acked_after_the_log_force() {
        let s = setup();
        let txn = s.txn_of(ClientId(0));
        let begun = Rc::new(Cell::new(false));
        let b = begun.clone();
        s.client
            .begin(txn, fresh(ClientId(0)), move |_| b.set(true));
        let (sent, acked) = (s.sim.now(), Rc::new(Cell::new(None)));
        let (a, sim, tm) = (acked.clone(), s.sim.clone(), Rc::clone(&s.tm));
        s.client.commit(txn, ws("r"), move |outcome| {
            assert!(matches!(outcome, CommitOutcome::Committed(_)));
            assert!(begun.get(), "the begin is answered first");
            assert_eq!(tm.log().len(), 1, "acked before the record was durable");
            a.set(Some(sim.now() - sent));
        });
        assert_eq!(s.net.messages_sent(), 2, "both requests are out at once");
        s.sim.run_for(SimDuration::from_millis(50));
        let took = acked.get().expect("the commit was acked");
        // Both hops are small messages: one kilobyte of transfer each,
        // stretched by at most the jitter.
        let lan = LatencyConfig::lan_100mbps();
        let hop = lan.base + lan.per_kb;
        let hop_max =
            SimDuration::from_nanos((hop.nanos() as f64 * (1.0 + lan.jitter_frac)) as u64);
        let disk = RecoveryLogConfig::default().disk;
        let device_round = disk.write_time(1) + disk.sync_time(1);
        assert!(took >= hop * 2 + device_round, "took {took:?}");
        assert!(took < hop_max * 2 + device_round, "took {took:?}");
    }

    #[test]
    fn flush_complete_is_one_way_and_moves_the_watermark() {
        let s = setup();
        let ts = commit_directly(&s, ClientId(0), "r");
        assert!(s.tm.watermark() < ts);
        check(&s, "tm.flush_complete", 1, |c, _| c.flush_complete(ts));
        assert_eq!(s.tm.watermark(), ts);
    }

    #[test]
    fn last_commit_ts_is_a_round_trip_that_catches_up() {
        let s = setup();
        let ts = commit_directly(&s, ClientId(0), "r");
        let open = s.txn_of(ClientId(0));
        s.tm.handle_begin(open, fresh(ClientId(0)));
        check(&s, "tm.last_commit_ts", 2, |c, done| {
            let session = Session {
                floor: s.txn_of(ClientId(0)),
                t_f: ts,
            };
            c.last_commit_ts(session, move |latest| {
                assert_eq!(latest, ts);
                done.set(true);
            })
        });
        assert_eq!(s.tm.active_count(), 0, "the floor ended the open txn");
        assert_eq!(s.tm.watermark(), ts, "T_F(c) forgot the pending flush");
    }

    #[test]
    fn reap_and_fetch_client_is_one_round_trip() {
        let s = setup();
        let ts = commit_directly(&s, ClientId(7), "mine");
        commit_directly(&s, ClientId(8), "theirs");
        s.tm.handle_begin(s.txn_of(ClientId(7)), fresh(ClientId(7)));
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        check(&s, "tm.reap_and_fetch_client", 2, move |c, done| {
            let g = g.clone();
            c.reap_and_fetch_client(ClientId(7), Timestamp::ZERO, move |records| {
                *g.borrow_mut() = records;
                done.set(true);
            })
        });
        assert_eq!(
            s.tm.active_count(),
            0,
            "the dead client's open txn is reaped"
        );
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].ts, got[0].client), (ts, ClientId(7)));
    }

    #[test]
    fn fetch_after_is_a_round_trip_sized_by_its_records() {
        let s = setup();
        let first = commit_directly(&s, ClientId(0), "a");
        let second = commit_directly(&s, ClientId(1), "b");
        check(&s, "tm.fetch_after", 2, move |c, done| {
            c.fetch_after(first, move |records| {
                assert_eq!(Vec::from_iter(records.iter().map(|r| r.ts)), [second]);
                done.set(true);
            })
        });
        // A big suffix takes measurably longer to come back than an
        // empty one: the reply is sized by what it carries.
        let elapsed = |after: Timestamp| {
            let start = s.sim.now();
            let at = Rc::new(Cell::new(start));
            let (at2, sim) = (at.clone(), s.sim.clone());
            s.client.fetch_after(after, move |_| at2.set(sim.now()));
            s.sim.run_for(SimDuration::from_millis(200));
            at.get() - start
        };
        for i in 0..40 {
            commit_directly(&s, ClientId(0), &format!("{i:0>1024}"));
        }
        assert!(elapsed(second) > elapsed(s.tm.last_commit_ts()) * 3);
    }

    #[test]
    fn truncate_below_is_one_way() {
        let s = setup();
        let ts = commit_directly(&s, ClientId(0), "r");
        check(&s, "tm.truncate_below", 1, |c, _| {
            c.truncate_below(Timestamp(ts.0 + 1))
        });
        assert_eq!(s.tm.log().len(), 0);
    }
}

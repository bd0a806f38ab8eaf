//! The transactional key-value client: the paper's extended HBase client.
//!
//! Provides a first-class [`Transaction`] handle API: [`TransactionalClient::begin`]
//! hands the application a [`Transaction`] whose methods (`get` /
//! `multi_get` / `scan` / `put` / `delete` / `commit` / `abort`) deliver
//! `Result<_, TxnError>` — misuse (commit-twice, an operation after
//! commit, an operation on a crashed or shut-down client) yields a typed
//! error instead of a panic. [`TransactionalClient::run`] re-executes a
//! transaction body under a [`RetryPolicy`] when commit hits a
//! write-write conflict; every retry is a **new** transaction with a
//! fresh snapshot and commit timestamp, never a replay of the old one
//! (so the `T_F(c)` threshold invariant below is untouched by retries).
//!
//! Writes follow the deferred-update model of §2.2: they buffer locally
//! in the transaction's write-set; at commit the write-set goes to the
//! transaction manager, which makes it durable in its recovery log; only
//! *after* commit is the write-set flushed to the store servers. The
//! client runs Algorithm 1: it tracks commit/flush completion in its
//! [`FlushTracker`] and heartbeats its threshold `T_F(c)` to the recovery
//! manager through the coordination service.
//!
//! Reads are served at the transaction's snapshot. [`Transaction::get`]
//! fetches one cell per store round trip; [`Transaction::multi_get`]
//! answers cells the transaction itself wrote locally and fans the rest
//! out as **one store RPC per region** (the batched read path mirroring
//! the write path's per-region write-set grouping).
//!
//! ## The threshold invariant this module maintains
//!
//! Everything client-failure recovery replays is bounded below by the
//! published `T_F(c)`, so the invariant *every local transaction with
//! commit ts ≤ `T_F(c)` is fully flushed* must hold at every publication
//! instant — an overclaim is permanent data loss waiting for a crash.
//! Three rules enforce it here:
//!
//! * `T_F(c)` only advances through the [`FlushTracker`], i.e. in local
//!   commit order and only past transactions whose *every* participant
//!   region acked the flush;
//! * a crash between the two acks of a multi-region flush leaves
//!   `T_F(c)` below that transaction, so recovery replays the full
//!   write-set (idempotent for the already-acked leg);
//! * the idle-threshold shortcut (adopting the manager's newest
//!   assigned timestamp to stop an idle client from pinning log
//!   truncation) is gated on having **no commit in flight**: the
//!   manager assigns timestamps at request receipt but acks after the
//!   log force, so the answer to an idle query can overtake one's own
//!   commit ack and smuggle an unflushed local commit into the
//!   threshold (see ARCHITECTURE.md, "Protocol refinements").

use crate::flush_tracker::FlushTracker;
use crate::paths;
use bytes::Bytes;
use cumulo_coord::{CoordClient, SessionId};
use cumulo_sim::metrics::Counter;
use cumulo_sim::{every_from, Network, NodeId, Sim, SimDuration, TimerHandle};
use cumulo_store::{ClientId, Mutation, MutationKind, StoreClient, Timestamp, WriteSet};
use cumulo_txn::{CommitOutcome, TmClient, TxnId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// When a transaction's durability is achieved, relative to the commit
/// acknowledgement to the application (the comparison of Fig. 2a).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PersistenceMode {
    /// The paper's design: commit acks after the transaction manager's
    /// log force; the write-set flushes to the store afterwards and the
    /// store persists asynchronously.
    Asynchronous,
    /// The baseline: the commit ack additionally waits for the write-set
    /// to be flushed to every participant server and for the servers'
    /// WALs to sync to the filesystem (pair with
    /// [`cumulo_store::WalSyncMode::Sync`]).
    Synchronous,
}

/// Why a transactional operation failed.
///
/// Every public method of [`Transaction`] and [`TransactionalClient`]
/// reports failure through this type — none of them panic on misuse.
/// Only [`TxnError::Conflict`] is transient (a fresh transaction can
/// succeed; [`TransactionalClient::run`] retries it automatically); the
/// other variants describe a handle or client that can no longer make
/// progress.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum TxnError {
    /// The transaction manager aborted the commit because of a
    /// write-write conflict with a concurrently committed transaction.
    /// Retrying the *body* in a fresh transaction (new snapshot, new
    /// commit timestamp — see [`TransactionalClient::run`]) may succeed;
    /// replaying the same write-set must never happen.
    Conflict,
    /// The handle does not refer to an active transaction of this
    /// client: it was already committed or aborted (commit-twice and
    /// op-after-commit land here), or the transaction manager lost it.
    UnknownTxn,
    /// The client was shut down ([`TransactionalClient::shutdown`]); no
    /// new transaction can begin.
    ClientClosed,
    /// The client process crashed ([`TransactionalClient::crash`]) or
    /// terminated itself after losing its coordination session; the
    /// recovery manager takes over its unflushed commits.
    ClientDead,
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict => write!(f, "write-write conflict; retry in a new transaction"),
            TxnError::UnknownTxn => write!(f, "not an active transaction (already finished?)"),
            TxnError::ClientClosed => write!(f, "client was shut down"),
            TxnError::ClientDead => write!(f, "client process is dead"),
        }
    }
}

impl Error for TxnError {}

/// Bounded, **deterministic** retry schedule for
/// [`TransactionalClient::run`].
///
/// The backoff sequence is a fixed geometric ramp —
/// `initial_backoff * multiplier^retry`, capped at `max_backoff` — with
/// deliberately **no jitter**: drawing from the shared simulation RNG
/// here would shift the random stream of every run that merely uses the
/// retry combinator, perturbing calibrated schedules (the ROADMAP
/// determinism invariant). Concurrent conflicting retries still spread
/// out because every network message they send draws its own latency
/// jitter.
#[derive(Copy, Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry; 0 is treated
    /// as 1 — the body always runs at least once).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub initial_backoff: SimDuration,
    /// Geometric growth factor applied per retry (1 = constant backoff).
    pub multiplier: u32,
    /// Upper bound on any single backoff.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            initial_backoff: SimDuration::from_millis(10),
            multiplier: 2,
            max_backoff: SimDuration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the body runs exactly once).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The fixed backoff before retry number `retry` (0-based): the
    /// geometric ramp capped at `max_backoff`. Deterministic — no RNG.
    pub fn backoff_for(&self, retry: u32) -> SimDuration {
        let factor = self.multiplier.max(1).saturating_pow(retry.min(16));
        (self.initial_backoff * factor as u64).min(self.max_backoff)
    }
}

/// The continuation a [`TransactionalClient::run`] body calls when it
/// has issued all its operations: `Ok(())` asks the combinator to
/// commit, `Err(e)` aborts the attempt and propagates (or retries, for
/// [`TxnError::Conflict`]).
pub type RunFinish = Box<dyn FnOnce(Result<(), TxnError>)>;

struct ActiveTxn {
    start_ts: Timestamp,
    write_set: WriteSet,
}

struct TcInner {
    sim: Sim,
    net: Rc<Network>,
    id: ClientId,
    node: NodeId,
    tm: TmClient,
    store: StoreClient,
    coord: CoordClient,
    cfg: TxnClientConfig,
    tracker: RefCell<FlushTracker>,
    active: RefCell<HashMap<TxnId, ActiveTxn>>,
    session: Cell<Option<SessionId>>,
    /// Instant of the last acknowledged round trip to the coordination
    /// service; when it lags by more than the session timeout the client
    /// terminates itself (§3.1: a partitioned client "will result in it
    /// terminating itself").
    last_coord_ack: Cell<cumulo_sim::SimTime>,
    alive: Cell<bool>,
    closed: Cell<bool>,
    timers: RefCell<Vec<TimerHandle>>,
    /// Commit requests sent to the transaction manager whose outcome has
    /// not come back yet. While non-zero, the idle-threshold advancement
    /// must not run: the manager may already have *assigned* a commit
    /// timestamp to one of these (it advances its oracle on request
    /// receipt, but acks only after the log force), so adopting its
    /// "latest assigned" timestamp would overclaim an unflushed local
    /// commit — and a crash mid-flush would then escape recovery replay,
    /// leaving a half-applied write-set.
    commits_in_flight: Cell<usize>,
    committed: Counter,
    aborted: Counter,
    flushed: Counter,
    alerts: Counter,
    conflict_retries: Counter,
}

/// Pending-commit count above which the client raises an alert
/// (§3.2's stuck-region detector).
const ALERT_PENDING_THRESHOLD: usize = 1_000;

/// Transactional-client settings (all fanned out from `ClusterConfig`).
#[derive(Copy, Clone, Debug)]
pub struct TxnClientConfig {
    /// Heartbeat period (threshold publication + liveness touch). The
    /// paper varies this from 50 ms to 10 s in Fig. 2b.
    pub heartbeat_interval: SimDuration,
    /// Coordination session timeout (client-failure detection latency).
    pub session_timeout: SimDuration,
    /// Sync vs async persistence (Fig. 2a).
    pub persistence: PersistenceMode,
    /// Whether threshold tracking runs at all (ablation: without it, the
    /// recovery manager must replay from the beginning of the log).
    pub tracking: bool,
}

/// A transactional client process. Cheap to clone (shared identity).
#[derive(Clone)]
pub struct TransactionalClient {
    inner: Rc<TcInner>,
}

impl fmt::Debug for TransactionalClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransactionalClient")
            .field("id", &self.inner.id)
            .field("alive", &self.inner.alive.get())
            .field("committed", &self.inner.committed.get())
            .field("t_f", &self.inner.tracker.borrow().t_f())
            .finish()
    }
}

/// A handle to one in-flight transaction of a [`TransactionalClient`].
///
/// Cheap to clone; all clones refer to the same transaction. The handle
/// stays valid across `commit`/`abort`, but any operation issued after
/// the transaction finished reports [`TxnError::UnknownTxn`] (and after
/// the owning client crashed or shut down, [`TxnError::ClientDead`] /
/// [`TxnError::ClientClosed`]) — misuse never panics.
#[derive(Clone)]
pub struct Transaction {
    inner: Rc<TcInner>,
    id: TxnId,
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("client", &self.inner.id)
            .finish()
    }
}

impl Transaction {
    /// The transaction manager's id for this transaction.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The lifecycle error an operation on this handle must report right
    /// now, if any (`None` = the transaction is active and usable).
    fn state_err(&self) -> Option<TxnError> {
        if !self.inner.alive.get() {
            return Some(TxnError::ClientDead);
        }
        if !self.inner.active.borrow().contains_key(&self.id) {
            return Some(TxnError::UnknownTxn);
        }
        None
    }

    /// Delivers `err` through `done` on the next simulation step (all
    /// callback-taking methods complete asynchronously, success or not).
    fn fail<T: 'static>(&self, err: TxnError, done: impl FnOnce(Result<T, TxnError>) + 'static) {
        self.inner
            .sim
            .schedule_in(SimDuration::ZERO, move || done(Err(err)));
    }

    /// Transactional read: the transaction's own buffered writes win
    /// (read-your-own-writes); otherwise the newest version at the
    /// transaction's snapshot is fetched from the store. Tombstones and
    /// missing cells both read as `Ok(None)`.
    pub fn get(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        done: impl FnOnce(Result<Option<Bytes>, TxnError>) + 'static,
    ) {
        if let Some(e) = self.state_err() {
            self.fail(e, done);
            return;
        }
        let row = row.into();
        let column = column.into();
        let start_ts = {
            let active = self.inner.active.borrow();
            let at = &active[&self.id];
            if let Some(kind) = at.write_set.get(&row, &column) {
                let value = match kind {
                    MutationKind::Put(v) => Some(v.clone()),
                    MutationKind::Delete => None,
                };
                let sim = self.inner.sim.clone();
                sim.schedule_in(SimDuration::ZERO, move || done(Ok(value)));
                return;
            }
            at.start_ts
        };
        self.inner.store.get(row, column, start_ts, move |vv| {
            done(Ok(vv.and_then(|v| v.value)));
        });
    }

    /// Batched transactional read: like [`Transaction::get`] for every
    /// `(row, column)` in `cells`, but cells this transaction already
    /// wrote are answered locally from the write-set and the remainder
    /// travel as **one store RPC per region** (the store client groups
    /// them by its cached region map, each region server serves its
    /// whole batch in a single message round trip). Results arrive in
    /// input order and are byte-identical to issuing the same `get`s
    /// sequentially at the same snapshot.
    pub fn multi_get(
        &self,
        cells: Vec<(Bytes, Bytes)>,
        done: impl FnOnce(Result<Vec<Option<Bytes>>, TxnError>) + 'static,
    ) {
        if let Some(e) = self.state_err() {
            self.fail(e, done);
            return;
        }
        let (start_ts, local, misses) = {
            let active = self.inner.active.borrow();
            let at = &active[&self.id];
            let mut local: Vec<Option<Option<Bytes>>> = Vec::with_capacity(cells.len());
            let mut misses: Vec<(usize, Bytes, Bytes)> = Vec::new();
            for (i, (row, column)) in cells.iter().enumerate() {
                match at.write_set.get(row, column) {
                    Some(MutationKind::Put(v)) => local.push(Some(Some(v.clone()))),
                    Some(MutationKind::Delete) => local.push(Some(None)),
                    None => {
                        local.push(None);
                        misses.push((i, row.clone(), column.clone()));
                    }
                }
            }
            (at.start_ts, local, misses)
        };
        if misses.is_empty() {
            #[allow(clippy::expect_used)]
            let out: Vec<Option<Bytes>> =
                // lint:allow(CD005, reason = "internal invariant, not client input: the misses.is_empty() branch guarantees every slot was filled from the write-set")
                local.into_iter().map(|v| v.expect("all local")).collect();
            self.inner
                .sim
                .schedule_in(SimDuration::ZERO, move || done(Ok(out)));
            return;
        }
        let fetch: Vec<(Bytes, Bytes)> = misses
            .iter()
            .map(|(_, r, c)| (r.clone(), c.clone()))
            .collect();
        self.inner.store.multi_get(fetch, start_ts, move |values| {
            debug_assert_eq!(values.len(), misses.len());
            let mut out = local;
            for ((i, _, _), vv) in misses.into_iter().zip(values) {
                out[i] = Some(vv.and_then(|v| v.value));
            }
            #[allow(clippy::expect_used)]
            let filled: Vec<Option<Bytes>> = out
                .into_iter()
                // lint:allow(CD005, reason = "internal invariant, not client input: every miss slot was just filled from the store batch reply above")
                .map(|v| v.expect("filled by store batch"))
                .collect();
            done(Ok(filled));
        });
    }

    /// Transactional range scan over `[start, end)` (end-exclusive;
    /// `None` = to the end of the table) at the transaction's snapshot,
    /// returning up to `limit` cells in `(row, column)` order. The
    /// store scan walks **every region the range covers** (cross-region
    /// continuation, see `StoreClient::scan`), and the transaction's own
    /// buffered writes are merged over the whole merged result — not
    /// just the region containing `start`: buffered puts win per cell,
    /// buffered deletes hide cells, across all scanned regions.
    ///
    /// The store is asked for `limit` *plus the number of buffered
    /// deletes in range* hits: each buffered delete can hide at most one
    /// store cell post-merge, and without the over-fetch a scan could
    /// return fewer than `limit` rows even though more qualify. The
    /// continuation re-computes the outstanding budget per region leg
    /// (remaining = fetch limit − cells already accumulated), so even a
    /// first leg whose hits are *all* shadowed by local deletes still
    /// fills the limit from later regions.
    pub fn scan(
        &self,
        start: impl Into<Bytes>,
        end: Option<Bytes>,
        limit: usize,
        done: impl FnOnce(Result<Vec<(Bytes, Bytes, Bytes)>, TxnError>) + 'static,
    ) {
        if let Some(e) = self.state_err() {
            self.fail(e, done);
            return;
        }
        let start = start.into();
        let (start_ts, own): (Timestamp, Vec<Mutation>) = {
            let active = self.inner.active.borrow();
            let at = &active[&self.id];
            let end_ref = end.clone();
            let own = at
                .write_set
                .mutations
                .iter()
                .filter(|m| m.row >= start && end_ref.as_ref().map(|e| m.row < *e).unwrap_or(true))
                .cloned()
                .collect();
            (at.start_ts, own)
        };
        let buffered_deletes = own
            .iter()
            .filter(|m| matches!(m.kind, MutationKind::Delete))
            .count();
        let fetch_limit = limit.saturating_add(buffered_deletes);
        self.inner
            .store
            .scan(start, end, start_ts, fetch_limit, move |hits| {
                // Merge: buffered writes overwrite store results per cell.
                let mut merged: Vec<(Bytes, Bytes, Bytes)> = hits
                    .into_iter()
                    .filter_map(|(r, c, vv)| vv.value.map(|v| (r, c, v)))
                    .collect();
                for m in own {
                    merged.retain(|(r, c, _)| !(r == &m.row && c == &m.column));
                    if let MutationKind::Put(v) = &m.kind {
                        merged.push((m.row.clone(), m.column.clone(), v.clone()));
                    }
                }
                merged.sort();
                merged.truncate(limit);
                done(Ok(merged));
            });
    }

    /// Buffers a put in the transaction's write-set (deferred updates:
    /// nothing reaches the store before commit).
    pub fn put(
        &self,
        row: impl Into<Bytes>,
        column: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<(), TxnError> {
        if let Some(e) = self.state_err() {
            return Err(e);
        }
        let mut active = self.inner.active.borrow_mut();
        #[allow(clippy::expect_used)]
        // lint:allow(CD005, reason = "internal invariant, not client input: state_err() just verified the transaction is registered in `active`")
        let at = active.get_mut(&self.id).expect("checked by state_err");
        at.write_set
            .push(Mutation::put(row.into(), column.into(), value.into()));
        Ok(())
    }

    /// Buffers a delete in the transaction's write-set.
    pub fn delete(&self, row: impl Into<Bytes>, column: impl Into<Bytes>) -> Result<(), TxnError> {
        if let Some(e) = self.state_err() {
            return Err(e);
        }
        let mut active = self.inner.active.borrow_mut();
        #[allow(clippy::expect_used)]
        // lint:allow(CD005, reason = "internal invariant, not client input: state_err() just verified the transaction is registered in `active`")
        let at = active.get_mut(&self.id).expect("checked by state_err");
        at.write_set
            .push(Mutation::delete(row.into(), column.into()));
        Ok(())
    }

    /// Commits the transaction (§2.2's termination phase): the write-set
    /// goes to the transaction manager; on success the commit timestamp
    /// is delivered and tracked in `FQ`, and the write-set is flushed to
    /// the store — before the ack in [`PersistenceMode::Synchronous`],
    /// after it in [`PersistenceMode::Asynchronous`].
    ///
    /// A second commit (or a commit after abort) reports
    /// [`TxnError::UnknownTxn`]; a conflict-aborted commit reports
    /// [`TxnError::Conflict`].
    pub fn commit(&self, done: impl FnOnce(Result<Timestamp, TxnError>) + 'static) {
        if let Some(e) = self.state_err() {
            self.fail(e, done);
            return;
        }
        #[allow(clippy::expect_used)]
        let at = self
            .inner
            .active
            .borrow_mut()
            .remove(&self.id)
            // lint:allow(CD005, reason = "internal invariant, not client input: state_err() just verified the transaction is registered in `active`")
            .expect("checked by state_err");
        let txn = self.id;
        let ws = at.write_set;
        // The manager keeps the request's copy in its log; this one is
        // flushed to the store once the commit is acknowledged.
        let ws2 = ws.clone();
        let inner = Rc::clone(&self.inner);
        self.inner
            .commits_in_flight
            .set(self.inner.commits_in_flight.get() + 1);
        self.inner.tm.commit(txn, ws, move |outcome| {
            inner
                .commits_in_flight
                .set(inner.commits_in_flight.get() - 1);
            if !inner.alive.get() {
                // Client died while the commit was in flight: if it
                // committed, the recovery manager replays it.
                return;
            }
            match outcome {
                CommitOutcome::Committed(ts) => {
                    inner.committed.inc();
                    let (client, writes) = (inner.id, ws2.mutations.len());
                    inner.span("txn.commit", move || {
                        format!("client={client} txn={} ts={ts} writes={writes}", txn.0)
                    });
                    if ws2.is_empty() {
                        done(Ok(ts));
                        return;
                    }
                    inner.tracker.borrow_mut().on_committed(ts);
                    match inner.cfg.persistence {
                        PersistenceMode::Asynchronous => {
                            done(Ok(ts));
                            flush_write_set(inner, ts, ws2, None);
                        }
                        PersistenceMode::Synchronous => {
                            flush_write_set(inner, ts, ws2, Some(Box::new(move || done(Ok(ts)))));
                        }
                    }
                }
                CommitOutcome::Conflict => {
                    note_abort(&inner, txn, "conflict");
                    done(Err(TxnError::Conflict));
                }
                CommitOutcome::UnknownTxn => {
                    note_abort(&inner, txn, "unknown");
                    done(Err(TxnError::UnknownTxn));
                }
            }
        });
    }

    /// Aborts the transaction: the buffered write-set is discarded
    /// locally and the transaction manager is informed. Idempotent — an
    /// abort after commit/abort (or on a dead client) is a no-op.
    pub fn abort(&self) {
        if !self.inner.alive.get() {
            return;
        }
        if self.inner.active.borrow_mut().remove(&self.id).is_none() {
            return;
        }
        note_abort(&self.inner, self.id, "user");
        self.inner.tm.abort(self.id);
    }
}

impl TcInner {
    /// Records a transaction-lifecycle span (`txn.begin` / `txn.commit` /
    /// `txn.abort` / `txn.retry`) in the trace journal: the one door this
    /// client's spans leave through, at event-execution time so the
    /// journal order is deterministic. `detail` obeys the journal's
    /// capture-values rule.
    fn span(&self, kind: &'static str, detail: impl Fn() -> String + 'static) {
        self.sim.trace().record(self.sim.now(), kind, detail);
    }
}

/// Counts an abort of `txn` and journals its cause.
fn note_abort(inner: &TcInner, txn: TxnId, cause: &'static str) {
    inner.aborted.inc();
    let client = inner.id;
    inner.span("txn.abort", move || {
        format!("client={client} txn={} cause={cause}", txn.0)
    });
}

impl TransactionalClient {
    /// Creates a client on `node`; its transaction counters are the
    /// run's `txn.*{client=<id>}` metrics. Call
    /// [`TransactionalClient::start`] before using it so it registers
    /// with the recovery manager.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        id: ClientId,
        node: NodeId,
        tm: TmClient,
        store: StoreClient,
        coord: CoordClient,
        cfg: TxnClientConfig,
    ) -> TransactionalClient {
        let cid = id.to_string();
        let counter = |name: &str| sim.metrics().counter(name, &[("client", cid.as_str())]);
        TransactionalClient {
            inner: Rc::new(TcInner {
                sim: sim.clone(),
                net: Rc::clone(net),
                id,
                node,
                tm,
                store,
                coord,
                cfg,
                tracker: RefCell::new(FlushTracker::new()),
                active: RefCell::new(HashMap::new()),
                session: Cell::new(None),
                last_coord_ack: Cell::new(sim.now()),
                alive: Cell::new(true),
                closed: Cell::new(false),
                timers: RefCell::new(Vec::new()),
                commits_in_flight: Cell::new(0),
                committed: counter("txn.committed"),
                aborted: counter("txn.aborted"),
                flushed: counter("txn.flushed"),
                alerts: counter("txn.alerts"),
                conflict_retries: counter("txn.conflict_retries"),
            }),
        }
    }

    /// Registers with the recovery manager (Algorithm 1 "On startup"):
    /// seeds `T_F(c)` with the current global `T_F`, creates the
    /// threshold and liveness znodes, and starts the heartbeat.
    pub fn start(&self) {
        let inner = Rc::clone(&self.inner);
        // Seed the local threshold from the recovery manager's published
        // global T_F ("T_F(c) ← T_F").
        self.inner.coord.get_data(paths::TF_PATH, move |data| {
            let seed = data
                .map(|d| paths::decode_ts(&d))
                .unwrap_or(Timestamp::ZERO);
            *inner.tracker.borrow_mut() = FlushTracker::with_threshold(seed);
            let inner2 = Rc::clone(&inner);
            inner
                .coord
                .create_session(inner.cfg.session_timeout, move |sid| {
                    if !inner2.alive.get() {
                        return;
                    }
                    inner2.session.set(Some(sid));
                    // Threshold (persistent) strictly before liveness
                    // (ephemeral): the recovery manager reads the threshold
                    // when it sees the liveness node appear or vanish.
                    if inner2.cfg.tracking {
                        inner2.coord.create(
                            &paths::client_threshold(inner2.id),
                            paths::encode_ts(inner2.tracker.borrow().t_f()),
                            None,
                        );
                    }
                    inner2
                        .coord
                        .create(&paths::client_live(inner2.id), Bytes::new(), Some(sid));
                    let inner3 = Rc::clone(&inner2);
                    // lint:allow(CD004, reason = "client heartbeat stagger draws from the seeded sim RNG; the desync avoids lockstep heartbeats and all pinned baselines include this draw")
                    let first = inner2.sim.jitter(inner2.cfg.heartbeat_interval, 0.9);
                    let timer = every_from(
                        &inner2.sim,
                        first,
                        inner2.cfg.heartbeat_interval,
                        move || heartbeat(&inner3),
                    );
                    inner2.timers.borrow_mut().push(timer);
                });
        });
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.inner.id
    }

    /// The node the client runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Whether the process is alive.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.get()
    }

    /// Begins a transaction; `done` receives its [`Transaction`] handle
    /// (reads are served at the transaction's snapshot, the flush
    /// watermark) — or [`TxnError::ClientClosed`] /
    /// [`TxnError::ClientDead`] when the client can no longer begin one.
    /// Never panics.
    pub fn begin(&self, done: impl FnOnce(Result<Transaction, TxnError>) + 'static) {
        if self.inner.closed.get() {
            let sim = self.inner.sim.clone();
            sim.schedule_in(SimDuration::ZERO, move || done(Err(TxnError::ClientClosed)));
            return;
        }
        if !self.inner.alive.get() {
            let sim = self.inner.sim.clone();
            sim.schedule_in(SimDuration::ZERO, move || done(Err(TxnError::ClientDead)));
            return;
        }
        let inner = Rc::clone(&self.inner);
        self.inner.tm.begin(self.inner.id, move |(txn, start_ts)| {
            if !inner.alive.get() {
                return;
            }
            if inner.closed.get() {
                // Shut down while the request was out: a transaction
                // opened now would hold the shutdown up for good.
                inner.tm.abort(txn);
                done(Err(TxnError::ClientClosed));
                return;
            }
            inner.active.borrow_mut().insert(
                txn,
                ActiveTxn {
                    start_ts,
                    write_set: WriteSet::new(),
                },
            );
            let client = inner.id;
            inner.span("txn.begin", move || {
                format!("client={client} txn={} snapshot={start_ts}", txn.0)
            });
            done(Ok(Transaction { inner, id: txn }));
        });
    }

    /// Runs `body` in a transaction and commits it, retrying the *whole
    /// body* in a **new** transaction (fresh snapshot, fresh commit
    /// timestamp — never a replay of the old write-set, so the `T_F(c)`
    /// invariant is untouched) when the commit reports
    /// [`TxnError::Conflict`], under the bounded deterministic backoff
    /// of `policy`.
    ///
    /// `body` receives the attempt's [`Transaction`] and a [`RunFinish`]
    /// continuation it must call exactly once when all its operations
    /// are issued: `Ok(())` commits, `Err(e)` aborts the attempt and
    /// propagates `e` (retrying if it is a conflict). `done` fires once
    /// with the final outcome: the commit timestamp, or the error that
    /// ended the attempts ([`TxnError::Conflict`] if retries ran out).
    pub fn run(
        &self,
        policy: RetryPolicy,
        body: impl Fn(Transaction, RunFinish) + 'static,
        done: impl FnOnce(Result<Timestamp, TxnError>) + 'static,
    ) {
        // No public client API panics on misuse: a zero attempt budget
        // degrades to "run once, never retry".
        let policy = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
        run_attempt(
            Rc::clone(&self.inner),
            policy,
            Rc::new(body),
            0,
            Box::new(done),
        );
    }

    /// Clean shutdown (Algorithm 1 "On shutdown"): waits until every open
    /// transaction has finished and every commit — acknowledged yet or
    /// not — has flushed, sends a final pre-shutdown heartbeat,
    /// removes the threshold znode and closes the session — so the
    /// recovery manager unregisters this client without running recovery.
    /// Transactions already begun may still finish; new
    /// [`TransactionalClient::begin`]s report [`TxnError::ClientClosed`].
    pub fn shutdown(&self) {
        self.inner.closed.set(true);
        try_finish_shutdown(Rc::clone(&self.inner));
    }

    /// Crash-stop failure: the process dies mid-flight. The recovery
    /// manager will detect the missed heartbeats and replay any committed
    /// write-sets that were not fully flushed.
    pub fn crash(&self) {
        die(&self.inner);
    }

    /// The client's current flushed threshold `T_F(c)`.
    pub fn t_f(&self) -> Timestamp {
        self.inner.tracker.borrow().t_f()
    }

    /// Committed transactions (including read-only).
    pub fn committed_count(&self) -> u64 {
        self.inner.committed.get()
    }

    /// Aborted transactions.
    pub fn aborted_count(&self) -> u64 {
        self.inner.aborted.get()
    }

    /// Fully flushed write-sets.
    pub fn flushed_count(&self) -> u64 {
        self.inner.flushed.get()
    }

    /// Conflicted attempts re-executed by [`TransactionalClient::run`].
    pub fn conflict_retry_count(&self) -> u64 {
        self.inner.conflict_retries.get()
    }

    /// Commits whose flush is still outstanding.
    pub fn pending_flushes(&self) -> usize {
        self.inner.tracker.borrow().pending()
    }

    /// The underlying store client (round-trip counters and region-map
    /// helpers for benchmarks and tests; transactional reads/writes must
    /// go through [`Transaction`]).
    pub fn store_client(&self) -> &StoreClient {
        &self.inner.store
    }
}

type RunBody = Rc<dyn Fn(Transaction, RunFinish)>;
type RunDone = Box<dyn FnOnce(Result<Timestamp, TxnError>)>;

fn run_attempt(
    inner: Rc<TcInner>,
    policy: RetryPolicy,
    body: RunBody,
    attempt: u32,
    done: RunDone,
) {
    let client = TransactionalClient {
        inner: Rc::clone(&inner),
    };
    client.begin(move |res| {
        let txn = match res {
            Ok(txn) => txn,
            Err(e) => {
                done(Err(e));
                return;
            }
        };
        let txn2 = txn.clone();
        let body2 = Rc::clone(&body);
        (body)(
            txn,
            Box::new(move |r| match r {
                Ok(()) => {
                    let txn3 = txn2.clone();
                    txn2.commit(move |outcome| {
                        settle_attempt(outcome, txn3.inner.clone(), policy, body2, attempt, done);
                    });
                }
                Err(e) => {
                    txn2.abort();
                    settle_attempt(Err(e), txn2.inner.clone(), policy, body2, attempt, done);
                }
            }),
        );
    });
}

fn settle_attempt(
    outcome: Result<Timestamp, TxnError>,
    inner: Rc<TcInner>,
    policy: RetryPolicy,
    body: RunBody,
    attempt: u32,
    done: RunDone,
) {
    match outcome {
        Err(TxnError::Conflict) if attempt + 1 < policy.max_attempts => {
            inner.conflict_retries.inc();
            let client = inner.id;
            inner.span("txn.retry", move || {
                format!("client={client} attempt={}", attempt + 1)
            });
            let wait = policy.backoff_for(attempt);
            let sim = inner.sim.clone();
            sim.schedule_in(wait, move || {
                run_attempt(inner, policy, body, attempt + 1, done);
            });
        }
        other => done(other),
    }
}

fn stop_timers(inner: &TcInner) {
    for t in inner.timers.borrow_mut().drain(..) {
        t.cancel();
    }
}

/// The process stops, by crash or by its own hand: nothing of it runs
/// again and its node is dead to the network.
fn die(inner: &TcInner) {
    inner.alive.set(false);
    stop_timers(inner);
    inner.net.crash(inner.node);
}

fn heartbeat(inner: &Rc<TcInner>) {
    if !inner.alive.get() {
        return;
    }
    // Partition self-check: if the coordination service has been
    // unreachable for a whole session timeout, our session has (or will
    // have) expired and the recovery manager is recovering us — terminate
    // rather than risk acting as a zombie (§3.1).
    let silence = inner.sim.now().saturating_since(inner.last_coord_ack.get());
    if silence > inner.cfg.session_timeout {
        die(inner);
        return;
    }
    // Round trip to the coordination service doubling as reachability
    // probe (the response refreshes `last_coord_ack`).
    {
        let inner2 = Rc::clone(inner);
        inner.coord.get_data(crate::paths::TF_PATH, move |_| {
            inner2.last_coord_ack.set(inner2.sim.now());
        });
    }
    // Idle-client advancement: a client with no unflushed commits may
    // report any threshold ≥ its last local commit without violating the
    // local invariant (all its transactions are flushed). Advancing to
    // the transaction manager's latest assigned timestamp keeps an idle
    // client from pinning the global T_F (and with it, log truncation)
    // forever.
    //
    // Network FIFO alone does NOT make this safe: the manager assigns a
    // commit timestamp when the commit *request* arrives but acks only
    // after the log force, so its answer to a later idle query can carry
    // — and overtake the ack of — one of our own in-flight commits.
    // Adopting that timestamp would overclaim an unflushed local commit;
    // a crash mid-flush would then escape recovery replay, losing part
    // of a committed write-set (the half-applied race in
    // `tests/atomicity.rs`). Hence the `commits_in_flight` guard, checked
    // both before asking and before adopting: with no local commit in
    // flight, every timestamp the manager ever assigned to us has been
    // acked to us, so the idle tracker really does cover them all.
    if inner.cfg.tracking
        && inner.commits_in_flight.get() == 0
        && inner.tracker.borrow_mut().is_idle()
    {
        let inner2 = Rc::clone(inner);
        inner.tm.last_commit_ts(move |latest| {
            if !inner2.alive.get() {
                return;
            }
            if inner2.commits_in_flight.get() > 0 {
                return;
            }
            let mut tracker = inner2.tracker.borrow_mut();
            if tracker.is_idle() && latest > tracker.t_f() {
                *tracker = FlushTracker::with_threshold(latest);
            }
        });
    }
    let t_f = inner.tracker.borrow_mut().advance();
    let pending = inner.tracker.borrow().pending();
    if pending > ALERT_PENDING_THRESHOLD {
        inner.alerts.inc();
        inner.coord.set_data(
            &paths::alert("clients", inner.id.0),
            paths::encode_ts(Timestamp(pending as u64)),
        );
    }
    if inner.cfg.tracking {
        inner
            .coord
            .set_data(&paths::client_threshold(inner.id), paths::encode_ts(t_f));
    }
    if let Some(sid) = inner.session.get() {
        inner.coord.touch(sid);
    }
}

fn try_finish_shutdown(inner: Rc<TcInner>) {
    if !inner.alive.get() {
        return;
    }
    // A commit whose ack is still on the wire is not in `FQ` yet (the
    // window the heartbeat's `commits_in_flight` guard exists for), and an
    // open transaction may still commit: neither may find the threshold
    // znode gone and the session closed.
    let busy = inner.commits_in_flight.get() > 0
        || !inner.active.borrow().is_empty()
        || !inner.tracker.borrow_mut().is_idle();
    if busy {
        let inner2 = Rc::clone(&inner);
        inner
            .sim
            .schedule_in(SimDuration::from_millis(20), move || {
                try_finish_shutdown(inner2)
            });
        return;
    }
    // Final heartbeat, then unregister cleanly: delete the threshold
    // *before* the liveness node vanishes, so the recovery manager can
    // tell a clean shutdown from a crash.
    heartbeat(&inner);
    if inner.cfg.tracking {
        inner.coord.delete(&paths::client_threshold(inner.id));
    }
    if let Some(sid) = inner.session.get() {
        inner.coord.close_session(sid);
    }
    stop_timers(&inner);
}

/// Post-commit flush (§2.2): the write-set, stamped with the commit
/// timestamp, is sent to each participant region; when every region acks,
/// the flush is recorded in `FQ'` and the transaction manager's watermark
/// learns of it.
fn flush_write_set(
    inner: Rc<TcInner>,
    ts: Timestamp,
    ws: WriteSet,
    then: Option<Box<dyn FnOnce()>>,
) {
    debug_assert!(!ws.is_empty());
    let inner2 = Rc::clone(&inner);
    inner.store.flush(ts, &ws, move || {
        if !inner2.alive.get() {
            return;
        }
        inner2.tracker.borrow_mut().on_flushed(ts);
        inner2.flushed.inc();
        inner2.tm.flush_complete(ts);
        if let Some(cb) = then {
            cb();
        }
    });
}

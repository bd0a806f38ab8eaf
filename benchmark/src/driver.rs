//! One repetition of one workload: fresh cluster → load → warm-up →
//! open phase → closed phase → quiesce → audits.
//!
//! The driver is the benchmark's load generator and its only observer.
//! It touches the system through the public surface README.md lists and
//! never schedules an event on the simulation: time advances through
//! `Cluster::run_for` in slices of at most [`SLICE`], arrivals are issued
//! exactly at their due instant between two slices, and everything that
//! is sampled (the flush watermark, region state, gauges, the journals)
//! is read between slices. Reading is pure, so a traced repetition must
//! reproduce an untraced one's simulated-time results exactly.

use crate::alloc_count;
use crate::audit;
use crate::host::HostSpeed;
use crate::workload::{
    self, Op, Spec, Stream, Txn, CLOSED_WORKERS, COLUMN, CRASHED_CLIENT, CRASHED_SERVER,
    CRASH_CLIENT_AT_SECS, CRASH_SERVER_AT_SECS, REGIONS, SCAN_LEN, SERVERS, VALUE_LEN, WARMUP_SECS,
};
use bytes::Bytes;
use cumulo_core::{Cluster, ClusterConfig, Transaction, TxnError};
use cumulo_sim::{JournalEntry, MetricsSnapshot, SimDuration, SimTime};
use cumulo_store::{RegionId, ServerId, Timestamp};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::time::Instant;

/// Longest stretch of simulated time the driver lets pass unobserved.
pub const SLICE: SimDuration = SimDuration::from_micros(250);
/// Gauge sampling period.
const GAUGE_PERIOD_NS: u64 = 100_000_000;
/// How often (in simulated time) the driver lets [`HostSpeed`] look at
/// the host's clock over the measured phases.
const HOST_TICK_NS: u64 = 10_000_000;
/// How long the quiesce after the measured phases may take.
const QUIESCE_LIMIT: SimDuration = SimDuration::from_secs(60);
/// Cells per read-back batch of the lost-commit audit: small enough
/// that a region's share is served well within the store client's
/// request timeout.
const READBACK_BATCH: usize = 32;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Open,
    Closed,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No outcome was delivered (yet).
    Pending,
    /// Acknowledged with this commit timestamp.
    Committed(u64),
    /// Conflict abort.
    Aborted,
    /// Any other error.
    Failed,
}

/// What the driver keeps about one transaction.
#[derive(Clone, Debug)]
pub struct Rec {
    pub txn: Txn,
    pub phase: Phase,
    pub client: usize,
    /// Open loop: the due instant. Closed loop: the issue instant.
    pub due_ns: u64,
    /// Instant the outcome was delivered (0 while pending).
    pub end_ns: u64,
    pub outcome: Outcome,
}

impl Rec {
    pub fn latency_ns(&self) -> Option<u64> {
        matches!(self.outcome, Outcome::Committed(_)).then(|| self.end_ns - self.due_ns)
    }
}

/// A span the driver recorded around one public call (traced runs).
/// `txn` is the parent transaction's `seq`; the transaction's own span
/// is named `"txn"`.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Gauges sampled every 100 simulated ms over the measured phases.
#[derive(Clone, Debug, Default)]
pub struct Gauges {
    pub pending_flushes_max: u64,
    pub handler_queue_max: u64,
    pub log_len_max: u64,
    pub watermark_lag_max: u64,
    /// Memstore flushes seen per region: a sampled size falling to less
    /// than half of the previous sample on the same server.
    pub memstore_flushes: BTreeMap<RegionId, u64>,
    memstore_prev: BTreeMap<RegionId, (ServerId, usize)>,
}

/// Instants of the failover schedule, as the driver observed them.
#[derive(Copy, Clone, Debug, Default)]
pub struct CrashTimes {
    pub client_crash_ns: Option<u64>,
    pub client_recovered_ns: Option<u64>,
    pub server_crash_ns: Option<u64>,
    pub regions_offline_ns: Option<u64>,
    pub regions_online_ns: Option<u64>,
}

/// Counters read through accessors at the two ends of the measured
/// phases; every field is `end - start`. The allocation counts are only
/// non-zero in a traced run, which arms the counting allocator.
#[derive(Clone, Debug, Default)]
pub struct AccessorDeltas {
    pub events: u64,
    pub net_sent: u64,
    pub net_dropped: u64,
    pub log_appends: u64,
    pub log_batches: u64,
    pub wal_syncs: u64,
    pub wal_synced_bytes: u64,
    pub client_retries: u64,
    pub rm_replayed_txns: u64,
    pub expired_sessions: u64,
    pub dfs_bytes: u64,
    pub dfs_files_end: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// What only a traced repetition collects.
#[derive(Debug, Default)]
pub struct TraceData {
    pub spans: Vec<Span>,
    /// `rpc.*` / `txn.*` records of the measured phases.
    pub trace_entries: Vec<JournalEntry>,
    /// Every failure-event record of the repetition.
    pub event_entries: Vec<JournalEntry>,
    pub trace_dropped: u64,
}

/// Everything one repetition produced.
#[derive(Debug)]
pub struct Rep {
    pub seed: u64,
    pub setup_wall_s: f64,
    /// Host speed over the set-up and over the measured phases.
    pub setup_host_speed: f64,
    pub measured_host_speed: f64,
    /// Host seconds spent in the open and closed phases, not counting
    /// the host-speed samples taken inside them.
    pub measured_wall_s: f64,
    pub open_start_ns: u64,
    pub open_end_ns: u64,
    pub closed_end_ns: u64,
    pub recs: Vec<Rec>,
    /// Commit ack → watermark ≥ commit timestamp, open phase, ns.
    pub visible_ns: Vec<u64>,
    pub crash: CrashTimes,
    pub gauges: Gauges,
    pub inflight_max: u64,
    pub gen_late_max_ns: u64,
    /// `cluster.metrics` over the measured phases (`end.diff(start)`).
    pub registry: MetricsSnapshot,
    pub deltas: AccessorDeltas,
    pub audit: audit::Report,
    pub trace: Option<TraceData>,
}

struct State {
    stream: Stream,
    recs: Vec<Rec>,
    inflight: [u32; CLOSED_WORKERS],
    inflight_total: u64,
    inflight_max: u64,
    gen_late_max_ns: u64,
    /// `(commit ts, ack instant)` of open-phase commits not yet visible.
    awaiting_visible: BinaryHeap<Reverse<(u64, u64)>>,
    visible_ns: Vec<u64>,
    /// Closed phase: workers start their next transaction until here.
    closed_until_ns: u64,
    spans: Option<Vec<Span>>,
    violations: Vec<String>,
}

struct Harness {
    cluster: Cluster,
    spec: Spec,
    st: RefCell<State>,
}

impl Harness {
    fn now_ns(&self) -> u64 {
        self.cluster.now().nanos()
    }

    fn span(&self, name: &'static str, txn: u32, start_ns: u64) {
        let end_ns = self.now_ns();
        if let Some(spans) = self.st.borrow_mut().spans.as_mut() {
            spans.push(Span {
                name,
                txn,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Issues the stream's next transaction on `client`, due at `due_ns`.
fn start_txn(h: &Rc<Harness>, client: usize, phase: Phase, due_ns: u64) {
    let now = h.now_ns();
    let txn = {
        let mut st = h.st.borrow_mut();
        let txn = st.stream.next_txn();
        debug_assert_eq!(txn.seq as usize, st.recs.len());
        st.recs.push(Rec {
            txn: txn.clone(),
            phase,
            client,
            due_ns,
            end_ns: 0,
            outcome: Outcome::Pending,
        });
        st.inflight[client] += 1;
        st.inflight_total += 1;
        st.inflight_max = st.inflight_max.max(st.inflight_total);
        st.gen_late_max_ns = st.gen_late_max_ns.max(now - due_ns);
        txn
    };
    let h2 = Rc::clone(h);
    h.cluster.client(client).begin(move |r| match r {
        Ok(handle) => {
            h2.span("begin", txn.seq, now);
            run_op(h2, handle, txn, 0);
        }
        Err(e) => finish(&h2, txn.seq, Err(e)),
    });
}

fn run_op(h: Rc<Harness>, handle: Transaction, txn: Txn, mut i: usize) {
    // Puts only buffer locally; run through them without a callback.
    while let Some(Op::Put(row)) = txn.ops.get(i) {
        if let Err(e) = handle.put(workload::key(*row), COLUMN, workload::value(txn.seq)) {
            finish(&h, txn.seq, Err(e));
            return;
        }
        i += 1;
    }
    let start_ns = h.now_ns();
    match txn.ops.get(i).copied() {
        None => {
            let h2 = Rc::clone(&h);
            handle.commit(move |r| {
                h2.span("commit", txn.seq, start_ns);
                finish(&h2, txn.seq, r.map(|ts| ts.0));
            });
        }
        Some(Op::Get(row)) => {
            let handle2 = handle.clone();
            handle.get(workload::key(row), COLUMN, move |r| match r {
                Ok(v) => {
                    h.span("get", txn.seq, start_ns);
                    if v.map(|v| v.len()) != Some(VALUE_LEN) {
                        let msg =
                            format!("txn {}: get of loaded row {row} was not a value", txn.seq);
                        h.st.borrow_mut().violations.push(msg);
                    }
                    run_op(h, handle2, txn, i + 1);
                }
                Err(e) => finish(&h, txn.seq, Err(e)),
            });
        }
        Some(Op::Scan(row)) => {
            let handle2 = handle.clone();
            let end = workload::key(row + SCAN_LEN as u32);
            handle.scan(workload::key(row), Some(end), SCAN_LEN, move |r| match r {
                Ok(cells) => {
                    h.span("scan", txn.seq, start_ns);
                    let rows: Vec<&[u8]> = cells.iter().map(|(r, _, _)| &r[..]).collect();
                    if let Err(e) = audit::check_scan(row, h.spec.rows, SCAN_LEN, &rows) {
                        h.st.borrow_mut()
                            .violations
                            .push(format!("txn {}: {e}", txn.seq));
                    }
                    run_op(h, handle2, txn, i + 1);
                }
                Err(e) => finish(&h, txn.seq, Err(e)),
            });
        }
        Some(Op::Put(_)) => unreachable!("puts were consumed above"),
    }
}

fn finish(h: &Rc<Harness>, seq: u32, result: Result<u64, TxnError>) {
    let now = h.now_ns();
    let next = {
        let mut st = h.st.borrow_mut();
        let rec = &mut st.recs[seq as usize];
        rec.end_ns = now;
        rec.outcome = match result {
            Ok(ts) => Outcome::Committed(ts),
            Err(TxnError::Conflict) => Outcome::Aborted,
            Err(_) => Outcome::Failed,
        };
        let (client, phase, due_ns) = (rec.client, rec.phase, rec.due_ns);
        let wrote = rec.txn.put_rows().next().is_some();
        st.inflight[client] -= 1;
        st.inflight_total -= 1;
        if let (Ok(ts), Phase::Open, true) = (result, phase, wrote) {
            st.awaiting_visible.push(Reverse((ts, now)));
        }
        if let Some(spans) = st.spans.as_mut() {
            spans.push(Span {
                name: "txn",
                txn: seq,
                start_ns: due_ns,
                end_ns: now,
            });
        }
        (phase == Phase::Closed && now < st.closed_until_ns).then_some(client)
    };
    if let Some(client) = next {
        start_txn(h, client, Phase::Closed, now);
    }
}

/// The state the driver keeps while it steps the simulation.
struct Stepper {
    h: Rc<Harness>,
    traced: bool,
    measuring: bool,
    host: HostSpeed,
    gauges: Gauges,
    crash: CrashTimes,
    /// Open-phase start, once known (the crash schedule hangs off it).
    open_start_ns: Option<u64>,
    client_recoveries_before: u64,
    trace_entries: Vec<JournalEntry>,
    event_entries: Vec<JournalEntry>,
}

impl Stepper {
    /// Advances simulated time to `t`, observing between slices.
    fn run_to(&mut self, t: SimTime) {
        let slice = SLICE.nanos();
        loop {
            let now = self.h.now_ns();
            if now >= t.nanos() {
                return;
            }
            let next = t.nanos().min((now / slice + 1) * slice);
            self.h.cluster.run_for(SimDuration::from_nanos(next - now));
            self.observe();
        }
    }

    fn observe(&mut self) {
        let h = Rc::clone(&self.h);
        let c = &h.cluster;
        let now = h.now_ns();
        {
            let mut st = self.h.st.borrow_mut();
            if !st.awaiting_visible.is_empty() {
                let watermark = c.tm.watermark().0;
                while let Some(Reverse((ts, acked))) = st.awaiting_visible.peek().copied() {
                    if ts > watermark {
                        break;
                    }
                    st.awaiting_visible.pop();
                    st.visible_ns.push(now - acked);
                }
            }
        }
        if self.h.spec.crashes {
            self.drive_crashes(now);
        }
        if self.measuring && now.is_multiple_of(GAUGE_PERIOD_NS) {
            self.sample_gauges();
        }
        if self.measuring && now.is_multiple_of(HOST_TICK_NS) {
            self.host.tick();
        }
        if self.traced {
            let trace = c.trace.drain_sorted();
            if self.measuring {
                self.trace_entries.extend(trace);
            }
            self.event_entries.extend(c.events.drain_sorted());
        }
    }

    fn drive_crashes(&mut self, now: u64) {
        let Some(open_start) = self.open_start_ns else {
            return;
        };
        let h = Rc::clone(&self.h);
        let c = &h.cluster;
        let since_open = now.saturating_sub(open_start);
        if self.crash.client_crash_ns.is_none()
            && since_open >= CRASH_CLIENT_AT_SECS * 1_000_000_000
        {
            // Algorithm 2 recovers commits whose flush was interrupted, so
            // the client dies at the first instant it has an unflushed
            // commit and no transaction waiting for an outcome: recovery
            // has work to do and no operation fails. After two seconds
            // without such an instant it dies anyway.
            let victim = c.client(CRASHED_CLIENT);
            let idle = h.st.borrow().inflight[CRASHED_CLIENT] == 0;
            let overdue = since_open >= (CRASH_CLIENT_AT_SECS + 2) * 1_000_000_000;
            if (idle && victim.pending_flushes() > 0) || overdue {
                self.client_recoveries_before = c.rm.client_recovery_count();
                c.crash_client(CRASHED_CLIENT);
                self.crash.client_crash_ns = Some(now);
            }
        }
        if self.crash.client_crash_ns.is_some()
            && self.crash.client_recovered_ns.is_none()
            && c.rm.client_recovery_count() > self.client_recoveries_before
        {
            self.crash.client_recovered_ns = Some(now);
        }
        if self.crash.server_crash_ns.is_none()
            && since_open >= CRASH_SERVER_AT_SECS * 1_000_000_000
        {
            c.crash_server(CRASHED_SERVER);
            self.crash.server_crash_ns = Some(now);
        }
        if self.crash.server_crash_ns.is_some() && self.crash.regions_online_ns.is_none() {
            // The dead server's regions read as online until the master
            // reassigns them, so the outage ends at the first "all online"
            // seen after a "not all online".
            let online = c.all_regions_online();
            if !online && self.crash.regions_offline_ns.is_none() {
                self.crash.regions_offline_ns = Some(now);
            }
            if online && self.crash.regions_offline_ns.is_some() {
                self.crash.regions_online_ns = Some(now);
            }
        }
    }

    fn sample_gauges(&mut self) {
        let h = Rc::clone(&self.h);
        let c = &h.cluster;
        let g = &mut self.gauges;
        let pending: usize = c.clients.iter().map(|cl| cl.pending_flushes()).sum();
        g.pending_flushes_max = g.pending_flushes_max.max(pending as u64);
        g.log_len_max = g.log_len_max.max(c.tm.log().len() as u64);
        let lag = c.tm.last_commit_ts().0.saturating_sub(c.tm.watermark().0);
        g.watermark_lag_max = g.watermark_lag_max.max(lag);
        for s in c.servers.iter().filter(|s| s.is_alive()) {
            g.handler_queue_max = g.handler_queue_max.max(s.handler_queue_len() as u64);
            for region in s.hosted_regions() {
                let bytes = s.memstore_bytes(region);
                let prev = g.memstore_prev.insert(region, (s.id(), bytes));
                if prev.is_some_and(|(host, before)| host == s.id() && bytes < before / 2) {
                    *g.memstore_flushes.entry(region).or_insert(0) += 1;
                }
            }
        }
    }

    /// Open loop: `tps * secs` arrivals on a fixed schedule from `start`,
    /// round-robin over the clients that are alive at each due instant.
    fn open_loop(&mut self, phase: Phase, start: SimTime, tps: u64, secs: u64) {
        let mut next_client = 0;
        for k in 0..tps * secs {
            let due = start + SimDuration::from_nanos(k * 1_000_000_000 / tps);
            self.run_to(due);
            let clients = &self.h.cluster.clients;
            while !clients[next_client % clients.len()].is_alive() {
                next_client += 1;
            }
            start_txn(&self.h, next_client % clients.len(), phase, due.nanos());
            next_client += 1;
        }
        self.run_to(start + SimDuration::from_secs(secs));
    }

    /// Closed loop: one worker per client, next transaction on completion.
    fn closed_loop(&mut self, start: SimTime, secs: u64) {
        let end = start + SimDuration::from_secs(secs);
        self.h.st.borrow_mut().closed_until_ns = end.nanos();
        for client in 0..CLOSED_WORKERS {
            start_txn(&self.h, client, Phase::Closed, start.nanos());
        }
        self.run_to(end);
    }

    /// Runs until no transaction is waiting for an outcome, every live
    /// client has flushed, every open-phase commit is visible and every
    /// region is online. `Err` says what was still unsettled at the limit.
    fn quiesce(&mut self) -> Result<(), String> {
        let deadline = self.h.cluster.now() + QUIESCE_LIMIT;
        loop {
            let c = &self.h.cluster;
            let (inflight, invisible) = {
                let st = self.h.st.borrow();
                (st.inflight_total, st.awaiting_visible.len())
            };
            let unflushed: usize = c
                .clients
                .iter()
                .filter(|cl| cl.is_alive())
                .map(|cl| cl.pending_flushes())
                .sum();
            let online = c.all_regions_online();
            if inflight == 0 && invisible == 0 && unflushed == 0 && online {
                return Ok(());
            }
            if c.now() >= deadline {
                return Err(format!(
                    "no quiesce within {QUIESCE_LIMIT}: {inflight} transactions without an outcome, \
                     {invisible} commits not visible, {unflushed} not flushed, all regions online: {online}"
                ));
            }
            let next = c.now() + SimDuration::from_millis(10);
            self.run_to(next);
        }
    }
}

fn accessor_totals(c: &Cluster) -> AccessorDeltas {
    let (allocs, alloc_bytes) = alloc_count::totals();
    AccessorDeltas {
        events: c.sim.events_executed(),
        net_sent: c.net.messages_sent(),
        net_dropped: c.net.messages_dropped(),
        log_appends: c.tm.log().append_count(),
        log_batches: c.tm.log().batch_count(),
        wal_syncs: c.servers.iter().map(|s| s.wal().sync_count()).sum(),
        wal_synced_bytes: c.servers.iter().map(|s| s.wal().synced_bytes()).sum(),
        client_retries: c
            .clients
            .iter()
            .map(|cl| cl.store_client().retry_count())
            .sum(),
        rm_replayed_txns: c.rm.recovery_client().client_txns_replayed()
            + c.rm.recovery_client().region_txns_replayed(),
        expired_sessions: c.coord.expired_session_count(),
        dfs_bytes: c.datanodes.iter().map(|d| d.bytes_stored()).sum(),
        dfs_files_end: c.namenode.list("/").len() as u64,
        allocs,
        alloc_bytes,
    }
}

fn accessor_deltas(start: &AccessorDeltas, end: &AccessorDeltas) -> AccessorDeltas {
    AccessorDeltas {
        events: end.events - start.events,
        net_sent: end.net_sent - start.net_sent,
        net_dropped: end.net_dropped - start.net_dropped,
        log_appends: end.log_appends - start.log_appends,
        log_batches: end.log_batches - start.log_batches,
        wal_syncs: end.wal_syncs - start.wal_syncs,
        wal_synced_bytes: end.wal_synced_bytes - start.wal_synced_bytes,
        client_retries: end.client_retries - start.client_retries,
        rm_replayed_txns: end.rm_replayed_txns - start.rm_replayed_txns,
        expired_sessions: end.expired_sessions - start.expired_sessions,
        dfs_bytes: end.dfs_bytes.saturating_sub(start.dfs_bytes),
        dfs_files_end: end.dfs_files_end,
        allocs: end.allocs - start.allocs,
        alloc_bytes: end.alloc_bytes - start.alloc_bytes,
    }
}

/// Reads back every cell the stream wrote, through a live client's store
/// client at the newest version (what `Cluster::read_cell` does, batched).
fn read_back(h: &Rc<Harness>, rows: &[u32]) -> Vec<(u32, Option<u32>)> {
    let c = &h.cluster;
    let reader = c
        .clients
        .iter()
        .find(|cl| cl.is_alive())
        .expect("a client survives every workload");
    let out = Rc::new(RefCell::new(Vec::<(u32, Option<u32>)>::new()));
    for batch in rows.chunks(READBACK_BATCH) {
        let cells: Vec<(Bytes, Bytes)> = batch
            .iter()
            .map(|r| (workload::key(*r), Bytes::from(COLUMN)))
            .collect();
        let batch: Vec<u32> = batch.to_vec();
        let out2 = Rc::clone(&out);
        let want = out.borrow().len() + batch.len();
        reader
            .store_client()
            .multi_get(cells, Timestamp::MAX, move |values| {
                let mut out = out2.borrow_mut();
                for (row, vv) in batch.iter().zip(values) {
                    let seq = vv.and_then(|v| v.value).and_then(|v| workload::seq_of(&v));
                    out.push((*row, seq));
                }
            });
        let deadline = c.now() + SimDuration::from_secs(60);
        while out.borrow().len() < want {
            c.run_for(SimDuration::from_millis(1));
            assert!(
                c.now() < deadline,
                "read-back did not complete: {} of {want}; retries {}",
                out.borrow().len(),
                reader.store_client().retry_count()
            );
        }
    }
    Rc::try_unwrap(out).expect("all callbacks ran").into_inner()
}

/// Runs one repetition of `spec` with `seed`.
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let mut cfg = ClusterConfig {
        seed,
        servers: SERVERS,
        regions: REGIONS,
        clients: CLOSED_WORKERS,
        key_count: spec.rows,
        ..ClusterConfig::default()
    };
    if let Some(rows) = spec.block_cache_rows {
        cfg.server_cfg.block_cache_capacity = rows;
    }
    if let Some(bytes) = spec.memstore_flush_bytes {
        cfg.server_cfg.memstore_flush_bytes = bytes;
    }

    let mut host = HostSpeed::default();
    let speed_before_setup = host.now();
    let setup = Instant::now();
    let cluster = Cluster::build(cfg);
    cluster.load_rows(spec.rows, &[COLUMN], VALUE_LEN, spec.warm_cache);
    let setup_wall_s = setup.elapsed().as_secs_f64();
    let setup_host_speed = (speed_before_setup + host.now()) / 2.0;

    let h = Rc::new(Harness {
        cluster,
        spec: spec.clone(),
        st: RefCell::new(State {
            stream: Stream::new(spec, seed),
            recs: Vec::new(),
            inflight: [0; CLOSED_WORKERS],
            inflight_total: 0,
            inflight_max: 0,
            gen_late_max_ns: 0,
            awaiting_visible: BinaryHeap::new(),
            visible_ns: Vec::new(),
            closed_until_ns: 0,
            spans: traced.then(Vec::new),
            violations: Vec::new(),
        }),
    });
    let mut stepper = Stepper {
        h: Rc::clone(&h),
        traced,
        measuring: false,
        host,
        gauges: Gauges::default(),
        crash: CrashTimes::default(),
        open_start_ns: None,
        client_recoveries_before: 0,
        trace_entries: Vec::new(),
        event_entries: Vec::new(),
    };
    let c = &h.cluster;

    // Start the schedule on the next gauge instant (a slice boundary too).
    let warm_start = SimTime::from_nanos((c.now().nanos() / GAUGE_PERIOD_NS + 1) * GAUGE_PERIOD_NS);
    stepper.run_to(warm_start);
    stepper.open_loop(Phase::Warmup, warm_start, spec.open_tps, WARMUP_SECS);

    // Measured phases.
    let open_start = c.now();
    stepper.open_start_ns = Some(open_start.nanos());
    stepper.measuring = true;
    if traced {
        c.trace.drain_sorted();
        stepper.event_entries.extend(c.events.drain_sorted());
    }
    let registry_before = c.metrics.snapshot();
    let totals_before = accessor_totals(c);
    alloc_count::arm(traced);
    let wall = Instant::now();
    stepper.open_loop(Phase::Open, open_start, spec.open_tps, spec.open_secs);
    let open_end = c.now();
    if spec.closed_secs > 0 {
        stepper.closed_loop(open_end, spec.closed_secs);
    }
    let closed_end = c.now();
    let measured_wall = wall.elapsed();
    alloc_count::arm(false);
    let (measured_host_speed, sampling) = stepper.host.take();
    let measured_wall_s = (measured_wall - sampling).as_secs_f64();
    stepper.measuring = false;
    let deltas = accessor_deltas(&totals_before, &accessor_totals(c));
    let registry = c.metrics.snapshot().diff(&registry_before);

    let quiesced = stepper.quiesce();

    // Audits.
    let (recs, visible_ns, inflight_max, gen_late_max_ns, spans, violations) = {
        let mut st = h.st.borrow_mut();
        (
            std::mem::take(&mut st.recs),
            std::mem::take(&mut st.visible_ns),
            st.inflight_max,
            st.gen_late_max_ns,
            st.spans.take(),
            std::mem::take(&mut st.violations),
        )
    };
    let mut report = match quiesced {
        Ok(()) => {
            let expected = audit::expected_final(&recs);
            let rows: Vec<u32> = expected.keys().copied().collect();
            audit::check_read_back(&expected, &read_back(&h, &rows), &recs)
        }
        // A system that has not settled cannot be read back from.
        Err(unsettled) => audit::Report {
            violations: vec![unsettled],
            ..audit::Report::default()
        },
    };
    report.violations.extend(violations);
    c.assert_region_partition();

    let trace = spans.map(|spans| TraceData {
        spans,
        trace_entries: std::mem::take(&mut stepper.trace_entries),
        event_entries: {
            stepper.event_entries.extend(c.events.drain_sorted());
            std::mem::take(&mut stepper.event_entries)
        },
        trace_dropped: c.trace.dropped(),
    });

    Rep {
        seed,
        setup_wall_s,
        setup_host_speed,
        measured_host_speed,
        measured_wall_s,
        open_start_ns: open_start.nanos(),
        open_end_ns: open_end.nanos(),
        closed_end_ns: closed_end.nanos(),
        recs,
        visible_ns,
        crash: stepper.crash,
        gauges: std::mem::take(&mut stepper.gauges),
        inflight_max,
        gen_late_max_ns,
        registry,
        deltas,
        audit: report,
        trace,
    }
}

//! Callback-driven workload driver: N client threads executing the
//! paper's update transaction against a simulated cluster.

use crate::generators::{HotSpot, ScrambledZipfian, Uniform};
use crate::workload::{KeyDistribution, Workload};
use bytes::Bytes;
use cumulo_core::{Cluster, Timestamp, Transaction, TransactionalClient, TxnError};
use cumulo_sim::metrics::{Counter, Histogram, TimeSeries, Window};
use cumulo_sim::{Network, Sim, SimDuration, SimTime};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Live measurement state of a running driver.
#[derive(Clone)]
pub struct DriverStats {
    /// Response-time histogram (nanoseconds), measured transactions only.
    pub response_ns: Histogram,
    /// Windowed response-time series (count doubles as throughput).
    pub series: TimeSeries,
    /// Committed transactions (measured period).
    pub committed: Counter,
    /// Aborted transactions (measured period).
    pub aborted: Counter,
}

/// Summary of a measurement interval.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverReport {
    /// Mean committed-transaction throughput, transactions/second.
    pub throughput_tps: f64,
    /// Mean response time, milliseconds.
    pub mean_ms: f64,
    /// 95th-percentile response time, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
    /// Committed transactions in the interval.
    pub committed: u64,
    /// Aborted transactions in the interval.
    pub aborted: u64,
}

struct DriverInner {
    sim: Sim,
    net: Rc<Network>,
    workload: Workload,
    clients: Vec<TransactionalClient>,
    stats: DriverStats,
    stop_at: Cell<SimTime>,
    measure_from: Cell<SimTime>,
    uniform: Uniform,
    zipf: ScrambledZipfian,
    hotspot: HotSpot,
    in_flight: Counter,
}

/// The workload driver. Cheap to clone.
#[derive(Clone)]
pub struct Driver {
    inner: Rc<DriverInner>,
}

impl fmt::Debug for Driver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Driver")
            .field("threads", &self.inner.workload.threads)
            .field("committed", &self.inner.stats.committed.get())
            .field("aborted", &self.inner.stats.aborted.get())
            .finish()
    }
}

impl Driver {
    /// Creates a driver for `cluster` (threads round-robin over its
    /// clients).
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no clients or the workload is invalid.
    pub fn new(cluster: &Cluster, workload: Workload) -> Driver {
        workload.validate();
        assert!(!cluster.clients.is_empty(), "cluster has no clients");
        let stats = DriverStats {
            response_ns: Histogram::new(),
            series: TimeSeries::new(workload.window),
            committed: Counter::new(),
            aborted: Counter::new(),
        };
        let uniform = Uniform::new(workload.record_count);
        let zipf = ScrambledZipfian::new(workload.record_count);
        let hotspot = HotSpot::new(
            workload.record_count,
            workload.hotspot_keys_fraction,
            workload.hotspot_ops_fraction,
        );
        Driver {
            inner: Rc::new(DriverInner {
                sim: cluster.sim.clone(),
                net: Rc::clone(&cluster.net),
                workload,
                clients: cluster.clients.clone(),
                stats,
                stop_at: Cell::new(SimTime::ZERO),
                measure_from: Cell::new(SimTime::ZERO),
                uniform,
                zipf,
                hotspot,
                in_flight: Counter::new(),
            }),
        }
    }

    /// Launches the workload: threads run until `duration` elapses;
    /// transactions completing before `warmup` has passed are not
    /// measured. The caller drives the simulation afterwards.
    pub fn start(&self, warmup: SimDuration, duration: SimDuration) {
        let now = self.inner.sim.now();
        self.inner.measure_from.set(now + warmup);
        self.inner.stop_at.set(now + duration);
        let interval_ns = self
            .inner
            .workload
            .target_tps
            .map(|tps| (self.inner.workload.threads as f64 / tps * 1e9) as u64);
        for t in 0..self.inner.workload.threads {
            // Stagger thread phases so arrivals are not synchronized.
            let first = match interval_ns {
                Some(iv) => {
                    SimDuration::from_nanos(iv * t as u64 / self.inner.workload.threads as u64)
                }
                None => SimDuration::from_nanos(self.inner.sim.gen_range(0, 1_000_000)),
            };
            let arrival = align_to_burst(&self.inner.workload, now + first);
            arrive(Rc::clone(&self.inner), t, arrival, interval_ns);
        }
    }

    /// Runs the full experiment synchronously: `start` + drive the
    /// simulation until `duration` (plus drain time) elapses; returns the
    /// report over the measured interval.
    pub fn run(
        &self,
        cluster: &Cluster,
        warmup: SimDuration,
        duration: SimDuration,
    ) -> DriverReport {
        self.start(warmup, duration);
        cluster.run_for(duration + SimDuration::from_secs(2));
        self.report()
    }

    /// Live statistics.
    pub fn stats(&self) -> &DriverStats {
        &self.inner.stats
    }

    /// Windowed series (window start, committed count, mean RT ns, max RT
    /// ns) padded to the stop instant — the Fig. 3 timeline data.
    pub fn windows(&self) -> Vec<Window> {
        self.inner
            .stats
            .series
            .windows_until(self.inner.stop_at.get())
    }

    /// Summary over the measured interval.
    pub fn report(&self) -> DriverReport {
        let measured_ns = self
            .inner
            .stop_at
            .get()
            .saturating_since(self.inner.measure_from.get())
            .nanos()
            .max(1);
        let h = &self.inner.stats.response_ns;
        DriverReport {
            throughput_tps: self.inner.stats.committed.get() as f64 / (measured_ns as f64 / 1e9),
            mean_ms: h.mean() as f64 / 1e6,
            p95_ms: h.quantile(0.95) as f64 / 1e6,
            p99_ms: h.quantile(0.99) as f64 / 1e6,
            committed: self.inner.stats.committed.get(),
            aborted: self.inner.stats.aborted.get(),
        }
    }
}

/// Pushes an arrival landing in the duty cycle's off-window to the next
/// cycle start (identity when bursts are disabled). Cycles are anchored
/// at t=0, so every thread agrees on the window boundaries.
fn align_to_burst(w: &Workload, t: SimTime) -> SimTime {
    if w.burst_on.is_zero() {
        return t;
    }
    let cycle = (w.burst_on + w.burst_off).nanos().max(1);
    let phase = t.nanos() % cycle;
    if phase < w.burst_on.nanos() {
        t
    } else {
        SimTime::from_nanos(t.nanos() - phase + cycle)
    }
}

fn pick_key(inner: &DriverInner) -> u64 {
    match inner.workload.distribution {
        KeyDistribution::Uniform => inner.uniform.next_key(&inner.sim),
        KeyDistribution::Zipfian => inner.zipf.next_key(&inner.sim),
        KeyDistribution::HotSpot => inner.hotspot.next_key(&inner.sim),
    }
}

/// Starts `thread`'s next transaction at `arrival` unless its client dies.
fn arrive(inner: Rc<DriverInner>, thread: usize, arrival: SimTime, interval_ns: Option<u64>) {
    let node = inner.clients[thread % inner.clients.len()].node();
    let (net, delay) = (Rc::clone(&inner.net), arrival - inner.sim.now());
    net.after(node, delay, move || {
        start_txn(inner, thread, arrival, interval_ns)
    });
}

fn start_txn(inner: Rc<DriverInner>, thread: usize, arrival: SimTime, interval_ns: Option<u64>) {
    if inner.sim.now() >= inner.stop_at.get() {
        return;
    }
    let client = inner.clients[thread % inner.clients.len()].clone();
    let started = inner.sim.now();
    let inner2 = Rc::clone(&inner);
    inner.in_flight.inc();
    client.begin(move |txn| {
        // A client that closed, or died before the handle, retires this
        // thread (as a crash does).
        let Ok(txn) = txn else { return };
        run_op(inner2, txn, 0, started, thread, arrival, interval_ns);
    });
}

fn run_op(
    inner: Rc<DriverInner>,
    txn: Transaction,
    op: usize,
    started: SimTime,
    thread: usize,
    arrival: SimTime,
    interval_ns: Option<u64>,
) {
    if op >= inner.workload.ops_per_txn {
        let inner2 = Rc::clone(&inner);
        txn.commit(move |result| {
            finish_txn(inner2, result, started, thread, arrival, interval_ns);
        });
        return;
    }
    // The scan draw only happens when scans are configured, so workloads
    // without them replay byte-identically against pre-existing seeds.
    let is_scan =
        inner.workload.scan_ratio > 0.0 && inner.sim.gen_f64() < inner.workload.scan_ratio;
    if is_scan {
        let start_id = pick_key(&inner);
        let len = inner.workload.scan_len.max(1) as u64;
        let start = inner.workload.key(start_id);
        let end = inner.workload.key(
            start_id
                .saturating_add(len)
                .min(inner.workload.record_count),
        );
        let inner2 = Rc::clone(&inner);
        let txn2 = txn.clone();
        txn.scan(start, Some(Bytes::from(end)), len as usize, move |r| {
            // A dead/finished transaction retires the thread (the next
            // arrival is scheduled by finish_txn only after a commit
            // outcome; a crashed client's thread simply ends, as it did
            // when its callbacks were dropped with the process).
            if r.is_err() {
                return;
            }
            run_op(inner2, txn2, op + 1, started, thread, arrival, interval_ns);
        });
        return;
    }
    let key = inner.workload.key(pick_key(&inner));
    let field_idx = inner.sim.gen_range(0, inner.workload.fields.len() as u64) as usize;
    let field = inner.workload.fields[field_idx].clone();
    let is_read = inner.sim.gen_f64() < inner.workload.read_ratio;
    if is_read {
        let inner2 = Rc::clone(&inner);
        let txn2 = txn.clone();
        txn.get(key, field, move |r| {
            if r.is_err() {
                return;
            }
            run_op(inner2, txn2, op + 1, started, thread, arrival, interval_ns);
        });
    } else if inner.sim.gen_f64() < inner.workload.rmw_ratio {
        // Read-modify-write (YCSB-F): read the cell, write a derived value.
        let inner2 = Rc::clone(&inner);
        let txn2 = txn.clone();
        let key2 = key.clone();
        let field2 = field.clone();
        txn.get(key, field, move |old| {
            let Ok(old) = old else { return };
            let value = derived_value(inner2.workload.field_len, old.as_deref());
            if txn2.put(key2, field2, value).is_err() {
                return;
            }
            run_op(inner2, txn2, op + 1, started, thread, arrival, interval_ns);
        });
    } else {
        let value: Vec<u8> = vec![0x62; inner.workload.field_len];
        if txn.put(key, field, value).is_err() {
            return;
        }
        run_op(inner, txn, op + 1, started, thread, arrival, interval_ns);
    }
}

/// The read-modify-write derived value: the old bytes (if any) with the
/// first byte bumped, padded/truncated to `field_len`.
fn derived_value(field_len: usize, old: Option<&[u8]>) -> Vec<u8> {
    let mut value: Vec<u8> = vec![0x62; field_len];
    if let Some(old) = old {
        let n = old.len().min(value.len());
        value[..n].copy_from_slice(&old[..n]);
        if let Some(b) = value.first_mut() {
            *b = b.wrapping_add(1);
        }
    }
    value
}

fn finish_txn(
    inner: Rc<DriverInner>,
    result: Result<Timestamp, TxnError>,
    started: SimTime,
    thread: usize,
    arrival: SimTime,
    interval_ns: Option<u64>,
) {
    // A dead or closed client retires the thread without touching the
    // stats: a crash-killed transaction is not a workload abort (pre-
    // handle-API behavior, where the commit callback died with the
    // process).
    if matches!(
        result,
        Err(TxnError::ClientDead) | Err(TxnError::ClientClosed)
    ) {
        return;
    }
    let now = inner.sim.now();
    if now >= inner.measure_from.get() && now < inner.stop_at.get() {
        match result {
            Ok(_) => {
                let rt = (now - started).nanos();
                inner.stats.committed.inc();
                inner.stats.response_ns.record(rt);
                inner.stats.series.record(now, rt);
            }
            Err(_) => inner.stats.aborted.inc(),
        }
    }
    // Next arrival: rate-limited threads follow their schedule without
    // accumulating a backlog (missed slots are skipped); unlimited
    // threads go again immediately.
    let next_arrival = match interval_ns {
        Some(iv) => {
            let mut next = arrival + SimDuration::from_nanos(iv);
            if next < now {
                next = now;
            }
            next
        }
        None => now,
    };
    let next_arrival = align_to_burst(&inner.workload, next_arrival);
    arrive(inner, thread, next_arrival, interval_ns);
}

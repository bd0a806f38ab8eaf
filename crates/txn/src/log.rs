//! The transaction manager's recovery log with self-clocking group commit.
//!
//! "If the transaction manager decides that the transaction can commit,
//! the transaction receives a commit timestamp and its write-set, together
//! with the commit timestamp and a client identifier, is flushed to the
//! recovery log to make it persistent. At this point, the transaction is
//! considered committed." (§2.2)
//!
//! "The logging sub-component supports group commit" (§4.1), and the
//! device is its clock — there is no timer:
//!
//! * **What starts a flush.** An append to an idle log starts one device
//!   `write + sync` at once, and the completion of a flush starts the
//!   next one if anything is waiting. Nothing else does.
//! * **When a batch forms.** Records that arrive while a flush is in
//!   flight wait for it and then ride the next flush together. Batches
//!   therefore form exactly when appends arrive faster than the device
//!   syncs, and an idle log never delays a record to wait for company.
//! * **The bound.** At most one flush is in flight, so an append waits
//!   for at most one flush other than its own: it is acknowledged within
//!   two device rounds of its arrival.
//!
//! A record is acknowledged only after its `write + sync` completed and it
//! is readable through [`RecoveryLog::fetch_after`]; acknowledgements run
//! in append order.

use cumulo_sim::metrics::{Counter, Histogram};
use cumulo_sim::{Disk, DiskConfig, Sim, SimTime};
use cumulo_store::{ClientId, Timestamp, WriteSet};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::{Rc, Weak};

/// One durable log entry: a committed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// The commit timestamp (serialization order, MVCC version).
    pub ts: Timestamp,
    /// The key-value client that executed the transaction.
    pub client: ClientId,
    /// The full write-set.
    pub write_set: WriteSet,
}

impl LogRecord {
    /// Approximate serialized size.
    pub fn wire_size(&self) -> usize {
        24 + self.write_set.wire_size()
    }
}

/// Recovery-log configuration: the device, and nothing to tune. Group
/// commit is self-clocking (see the module docs) — a flush starts when
/// the log is idle or the previous flush completes, a batch is whatever
/// arrived during one sync, and an append waits for at most one flush
/// other than its own — so there is no period and no batch cap to set.
#[derive(Copy, Clone, Debug)]
pub struct RecoveryLogConfig {
    /// Latency profile of the log device.
    pub disk: DiskConfig,
}

impl Default for RecoveryLogConfig {
    fn default() -> Self {
        RecoveryLogConfig {
            disk: DiskConfig::fast_log_device(),
        }
    }
}

struct Pending {
    record: LogRecord,
    appended_at: SimTime,
    done: Box<dyn FnOnce()>,
}

/// The append-only recovery log. Shared via `Rc`.
pub struct RecoveryLog {
    sim: Sim,
    disk: Rc<Disk>,
    /// Durable records, ordered by commit timestamp.
    records: RefCell<BTreeMap<Timestamp, LogRecord>>,
    /// Appends waiting for the flush in flight to complete.
    pending: RefCell<Vec<Pending>>,
    /// Set from the start of a flush until its last acknowledgement ran.
    flush_inflight: Cell<bool>,
    truncated_below: Cell<Timestamp>,
    appends: Counter,
    batches: Counter,
    /// Append → durable acknowledgement, per record.
    ack_ns: Histogram,
    truncated_records: Cell<u64>,
    self_weak: Weak<RecoveryLog>,
}

impl fmt::Debug for RecoveryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryLog")
            .field("durable", &self.records.borrow().len())
            .field("pending", &self.pending.borrow().len())
            .field("truncated_below", &self.truncated_below.get())
            .finish()
    }
}

impl RecoveryLog {
    /// Creates an empty, idle log on its own device; its counters and
    /// its acknowledgement-latency histogram are the run's `tm.log.*`
    /// metrics, so a [`Sim`] takes one log.
    pub fn new(sim: &Sim, cfg: RecoveryLogConfig) -> Rc<RecoveryLog> {
        let metrics = sim.metrics();
        Rc::new_cyclic(|self_weak| RecoveryLog {
            sim: sim.clone(),
            disk: Disk::new(sim, cfg.disk),
            records: RefCell::new(BTreeMap::new()),
            pending: RefCell::new(Vec::new()),
            flush_inflight: Cell::new(false),
            truncated_below: Cell::new(Timestamp::ZERO),
            appends: metrics.counter("tm.log.appends", &[]),
            batches: metrics.counter("tm.log.batches", &[]),
            ack_ns: metrics.histogram("tm.log.ack_ns", &[]),
            truncated_records: Cell::new(0),
            self_weak: self_weak.clone(),
        })
    }

    /// Appends a committed transaction; `done` runs at the durability
    /// point (the record's `write + sync` complete). Only then may the
    /// transaction be reported committed to the client. The flush starts
    /// now if the log is idle, else when the flush in flight completes.
    pub fn append(&self, record: LogRecord, done: impl FnOnce() + 'static) {
        self.appends.inc();
        self.pending.borrow_mut().push(Pending {
            record,
            appended_at: self.sim.now(),
            done: Box::new(done),
        });
        self.maybe_flush();
    }

    fn maybe_flush(&self) {
        if self.flush_inflight.get() || self.pending.borrow().is_empty() {
            return;
        }
        self.flush_inflight.set(true);
        let batch = std::mem::take(&mut *self.pending.borrow_mut());
        let bytes: usize = batch.iter().map(|p| p.record.wire_size()).sum();
        self.batches.inc();
        let weak = self.self_weak.clone();
        let disk = Rc::clone(&self.disk);
        self.disk.write(bytes, move || {
            disk.sync(bytes, move || {
                let Some(log) = weak.upgrade() else { return };
                let mut acks = Vec::with_capacity(batch.len());
                {
                    let mut records = log.records.borrow_mut();
                    for p in batch {
                        records.insert(p.record.ts, p.record);
                        acks.push((p.appended_at, p.done));
                    }
                }
                // The whole batch is durable and fetchable before the
                // first acknowledgement runs. The log stays busy until
                // the last one has: what a `done` appends rides the next
                // flush together with whatever else is waiting.
                let now = log.sim.now();
                for (appended_at, done) in acks {
                    log.ack_ns.record_duration(now - appended_at);
                    done();
                }
                log.flush_inflight.set(false);
                log.maybe_flush();
            });
        });
    }

    /// All durable records with timestamp strictly greater than `ts`, in
    /// timestamp order. (`fetchlogs(T_P(s))` of Algorithm 4.)
    pub fn fetch_after(&self, ts: Timestamp) -> Vec<LogRecord> {
        self.records
            .borrow()
            .range(ts.next()..)
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Durable records of `client` with timestamp strictly greater than
    /// `ts`. (`fetchlogs(c, T_F(c))` of Algorithm 2.)
    pub fn fetch_client_after(&self, client: ClientId, ts: Timestamp) -> Vec<LogRecord> {
        self.records
            .borrow()
            .range(ts.next()..)
            .filter(|(_, r)| r.client == client)
            .map(|(_, r)| r.clone())
            .collect()
    }

    /// Drops durable records with timestamp strictly below `ts` — the
    /// checkpoint-driven truncation of §3.2. Monotonic: a lower `ts` than
    /// a previous call is a no-op.
    pub fn truncate_below(&self, ts: Timestamp) {
        if ts <= self.truncated_below.get() {
            return;
        }
        self.truncated_below.set(ts);
        let mut records = self.records.borrow_mut();
        let keep = records.split_off(&ts);
        self.truncated_records
            .set(self.truncated_records.get() + records.len() as u64);
        *records = keep;
    }

    /// Number of durable (untruncated) records.
    pub fn len(&self) -> usize {
        self.records.borrow().len()
    }

    /// Whether the durable log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.borrow().is_empty()
    }

    /// Oldest retained timestamp, if any.
    pub fn oldest_ts(&self) -> Option<Timestamp> {
        self.records.borrow().keys().next().copied()
    }

    /// Everything truncated below this timestamp.
    pub fn truncated_below(&self) -> Timestamp {
        self.truncated_below.get()
    }

    /// Total appends accepted.
    pub fn append_count(&self) -> u64 {
        self.appends.get()
    }

    /// Group-commit batches written (one device `write + sync` each).
    pub fn batch_count(&self) -> u64 {
        self.batches.get()
    }

    /// Append → durable acknowledgement latency, one sample per record.
    pub fn ack_latency(&self) -> &Histogram {
        &self.ack_ns
    }

    /// Records removed by truncation.
    pub fn truncated_count(&self) -> u64 {
        self.truncated_records.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_sim::SimDuration;
    use cumulo_store::Mutation;
    use std::rc::Rc;

    fn record(ts: u64, client: u32) -> LogRecord {
        LogRecord {
            ts: Timestamp(ts),
            client: ClientId(client),
            write_set: vec![Mutation::put(format!("r{ts}"), "c", "v")]
                .into_iter()
                .collect(),
        }
    }

    /// One device round for a batch of `bytes` on the default log device.
    fn device_round(bytes: usize) -> SimDuration {
        let disk = RecoveryLogConfig::default().disk;
        disk.write_time(bytes) + disk.sync_time(bytes)
    }

    /// Acknowledgements as they ran: `(ts, instant)`.
    type Acks = Rc<RefCell<Vec<(u64, SimTime)>>>;

    fn append_recording(sim: &Sim, log: &RecoveryLog, acks: &Acks, ts: u64) {
        let (sim, acks) = (sim.clone(), Rc::clone(acks));
        log.append(record(ts, 0), move || {
            acks.borrow_mut().push((ts, sim.now()))
        });
    }

    #[test]
    fn append_becomes_durable_after_group_commit() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let acked = Rc::new(Cell::new(0u32));
        for i in 1..=10 {
            let a = acked.clone();
            log.append(record(i, 0), move || a.set(a.get() + 1));
        }
        assert_eq!(log.len(), 0, "not durable before the group commit");
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(acked.get(), 10);
        assert_eq!(log.len(), 10);
    }

    /// N appends in one instant: the first finds the log idle and goes
    /// alone, the other N − 1 arrive during its sync and ride the second
    /// flush together.
    #[test]
    fn group_commit_batches() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let acks: Acks = Rc::default();
        for i in 1..=50 {
            append_recording(&sim, &log, &acks, i);
        }
        sim.run_for(SimDuration::from_millis(100));
        assert!(
            log.batch_count() <= 3,
            "50 appends should ride few batches: {}",
            log.batch_count()
        );
        assert_eq!(log.batch_count(), 2, "1 then N - 1");
        assert_eq!(log.append_count(), 50);
        let rest: usize = (2..=50).map(|i| record(i, 0).wire_size()).sum();
        let first = SimTime::ZERO + device_round(record(1, 0).wire_size());
        let second = first + device_round(rest);
        let acks = acks.borrow();
        assert_eq!(acks[0], (1, first));
        assert_eq!(acks.len(), 50);
        assert!(acks[1..].iter().all(|(_, at)| *at == second), "{acks:?}");
    }

    #[test]
    fn fetch_after_filters_and_orders() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        for i in [5u64, 1, 9, 3, 7] {
            log.append(record(i, (i % 2) as u32), || {});
        }
        sim.run_for(SimDuration::from_millis(50));
        let after3 = log.fetch_after(Timestamp(3));
        assert_eq!(
            after3.iter().map(|r| r.ts.0).collect::<Vec<_>>(),
            vec![5, 7, 9]
        );
        // Strictly greater: ts=3 itself is excluded, and ts=0 returns all.
        assert_eq!(log.fetch_after(Timestamp::ZERO).len(), 5);
        let c1 = log.fetch_client_after(ClientId(1), Timestamp::ZERO);
        assert_eq!(
            c1.iter().map(|r| r.ts.0).collect::<Vec<_>>(),
            vec![1, 3, 5, 7, 9]
        );
        let c0 = log.fetch_client_after(ClientId(0), Timestamp::ZERO);
        assert!(c0.is_empty());
    }

    #[test]
    fn truncate_below_is_monotone_and_exact() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        for i in 1..=10 {
            log.append(record(i, 0), || {});
        }
        sim.run_for(SimDuration::from_millis(50));
        log.truncate_below(Timestamp(5));
        assert_eq!(
            log.oldest_ts(),
            Some(Timestamp(5)),
            "ts == threshold is retained"
        );
        assert_eq!(log.len(), 6);
        assert_eq!(log.truncated_count(), 4);
        // Lower threshold is a no-op.
        log.truncate_below(Timestamp(2));
        assert_eq!(log.len(), 6);
        assert_eq!(log.truncated_below(), Timestamp(5));
    }

    /// No tick to wait for: an append to an idle log is acknowledged
    /// after exactly one `write + sync` of its size, whenever it arrives.
    #[test]
    fn idle_append_is_acknowledged_after_one_write_and_sync() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let acks: Acks = Rc::default();
        let round = device_round(record(1, 0).wire_size());
        assert_eq!(round, SimDuration::from_micros(409));
        // Arrival offsets that share no phase with any period.
        let mut arrivals = Vec::new();
        for (i, gap_us) in [0u64, 1_337, 2_718, 10_001].into_iter().enumerate() {
            sim.run_for(SimDuration::from_micros(gap_us));
            arrivals.push(sim.now());
            append_recording(&sim, &log, &acks, i as u64 + 1);
            assert_eq!(log.batch_count(), i as u64 + 1, "the flush starts at once");
        }
        sim.run_for(SimDuration::from_millis(50));
        let acked_at: Vec<SimTime> = acks.borrow().iter().map(|(_, at)| *at).collect();
        let expect: Vec<SimTime> = arrivals.iter().map(|at| *at + round).collect();
        assert_eq!(acked_at, expect);
        assert_eq!(log.ack_latency().min(), round.nanos());
        assert_eq!(log.ack_latency().max(), round.nanos());
    }

    /// Acknowledgements run in append order — across batches and within
    /// one — and the whole batch is in `fetch_after` before the first of
    /// its `done`s runs.
    #[test]
    fn acks_run_in_append_order_after_the_batch_is_fetchable() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let order: Rc<RefCell<Vec<u64>>> = Rc::default();
        // Timestamps out of order on purpose: the order is the appends'.
        let tss = [4u64, 2, 9, 1, 7, 3];
        for (i, ts) in tss.into_iter().enumerate() {
            let (order, log2) = (Rc::clone(&order), Rc::clone(&log));
            let batch: Vec<u64> = if i == 0 { vec![4] } else { tss[1..].to_vec() };
            log.append(record(ts, 0), move || {
                let durable: Vec<u64> = log2
                    .fetch_after(Timestamp::ZERO)
                    .iter()
                    .map(|r| r.ts.0)
                    .collect();
                for member in &batch {
                    assert!(
                        durable.contains(member),
                        "ack of {ts} before {member} of its batch was fetchable: {durable:?}"
                    );
                }
                order.borrow_mut().push(ts);
            });
        }
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(*order.borrow(), tss);
    }

    /// An append made by a `done` callback is not lost, and the log is
    /// still busy while it acknowledges: what two callbacks of one batch
    /// append rides one further flush together, started only when the
    /// acknowledging flush is finished.
    #[test]
    fn append_from_a_done_callback_rides_the_next_flush() {
        let sim = Sim::new(1);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let acks: Acks = Rc::default();
        append_recording(&sim, &log, &acks, 1);
        for ts in [2u64, 3] {
            let (sim2, log2, acks2) = (sim.clone(), Rc::clone(&log), Rc::clone(&acks));
            log.append(record(ts, 0), move || {
                acks2.borrow_mut().push((ts, sim2.now()));
                append_recording(&sim2, &log2, &acks2, ts + 10);
            });
        }
        sim.run_for(SimDuration::from_millis(50));
        let size = record(1, 0).wire_size();
        let first = SimTime::ZERO + device_round(size);
        let second = first + device_round(2 * size);
        let third = second + device_round(2 * size);
        assert_eq!(
            *acks.borrow(),
            vec![
                (1, first),
                (2, second),
                (3, second),
                (12, third),
                (13, third)
            ]
        );
        assert_eq!(log.batch_count(), 3, "{{1}}, {{2, 3}}, {{12, 13}}");
        assert_eq!(log.len(), 5);
    }
}

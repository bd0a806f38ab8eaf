//! Disk model: a single device per component that serializes operations and
//! charges latency per operation and per kilobyte.
//!
//! Used by datanodes (`cumulo-dfs`) for block writes and by the transaction
//! manager (`cumulo-txn`) for recovery-log group commits. Buffered writes
//! are cheap; `sync` (fsync) is the expensive durability point, matching the
//! sync-vs-async persistence comparison in the paper's §4.2.

use crate::kernel::Sim;
use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// Latency parameters for a [`Disk`].
#[derive(Copy, Clone, Debug)]
pub struct DiskConfig {
    /// Fixed cost of submitting any operation.
    pub op_latency: SimDuration,
    /// Additional cost per kilobyte written.
    pub write_per_kb: SimDuration,
    /// Additional cost per kilobyte read.
    pub read_per_kb: SimDuration,
    /// Fixed cost of a sync (fsync/hflush durability point).
    pub sync_latency: SimDuration,
}

impl DiskConfig {
    /// A datanode-style device on 2013 hardware (Dell R310 class): the
    /// per-operation cost models the full datanode handling of an append
    /// — request processing plus the serial ack pipeline that HDFS's
    /// `hflush` waits for — which is what makes synchronous WAL
    /// persistence expensive in the paper's baseline.
    pub fn server_hdd() -> Self {
        DiskConfig {
            op_latency: SimDuration::from_micros(1500),
            write_per_kb: SimDuration::from_micros(9),
            read_per_kb: SimDuration::from_micros(9),
            sync_latency: SimDuration::from_millis(2),
        }
    }

    /// The transaction manager's "high performance stable storage" (§4.1):
    /// a fast log device with sub-millisecond sync.
    pub fn fast_log_device() -> Self {
        DiskConfig {
            op_latency: SimDuration::from_micros(5),
            write_per_kb: SimDuration::from_micros(2),
            read_per_kb: SimDuration::from_micros(2),
            sync_latency: SimDuration::from_micros(400),
        }
    }

    /// Near-zero latency, for unit tests.
    pub fn instant() -> Self {
        DiskConfig {
            op_latency: SimDuration::from_nanos(1),
            write_per_kb: SimDuration::ZERO,
            read_per_kb: SimDuration::ZERO,
            sync_latency: SimDuration::from_nanos(1),
        }
    }

    /// How long a buffered write of `bytes` occupies the device.
    pub fn write_time(&self, bytes: usize) -> SimDuration {
        self.op_latency + self.write_per_kb * (bytes as u64).div_ceil(1024)
    }

    /// How long a sync of `pending_bytes` occupies the device.
    pub fn sync_time(&self, pending_bytes: usize) -> SimDuration {
        self.sync_latency + self.write_per_kb * (pending_bytes as u64).div_ceil(1024)
    }
}

/// A simulated disk device. Operations queue behind each other (single
/// spindle/channel); completions are delivered as events.
pub struct Disk {
    sim: Sim,
    cfg: DiskConfig,
    busy_until: Cell<u64>,
    writes: Cell<u64>,
    reads: Cell<u64>,
    syncs: Cell<u64>,
    bytes_written: Cell<u64>,
}

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Disk")
            .field("writes", &self.writes.get())
            .field("reads", &self.reads.get())
            .field("syncs", &self.syncs.get())
            .field("bytes_written", &self.bytes_written.get())
            .finish()
    }
}

impl Disk {
    /// Creates a disk on `sim` with the given latency profile.
    pub fn new(sim: &Sim, cfg: DiskConfig) -> Rc<Disk> {
        Rc::new(Disk {
            sim: sim.clone(),
            cfg,
            busy_until: Cell::new(0),
            writes: Cell::new(0),
            reads: Cell::new(0),
            syncs: Cell::new(0),
            bytes_written: Cell::new(0),
        })
    }

    fn occupy(&self, dur: SimDuration) -> SimTime {
        let start = self.busy_until.get().max(self.sim.now().nanos());
        let end = start + dur.nanos();
        self.busy_until.set(end);
        SimTime::from_nanos(end)
    }

    /// Buffered write of `bytes`; `done` runs when the write is accepted
    /// into the device cache (not yet durable — call [`Disk::sync`]).
    pub fn write(self: &Rc<Self>, bytes: usize, done: impl FnOnce() + 'static) {
        self.writes.set(self.writes.get() + 1);
        self.bytes_written
            .set(self.bytes_written.get() + bytes as u64);
        let end = self.occupy(self.cfg.write_time(bytes));
        self.sim.schedule_at(end, done);
    }

    /// Forces `pending_bytes` of previously written data to stable storage;
    /// `done` runs at the durability point.
    pub fn sync(self: &Rc<Self>, pending_bytes: usize, done: impl FnOnce() + 'static) {
        self.syncs.set(self.syncs.get() + 1);
        let end = self.occupy(self.cfg.sync_time(pending_bytes));
        self.sim.schedule_at(end, done);
    }

    /// Reads `bytes`; `done` runs when the data is available.
    pub fn read(self: &Rc<Self>, bytes: usize, done: impl FnOnce() + 'static) {
        self.reads.set(self.reads.get() + 1);
        let kb = (bytes as u64).div_ceil(1024);
        let end = self.occupy(self.cfg.op_latency + self.cfg.read_per_kb * kb);
        self.sim.schedule_at(end, done);
    }

    /// Number of completed-or-queued write operations.
    pub fn write_count(&self) -> u64 {
        self.writes.get()
    }

    /// Number of sync operations.
    pub fn sync_count(&self) -> u64 {
        self.syncs.get()
    }

    /// Number of read operations.
    pub fn read_count(&self) -> u64 {
        self.reads.get()
    }

    /// Total bytes submitted for writing.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn writes_complete_in_order_and_serialize() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskConfig::server_hdd());
        let log: Rc<RefCell<Vec<(u32, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let log = log.clone();
            let s = sim.clone();
            disk.write(4096, move || log.borrow_mut().push((i, s.now())));
        }
        sim.run_until(SimTime::from_secs(1));
        let log = log.borrow();
        assert_eq!(
            log.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Each write starts after the previous one finishes.
        assert!(log[1].1 > log[0].1);
        assert!(log[2].1 > log[1].1);
    }

    #[test]
    fn sync_costs_more_than_buffered_write() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskConfig::fast_log_device());
        let tw = Rc::new(Cell::new(SimTime::ZERO));
        let (t2, s2) = (tw.clone(), sim.clone());
        disk.write(1024, move || t2.set(s2.now()));
        sim.run_until(SimTime::from_secs(1));
        let write_lat = tw.get() - SimTime::ZERO;

        let ts = Rc::new(Cell::new(SimTime::ZERO));
        let (t3, s3) = (ts.clone(), sim.clone());
        let base = sim.now();
        disk.sync(1024, move || t3.set(s3.now()));
        sim.run_until(SimTime::from_secs(2));
        let sync_lat = ts.get() - base;
        assert!(
            sync_lat > write_lat * 10,
            "sync {sync_lat} vs write {write_lat}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let sim = Sim::new(1);
        let disk = Disk::new(&sim, DiskConfig::instant());
        disk.write(1000, || {});
        disk.write(500, || {});
        disk.sync(1500, || {});
        disk.read(100, || {});
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(disk.write_count(), 2);
        assert_eq!(disk.sync_count(), 1);
        assert_eq!(disk.read_count(), 1);
        assert_eq!(disk.bytes_written(), 1500);
    }
}

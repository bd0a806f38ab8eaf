//! The per-server write-ahead log, with synchronous and asynchronous
//! persistence modes, and WAL splitting for recovery.
//!
//! The paper's asynchronous-persistence design (§2.2) hinges on this
//! component: "upon receiving an update, the HBase server first appends it
//! to its (in-memory) write-ahead log buffer, then applies it to the
//! memstore, and then immediately returns to the client. Shortly
//! thereafter (i.e., asynchronously), we sync the write-ahead log buffer
//! to HDFS." A server crash loses whatever sat in the buffer — those are
//! precisely the write-sets the recovery manager replays from the
//! transaction manager's log.

use crate::codec::{decode_wal_batch, encode_wal_batch, WalRecord};
use crate::types::RegionId;
use cumulo_dfs::{DfsClient, DfsFile};
use cumulo_sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// When WAL appends become durable relative to the client's ack.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WalSyncMode {
    /// Every update is synced to the filesystem before the server
    /// acknowledges it (HBase's default; the paper's baseline).
    Sync,
    /// Updates are acknowledged from the in-memory buffer; a background
    /// task syncs the buffer shortly after (the paper's design, enabled by
    /// the transaction manager owning durability).
    Async,
}

struct WalInner {
    path: String,
    file: Option<DfsFile>,
    /// Records appended but not yet part of any DFS append.
    buffer: Vec<WalRecord>,
    buffer_bytes: usize,
    next_seq: u64,
    synced_seq: u64,
    sync_inflight: bool,
    /// Callbacks waiting for `synced_seq >= .0`.
    waiters: Vec<(u64, Box<dyn FnOnce()>)>,
    appends: u64,
    syncs: u64,
    synced_bytes: u64,
    failed: bool,
}

/// A region server's write-ahead log.
///
/// Appends are cheap in-memory buffer pushes returning a sequence number;
/// [`Wal::sync`] (or [`Wal::sync_upto`]) makes everything appended so far
/// durable in the DFS. Appends within one sync batch are encoded as a
/// single DFS record, which is the group-commit effect that makes
/// asynchronous mode cheap.
#[derive(Clone)]
pub struct Wal {
    sim: Sim,
    inner: Rc<RefCell<WalInner>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Wal")
            .field("path", &inner.path)
            .field("next_seq", &inner.next_seq)
            .field("synced_seq", &inner.synced_seq)
            .field("buffered", &inner.buffer.len())
            .finish()
    }
}

impl Wal {
    /// Creates the log, asynchronously creating its backing DFS file at
    /// `path`. Appends may begin immediately; they buffer until the file
    /// is ready.
    pub fn new(sim: &Sim, dfs: &DfsClient, path: impl Into<String>) -> Wal {
        let path = path.into();
        let wal = Wal {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(WalInner {
                path: path.clone(),
                file: None,
                buffer: Vec::new(),
                buffer_bytes: 0,
                next_seq: 1,
                synced_seq: 0,
                sync_inflight: false,
                waiters: Vec::new(),
                appends: 0,
                syncs: 0,
                synced_bytes: 0,
                failed: false,
            })),
        };
        let inner = Rc::clone(&wal.inner);
        let sim2 = sim.clone();
        dfs.create(&path, move |file| match file {
            Ok(file) => {
                inner.borrow_mut().file = Some(file);
                Wal { sim: sim2, inner }.maybe_start_sync();
            }
            Err(e) => {
                // Unrecoverable: no datanodes. Mark failed so syncs error
                // loudly in tests rather than hanging.
                inner.borrow_mut().failed = true;
                panic!("WAL file creation failed: {e}");
            }
        });
        wal
    }

    /// Appends a record to the in-memory buffer, returning its sequence
    /// number. Not durable until a sync covers the sequence.
    pub fn append(&self, record: WalRecord) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.appends += 1;
        inner.buffer_bytes += record.wire_size();
        inner.buffer.push(record);
        seq
    }

    /// Makes everything appended so far durable; `done` runs at the
    /// durability point.
    pub fn sync(&self, done: impl FnOnce() + 'static) {
        let upto = self.inner.borrow().next_seq - 1;
        self.sync_upto(upto, done);
    }

    /// Makes all records with sequence ≤ `seq` durable; `done` runs once
    /// `synced_seq >= seq`.
    pub fn sync_upto(&self, seq: u64, done: impl FnOnce() + 'static) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.synced_seq >= seq {
                drop(inner);
                self.sim.schedule_in(SimDuration::ZERO, done);
                return;
            }
            inner.waiters.push((seq, Box::new(done)));
        }
        self.maybe_start_sync();
    }

    /// Highest durable sequence number.
    pub fn synced_seq(&self) -> u64 {
        self.inner.borrow().synced_seq
    }

    /// Sequence number of the most recent append (0 if none yet).
    pub fn last_seq(&self) -> u64 {
        self.inner.borrow().next_seq - 1
    }

    /// Records buffered in memory, not yet durable.
    pub fn unsynced_len(&self) -> usize {
        self.inner.borrow().buffer.len()
    }

    /// Total appends accepted.
    pub fn append_count(&self) -> u64 {
        self.inner.borrow().appends
    }

    /// Total sync batches written to the filesystem.
    pub fn sync_count(&self) -> u64 {
        self.inner.borrow().syncs
    }

    /// Total bytes made durable.
    pub fn synced_bytes(&self) -> u64 {
        self.inner.borrow().synced_bytes
    }

    /// The DFS path of the log.
    pub fn path(&self) -> String {
        self.inner.borrow().path.clone()
    }

    fn maybe_start_sync(&self) {
        let (file, batch, batch_hi, bytes) = {
            let mut inner = self.inner.borrow_mut();
            if inner.sync_inflight || inner.buffer.is_empty() || inner.file.is_none() {
                return;
            }
            inner.sync_inflight = true;
            let batch = std::mem::take(&mut inner.buffer);
            let bytes = std::mem::replace(&mut inner.buffer_bytes, 0);
            let batch_hi = inner.next_seq - 1;
            (
                inner.file.clone().expect("checked above"),
                batch,
                batch_hi,
                bytes,
            )
        };
        let encoded = encode_wal_batch(&batch);
        let this = self.clone();
        file.append(encoded, move |result| match result {
            Ok(()) => {
                {
                    let mut inner = this.inner.borrow_mut();
                    inner.sync_inflight = false;
                    inner.synced_seq = inner.synced_seq.max(batch_hi);
                    inner.syncs += 1;
                    inner.synced_bytes += bytes as u64;
                }
                this.fire_waiters();
                this.maybe_start_sync();
            }
            Err(_) => {
                // All replicas down: requeue the batch at the front and
                // retry shortly; durability is not given up silently.
                {
                    let mut inner = this.inner.borrow_mut();
                    inner.sync_inflight = false;
                    inner.buffer_bytes += bytes;
                    let mut requeued = batch;
                    requeued.append(&mut inner.buffer);
                    inner.buffer = requeued;
                }
                let retry = this.clone();
                this.sim
                    .schedule_in(SimDuration::from_millis(100), move || {
                        retry.maybe_start_sync();
                    });
            }
        });
    }

    fn fire_waiters(&self) {
        let ready: Vec<Box<dyn FnOnce()>> = {
            let mut inner = self.inner.borrow_mut();
            let synced = inner.synced_seq;
            let mut ready = Vec::new();
            let mut keep = Vec::new();
            for (seq, cb) in inner.waiters.drain(..) {
                if seq <= synced {
                    ready.push(cb);
                } else {
                    keep.push((seq, cb));
                }
            }
            inner.waiters = keep;
            ready
        };
        for cb in ready {
            cb();
        }
    }
}

/// What [`split_wal`] read out of a failed server's WAL.
#[derive(Debug, Default)]
pub struct WalSplit {
    /// The log's records grouped by the region they were written for, in
    /// log order within each group.
    pub groups: HashMap<RegionId, Vec<WalRecord>>,
    /// Numbers of the batches that did not decode although a later batch
    /// follows them. A crash can tear only the append it interrupts, so
    /// these were acknowledged as durable and are gone: the caller must
    /// say so loudly, never skip them silently.
    pub corrupt_batches: Vec<usize>,
}

/// Reads a failed server's WAL from the filesystem and groups its records
/// by region — the first step of HBase's recovery procedure (§2.1).
///
/// A *final* batch that does not decode is a torn append (the crash hit
/// mid-write, nothing in it was ever acknowledged as durable) and is
/// dropped; an undecodable batch anywhere else is reported in
/// [`WalSplit::corrupt_batches`]. `done` receives an empty split if the
/// WAL file does not exist (the server never synced anything).
pub fn split_wal(dfs: &DfsClient, wal_path: &str, done: impl FnOnce(WalSplit) + 'static) {
    dfs.read(wal_path, move |data| {
        let mut split = WalSplit::default();
        let batches = data.unwrap_or_default();
        for (n, batch) in batches.iter().enumerate() {
            match decode_wal_batch(batch) {
                Ok(records) => {
                    for r in records {
                        split.groups.entry(r.region).or_default().push(r);
                    }
                }
                Err(_) if n + 1 == batches.len() => {}
                Err(_) => split.corrupt_batches.push(n),
            }
        }
        done(split);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Mutation, Timestamp};
    use cumulo_dfs::{DataNode, NameNode, NameNodeConfig};
    use cumulo_sim::{DiskConfig, LatencyConfig, Network, NodeId, SimTime};
    use std::cell::Cell;

    fn setup() -> (Sim, Rc<Network>, DfsClient, NodeId) {
        let sim = Sim::new(5);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let dns: Vec<Rc<DataNode>> = (0..2)
            .map(|i| {
                DataNode::new(
                    &sim,
                    net.add_node(&format!("dn{i}")),
                    DiskConfig::server_hdd(),
                )
            })
            .collect();
        let nn = NameNode::new(
            &sim,
            &net,
            net.add_node("nn"),
            dns,
            NameNodeConfig::default(),
        );
        let server = net.add_node("rs");
        let dfs = DfsClient::new(&sim, &net, &nn, server);
        (sim, net, dfs, server)
    }

    /// Splits the log at `path` through `dfs`, running the simulation
    /// until the split is delivered.
    fn split(sim: &Sim, dfs: &DfsClient, path: &str) -> WalSplit {
        let got: Rc<RefCell<Option<WalSplit>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        split_wal(dfs, path, move |s| *g.borrow_mut() = Some(s));
        sim.run_for(SimDuration::from_secs(1));
        let split = got.borrow_mut().take();
        split.expect("split delivered")
    }

    fn rec(region: u32, ts: u64) -> WalRecord {
        WalRecord {
            region: RegionId(region),
            ts: Timestamp(ts),
            mutations: vec![Mutation::put(format!("row{ts}"), "c", format!("v{ts}"))],
        }
    }

    #[test]
    fn sync_makes_appends_durable_in_order() {
        let (sim, _net, dfs, _) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        for i in 1..=5 {
            let seq = wal.append(rec(0, i));
            assert_eq!(seq, i);
        }
        let synced = Rc::new(Cell::new(false));
        let s2 = synced.clone();
        wal.sync(move || s2.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(synced.get());
        assert_eq!(wal.synced_seq(), 5);
        assert_eq!(wal.unsynced_len(), 0);
        assert!(wal.sync_count() >= 1);
        assert!(wal.synced_bytes() > 0);

        // Verify the records round-trip through split_wal.
        let grouped = split(&sim, &dfs, "/wal/rs0").groups;
        assert_eq!(grouped[&RegionId(0)].len(), 5);
        assert_eq!(grouped[&RegionId(0)][0].ts, Timestamp(1));
        assert_eq!(grouped[&RegionId(0)][4].ts, Timestamp(5));
    }

    #[test]
    fn sync_upto_only_waits_for_prefix() {
        let (sim, _net, dfs, _) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        let s1 = wal.append(rec(0, 1));
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        wal.sync_upto(s1, move || f.set(true));
        sim.run_until(SimTime::from_secs(1));
        assert!(fired.get());
        // Subsequent appends are not yet durable.
        wal.append(rec(0, 2));
        assert_eq!(wal.synced_seq(), 1);
        assert_eq!(wal.unsynced_len(), 1);
    }

    #[test]
    fn already_synced_callback_fires_immediately() {
        let (sim, _net, dfs, _) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        wal.sync_upto(0, move || f.set(true)); // nothing appended yet
        sim.run_until(SimTime::from_millis(1));
        assert!(fired.get());
    }

    #[test]
    fn group_commit_batches_appends() {
        let (sim, _net, dfs, _) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        sim.run_until(SimTime::from_millis(100)); // let the file open
        for i in 1..=100 {
            wal.append(rec(0, i));
        }
        wal.sync(|| {});
        sim.run_until(SimTime::from_secs(2));
        // 100 records, but at most a couple of DFS appends (one batch was
        // cut when the first sync started, the rest ride the next batch).
        assert!(
            wal.sync_count() <= 3,
            "expected batched syncs, got {}",
            wal.sync_count()
        );
        assert_eq!(wal.synced_seq(), 100);
    }

    #[test]
    fn unsynced_buffer_is_lost_but_synced_part_survives() {
        let (sim, net, dfs, server) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        wal.append(rec(0, 1));
        wal.append(rec(0, 2));
        wal.sync(|| {});
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(wal.synced_seq(), 2);
        // Two more appends that never sync before the server dies.
        wal.append(rec(0, 3));
        wal.append(rec(0, 4));
        net.crash(server);
        // Recovery reads what the filesystem has.
        let reader = DfsClient::new(&sim, &net, dfs.namenode(), net.add_node("master"));
        let grouped = split(&sim, &reader, "/wal/rs0").groups;
        assert_eq!(
            grouped[&RegionId(0)].len(),
            2,
            "only the synced prefix survives"
        );
    }

    #[test]
    fn split_groups_by_region() {
        let (sim, _net, dfs, _) = setup();
        let wal = Wal::new(&sim, &dfs, "/wal/rs0");
        wal.append(rec(0, 1));
        wal.append(rec(1, 2));
        wal.append(rec(0, 3));
        wal.append(rec(2, 4));
        wal.sync(|| {});
        sim.run_until(SimTime::from_secs(1));
        let grouped = split(&sim, &dfs, "/wal/rs0").groups;
        assert_eq!(grouped.len(), 3);
        assert_eq!(grouped[&RegionId(0)].len(), 2);
        assert_eq!(grouped[&RegionId(1)].len(), 1);
        assert_eq!(grouped[&RegionId(2)].len(), 1);
    }

    #[test]
    fn split_missing_wal_returns_empty() {
        let (sim, _net, dfs, _) = setup();
        let split = split(&sim, &dfs, "/wal/ghost");
        assert!(split.groups.is_empty() && split.corrupt_batches.is_empty());
    }

    /// Writes `batches` as one DFS record each — what a WAL's syncs leave.
    fn write_log(sim: &Sim, dfs: &DfsClient, path: &str, batches: Vec<bytes::Bytes>) {
        fn append_all(file: DfsFile, mut batches: std::vec::IntoIter<bytes::Bytes>) {
            let Some(batch) = batches.next() else { return };
            let next = file.clone();
            file.append(batch, move |r| {
                r.expect("append");
                append_all(next, batches);
            });
        }
        let batches = batches.into_iter();
        dfs.create(path, move |file| append_all(file.expect("create"), batches));
        sim.run_for(SimDuration::from_secs(1));
    }

    #[test]
    fn split_drops_a_torn_final_batch_silently() {
        let (sim, _net, dfs, _) = setup();
        let whole = encode_wal_batch(&[rec(0, 1), rec(1, 2)]);
        let torn = encode_wal_batch(&[rec(0, 3)]);
        let torn = torn.slice(..torn.len() - 3);
        write_log(&sim, &dfs, "/wal/torn", vec![whole, torn]);
        let split = split(&sim, &dfs, "/wal/torn");
        assert_eq!(
            split.groups[&RegionId(0)].len(),
            1,
            "the whole batch survives"
        );
        assert_eq!(split.groups[&RegionId(1)].len(), 1);
        assert!(
            split.corrupt_batches.is_empty(),
            "a torn tail was never acknowledged: not corruption"
        );
    }

    #[test]
    fn split_reports_an_undecodable_batch_before_the_tail() {
        let (sim, _net, dfs, _) = setup();
        let first = encode_wal_batch(&[rec(0, 1)]);
        let damaged = encode_wal_batch(&[rec(0, 2)]);
        let damaged = damaged.slice(..damaged.len() - 3);
        let last = encode_wal_batch(&[rec(0, 3)]);
        write_log(&sim, &dfs, "/wal/damaged", vec![first, damaged, last]);
        let split = split(&sim, &dfs, "/wal/damaged");
        let kept: Vec<Timestamp> = split.groups[&RegionId(0)].iter().map(|r| r.ts).collect();
        assert_eq!(
            kept,
            vec![Timestamp(1), Timestamp(3)],
            "the rest is recovered"
        );
        assert_eq!(
            split.corrupt_batches,
            vec![1],
            "acknowledged data is missing: the split must say which batch"
        );
    }
}

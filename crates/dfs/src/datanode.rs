//! Datanode: stores file replicas, charges disk latency for appends/reads.

use bytes::Bytes;
use cumulo_sim::{Disk, DiskConfig, NodeId, Sim};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// One datanode process. Owns a [`Disk`] and an in-memory replica map.
///
/// An append is acknowledged after the datanode's buffered disk write
/// completes (HDFS `hflush` semantics: data is in the datanode, not
/// necessarily fsynced). Crash-stop failure is modelled by the network
/// dropping traffic to the node; the replica map is *kept* so a restarted
/// datanode (same machine, surviving disk) serves its old data.
pub struct DataNode {
    node: NodeId,
    disk: Rc<Disk>,
    files: RefCell<HashMap<String, Vec<Bytes>>>,
    appends: Cell<u64>,
    bytes_stored: Cell<u64>,
}

impl fmt::Debug for DataNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataNode")
            .field("node", &self.node)
            .field("files", &self.files.borrow().len())
            .field("appends", &self.appends.get())
            .field("bytes_stored", &self.bytes_stored.get())
            .finish()
    }
}

impl DataNode {
    /// Creates a datanode on `node` with the given disk profile.
    pub fn new(sim: &Sim, node: NodeId, disk_cfg: DiskConfig) -> Rc<DataNode> {
        Rc::new(DataNode {
            node,
            disk: Disk::new(sim, disk_cfg),
            files: RefCell::new(HashMap::new()),
            appends: Cell::new(0),
            bytes_stored: Cell::new(0),
        })
    }

    /// The machine this datanode runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Ensures an (empty) replica exists for `path`.
    pub fn create_replica(&self, path: &str) {
        self.files.borrow_mut().entry(path.to_owned()).or_default();
    }

    /// Appends a record to the local replica; `done` runs after the
    /// buffered disk write completes (the datanode-side ack point).
    pub fn append(self: &Rc<Self>, path: &str, record: Bytes, done: impl FnOnce() + 'static) {
        self.appends.set(self.appends.get() + 1);
        self.bytes_stored
            .set(self.bytes_stored.get() + record.len() as u64);
        let len = record.len();
        self.files
            .borrow_mut()
            .entry(path.to_owned())
            .or_default()
            .push(record);
        self.disk.write(len, done);
    }

    /// Number of records in the local replica (0 if absent).
    pub fn record_count(&self, path: &str) -> usize {
        self.files.borrow().get(path).map(Vec::len).unwrap_or(0)
    }

    /// Whether a replica of `path` exists locally.
    pub fn has_replica(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// Reads the full local replica; `done` runs after disk read latency
    /// with `None` if the replica is absent.
    pub fn read(self: &Rc<Self>, path: &str, done: impl FnOnce(Option<Vec<Bytes>>) + 'static) {
        let data = self.files.borrow().get(path).cloned();
        let size: usize = data
            .as_ref()
            .map(|d| d.iter().map(Bytes::len).sum())
            .unwrap_or(0);
        self.disk.read(size.max(1), move || done(data));
    }

    /// Installs a complete replica (used by re-replication).
    pub fn install_replica(&self, path: &str, records: Vec<Bytes>) {
        let bytes: u64 = records.iter().map(|r| r.len() as u64).sum();
        self.bytes_stored.set(self.bytes_stored.get() + bytes);
        self.files.borrow_mut().insert(path.to_owned(), records);
    }

    /// Drops the local replica of `path`.
    pub fn delete_replica(&self, path: &str) {
        self.files.borrow_mut().remove(path);
    }

    /// Re-keys the local replica of `from` to `to` (a metadata-only move,
    /// like an HDFS rename: no data is copied). No-op if `from` is absent.
    pub fn rename_replica(&self, from: &str, to: &str) {
        let mut files = self.files.borrow_mut();
        if let Some(records) = files.remove(from) {
            files.insert(to.to_owned(), records);
        }
    }

    /// Total bytes ever stored (appends + installed replicas).
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_sim::{LatencyConfig, Network, SimTime};

    #[test]
    fn append_then_read_roundtrip() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, LatencyConfig::instant());
        let n = net.add_node("dn");
        let dn = DataNode::new(&sim, n, DiskConfig::instant());
        dn.create_replica("/f");
        dn.append("/f", Bytes::from_static(b"one"), || {});
        dn.append("/f", Bytes::from_static(b"two"), || {});
        let got: Rc<RefCell<Option<Vec<Bytes>>>> = Rc::new(RefCell::new(None));
        let g = got.clone();
        dn.read("/f", move |d| *g.borrow_mut() = d);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            got.borrow().as_deref(),
            Some(&[Bytes::from_static(b"one"), Bytes::from_static(b"two")][..])
        );
        assert_eq!(dn.record_count("/f"), 2);
        assert_eq!(dn.bytes_stored(), 6);
    }

    #[test]
    fn read_missing_returns_none() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, LatencyConfig::instant());
        let n = net.add_node("dn");
        let dn = DataNode::new(&sim, n, DiskConfig::instant());
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        dn.read("/nope", move |d| g.set(d.is_none()));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get());
    }

    #[test]
    fn install_replica_replaces() {
        let sim = Sim::new(1);
        let net = Network::new(&sim, LatencyConfig::instant());
        let n = net.add_node("dn");
        let dn = DataNode::new(&sim, n, DiskConfig::instant());
        dn.install_replica("/f", vec![Bytes::from_static(b"x")]);
        assert_eq!(dn.record_count("/f"), 1);
        assert!(dn.has_replica("/f"));
        dn.delete_replica("/f");
        assert!(!dn.has_replica("/f"));
    }
}

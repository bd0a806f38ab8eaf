//! Namenode: file metadata, replica placement, re-replication sweep.

use crate::datanode::DataNode;
use crate::error::DfsError;
use cumulo_sim::{Exchange, Network, NodeId, SimDuration};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::{Rc, Weak};

/// Namenode tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct NameNodeConfig {
    /// Desired number of replicas per file (the paper's testbed used 2).
    pub replication: usize,
    /// How often the sweep looks for under-replicated files.
    pub rereplicate_interval: SimDuration,
}

impl Default for NameNodeConfig {
    fn default() -> Self {
        NameNodeConfig {
            replication: 2,
            rereplicate_interval: SimDuration::from_secs(3),
        }
    }
}

struct FileMeta {
    replicas: Vec<usize>,
    rereplicating: bool,
}

/// The metadata server of the filesystem. Shared via `Rc`.
pub struct NameNode {
    net: Rc<Network>,
    node: NodeId,
    delete_replica: Exchange,
    rename_replica: Exchange,
    /// The re-replication copy: the namenode asks the source to send,
    /// the source sends the records on (or reports the file gone), and
    /// the destination reports the copy installed.
    copy: Exchange,
    copy_failed: Exchange,
    install_replica: Exchange,
    copy_done: Exchange,
    cfg: NameNodeConfig,
    datanodes: Vec<Rc<DataNode>>,
    files: RefCell<BTreeMap<String, FileMeta>>,
    self_weak: Weak<NameNode>,
}

impl fmt::Debug for NameNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NameNode")
            .field("node", &self.node)
            .field("datanodes", &self.datanodes.len())
            .field("files", &self.files.borrow().len())
            .finish()
    }
}

impl NameNode {
    /// Creates the namenode on `node` managing the given datanodes, and
    /// starts the re-replication sweep.
    ///
    /// # Panics
    ///
    /// Panics if `datanodes` is empty or smaller than the replication
    /// factor.
    pub fn new(
        net: &Rc<Network>,
        node: NodeId,
        datanodes: Vec<Rc<DataNode>>,
        cfg: NameNodeConfig,
    ) -> Rc<NameNode> {
        assert!(
            !datanodes.is_empty(),
            "a filesystem needs at least one datanode"
        );
        assert!(
            datanodes.len() >= cfg.replication,
            "replication factor {} exceeds datanode count {}",
            cfg.replication,
            datanodes.len()
        );
        let nn = Rc::new_cyclic(|self_weak| NameNode {
            net: Rc::clone(net),
            node,
            delete_replica: net.exchange("datanode.delete_replica"),
            rename_replica: net.exchange("datanode.rename_replica"),
            copy: net.exchange("datanode.copy"),
            copy_failed: net.exchange("namenode.copy_failed"),
            install_replica: net.exchange("datanode.install_replica"),
            copy_done: net.exchange("namenode.copy_done"),
            cfg,
            datanodes,
            files: RefCell::new(BTreeMap::new()),
            self_weak: self_weak.clone(),
        });
        let weak = Rc::downgrade(&nn);
        let interval = cfg.rereplicate_interval;
        net.every(node, interval, interval, move || {
            if let Some(nn) = weak.upgrade() {
                nn.rereplication_sweep();
            }
        });
        nn
    }

    /// The node the namenode runs on (RPC destination).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Resolves a datanode handle by its index in the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn datanode(&self, idx: usize) -> Rc<DataNode> {
        Rc::clone(&self.datanodes[idx])
    }

    /// Number of registered datanodes.
    pub fn datanode_count(&self) -> usize {
        self.datanodes.len()
    }

    /// Creates a file, choosing the least-loaded live datanodes as
    /// replicas.
    ///
    /// # Errors
    ///
    /// [`DfsError::AlreadyExists`] if the path is taken.
    pub fn create_file(&self, path: &str) -> crate::Result<Vec<usize>> {
        let mut files = self.files.borrow_mut();
        if files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_owned()));
        }
        let replicas = self.place_replicas(&files);
        for &idx in &replicas {
            self.datanodes[idx].create_replica(path);
        }
        files.insert(
            path.to_owned(),
            FileMeta {
                replicas: replicas.clone(),
                rereplicating: false,
            },
        );
        Ok(replicas)
    }

    fn place_replicas(&self, files: &BTreeMap<String, FileMeta>) -> Vec<usize> {
        // Least-loaded live datanodes, index order breaking ties.
        let mut load = vec![0usize; self.datanodes.len()];
        for meta in files.values() {
            for &r in &meta.replicas {
                load[r] += 1;
            }
        }
        let mut candidates: Vec<usize> = (0..self.datanodes.len())
            .filter(|&i| self.net.is_alive(self.datanodes[i].node()))
            .collect();
        candidates.sort_by_key(|&i| (load[i], i));
        candidates.truncate(self.cfg.replication);
        candidates
    }

    /// All replica indices of a file, regardless of liveness.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the file does not exist.
    pub fn replicas(&self, path: &str) -> crate::Result<Vec<usize>> {
        self.files
            .borrow()
            .get(path)
            .map(|m| m.replicas.clone())
            .ok_or_else(|| DfsError::NotFound(path.to_owned()))
    }

    /// Replica indices whose datanode is currently alive.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the file does not exist.
    pub fn live_replicas(&self, path: &str) -> crate::Result<Vec<usize>> {
        let all = self.replicas(path)?;
        Ok(all
            .into_iter()
            .filter(|&i| self.net.is_alive(self.datanodes[i].node()))
            .collect())
    }

    /// Whether the file exists and the datanode of at least one of its
    /// replicas is alive — what a reader asks before serving the file's
    /// bytes; allocates nothing, unlike [`NameNode::live_replicas`].
    pub fn has_live_replica(&self, path: &str) -> bool {
        self.files.borrow().get(path).is_some_and(|m| {
            m.replicas
                .iter()
                .any(|&i| self.net.is_alive(self.datanodes[i].node()))
        })
    }

    /// Whether the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// All paths starting with `prefix`, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .borrow()
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Removes the file's metadata and asks replicas to drop their data.
    /// Returns whether the file existed (deleting a missing file is a
    /// no-op, not an error).
    pub fn delete_file(&self, path: &str) -> bool {
        let meta = self.files.borrow_mut().remove(path);
        match meta {
            Some(meta) => {
                for idx in meta.replicas {
                    let dn = Rc::clone(&self.datanodes[idx]);
                    let path = path.to_owned();
                    let ex = &self.delete_replica;
                    self.net.send(ex, self.node, dn.node(), 64, move || {
                        dn.delete_replica(&path)
                    });
                }
                true
            }
            None => false,
        }
    }

    /// Atomically renames `from` to `to` in the namespace (the HDFS-style
    /// metadata rename compaction relies on to promote a finished file
    /// from its temporary name). Replica datanodes re-key their local
    /// data via (asynchronous) messages; reads route through the
    /// namespace entry, which switches atomically here.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if `from` does not exist,
    /// [`DfsError::AlreadyExists`] if `to` does.
    pub fn rename_file(&self, from: &str, to: &str) -> crate::Result<()> {
        let mut files = self.files.borrow_mut();
        if files.contains_key(to) {
            return Err(DfsError::AlreadyExists(to.to_owned()));
        }
        let Some(meta) = files.remove(from) else {
            return Err(DfsError::NotFound(from.to_owned()));
        };
        for &idx in &meta.replicas {
            let dn = Rc::clone(&self.datanodes[idx]);
            let (from, to) = (from.to_owned(), to.to_owned());
            let ex = &self.rename_replica;
            self.net.send(ex, self.node, dn.node(), 64, move || {
                dn.rename_replica(&from, &to)
            });
        }
        files.insert(to.to_owned(), meta);
        Ok(())
    }

    /// One pass of the re-replication sweep: for each under-replicated
    /// file, copy from a live replica to a fresh live datanode.
    pub fn rereplication_sweep(&self) {
        let work: Vec<(String, usize, usize)> = {
            let mut files = self.files.borrow_mut();
            let mut load = vec![0usize; self.datanodes.len()];
            for meta in files.values() {
                for &r in &meta.replicas {
                    load[r] += 1;
                }
            }
            let mut out = Vec::new();
            for (path, meta) in files.iter_mut() {
                if meta.rereplicating {
                    continue;
                }
                let live: Vec<usize> = meta
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&i| self.net.is_alive(self.datanodes[i].node()))
                    .collect();
                if live.is_empty() || live.len() >= self.cfg.replication {
                    continue;
                }
                let current: BTreeSet<usize> = meta.replicas.iter().copied().collect();
                let target = (0..self.datanodes.len())
                    .filter(|&i| {
                        !current.contains(&i) && self.net.is_alive(self.datanodes[i].node())
                    })
                    .min_by_key(|&i| (load[i], i));
                if let Some(target) = target {
                    meta.rereplicating = true;
                    out.push((path.clone(), live[0], target));
                }
            }
            out
        };
        for (path, src, dst) in work {
            self.copy_replica(path, src, dst);
        }
    }

    fn copy_replica(&self, path: String, src: usize, dst: usize) {
        let src_dn = Rc::clone(&self.datanodes[src]);
        let dst_dn = Rc::clone(&self.datanodes[dst]);
        let net = Rc::clone(&self.net);
        let nn_node = self.node;
        let weak_nn = self.self_weak.clone();
        let (failed, install) = (self.copy_failed.clone(), self.install_replica.clone());
        let copied = self.copy_done.clone();
        // Read at the source, stream to the destination, then update
        // metadata back at the namenode.
        let (ex, src_node) = (&self.copy, src_dn.node());
        self.net.send(ex, self.node, src_node, 64, move || {
            let net2 = Rc::clone(&net);
            let path2 = path.clone();
            src_dn.read(&path, move |data| {
                let Some(records) = data else {
                    // The source replica vanished under us (e.g. the file
                    // was deleted or renamed mid-copy). Clear the
                    // in-progress flag so a later sweep can retry;
                    // leaving it set would wedge re-replication of this
                    // path forever.
                    net2.send(&failed, src_node, nn_node, 64, move || {
                        if let Some(nn) = weak_nn.upgrade() {
                            if let Some(meta) = nn.files.borrow_mut().get_mut(&path2) {
                                meta.rereplicating = false;
                            }
                        }
                    });
                    return;
                };
                let size: usize = records.iter().map(bytes::Bytes::len).sum();
                let dst_node = dst_dn.node();
                let path3 = path2.clone();
                let net3 = Rc::clone(&net2);
                net2.send(&install, src_node, dst_node, size + 64, move || {
                    dst_dn.install_replica(&path3, records);
                    net3.send(&copied, dst_node, nn_node, 64, move || {
                        if let Some(nn) = weak_nn.upgrade() {
                            nn.finish_rereplication(&path3, dst);
                        }
                    });
                });
            });
        });
    }

    fn finish_rereplication(&self, path: &str, dst: usize) {
        let mut files = self.files.borrow_mut();
        if let Some(meta) = files.get_mut(path) {
            if !meta.replicas.contains(&dst) {
                meta.replicas.push(dst);
            }
            meta.rereplicating = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulo_sim::{DiskConfig, LatencyConfig, Sim, SimTime};

    fn cluster(n_dn: usize, repl: usize) -> (Sim, Rc<Network>, Rc<NameNode>) {
        let sim = Sim::new(11);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let dns: Vec<Rc<DataNode>> = (0..n_dn)
            .map(|i| {
                let node = net.add_node(&format!("dn{i}"));
                DataNode::new(&sim, node, DiskConfig::server_hdd())
            })
            .collect();
        let nn_node = net.add_node("namenode");
        let cfg = NameNodeConfig {
            replication: repl,
            rereplicate_interval: SimDuration::from_millis(500),
        };
        let nn = NameNode::new(&net, nn_node, dns, cfg);
        (sim, net, nn)
    }

    #[test]
    fn create_places_on_least_loaded() {
        let (_sim, _net, nn) = cluster(4, 2);
        let r1 = nn.create_file("/a").unwrap();
        let r2 = nn.create_file("/b").unwrap();
        assert_eq!(r1.len(), 2);
        assert_eq!(r2.len(), 2);
        // Four datanodes, two files, two replicas each: all four used once.
        let mut all: Vec<usize> = r1.into_iter().chain(r2).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_create_rejected() {
        let (_sim, _net, nn) = cluster(2, 2);
        nn.create_file("/a").unwrap();
        assert_eq!(
            nn.create_file("/a"),
            Err(DfsError::AlreadyExists("/a".into()))
        );
    }

    #[test]
    fn live_replicas_filters_dead_nodes() {
        let (_sim, net, nn) = cluster(2, 2);
        let replicas = nn.create_file("/a").unwrap();
        net.crash(nn.datanode(replicas[0]).node());
        assert!(nn.has_live_replica("/a"));
        assert!(!nn.has_live_replica("/nope"));
        let live = nn.live_replicas("/a").unwrap();
        assert_eq!(live, vec![replicas[1]]);
        assert_eq!(
            nn.live_replicas("/nope"),
            Err(DfsError::NotFound("/nope".into()))
        );
        net.crash(nn.datanode(replicas[1]).node());
        assert!(!nn.has_live_replica("/a"));
    }

    #[test]
    fn list_and_exists_and_delete() {
        let (sim, _net, nn) = cluster(2, 2);
        nn.create_file("/wal/s1/0").unwrap();
        nn.create_file("/wal/s2/0").unwrap();
        nn.create_file("/store/r1/0").unwrap();
        assert_eq!(nn.list("/wal/"), vec!["/wal/s1/0", "/wal/s2/0"]);
        assert!(nn.exists("/wal/s1/0"));
        nn.delete_file("/wal/s1/0");
        assert!(!nn.exists("/wal/s1/0"));
        sim.run_until(SimTime::from_secs(1));
        // Replica dropped at the datanodes too.
        for i in 0..nn.datanode_count() {
            assert!(!nn.datanode(i).has_replica("/wal/s1/0"));
        }
    }

    #[test]
    fn rereplication_restores_factor() {
        let (sim, net, nn) = cluster(3, 2);
        let replicas = nn.create_file("/a").unwrap();
        // Seed some data on the replicas.
        for &idx in &replicas {
            nn.datanode(idx)
                .install_replica("/a", vec![bytes::Bytes::from_static(b"data")]);
        }
        let spare: usize = (0..3).find(|i| !replicas.contains(i)).unwrap();
        net.crash(nn.datanode(replicas[0]).node());
        sim.run_until(SimTime::from_secs(5));
        let now = nn.replicas("/a").unwrap();
        assert!(
            now.contains(&spare),
            "spare {spare} should hold a replica, have {now:?}"
        );
        assert_eq!(nn.datanode(spare).record_count("/a"), 1);
        let live = nn.live_replicas("/a").unwrap();
        assert_eq!(live.len(), 2);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn replication_larger_than_cluster_panics() {
        let _ = cluster(1, 2);
    }
}

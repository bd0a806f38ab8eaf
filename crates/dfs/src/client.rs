//! Client-side filesystem API: create/open files, serialized appends with
//! replica-failure handling, longest-replica reads.

use crate::datanode::DataNode;
use crate::error::DfsError;
use crate::namenode::NameNode;
use bytes::Bytes;
use cumulo_sim::{Network, NodeId, Reply, Sim, SimDuration};
use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Base wait for replica acks before consulting the namenode about dead
/// replicas; large appends get a size-proportional allowance on top.
const APPEND_TIMEOUT_BASE: SimDuration = SimDuration::from_millis(60);

/// Extra ack-wait allowance per payload byte (covers transfer time with
/// ample margin over the worst-case link model).
fn append_timeout(bytes: usize) -> SimDuration {
    APPEND_TIMEOUT_BASE + SimDuration::from_nanos(bytes as u64 * 300)
}
/// How many times a read retries end-to-end before reporting unavailable.
const READ_RETRIES: u32 = 3;

struct ClientInner {
    sim: Sim,
    net: Rc<Network>,
    nn: Rc<NameNode>,
    from: NodeId,
}

/// A component's handle to the filesystem.
///
/// Cheap to clone; clones share the caller's node identity.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use cumulo_dfs::{DataNode, DfsClient, NameNode, NameNodeConfig};
/// use cumulo_sim::{DiskConfig, LatencyConfig, Network, Sim, SimTime};
/// use std::{cell::RefCell, rc::Rc};
///
/// let sim = Sim::new(1);
/// let net = Network::new(&sim, LatencyConfig::lan_100mbps());
/// let dns = (0..2)
///     .map(|i| DataNode::new(&sim, net.add_node(&format!("dn{i}")), DiskConfig::server_hdd()))
///     .collect();
/// let nn = NameNode::new(&sim, &net, net.add_node("nn"), dns, NameNodeConfig::default());
/// let me = net.add_node("app");
/// let dfs = DfsClient::new(&sim, &net, &nn, me);
///
/// let out: Rc<RefCell<Vec<Bytes>>> = Rc::new(RefCell::new(Vec::new()));
/// let out2 = out.clone();
/// let dfs2 = dfs.clone();
/// dfs.create("/f", move |file| {
///     let file = file.expect("create");
///     file.append(Bytes::from_static(b"rec"), move |r| {
///         r.expect("append");
///         dfs2.read("/f", move |data| *out2.borrow_mut() = data.expect("read"));
///     });
/// });
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(&*out.borrow(), &[Bytes::from_static(b"rec")]);
/// ```
#[derive(Clone)]
pub struct DfsClient {
    inner: Rc<ClientInner>,
}

impl fmt::Debug for DfsClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DfsClient")
            .field("from", &self.inner.from)
            .finish()
    }
}

struct PendingAppend {
    record: Bytes,
    done: Box<dyn FnOnce(crate::Result<()>)>,
}

struct FileState {
    path: String,
    replicas: Vec<usize>,
    queue: VecDeque<PendingAppend>,
    in_flight: bool,
}

/// An open file handle supporting serialized appends.
///
/// Appends submitted on one handle complete in submission order (the WAL
/// contract). The handle caches the replica set; dead replicas are pruned
/// via the namenode when an append times out.
#[derive(Clone)]
pub struct DfsFile {
    client: Rc<ClientInner>,
    state: Rc<RefCell<FileState>>,
}

impl fmt::Debug for DfsFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("DfsFile")
            .field("path", &st.path)
            .field("replicas", &st.replicas)
            .field("queued", &st.queue.len())
            .finish()
    }
}

impl DfsClient {
    /// Creates a filesystem handle for the component on node `from`.
    pub fn new(sim: &Sim, net: &Rc<Network>, nn: &Rc<NameNode>, from: NodeId) -> DfsClient {
        DfsClient {
            inner: Rc::new(ClientInner {
                sim: sim.clone(),
                net: Rc::clone(net),
                nn: Rc::clone(nn),
                from,
            }),
        }
    }

    /// Creates a new file; `done` receives an appendable handle.
    pub fn create(&self, path: &str, done: impl FnOnce(crate::Result<DfsFile>) + 'static) {
        self.open_with(path, NameNode::create_file, done);
    }

    /// Writes a whole file: creates `path` and appends `bytes` as its one
    /// record; `done` receives the outcome once the record is durable or
    /// either step failed. The same two exchanges as a
    /// [`DfsClient::create`] followed by one [`DfsFile::append`]. After a
    /// failed append the empty file is left behind — a caller that
    /// retries does so under a new name, or deletes it first.
    pub fn write_file(
        &self,
        path: &str,
        bytes: Bytes,
        done: impl FnOnce(crate::Result<()>) + 'static,
    ) {
        self.create(path, move |file| match file {
            Ok(file) => file.append(bytes, done),
            Err(e) => done(Err(e)),
        });
    }

    /// Opens an existing file for appending; `done` receives the handle.
    pub fn open_append(&self, path: &str, done: impl FnOnce(crate::Result<DfsFile>) + 'static) {
        self.open_with(path, NameNode::replicas, done);
    }

    /// One namenode round trip that yields `path`'s replica set, wrapped
    /// into an appendable handle at the caller.
    fn open_with(
        &self,
        path: &str,
        replicas_of: impl FnOnce(&NameNode, &str) -> crate::Result<Vec<usize>> + 'static,
        done: impl FnOnce(crate::Result<DfsFile>) + 'static,
    ) {
        let inner = Rc::clone(&self.inner);
        let nn = Rc::clone(&inner.nn);
        let path = path.to_owned();
        let request_bytes = 64 + path.len();
        let serve = move |reply: Reply<_, _>| {
            let replicas = replicas_of(&nn, &path);
            reply.send(64, (path, replicas));
        };
        let (from, to) = (inner.from, inner.nn.node());
        let wrap = move |(path, replicas): (String, crate::Result<Vec<usize>>)| {
            done(replicas.map(|r| DfsFile::new(inner, path, r)))
        };
        self.inner.net.request(from, to, request_bytes, serve, wrap);
    }

    /// Reads the whole file (all records, in append order) from the
    /// longest live replica; `done` receives the records.
    pub fn read(&self, path: &str, done: impl FnOnce(crate::Result<Vec<Bytes>>) + 'static) {
        read_attempt(
            Rc::clone(&self.inner),
            path.to_owned(),
            READ_RETRIES,
            Box::new(done),
        );
    }

    /// Lists paths with the given prefix; `done` receives them in order.
    pub fn list(&self, prefix: &str, done: impl FnOnce(Vec<String>) + 'static) {
        let inner = &self.inner;
        let nn = Rc::clone(&inner.nn);
        let prefix = prefix.to_owned();
        let serve = move |reply: Reply<_, _>| {
            let names = nn.list(&prefix);
            reply.send(64 + names.iter().map(String::len).sum::<usize>(), names);
        };
        inner
            .net
            .request(inner.from, inner.nn.node(), 64, serve, done);
    }

    /// Deletes a file (fire and forget); missing files are a no-op.
    pub fn delete(&self, path: &str) {
        let nn = Rc::clone(&self.inner.nn);
        let path = path.to_owned();
        self.inner
            .net
            .send(self.inner.from, nn.node(), 64 + path.len(), move || {
                nn.delete_file(&path);
            });
    }

    /// Deletes a file and confirms completion: `done` runs once the
    /// namenode has removed the file from its namespace, with `true` if
    /// the file existed. Compaction uses this to verify that obsolete
    /// store files are really gone rather than firing and forgetting.
    pub fn delete_with_callback(&self, path: &str, done: impl FnOnce(bool) + 'static) {
        let inner = &self.inner;
        let nn = Rc::clone(&inner.nn);
        let path = path.to_owned();
        let request_bytes = 64 + path.len();
        let serve = move |reply: Reply<_, _>| reply.send(32, nn.delete_file(&path));
        inner
            .net
            .request(inner.from, inner.nn.node(), request_bytes, serve, done);
    }

    /// Atomically renames `from_path` to `to_path` at the namenode;
    /// `done` receives the outcome. Readers see either the old or the new
    /// name, never both and never neither.
    pub fn rename(
        &self,
        from_path: &str,
        to_path: &str,
        done: impl FnOnce(crate::Result<()>) + 'static,
    ) {
        let inner = &self.inner;
        let nn = Rc::clone(&inner.nn);
        let from_path = from_path.to_owned();
        let to_path = to_path.to_owned();
        let request_bytes = 64 + from_path.len() + to_path.len();
        let serve = move |reply: Reply<_, _>| reply.send(32, nn.rename_file(&from_path, &to_path));
        inner
            .net
            .request(inner.from, inner.nn.node(), request_bytes, serve, done);
    }

    /// The node this client issues requests from.
    pub fn from_node(&self) -> NodeId {
        self.inner.from
    }

    /// Direct namenode access for tests and harness assertions.
    pub fn namenode(&self) -> &Rc<NameNode> {
        &self.inner.nn
    }
}

impl DfsFile {
    fn new(client: Rc<ClientInner>, path: String, replicas: Vec<usize>) -> DfsFile {
        DfsFile {
            client,
            state: Rc::new(RefCell::new(FileState {
                path,
                replicas,
                queue: VecDeque::new(),
                in_flight: false,
            })),
        }
    }

    /// The file's path.
    pub fn path(&self) -> String {
        self.state.borrow().path.clone()
    }

    /// Appends `record`; `done` runs once every live replica holds the
    /// record (the `hflush` durability point).
    ///
    /// Appends on one handle are serialized: they complete in submission
    /// order, which is what the write-ahead log requires.
    ///
    /// # Errors
    ///
    /// `done` receives [`DfsError::ReplicationFailed`] if no replica
    /// datanode remains alive.
    pub fn append(&self, record: Bytes, done: impl FnOnce(crate::Result<()>) + 'static) {
        {
            let mut st = self.state.borrow_mut();
            st.queue.push_back(PendingAppend {
                record,
                done: Box::new(done),
            });
        }
        pump(Rc::clone(&self.client), Rc::clone(&self.state));
    }
}

fn pump(client: Rc<ClientInner>, state: Rc<RefCell<FileState>>) {
    let next = {
        let mut st = state.borrow_mut();
        if st.in_flight {
            None
        } else {
            match st.queue.pop_front() {
                Some(p) => {
                    st.in_flight = true;
                    Some(p)
                }
                None => None,
            }
        }
    };
    if let Some(p) = next {
        attempt_append(
            client,
            state,
            p.record,
            Rc::new(RefCell::new(HashSet::new())),
            p.done,
        );
    }
}

fn finish_append(
    client: Rc<ClientInner>,
    state: Rc<RefCell<FileState>>,
    done: Box<dyn FnOnce(crate::Result<()>)>,
    result: crate::Result<()>,
) {
    state.borrow_mut().in_flight = false;
    done(result);
    pump(client, state);
}

/// One round of the append protocol: fan the record out to the replicas not
/// yet acked, succeed when the ack set covers the (possibly pruned) replica
/// set, and on timeout consult the namenode to drop dead replicas.
fn attempt_append(
    client: Rc<ClientInner>,
    state: Rc<RefCell<FileState>>,
    record: Bytes,
    acks: Rc<RefCell<HashSet<usize>>>,
    done: Box<dyn FnOnce(crate::Result<()>)>,
) {
    let (path, targets) = {
        let st = state.borrow();
        let pending: Vec<usize> = st
            .replicas
            .iter()
            .copied()
            .filter(|r| !acks.borrow().contains(r))
            .collect();
        (st.path.clone(), pending)
    };
    if targets.is_empty() {
        finish_append(client, state, done, Ok(()));
        return;
    }
    // Whoever takes `done` out — the covering ack or the timeout —
    // settles the attempt.
    let slot = Rc::new(RefCell::new(Some(done)));

    for idx in targets {
        let dn: Rc<DataNode> = client.nn.datanode(idx);
        let to = dn.node();
        let path2 = path.clone();
        let rec = record.clone();
        let acks2 = Rc::clone(&acks);
        let state2 = Rc::clone(&state);
        let client2 = Rc::clone(&client);
        let slot2 = Rc::clone(&slot);
        let serve = move |reply: Reply<_, _>| dn.append(&path2, rec, move || reply.send(32, ()));
        let acked = move |()| {
            // Record the ack even if this attempt already timed
            // out: the shared ack set keeps a retry from
            // re-sending to a replica that did store the record.
            acks2.borrow_mut().insert(idx);
            let covered = {
                let st = state2.borrow();
                st.replicas.iter().all(|r| acks2.borrow().contains(r))
            };
            let done = if covered {
                slot2.borrow_mut().take()
            } else {
                None
            };
            if let Some(done) = done {
                finish_append(client2, state2, done, Ok(()));
            }
        };
        let request_bytes = 64 + record.len();
        client
            .net
            .request(client.from, to, request_bytes, serve, acked);
    }

    // Timeout path: prune replicas through the namenode, then either finish
    // or re-attempt against the survivors.
    let client3 = Rc::clone(&client);
    let timeout = append_timeout(record.len());
    client.sim.schedule_in(timeout, move || {
        if slot.borrow().is_none() {
            return;
        }
        let nn = Rc::clone(&client3.nn);
        let (net, from, to) = (Rc::clone(&client3.net), client3.from, nn.node());
        let serve = move |reply: Reply<_, _>| {
            let live = nn.live_replicas(&path).unwrap_or_default();
            reply.send(64, (path, live));
        };
        net.request(from, to, 64, serve, move |(path, live): (_, Vec<usize>)| {
            let Some(done) = slot.borrow_mut().take() else {
                return;
            };
            state.borrow_mut().replicas = live.clone();
            if live.is_empty() {
                finish_append(client3, state, done, Err(DfsError::ReplicationFailed(path)));
            } else if live.iter().all(|r| acks.borrow().contains(r)) {
                finish_append(client3, state, done, Ok(()));
            } else {
                attempt_append(client3, state, record, acks, done);
            }
        });
    });
}

/// One end-to-end read attempt: resolve live replicas, ask each for its
/// record count, fetch from the longest.
fn read_attempt(
    client: Rc<ClientInner>,
    path: String,
    retries_left: u32,
    done: Box<dyn FnOnce(crate::Result<Vec<Bytes>>)>,
) {
    let nn = Rc::clone(&client.nn);
    let (from, to, request_bytes) = (client.from, nn.node(), 64 + path.len());
    let serve = move |reply: Reply<_, _>| {
        let live = nn.live_replicas(&path);
        reply.send(64, (path, live));
    };
    let net = Rc::clone(&client.net);
    net.request(
        from,
        to,
        request_bytes,
        serve,
        move |(path, live)| match live {
            Err(e) => done(Err(e)),
            Ok(live) if live.is_empty() => retry_or_fail(client, path, retries_left, done),
            Ok(live) => fetch_longest(client, path, live, retries_left, done),
        },
    );
}

fn retry_or_fail(
    client: Rc<ClientInner>,
    path: String,
    retries_left: u32,
    done: Box<dyn FnOnce(crate::Result<Vec<Bytes>>)>,
) {
    if retries_left == 0 {
        done(Err(DfsError::Unavailable(path)));
        return;
    }
    let client2 = Rc::clone(&client);
    client
        .sim
        .schedule_in(SimDuration::from_millis(20), move || {
            read_attempt(client2, path, retries_left - 1, done);
        });
}

fn fetch_longest(
    client: Rc<ClientInner>,
    path: String,
    live: Vec<usize>,
    retries_left: u32,
    done: Box<dyn FnOnce(crate::Result<Vec<Bytes>>)>,
) {
    // Phase 1: collect record counts from every live replica.
    let counts: Rc<RefCell<Vec<(usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    let expected = live.len();
    // Taken by the first decision: the last count in, or the timer.
    let slot = RefCell::new(Some(done));

    let decide = {
        let client = Rc::clone(&client);
        let path = path.clone();
        let counts = Rc::clone(&counts);
        Rc::new(move || {
            let Some(done) = slot.borrow_mut().take() else {
                return;
            };
            let best = counts
                .borrow()
                .iter()
                .max_by_key(|(_, c)| *c)
                .map(|(i, _)| *i);
            match best {
                None => retry_or_fail(Rc::clone(&client), path.clone(), retries_left, done),
                Some(idx) => {
                    let dn = client.nn.datanode(idx);
                    let to = dn.node();
                    let path2 = path.clone();
                    let client2 = Rc::clone(&client);
                    let path_for_retry = path.clone();
                    let serve = move |reply: Reply<_, _>| {
                        let path3 = path2.clone();
                        dn.read(&path2, move |data| {
                            let size = 64
                                + data
                                    .as_ref()
                                    .map(|d| d.iter().map(Bytes::len).sum::<usize>())
                                    .unwrap_or(0);
                            reply.send(size, (path3, data));
                        });
                    };
                    // `None`: the chosen replica died mid-read.
                    let arrived = move |got: Option<(String, Option<Vec<Bytes>>)>| match got {
                        Some((path3, data)) => done(data.ok_or(DfsError::NotFound(path3))),
                        None => retry_or_fail(client2, path_for_retry, retries_left, done),
                    };
                    let (from, deadline) = (client.from, SimDuration::from_millis(100));
                    client
                        .net
                        .request_within(deadline, from, to, 64, serve, arrived);
                }
            }
        })
    };

    for idx in live {
        let dn = client.nn.datanode(idx);
        let to = dn.node();
        let path2 = path.clone();
        let counts2 = Rc::clone(&counts);
        let decide2 = Rc::clone(&decide);
        let serve = move |reply: Reply<_, _>| reply.send(32, dn.record_count(&path2));
        client
            .net
            .request(client.from, to, 32, serve, move |count| {
                counts2.borrow_mut().push((idx, count));
                if counts2.borrow().len() == expected {
                    decide2();
                }
            });
    }
    // If some replicas die before answering, decide with what arrived.
    let decide3 = Rc::clone(&decide);
    client
        .sim
        .schedule_in(SimDuration::from_millis(50), move || decide3());
}

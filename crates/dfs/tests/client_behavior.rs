//! Behavioural tests of the DFS client: append ordering, the hflush
//! durability contract, datanode failure handling and read retries.

use bytes::Bytes;
use cumulo_dfs::{DataNode, DfsClient, DfsError, DfsFile, NameNode, NameNodeConfig};
use cumulo_sim::{DiskConfig, LatencyConfig, Network, NodeId, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

struct Fixture {
    sim: Sim,
    net: Rc<Network>,
    nn: Rc<NameNode>,
    dfs: DfsClient,
    writer_node: NodeId,
}

fn fixture(n_dn: usize, repl: usize) -> Fixture {
    let sim = Sim::new(1234);
    let net = Network::new(&sim, LatencyConfig::lan_100mbps());
    let dns: Vec<Rc<DataNode>> = (0..n_dn)
        .map(|i| {
            DataNode::new(
                &sim,
                net.add_node(&format!("dn{i}")),
                DiskConfig::server_hdd(),
            )
        })
        .collect();
    let nn_node = net.add_node("namenode");
    let cfg = NameNodeConfig {
        replication: repl,
        rereplicate_interval: SimDuration::from_millis(500),
    };
    let nn = NameNode::new(&sim, &net, nn_node, dns, cfg);
    let writer_node = net.add_node("writer");
    let dfs = DfsClient::new(&sim, &net, &nn, writer_node);
    Fixture {
        sim,
        net,
        nn,
        dfs,
        writer_node,
    }
}

/// Creates a file and returns the handle, running the sim as needed.
fn create_file(fx: &Fixture, path: &str) -> DfsFile {
    let slot: Rc<RefCell<Option<DfsFile>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    fx.dfs
        .create(path, move |f| *s.borrow_mut() = Some(f.expect("create")));
    fx.sim.run_for(SimDuration::from_millis(50));
    let f = slot.borrow_mut().take().expect("file created");
    f
}

fn read_all(fx: &Fixture, path: &str) -> Result<Vec<Bytes>, DfsError> {
    let slot: Rc<RefCell<Option<Result<Vec<Bytes>, DfsError>>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    fx.dfs.read(path, move |r| *s.borrow_mut() = Some(r));
    fx.sim.run_for(SimDuration::from_secs(2));
    let r = slot.borrow_mut().take().expect("read completed");
    r
}

#[test]
fn appends_complete_in_submission_order() {
    let fx = fixture(3, 2);
    let file = create_file(&fx, "/wal/1");
    let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..20u32 {
        let order = order.clone();
        file.append(Bytes::from(format!("rec{i}")), move |r| {
            r.expect("append");
            order.borrow_mut().push(i);
        });
    }
    fx.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(*order.borrow(), (0..20).collect::<Vec<_>>());
    let data = read_all(&fx, "/wal/1").expect("read");
    assert_eq!(data.len(), 20);
    assert_eq!(data[0], Bytes::from_static(b"rec0"));
    assert_eq!(data[19], Bytes::from_static(b"rec19"));
}

#[test]
fn acked_appends_survive_writer_crash() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/wal/s1");
    let acked = Rc::new(Cell::new(0u32));
    for i in 0..10u32 {
        let acked = acked.clone();
        file.append(Bytes::from(format!("e{i}")), move |r| {
            if r.is_ok() {
                acked.set(acked.get() + 1);
            }
        });
    }
    fx.sim.run_for(SimDuration::from_secs(1));
    let acked_before_crash = acked.get();
    assert_eq!(acked_before_crash, 10);
    // The writer (a region server, say) dies. Its acked WAL entries must
    // remain readable by the recovery path.
    fx.net.crash(fx.writer_node);
    let reader_node = fx.net.add_node("reader");
    let reader = DfsClient::new(&fx.sim, &fx.net, &fx.nn, reader_node);
    let slot: Rc<RefCell<Option<Result<Vec<Bytes>, DfsError>>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    reader.read("/wal/s1", move |r| *s.borrow_mut() = Some(r));
    fx.sim.run_for(SimDuration::from_secs(1));
    let data = slot
        .borrow_mut()
        .take()
        .unwrap()
        .expect("read after writer crash");
    assert_eq!(data.len(), 10);
}

#[test]
fn append_survives_one_replica_crash() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    // Kill one of the two replica datanodes.
    let replicas = fx.nn.replicas("/f").unwrap();
    fx.net.crash(fx.nn.datanode(replicas[0]).node());

    let ok = Rc::new(Cell::new(false));
    let ok2 = ok.clone();
    file.append(Bytes::from_static(b"x"), move |r| {
        r.expect("append with one dead replica");
        ok2.set(true);
    });
    fx.sim.run_for(SimDuration::from_secs(2));
    assert!(ok.get(), "append should succeed against surviving replica");
    let data = read_all(&fx, "/f").expect("read");
    assert_eq!(data, vec![Bytes::from_static(b"x")]);
}

#[test]
fn append_fails_when_all_replicas_dead() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    for &idx in &fx.nn.replicas("/f").unwrap() {
        fx.net.crash(fx.nn.datanode(idx).node());
    }
    let result: Rc<RefCell<Option<Result<(), DfsError>>>> = Rc::new(RefCell::new(None));
    let r2 = result.clone();
    file.append(Bytes::from_static(b"x"), move |r| {
        *r2.borrow_mut() = Some(r)
    });
    fx.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        result.borrow_mut().take(),
        Some(Err(DfsError::ReplicationFailed("/f".into())))
    );
}

#[test]
fn read_survives_replica_crash_after_write() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    let n = 5;
    for i in 0..n {
        file.append(Bytes::from(format!("r{i}")), |r| {
            r.expect("append");
        });
    }
    fx.sim.run_for(SimDuration::from_secs(1));
    // Kill either replica: data must still be fully readable.
    let replicas = fx.nn.replicas("/f").unwrap();
    fx.net.crash(fx.nn.datanode(replicas[1]).node());
    let data = read_all(&fx, "/f").expect("read");
    assert_eq!(data.len(), n);
}

/// The replica a read chose dies after answering its record count and
/// before the data fetch reaches it: the fetch's 100 ms deadline passes,
/// the read starts over 20 ms later and completes from the survivor.
/// When it completes and what it took on the wire are pinned.
#[test]
fn read_whose_chosen_replica_dies_before_the_fetch_retries_it_is_pinned() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    for i in 0..5 {
        file.append(Bytes::from(format!("r{i}")), |r| {
            r.expect("append");
        });
    }
    fx.sim.run_for(SimDuration::from_secs(1));
    let chosen = fx.nn.datanode(fx.nn.replicas("/f").unwrap()[0]).node();
    let start = fx.sim.now();
    let sent = fx.net.messages_sent();
    let out: Rc<RefCell<Option<(SimTime, Result<Vec<Bytes>, DfsError>)>>> = Rc::default();
    let (sink, sim) = (out.clone(), fx.sim.clone());
    fx.dfs
        .read("/f", move |r| *sink.borrow_mut() = Some((sim.now(), r)));
    // The namenode lookup and two record counts are six messages; the
    // seventh is the data fetch, sent as the last count arrives.
    while fx.net.messages_sent() < sent + 7 {
        fx.sim.run_for(SimDuration::from_micros(10));
    }
    fx.net.crash(chosen);
    fx.sim.run_for(SimDuration::from_secs(2));
    let (at, data) = out.borrow_mut().take().expect("read completed");
    assert_eq!(data.expect("read").len(), 5);
    assert_eq!((at - start).nanos(), 124_540_804, "read completed");
    assert_eq!((fx.net.messages_sent(), fx.net.messages_dropped()), (35, 1));
}

/// A read's namenode lookup lost to a short cut between the reader and
/// the namenode: the lookup has no deadline, so nothing notices the loss
/// and the read never completes, however long after the heal.
#[test]
#[ignore = "ROADMAP item 2"]
fn lost_namenode_lookup_hangs_nothing_once_healed() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    file.append(Bytes::from_static(b"x"), |r| {
        r.expect("append");
    });
    fx.sim.run_for(SimDuration::from_secs(1));
    let namenode = fx.nn.node();
    fx.net.partition(fx.writer_node, namenode);
    let out: Rc<RefCell<Option<Result<Vec<Bytes>, DfsError>>>> = Rc::default();
    let sink = out.clone();
    fx.dfs.read("/f", move |r| *sink.borrow_mut() = Some(r));
    fx.sim.run_for(SimDuration::from_millis(100));
    fx.net.heal(fx.writer_node, namenode);
    fx.sim.run_for(SimDuration::from_secs(10));
    let data = out.borrow_mut().take().expect("the read completed");
    assert_eq!(data, Ok(vec![Bytes::from_static(b"x")]));
}

#[test]
fn read_unavailable_when_all_replicas_dead() {
    let fx = fixture(3, 2);
    let file = create_file(&fx, "/f");
    file.append(Bytes::from_static(b"x"), |r| {
        r.expect("append");
    });
    fx.sim.run_for(SimDuration::from_secs(1));
    for &idx in &fx.nn.replicas("/f").unwrap() {
        fx.net.crash(fx.nn.datanode(idx).node());
    }
    // Disable rereplication rescue by crashing the spare too.
    for i in 0..fx.nn.datanode_count() {
        fx.net.crash(fx.nn.datanode(i).node());
    }
    let err = read_all(&fx, "/f").expect_err("must be unavailable");
    assert_eq!(err, DfsError::Unavailable("/f".into()));
}

#[test]
fn read_missing_file_is_not_found() {
    let fx = fixture(2, 2);
    let err = read_all(&fx, "/nope").expect_err("missing file");
    assert_eq!(err, DfsError::NotFound("/nope".into()));
}

#[test]
fn open_append_continues_existing_file() {
    let fx = fixture(2, 2);
    let file = create_file(&fx, "/f");
    file.append(Bytes::from_static(b"a"), |r| {
        r.expect("append");
    });
    fx.sim.run_for(SimDuration::from_secs(1));
    drop(file);

    let slot: Rc<RefCell<Option<DfsFile>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    fx.dfs
        .open_append("/f", move |f| *s.borrow_mut() = Some(f.expect("open")));
    fx.sim.run_for(SimDuration::from_millis(50));
    let reopened = slot.borrow_mut().take().unwrap();
    reopened.append(Bytes::from_static(b"b"), |r| {
        r.expect("append");
    });
    fx.sim.run_for(SimDuration::from_secs(1));
    let data = read_all(&fx, "/f").expect("read");
    assert_eq!(
        data,
        vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]
    );
}

#[test]
fn open_append_missing_file_errors() {
    let fx = fixture(2, 2);
    let got: Rc<RefCell<Option<Result<(), DfsError>>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    fx.dfs
        .open_append("/ghost", move |f| *g.borrow_mut() = Some(f.map(|_| ())));
    fx.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        got.borrow_mut().take(),
        Some(Err(DfsError::NotFound("/ghost".into())))
    );
}

#[test]
fn list_via_client() {
    let fx = fixture(2, 2);
    create_file(&fx, "/wal/a");
    create_file(&fx, "/wal/b");
    create_file(&fx, "/other");
    let got: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let g = got.clone();
    fx.dfs.list("/wal/", move |names| *g.borrow_mut() = names);
    fx.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(
        *got.borrow(),
        vec!["/wal/a".to_owned(), "/wal/b".to_owned()]
    );
}

#[test]
fn delete_via_client() {
    let fx = fixture(2, 2);
    create_file(&fx, "/f");
    fx.dfs.delete("/f");
    fx.sim.run_for(SimDuration::from_secs(1));
    assert!(!fx.nn.exists("/f"));
    let err = read_all(&fx, "/f").expect_err("deleted");
    assert_eq!(err, DfsError::NotFound("/f".into()));
}

#[test]
fn writes_remain_available_through_rereplication_cycle() {
    // Write, kill a replica, wait for re-replication, kill the other
    // original replica: data must still be readable from the new copy.
    let fx = fixture(3, 2);
    let file = create_file(&fx, "/f");
    for i in 0..8 {
        file.append(Bytes::from(format!("rec{i}")), |r| {
            r.expect("append");
        });
    }
    fx.sim.run_for(SimDuration::from_secs(1));
    let original = fx.nn.replicas("/f").unwrap();
    fx.net.crash(fx.nn.datanode(original[0]).node());
    fx.sim.run_for(SimDuration::from_secs(3)); // sweep copies to the spare
    fx.net.crash(fx.nn.datanode(original[1]).node());
    let data = read_all(&fx, "/f").expect("read from re-replicated copy");
    assert_eq!(data.len(), 8);
    assert_eq!(data[7], Bytes::from_static(b"rec7"));
}

#[test]
fn deterministic_across_seeds() {
    // The same seed must produce byte-identical message statistics.
    let run = |seed: u64| {
        let sim = Sim::new(seed);
        let net = Network::new(&sim, LatencyConfig::lan_100mbps());
        let dns: Vec<Rc<DataNode>> = (0..3)
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
        let dfs = DfsClient::new(&sim, &net, &nn, net.add_node("w"));
        let file: Rc<RefCell<Option<DfsFile>>> = Rc::new(RefCell::new(None));
        let f2 = file.clone();
        dfs.create("/f", move |f| *f2.borrow_mut() = Some(f.unwrap()));
        sim.run_until(SimTime::from_millis(50));
        let handle = file.borrow_mut().take().unwrap();
        let last_ack = Rc::new(Cell::new(0u64));
        for i in 0..50 {
            let la = last_ack.clone();
            let s = sim.clone();
            handle.append(Bytes::from(vec![i as u8; 100]), move |_| {
                la.set(s.now().nanos())
            });
        }
        sim.run_until(SimTime::from_secs(5));
        (
            net.messages_sent(),
            net.messages_delivered(),
            last_ack.get(),
        )
    };
    assert_eq!(run(77), run(77));
    // Different seeds draw different jitter, so ack timing must differ.
    assert_ne!(
        run(77).2,
        run(78).2,
        "different seeds should differ in timing"
    );
}

#[test]
fn rename_promotes_atomically_and_preserves_data() {
    let fx = fixture(3, 2);
    let file = create_file(&fx, "/store/r1/.tmp-000001");
    let acked = Rc::new(Cell::new(false));
    let a2 = acked.clone();
    file.append(Bytes::from_static(b"merged"), move |r| {
        r.expect("append");
        a2.set(true);
    });
    fx.sim.run_for(SimDuration::from_secs(1));
    assert!(acked.get());

    let renamed = Rc::new(Cell::new(false));
    let r2 = renamed.clone();
    fx.dfs
        .rename("/store/r1/.tmp-000001", "/store/r1/000001c", move |r| {
            r.expect("rename");
            r2.set(true);
        });
    fx.sim.run_for(SimDuration::from_secs(1));
    assert!(renamed.get());

    // Old name gone, new name serves the same records.
    assert!(!fx.nn.exists("/store/r1/.tmp-000001"));
    assert!(fx.nn.exists("/store/r1/000001c"));
    assert_eq!(
        read_all(&fx, "/store/r1/000001c").expect("read"),
        vec![Bytes::from_static(b"merged")]
    );
    assert!(matches!(
        read_all(&fx, "/store/r1/.tmp-000001"),
        Err(DfsError::NotFound(_))
    ));
    let _ = fx.writer_node;
}

#[test]
fn rename_rejects_missing_source_and_taken_target() {
    let fx = fixture(2, 2);
    create_file(&fx, "/a");
    create_file(&fx, "/b");
    let results: Rc<RefCell<Vec<Result<(), DfsError>>>> = Rc::new(RefCell::new(Vec::new()));
    let (r1, r2) = (results.clone(), results.clone());
    fx.dfs
        .rename("/missing", "/c", move |r| r1.borrow_mut().push(r));
    fx.dfs.rename("/a", "/b", move |r| r2.borrow_mut().push(r));
    fx.sim.run_for(SimDuration::from_secs(1));
    let results = results.borrow();
    assert!(matches!(results[0], Err(DfsError::NotFound(_))));
    assert!(matches!(results[1], Err(DfsError::AlreadyExists(_))));
    // Both files untouched.
    assert!(fx.nn.exists("/a") && fx.nn.exists("/b"));
}

#[test]
fn delete_with_callback_confirms_and_is_idempotent() {
    let fx = fixture(2, 2);
    create_file(&fx, "/doomed");
    let outcomes: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
    let o1 = outcomes.clone();
    fx.dfs
        .delete_with_callback("/doomed", move |existed| o1.borrow_mut().push(existed));
    fx.sim.run_for(SimDuration::from_secs(1));
    let o2 = outcomes.clone();
    fx.dfs
        .delete_with_callback("/doomed", move |existed| o2.borrow_mut().push(existed));
    fx.sim.run_for(SimDuration::from_secs(1));
    assert_eq!(&*outcomes.borrow(), &[true, false]);
    assert!(!fx.nn.exists("/doomed"));
    // Replicas dropped at the datanodes too.
    for i in 0..fx.nn.datanode_count() {
        assert!(!fx.nn.datanode(i).has_replica("/doomed"));
    }
}

/// Runs one `write_file` to its outcome.
fn write_file(fx: &Fixture, path: &str, bytes: &'static [u8]) -> Result<(), DfsError> {
    let slot: Rc<RefCell<Option<Result<(), DfsError>>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    fx.dfs
        .write_file(path, Bytes::from_static(bytes), move |r| {
            *s.borrow_mut() = Some(r)
        });
    fx.sim.run_for(SimDuration::from_secs(2));
    let r = slot.borrow_mut().take().expect("write_file completed");
    r
}

#[test]
fn write_file_creates_and_appends_one_record() {
    let fx = fixture(3, 2);
    assert_eq!(write_file(&fx, "/store/r0/f", b"image"), Ok(()));
    let data = read_all(&fx, "/store/r0/f").expect("read");
    assert_eq!(data, vec![Bytes::from_static(b"image")]);
}

#[test]
fn write_file_reports_a_failed_create() {
    let fx = fixture(3, 2);
    assert_eq!(write_file(&fx, "/f", b"first"), Ok(()));
    assert_eq!(
        write_file(&fx, "/f", b"second"),
        Err(DfsError::AlreadyExists("/f".into()))
    );
    // The existing file was not appended to.
    let data = read_all(&fx, "/f").expect("read");
    assert_eq!(data, vec![Bytes::from_static(b"first")]);
}

#[test]
fn write_file_reports_a_failed_append() {
    let fx = fixture(2, 2);
    // Both datanodes die while the create reply is on its way back: the
    // namenode placed the file, the append finds no live replica.
    let slot: Rc<RefCell<Option<Result<(), DfsError>>>> = Rc::new(RefCell::new(None));
    let s = slot.clone();
    fx.dfs.write_file("/g", Bytes::from_static(b"x"), move |r| {
        *s.borrow_mut() = Some(r)
    });
    while fx.nn.replicas("/g").is_err() {
        fx.sim.run_for(SimDuration::from_micros(10));
    }
    for &idx in &fx.nn.replicas("/g").unwrap() {
        fx.net.crash(fx.nn.datanode(idx).node());
    }
    fx.sim.run_for(SimDuration::from_secs(2));
    assert_eq!(
        slot.borrow_mut().take(),
        Some(Err(DfsError::ReplicationFailed("/g".into())))
    );
    // The created-but-unwritten file is left behind (documented).
    assert!(fx.nn.replicas("/g").is_ok());
}

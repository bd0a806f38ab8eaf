//! Whole-cluster determinism (the foundation of every reproducible
//! experiment in this repository) and housekeeping behaviours: the WAL
//! split's store files through adoption and compaction, and memstore
//! flushes during recovery.

use cumulo_core::{Cluster, ClusterConfig, Timestamp, TxnError};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

fn run_scenario(seed: u64) -> (u64, u64, u64, u64) {
    let cluster = Cluster::build(ClusterConfig {
        seed,
        clients: 4,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        ..ClusterConfig::default()
    });
    for i in 0..30u64 {
        let client = cluster.client((i % 4) as usize).clone();
        client.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let _ = txn.put(
                format!("user{:012}", (i * 131) % 5_000),
                "f0",
                format!("v{i}"),
            );
            txn.commit(|_| {});
        });
        cluster.run_for(SimDuration::from_millis(100));
    }
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(15));
    (
        cluster.sim.events_executed(),
        cluster.net.messages_delivered(),
        cluster.total_committed(),
        cluster.rm.recovery_client().region_txns_replayed(),
    )
}

#[test]
fn identical_seeds_reproduce_identical_failure_runs() {
    let a = run_scenario(91);
    let b = run_scenario(91);
    assert_eq!(a, b, "same seed must give an identical execution");
    let c = run_scenario(92);
    assert_ne!(a.0, c.0, "different seeds should diverge");
}

#[test]
fn wal_split_output_is_adopted_at_open_and_compacted_away() {
    let mut cfg = ClusterConfig {
        seed: 93,
        clients: 2,
        servers: 2,
        regions: 2,
        key_count: 1_000,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.min_files = 2;
    let cluster = Cluster::build(cfg);
    let read_all = |cluster: &Cluster| -> Vec<Option<Vec<u8>>> {
        (0..20u64)
            .map(|i| {
                cluster
                    .read_cell(
                        format!("user{:012}", i * 43),
                        "f0",
                        SimDuration::from_secs(10),
                    )
                    .map(|v| v.to_vec())
            })
            .collect()
    };
    // Commit rows, let the WAL sync, crash a server: the master splits
    // its WAL into one store file per region.
    for i in 0..20u64 {
        let client = cluster.client((i % 2) as usize).clone();
        client.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let _ = txn.put(format!("user{:012}", i * 43), "f0", format!("v{i}"));
            txn.commit(|_| {});
        });
    }
    cluster.run_for(SimDuration::from_secs(3));
    let expected: Vec<Option<Vec<u8>>> = (0..20u64)
        .map(|i| Some(format!("v{i}").into_bytes()))
        .collect();
    assert_eq!(read_all(&cluster), expected);
    let victim_regions = cluster.servers[0].hosted_regions();
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(12));
    assert!(cluster.all_regions_online());
    let is_split_output = |p: &String| p.rsplit('/').next().is_some_and(|f| f.starts_with("wal-"));
    let split_outputs: Vec<String> = cluster
        .namenode
        .list("/store/")
        .into_iter()
        .filter(is_split_output)
        .collect();
    assert!(
        !split_outputs.is_empty(),
        "the WAL split must leave its records as store files"
    );
    for path in &split_outputs {
        assert!(
            cluster.registry.get(path).is_some(),
            "{path} is durable, so its new host can adopt it"
        );
    }
    assert!(
        cluster.namenode.list("/recovered/").is_empty(),
        "there is no recovered-edits namespace"
    );
    // The survivor serves the dead server's rows out of the adopted
    // files: nothing was replayed into its memstore but the log suffix.
    let survivor = &cluster.servers[1];
    assert!(victim_regions.iter().all(|r| survivor.region_online(*r)));
    assert_eq!(read_all(&cluster), expected, "reads after adoption");
    // One more version per row and a flush: every region now has a second
    // file, so the compactor merges each region's whole file set.
    for i in 0..20u64 {
        let client = cluster.client((i % 2) as usize).clone();
        client.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let _ = txn.put(format!("user{:012}", i * 43), "f1", "x");
            txn.commit(|_| {});
        });
    }
    cluster.run_for(SimDuration::from_secs(2));
    for r in survivor.hosted_regions() {
        survivor.flush_region(r);
    }
    cluster.run_for(SimDuration::from_secs(20));
    assert!(
        cluster.total_compactions() >= 1,
        "a compaction must have run"
    );
    let left: Vec<String> = cluster
        .namenode
        .list("/store/")
        .into_iter()
        .filter(is_split_output)
        .collect();
    assert!(
        left.is_empty(),
        "a major compaction folds the split output away: {left:?}"
    );
    assert!(split_outputs
        .iter()
        .all(|p| cluster.registry.get(p).is_none()));
    assert_eq!(read_all(&cluster), expected, "reads after compaction");
}

#[test]
fn log_stays_bounded_under_continuous_load() {
    // With checkpointing + truncation, the recovery log must not grow
    // with total history — only with the tracking lag window.
    let cluster = Cluster::build(ClusterConfig {
        seed: 94,
        clients: 4,
        servers: 2,
        regions: 4,
        key_count: 5_000,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    });
    let mut max_log = 0usize;
    let mut committed_total = 0u64;
    for burst in 0..12 {
        for i in 0..20u64 {
            let client = cluster.client((i % 4) as usize).clone();
            let row = (burst * 20 + i) * 7 % 5_000;
            client.begin(move |txn| {
                let Ok(txn) = txn else { return };
                let _ = txn.put(format!("user{row:012}"), "f0", "x");
                txn.commit(|_| {});
            });
        }
        cluster.run_for(SimDuration::from_secs(4));
        max_log = max_log.max(cluster.tm.log().len());
        committed_total = cluster.total_committed();
    }
    assert!(committed_total >= 240);
    assert!(
        max_log < 120,
        "log should stay bounded by the tracking window, peaked at {max_log}"
    );
    assert!(cluster.rm.truncation_count() > 3);
}

#[test]
fn begin_after_shutdown_is_a_typed_error_not_a_panic() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 95,
        clients: 1,
        servers: 2,
        regions: 2,
        key_count: 100,
        ..ClusterConfig::default()
    });
    let client = cluster.client(0).clone();
    client.shutdown();
    cluster.run_for(SimDuration::from_secs(2));
    let got: Rc<RefCell<Option<TxnError>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    client.begin(move |r| *g.borrow_mut() = r.err());
    cluster.run_for(SimDuration::from_secs(1));
    assert_eq!(*got.borrow(), Some(TxnError::ClientClosed));
}

#[test]
fn flush_during_outage_waits_and_completes() {
    // A committed transaction whose flush targets a crashed server's
    // region keeps retrying (paper: retry limits removed) and completes
    // once the region is back online, advancing T_F.
    let cluster = Cluster::build(ClusterConfig {
        seed: 96,
        clients: 2,
        servers: 2,
        regions: 2,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    cluster.crash_server(0); // crash FIRST: region offline at flush time
    let client = cluster.client(0).clone();
    let done: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> = Rc::new(RefCell::new(None));
    let d = done.clone();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        // Write rows in both halves of the key space (one offline).
        txn.put("user000000000001", "f0", "low").unwrap();
        txn.put("user000000000900", "f0", "high").unwrap();
        txn.commit(move |r| *d.borrow_mut() = Some(r));
    });
    cluster.run_for(SimDuration::from_secs(2));
    assert!(matches!(*done.borrow(), Some(Ok(_))));
    // Flush must eventually complete through the failover.
    cluster.run_for(SimDuration::from_secs(15));
    assert_eq!(
        cluster.client(0).flushed_count(),
        1,
        "flush completes after recovery"
    );
    assert_eq!(cluster.client(0).pending_flushes(), 0);
    assert_eq!(
        cluster
            .read_cell("user000000000001", "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"low"[..])
    );
    assert_eq!(
        cluster
            .read_cell("user000000000900", "f0", SimDuration::from_secs(10))
            .as_deref(),
        Some(&b"high"[..])
    );
}

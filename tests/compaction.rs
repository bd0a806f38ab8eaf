//! End-to-end background-compaction tests: under a write-heavy YCSB-style
//! load with an aggressive flush threshold, regions accumulate store
//! files, the background compactor merges them down with MVCC garbage
//! collection, and reads stay correct throughout.

mod common;

use common::{audit, lines_digest, write_load};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

const ROWS: u64 = 2_000;
/// Padding of each written value, so memstores hit the flush threshold
/// quickly.
const VALUE_PAD: usize = 150;

/// A cluster tuned so flushes (and therefore compactions) happen within
/// seconds instead of after gigabytes.
fn compaction_cluster(seed: u64, compaction: bool) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        clients: 6,
        servers: 2,
        regions: 4,
        key_count: ROWS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.enabled = compaction;
    cfg.server_cfg.compaction.min_files = 3;
    cfg.server_cfg.memstore_flush_bytes = 24 << 10; // 24 KiB
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(500);
    cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(900);
    Cluster::build(cfg)
}

/// The headline scenario: a write-heavy load accumulates store files,
/// background compaction merges them to fewer files with obsolete MVCC
/// versions dropped, and the history audit passes: every committed write
/// reads back as its newest version. Temp files never leak into the
/// final namespace.
#[test]
fn write_heavy_load_is_compacted_in_the_background() {
    let cluster = compaction_cluster(71, true);
    let history = cluster.attach_history();
    cluster.load_rows(ROWS, &["f0"], 64, true);
    write_load(&cluster, 120, VALUE_PAD);
    // Let in-flight flushes and compactions drain.
    cluster.run_for(SimDuration::from_secs(15));

    let compactions = cluster.metrics.sum("store.compaction.completed");
    assert!(
        compactions >= 3,
        "expected several compactions, saw {compactions}"
    );
    let dropped: u64 = cluster
        .servers
        .iter()
        .map(|s| s.compaction_stats().versions_dropped.get())
        .sum();
    assert!(
        dropped > 0,
        "MVCC GC dropped nothing despite heavy overwrites"
    );
    let confirmed: u64 = cluster
        .servers
        .iter()
        .map(|s| s.compaction_stats().deletes_confirmed.get())
        .sum();
    assert!(confirmed > 0, "no obsolete-file deletion was confirmed");
    let amp = cluster.metrics.max("store.read_amplification");
    assert!(
        amp <= 6,
        "read amplification unbounded: {amp} store files on one region"
    );

    // The filesystem namespace holds no temp files and only files the
    // registry can resolve (no dangling retired paths).
    let paths: Rc<RefCell<Option<Vec<String>>>> = Rc::new(RefCell::new(None));
    let p2 = paths.clone();
    let dfs = cumulo_dfs_probe(&cluster);
    dfs.list("/store/", move |names| *p2.borrow_mut() = Some(names));
    cluster.run_for(SimDuration::from_secs(1));
    let paths = paths.borrow_mut().take().expect("list completed");
    assert!(
        !paths
            .iter()
            .any(|p| cumulo_store::compaction::is_tmp_path(p)),
        "temp compaction files leaked: {paths:?}"
    );

    audit(&cluster, &history);
}

/// The headline scenario run to the end, pinned: how often compaction
/// and flush backpressure acted, an FNV-1a over every retained
/// `compaction.*` record (`<nanos> <kind> <detail>` per line), and each
/// region's final store-file paths. Any change to which files a merge
/// picks, what it names its output or when it finishes moves one of
/// these.
#[test]
fn the_headline_compaction_run_is_pinned() {
    let cluster = compaction_cluster(71, true);
    cluster.load_rows(ROWS, &["f0"], 64, true);
    write_load(&cluster, 120, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(15));

    let kinds = [
        "compaction.defer",
        "compaction.finish",
        "compaction.force",
        "compaction.start",
        "flush.stall",
    ];
    let counts: Vec<(&str, u64)> = kinds
        .iter()
        .map(|kind| (*kind, cluster.events.count(kind)))
        .collect();
    assert_eq!(
        counts,
        [
            ("compaction.defer", 0),
            ("compaction.finish", 8),
            ("compaction.force", 0),
            ("compaction.start", 8),
            ("flush.stall", 0),
        ],
        "compaction and stall counts"
    );

    assert_eq!(cluster.events.dropped(), 0, "the event journal overflowed");
    let entries = cluster.events.entries();
    let compaction: Vec<_> = entries
        .iter()
        .filter(|e| e.kind.starts_with("compaction."))
        .collect();
    assert_eq!(compaction.len(), 16, "compaction records");
    assert_eq!(
        lines_digest(compaction),
        8_996_916_255_505_560_599,
        "compaction journal"
    );

    let files: Vec<Vec<String>> = cluster
        .master
        .snapshot_map()
        .regions()
        .iter()
        .map(|desc| cluster.namenode.list(&format!("/store/{}/", desc.id)))
        .collect();
    assert_eq!(
        files,
        [
            ["/store/r0/000009c-rs0", "/store/r0/000012-rs0"],
            ["/store/r1/000011c-rs1", "/store/r1/000013-rs1"],
            ["/store/r2/000011c-rs0", "/store/r2/000013-rs0"],
            ["/store/r3/000009c-rs1", "/store/r3/000012-rs1"],
        ],
        "final store files per region"
    );
}

/// Same load and seed, compaction on vs off: the history audit passes
/// either way (compaction is invisible to correctness), and the
/// compacted cluster ends with measurably fewer store files.
#[test]
fn compaction_is_read_invisible_and_reduces_files() {
    let run = |compaction: bool| {
        let cluster = compaction_cluster(72, compaction);
        let history = cluster.attach_history();
        cluster.load_rows(ROWS, &["f0"], 64, true);
        write_load(&cluster, 90, VALUE_PAD);
        cluster.run_for(SimDuration::from_secs(15));
        audit(&cluster, &history);
        cluster.metrics.max("store.read_amplification")
    };
    let amp_on = run(true);
    let amp_off = run(false);
    assert!(
        amp_on < amp_off,
        "compaction should reduce store files: {amp_on} (on) vs {amp_off} (off)"
    );
    assert!(
        amp_off >= 4,
        "the uncompacted run never accumulated files; test is too weak"
    );
}

/// Helper: a DFS client bound to a fresh probe node.
fn cumulo_dfs_probe(cluster: &Cluster) -> cumulo_dfs::DfsClient {
    let node = cluster.net.add_node("dfs-probe");
    cumulo_dfs::DfsClient::new(&cluster.net, &cluster.namenode, node)
}

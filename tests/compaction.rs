//! End-to-end background-compaction tests: under a write-heavy YCSB-style
//! load with an aggressive flush threshold, regions accumulate store
//! files, the background compactor merges them down with MVCC garbage
//! collection, and reads stay correct throughout.

mod common;

use common::{key, write_load};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::CompactionPolicyKind;
use std::cell::RefCell;
use std::collections::HashMap;
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

fn verify_acked(cluster: &Cluster, acked: &HashMap<u64, (u64, String)>) {
    // lint:allow(CD001, reason = "per-row verification: each iteration independently asserts one row's value; visit order affects nothing but which assertion fires first on failure")
    for (row, (_, val)) in acked.iter() {
        let got = cluster.read_cell(key(*row), "f0", SimDuration::from_secs(10));
        let got = got.unwrap_or_else(|| panic!("acked row {row} missing"));
        let got = String::from_utf8_lossy(&got).into_owned();
        assert_eq!(&got, val, "row {row} lost its newest acked value");
    }
}

/// The headline scenario: a write-heavy load accumulates store files,
/// background compaction merges them to fewer files with obsolete MVCC
/// versions dropped, and every acked write stays readable with its newest
/// value. Temp files never leak into the final namespace.
#[test]
fn write_heavy_load_is_compacted_in_the_background() {
    let cluster = compaction_cluster(71, true);
    cluster.load_rows(ROWS, &["f0"], 64, true);
    let acked = write_load(&cluster, 120, VALUE_PAD);
    // Let in-flight flushes and compactions drain.
    cluster.run_for(SimDuration::from_secs(15));

    let compactions = cluster.total_compactions();
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
    let amp = cluster.max_read_amplification();
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

    verify_acked(&cluster, &acked.borrow());
}

/// Same load and seed, compaction on vs off: every acked write reads
/// back correctly either way (compaction is invisible to correctness),
/// and the compacted cluster ends with measurably fewer store files.
#[test]
fn compaction_is_read_invisible_and_reduces_files() {
    let run = |compaction: bool| {
        let cluster = compaction_cluster(72, compaction);
        cluster.load_rows(ROWS, &["f0"], 64, true);
        let acked = write_load(&cluster, 90, VALUE_PAD);
        cluster.run_for(SimDuration::from_secs(15));
        verify_acked(&cluster, &acked.borrow());
        cluster.max_read_amplification()
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
    cumulo_dfs::DfsClient::new(&cluster.sim, &cluster.net, &cluster.namenode, node)
}

/// Like [`compaction_cluster`], but with the given policy and leveled
/// budgets small enough that the write load pushes files past L1.
fn policy_cluster(seed: u64, policy: CompactionPolicyKind) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        clients: 6,
        servers: 2,
        regions: 4,
        key_count: ROWS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.min_files = 3;
    cfg.server_cfg.compaction.policy = policy;
    cfg.server_cfg.memstore_flush_bytes = 24 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(500);
    cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(900);
    cfg.server_cfg.compaction.l0_trigger_files = 3;
    cfg.server_cfg.compaction.level_base_bytes = 48 << 10;
    cfg.server_cfg.compaction.level_file_bytes = 24 << 10;
    cfg.server_cfg.compaction.level_ratio = 4.0;
    Cluster::build(cfg)
}

/// The leveled policy under the headline write-heavy scenario: merges
/// run, files land on levels below L0 as range-partitioned runs, read
/// amplification stays bounded, and every acked write stays readable.
#[test]
fn leveled_policy_compacts_into_disjoint_levels() {
    let cluster = policy_cluster(73, CompactionPolicyKind::Leveled);
    cluster.load_rows(ROWS, &["f0"], 64, true);
    let acked = write_load(&cluster, 120, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(15));

    assert!(
        cluster.total_compactions() >= 3,
        "expected several leveled compactions, saw {}",
        cluster.total_compactions()
    );
    let profile = cluster.level_profile();
    assert!(
        profile.len() >= 2 && profile[1..].iter().any(|(files, _)| *files > 0),
        "no files ever landed below L0: {profile:?}"
    );
    let amp = cluster.max_read_amplification();
    assert!(
        amp <= 12,
        "leveled read amplification unbounded: {amp} store files on one region"
    );
    verify_acked(&cluster, &acked.borrow());
}

/// The leveled policy through a server crash/recovery plus a client
/// crash loses no acked data: the levels the failed server built are
/// valid input to the survivor's merges, and replayed writes land in L0
/// above them.
#[test]
fn leveled_policy_under_crash_recovery_loses_no_data() {
    let cluster = policy_cluster(74, CompactionPolicyKind::Leveled);
    cluster.load_rows(ROWS, &["f0"], 64, true);

    // Phase 1: build a leveled stack.
    let acked1 = write_load(&cluster, 40, VALUE_PAD);
    // Phase 2: crash a server while it merges, keep writing.
    cluster.crash_server(0);
    let acked2 = write_load(&cluster, 40, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(10));
    // Phase 3: crash a client, keep writing.
    cluster.crash_client(2);
    let acked3 = write_load(&cluster, 40, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(20));

    assert!(
        cluster.total_compactions() >= 2,
        "the schedule never compacted; test is too weak"
    );
    // Newest acked value per row across all three phases must survive.
    let mut newest: HashMap<u64, (u64, String)> = HashMap::new();
    for acked in [&acked1, &acked2, &acked3] {
        // lint:allow(CD001, reason = "order-independent merge: newest-timestamp-wins fold into a map, commutative because commit timestamps are unique per row")
        for (row, (ts, val)) in acked.borrow().iter() {
            match newest.get(row) {
                Some((old_ts, _)) if *old_ts > *ts => {}
                _ => {
                    newest.insert(*row, (*ts, val.clone()));
                }
            }
        }
    }
    verify_acked(&cluster, &newest);
}

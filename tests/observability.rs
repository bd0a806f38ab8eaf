//! Observability-layer integration tests: journal determinism across
//! identical seeds, seed-shift divergence with internal consistency,
//! registry-view agreement with the per-component accessors the
//! cluster aggregates replaced, and trace-span coverage of the
//! transaction lifecycle.

mod common;

use common::{key, run_txn, small_cluster};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

/// The fixed chaos schedule both determinism tests replay: a batch of
/// transactions, a server crash mid-stream, recovery, then more
/// transactions and reads against the recovered cluster.
fn chaos_run(seed: u64) -> Cluster {
    let cluster = small_cluster(seed);
    for i in 0..12u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 700, "f0", &format!("v{i}"))],
        );
    }
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(15));
    assert!(cluster.all_regions_online(), "failover must complete");
    for i in 12..18u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[(i * 700, "f0", &format!("v{i}"))],
        );
    }
    for i in 0..18u64 {
        let got = cluster.read_cell(key(i * 700), "f0", SimDuration::from_secs(10));
        assert_eq!(got.as_deref(), Some(format!("v{i}").as_bytes()), "row {i}");
    }
    cluster
}

/// Structural invariants every journal must satisfy regardless of seed.
fn assert_journal_consistent(cluster: &Cluster) {
    for (label, journal) in [("events", &cluster.events), ("trace", &cluster.trace)] {
        let entries = journal.entries();
        for pair in entries.windows(2) {
            assert!(
                (pair[0].time, pair[0].seq) < (pair[1].time, pair[1].seq),
                "{label}: entries out of (time, seq) order"
            );
        }
        let counted: u64 = journal.counts().iter().map(|(_, n)| n).sum();
        assert_eq!(
            counted,
            journal.total_recorded(),
            "{label}: per-kind counts must cover every record"
        );
        assert_eq!(
            entries.len() as u64 + journal.dropped(),
            journal.total_recorded(),
            "{label}: retained + dropped must equal total recorded"
        );
    }
    // Every transaction in the schedule ran to completion, so span
    // bookkeeping must balance: one begin per commit-or-abort, and the
    // journal's view must agree with the metrics registry's.
    let trace = &cluster.trace;
    assert_eq!(
        trace.count("txn.begin"),
        trace.count("txn.commit") + trace.count("txn.abort"),
        "every begun transaction must have a terminal span"
    );
    assert_eq!(
        trace.count("txn.commit"),
        cluster.metrics.sum("txn.committed"),
        "trace journal and metrics registry must agree on commits"
    );
    assert_eq!(
        trace.count("txn.abort"),
        cluster.metrics.sum("txn.aborted"),
        "trace journal and metrics registry must agree on aborts"
    );
}

/// Tentpole acceptance: the same chaos schedule at the same seed yields
/// byte-identical journal dumps and metrics snapshots.
#[test]
fn same_seed_chaos_journals_are_byte_identical() {
    let a = chaos_run(31);
    let b = chaos_run(31);
    let events_a = a.events.dump();
    assert!(
        !events_a.is_empty(),
        "chaos run must journal failure events"
    );
    assert_eq!(events_a, b.events.dump(), "failure-event journals diverged");
    let trace_a = a.trace.dump();
    assert!(!trace_a.is_empty(), "chaos run must journal trace spans");
    assert_eq!(trace_a, b.trace.dump(), "trace journals diverged");
    assert_eq!(
        a.metrics.snapshot().render(),
        b.metrics.snapshot().render(),
        "metrics snapshots diverged"
    );
    assert_journal_consistent(&a);
}

/// What the fixed schedule records, kind by kind, in both journals — a
/// record lost or gained anywhere between a component and its journal
/// changes a row here.
#[test]
fn chaos_run_journal_counts_are_pinned() {
    let cluster = chaos_run(31);
    assert_eq!(
        cluster.events.counts(),
        [
            ("log.truncate", 2),
            ("recovery.staged", 1),
            ("region.assign", 2),
            ("region.online", 6),
            ("region.recovered", 2),
            ("region.replay_start", 2),
            ("server.failover", 1),
            ("threshold.tf", 5),
            ("threshold.tp", 3),
        ]
    );
    assert_eq!(
        cluster.trace.counts(),
        [
            ("rpc.get", 18),
            ("rpc.put", 25),
            ("txn.begin", 18),
            ("txn.commit", 18),
        ]
    );
}

/// Shifting the seed must change the recorded history (different
/// timings) while every structural invariant still holds.
#[test]
fn seed_shift_changes_journals_but_keeps_them_consistent() {
    let a = chaos_run(31);
    let b = chaos_run(32);
    assert_ne!(
        a.trace.dump(),
        b.trace.dump(),
        "different seeds should time spans differently"
    );
    assert_journal_consistent(&a);
    assert_journal_consistent(&b);
}

/// The registry-backed cluster aggregates must agree with a direct walk
/// over the per-component accessors they replaced.
#[test]
fn registry_views_agree_with_component_accessors() {
    let cluster = small_cluster(33);
    for i in 0..20u64 {
        run_txn(
            &cluster,
            (i % 3) as usize,
            &[
                (i * 400, "f0", &format!("a{i}")),
                (i * 400 + 9, "f0", &format!("b{i}")),
            ],
        );
    }
    cluster.run_for(SimDuration::from_secs(5));
    for i in 0..20u64 {
        cluster.read_cell(key(i * 400), "f0", SimDuration::from_secs(10));
    }

    let committed: u64 = cluster.clients.iter().map(|c| c.committed_count()).sum();
    assert_eq!(cluster.total_committed(), committed);
    assert_eq!(committed, 20, "schedule commits exactly 20 transactions");
    let aborted: u64 = cluster.clients.iter().map(|c| c.aborted_count()).sum();
    assert_eq!(cluster.total_aborted(), aborted);

    let totals = cluster.filter_totals();
    let gets: u64 = cluster.servers.iter().map(|s| s.gets_served()).sum();
    assert_eq!(totals.gets_served, gets);
    let probes: u64 = cluster
        .servers
        .iter()
        .map(|s| s.filter_stats().probes.get())
        .sum();
    assert_eq!(totals.probes, probes);
    let filter_bytes: u64 = cluster
        .servers
        .iter()
        .map(|s| s.filter_stats().filter_bytes.get())
        .sum();
    assert_eq!(totals.filter_bytes, filter_bytes);

    let comp = cluster.compaction_totals();
    let completed: u64 = cluster
        .servers
        .iter()
        .map(|s| s.compaction_stats().completed.get())
        .sum();
    assert_eq!(comp.completed, completed);
    assert_eq!(cluster.total_compactions(), completed);
    let amp = cluster
        .servers
        .iter()
        .map(|s| s.compaction_stats().read_amplification.get())
        .max()
        .unwrap_or(0);
    assert_eq!(cluster.max_read_amplification(), amp);

    // Element-wise level profile: registry gauge vectors vs per-server
    // walks.
    let mut levels: Vec<(u64, u64)> = Vec::new();
    for s in &cluster.servers {
        for (i, (files, bytes)) in s.level_profile().into_iter().enumerate() {
            if levels.len() <= i {
                levels.resize(i + 1, (0, 0));
            }
            levels[i].0 += files;
            levels[i].1 += bytes;
        }
    }
    assert_eq!(cluster.level_profile(), levels);

    // The recovery log's rows. The schedule ran one transaction at a
    // time, so every record found the log idle: one batch per append,
    // each acknowledged after exactly one device round (a write and a
    // sync of under a kilobyte) — the histogram's floor and its ceiling.
    let log = cluster.tm.log();
    assert_eq!(log.append_count(), 20);
    assert_eq!(cluster.metrics.sum("tm.log.appends"), log.append_count());
    assert_eq!(cluster.metrics.sum("tm.log.batches"), log.batch_count());
    assert_eq!(log.batch_count(), log.append_count());
    let disk = cumulo_txn::RecoveryLogConfig::default().disk;
    let device_round = disk.write_time(1) + disk.sync_time(1);
    assert_eq!(log.ack_latency().min(), device_round.nanos());
    assert_eq!(log.ack_latency().max(), device_round.nanos());

    // The snapshot must render per-component label sets for the core
    // metric families.
    let snapshot = cluster.metrics.snapshot();
    assert_eq!(snapshot.get("tm.log.ack_ns.count"), Some(20));
    assert_eq!(
        snapshot.get("tm.log.ack_ns.max"),
        Some(device_round.nanos())
    );
    let keys: Vec<String> = snapshot.entries().map(|(k, _)| k.to_owned()).collect();
    for expected in [
        "txn.committed{client=c0}",
        "store.gets{server=rs0}",
        "store.gets{server=rs1}",
        "store.read_amplification{server=rs0}",
        "rm.client_recoveries",
        "master.failovers",
        "tm.log.appends",
        "tm.log.batches",
        "tm.log.ack_ns.p99",
    ] {
        assert!(
            keys.iter().any(|k| k == expected),
            "snapshot must contain {expected}; got {} keys",
            keys.len()
        );
    }
}

/// Trace spans cover the whole transaction lifecycle and carry the
/// labels downstream tooling keys on.
#[test]
fn trace_spans_cover_txn_lifecycle_and_rpcs() {
    let cluster = small_cluster(34);
    run_txn(&cluster, 0, &[(5, "f0", "x"), (9000, "f0", "y")]);
    cluster.run_for(SimDuration::from_secs(2));
    cluster.read_cell(key(5), "f0", SimDuration::from_secs(10));

    let trace = &cluster.trace;
    assert!(trace.count("txn.begin") >= 1);
    assert!(trace.count("txn.commit") >= 1);
    assert!(trace.count("rpc.put") >= 1);
    assert!(trace.count("rpc.get") >= 1);
    let entries = trace.entries();
    let begin = entries
        .iter()
        .find(|e| e.kind == "txn.begin")
        .expect("begin span");
    assert!(
        begin.detail.contains("client=c0") && begin.detail.contains("snapshot="),
        "begin span must carry client and snapshot: {}",
        begin.detail
    );
    let commit = entries
        .iter()
        .find(|e| e.kind == "txn.commit")
        .expect("commit span");
    assert!(
        commit.detail.contains("writes=2"),
        "commit span must carry the write-set size: {}",
        commit.detail
    );
    assert!(
        commit.seq > begin.seq,
        "commit span must follow its begin span"
    );
}

/// A limit-bounded scan reads what it returns, not the region: the
/// server's merge seeks to `start` and stops at the limit, so ten cells
/// out of a 50 000-row region cost a few dozen stored versions, counted
/// in `store.scan.cells_examined` and on the `rpc.scan` span.
#[test]
fn scan_examines_what_it_returns_not_the_region() {
    const ROWS: u64 = 50_000;
    let cluster = Cluster::build(ClusterConfig {
        seed: 35,
        clients: 1,
        servers: 1,
        regions: 1,
        key_count: ROWS,
        ..ClusterConfig::default()
    });
    cluster.load_rows(ROWS, &["f0"], 16, false);
    // A second, newer version of two of the scanned rows, in the memstore.
    run_txn(&cluster, 0, &[(25_000, "f0", "x"), (25_003, "f0", "y")]);
    cluster.run_for(SimDuration::from_secs(2));

    let before = cluster.metrics.sum("store.scan.cells_examined");
    let page: Rc<RefCell<Option<Vec<_>>>> = Rc::new(RefCell::new(None));
    let p = page.clone();
    cluster.client(0).begin(move |txn| {
        let txn = txn.expect("begin on live client");
        txn.scan(key(25_000), None, 10, move |r| {
            *p.borrow_mut() = Some(r.expect("scan"));
        });
    });
    cluster.run_for(SimDuration::from_secs(2));
    let page = page.borrow_mut().take().expect("scan completed");
    assert_eq!(page.len(), 10);
    assert_eq!(&page[0].2[..], b"x");
    assert_eq!(&page[3].2[..], b"y");

    // Two sources (memstore, loaded file) of at most one version per
    // cell each, plus the head each source has waiting when the merge
    // stops.
    let (sources, versions_per_cell) = (2, 2);
    let examined = cluster.metrics.sum("store.scan.cells_examined") - before;
    assert!(
        (10..=10 * versions_per_cell + sources).contains(&examined),
        "examined {examined} stored versions for 10 cells of {ROWS}"
    );
    let span = cluster
        .trace
        .entries()
        .into_iter()
        .rev()
        .find(|e| e.kind == "rpc.scan")
        .expect("scan span");
    assert!(
        span.detail
            .ends_with(&format!("returned=10 examined={examined}")),
        "{}",
        span.detail
    );
}

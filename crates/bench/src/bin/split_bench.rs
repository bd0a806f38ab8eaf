//! Online region splits under a hotspot workload, plus a read-divergence
//! audit against a no-split control.
//!
//! **Phase 1 (`hotspot`)**: a YCSB hotspot workload concentrates ~90% of
//! its operations on ~2% of the keys — all inside one region — on a
//! cluster with online splits enabled and a low split threshold. The hot
//! region must split (at least twice: the parent, then a hot daughter)
//! while the workload keeps running; the CSV row reports splits applied,
//! final region count, throughput and tail latency.
//!
//! **Phase 2 (`divergence`)**: the same *pregenerated* operation stream
//! (from a private LCG, independent of the simulation RNG, so both runs
//! execute identical logical transactions) runs once against a
//! splits-enabled cluster and once against a splits-disabled control.
//! Each run records its transactions in the cluster's history
//! (`Cluster::attach_history`); after the workload drains, every written
//! cell is read back through the cluster at its newest version and the
//! history checker checks the read-back against the recorded commits.
//! Both runs must report **zero divergence** (no read-back violation):
//! splits must not lose a cell, serve a stale value, or resurrect an
//! overwritten one.
//!
//! Run: `cargo run --release -p cumulo-bench --bin split_bench`
//! (`CUMULO_QUICK=1` for the CI smoke run). CSV on stdout is
//! byte-identical across runs of the same build (determinism probe — CI
//! runs it twice and diffs).

use cumulo_core::{Cluster, ClusterConfig, TransactionalClient};
use cumulo_sim::{Network, SimDuration};
use cumulo_ycsb::{KeyDistribution, Workload};
use std::cell::Cell;
use std::rc::Rc;

fn split_cluster(seed: u64, splits: bool, rows: u64) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        servers: 2,
        clients: 8,
        regions: 2,
        key_count: rows,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.min_files = 4;
    cfg.server_cfg.split.enabled = splits;
    // Low enough that the hot region's file stack crosses it quickly.
    cfg.server_cfg.split.threshold_bytes = 192 << 10;
    cfg.server_cfg.memstore_flush_bytes = 32 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.split.check_interval = SimDuration::from_millis(500);
    cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(700);
    Cluster::build(cfg)
}

fn main() {
    let quick = cumulo_bench::quick();
    let rows: u64 = if quick { 4_000 } else { 20_000 };
    let phase_secs = if quick { 25 } else { 90 };
    let audit_txns: u64 = if quick { 900 } else { 6_000 };

    println!(
        "phase,splits_enabled,splits_applied,rolled_back,regions,throughput_tps,mean_ms,\
         p99_ms,committed,divergent_cells,cells_audited"
    );

    // ------------------------------------------------------------------
    // Phase 1: hotspot YCSB load on a splits-enabled cluster.
    // ------------------------------------------------------------------
    let cluster = split_cluster(8181, true, rows);
    cluster.load_rows(rows, &["f0"], 100, true);
    let hotspot = Workload {
        record_count: rows,
        threads: 16,
        ops_per_txn: 10,
        read_ratio: 0.3,
        field_len: 200,
        distribution: KeyDistribution::HotSpot,
        // ~2% of the keys — the first region's lower slice — take 90% of
        // the traffic: exactly the skew a static map cannot absorb.
        hotspot_keys_fraction: 0.02,
        hotspot_ops_fraction: 0.9,
        window: SimDuration::from_secs(5),
        ..Workload::default()
    };
    let report = cumulo_ycsb::Driver::new(&cluster, hotspot).run(
        &cluster,
        SimDuration::from_secs(2),
        SimDuration::from_secs(2 + phase_secs),
    );
    cluster.run_for(SimDuration::from_secs(5));
    let applied = cluster.metrics.sum("master.split.applied");
    let rolled_back = cluster.metrics.sum("master.split.rolled_back");
    cluster.assert_region_partition();
    let regions = cluster.master.snapshot_map().regions().len();
    println!(
        "hotspot,true,{applied},{rolled_back},{regions},{:.1},{:.2},{:.2},{},,",
        report.throughput_tps, report.mean_ms, report.p99_ms, report.committed,
    );
    eprintln!(
        "[split_bench] hotspot: {applied} splits applied ({rolled_back} rolled back), \
         {regions} regions, {:.1} tps, p99 {:.2} ms",
        report.throughput_tps, report.p99_ms
    );
    assert!(
        applied >= 2,
        "hotspot workload must trigger at least 2 online splits, saw {applied}"
    );

    // ------------------------------------------------------------------
    // Phase 2: identical pregenerated op stream, split vs control.
    // ------------------------------------------------------------------
    for (label, splits) in [("split", true), ("control", false)] {
        let (applied, divergent, audited, committed) = run_audit(splits, rows, audit_txns);
        println!("divergence_{label},{splits},{applied},,,,,,{committed},{divergent},{audited}");
        eprintln!(
            "[split_bench] divergence/{label}: {applied} splits, {committed} committed, \
             {divergent}/{audited} divergent cells"
        );
        assert_eq!(
            divergent, 0,
            "{label}: read-back cells diverged from the recorded commits"
        );
        if splits {
            assert!(applied >= 2, "audit run must also split, saw {applied}");
        }
    }
}

/// Generates the deterministic op stream (4 blind puts per transaction;
/// values derive from the op index, not from reads, so the stream is
/// schedule-independent) from a private LCG — the simulation RNG is
/// never touched, so split and control runs execute the same logical
/// transactions regardless of scheduling.
fn gen_stream(rows: u64, txns: u64) -> Vec<Vec<(u64, u64)>> {
    let mut x: u64 = 0x9E3779B97F4A7C15;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 11
    };
    let hot = (rows / 50).max(1);
    (0..txns)
        .map(|i| {
            (0..4)
                .map(|j| {
                    let r = next();
                    // 90% of writes land in the hot prefix.
                    let key = if r % 10 < 9 {
                        next() % hot
                    } else {
                        next() % rows
                    };
                    (key, i * 8 + j)
                })
                .collect()
        })
        .collect()
}

/// Shared state of one audit run.
struct Audit {
    net: Rc<Network>,
    clients: Vec<TransactionalClient>,
    stream: Vec<Vec<(u64, u64)>>,
    committed: Cell<u64>,
    finished: Cell<u64>,
}

/// Thread `idx % stride` executes transactions `idx, idx+stride, …`
/// closed-loop: each begins when the previous one finished, one step
/// later at the finished transaction's client.
fn run_stream_txn(audit: Rc<Audit>, idx: usize, stride: usize) {
    if idx >= audit.stream.len() {
        return;
    }
    let client = audit.clients[idx % audit.clients.len()].clone();
    let (node, writes) = (client.node(), audit.stream[idx].clone());
    client.begin(move |txn| {
        let txn = txn.expect("audit clients never crash");
        for (key, tag) in &writes {
            txn.put(format!("user{key:012}"), "f0", format!("w{tag}"))
                .expect("txn is active");
        }
        let audit2 = Rc::clone(&audit);
        txn.commit(move |result| {
            audit2.finished.set(audit2.finished.get() + 1);
            if result.is_ok() {
                audit2.committed.set(audit2.committed.get() + 1);
            }
            let next = idx + stride;
            let audit3 = Rc::clone(&audit2);
            audit2.net.after(node, SimDuration::ZERO, move || {
                run_stream_txn(audit3, next, stride);
            });
        });
    });
}

/// Runs the audit stream against one cluster; returns `(splits_applied,
/// divergent_cells, cells_audited, committed)`.
fn run_audit(splits: bool, rows: u64, txns: u64) -> (u64, u64, u64, u64) {
    let cluster = split_cluster(8282, splits, rows);
    cluster.load_rows(rows, &["f0"], 64, true);
    let history = cluster.attach_history();
    let audit = Rc::new(Audit {
        net: Rc::clone(&cluster.net),
        clients: cluster.clients.clone(),
        stream: gen_stream(rows, txns),
        committed: Cell::new(0),
        finished: Cell::new(0),
    });
    let threads = audit.clients.len();
    for t in 0..threads {
        run_stream_txn(Rc::clone(&audit), t, threads);
    }
    let deadline = cluster.now() + SimDuration::from_secs(1_200);
    while audit.finished.get() < txns && cluster.now() < deadline {
        cluster.run_for(SimDuration::from_millis(500));
    }
    assert_eq!(audit.finished.get(), txns, "audit stream did not drain");
    cluster.run_for(SimDuration::from_secs(20));
    cluster.assert_region_partition();

    let violations = history.check();
    assert!(violations.is_empty(), "history violations: {violations:#?}");
    let read_back = cluster.read_back(&history);
    let divergent = history.check_read_back(&read_back);
    for violation in &divergent {
        eprintln!("[split_bench] DIVERGENCE {violation}");
    }
    (
        cluster.metrics.sum("master.split.applied"),
        divergent.len() as u64,
        read_back.len() as u64,
        audit.committed.get(),
    )
}

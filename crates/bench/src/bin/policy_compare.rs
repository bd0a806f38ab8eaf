//! Compaction under load: the size-tiered file layout under write-heavy,
//! mixed and scan-heavy workloads, plus a backpressure A/B under a
//! compaction storm.
//!
//! The layout phases answer the read-amplification question: while
//! flushes keep feeding the file stack, how many store files does a
//! point get consult? Bloom filters are switched OFF for these phases so
//! only key-range pruning hides files — what remains is the *layout*
//! bound. Size-tiered files overlap freely, so consulted files per get
//! tracks the standing file backlog. Scans cannot use per-key filters
//! even when they are on, so for them the backlog is the bound
//! unconditionally.
//!
//! The storm phase answers the scheduling question: with merges made
//! deliberately expensive (high per-entry CPU) and a foreground offered
//! at ~2/3 of peak capacity, does deferring due merges while the
//! handlers are busy (the deficit scheduler) keep foreground p99 from
//! collapsing?
//!
//! Run: `cargo run --release -p cumulo-bench --bin policy_compare`
//! (`CUMULO_QUICK=1` for a scaled-down smoke run). CSV on stdout is
//! byte-identical across runs of the same build (determinism probe).

use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_ycsb::{Driver, Workload};

fn main() {
    let quick = cumulo_bench::quick();
    let rows: u64 = if quick { 5_000 } else { 20_000 };
    let phase_secs = if quick { 25 } else { 60 };

    println!(
        "phase,policy,store_files_max,throughput_tps,mean_ms,p95_ms,p99_ms,\
         consulted_per_get,compactions,deferred,forced,flush_stalls,stall_ms"
    );

    let label = "size_tiered";
    let mut cfg = ClusterConfig {
        seed: 5151,
        servers: 2,
        clients: 24,
        regions: 4,
        key_count: rows,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.min_files = 4;
    // Flush every ~64 KiB so writes outrun merging and a standing
    // multi-file backlog exists while we measure.
    cfg.server_cfg.memstore_flush_bytes = 64 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(700);
    // The workload holds the servers saturated, so an untouched
    // deficit bank would gate every merge; a small bank keeps the
    // backlog draining while still yielding to the foreground.
    cfg.server_cfg.compaction.max_deferrals = 2;
    let cluster = Cluster::build(cfg);
    cluster.load_rows(rows, &["f0"], 100, true);
    // Layout phases: only range pruning hides files (see module docs).
    cluster.set_bloom_filters(false);

    // Phase 1: write-heavy — the stack churns while its reads probe it.
    let write = Workload {
        record_count: rows,
        threads: 24,
        ops_per_txn: 10,
        read_ratio: 0.3,
        window: SimDuration::from_secs(5),
        ..Workload::default()
    };
    measure(&cluster, write, phase_secs, "write_heavy", label);

    // Phase 2: balanced mix over the standing backlog.
    let mixed = Workload {
        record_count: rows,
        threads: 24,
        ops_per_txn: 10,
        read_ratio: 0.7,
        window: SimDuration::from_secs(5),
        ..Workload::default()
    };
    measure(&cluster, mixed, phase_secs / 2, "mixed", label);

    // Phase 3: scan-heavy with continued writes — filters could not
    // help scans anyway; the file backlog is the only bound.
    let scans = Workload {
        record_count: rows,
        threads: 24,
        ops_per_txn: 4,
        read_ratio: 0.3,
        scan_ratio: 0.6,
        scan_len: 50,
        window: SimDuration::from_secs(5),
        ..Workload::default()
    };
    measure(&cluster, scans, phase_secs / 2, "scan_heavy", label);

    // Backpressure A/B: expensive merges + a bursty foreground (2 s of
    // closed-loop saturation, 2 s idle). Without the deficit scheduler a
    // due merge lands on the handlers immediately — including mid-burst —
    // and foreground tail latency collapses; with it, merges becoming due
    // during a burst wait for the idle window (bounded by the deficit
    // bank, so read amplification still converges).
    for (label, backpressure) in [("bp_off", false), ("bp_on", true)] {
        let mut cfg = ClusterConfig {
            seed: 5252,
            servers: 2,
            clients: 24,
            regions: 4,
            key_count: rows,
            ..ClusterConfig::default()
        };
        cfg.server_cfg.compaction.min_files = 3;
        cfg.server_cfg.memstore_flush_bytes = 48 << 10;
        cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
        cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(700);
        cfg.server_cfg.compaction.backpressure = backpressure;
        // Any window busier than a half-loaded server counts as "burst":
        // merges wait for the genuinely idle gaps.
        cfg.server_cfg.compaction.utilization_threshold = 0.5;
        // A compaction storm: every merged version costs real handler
        // CPU, so each merge occupies a handler for tens of milliseconds
        // — a direct collision with any burst it lands in.
        cfg.server_cfg.compaction.merge_service_per_entry = SimDuration::from_micros(30);
        let cluster = Cluster::build(cfg);
        cluster.load_rows(rows, &["f0"], 100, true);
        // Bursts offered at ~70% of single-burst capacity: busy enough
        // that a mid-burst merge wrecks the tail, idle enough between
        // bursts that a deferred merge costs nothing.
        let storm = Workload {
            record_count: rows,
            threads: 24,
            ops_per_txn: 10,
            read_ratio: 0.5,
            target_tps: Some(380.0),
            burst_on: SimDuration::from_secs(2),
            burst_off: SimDuration::from_secs(2),
            window: SimDuration::from_secs(5),
            ..Workload::default()
        };
        measure(&cluster, storm, phase_secs, "storm", label);
    }
}

/// Runs one measured workload phase and prints its row: the driver's
/// report, the widest file stack at the end, and the compaction and
/// filter counter deltas of exactly that phase.
fn measure(cluster: &Cluster, workload: Workload, secs: u64, phase: &str, policy: &str) {
    let before = cluster.metrics.snapshot();
    let r = Driver::new(cluster, workload).run(
        cluster,
        SimDuration::from_secs(2),
        SimDuration::from_secs(2 + secs),
    );
    let delta = cluster.metrics.snapshot().diff(&before);
    let compaction = |name: &str| delta.sum(&format!("store.compaction.{name}"));
    let (completed, deferred) = (compaction("completed"), compaction("deferred"));
    let (forced, flush_stalls) = (compaction("forced"), compaction("flush_stalls"));
    let stall_ms = compaction("stall_ns") as f64 / 1e6;
    let files_max = cluster.metrics.max("store.read_amplification");
    let gets = delta.sum("store.gets");
    let consulted_per_get = if gets == 0 {
        0.0
    } else {
        delta.sum("store.filter.files_consulted") as f64 / gets as f64
    };
    println!(
        "{phase},{policy},{files_max},{:.1},{:.2},{:.2},{:.2},{consulted_per_get:.2},\
         {completed},{deferred},{forced},{flush_stalls},{stall_ms:.1}",
        r.throughput_tps, r.mean_ms, r.p95_ms, r.p99_ms,
    );
    eprintln!(
        "[policy_compare] {phase:>11} {policy:>11}: files={files_max:2} {:7.1} tps \
         p99 {:7.2} ms consulted/get {consulted_per_get:5.2} ({completed} compactions, \
         {deferred} deferred, {flush_stalls} stalls)",
        r.throughput_tps, r.p99_ms,
    );
}

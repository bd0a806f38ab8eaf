//! Compaction-policy comparison: size-tiered versus leveled under
//! write-heavy, mixed and scan-heavy workloads, plus a backpressure A/B
//! under a compaction storm.
//!
//! The policy phases answer the layout question: while flushes keep
//! feeding the file stack, how many store files does a point get
//! consult under each policy? Bloom filters are switched OFF for these
//! phases so only key-range pruning hides files — what remains is the
//! *layout* bound. Size-tiered files overlap freely, so consulted files
//! per get tracks the standing file backlog; leveled files below L0 are
//! range-disjoint, so it tracks the level count (L0 + one file per
//! deeper level). Scans cannot use per-key filters even when they are
//! on, which makes the disjoint layout matter for them unconditionally.
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

use cumulo_bench::report::{kv, print_timeline, report_fields, BenchArgs, BenchReport};
use cumulo_core::{Cluster, ClusterConfig, CompactionTotals, FilterTotals};
use cumulo_sim::SimDuration;
use cumulo_store::CompactionPolicyKind;
use cumulo_ycsb::Workload;

fn main() {
    let args = BenchArgs::parse();
    let quick = cumulo_bench::quick();
    let rows: u64 = if quick { 5_000 } else { 20_000 };
    let phase_secs = if quick { 25 } else { 60 };
    let mut rep = BenchReport::new("policy_compare");
    rep.config("rows", rows);
    rep.config("phase_secs", phase_secs as u64);
    rep.config("quick", quick);

    println!(
        "phase,policy,store_files_max,levels,throughput_tps,mean_ms,p95_ms,p99_ms,\
         consulted_per_get,compactions,deferred,forced,flush_stalls,stall_ms"
    );

    for (label, policy) in [
        ("size_tiered", CompactionPolicyKind::SizeTiered),
        ("leveled", CompactionPolicyKind::Leveled),
    ] {
        let mut cfg = ClusterConfig {
            seed: 5151,
            servers: 2,
            clients: 24,
            regions: 4,
            key_count: rows,
            ..ClusterConfig::default()
        };
        cfg.server_cfg.compaction.min_files = 4;
        cfg.server_cfg.compaction.policy = policy;
        // Flush every ~64 KiB so writes outrun merging and a standing
        // multi-file backlog exists while we measure; partition leveled
        // runs into ~96 KiB files so levels hold several disjoint files.
        cfg.server_cfg.memstore_flush_bytes = 64 << 10;
        cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
        cfg.server_cfg.compaction.check_interval = SimDuration::from_millis(700);
        cfg.server_cfg.compaction.level_base_bytes = 384 << 10;
        cfg.server_cfg.compaction.level_file_bytes = 96 << 10;
        cfg.server_cfg.compaction.level_ratio = 6.0;
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
        let (report, totals, filters) = measure(&cluster, write, phase_secs, "write_heavy", &args);
        emit(
            "write_heavy",
            label,
            &cluster,
            &report,
            &totals,
            &filters,
            &mut rep,
        );

        // Phase 2: balanced mix over the standing backlog.
        let mixed = Workload {
            record_count: rows,
            threads: 24,
            ops_per_txn: 10,
            read_ratio: 0.7,
            window: SimDuration::from_secs(5),
            ..Workload::default()
        };
        let (report, totals, filters) = measure(&cluster, mixed, phase_secs / 2, "mixed", &args);
        emit(
            "mixed", label, &cluster, &report, &totals, &filters, &mut rep,
        );

        // Phase 3: scan-heavy with continued writes — filters could not
        // help scans anyway; the disjoint layout is the only bound.
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
        let (report, totals, filters) =
            measure(&cluster, scans, phase_secs / 2, "scan_heavy", &args);
        emit(
            "scan_heavy",
            label,
            &cluster,
            &report,
            &totals,
            &filters,
            &mut rep,
        );
        rep.cluster(label, &cluster);
    }

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
        let (report, totals, filters) = measure(&cluster, storm, phase_secs, label, &args);
        emit(
            "storm", label, &cluster, &report, &totals, &filters, &mut rep,
        );
        rep.cluster(&format!("storm_{label}"), &cluster);
    }

    rep.write(&args);
}

/// Runs one measured workload phase and returns the report plus the
/// compaction/filter counter deltas for exactly that phase.
fn measure(
    cluster: &Cluster,
    workload: Workload,
    secs: u64,
    tag: &str,
    args: &BenchArgs,
) -> (cumulo_ycsb::DriverReport, CompactionTotals, FilterTotals) {
    let comp0 = cluster.compaction_totals();
    let filt0 = cluster.filter_totals();
    let driver = cumulo_ycsb::Driver::new(cluster, workload);
    let report = driver.run(
        cluster,
        SimDuration::from_secs(2),
        SimDuration::from_secs(2 + secs),
    );
    if args.timeline {
        print_timeline(tag, &driver.windows(), driver.window());
    }
    (
        report,
        cluster.compaction_totals().since(&comp0),
        cluster.filter_totals().since(&filt0),
    )
}

#[allow(clippy::too_many_arguments)]
fn emit(
    phase: &str,
    policy: &str,
    cluster: &Cluster,
    r: &cumulo_ycsb::DriverReport,
    c: &CompactionTotals,
    f: &FilterTotals,
    rep: &mut BenchReport,
) {
    let mut fields = vec![kv("phase", phase), kv("policy", policy)];
    fields.extend(report_fields(r));
    fields.extend([
        kv("store_files_max", cluster.max_read_amplification()),
        kv("consulted_per_get", f.consulted_per_get()),
        kv("compactions", c.completed),
        kv("deferred", c.deferred),
        kv("forced", c.forced),
        kv("flush_stalls", c.flush_stalls),
        kv("stall_ms", c.stall_ns as f64 / 1e6),
    ]);
    rep.phase(fields);
    let levels: Vec<String> = cluster
        .level_profile()
        .iter()
        .map(|(files, _)| files.to_string())
        .collect();
    let levels = levels.join(":");
    println!(
        "{phase},{policy},{},{levels},{:.1},{:.2},{:.2},{:.2},{:.2},{},{},{},{},{:.1}",
        cluster.max_read_amplification(),
        r.throughput_tps,
        r.mean_ms,
        r.p95_ms,
        r.p99_ms,
        f.consulted_per_get(),
        c.completed,
        c.deferred,
        c.forced,
        c.flush_stalls,
        c.stall_ns as f64 / 1e6,
    );
    eprintln!(
        "[policy_compare] {phase:>11} {policy:>11}: files={:2} levels={levels:<8} {:7.1} tps \
         p99 {:7.2} ms consulted/get {:5.2} ({} compactions, {} deferred, {} stalls)",
        cluster.max_read_amplification(),
        r.throughput_tps,
        r.p99_ms,
        f.consulted_per_get(),
        c.completed,
        c.deferred,
        c.flush_stalls,
    );
}

//! The million-key scale campaign: a simulated-hours soak that drives
//! every structural mechanism at once and emits the scaling-cliff
//! evidence the campaign exists to collect.
//!
//! The full run loads **1.2 million keys** into 64 regions sized well
//! past the split threshold, so the first simulated minutes are a
//! mass-split storm (64 → ~256 regions, i.e. **hundreds of online
//! splits**) absorbed while serving load. Four workload phases then run
//! back to back — zipfian, hotspot, scan-heavy, read-modify-write — for
//! a combined **two-plus simulated hours**, with the key-skew drifting
//! at every phase boundary. A fixed chaos schedule fires inside each
//! phase: rolling region-server crashes (permanent, crash-stop), client
//! crashes (the recovery manager replays their interrupted commits),
//! and datanode crashes (the namenode's sweep re-replicates every
//! under-replicated file). At every phase boundary the cluster must
//! converge back to fully-online, the region map must still partition
//! the key space (also asserted **every step** mid-phase, while splits,
//! merges, moves and failovers race), and a consolidation sweep fires
//! admin merges over adjacent co-hosted pairs — the crash-packed
//! placements the previous chaos created.
//!
//! The CSV row per phase reports throughput/latency plus cumulative
//! structural counts, the last of them `master.placement.cost`: the
//! work the placements of the soak's failover storms did, one unit per
//! live server examined.
//!
//! Run: `cargo run --release -p cumulo-bench --bin scale_bench`
//! (`--quick` or `CUMULO_QUICK=1` for the CI smoke run). CSV on stdout
//! is byte-identical across runs of the same build (determinism probe —
//! CI runs it twice and diffs); `--emit-json PATH` writes the
//! `BENCH_scale.json` snapshot.

use cumulo_bench::report::{kv, print_timeline, report_fields, BenchArgs, BenchReport};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_ycsb::{Driver, KeyDistribution, Workload};

/// One chaos action at a fixed offset from a phase's start.
#[derive(Copy, Clone, Debug)]
enum Chaos {
    /// Crash-stop region server `i` (never restarts; rolling victims).
    Server(usize),
    /// Crash client process `i` (its in-flight commits get recovered).
    Client(usize),
    /// Crash datanode `i`'s node (triggers namenode re-replication).
    DataNode(usize),
}

/// The campaign's dimensions, full-scale or `--quick`.
struct Dims {
    rows: u64,
    servers: usize,
    clients: usize,
    regions: usize,
    threads: usize,
    target_tps: f64,
    warmup: SimDuration,
    phase: SimDuration,
    /// Step size of the chaos/audit loop.
    step: SimDuration,
    /// Convergence allowance at each phase boundary.
    settle: SimDuration,
    split_threshold: usize,
    /// Admin merges fired per consolidation sweep.
    merge_cap: u32,
    /// Per-phase chaos, as (seconds after phase start, action).
    schedule: Vec<Vec<(u64, Chaos)>>,
    /// Final assertions.
    min_splits: u64,
    min_peak_regions: usize,
}

impl Dims {
    fn new(quick: bool) -> Dims {
        if quick {
            Dims {
                rows: 60_000,
                servers: 6,
                clients: 12,
                regions: 16,
                threads: 16,
                target_tps: 60.0,
                warmup: SimDuration::from_secs(5),
                phase: SimDuration::from_secs(150),
                step: SimDuration::from_millis(500),
                settle: SimDuration::from_secs(90),
                split_threshold: 192 << 10,
                merge_cap: 6,
                schedule: vec![
                    vec![(60, Chaos::Server(5))],
                    vec![(50, Chaos::Client(0))],
                    vec![(70, Chaos::Server(4)), (100, Chaos::DataNode(0))],
                    vec![(60, Chaos::Client(1))],
                ],
                min_splits: 10,
                min_peak_regions: 24,
            }
        } else {
            Dims {
                rows: 1_200_000,
                servers: 12,
                clients: 24,
                regions: 64,
                threads: 48,
                target_tps: 120.0,
                warmup: SimDuration::from_secs(60),
                phase: SimDuration::from_secs(1_800),
                step: SimDuration::from_secs(2),
                settle: SimDuration::from_secs(240),
                split_threshold: 1 << 20,
                merge_cap: 16,
                schedule: vec![
                    vec![(600, Chaos::Server(11)), (1_200, Chaos::DataNode(0))],
                    vec![(500, Chaos::Server(10)), (1_000, Chaos::Client(0))],
                    vec![(700, Chaos::Server(9)), (1_300, Chaos::DataNode(1))],
                    vec![(600, Chaos::Server(8)), (1_100, Chaos::Client(1))],
                ],
                min_splits: 150,
                min_peak_regions: 200,
            }
        }
    }
}

/// The four workload phases: skew drifts at every boundary.
fn phase_workload(name: &str, d: &Dims) -> Workload {
    let base = Workload {
        record_count: d.rows,
        threads: d.threads,
        target_tps: Some(d.target_tps),
        ops_per_txn: 8,
        field_len: 100,
        window: SimDuration::from_secs(30),
        ..Workload::default()
    };
    match name {
        "zipfian" => Workload {
            distribution: KeyDistribution::Zipfian,
            read_ratio: 0.5,
            ..base
        },
        "hotspot" => Workload {
            distribution: KeyDistribution::HotSpot,
            hotspot_keys_fraction: 0.01,
            hotspot_ops_fraction: 0.9,
            read_ratio: 0.3,
            ..base
        },
        "scan_heavy" => Workload {
            distribution: KeyDistribution::Uniform,
            read_ratio: 0.5,
            scan_ratio: 0.4,
            scan_len: 25,
            ..base
        },
        "rmw" => Workload {
            distribution: KeyDistribution::Zipfian,
            read_ratio: 0.1,
            rmw_ratio: 0.85,
            ..base
        },
        other => panic!("unknown phase {other}"),
    }
}

fn build_cluster(d: &Dims) -> Cluster {
    let mut cfg = ClusterConfig {
        seed: 0x5CA1E,
        servers: d.servers,
        clients: d.clients,
        regions: d.regions,
        key_count: d.rows,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = d.split_threshold;
    cfg.server_cfg.merge.enabled = true;
    // Low candidacy threshold: the timer only collapses genuinely
    // shrunken pairs; phase-boundary consolidation sweeps drive the
    // bulk of the merges via the admin path.
    cfg.server_cfg.merge.threshold_bytes = 64 << 10;
    cfg.master_cfg.moves.enabled = true;
    cfg.server_cfg.memstore_flush_bytes = 256 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(500);
    cfg.server_cfg.split.check_interval = SimDuration::from_secs(1);
    cfg.server_cfg.merge.check_interval = SimDuration::from_secs(2);
    cfg.master_cfg.moves.load_ratio = 2.0;
    cfg.master_cfg.moves.check_interval = SimDuration::from_secs(5);
    // Debounce region-map refreshes: at this client count a single
    // split/merge/move flip would otherwise trigger a refresh stampede
    // against the master (one fetch per routed-stale request).
    cfg.store_client_cfg.min_refresh_interval = SimDuration::from_millis(50);
    Cluster::build(cfg)
}

/// Looks one counter up in the cluster's metric registry.
fn metric(cluster: &Cluster, name: &str) -> u64 {
    cluster
        .metrics
        .snapshot()
        .entries()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Fires one chaos action if its victim is still eligible.
fn fire(cluster: &Cluster, action: Chaos) {
    match action {
        Chaos::Server(i) => {
            if cluster.servers[i].is_alive() {
                eprintln!("[scale_bench]   chaos: crash server {i}");
                cluster.crash_server(i);
            }
        }
        Chaos::Client(i) => {
            if cluster.client(i).is_alive() {
                eprintln!("[scale_bench]   chaos: crash client {i}");
                cluster.crash_client(i);
            }
        }
        Chaos::DataNode(i) => {
            eprintln!("[scale_bench]   chaos: crash datanode {i}");
            cluster.crash_datanode(i);
        }
    }
}

/// Consolidation sweep: request an admin merge for up to `cap` adjacent
/// co-hosted region pairs (a claimed pair's right region is skipped — it
/// is mid-merge). Crash-packed failover placements create exactly these
/// pairs, so each sweep collapses some of the preceding chaos's
/// fragmentation. Returns how many requests were accepted.
fn consolidate(cluster: &Cluster, cap: u32) -> u32 {
    let map = cluster.master.snapshot_map();
    let regions = map.regions().to_vec();
    let mut fired = 0u32;
    let mut skip_next = false;
    for w in regions.windows(2) {
        if fired >= cap {
            break;
        }
        if skip_next {
            skip_next = false;
            continue;
        }
        let (l, r) = (&w[0], &w[1]);
        let co_hosted = match (map.assignments().get(&l.id), map.assignments().get(&r.id)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        if co_hosted && cluster.request_merge(l.id, r.id) {
            fired += 1;
            skip_next = true;
        }
    }
    fired
}

/// Waits for every region to be online on a live server (failovers,
/// merges and moves all drained) within `max`, then re-audits the map.
fn settle(cluster: &Cluster, max: SimDuration, label: &str) {
    let deadline = cluster.now() + max;
    while cluster.now() < deadline && !cluster.all_regions_online() {
        cluster.run_for(SimDuration::from_secs(2));
    }
    assert!(
        cluster.all_regions_online(),
        "cluster did not converge after the {label} phase"
    );
    cluster.assert_region_partition();
}

fn main() {
    let args = BenchArgs::parse();
    let quick = std::env::args().any(|a| a == "--quick") || cumulo_bench::quick();
    let d = Dims::new(quick);
    let mut rep = BenchReport::new("scale");
    rep.config("quick", quick);
    rep.config("rows", d.rows);
    rep.config("servers", d.servers);
    rep.config("clients", d.clients);
    rep.config("initial_regions", d.regions);
    rep.config("threads", d.threads);
    rep.config("target_tps", d.target_tps);
    rep.config("phase_secs", d.phase.as_secs_f64() as u64);
    rep.config("split_threshold_bytes", d.split_threshold);

    let cluster = build_cluster(&d);
    eprintln!(
        "[scale_bench] loading {} rows into {} regions on {} servers...",
        d.rows, d.regions, d.servers
    );
    cluster.load_rows(d.rows, &["f0"], 100, true);

    println!(
        "phase,distribution,committed,aborted,throughput_tps,mean_ms,p95_ms,p99_ms,regions,\
         regions_peak,splits_applied,merges_applied,moves_completed,failovers,\
         placement_cost"
    );

    let mut peak_regions = cluster.master.snapshot_map().regions().len();
    let phases = ["zipfian", "hotspot", "scan_heavy", "rmw"];
    for (pi, name) in phases.iter().enumerate() {
        let workload = phase_workload(name, &d);
        let driver = Driver::new(&cluster, workload);
        driver.start(d.warmup, d.warmup + d.phase);
        let end = cluster.now() + d.warmup + d.phase;
        let phase_start = cluster.now();
        let mut pending: Vec<(cumulo_sim::SimTime, Chaos)> = d.schedule[pi]
            .iter()
            .map(|(s, a)| (phase_start + SimDuration::from_secs(*s), *a))
            .collect();
        // The phase loop: drive the simulation in steps, firing the
        // chaos schedule at its fixed instants and auditing the
        // partition invariant every step — splits, merges, moves and
        // failovers are all potentially mid-flight right here.
        while cluster.now() < end {
            cluster.run_for(d.step);
            while let Some(pos) = pending.iter().position(|(t, _)| *t <= cluster.now()) {
                let (_, action) = pending.remove(pos);
                fire(&cluster, action);
            }
            cluster.assert_region_partition();
            peak_regions = peak_regions.max(cluster.master.snapshot_map().regions().len());
        }
        cluster.run_for(SimDuration::from_secs(2));
        let report = driver.report();

        settle(&cluster, d.settle, name);
        let merges_fired = consolidate(&cluster, d.merge_cap);
        cluster.run_for(SimDuration::from_secs(30));
        cluster.assert_region_partition();

        let regions = cluster.master.snapshot_map().regions().len();
        peak_regions = peak_regions.max(regions);
        let splits = cluster.total_splits();
        let merges = cluster.total_merges();
        let moves = cluster.total_moves();
        let failovers = cluster.master.failover_count();
        let cost = metric(&cluster, "master.placement.cost");
        println!(
            "{name},{},{},{},{:.1},{:.2},{:.2},{:.2},{regions},{peak_regions},{splits},\
             {merges},{moves},{failovers},{cost}",
            match *name {
                "hotspot" => "hotspot",
                "scan_heavy" => "uniform",
                _ => "zipfian",
            },
            report.committed,
            report.aborted,
            report.throughput_tps,
            report.mean_ms,
            report.p95_ms,
            report.p99_ms,
        );
        eprintln!(
            "[scale_bench] {name}: {:.1} tps (p99 {:.2} ms, {} committed), {regions} regions \
             (peak {peak_regions}), {splits} splits, {merges} merges (+{merges_fired} \
             consolidations firing), {moves} moves, {failovers} failovers",
            report.throughput_tps, report.p99_ms, report.committed
        );
        if args.timeline {
            print_timeline(name, &driver.windows(), driver.window());
        }
        let mut fields = vec![kv("phase", *name)];
        fields.extend(report_fields(&report));
        fields.extend([
            kv("regions", regions),
            kv("regions_peak", peak_regions),
            kv("splits_applied", splits),
            kv("merges_applied", merges),
            kv("moves_completed", moves),
            kv("failovers", failovers),
            kv("consolidations_fired", merges_fired),
        ]);
        rep.phase(fields);
    }

    // Final convergence + the summary row.
    settle(&cluster, d.settle, "final");
    let regions = cluster.master.snapshot_map().regions().len();
    let splits = cluster.total_splits();
    let merge_totals = cluster.merge_totals();
    let merges = cluster.total_merges();
    let moves = cluster.total_moves();
    let failovers = cluster.master.failover_count();
    let cost = metric(&cluster, "master.placement.cost");
    println!(
        "summary,,,,,,,,{regions},{peak_regions},{splits},{merges},{moves},{failovers},{cost}"
    );
    eprintln!(
        "[scale_bench] summary: peak {peak_regions} regions, {splits} splits, {merges} merges \
         ({} rolled back), {moves} moves, {failovers} failovers; placement cost {cost}",
        merge_totals.rolled_back,
    );
    rep.phase(vec![
        kv("phase", "summary"),
        kv("regions", regions),
        kv("regions_peak", peak_regions),
        kv("splits_applied", splits),
        kv("merges_applied", merges),
        kv("merges_rolled_back", merge_totals.rolled_back),
        kv("moves_completed", moves),
        kv("failovers", failovers),
        kv("placement_cost", cost),
    ]);
    rep.cluster("final", &cluster);

    // The campaign must actually have exercised everything it claims.
    assert!(
        splits >= d.min_splits,
        "soak must drive >= {} online splits, saw {splits}",
        d.min_splits
    );
    assert!(
        peak_regions >= d.min_peak_regions,
        "soak must reach >= {} regions, peaked at {peak_regions}",
        d.min_peak_regions
    );
    assert!(merges > 0, "no merge was ever applied");
    assert!(moves > 0, "no proactive move ever completed");
    rep.write(&args);
}

//! Failover unavailability: WAL-replay recovery vs replica promotion.
//!
//! Two identically-seeded runs of the same transfer-style workload crash
//! the same server at the same simulated instant. The `replay` run has
//! region replication off (`region_replication = 1`), so the master must
//! split the dead server's WAL into store files for the next host
//! before the regions return; the `promotion` run keeps one synced backup per
//! region (`region_replication = 2`), so the master promotes the most
//! caught-up replica instead. The measured **unavailability window** is
//! the simulated time from the crash until every region in the master's
//! map is online on a live server again — it includes failure detection
//! (session expiry), which both modes pay equally, so the difference is
//! the recovery mechanism itself.
//!
//! The run asserts that promotion strictly shrinks the window — that is
//! the tentpole's reason to exist.
//!
//! Run: `cargo run --release -p cumulo-bench --bin failover_bench`
//! (`CUMULO_QUICK=1` for the CI smoke run). CSV on stdout is
//! byte-identical across runs of the same build (determinism probe — CI
//! runs it twice and diffs); `--emit-json PATH` writes the
//! `BENCH_failover.json` snapshot.

use cumulo_bench::report::{kv, BenchArgs, BenchReport};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

fn key(i: u64) -> String {
    format!("user{i:012}")
}

/// One round of load: every live client fires a 3-write transaction
/// with padded values (the padding gives the WAL-replay path real
/// volume to chew through).
fn fire_load(cluster: &Cluster, rows: u64, round: u64, committed: &Rc<Cell<u64>>) {
    for ci in 0..cluster.clients.len() {
        let client = cluster.client(ci).clone();
        if !client.is_alive() {
            continue;
        }
        let picks: Vec<u64> = (0..3).map(|_| cluster.sim.gen_range(0, rows)).collect();
        let val = format!("r{round}c{ci}{:#>120}", "");
        let committed2 = committed.clone();
        client.begin(move |txn| {
            let Ok(txn) = txn else { return };
            for r in &picks {
                let _ = txn.put(key(*r), "f0", val.clone());
            }
            txn.commit(move |result| {
                if result.is_ok() {
                    committed2.set(committed2.get() + 1);
                }
            });
        });
    }
}

/// Whether every region in the master's map is online on a *live*
/// server. `Cluster::all_regions_online` alone is not an availability
/// probe: a crashed process's in-memory region state still reads as
/// online until the master reassigns, so the liveness check is what
/// opens the window at the crash instant.
fn all_regions_available(cluster: &Cluster) -> bool {
    let map = cluster.master.snapshot_map();
    map.regions().iter().all(|r| {
        map.server_for(r.id)
            .and_then(|s| cluster.dir.get(s))
            .map(|srv| srv.is_alive() && srv.region_online(r.id))
            .unwrap_or(false)
    })
}

struct ModeResult {
    unavailability: SimDuration,
    detection: SimDuration,
    recovery: SimDuration,
    promotions: u64,
    fallback_replays: u64,
    committed: u64,
}

/// Runs one mode end to end and returns its measurements, leaving the
/// cluster alive for a metrics snapshot.
fn run_mode(replication: usize, rows: u64, warmup_rounds: u64, seed: u64) -> (ModeResult, Cluster) {
    let cluster = Cluster::build(ClusterConfig {
        seed,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: rows,
        region_replication: replication,
        heartbeat_interval: SimDuration::from_millis(500),
        ..ClusterConfig::default()
    });
    let committed = Rc::new(Cell::new(0u64));
    let tick = SimDuration::from_millis(400);
    for round in 0..warmup_rounds {
        fire_load(&cluster, rows, round, &committed);
        cluster.run_for(tick);
    }

    let crash_at = cluster.now();
    cluster.crash_server(0);

    // Keep the load running through the outage until every region is
    // back online on a live server. The poll only decides when to stop;
    // the two instants come from the event journal, which records them
    // to the nanosecond: when the master *detects* the failure
    // (`server.failover` — session expiry, identical machinery in both
    // modes) and when the last region comes back (`region.online`). The
    // difference is the recovery mechanism itself: WAL split + replay
    // vs replica promotion — a few milliseconds apart at this size,
    // below what a 10 ms poll can tell apart.
    let mut converged = false;
    'outer: for round in 0..300u64 {
        fire_load(&cluster, rows, warmup_rounds + round, &committed);
        for _ in 0..40 {
            cluster.run_for(SimDuration::from_millis(10));
            if all_regions_available(&cluster) {
                converged = true;
                break 'outer;
            }
        }
    }
    assert!(converged, "cluster never converged after the crash");
    assert_eq!(
        cluster.events.dropped(),
        0,
        "the event journal evicted records; the instants below may be missing"
    );
    let entries = cluster.events.entries();
    let since_crash = |kind: &'static str| {
        entries
            .iter()
            .filter(move |e| e.kind == kind && e.time >= crash_at)
            .map(|e| e.time)
    };
    let detected_at = since_crash("server.failover").next();
    let online_at = since_crash("region.online").next_back();
    let detection = detected_at.expect("master never detected the crash") - crash_at;
    let unavailability = online_at.expect("no region came back after the crash") - crash_at;
    // Drain in-flight retries before snapshotting.
    cluster.run_for(SimDuration::from_secs(5));

    (
        ModeResult {
            unavailability,
            detection,
            recovery: unavailability.saturating_sub(detection),
            promotions: cluster.master.promotions(),
            fallback_replays: cluster.master.fallback_replays(),
            committed: committed.get(),
        },
        cluster,
    )
}

fn main() {
    let args = BenchArgs::parse();
    let quick = cumulo_bench::quick();
    let rows: u64 = if quick { 2_000 } else { 6_000 };
    let warmup_rounds: u64 = if quick { 60 } else { 120 };
    let mut rep = BenchReport::new("failover");
    rep.config("rows", rows);
    rep.config("warmup_rounds", warmup_rounds);
    rep.config("seed", 9191u64);

    println!(
        "mode,region_replication,unavailability_ms,detection_ms,recovery_ms,promotions,\
         fallback_replays,committed"
    );

    let mut results = Vec::new();
    for (mode, replication) in [("replay", 1usize), ("promotion", 2usize)] {
        let (result, cluster) = run_mode(replication, rows, warmup_rounds, 9191);
        let total_ms = result.unavailability.as_secs_f64() * 1e3;
        let detect_ms = result.detection.as_secs_f64() * 1e3;
        let recover_ms = result.recovery.as_secs_f64() * 1e3;
        println!(
            "{mode},{replication},{total_ms:.1},{detect_ms:.1},{recover_ms:.1},{},{},{}",
            result.promotions, result.fallback_replays, result.committed
        );
        eprintln!(
            "[failover_bench] {mode}: unavailable {total_ms:.1} ms \
             (detection {detect_ms:.1} + recovery {recover_ms:.1}), {} promotions, \
             {} replay fallbacks, {} committed",
            result.promotions, result.fallback_replays, result.committed
        );
        rep.phase(vec![
            kv("mode", mode),
            kv("region_replication", replication),
            kv("unavailability_ms", total_ms),
            kv("detection_ms", detect_ms),
            kv("recovery_ms", recover_ms),
            kv("promotions", result.promotions),
            kv("fallback_replays", result.fallback_replays),
            kv("committed", result.committed),
        ]);
        rep.cluster(mode, &cluster);

        // The replay run must actually replay and the promotion run must
        // actually promote, or the comparison is meaningless.
        match mode {
            "replay" => assert_eq!(
                result.promotions, 0,
                "replay mode must not promote (replication off)"
            ),
            _ => assert!(
                result.promotions > 0,
                "promotion mode never promoted a replica"
            ),
        }
        results.push(result);
    }

    let (replay, promotion) = (&results[0], &results[1]);
    eprintln!(
        "[failover_bench] promotion shrinks the post-detection recovery {:.2}x \
         ({:.1} ms -> {:.1} ms) and the total window {:.1} ms -> {:.1} ms",
        replay.recovery.as_secs_f64() / promotion.recovery.as_secs_f64().max(1e-9),
        replay.recovery.as_secs_f64() * 1e3,
        promotion.recovery.as_secs_f64() * 1e3,
        replay.unavailability.as_secs_f64() * 1e3,
        promotion.unavailability.as_secs_f64() * 1e3,
    );
    assert!(
        promotion.recovery < replay.recovery,
        "promotion recovery ({:?}) must beat WAL replay ({:?})",
        promotion.recovery,
        replay.recovery
    );
    assert!(
        promotion.unavailability < replay.unavailability,
        "promotion ({:?}) must shrink the total unavailability window vs replay ({:?})",
        promotion.unavailability,
        replay.unavailability
    );
    rep.write(&args);
}

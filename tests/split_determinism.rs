//! Determinism regression for online splits: the same split-triggering
//! hotspot schedule must be byte-identical across runs — splits add
//! timers, RPCs, reference files and map epochs, and none of that may
//! launder `HashMap` iteration order (or any other process-varying
//! state) into event scheduling or the metrics.
//!
//! Each RNG shift (0–3 extra draws up front, what any innocent new
//! jittered timer would cause) yields a *different* schedule; the
//! invariant is that re-running the *same* shift reproduces its metrics
//! CSV exactly. (The cross-process variant of this probe is CI's double
//! run of `split_bench` with a `diff`.)

mod common;

use common::bank::shift_rng;
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_ycsb::{Driver, KeyDistribution, Workload};

const ROWS: u64 = 3_000;

fn run_schedule(shift: u32) -> String {
    let mut cfg = ClusterConfig {
        seed: 6161,
        servers: 2,
        clients: 6,
        regions: 2,
        key_count: ROWS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.split.enabled = true;
    cfg.server_cfg.split.threshold_bytes = 96 << 10;
    cfg.server_cfg.memstore_flush_bytes = 24 << 10;
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(250);
    cfg.server_cfg.split.check_interval = SimDuration::from_millis(400);
    let cluster = Cluster::build(cfg);
    shift_rng(&cluster, shift);
    cluster.load_rows(ROWS, &["f0"], 100, true);
    let workload = Workload {
        record_count: ROWS,
        threads: 12,
        ops_per_txn: 8,
        read_ratio: 0.3,
        field_len: 200,
        distribution: KeyDistribution::HotSpot,
        hotspot_keys_fraction: 0.02,
        hotspot_ops_fraction: 0.9,
        window: SimDuration::from_secs(2),
        ..Workload::default()
    };
    let driver = Driver::new(&cluster, workload);
    let report = driver.run(
        &cluster,
        SimDuration::from_secs(1),
        SimDuration::from_secs(16),
    );
    cluster.run_for(SimDuration::from_secs(4));

    // The metrics CSV: summary row, split/compaction totals, the
    // windowed timeline, the final region map shape, and the kernel's
    // event count (the strongest schedule fingerprint).
    let mut csv = String::new();
    csv.push_str("metric,value\n");
    csv.push_str(&format!("committed,{}\n", report.committed));
    csv.push_str(&format!("aborted,{}\n", report.aborted));
    csv.push_str(&format!("throughput_tps,{:.3}\n", report.throughput_tps));
    csv.push_str(&format!("mean_ms,{:.3}\n", report.mean_ms));
    csv.push_str(&format!("p99_ms,{:.3}\n", report.p99_ms));
    let splits = [
        "store.split.considered",
        "master.split.intents_persisted",
        "store.split.executing",
        "store.split.completed",
        "master.split.applied",
        "master.split.rolled_back",
    ]
    .map(|name| cluster.metrics.sum(name).to_string());
    csv.push_str(&format!("splits,{}\n", splits.join(",")));
    let map = cluster.master.snapshot_map();
    csv.push_str(&format!("regions,{}\n", map.regions().len()));
    csv.push_str(&format!("map_epoch,{}\n", map.epoch()));
    for w in driver.windows() {
        csv.push_str(&format!(
            "window,{},{},{},{}\n",
            w.start.nanos(),
            w.count,
            w.sum,
            w.max
        ));
    }
    for s in &cluster.servers {
        for (region, load) in s.region_load().snapshot() {
            csv.push_str(&format!("load,{},{},{}\n", s.id(), region, load));
        }
    }
    csv.push_str(&format!("events,{}\n", cluster.sim.events_executed()));
    csv.push_str(&format!("messages,{}\n", cluster.net.messages_delivered()));
    csv
}

#[test]
fn split_schedule_metrics_are_byte_identical_across_reruns() {
    for shift in 0..=3u32 {
        let a = run_schedule(shift);
        let b = run_schedule(shift);
        assert!(
            a == b,
            "shift {shift}: metrics CSVs diverged between identical runs\n--- a ---\n{a}\n--- b ---\n{b}"
        );
        if shift == 0 {
            assert!(
                a.contains("splits,") && !a.contains("splits,0,0,0,0,0,0"),
                "the schedule never split — the probe is too weak:\n{a}"
            );
        }
    }
}

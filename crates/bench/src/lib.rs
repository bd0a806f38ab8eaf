//! The reproduction, and the harness its eight binaries share.
//!
//! Four binaries are the paper's evaluation: `fig2a` (asynchronous below
//! synchronous persistence), `fig2b` (the heartbeat-interval trade-off),
//! `fig3` (the failure timeline) and `ablations` (tracking on/off,
//! filesystem replication, heartbeat vs replay volume, client failure).
//! Four are probes of behaviour the paper does not have: `policy_compare`
//! (compaction layouts and backpressure), `split_bench` (online splits
//! under a hotspot), `scale_bench` (the split/merge/move/failover soak)
//! and `failover_bench` (replay vs promotion). Every one but
//! `policy_compare`, which only reports, asserts the claim it plots, and
//! `tests/baseline_regression.rs` pins the quick CSV of all eight
//! byte-for-byte.
//!
//! A *performance* question — what does a transaction, a get, a scan or a
//! failover cost on either clock — is not asked here: `benchmark/`, the
//! package outside the workspace, owns those, with frozen workloads, a
//! per-layer ledger and a contract (`BENCHMARK.json`), micro-loops over
//! single data structures included (`benchmark/src/micro.rs`).
//!
//! Every binary prints CSV to stdout and a human-readable commentary to
//! stderr. Set `CUMULO_QUICK=1` to run a scaled-down version (fewer rows,
//! shorter measurement).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod report;

use cumulo_core::{Cluster, ClusterConfig, PersistenceMode};
use cumulo_sim::SimDuration;
use cumulo_ycsb::{Driver, Workload};

/// Whether `CUMULO_QUICK=1` asks for the scaled-down run.
pub fn quick() -> bool {
    std::env::var("CUMULO_QUICK").is_ok_and(|v| v == "1")
}

/// Scale factors for a bench run.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Loaded rows (paper: 500 000).
    pub rows: u64,
    /// Warm-up before measurement.
    pub warmup: SimDuration,
    /// Measured duration.
    pub measure: SimDuration,
}

impl Scale {
    /// Full paper-scale settings, or a quick variant when
    /// `CUMULO_QUICK=1`.
    pub fn from_env() -> Scale {
        if quick() {
            Scale {
                rows: 50_000,
                warmup: SimDuration::from_secs(3),
                measure: SimDuration::from_secs(8),
            }
        } else {
            Scale {
                rows: 500_000,
                warmup: SimDuration::from_secs(5),
                measure: SimDuration::from_secs(20),
            }
        }
    }
}

/// Builds the paper's standard cluster (2 region servers, replication 2)
/// with `rows` rows loaded and caches warmed, ready for a driver.
pub fn standard_cluster(
    seed: u64,
    clients: usize,
    persistence: PersistenceMode,
    heartbeat: SimDuration,
    rows: u64,
) -> Cluster {
    let cluster = Cluster::build(ClusterConfig {
        seed,
        servers: 2,
        clients,
        regions: 4,
        key_count: rows,
        persistence,
        heartbeat_interval: heartbeat,
        ..ClusterConfig::default()
    });
    cluster.load_rows(rows, &["f0"], 100, true);
    cluster
}

/// The paper's workload (§4.1) over `rows` rows with the given thread
/// count and optional offered load.
pub fn paper_workload(rows: u64, threads: usize, target_tps: Option<f64>) -> Workload {
    Workload {
        record_count: rows,
        threads,
        target_tps,
        ..Workload::default()
    }
}

/// Runs one complete measurement and returns (driver, report).
pub fn run_measurement(
    cluster: &Cluster,
    workload: Workload,
    warmup: SimDuration,
    measure: SimDuration,
) -> (Driver, cumulo_ycsb::DriverReport) {
    let driver = Driver::new(cluster, workload);
    let report = driver.run(cluster, warmup, warmup + measure);
    (driver, report)
}

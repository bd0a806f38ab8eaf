//! Shared harness for the figure-reproduction binaries and the Criterion
//! micro-benchmarks.
//!
//! Every binary prints CSV to stdout and a human-readable commentary to
//! stderr. Set `CUMULO_QUICK=1` to run a scaled-down version (fewer rows,
//! shorter measurement) for smoke-testing the harness.

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

//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and bound. `BENCHMARK.json` is checked against it by
//! `tests/contract.rs`; its bounds on the two host-time metrics are wider
//! than the ones here, for the reason README.md gives.

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read from. Simulated-time metrics are exact
/// for a seed; host-time metrics are medians over repetitions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Wall,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
        }
    }
}

/// By how much a metric may get worse before it counts as a regression.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Bound {
    /// Share of the baseline's median.
    Share(f64),
    /// Absolute amount in the metric's unit.
    Abs(f64),
}

#[derive(Copy, Clone, Debug)]
pub struct E2eDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    pub bound: Bound,
    /// Workloads the metric is defined on; empty = all of them. Only a
    /// metric defined on all workloads can be listed under `end_to_end`
    /// in `BENCHMARK.json` (every run must report every such metric);
    /// the others are reported with the traced run's ledger.
    pub workloads: &'static [&'static str],
}

impl E2eDef {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }

    pub fn on_every_workload(&self) -> bool {
        self.workloads.is_empty()
    }
}

use Better::{Higher, Lower};
use Bound::{Abs, Share};
use Clock::{Sim, Wall};

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: Bound,
    workloads: &'static [&'static str],
) -> E2eDef {
    E2eDef {
        name,
        unit,
        better,
        clock,
        bound,
        workloads,
    }
}

pub const END_TO_END: &[E2eDef] = &[
    metric("setup_s", "s", Lower, Wall, Share(0.15), &[]),
    metric("wall_us_per_txn", "us", Lower, Wall, Share(0.10), &[]),
    metric("txn_p50_ms", "ms", Lower, Sim, Share(0.03), &[]),
    metric("txn_p99_ms", "ms", Lower, Sim, Share(0.03), &[]),
    metric(
        "peak_tps",
        "1/s",
        Higher,
        Sim,
        Share(0.03),
        &["oltp_rw", "read_zipf", "scan_range"],
    ),
    metric(
        "visible_p99_ms",
        "ms",
        Lower,
        Sim,
        Share(0.05),
        &["oltp_rw", "write_heavy"],
    ),
    metric("outage_ms", "ms", Lower, Sim, Share(0.05), &["failover"]),
    metric("stall_max_ms", "ms", Lower, Sim, Share(0.05), &["failover"]),
    metric("degraded_s", "s", Lower, Sim, Abs(1.0), &["failover"]),
    metric(
        "client_recovery_ms",
        "ms",
        Lower,
        Sim,
        Share(0.05),
        &["failover"],
    ),
];

#[derive(Copy, Clone, Debug)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Whether two runs of the same code and seed must agree exactly.
    pub exact: bool,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Lower,
        exact: true,
    }
}

/// The per-layer ledger, in the order it is printed. README.md says which
/// end-to-end metric each one should move, and on which workload.
pub const PER_LAYER: &[LayerDef] = &[
    layer("core.begin_p50_ms", "ms", Lower),
    layer("core.begin_p99_ms", "ms", Lower),
    layer("core.get_p50_ms", "ms", Lower),
    layer("core.get_p99_ms", "ms", Lower),
    layer("core.scan_p50_ms", "ms", Lower),
    layer("core.scan_p99_ms", "ms", Lower),
    layer("core.commit_p50_ms", "ms", Lower),
    layer("core.commit_p99_ms", "ms", Lower),
    layer("core.visible_p50_ms", "ms", Lower),
    layer("core.txn_self_p50_ms", "ms", Lower),
    layer("core.abort_share", "share", Lower),
    layer("core.pending_flushes_max", "count", Lower),
    layer("core.inflight_max", "count", Lower),
    layer("core.gen_late_max_ms", "ms", Lower),
    layer("core.rm_replayed_txns", "count", Lower),
    layer("core.rm_truncations", "count", Higher),
    layer("core.replay_ms", "ms", Lower),
    layer("txn.log_batch_size", "count", Higher),
    layer("txn.log_len_max", "count", Lower),
    layer("txn.watermark_lag_max", "count", Lower),
    layer("txn.conflict_aborts", "count", Lower),
    layer("txn.host_conflict_check_ns", "ns", Lower),
    layer("txn.host_log_append_ns", "ns", Lower),
    layer("store.get_queue_p50_ms", "ms", Lower),
    layer("store.get_queue_p99_ms", "ms", Lower),
    layer("store.get_service_p50_ms", "ms", Lower),
    layer("store.put_queue_p50_ms", "ms", Lower),
    layer("store.put_queue_p99_ms", "ms", Lower),
    layer("store.put_service_p50_ms", "ms", Lower),
    layer("store.scan_queue_p99_ms", "ms", Lower),
    layer("store.scan_service_p50_ms", "ms", Lower),
    layer("store.handler_busy_share", "share", Lower),
    layer("store.handler_queue_max", "count", Lower),
    layer("store.rpcs_per_txn", "count", Lower),
    layer("store.client_retries", "count", Lower),
    layer("store.not_serving", "count", Lower),
    layer("store.cache_hit_rate", "share", Higher),
    layer("store.files_per_get", "count", Lower),
    layer("store.cache_hit_rate_after", "share", Higher),
    layer("store.wal_syncs", "count", Lower),
    layer("store.mutations_per_wal_sync", "count", Higher),
    layer("store.wal_bytes_per_user_byte", "ratio", Lower),
    layer("store.memstore_flushes", "count", Lower),
    layer("store.compactions_completed", "count", Lower),
    layer("store.compaction_bytes_per_user_byte", "ratio", Lower),
    layer("store.flush_stalls", "count", Lower),
    layer("store.stall_ms", "ms", Lower),
    layer("store.assign_ms", "ms", Lower),
    layer("store.online_ms", "ms", Lower),
    layer("coord.detect_ms", "ms", Lower),
    layer("coord.expired_sessions", "count", Lower),
    layer("dfs.bytes_per_user_byte", "ratio", Lower),
    layer("dfs.files", "count", Lower),
    exact("sim.events_per_txn", "count"),
    exact("sim.net_msgs_per_txn", "count"),
    exact("sim.net_dropped", "count"),
    // Not exact: whether a `HashMap` with removals (the block cache's
    // index) rehashes in place or reallocates depends on the process's
    // hash seed, so these repeat to about one part in a million only.
    layer("sim.allocs_per_txn", "count", Lower),
    layer("sim.alloc_bytes_per_txn", "count", Lower),
    layer("sim.host_ns_per_event", "ns", Lower),
    layer("sim.host_event_ns", "ns", Lower),
    layer("sim.wall_min_us_per_txn", "us", Lower),
    layer("sim.wall_iqr_pct", "%", Lower),
    layer("sim.host_speed", "ratio", Higher),
    layer("sim.peak_rss_mb", "MB", Lower),
    layer("sim.trace_overhead_pct", "%", Lower),
    layer("store.host_memstore_apply_ns", "ns", Lower),
    layer("store.host_memstore_get_ns", "ns", Lower),
    layer("store.host_sstable_get_ns", "ns", Lower),
    layer("store.host_sstable_scan50_ns", "ns", Lower),
    layer("store.host_blockcache_access_ns", "ns", Lower),
    layer("store.host_wal_encode_ns", "ns", Lower),
];

//! The per-layer ledger of one traced repetition. Every number is taken
//! from outside the system: the driver's spans, accessor reads, registry
//! snapshot diffs and the two journals. A registry key or journal field
//! that no longer exists yields `None` (printed `null`), never a panic.

use crate::driver::{Outcome, Phase, Rep, Span, TraceData};
use crate::e2e::RepSummary;
use crate::micro::Micro;
use crate::stats::quantile;
use crate::workload::{COLUMN, SERVERS, VALUE_LEN};
use cumulo_sim::{JournalEntry, MetricsSnapshot};
use std::collections::{BTreeMap, HashMap};

pub type Ledger = BTreeMap<&'static str, Option<f64>>;

/// Host-time figures that need more than the traced repetition.
pub struct HostContext<'a> {
    /// Every untraced repetition.
    pub untraced: &'a [RepSummary],
    /// Largest resident set any repetition's process reached.
    pub peak_rss_mb: Option<f64>,
    pub micro: &'a Micro,
}

const MS: f64 = 1e6;

fn field<'a>(detail: &'a str, name: &str) -> Option<&'a str> {
    detail
        .split(' ')
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
}

fn field_u64(detail: &str, name: &str) -> Option<u64> {
    field(detail, name)?.parse().ok()
}

/// Every registry entry called `name`, as `(label text, value)`; the
/// label text is empty for an unlabelled entry.
pub fn registry_entries<'a>(
    snapshot: &'a MetricsSnapshot,
    name: &'a str,
) -> impl Iterator<Item = (&'a str, u64)> {
    snapshot.entries().filter_map(move |(k, v)| {
        let rest = k.strip_prefix(name)?;
        (rest.is_empty() || rest.starts_with('{')).then_some((rest, v))
    })
}

/// Their sum; `None` when the registry has no such entry.
fn registry_sum(snapshot: &MetricsSnapshot, name: &str) -> Option<u64> {
    let mut hits = registry_entries(snapshot, name).map(|(_, v)| v).peekable();
    hits.peek()?;
    Some(hits.sum())
}

fn pct(sorted: &[u64], q: f64) -> Option<f64> {
    quantile(sorted, q).map(|ns| ns as f64 / MS)
}

/// One RPC kind's queue and service samples, ascending. `None` where a
/// span lacked the field.
struct RpcTimes {
    queue: Option<Vec<u64>>,
    service: Option<Vec<u64>>,
}

fn rpc_times(entries: &[JournalEntry], kind: &str) -> RpcTimes {
    let collect = |name: &str| {
        let mut v: Vec<u64> = entries
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| field_u64(&e.detail, name))
            .collect::<Option<_>>()?;
        v.sort_unstable();
        Some(v)
    };
    RpcTimes {
        queue: collect("queue_ns"),
        service: collect("service_ns"),
    }
}

fn first_time(entries: &[JournalEntry], kind: &str, after_ns: u64) -> Option<u64> {
    entries
        .iter()
        .find(|e| e.kind == kind && e.time.nanos() >= after_ns)
        .map(|e| e.time.nanos())
}

fn last_time(entries: &[JournalEntry], kind: &str, after_ns: u64) -> Option<u64> {
    entries
        .iter()
        .rev()
        .find(|e| e.kind == kind && e.time.nanos() >= after_ns)
        .map(|e| e.time.nanos())
}

/// Everything the traced repetition can tell by itself.
pub fn build(rep: &Rep, summary: &RepSummary) -> Ledger {
    let empty = TraceData::default();
    let trace = rep.trace.as_ref().unwrap_or(&empty);
    let mut out = Ledger::new();
    let committed = summary.committed.max(1) as f64;
    let per_txn = |n: u64| Some(n as f64 / committed);

    // --- core: the driver's spans around begin/get/scan/commit, open phase.
    let open_txn = |seq: u32| rep.recs[seq as usize].phase == Phase::Open;
    let mut by_name: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut children: HashMap<u32, u64> = HashMap::new();
    for Span {
        name,
        txn,
        start_ns,
        end_ns,
    } in trace.spans.iter().copied()
    {
        if !open_txn(txn) {
            continue;
        }
        by_name.entry(name).or_default().push(end_ns - start_ns);
        if name != "txn" {
            *children.entry(txn).or_default() += end_ns - start_ns;
        }
    }
    for v in by_name.values_mut() {
        v.sort_unstable();
    }
    let span_pct = |name: &str, q: f64| by_name.get(name).and_then(|v| pct(v, q));
    for (key50, key99, name) in [
        ("core.begin_p50_ms", "core.begin_p99_ms", "begin"),
        ("core.get_p50_ms", "core.get_p99_ms", "get"),
        ("core.scan_p50_ms", "core.scan_p99_ms", "scan"),
        ("core.commit_p50_ms", "core.commit_p99_ms", "commit"),
    ] {
        out.insert(key50, span_pct(name, 0.50));
        out.insert(key99, span_pct(name, 0.99));
    }
    let mut self_ns: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name == "txn" && open_txn(s.txn))
        .map(|s| (s.end_ns - s.start_ns).saturating_sub(children.get(&s.txn).copied().unwrap_or(0)))
        .collect();
    self_ns.sort_unstable();
    out.insert("core.txn_self_p50_ms", pct(&self_ns, 0.50));
    let mut visible = rep.visible_ns.clone();
    visible.sort_unstable();
    out.insert("core.visible_p50_ms", pct(&visible, 0.50));

    let conflicts = rep
        .recs
        .iter()
        .filter(|r| r.phase != Phase::Warmup && r.outcome == Outcome::Aborted)
        .count() as u64;
    out.insert(
        "core.abort_share",
        Some(conflicts as f64 / summary.attempted.max(1) as f64),
    );
    out.insert(
        "core.pending_flushes_max",
        Some(rep.gauges.pending_flushes_max as f64),
    );
    out.insert("core.inflight_max", Some(rep.inflight_max as f64));
    out.insert(
        "core.gen_late_max_ms",
        Some(rep.gen_late_max_ns as f64 / MS),
    );
    out.insert(
        "core.rm_replayed_txns",
        Some(rep.deltas.rm_replayed_txns as f64),
    );
    out.insert(
        "core.rm_truncations",
        registry_sum(&rep.registry, "rm.truncations").map(|n| n as f64),
    );

    // --- txn
    let d = &rep.deltas;
    out.insert(
        "txn.log_batch_size",
        (d.log_batches > 0).then(|| d.log_appends as f64 / d.log_batches as f64),
    );
    out.insert("txn.log_len_max", Some(rep.gauges.log_len_max as f64));
    out.insert(
        "txn.watermark_lag_max",
        Some(rep.gauges.watermark_lag_max as f64),
    );
    out.insert("txn.conflict_aborts", Some(conflicts as f64));

    // --- store: rpc.* spans of the trace journal, measured phases.
    let rpcs = &trace.trace_entries;
    let (get, put, scan) = (
        rpc_times(rpcs, "rpc.get"),
        rpc_times(rpcs, "rpc.put"),
        rpc_times(rpcs, "rpc.scan"),
    );
    let of = |v: &Option<Vec<u64>>, q: f64| v.as_deref().and_then(|v| pct(v, q));
    out.insert("store.get_queue_p50_ms", of(&get.queue, 0.50));
    out.insert("store.get_queue_p99_ms", of(&get.queue, 0.99));
    out.insert("store.get_service_p50_ms", of(&get.service, 0.50));
    out.insert("store.put_queue_p50_ms", of(&put.queue, 0.50));
    out.insert("store.put_queue_p99_ms", of(&put.queue, 0.99));
    out.insert("store.put_service_p50_ms", of(&put.service, 0.50));
    out.insert("store.scan_queue_p99_ms", of(&scan.queue, 0.99));
    out.insert("store.scan_service_p50_ms", of(&scan.service, 0.50));
    let rpc_count = rpcs.iter().filter(|e| e.kind.starts_with("rpc.")).count() as u64;
    let busy_ns: Option<u64> = rpcs
        .iter()
        .filter(|e| e.kind.starts_with("rpc."))
        .map(|e| field_u64(&e.detail, "service_ns"))
        .sum();
    // Every server has two handlers (`RegionServerConfig::handlers`).
    let handler_ns = (2 * SERVERS) as f64 * (rep.closed_end_ns - rep.open_start_ns) as f64;
    out.insert(
        "store.handler_busy_share",
        busy_ns.map(|ns| ns as f64 / handler_ns),
    );
    out.insert(
        "store.handler_queue_max",
        Some(rep.gauges.handler_queue_max as f64),
    );
    out.insert("store.rpcs_per_txn", per_txn(rpc_count));
    out.insert("store.client_retries", Some(d.client_retries as f64));
    out.insert(
        "store.not_serving",
        registry_sum(&rep.registry, "store.not_serving").map(|n| n as f64),
    );

    let gets = || rpcs.iter().filter(|e| e.kind == "rpc.get");
    let hit_rate = |from_ns: u64| {
        let hits: Vec<bool> = gets()
            .filter(|e| e.time.nanos() >= from_ns)
            .map(|e| field(&e.detail, "hit")?.parse().ok())
            .collect::<Option<_>>()?;
        (!hits.is_empty()).then(|| hits.iter().filter(|h| **h).count() as f64 / hits.len() as f64)
    };
    out.insert("store.cache_hit_rate", hit_rate(0));
    let files: Option<Vec<u64>> = gets().map(|e| field_u64(&e.detail, "files")).collect();
    out.insert(
        "store.files_per_get",
        files
            .filter(|f| !f.is_empty())
            .map(|f| f.iter().sum::<u64>() as f64 / f.len() as f64),
    );
    out.insert(
        "store.cache_hit_rate_after",
        rep.crash.server_crash_ns.and_then(hit_rate),
    );

    let user_bytes = rep
        .recs
        .iter()
        .filter(|r| r.phase != Phase::Warmup && matches!(r.outcome, Outcome::Committed(_)))
        .map(|r| r.txn.put_rows().count() as u64)
        .sum::<u64>()
        * (16 + COLUMN.len() + VALUE_LEN) as u64;
    let per_user_byte = |bytes: u64| (user_bytes > 0).then(|| bytes as f64 / user_bytes as f64);
    let mutations: Option<u64> = rpcs
        .iter()
        .filter(|e| e.kind == "rpc.put")
        .map(|e| field_u64(&e.detail, "mutations"))
        .sum();
    out.insert("store.wal_syncs", Some(d.wal_syncs as f64));
    out.insert(
        "store.mutations_per_wal_sync",
        mutations
            .filter(|_| d.wal_syncs > 0)
            .map(|m| m as f64 / d.wal_syncs as f64),
    );
    out.insert(
        "store.wal_bytes_per_user_byte",
        per_user_byte(d.wal_synced_bytes),
    );
    out.insert(
        "store.memstore_flushes",
        Some(rep.gauges.memstore_flushes.values().sum::<u64>() as f64),
    );
    let reg = |name: &str| registry_sum(&rep.registry, name);
    out.insert(
        "store.compactions_completed",
        reg("store.compaction.completed").map(|n| n as f64),
    );
    out.insert(
        "store.compaction_bytes_per_user_byte",
        reg("store.compaction.bytes_rewritten").and_then(per_user_byte),
    );
    out.insert(
        "store.flush_stalls",
        reg("store.compaction.flush_stalls").map(|n| n as f64),
    );
    out.insert(
        "store.stall_ms",
        reg("store.compaction.stall_ns").map(|n| n as f64 / MS),
    );

    // --- failover attribution from the failure-event journal: the four
    // intervals below add up to `outage_ms`.
    let events = &trace.event_entries;
    let crashed = rep.crash.server_crash_ns;
    let detected = crashed.and_then(|c| first_time(events, "server.failover", c));
    let assigned = crashed.and_then(|c| last_time(events, "region.assign", c));
    let recovered = crashed.and_then(|c| last_time(events, "region.recovered", c));
    let ms_between =
        |from: Option<u64>, to: Option<u64>| Some(to?.saturating_sub(from?) as f64 / MS);
    out.insert("coord.detect_ms", ms_between(crashed, detected));
    out.insert("store.assign_ms", ms_between(detected, assigned));
    out.insert("core.replay_ms", ms_between(assigned, recovered));
    out.insert(
        "store.online_ms",
        ms_between(recovered, rep.crash.regions_online_ns),
    );
    out.insert("coord.expired_sessions", Some(d.expired_sessions as f64));

    // --- dfs
    out.insert("dfs.bytes_per_user_byte", per_user_byte(d.dfs_bytes));
    out.insert("dfs.files", Some(d.dfs_files_end as f64));

    // --- sim: wall_us_per_txn = events_per_txn × host_ns_per_event.
    out.insert("sim.events_per_txn", per_txn(d.events));
    out.insert("sim.net_msgs_per_txn", per_txn(d.net_sent));
    out.insert("sim.net_dropped", Some(d.net_dropped as f64));
    out.insert("sim.allocs_per_txn", per_txn(d.allocs));
    out.insert("sim.alloc_bytes_per_txn", per_txn(d.alloc_bytes));
    out
}

/// Adds what only the parent process knows: the spread of the untraced
/// repetitions, the traced one's overhead against them, the largest
/// resident set, and the micro-loops.
pub fn add_host_context(ledger: &mut Ledger, traced: &RepSummary, host: &HostContext<'_>) {
    let us_per_txn: Vec<f64> = host.untraced.iter().map(|r| r.wall_us_per_txn).collect();
    let speeds: Vec<f64> = host.untraced.iter().map(|r| r.host_speed).collect();
    // The median is what `wall_us_per_txn` reports, so that
    // events_per_txn × host_ns_per_event gives it back.
    let reported_us = crate::stats::median(&us_per_txn);
    let out = ledger;
    out.insert(
        "sim.host_ns_per_event",
        reported_us.map(|us| us * 1e3 * traced.committed as f64 / traced.events.max(1) as f64),
    );
    out.insert(
        "sim.wall_min_us_per_txn",
        us_per_txn.iter().copied().reduce(f64::min),
    );
    out.insert(
        "sim.wall_iqr_pct",
        crate::stats::iqr_share(&us_per_txn).map(|s| s * 100.0),
    );
    out.insert("sim.host_speed", crate::stats::median(&speeds));
    out.insert("sim.peak_rss_mb", host.peak_rss_mb);
    out.insert(
        "sim.trace_overhead_pct",
        reported_us.map(|us| (traced.wall_us_per_txn / us - 1.0) * 100.0),
    );
    let m = host.micro;
    out.insert("sim.host_event_ns", Some(m.sim_event_ns));
    out.insert("txn.host_conflict_check_ns", Some(m.conflict_check_ns));
    out.insert("txn.host_log_append_ns", Some(m.log_append_ns));
    out.insert("store.host_memstore_apply_ns", Some(m.memstore_apply_ns));
    out.insert("store.host_memstore_get_ns", Some(m.memstore_get_ns));
    out.insert("store.host_sstable_get_ns", Some(m.sstable_get_ns));
    out.insert("store.host_sstable_scan50_ns", Some(m.sstable_scan50_ns));
    out.insert(
        "store.host_blockcache_access_ns",
        Some(m.blockcache_access_ns),
    );
    out.insert("store.host_wal_encode_ns", Some(m.wal_encode_ns));
}

/// High-water mark of this process's resident set, from the kernel.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_fields_parse_and_missing_ones_are_none() {
        let d = "server=rs0 region=r1 queue_ns=12 service_ns=740000 files=1 probes=0 hit=true";
        assert_eq!(field_u64(d, "queue_ns"), Some(12));
        assert_eq!(field(d, "hit"), Some("true"));
        assert_eq!(field_u64(d, "ns"), None);
        assert_eq!(field_u64(d, "gone"), None);
    }
}

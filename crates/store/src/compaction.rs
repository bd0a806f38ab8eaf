//! Background store-file compaction with MVCC garbage collection.
//!
//! Every memstore flush appends another immutable store file to its
//! region, and every read must consult all of them — unbounded *read
//! amplification*. Compaction is the maintenance stage that merges a
//! region's store files back down: the size-tiered [`pick_candidates`]
//! chooses the widest window of similarly-sized files (each byte is
//! rewritten O(log n) times), a k-way merge rewrites them as one file,
//! and versions no reader can observe any more are garbage-collected
//! along the way. File key ranges overlap freely, so between merges a
//! point get may probe every file; range pruning and bloom filters (see
//! below) keep most of those probes cheap.
//!
//! ## Backpressure
//!
//! Background merges compete with foreground requests for the same
//! handler slots. The server's deficit scheduler (see
//! `RegionServer::check_compactions`) defers a due merge while the
//! handlers' windowed utilization is above
//! [`CompactionConfig::utilization_threshold`], accruing one deficit
//! token per deferral; at [`CompactionConfig::max_deferrals`] tokens the
//! merge runs anyway, so read amplification stays bounded under
//! sustained overload. At the harder
//! [`CompactionConfig::stall_file_limit`] store files, memstore
//! *flushes* stall — the region trades memstore memory for a bounded
//! file count until compaction catches up.
//!
//! ## MVCC garbage collection
//!
//! Versions are commit timestamps. A version of a cell is *garbage* when
//! it is shadowed by a newer version at or below the **GC watermark** —
//! the oldest snapshot any current or future reader can hold (the
//! transaction manager's oldest pinned snapshot; see
//! `cumulo-txn`'s oracle). The merge keeps, per cell:
//!
//! * every version newer than the watermark (some reader may still need
//!   to see *around* it), and
//! * the newest version at or below the watermark (what every old-enough
//!   snapshot resolves to),
//!
//! and drops the rest. When the compaction covers the region's entire
//! file set (a *major* compaction), a kept tombstone at or below the
//! watermark can itself be dropped — there is nothing left for it to
//! shadow — provided two additional conditions hold:
//!
//! * the caller-supplied guard confirms no older version of the cell
//!   survives outside the inputs (e.g. a recovery's replayed log
//!   suffix sitting in the memstore), and
//! * the tombstone is at or below the **purge floor**
//!   ([`GcWatermark::purge_floor`]), the recovery log's truncation
//!   point. Client- and server-recovery replays re-apply write-sets
//!   still present in the recovery log; a version the tombstone shadows
//!   could be re-applied later and, with the tombstone gone, would be
//!   resurrected. Below the truncation point the log no longer holds
//!   such records, so nothing can come back.
//!
//! ## Crash safety
//!
//! The merged file is written to the distributed filesystem under a
//! temporary dot-name inside the region directory and *renamed* into its
//! final name only after the write is fully replicated. A server crash
//! mid-compaction therefore leaves at worst an ignorable `.tmp-` file:
//! region recovery skips temp names, and the input files — which are
//! deleted only after the swap — still cover all data. If the crash lands
//! after the rename but before the inputs are deleted, recovery sees the
//! merged file *and* the inputs; that duplication is read-equivalent
//! because the merged file contains exactly the surviving versions of its
//! inputs.
//!
//! ## Compaction and the read-path service model
//!
//! A point get pays, per region, one `STOREFILE_READ_SERVICE` term for
//! every store file it *consults* beyond the first. Which files those are
//! is decided by per-file metadata (see `sstable.rs`): key-range pruning
//! excludes files whose min/max row range misses the key for free, and a
//! per-file bloom filter over `(row, column)` pairs excludes most of the
//! rest at a small `FILTER_PROBE_SERVICE` cost each. Compaction interacts
//! with that model in two ways: it bounds the *file count* (and with it
//! the number of probes a get pays), and its merge output is rebuilt with
//! fresh range and filter metadata by the output's
//! [`StoreFileBuilder`] — dropping the inputs' filters
//! and creating one sized for the surviving entries, which
//! [`CompactionStats::filter_bytes_dropped`] and
//! [`CompactionStats::filter_bytes_created`] make observable. Scans
//! cannot use per-key filters; for them only range pruning and the file
//! count bound apply.

use crate::merge_iter::MergeIter;
use crate::sstable::{StoreFileBuilder, StoreFileData};
use crate::types::{RegionId, Timestamp};
use cumulo_sim::metrics::{Counter, Gauge, MetricsRegistry};
use cumulo_sim::SimDuration;
use std::rc::Rc;

/// Marker prefix of in-flight compaction outputs. Files with this
/// basename prefix are skipped by region recovery and may be deleted
/// freely.
pub const TMP_PREFIX: &str = ".tmp-";

/// Whether a store-file path names an in-flight (ignorable) compaction
/// temporary.
pub fn is_tmp_path(path: &str) -> bool {
    path.rsplit('/')
        .next()
        .map(|base| base.starts_with(TMP_PREFIX))
        .unwrap_or(false)
}

/// The in-flight temporary name for a final store-file path: the
/// [`TMP_PREFIX`] is spliced onto the basename, so [`is_tmp_path`]
/// recognizes it and region recovery skips it.
pub fn tmp_name(final_path: &str) -> String {
    match final_path.rfind('/') {
        Some(slash) => format!(
            "{}{}{}",
            &final_path[..slash + 1],
            TMP_PREFIX,
            &final_path[slash + 1..]
        ),
        None => format!("{TMP_PREFIX}{final_path}"),
    }
}

/// The pair of timestamps that bound what MVCC garbage collection may
/// drop (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GcWatermark {
    /// The oldest snapshot any current or future reader can hold:
    /// versions *shadowed* at or below this may be dropped.
    pub horizon: Timestamp,
    /// The recovery log's truncation point: tombstones may only be
    /// *purged* at or below this, because write-sets above it can still
    /// be re-applied by recovery replays.
    pub purge_floor: Timestamp,
}

impl GcWatermark {
    /// A watermark that garbage-collects nothing (the safe default when
    /// no transactional tier is wired in).
    pub const ZERO: GcWatermark = GcWatermark {
        horizon: Timestamp::ZERO,
        purge_floor: Timestamp::ZERO,
    };

    /// A watermark using one timestamp for both bounds (convenient in
    /// tests and in deployments without recovery replay).
    pub fn at(ts: Timestamp) -> GcWatermark {
        GcWatermark {
            horizon: ts,
            purge_floor: ts,
        }
    }
}

/// Compaction tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct CompactionConfig {
    /// Master switch.
    pub enabled: bool,
    /// Store-file count at which a region becomes a compaction
    /// candidate.
    pub min_files: usize,
    /// Most files merged by one compaction.
    pub max_files: usize,
    /// Size-tier tolerance: files within this ratio of each other count
    /// as one tier and are merged together preferentially.
    pub tier_ratio: f64,
    /// How often regions are checked for compaction candidacy.
    pub check_interval: SimDuration,
    /// Handler CPU charged per merged version — compaction competes with
    /// foreground requests for the same handler slots.
    pub merge_service_per_entry: SimDuration,
    /// Backpressure master switch: when on, the deficit scheduler defers
    /// background merges while foreground handler utilization is above
    /// [`CompactionConfig::utilization_threshold`], and flushes stall at
    /// the [`CompactionConfig::stall_file_limit`].
    pub backpressure: bool,
    /// Foreground handler utilization (over the last check interval)
    /// above which a due merge is deferred instead of submitted.
    pub utilization_threshold: f64,
    /// A deferred merge accrues one deficit token per check tick; at this
    /// many tokens it runs regardless of utilization (bounds starvation —
    /// read amplification must not grow without bound just because the
    /// server is busy).
    pub max_deferrals: u32,
    /// Hard limit on a region's store-file count at which memstore
    /// flushes *stall*: the flush is skipped until compaction drains the
    /// backlog, trading memstore memory for bounded read amplification.
    pub stall_file_limit: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            enabled: true,
            min_files: 4,
            max_files: 10,
            tier_ratio: 3.0,
            check_interval: SimDuration::from_secs(2),
            merge_service_per_entry: SimDuration::from_nanos(150),
            backpressure: true,
            utilization_threshold: 0.85,
            max_deferrals: 5,
            stall_file_limit: 20,
        }
    }
}

/// Shared observability for a server's compactions (all handles clone
/// cheaply and share state, like the other `cumulo_sim::metrics` types).
#[derive(Clone, Debug)]
pub struct CompactionStats {
    /// Compactions started (a crash can leave this ahead of `completed`).
    pub started: Counter,
    /// Compactions that swapped their merged file in.
    pub completed: Counter,
    /// Bytes written into merged output files.
    pub bytes_rewritten: Counter,
    /// MVCC versions garbage-collected (shadowed versions, purged
    /// tombstones and cross-file duplicates).
    pub versions_dropped: Counter,
    /// Input files retired (removed from region file lists).
    pub files_retired: Counter,
    /// Obsolete-file deletions confirmed by the filesystem.
    pub deletes_confirmed: Counter,
    /// Bytes of bloom-filter metadata retired with the input files —
    /// together with `filter_bytes_created`, the filter overhead a
    /// compaction churns.
    pub filter_bytes_dropped: Counter,
    /// Bytes of bloom-filter metadata built for merged output files.
    pub filter_bytes_created: Counter,
    /// Current worst-case read amplification: the largest store-file
    /// count across the server's hosted regions.
    pub read_amplification: Gauge,
    /// Due merges the backpressure scheduler deferred because foreground
    /// handler utilization was above the threshold.
    pub deferred: Counter,
    /// Deferred merges forced through after `max_deferrals` ticks (the
    /// deficit bank filled up).
    pub forced: Counter,
    /// Memstore flushes stalled by the file-count hard limit.
    pub flush_stalls: Counter,
    /// Simulated nanoseconds flush work spent stalled (one check interval
    /// per stalled flush attempt).
    pub stall_ns: Counter,
}

impl CompactionStats {
    /// The server's compaction statistics, each registered in `metrics`
    /// under its `store.*` key with the server's `labels`.
    pub(crate) fn new(metrics: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let c = |name: &str| metrics.counter(name, labels);
        CompactionStats {
            started: c("store.compaction.started"),
            completed: c("store.compaction.completed"),
            bytes_rewritten: c("store.compaction.bytes_rewritten"),
            versions_dropped: c("store.compaction.versions_dropped"),
            files_retired: c("store.compaction.files_retired"),
            deletes_confirmed: c("store.compaction.deletes_confirmed"),
            filter_bytes_dropped: c("store.compaction.filter_bytes_dropped"),
            filter_bytes_created: c("store.compaction.filter_bytes_created"),
            read_amplification: metrics.gauge("store.read_amplification", labels),
            deferred: c("store.compaction.deferred"),
            forced: c("store.compaction.forced"),
            flush_stalls: c("store.compaction.flush_stalls"),
            stall_ns: c("store.compaction.stall_ns"),
        }
    }
}

/// Picks the indices of the store files one compaction should merge, or
/// `None` if the set is below the candidacy threshold.
///
/// Size-tiered: the `max_files` smallest files are scanned for the widest
/// window whose largest member is within `tier_ratio` of its smallest —
/// merging similarly-sized files keeps rewrite cost amortized
/// (each byte is rewritten O(log n) times overall, the classic
/// size-tiered bound). If no window of at least `min_files` similar files
/// exists, the `min_files` smallest files are merged anyway so the file
/// count still converges.
pub fn pick_candidates(sizes: &[usize], cfg: &CompactionConfig) -> Option<Vec<usize>> {
    if sizes.len() < cfg.min_files.max(2) {
        return None;
    }
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| (sizes[i], i));
    let window = order.len().min(cfg.max_files);
    let order = &order[..window];

    // Widest tier window among the smallest files.
    let mut best: Option<(usize, usize)> = None; // (len, start)
    for start in 0..order.len() {
        let lo = sizes[order[start]].max(1);
        let mut end = start + 1;
        while end < order.len() && sizes[order[end]] as f64 <= lo as f64 * cfg.tier_ratio {
            end += 1;
        }
        let len = end - start;
        if len >= cfg.min_files && best.map(|(l, _)| len > l).unwrap_or(true) {
            best = Some((len, start));
        }
    }
    let picked: Vec<usize> = match best {
        Some((len, start)) => order[start..start + len].to_vec(),
        // No tier: merge the smallest files so count still shrinks.
        None => order[..cfg.min_files.min(order.len())].to_vec(),
    };
    (picked.len() >= 2).then_some(picked)
}

/// Whether a region holding `store_files` durable files is at the hard
/// limit where memstore flushes stall (consulted only while
/// backpressure is on).
pub(crate) fn flush_should_stall(store_files: usize, cfg: &CompactionConfig) -> bool {
    store_files >= cfg.stall_file_limit
}

/// The outcome of one merge.
pub struct MergeResult {
    /// The merged, garbage-collected store file.
    pub output: StoreFileData,
    /// Versions dropped (shadowed, purged or duplicate).
    pub versions_dropped: u64,
}

/// K-way-merges `inputs` (each sorted by `(row, column, descending ts)`)
/// into one store file at `path`, garbage-collecting versions shadowed at
/// or below `gc.horizon` (see the module docs for the exact rule).
///
/// `purge_tombstones` must only be `true` for a major compaction (the
/// inputs are the region's entire file set). A tombstone is then dropped
/// only if it sits at or below `gc.purge_floor` (no recovery replay can
/// re-apply a version it shadows) *and* `has_older_elsewhere` returns
/// `false` — it must return `true` if any version of the cell older than
/// the tombstone exists outside the inputs (memstore, flushing
/// snapshot), in which case the tombstone is kept so that version stays
/// shadowed.
pub fn merge_store_files(
    region: RegionId,
    path: impl Into<String>,
    inputs: &[Rc<StoreFileData>],
    gc: GcWatermark,
    purge_tombstones: bool,
    has_older_elsewhere: &dyn Fn(&[u8], &[u8], Timestamp) -> bool,
) -> MergeResult {
    let path = path.into();
    let (output, versions_dropped) = merge_survivors(
        region,
        || path.clone(),
        inputs,
        gc,
        purge_tombstones,
        has_older_elsewhere,
    );
    MergeResult {
        // Nothing survived: a merge named up front reports that as an
        // empty file.
        output: output
            .unwrap_or_else(|| StoreFileBuilder::with_capacity(0, 0).finish(region, path)),
        versions_dropped,
    }
}

/// The merge itself: [`merge_store_files`]' MVCC garbage collection
/// applied on top of the store's shared k-way merge ([`MergeIter`];
/// duplicates of one version come out adjacent, earliest input first),
/// with the survivors streamed straight into the output file's builder —
/// no intermediate entry list. Returns the output and the versions
/// dropped. `name` names the output and runs only if some version
/// survives: when every input version was garbage there is no output,
/// and no name is spent on one.
pub fn merge_survivors(
    region: RegionId,
    name: impl FnOnce() -> String,
    inputs: &[Rc<StoreFileData>],
    gc: GcWatermark,
    purge_tombstones: bool,
    has_older_elsewhere: &dyn Fn(&[u8], &[u8], Timestamp) -> bool,
) -> (Option<StoreFileData>, u64) {
    // The builder is sized from the inputs: the output holds at most
    // what went in.
    let input_bytes: usize = inputs.iter().map(|sf| sf.total_bytes()).sum();
    let input_entries: usize = inputs.iter().map(|sf| sf.len()).sum();
    let mut out = StoreFileBuilder::with_capacity(input_entries, input_bytes);
    let mut dropped = 0u64;
    // Per-cell GC state, valid while `current_cell` matches.
    let mut current_cell: Option<(&[u8], &[u8])> = None;
    let mut cell_resolved_below_watermark = false;
    let mut last_ts: Option<Timestamp> = None;

    for e in MergeIter::new(inputs.iter().map(|sf| sf.range(b"", None))) {
        let same_cell = current_cell == Some((e.row, e.column));
        if !same_cell {
            current_cell = Some((e.row, e.column));
            cell_resolved_below_watermark = false;
            last_ts = None;
        }

        // Cross-file duplicate of the same version (possible after a
        // crash left both a merged file and its inputs): keep one.
        if same_cell && last_ts == Some(e.ts) {
            dropped += 1;
            continue;
        }
        last_ts = Some(e.ts);

        if e.ts <= gc.horizon {
            if cell_resolved_below_watermark {
                // Shadowed by a newer version at or below the watermark:
                // no snapshot can resolve to this version any more.
                dropped += 1;
                continue;
            }
            cell_resolved_below_watermark = true;
            let purge = purge_tombstones
                && e.is_tombstone()
                && e.ts <= gc.purge_floor
                && !has_older_elsewhere(e.row, e.column, e.ts);
            if purge {
                dropped += 1;
                continue;
            }
        }
        out.push(e.row, e.column, e.ts, e.value());
    }
    let output = (!out.is_empty()).then(|| out.finish(region, name()));
    (output, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;
    use bytes::Bytes;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn file(
        region: u32,
        path: &str,
        cells: &[(&str, &str, u64, Option<&str>)],
    ) -> Rc<StoreFileData> {
        let mut ms = MemStore::new();
        for (r, c, ts, v) in cells {
            ms.apply(b(r), b(c), Timestamp(*ts), v.map(b));
        }
        Rc::new(StoreFileData::from_memstore(RegionId(region), path, &ms))
    }

    fn no_older(_r: &[u8], _c: &[u8], _ts: Timestamp) -> bool {
        false
    }

    #[test]
    fn tmp_paths_recognized() {
        assert!(is_tmp_path("/store/r1/.tmp-000001-rs0"));
        assert!(!is_tmp_path("/store/r1/000001-rs0"));
        assert!(!is_tmp_path("/store/r1.tmp-x/000001"));
    }

    #[test]
    fn pick_needs_threshold() {
        let cfg = CompactionConfig {
            min_files: 4,
            ..CompactionConfig::default()
        };
        assert_eq!(pick_candidates(&[10, 10, 10], &cfg), None);
        let picked = pick_candidates(&[10, 10, 10, 10], &cfg).expect("at threshold");
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn pick_prefers_similar_sizes() {
        let cfg = CompactionConfig {
            min_files: 2,
            max_files: 4,
            ..CompactionConfig::default()
        };
        // One huge file and three small ones: the tier is the small ones.
        let picked = pick_candidates(&[1_000_000, 10, 12, 11], &cfg).expect("candidates");
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            vec![1, 2, 3],
            "the huge file is left alone: {picked:?}"
        );
    }

    #[test]
    fn pick_caps_at_max_files() {
        let cfg = CompactionConfig {
            min_files: 2,
            max_files: 3,
            ..CompactionConfig::default()
        };
        let picked = pick_candidates(&[5, 5, 5, 5, 5, 5], &cfg).expect("candidates");
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn pick_falls_back_when_no_tier() {
        let cfg = CompactionConfig {
            min_files: 3,
            max_files: 4,
            tier_ratio: 1.1,
            ..CompactionConfig::default()
        };
        // Exponentially spread sizes: no tier, still merges the smallest.
        let picked = pick_candidates(&[1, 100, 10_000, 1_000_000], &cfg).expect("fallback");
        let mut sorted = picked;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn flush_stall_predicates() {
        let cfg = CompactionConfig {
            stall_file_limit: 3,
            ..CompactionConfig::default()
        };
        assert!(flush_should_stall(3, &cfg));
    }

    #[test]
    fn merge_keeps_newest_visible_below_watermark() {
        let a = file(
            1,
            "/a",
            &[("r", "c", 5, Some("v5")), ("r", "c", 10, Some("v10"))],
        );
        let c = file(
            1,
            "/b",
            &[("r", "c", 20, Some("v20")), ("s", "c", 3, Some("s3"))],
        );
        let merged = merge_store_files(
            RegionId(1),
            "/m",
            &[a, c],
            GcWatermark::at(Timestamp(15)),
            false,
            &no_older,
        );
        // v5 is shadowed by v10 at watermark 15; v20 is above the
        // watermark and kept; s3 is the newest visible for its cell.
        assert_eq!(merged.versions_dropped, 1);
        let out = merged.output;
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.get(b"r", b"c", Timestamp(15)).unwrap().value,
            Some(b("v10"))
        );
        assert_eq!(
            out.get(b"r", b"c", Timestamp::MAX).unwrap().value,
            Some(b("v20"))
        );
        assert_eq!(
            out.get(b"r", b"c", Timestamp(9)),
            None,
            "v5 was garbage-collected"
        );
        assert_eq!(
            out.get(b"s", b"c", Timestamp::MAX).unwrap().value,
            Some(b("s3"))
        );
    }

    #[test]
    fn merge_purges_tombstones_only_when_allowed() {
        let mk = || {
            vec![
                file(1, "/a", &[("r", "c", 5, Some("v5"))]),
                file(1, "/b", &[("r", "c", 10, None)]),
            ]
        };
        // Minor compaction: tombstone kept (an older version could live in
        // a non-input file).
        let minor = merge_store_files(
            RegionId(1),
            "/m",
            &mk(),
            GcWatermark::at(Timestamp(50)),
            false,
            &no_older,
        );
        assert_eq!(
            minor.output.get(b"r", b"c", Timestamp(50)).unwrap().value,
            None
        );
        // Major compaction with nothing older elsewhere: cell disappears.
        let major = merge_store_files(
            RegionId(1),
            "/m",
            &mk(),
            GcWatermark::at(Timestamp(50)),
            true,
            &no_older,
        );
        assert!(major.output.is_empty());
        assert_eq!(major.versions_dropped, 2);
        // Major compaction but the guard reports an older version in the
        // memstore: the tombstone must stay to shadow it.
        let major_guarded = merge_store_files(
            RegionId(1),
            "/m",
            &mk(),
            GcWatermark::at(Timestamp(50)),
            true,
            &|_, _, _| true,
        );
        assert_eq!(
            major_guarded
                .output
                .get(b"r", b"c", Timestamp(50))
                .unwrap()
                .value,
            None
        );
    }

    #[test]
    fn purge_respects_the_recovery_log_floor() {
        // Tombstone at ts 10, horizon 50, but the recovery log is only
        // truncated below 5: a replay could still re-apply the shadowed
        // put, so the tombstone must survive the major compaction.
        let files = vec![
            file(1, "/a", &[("r", "c", 4, Some("v4"))]),
            file(1, "/b", &[("r", "c", 10, None)]),
        ];
        let gc = GcWatermark {
            horizon: Timestamp(50),
            purge_floor: Timestamp(5),
        };
        let merged = merge_store_files(RegionId(1), "/m", &files, gc, true, &no_older);
        assert_eq!(
            merged.output.get(b"r", b"c", Timestamp(50)).unwrap().value,
            None,
            "tombstone above the purge floor must be kept"
        );
        // Once the floor passes the tombstone, the cell purges fully.
        let gc = GcWatermark {
            horizon: Timestamp(50),
            purge_floor: Timestamp(10),
        };
        let merged = merge_store_files(RegionId(1), "/m", &files, gc, true, &no_older);
        assert!(merged.output.is_empty());
    }

    #[test]
    fn merge_dedups_cross_file_duplicates() {
        // The same version in two files (post-crash overlap).
        let a = file(1, "/a", &[("r", "c", 7, Some("v"))]);
        let c = file(1, "/b", &[("r", "c", 7, Some("v"))]);
        let merged = merge_store_files(
            RegionId(1),
            "/m",
            &[a, c],
            GcWatermark::ZERO,
            false,
            &no_older,
        );
        assert_eq!(merged.output.len(), 1);
        assert_eq!(merged.versions_dropped, 1);
    }

    #[test]
    fn merge_at_zero_watermark_preserves_everything() {
        let a = file(
            1,
            "/a",
            &[("r", "c", 5, Some("v5")), ("r", "c", 10, Some("v10"))],
        );
        let c = file(1, "/b", &[("r", "c", 8, None)]);
        let merged = merge_store_files(
            RegionId(1),
            "/m",
            &[a.clone(), c.clone()],
            GcWatermark::ZERO,
            false,
            &no_older,
        );
        assert_eq!(merged.versions_dropped, 0);
        for snap in [0u64, 5, 7, 8, 9, 10, 100] {
            let want = [&a, &c]
                .iter()
                .filter_map(|sf| sf.get(b"r", b"c", Timestamp(snap)))
                .max_by_key(|vv| vv.ts);
            assert_eq!(
                merged.output.get(b"r", b"c", Timestamp(snap)),
                want,
                "snap {snap}"
            );
        }
    }
}

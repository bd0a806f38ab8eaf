//! Background store-file compaction with MVCC garbage collection.
//!
//! Every memstore flush appends another immutable store file to its
//! region, and every read must consult all of them — unbounded *read
//! amplification*. Compaction is the maintenance stage that merges a
//! region's store files back down: a pluggable [`CompactionPolicy`]
//! picks a candidate set and decides where the output goes, a k-way
//! merge rewrites the inputs (as one file, or partitioned at row
//! boundaries into a disjoint run), and versions no reader can observe
//! any more are garbage-collected along the way.
//!
//! ## Policies
//!
//! Two built-in policies trade write amplification against read bound:
//!
//! * [`SizeTieredPolicy`] merges the widest window of similarly-sized
//!   files (each byte is rewritten O(log n) times), but file key ranges
//!   overlap freely, so between merges a point get may probe every file.
//! * [`LeveledPolicy`] keeps flush outputs in an overlapping **L0** tier
//!   and everything below in key-range-disjoint levels whose byte
//!   budgets grow by `level_ratio` per level. A get consults at most one
//!   file per level (plus L0) — the files-consulted bound is ≈ the level
//!   count — at the cost of rewriting overlap into the next level.
//!
//! The policy is selected per cluster via [`CompactionConfig::policy`];
//! policies are stateless over [`FileMeta`].
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
//! sustained overload. Above the harder
//! [`CompactionConfig::stall_file_limit`] (total files for size-tiered,
//! L0 files for leveled), memstore *flushes* stall — the region trades
//! memstore memory for a bounded file count until compaction catches up.
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
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, Gauge, GaugeVec, MetricsRegistry};
use cumulo_sim::SimDuration;
use std::cmp::Reverse;
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

/// Which built-in [`CompactionPolicy`] a server runs, chosen per cluster
/// via config.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CompactionPolicyKind {
    /// Merge similarly-sized files wherever they are: amortized O(log n)
    /// rewrites per byte, but file key ranges overlap freely, so a point
    /// get may have to probe every file.
    SizeTiered,
    /// LSM levels: overlapping flush outputs pool in L0; levels ≥ 1 hold
    /// key-range-partitioned (disjoint) files with size-ratio-bounded
    /// totals, so a get consults at most one file per level plus L0.
    Leveled,
}

/// Compaction tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct CompactionConfig {
    /// Master switch.
    pub enabled: bool,
    /// Which candidate-selection/output-placement policy runs.
    pub policy: CompactionPolicyKind,
    /// Store-file count at which a region becomes a size-tiered
    /// compaction candidate.
    pub min_files: usize,
    /// Leveled policy: the L0 file count that triggers the L0 → L1 merge.
    /// Decoupled from the size-tiered `min_files` so tuning one policy's
    /// candidacy floor does not silently retune the other's.
    pub l0_trigger_files: usize,
    /// Most files merged by one size-tiered compaction (the leveled L0
    /// merge ignores this: L0 files overlap and must merge together).
    pub max_files: usize,
    /// Size-tier tolerance: files within this ratio of each other count
    /// as one tier and are merged together preferentially.
    pub tier_ratio: f64,
    /// How often regions are checked for compaction candidacy.
    pub check_interval: SimDuration,
    /// Handler CPU charged per merged version — compaction competes with
    /// foreground requests for the same handler slots.
    pub merge_service_per_entry: SimDuration,
    /// Leveled policy: byte budget of L1; level `L ≥ 1` holds
    /// `level_base_bytes × level_ratio^(L-1)` bytes before it overflows
    /// into `L+1`.
    pub level_base_bytes: usize,
    /// Leveled policy: size ratio between consecutive levels.
    pub level_ratio: f64,
    /// Leveled policy: target size of one output file on levels ≥ 1 (the
    /// merge partitions its output at row boundaries near this size, so a
    /// level is a run of small disjoint files, not one monolith).
    pub level_file_bytes: usize,
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
    /// Hard limit on the store-file count (size-tiered) or the L0 file
    /// count (leveled) at which memstore flushes *stall*: the flush is
    /// skipped until compaction drains the backlog, trading memstore
    /// memory for bounded read amplification.
    pub stall_file_limit: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig {
            enabled: true,
            policy: CompactionPolicyKind::SizeTiered,
            min_files: 4,
            l0_trigger_files: 4,
            max_files: 10,
            tier_ratio: 3.0,
            check_interval: SimDuration::from_secs(2),
            merge_service_per_entry: SimDuration::from_nanos(150),
            level_base_bytes: 4 << 20,
            level_ratio: 8.0,
            level_file_bytes: 1 << 20,
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
    /// Store-file count per LSM level across hosted regions (slot =
    /// level; size-tiered keeps everything in slot 0).
    pub level_files: GaugeVec,
    /// Store-file bytes per LSM level across hosted regions.
    pub level_bytes: GaugeVec,
}

impl CompactionStats {
    /// The server's compaction statistics, each registered in `metrics`
    /// under its `store.*` key with the server's `labels`.
    pub(crate) fn new(metrics: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let c = |name: &str| metrics.counter(name, labels);
        let levels = |name: &str| metrics.gauge_vec(name, labels, "level");
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
            level_files: levels("store.level.files"),
            level_bytes: levels("store.level.bytes"),
        }
    }
}

/// Per-file metadata a [`CompactionPolicy`] sees when picking candidates:
/// everything it may select on, nothing it could mutate.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// The file's DFS path (identifies it across the pick → merge gap).
    pub path: String,
    /// Approximate on-disk size.
    pub bytes: usize,
    /// Stored versions (drives the merge's handler-CPU charge).
    pub entries: usize,
    /// LSM level the file currently sits on (flush outputs start at 0;
    /// the size-tiered policy leaves everything there).
    pub level: u32,
    /// Min/max row key, `None` for an empty file — the leveled policy
    /// selects overlapping next-level inputs by range.
    pub key_range: Option<(Bytes, Bytes)>,
}

impl FileMeta {
    /// Whether this file's row range intersects `other`'s (empty files
    /// overlap nothing).
    pub fn overlaps(&self, other: &FileMeta) -> bool {
        match (&self.key_range, &other.key_range) {
            (Some((amin, amax)), Some((bmin, bmax))) => amin <= bmax && bmin <= amax,
            _ => false,
        }
    }
}

/// One planned compaction: which files to merge and where the output
/// goes. Produced by a [`CompactionPolicy`], executed by the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionJob {
    /// Indices into the [`FileMeta`] slice handed to
    /// [`CompactionPolicy::pick`].
    pub inputs: Vec<usize>,
    /// Level the merged output lands on.
    pub output_level: u32,
    /// When `Some`, the merge output is partitioned at row boundaries
    /// into files of roughly this many bytes (the leveled policy's
    /// disjoint runs); `None` produces a single output file.
    pub max_output_bytes: Option<usize>,
}

/// The cheap file-count summary the flush-stall check runs on. The
/// flush path evaluates this every check tick, so it deliberately does
/// not carry per-file metadata (extend the struct if a future policy
/// needs more signal — don't switch to `FileMeta` slices).
#[derive(Copy, Clone, Debug, Default)]
pub struct StallSignal {
    /// Store files backing the region (all levels).
    pub total_files: usize,
    /// Files currently on level 0.
    pub l0_files: usize,
}

/// A compaction policy: candidate selection plus output placement.
///
/// The server asks the policy per region (a) whether a merge is due and
/// what it should cover ([`CompactionPolicy::pick`]) and (b) whether the
/// file backlog is deep enough that memstore flushes must stall
/// ([`CompactionPolicy::flush_should_stall`]). Policies are stateless:
/// everything they need arrives in the [`FileMeta`] slice.
pub trait CompactionPolicy {
    /// Picks the next merge for one region's file set, or `None` when no
    /// merge is due. `files` arrives in the region's (deterministic)
    /// store-file order; returned indices refer into it.
    fn pick(&self, files: &[FileMeta], cfg: &CompactionConfig) -> Option<CompactionJob>;

    /// Whether the backlog is at the hard limit where flushes must stall
    /// (only consulted while backpressure is enabled).
    fn flush_should_stall(&self, sig: StallSignal, cfg: &CompactionConfig) -> bool;
}

/// The built-in policy instance for a config value. The instances are
/// stateless, so one `Rc` per server is plenty.
pub fn policy_for(kind: CompactionPolicyKind) -> Rc<dyn CompactionPolicy> {
    match kind {
        CompactionPolicyKind::SizeTiered => Rc::new(SizeTieredPolicy),
        CompactionPolicyKind::Leveled => Rc::new(LeveledPolicy),
    }
}

/// The original policy: merge the widest window of similarly-sized files
/// (see [`pick_candidates`]). Outputs land back on level 0 as one file;
/// flushes stall when the *total* file count reaches the hard limit.
#[derive(Copy, Clone, Debug, Default)]
pub struct SizeTieredPolicy;

impl CompactionPolicy for SizeTieredPolicy {
    fn pick(&self, files: &[FileMeta], cfg: &CompactionConfig) -> Option<CompactionJob> {
        let sizes: Vec<usize> = files.iter().map(|f| f.bytes).collect();
        pick_candidates(&sizes, cfg).map(|inputs| CompactionJob {
            inputs,
            output_level: 0,
            max_output_bytes: None,
        })
    }

    fn flush_should_stall(&self, sig: StallSignal, cfg: &CompactionConfig) -> bool {
        sig.total_files >= cfg.stall_file_limit
    }
}

/// Leveled compaction (the LevelDB/RocksDB shape).
///
/// * **L0** pools raw flush outputs, whose key ranges overlap freely.
///   Once `min_files` of them accumulate, *all* of L0 merges into L1,
///   together with every L1 file inside the merged span's closure (the
///   output run covers the span, so a same-level file left out of it
///   would end up overlapped).
/// * **Levels ≥ 1** hold key-range-disjoint runs of files of about
///   `level_file_bytes` each, with a byte budget of
///   `level_base_bytes × level_ratio^(L-1)`. When a level overflows its
///   budget, its largest file (ties broken by path, for determinism)
///   merges with the overlapping files one level down.
///
/// Because levels ≥ 1 are disjoint, key-range pruning leaves a point get
/// at most one file to consult per level plus the L0 files — the
/// files-consulted bound is ≈ the level count, independent of how many
/// files the region holds in total.
#[derive(Copy, Clone, Debug, Default)]
pub struct LeveledPolicy;

impl LeveledPolicy {
    /// Byte budget of level `level ≥ 1`.
    fn level_target(cfg: &CompactionConfig, level: u32) -> usize {
        let scale = cfg.level_ratio.powi(level as i32 - 1);
        (cfg.level_base_bytes as f64 * scale) as usize
    }

    /// Indices of `level`'s files whose row range intersects the
    /// *closure* of the span seeded by `seeds`' ranges: the merge output
    /// will cover the span of everything merged, so any same-level file
    /// inside that span must join the merge or the level would end up
    /// with overlapping files (breaking the one-file-per-level read
    /// bound). Each admitted file can widen the span, so the scan
    /// repeats until it is stable.
    fn span_closure(files: &[FileMeta], seeds: &[usize], level: u32) -> Vec<usize> {
        fn widen(lo: &mut Option<Bytes>, hi: &mut Option<Bytes>, min: &Bytes, max: &Bytes) {
            if lo.as_ref().map(|l| min < l).unwrap_or(true) {
                *lo = Some(min.clone());
            }
            if hi.as_ref().map(|h| max > h).unwrap_or(true) {
                *hi = Some(max.clone());
            }
        }
        let mut lo: Option<Bytes> = None;
        let mut hi: Option<Bytes> = None;
        for &i in seeds {
            if let Some((min, max)) = &files[i].key_range {
                widen(&mut lo, &mut hi, min, max);
            }
        }
        let mut picked: Vec<usize> = Vec::new();
        loop {
            let (Some(span_lo), Some(span_hi)) = (lo.clone(), hi.clone()) else {
                return picked; // seeds are all empty files: nothing spans
            };
            let mut grew = false;
            for (i, file) in files.iter().enumerate() {
                if file.level != level || picked.contains(&i) {
                    continue;
                }
                if let Some((min, max)) = &file.key_range {
                    if *min <= span_hi && span_lo <= *max {
                        picked.push(i);
                        widen(&mut lo, &mut hi, min, max);
                        grew = true;
                    }
                }
            }
            if !grew {
                return picked;
            }
        }
    }
}

impl CompactionPolicy for LeveledPolicy {
    fn pick(&self, files: &[FileMeta], cfg: &CompactionConfig) -> Option<CompactionJob> {
        let l0: Vec<usize> = (0..files.len()).filter(|&i| files[i].level == 0).collect();
        // L0 → L1: all of L0 (the files overlap each other, so a subset
        // would duplicate versions across levels) plus every L1 file
        // inside the closure of the combined span — the merge output
        // covers the whole span, so an L1 file left out of it would end
        // up overlapped by the output run.
        if l0.len() >= cfg.l0_trigger_files.max(2) {
            let mut inputs = l0.clone();
            inputs.extend(Self::span_closure(files, &l0, 1));
            return Some(CompactionJob {
                inputs,
                output_level: 1,
                max_output_bytes: Some(cfg.level_file_bytes),
            });
        }

        // Deepest-overflow level ≥ 1: largest file + next-level overlaps.
        let max_level = files.iter().map(|f| f.level).max().unwrap_or(0);
        let mut worst: Option<(f64, u32)> = None; // (overflow score, level)
        for level in 1..=max_level {
            let total: usize = files
                .iter()
                .filter(|f| f.level == level)
                .map(|f| f.bytes)
                .sum();
            let target = Self::level_target(cfg, level).max(1);
            let score = total as f64 / target as f64;
            if score > 1.0 && worst.map(|(s, _)| score > s).unwrap_or(true) {
                worst = Some((score, level));
            }
        }
        let (_, level) = worst?;
        let seed = (0..files.len())
            .filter(|&i| files[i].level == level)
            .max_by(|&a, &b| {
                (files[a].bytes, Reverse(&files[a].path))
                    .cmp(&(files[b].bytes, Reverse(&files[b].path)))
            })?;
        let mut inputs = vec![seed];
        inputs.extend(Self::span_closure(files, &[seed], level + 1));
        Some(CompactionJob {
            inputs,
            output_level: level + 1,
            max_output_bytes: Some(cfg.level_file_bytes),
        })
    }

    fn flush_should_stall(&self, sig: StallSignal, cfg: &CompactionConfig) -> bool {
        sig.l0_files >= cfg.stall_file_limit
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

/// The outcome of one merge.
pub struct MergeResult {
    /// The merged, garbage-collected store file.
    pub output: StoreFileData,
    /// Versions dropped (shadowed, purged or duplicate).
    pub versions_dropped: u64,
}

/// The outcome of a partitioned merge.
pub struct MultiMergeResult {
    /// The merged, garbage-collected store files, in ascending row-range
    /// order with pairwise-disjoint ranges. Empty if every input version
    /// was garbage.
    pub outputs: Vec<StoreFileData>,
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
    let mut merged = merge_store_files_partitioned(
        region,
        &|_| path.clone(),
        inputs,
        gc,
        purge_tombstones,
        has_older_elsewhere,
        None,
    );
    MergeResult {
        // One uncapped partition at most; none when everything was
        // garbage, which a single-output merge reports as an empty file.
        output: merged
            .outputs
            .pop()
            .unwrap_or_else(|| StoreFileBuilder::with_capacity(0, 0).finish(region, path)),
        versions_dropped: merged.versions_dropped,
    }
}

/// The merge itself: [`merge_store_files`]' MVCC garbage collection
/// applied on top of the store's shared k-way merge ([`MergeIter`];
/// duplicates of one version come out adjacent, earliest input first),
/// with the survivors streamed straight into the output file's builder —
/// no intermediate entry list. With `max_output_bytes` the stream is cut
/// at row boundaries into files of roughly that many bytes each (the
/// leveled policy's disjoint runs; `None` keeps one output).
/// `path_for(i)` names the `i`-th partition. Cutting only ever happens
/// *between* rows, so each output's row range is disjoint from its
/// siblings' and key-range pruning stays exact.
pub fn merge_store_files_partitioned(
    region: RegionId,
    path_for: &dyn Fn(usize) -> String,
    inputs: &[Rc<StoreFileData>],
    gc: GcWatermark,
    purge_tombstones: bool,
    has_older_elsewhere: &dyn Fn(&[u8], &[u8], Timestamp) -> bool,
    max_output_bytes: Option<usize>,
) -> MultiMergeResult {
    // Builders are sized from the inputs: an output holds at most what
    // went in, and a capped one about a cap's worth of it.
    let input_bytes: usize = inputs.iter().map(|sf| sf.total_bytes()).sum();
    let input_entries: usize = inputs.iter().map(|sf| sf.len()).sum();
    let new_builder = || match max_output_bytes {
        Some(max) if max < input_bytes => {
            let bytes = max.saturating_add(max / 4);
            let share = bytes as f64 / input_bytes as f64;
            StoreFileBuilder::with_capacity((input_entries as f64 * share) as usize, bytes)
        }
        _ => StoreFileBuilder::with_capacity(input_entries, input_bytes),
    };

    let mut outputs: Vec<StoreFileData> = Vec::new();
    let mut part = new_builder();
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

        // A survivor. The current output is cut before it once the
        // output is full and the survivor starts a new row.
        let full = max_output_bytes.is_some_and(|max| part.total_bytes() >= max);
        if full && part.last_row().is_some_and(|row| row != e.row) {
            let path = path_for(outputs.len());
            outputs.push(std::mem::replace(&mut part, new_builder()).finish(region, path));
        }
        part.push(e.row, e.column, e.ts, e.value());
    }
    if !part.is_empty() {
        let path = path_for(outputs.len());
        outputs.push(part.finish(region, path));
    }
    MultiMergeResult {
        outputs,
        versions_dropped: dropped,
    }
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

    fn meta(path: &str, bytes: usize, level: u32, range: Option<(&str, &str)>) -> FileMeta {
        FileMeta {
            path: path.to_owned(),
            bytes,
            entries: bytes / 100,
            level,
            key_range: range.map(|(a, z)| (b(a), b(z))),
        }
    }

    #[test]
    fn size_tiered_policy_wraps_pick_candidates() {
        let cfg = CompactionConfig {
            min_files: 2,
            max_files: 4,
            ..CompactionConfig::default()
        };
        let files = vec![
            meta("/a", 1_000_000, 0, Some(("a", "z"))),
            meta("/b", 10, 0, Some(("a", "z"))),
            meta("/c", 12, 0, Some(("a", "z"))),
        ];
        let job = SizeTieredPolicy.pick(&files, &cfg).expect("tier exists");
        let mut inputs = job.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![1, 2]);
        assert_eq!(job.output_level, 0);
        assert_eq!(job.max_output_bytes, None);
        assert!(SizeTieredPolicy.pick(&files[..1], &cfg).is_none());
    }

    #[test]
    fn leveled_l0_merge_takes_all_l0_plus_overlapping_l1() {
        let cfg = CompactionConfig {
            l0_trigger_files: 2,
            ..CompactionConfig::default()
        };
        let files = vec![
            meta("/l0-a", 100, 0, Some(("d", "m"))),
            meta("/l1-hit", 500, 1, Some(("a", "e"))),
            meta("/l1-miss", 500, 1, Some(("t", "z"))),
            meta("/l0-b", 100, 0, Some(("f", "k"))),
        ];
        let job = LeveledPolicy.pick(&files, &cfg).expect("L0 at trigger");
        let mut inputs = job.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 3], "all L0 + the overlapping L1 file");
        assert_eq!(job.output_level, 1);
        assert_eq!(job.max_output_bytes, Some(cfg.level_file_bytes));
    }

    #[test]
    fn leveled_overflow_pushes_largest_file_down() {
        let cfg = CompactionConfig {
            min_files: 4,
            level_base_bytes: 1_000,
            level_ratio: 10.0,
            ..CompactionConfig::default()
        };
        // One L0 file (below the trigger); L1 holds 1500 bytes > 1000.
        let files = vec![
            meta("/l0", 100, 0, Some(("a", "b"))),
            meta("/l1-big", 900, 1, Some(("c", "h"))),
            meta("/l1-small", 600, 1, Some(("m", "p"))),
            meta("/l2-hit", 300, 2, Some(("f", "j"))),
            meta("/l2-miss", 300, 2, Some(("q", "z"))),
        ];
        let job = LeveledPolicy.pick(&files, &cfg).expect("L1 overflows");
        let mut inputs = job.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![1, 3], "largest L1 file + its L2 overlap");
        assert_eq!(job.output_level, 2);
    }

    #[test]
    fn leveled_within_budget_is_idle() {
        let cfg = CompactionConfig {
            min_files: 4,
            level_base_bytes: 10_000,
            ..CompactionConfig::default()
        };
        let files = vec![
            meta("/l0", 100, 0, Some(("a", "b"))),
            meta("/l1", 900, 1, Some(("c", "h"))),
        ];
        assert!(LeveledPolicy.pick(&files, &cfg).is_none());
    }

    #[test]
    fn flush_stall_predicates() {
        let cfg = CompactionConfig {
            stall_file_limit: 3,
            ..CompactionConfig::default()
        };
        let mixed = StallSignal {
            total_files: 3,
            l0_files: 1,
        };
        // Size-tiered counts every file; leveled only counts L0.
        assert!(SizeTieredPolicy.flush_should_stall(mixed, &cfg));
        assert!(!LeveledPolicy.flush_should_stall(mixed, &cfg));
        let deep_l0 = StallSignal {
            total_files: 3,
            l0_files: 3,
        };
        assert!(LeveledPolicy.flush_should_stall(deep_l0, &cfg));
    }

    /// Regression (code review): the merge output covers the *span* of
    /// everything merged, so a same-level file sitting inside a gap of
    /// the selected inputs must join the merge — otherwise the level
    /// ends up with overlapping files and the one-file-per-level read
    /// bound silently degrades.
    #[test]
    fn leveled_merge_absorbs_same_level_files_inside_the_span() {
        let cfg = CompactionConfig {
            l0_trigger_files: 2,
            ..CompactionConfig::default()
        };
        // L0 spans [a,c] and [t,z]; G=[m,p] overlaps neither L0 file but
        // sits inside the combined output span [a,z].
        let files = vec![
            meta("/l0-a", 100, 0, Some(("a", "c"))),
            meta("/l0-b", 100, 0, Some(("t", "z"))),
            meta("/l1-gap", 500, 1, Some(("m", "p"))),
        ];
        let job = LeveledPolicy.pick(&files, &cfg).expect("L0 at trigger");
        let mut inputs = job.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(inputs, vec![0, 1, 2], "the gap file must be absorbed");

        // Closure: absorbing a file can widen the span and pull in more.
        let files = vec![
            meta("/l0-a", 100, 0, Some(("d", "e"))),
            meta("/l0-b", 100, 0, Some(("f", "g"))),
            meta("/l1-wide", 500, 1, Some(("a", "m"))),
            meta("/l1-chained", 500, 1, Some(("k", "q"))),
            meta("/l1-outside", 500, 1, Some(("r", "z"))),
        ];
        let job = LeveledPolicy.pick(&files, &cfg).expect("L0 at trigger");
        let mut inputs = job.inputs.clone();
        inputs.sort_unstable();
        assert_eq!(
            inputs,
            vec![0, 1, 2, 3],
            "the widened span pulls in the chained file but not the outside one"
        );
    }

    #[test]
    fn partitioned_merge_matches_single_merge_and_splits_disjointly() {
        let mut cells: Vec<(String, String, u64, Option<String>)> = Vec::new();
        for r in 0..20u32 {
            for ts in [5u64, 9] {
                cells.push((
                    format!("row{r:02}"),
                    "c".to_owned(),
                    ts,
                    Some(format!("v{ts}")),
                ));
            }
        }
        let borrowed: Vec<(&str, &str, u64, Option<&str>)> = cells
            .iter()
            .map(|(r, c, ts, v)| (r.as_str(), c.as_str(), *ts, v.as_deref()))
            .collect();
        let half = borrowed.len() / 2;
        let inputs = vec![
            file(1, "/a", &borrowed[..half]),
            file(1, "/b", &borrowed[half..]),
        ];
        let gc = GcWatermark::at(Timestamp(7));
        let single = merge_store_files(RegionId(1), "/m", &inputs, gc, false, &no_older);
        let parts = merge_store_files_partitioned(
            RegionId(1),
            &|i| format!("/p{i}"),
            &inputs,
            gc,
            false,
            &no_older,
            Some(200),
        );
        assert_eq!(parts.versions_dropped, single.versions_dropped);
        assert!(parts.outputs.len() > 1, "small cap must split the output");
        let total: usize = parts.outputs.iter().map(StoreFileData::len).sum();
        assert_eq!(total, single.output.len());
        // Disjoint, ascending ranges; every get resolves identically.
        for w in parts.outputs.windows(2) {
            let (_, amax) = w[0].key_range().expect("non-empty");
            let (bmin, _) = w[1].key_range().expect("non-empty");
            assert!(amax < bmin, "partition ranges overlap");
        }
        for r in 0..20u32 {
            for snap in [6u64, 100] {
                let row = format!("row{r:02}");
                let from_parts = parts
                    .outputs
                    .iter()
                    .filter_map(|sf| sf.get(row.as_bytes(), b"c", Timestamp(snap)))
                    .max_by_key(|vv| vv.ts);
                assert_eq!(
                    from_parts,
                    single.output.get(row.as_bytes(), b"c", Timestamp(snap)),
                    "row {row} snap {snap}"
                );
            }
        }
    }

    #[test]
    fn partitioned_merge_without_cap_is_one_file() {
        let inputs = vec![
            file(1, "/a", &[("r", "c", 5, Some("v5"))]),
            file(1, "/b", &[("s", "c", 3, Some("s3"))]),
        ];
        let parts = merge_store_files_partitioned(
            RegionId(1),
            &|i| format!("/p{i}"),
            &inputs,
            GcWatermark::ZERO,
            false,
            &no_older,
            None,
        );
        assert_eq!(parts.outputs.len(), 1);
        assert_eq!(parts.outputs[0].len(), 2);
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

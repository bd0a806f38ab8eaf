//! A region's files: memstore flushes, background compaction (see
//! `crate::compaction` for the policy, the merge and the crash-safety
//! argument) and the gauges derived from the file sets.

use super::data_path::BASE_SERVICE;
use super::{RegionServer, RegionState, HANDLERS};
use crate::compaction::{self, CompactionJob, CompactionStats, GcWatermark};
use crate::sstable::StoreFileData;
use crate::types::{RegionId, Timestamp};
use cumulo_sim::SimDuration;
use std::fmt::Write as _;
use std::rc::Rc;

/// How long the filesystem write of a flush may stay unanswered before
/// the flush tick issues another beside it. Several times what a
/// default-sized memstore takes to cross the modelled LAN (about five
/// seconds), so a healthy run never re-issues one; a slower write that
/// answers after all still counts, so this bounds duplicate work only.
const FLUSH_REISSUE_AFTER: SimDuration = SimDuration::from_secs(30);

/// A compaction the policy planned, resolved to paths so it survives the
/// gap between the candidacy check and the handler slot becoming free.
struct PlannedCompaction {
    input_paths: Vec<String>,
    output_level: u32,
    max_output_bytes: Option<usize>,
}

impl RegionServer {
    /// Installs the source of the MVCC garbage-collection watermark
    /// (typically the transaction manager's oldest active snapshot).
    /// Without one, compaction merges files but drops no versions.
    pub fn set_gc_watermark_source(&self, source: Rc<dyn Fn() -> GcWatermark>) {
        *self.gc_watermark.borrow_mut() = Some(source);
    }

    /// Compaction observability: counters and the read-amplification
    /// gauge (shared handles; clone freely).
    pub fn compaction_stats(&self) -> &CompactionStats {
        &self.compaction_stats
    }

    /// Per-level `(file count, bytes)` across this server's hosted
    /// regions, indexed by LSM level (slot 0 includes flushing
    /// snapshots). Size-tiered keeps everything in slot 0.
    pub fn level_profile(&self) -> Vec<(u64, u64)> {
        let files = self.compaction_stats.level_files.snapshot();
        let bytes = self.compaction_stats.level_bytes.snapshot();
        files.into_iter().zip(bytes).collect()
    }

    /// Whether `region` currently has a compaction in flight.
    pub fn compaction_in_progress(&self, region: RegionId) -> bool {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.compaction_in_progress)
            .unwrap_or(false)
    }

    /// Approximate bytes buffered in `region`'s memstore.
    pub fn memstore_bytes(&self, region: RegionId) -> usize {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.memstore.approx_bytes())
            .unwrap_or(0)
    }

    /// Number of store files backing `region` on this server.
    pub fn storefile_count(&self, region: RegionId) -> usize {
        self.regions
            .borrow()
            .get(&region)
            .map(|st| st.storefiles.len())
            .unwrap_or(0)
    }

    /// Directly injects a store file into a hosted region (bulk load).
    /// Used by the workload loader; the file must already be registered.
    pub fn attach_storefile(&self, region: RegionId, data: Rc<StoreFileData>) {
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.storefiles.push(data);
        }
        self.update_file_metrics();
    }

    pub(super) fn check_flushes(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let ccfg = self.cfg.compaction;
        let mut candidates: Vec<RegionId> = Vec::new();
        let overdue = {
            let regions = self.regions.borrow();
            // A filesystem write that was never answered (the request or
            // its reply was lost, or it failed) would otherwise hold the
            // region's flush slot — and with it every split, merge, move
            // and replica sync — for good.
            let now = self.sim.now();
            let unanswered = |st: &&RegionState| {
                let issued = st.flushing.as_ref().map(|(_, issued)| *issued);
                issued.is_some_and(|issued| now - issued > FLUSH_REISSUE_AFTER)
            };
            let mut overdue: Vec<RegionId> = regions
                .values()
                .filter(unanswered)
                .map(|st| st.desc.id)
                .collect();
            overdue.sort_unstable();
            let mut due: Vec<(&RegionId, &RegionState)> = regions
                .iter()
                .filter(|(_, st)| {
                    st.online
                        && !st.flush_busy()
                        // A restructuring region's file set must stay
                        // stable between reference creation and the
                        // flip; its memstore leftovers move to the
                        // outputs.
                        && !st.restructuring
                        && st.memstore.approx_bytes() >= self.cfg.memstore_flush_bytes
                })
                .collect();
            // HashMap iteration order varies per process; flush in region
            // order so runs with the same seed stay byte-identical.
            due.sort_unstable_by_key(|(id, _)| **id);
            for (id, st) in due {
                // Flush stall (hard backpressure): past the file-count
                // limit a flush would only deepen the unmerged backlog,
                // so the memstore keeps absorbing writes until
                // compaction catches up. Only meaningful while
                // compaction runs — without it the backlog would never
                // drain and the stall would hold forever.
                if ccfg.enabled
                    && ccfg.backpressure
                    && self.policy.flush_should_stall(st.stall_signal(), &ccfg)
                {
                    self.compaction_stats.flush_stalls.inc();
                    self.compaction_stats
                        .stall_ns
                        .add(self.cfg.flush_check_interval.nanos());
                    let (region, files) = (*id, st.stall_signal().total_files);
                    self.event("flush.stall", move |line| {
                        write!(line, "region={region} files={files}")
                    });
                    continue;
                }
                candidates.push(*id);
            }
            overdue
        };
        for region in overdue {
            self.reissue_flush(region);
        }
        for region in candidates {
            self.flush_region(region);
        }
    }

    /// The name of this server's next flush output for `region`.
    fn next_flush_path(&self, region: RegionId) -> String {
        let n = self.storefile_counter.get();
        self.storefile_counter.set(n + 1);
        format!("/store/{region}/{:06}-{}", n, self.id)
    }

    /// Flushes `region`'s memstore to a new store file in the filesystem.
    /// Reads keep seeing the data throughout (flushing snapshot).
    pub fn flush_region(self: &Rc<Self>, region: RegionId) {
        let data = {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                return;
            };
            if st.flush_busy() || st.memstore.is_empty() {
                return;
            }
            let path = self.next_flush_path(region);
            let snapshot = st.memstore.take();
            let data = Rc::new(StoreFileData::from_memstore(region, path, &snapshot));
            st.flushing = Some((Rc::clone(&data), self.sim.now()));
            data
        };
        // The flushing snapshot is immediately part of the readable file
        // stack; refresh the gauges now, not only when the DFS write acks.
        self.update_file_metrics();
        self.write_flush_snapshot(region, Rc::clone(&data), data);
    }

    /// Issues the filesystem write of `region`'s flushing snapshot once
    /// more, beside the unanswered one. Under a fresh name: the old one
    /// may exist by now — empty, or even written — and creating it again
    /// would fail. The snapshot, not the attempt, is the unit: whichever
    /// write answers first becomes the store file, under its own name,
    /// and the other's copy is deleted when it answers (one that never
    /// does leaves garbage at worst: an unregistered file is not opened).
    fn reissue_flush(self: &Rc<Self>, region: RegionId) {
        let (snapshot, copy) = {
            let mut regions = self.regions.borrow_mut();
            let Some((snapshot, issued)) =
                regions.get_mut(&region).and_then(|st| st.flushing.as_mut())
            else {
                return;
            };
            *issued = self.sim.now();
            let copy = snapshot.with_path(self.next_flush_path(region));
            (Rc::clone(snapshot), Rc::new(copy))
        };
        let path = copy.path().to_owned();
        self.event("flush.reissue", move |line| {
            write!(line, "region={region} file={path}")
        });
        self.write_flush_snapshot(region, snapshot, copy);
    }

    /// Writes `file` — `region`'s flushing snapshot `snapshot`, or a
    /// renamed copy of it — to the filesystem and, if it is the first
    /// durable copy, swaps it into the store-file stack.
    fn write_flush_snapshot(
        self: &Rc<Self>,
        region: RegionId,
        snapshot: Rc<StoreFileData>,
        file: Rc<StoreFileData>,
    ) {
        let weak = Rc::downgrade(self);
        let written = Rc::clone(&file);
        let image = file.encode();
        self.dfs.write_file(written.path(), image, move |result| {
            let Some(server) = weak.upgrade() else { return };
            if result.is_err() {
                // Filesystem unavailable: leave the snapshot readable in
                // `flushing` — data is not lost, the WAL still covers it —
                // for the flush tick to issue again.
                return;
            }
            if let Some(st) = server.regions.borrow_mut().get_mut(&region) {
                // Another write of the same snapshot answered first (or
                // the region was reopened since): this copy is surplus.
                if !st.flushing_file().is_some_and(|f| Rc::ptr_eq(f, &snapshot)) {
                    server.dfs.delete(file.path());
                    return;
                }
                st.storefiles.push(Rc::clone(&file));
                st.flushing = None;
            }
            server.registry.insert(file);
            server.update_file_metrics();
            // The file set changed and the memstore was truncated:
            // re-baseline every backup lane with a full-state sync
            // (this is also what keeps shadow memstores bounded).
            server.sync_lanes(region, false);
        });
    }

    /// Foreground handler utilization over the window since the last
    /// compaction check (the deficit scheduler's admission signal).
    /// Work this server itself submitted as background (merges, recovery
    /// tracking) is subtracted out, so an admitted merge does not make
    /// the following windows read as foreground saturation.
    fn sample_utilization(&self) -> f64 {
        let now_ns = self.sim.now().nanos();
        let busy_ns = self.handlers.busy_nanos();
        let background_ns = self.background_ns.get();
        let elapsed = now_ns.saturating_sub(self.sched_checked_ns.get());
        let busy_delta = busy_ns.saturating_sub(self.sched_busy_ns.get());
        let background_delta = background_ns.saturating_sub(self.sched_background_ns.get());
        self.sched_checked_ns.set(now_ns);
        self.sched_busy_ns.set(busy_ns);
        self.sched_background_ns.set(background_ns);
        if elapsed == 0 {
            return 0.0;
        }
        let foreground = busy_delta.saturating_sub(background_delta);
        foreground as f64 / (elapsed as f64 * HANDLERS as f64)
    }

    pub(super) fn check_compactions(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let cfg = self.cfg.compaction;
        let utilization = self.sample_utilization();
        // One candidate region per tick: compaction competes with
        // foreground traffic for handler slots, so pace it. The policy
        // decides per region whether a merge is due; the deepest file
        // backlog wins (regions in sorted order for determinism).
        let picked = {
            let regions = self.regions.borrow();
            let mut ordered: Vec<(&RegionId, &RegionState)> = regions.iter().collect();
            ordered.sort_unstable_by_key(|(id, _)| **id);
            let mut best: Option<(usize, RegionId, PlannedCompaction, u64)> = None;
            for (id, st) in ordered {
                if !st.online || st.compaction_in_progress || st.restructuring {
                    continue;
                }
                let metas = st.file_metas();
                let Some(CompactionJob {
                    inputs,
                    output_level,
                    max_output_bytes,
                }) = self.policy.pick(&metas, &cfg)
                else {
                    continue;
                };
                let entries: u64 = inputs.iter().map(|&i| metas[i].entries as u64).sum();
                let plan = PlannedCompaction {
                    input_paths: inputs.iter().map(|&i| metas[i].path.clone()).collect(),
                    output_level,
                    max_output_bytes,
                };
                let depth = st.storefiles.len();
                if best.as_ref().map(|(d, ..)| depth > *d).unwrap_or(true) {
                    best = Some((depth, *id, plan, entries));
                }
            }
            best
        };
        let Some((_, region, plan, total_entries)) = picked else {
            // Nothing due: the deficit bank only accrues against real
            // deferred work.
            self.compaction_deficit.set(0);
            return;
        };
        // Soft backpressure: while the foreground is saturated, a due
        // merge waits — but each deferral banks a deficit token, and a
        // full bank forces the merge so read amplification cannot grow
        // without bound under sustained overload.
        if cfg.backpressure && utilization > cfg.utilization_threshold {
            if self.compaction_deficit.get() < cfg.max_deferrals {
                let deficit = self.compaction_deficit.get() + 1;
                self.compaction_deficit.set(deficit);
                self.compaction_stats.deferred.inc();
                self.event("compaction.defer", move |line| {
                    write!(line, "region={region} deficit={deficit}")
                });
                return;
            }
            self.compaction_stats.forced.inc();
            self.event("compaction.force", move |line| {
                write!(line, "region={region}")
            });
        }
        self.compaction_deficit.set(0);
        {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                return;
            };
            st.compaction_in_progress = true;
        }
        self.compaction_stats.started.inc();
        let (inputs, level) = (plan.input_paths.len(), plan.output_level);
        self.event("compaction.start", move |line| {
            write!(line, "region={region} inputs={inputs} level={level}")
        });
        let service = BASE_SERVICE + cfg.merge_service_per_entry * total_entries.max(1);
        let this = Rc::clone(self);
        self.submit_background(service, move || this.run_compaction(region, plan));
    }

    /// Clears the in-flight flag so a failed attempt can be retried by a
    /// later check.
    fn abort_compaction(&self, region: RegionId) {
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.compaction_in_progress = false;
        }
    }

    /// The merge phase, running on a handler slot. The input set was
    /// chosen when the work was queued; it is re-validated here because
    /// flushes (or a region reopen) may have run in between.
    fn run_compaction(self: &Rc<Self>, region: RegionId, plan: PlannedCompaction) {
        if !self.alive.get() {
            return;
        }
        let merged = {
            let regions = self.regions.borrow();
            let Some(st) = regions.get(&region) else {
                return; // region moved away; nothing to clean up
            };
            let inputs: Vec<Rc<StoreFileData>> = st
                .storefiles
                .iter()
                .filter(|sf| plan.input_paths.iter().any(|p| p == sf.path()))
                .cloned()
                .collect();
            if inputs.len() != plan.input_paths.len() {
                drop(regions);
                self.abort_compaction(region);
                return;
            }
            // Tombstones may only be purged when this merge sees every
            // file of the region (nothing left for them to shadow) — and
            // even then, a recovery's log-suffix replay can park *older*
            // versions in the memstore, so a guard checks for those.
            let major = inputs.len() == st.storefiles.len() && !st.flush_busy();
            let watermark = self
                .gc_watermark
                .borrow()
                .as_ref()
                .map(|source| source())
                .unwrap_or(GcWatermark::ZERO);
            let guard = |row: &[u8], col: &[u8], ts: Timestamp| -> bool {
                if ts == Timestamp::ZERO {
                    return false;
                }
                let below = Timestamp(ts.0 - 1);
                st.memstore.get(row, col, below).is_some()
                    || st
                        .flushing_file()
                        .and_then(|f| f.get(row, col, below))
                        .is_some()
            };
            // Output names draw from the same counter flushes use, one
            // per partition, in partition order — deterministic.
            let counter = &self.storefile_counter;
            let server_id = self.id;
            let path_for = |_: usize| {
                let n = counter.get();
                counter.set(n + 1);
                format!("/store/{region}/{:06}c-{}", n, server_id)
            };
            compaction::merge_store_files_partitioned(
                region,
                &path_for,
                &inputs,
                watermark,
                major,
                &guard,
                plan.max_output_bytes,
            )
        };
        self.compaction_stats
            .versions_dropped
            .add(merged.versions_dropped);

        // Everything was garbage (e.g. a fully deleted key range): no
        // output file to write, just retire the inputs.
        if merged.outputs.is_empty() {
            self.finish_compaction(region, plan.input_paths, Vec::new(), plan.output_level);
            return;
        }

        let outputs: Rc<Vec<Rc<StoreFileData>>> =
            Rc::new(merged.outputs.into_iter().map(Rc::new).collect());
        self.write_compaction_outputs(region, plan.input_paths, outputs, plan.output_level, 0);
    }

    /// Writes output partition `idx` to the filesystem under its temp
    /// name, then recurses to the next; once all are durable, the rename
    /// phase promotes them. A crash mid-way leaves only ignorable `.tmp-`
    /// files — the inputs still cover all data.
    fn write_compaction_outputs(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Rc<Vec<Rc<StoreFileData>>>,
        level: u32,
        idx: usize,
    ) {
        if !self.alive.get() {
            return;
        }
        if idx == outputs.len() {
            self.rename_compaction_outputs(region, input_paths, outputs, level, 0);
            return;
        }
        let tmp = compaction::tmp_name(outputs[idx].path());
        let weak = Rc::downgrade(self);
        self.dfs
            .write_file(&tmp, outputs[idx].encode(), move |result| {
                let Some(server) = weak.upgrade() else { return };
                if !server.alive.get() {
                    return;
                }
                if result.is_err() {
                    // Filesystem unavailable: give up this attempt; the
                    // temp files are ignorable garbage by construction.
                    server.abort_compaction_cleanup(region, &outputs, 0, idx + 1);
                    return;
                }
                server.write_compaction_outputs(region, input_paths, outputs, level, idx + 1);
            });
    }

    /// Promotes durable temp files into their final names one by one,
    /// registering each, then swaps the full output run in. If a rename
    /// fails, the already-promoted prefix stays behind as registered but
    /// unreferenced files — read-equivalent duplicates of the inputs
    /// (which are *not* retired on this path), exactly the crash window
    /// the recovery path already tolerates.
    fn rename_compaction_outputs(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Rc<Vec<Rc<StoreFileData>>>,
        level: u32,
        idx: usize,
    ) {
        if !self.alive.get() {
            return;
        }
        if idx == outputs.len() {
            let outputs = (*outputs).clone();
            self.finish_compaction(region, input_paths, outputs, level);
            return;
        }
        let data = Rc::clone(&outputs[idx]);
        let tmp = compaction::tmp_name(data.path());
        let final_path = data.path().to_owned();
        let weak = Rc::downgrade(self);
        let outputs2 = Rc::clone(&outputs);
        self.dfs.clone().rename(&tmp, &final_path, move |renamed| {
            let Some(server) = weak.upgrade() else { return };
            if !server.alive.get() {
                return;
            }
            if renamed.is_err() {
                server.abort_compaction_cleanup(region, &outputs2, idx, outputs2.len());
                return;
            }
            server.registry.insert(Rc::clone(&data));
            server.rename_compaction_outputs(region, input_paths, outputs2, level, idx + 1);
        });
    }

    /// Deletes the temp files of output partitions `[lo, hi)` (best
    /// effort) and clears the in-flight flag so a later check retries.
    fn abort_compaction_cleanup(
        &self,
        region: RegionId,
        outputs: &Rc<Vec<Rc<StoreFileData>>>,
        lo: usize,
        hi: usize,
    ) {
        for data in &outputs[lo..hi.min(outputs.len())] {
            self.dfs.delete(&compaction::tmp_name(data.path()));
        }
        self.abort_compaction(region);
    }

    /// Atomically swaps the merged output run in for its inputs,
    /// invalidates the region's cached blocks (compaction rewrote them),
    /// records the outputs' level, updates the metrics and retires the
    /// obsolete files from registry + filesystem.
    fn finish_compaction(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        outputs: Vec<Rc<StoreFileData>>,
        level: u32,
    ) {
        let bytes: u64 = outputs.iter().map(|o| o.total_bytes() as u64).sum();
        let filter_created: u64 = outputs.iter().map(|o| o.filter_bytes() as u64).sum();
        let mut filter_dropped = 0u64;
        {
            let mut regions = self.regions.borrow_mut();
            let Some(st) = regions.get_mut(&region) else {
                // The region moved away mid-compaction. Leave the inputs
                // alone — the new host is reading them; the merged files
                // are harmless (read-equivalent) duplicates that a later
                // compaction there will fold in.
                return;
            };
            st.storefiles.retain(|sf| {
                let retired = input_paths.iter().any(|p| p == sf.path());
                if retired {
                    filter_dropped += sf.filter_bytes() as u64;
                }
                !retired
            });
            for p in &input_paths {
                st.file_levels.remove(p);
            }
            for output in outputs {
                if level > 0 {
                    st.file_levels.insert(output.path().to_owned(), level);
                }
                st.storefiles.push(output);
            }
            st.compaction_in_progress = false;
        }
        // The inputs' blocks died with them; drop the region's cached
        // rows so the cache refills from the merged file's blocks.
        self.cache.borrow_mut().evict_region(region);
        self.compaction_stats.completed.inc();
        self.compaction_stats.bytes_rewritten.add(bytes);
        self.compaction_stats
            .files_retired
            .add(input_paths.len() as u64);
        self.compaction_stats
            .filter_bytes_dropped
            .add(filter_dropped);
        self.compaction_stats
            .filter_bytes_created
            .add(filter_created);
        let retired = input_paths.len();
        self.event("compaction.finish", move |line| {
            write!(line, "region={region} retired={retired} bytes={bytes}")
        });
        self.update_file_metrics();
        // Compaction rewrote the file set; re-baseline backup lanes so a
        // promoted shadow resolves the merged files, not retired ones.
        self.sync_lanes(region, false);
        // Retiring the inputs is the one destructive step. If the fence
        // wrongly holds the files (znode raced away), they merely leak —
        // reads stay correct because the merged file is read-equivalent
        // to the inputs.
        self.behind_liveness_fence(move |server| server.retire_compacted_inputs(input_paths));
    }

    /// Runs `destroy` — a step that deletes files — only once this
    /// server has confirmed that its liveness znode still exists: a
    /// server partitioned from the coordination service may already have
    /// been failed over, and the new host still reads these files. A
    /// partitioned server's query never comes back (the network drops
    /// it), so the files survive for the rightful host.
    pub(super) fn behind_liveness_fence(
        self: &Rc<Self>,
        destroy: impl FnOnce(&RegionServer) + 'static,
    ) {
        let coord = self.coord.borrow().clone();
        match coord {
            Some(coord) => {
                let weak = Rc::downgrade(self);
                coord.get_data(&self.id.live_path(), move |znode| {
                    let Some(server) = weak.upgrade() else { return };
                    if znode.is_some() && server.alive.get() {
                        destroy(&server);
                    }
                });
            }
            // No coordination service (standalone server, unit tests):
            // there is no failover to fence against.
            None => destroy(self),
        }
    }

    fn retire_compacted_inputs(&self, input_paths: Vec<String>) {
        // Deletes a physical file and counts the confirmation.
        let delete_confirmed = |path: &str| {
            let stats = self.compaction_stats.clone();
            self.dfs.delete_with_callback(path, move |existed| {
                if existed {
                    stats.deletes_confirmed.inc();
                }
            });
        };
        for path in input_paths {
            let data = self.registry.get(&path);
            self.registry.remove(&path);
            let backing = data
                .as_ref()
                .filter(|d| d.is_reference())
                .map(|d| d.backing_path().to_owned());
            match backing {
                // A split reference half-file: delete its marker file and
                // release the hold on the parent's physical file; when
                // the sibling daughter's reference is gone too, the
                // parent file itself finally dies — "the first major
                // compaction per daughter rewrites the references and
                // drops the parent files".
                Some(backing) => {
                    self.dfs.delete(&path);
                    if self.registry.release_backing_ref(&backing) {
                        self.registry.remove(&backing);
                        delete_confirmed(&backing);
                    }
                }
                None => delete_confirmed(&path),
            }
        }
    }

    /// Refreshes the gauges derived from the current file sets: the
    /// worst-case read amplification, the filter-metadata footprint and
    /// the per-level file/byte profile. (Order-independent reductions
    /// over the region map, so HashMap iteration order is harmless.)
    pub(super) fn update_file_metrics(&self) {
        let regions = self.regions.borrow();
        let max_files = regions
            .values()
            .map(|st| st.storefiles.len() + usize::from(st.flush_busy()))
            .max()
            .unwrap_or(0);
        self.compaction_stats
            .read_amplification
            .set(max_files as u64);
        let filter_bytes: usize = regions
            .values()
            .flat_map(|st| st.flushing_file().into_iter().chain(st.storefiles.iter()))
            .map(|sf| sf.filter_bytes())
            .sum();
        self.filter_stats.filter_bytes.set(filter_bytes as u64);
        let mut level_files: Vec<u64> = Vec::new();
        let mut level_bytes: Vec<u64> = Vec::new();
        let mut bump = |level: usize, bytes: u64| {
            if level_files.len() <= level {
                level_files.resize(level + 1, 0);
                level_bytes.resize(level + 1, 0);
            }
            level_files[level] += 1;
            level_bytes[level] += bytes;
        };
        // lint:allow(CD001, reason = "order-independent reduction: bump() only adds into per-level counters, so the final gauge values do not depend on region visit order")
        for st in regions.values() {
            if let Some(fl) = st.flushing_file() {
                bump(0, fl.total_bytes() as u64);
            }
            for sf in &st.storefiles {
                bump(st.level_of(sf.path()) as usize, sf.total_bytes() as u64);
            }
        }
        self.compaction_stats.level_files.set_all(level_files);
        self.compaction_stats.level_bytes.set_all(level_bytes);
    }
}

//! A region's files: memstore flushes, background compaction (see
//! `crate::compaction` for the pick, the merge and the crash-safety
//! argument) and the gauges derived from the file sets.

use super::data_path::BASE_SERVICE;
use super::{RegionServer, RegionState, HANDLERS};
use crate::compaction::{self, CompactionStats};
use crate::sstable::StoreFileData;
use crate::types::{RegionId, Timestamp};
use cumulo_sim::{fields, SimDuration};

use std::rc::Rc;

/// How long the filesystem write of a flush may stay unanswered before
/// the flush tick issues another beside it. Several times what a
/// default-sized memstore takes to cross the modelled LAN (about five
/// seconds), so a healthy run never re-issues one; a slower write that
/// answers after all still counts, so this bounds duplicate work only.
const FLUSH_REISSUE_AFTER: SimDuration = SimDuration::from_secs(30);

impl RegionServer {
    /// Compaction observability: counters and the read-amplification
    /// gauge (shared handles; clone freely).
    pub fn compaction_stats(&self) -> &CompactionStats {
        &self.compaction_stats
    }

    /// Whether `region` currently has a compaction in flight.
    pub fn compaction_in_progress(&self, region: RegionId) -> bool {
        self.with_region(region, |st| st.compaction_in_progress) == Some(true)
    }

    /// Approximate bytes buffered in `region`'s memstore.
    pub fn memstore_bytes(&self, region: RegionId) -> usize {
        self.with_region(region, |st| st.memstore.approx_bytes())
            .unwrap_or(0)
    }

    /// Number of store files backing `region` on this server.
    pub fn storefile_count(&self, region: RegionId) -> usize {
        self.with_region(region, |st| st.storefiles.len())
            .unwrap_or(0)
    }

    /// The one door a durable file joins a live region through (a flush,
    /// a compaction — `None` if it dropped everything — or a bulk load):
    /// registers it, stacks it if the region is hosted here, refreshes the
    /// file gauges and re-syncs every backup lane with the new file set.
    pub fn add_storefile(self: &Rc<Self>, region: RegionId, file: Option<Rc<StoreFileData>>) {
        if let Some(file) = file {
            self.registry.insert(Rc::clone(&file));
            if let Some(st) = self.mem.borrow_mut().regions.get_mut(&region) {
                st.storefiles.push(file);
            }
        }
        self.update_file_metrics();
        self.sync_lanes(region, false);
    }

    pub(super) fn check_flushes(self: &Rc<Self>) {
        let ccfg = self.cfg.compaction;
        let mut candidates: Vec<RegionId> = Vec::new();
        let overdue = {
            let regions = &self.mem.borrow().regions;
            // A filesystem write that was never answered (the request or
            // its reply was lost, or it failed) would otherwise hold the
            // region's flush slot — and with it every split, merge, move
            // and replica sync — for good.
            let now = self.sim.now();
            let unanswered = |st: &&RegionState| {
                let issued = st.flushing.as_ref().map(|(_, issued)| *issued);
                issued.is_some_and(|issued| now - issued > FLUSH_REISSUE_AFTER)
            };
            let overdue: Vec<RegionId> = regions
                .values()
                .filter(unanswered)
                .map(|st| st.desc.id)
                .collect();
            let due = regions.iter().filter(|(_, st)| {
                st.online
                    && !st.flush_busy()
                    // A restructuring region's file set must stay stable
                    // between reference creation and the flip; its
                    // memstore leftovers move to the outputs.
                    && !st.restructuring
                    && st.memstore.approx_bytes() >= self.cfg.memstore_flush_bytes
            });
            for (id, st) in due {
                // Flush stall (hard backpressure): past the file-count
                // limit a flush would only deepen the unmerged backlog,
                // so the memstore keeps absorbing writes until
                // compaction catches up. Only meaningful while
                // compaction runs — without it the backlog would never
                // drain and the stall would hold forever.
                let files = st.storefiles.len();
                if ccfg.enabled && ccfg.backpressure && compaction::flush_should_stall(files, &ccfg)
                {
                    self.compaction_stats.flush_stalls.inc();
                    self.compaction_stats
                        .stall_ns
                        .add(self.cfg.flush_check_interval.nanos());
                    let region = *id;
                    self.event("flush.stall", fields!(region, files));
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

    /// The name of this server's next flush output for `region`, from
    /// the store-file `counter`.
    fn next_flush_path(&self, counter: &mut u64, region: RegionId) -> String {
        let n = *counter;
        *counter += 1;
        format!("/store/{region}/{:06}-{}", n, self.id)
    }

    /// Flushes `region`'s memstore to a new store file in the filesystem.
    /// Reads keep seeing the data throughout (flushing snapshot).
    pub fn flush_region(self: &Rc<Self>, region: RegionId) {
        let data = {
            let mem = &mut *self.mem.borrow_mut();
            let Some(st) = mem.regions.get_mut(&region) else {
                return;
            };
            if st.flush_busy() || st.memstore.is_empty() {
                return;
            }
            let path = self.next_flush_path(&mut mem.storefile_counter, region);
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
            let mem = &mut *self.mem.borrow_mut();
            let st = mem.regions.get_mut(&region);
            let Some((snapshot, issued)) = st.and_then(|st| st.flushing.as_mut()) else {
                return;
            };
            *issued = self.sim.now();
            let path = self.next_flush_path(&mut mem.storefile_counter, region);
            let copy = snapshot.with_path(path);
            (Rc::clone(snapshot), Rc::new(copy))
        };
        let path = copy.path().to_owned();
        self.event("flush.reissue", fields!(region, file = path));
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
            if let Some(st) = server.mem.borrow_mut().regions.get_mut(&region) {
                // Another write of the same snapshot answered first (or
                // the region was reopened since): this copy is surplus.
                if !st.flushing_file().is_some_and(|f| Rc::ptr_eq(f, &snapshot)) {
                    server.dfs.delete(file.path());
                    return;
                }
                st.flushing = None;
            }
            server.add_storefile(region, Some(file));
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
        let mut mem = self.mem.borrow_mut();
        let elapsed = now_ns.saturating_sub(mem.sched_checked_ns);
        let busy_delta = busy_ns.saturating_sub(mem.sched_busy_ns);
        let background_delta = mem.background_ns.saturating_sub(mem.sched_background_ns);
        mem.sched_checked_ns = now_ns;
        mem.sched_busy_ns = busy_ns;
        mem.sched_background_ns = mem.background_ns;
        if elapsed == 0 {
            return 0.0;
        }
        let foreground = busy_delta.saturating_sub(background_delta);
        foreground as f64 / (elapsed as f64 * HANDLERS as f64)
    }

    pub(super) fn check_compactions(self: &Rc<Self>) {
        let cfg = self.cfg.compaction;
        let utilization = self.sample_utilization();
        // One candidate region per tick: compaction competes with
        // foreground traffic for handler slots, so pace it. The picker
        // decides per region whether a merge is due; the deepest file
        // backlog wins (regions in id order, so ties go to the lowest id).
        // The inputs are resolved to paths, so the plan survives the gap
        // until a handler slot is free.
        let picked = {
            let mem = self.mem.borrow();
            let mut best: Option<(usize, RegionId, Vec<String>, u64)> = None;
            for (id, st) in mem.regions.iter() {
                if !st.online || st.compaction_in_progress || st.restructuring {
                    continue;
                }
                let files = &st.storefiles;
                let sizes: Vec<usize> = files.iter().map(|sf| sf.total_bytes()).collect();
                let Some(inputs) = compaction::pick_candidates(&sizes, &cfg) else {
                    continue;
                };
                let entries: u64 = inputs.iter().map(|&i| files[i].len() as u64).sum();
                let input_paths = inputs.iter().map(|&i| files[i].path().to_owned()).collect();
                let depth = files.len();
                if best.as_ref().map(|(d, ..)| depth > *d).unwrap_or(true) {
                    best = Some((depth, *id, input_paths, entries));
                }
            }
            best
        };
        let Some((_, region, input_paths, total_entries)) = picked else {
            // Nothing due: the deficit bank only accrues against real
            // deferred work.
            self.mem.borrow_mut().compaction_deficit = 0;
            return;
        };
        // Soft backpressure: while the foreground is saturated, a due
        // merge waits — but each deferral banks a deficit token, and a
        // full bank forces the merge so read amplification cannot grow
        // without bound under sustained overload.
        if cfg.backpressure && utilization > cfg.utilization_threshold {
            let deficit = self.mem.borrow().compaction_deficit + 1;
            if deficit <= cfg.max_deferrals {
                self.mem.borrow_mut().compaction_deficit = deficit;
                self.compaction_stats.deferred.inc();
                self.event("compaction.defer", fields!(region, deficit));
                return;
            }
            self.compaction_stats.forced.inc();
            self.event("compaction.force", fields!(region));
        }
        {
            let mut mem = self.mem.borrow_mut();
            mem.compaction_deficit = 0;
            let Some(st) = mem.regions.get_mut(&region) else {
                return;
            };
            st.compaction_in_progress = true;
        }
        self.compaction_stats.started.inc();
        let fields = fields!(region, inputs = input_paths.len(), level = 0u64);
        self.event("compaction.start", fields);
        let service = BASE_SERVICE + cfg.merge_service_per_entry * total_entries.max(1);
        let this = Rc::clone(self);
        self.submit_background(service, move || this.run_compaction(region, input_paths));
    }

    /// The merge phase, running on a handler slot. The input set was
    /// chosen when the work was queued; it is re-validated here because
    /// flushes (or a region reopen) may have run in between.
    fn run_compaction(self: &Rc<Self>, region: RegionId, input_paths: Vec<String>) {
        let (output, versions_dropped) = {
            let mem = &mut *self.mem.borrow_mut();
            let Some(st) = mem.regions.get_mut(&region) else {
                return; // region moved away; nothing to clean up
            };
            let inputs: Vec<Rc<StoreFileData>> = st
                .storefiles
                .iter()
                .filter(|sf| input_paths.iter().any(|p| p == sf.path()))
                .cloned()
                .collect();
            if inputs.len() != input_paths.len() {
                st.compaction_in_progress = false;
                return;
            }
            // Tombstones may only be purged when this merge sees every
            // file of the region (nothing left for them to shadow) — and
            // even then, a recovery's log-suffix replay can park *older*
            // versions in the memstore, so a guard checks for those.
            let major = inputs.len() == st.storefiles.len() && !st.flush_busy();
            let watermark = (self.gc_watermark)();
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
            // The output's name draws from the same counter flushes use
            // — deterministic.
            let name = || {
                let n = mem.storefile_counter;
                mem.storefile_counter += 1;
                format!("/store/{region}/{:06}c-{}", n, self.id)
            };
            compaction::merge_survivors(region, name, &inputs, watermark, major, &guard)
        };
        self.compaction_stats.versions_dropped.add(versions_dropped);

        match output {
            Some(output) => self.write_compaction_output(region, input_paths, Rc::new(output)),
            // Everything was garbage (e.g. a fully deleted key range): no
            // output file to write, just retire the inputs.
            None => self.finish_compaction(region, input_paths, None),
        }
    }

    /// Writes the merged file to the filesystem under its temp name; once
    /// it is durable, the rename phase promotes it. A crash before the
    /// rename leaves only an ignorable `.tmp-` file — the inputs still
    /// cover all data.
    fn write_compaction_output(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        output: Rc<StoreFileData>,
    ) {
        let tmp = compaction::tmp_name(output.path());
        let weak = Rc::downgrade(self);
        self.dfs.write_file(&tmp, output.encode(), move |result| {
            let Some(server) = weak.upgrade() else { return };
            if result.is_err() {
                // Filesystem unavailable: give up this attempt; the temp
                // file is ignorable garbage by construction.
                server.abort_compaction_cleanup(region, &output);
                return;
            }
            server.rename_compaction_output(region, input_paths, output);
        });
    }

    /// Promotes the durable temp file into its final name and swaps it
    /// in. If the rename fails the inputs are not retired, so they still
    /// cover all data.
    fn rename_compaction_output(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        output: Rc<StoreFileData>,
    ) {
        let tmp = compaction::tmp_name(output.path());
        let final_path = output.path().to_owned();
        let weak = Rc::downgrade(self);
        self.dfs.rename(&tmp, &final_path, move |renamed| {
            let Some(server) = weak.upgrade() else { return };
            if renamed.is_err() {
                server.abort_compaction_cleanup(region, &output);
                return;
            }
            server.finish_compaction(region, input_paths, Some(output));
        });
    }

    /// Deletes the temp file of `output` (best effort) and clears the
    /// in-flight flag so a later check retries.
    fn abort_compaction_cleanup(&self, region: RegionId, output: &StoreFileData) {
        self.dfs.delete(&compaction::tmp_name(output.path()));
        if let Some(st) = self.mem.borrow_mut().regions.get_mut(&region) {
            st.compaction_in_progress = false;
        }
    }

    /// Atomically swaps the merged file in for its inputs, invalidates
    /// the region's cached blocks (compaction rewrote them), updates the
    /// metrics and retires the obsolete files from registry + filesystem.
    /// The merged file joins after the `compaction.finish` record.
    fn finish_compaction(
        self: &Rc<Self>,
        region: RegionId,
        input_paths: Vec<String>,
        output: Option<Rc<StoreFileData>>,
    ) {
        let bytes: u64 = output.iter().map(|o| o.total_bytes() as u64).sum();
        let filter_created: u64 = output.iter().map(|o| o.filter_bytes() as u64).sum();
        let mut filter_dropped = 0u64;
        {
            let mut mem = self.mem.borrow_mut();
            let Some(st) = mem.regions.get_mut(&region) else {
                // The region moved away mid-compaction. Leave the inputs
                // alone — the new host is reading them; the merged file
                // is a harmless (read-equivalent) duplicate that a later
                // compaction there will fold in.
                drop(mem);
                self.add_storefile(region, output);
                return;
            };
            st.storefiles.retain(|sf| {
                let retired = input_paths.iter().any(|p| p == sf.path());
                if retired {
                    filter_dropped += sf.filter_bytes() as u64;
                }
                !retired
            });
            st.compaction_in_progress = false;
            // The inputs' blocks died with them; drop the region's cached
            // rows so the cache refills from the merged file's blocks.
            mem.cache.evict_region(region);
        }
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
        let fields = fields!(region, retired = input_paths.len(), bytes);
        self.event("compaction.finish", fields);
        self.add_storefile(region, output);
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
        let weak = Rc::downgrade(self);
        self.coord.get_data(&self.id.live_path(), move |znode| {
            let Some(server) = weak.upgrade() else { return };
            if znode.is_some() {
                destroy(&server);
            }
        });
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
    /// worst-case read amplification and the filter-metadata footprint.
    pub(super) fn update_file_metrics(&self) {
        let regions = &self.mem.borrow().regions;
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
    }
}

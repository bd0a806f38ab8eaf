//! Online structure changes — region splits and merges — on the server:
//! one protocol (see ARCHITECTURE.md, "Structure changes").
//!
//! candidate → flush the inputs → durable intent at the master → a
//! reference file (and its marker) from every input file into every
//! output it intersects → one atomic flip → tell the master. A split is
//! the 1→2 shape, a merge the 2→1 shape; they differ in how a candidate
//! is picked ([`RegionServer::check_splits`], [`RegionServer::check_merges`]
//! and the [`RegionServer::request_region_merge`] admin trigger) and in
//! the strings [`ChangeKind`] supplies. Everything from
//! [`RegionServer::begin_change`] on is written once.

use super::{RegionServer, RegionState};
use crate::memstore::MemStore;
use crate::region::{ChangeKind, RegionDescriptor, StructureChange};
use crate::sstable::StoreFileData;
use crate::types::RegionId;
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, MetricsRegistry};
use cumulo_sim::{Reply, SimDuration};
use std::fmt::Write as _;
use std::rc::Rc;

/// Shared observability for one kind of online structure change — a
/// server keeps one for splits and one for merges (all handles clone
/// cheaply and share state, like [`crate::CompactionStats`]).
#[derive(Clone, Debug)]
pub struct StructureStats {
    /// Candidacies accepted (a pending change was set up), by the timer
    /// or the admin trigger.
    pub considered: Counter,
    /// Intent requests sent to the master.
    pub intents_requested: Counter,
    /// Intents whose execution reached the reference-building phase.
    pub executing: Counter,
    /// Changes flipped: the inputs were atomically replaced by the
    /// outputs.
    pub completed: Counter,
    /// Requests the master denied plus granted intents abandoned
    /// server-side (reference marker writes failed); master-side
    /// rollbacks are counted at the master.
    pub aborted: Counter,
}

impl StructureStats {
    /// The server's statistics for `kind`, each registered in `metrics`
    /// under its `store.{split,merge}.*` key with the server's `labels`.
    pub(crate) fn new(
        metrics: &MetricsRegistry,
        labels: &[(&str, &str)],
        kind: ChangeKind,
    ) -> Self {
        let c = |field: &str| metrics.counter(&format!("store.{}.{field}", kind.name()), labels);
        StructureStats {
            considered: c("considered"),
            intents_requested: c("intents_requested"),
            executing: c("executing"),
            completed: c("completed"),
            aborted: c("aborted"),
        }
    }
}

/// The server-local state machine of the one in-flight structure change
/// (one at a time per server — they are rare, metadata-only events).
pub(super) struct PendingChange {
    /// The hosted regions being replaced, adjacent and in key order.
    inputs: Vec<RegionId>,
    /// The proposed boundaries between the outputs: the split key, or
    /// nothing for a merge.
    cuts: Vec<Bytes>,
    /// Whether the pre-change flush round has been issued.
    flush_issued: bool,
    /// Whether the intent request has been sent to the master.
    intent_sent: bool,
}

impl PendingChange {
    pub(super) fn kind(&self) -> ChangeKind {
        ChangeKind::of(&self.inputs)
    }
}

/// Everything a granted change carries between the reference-building
/// phase, the marker writes and the flip.
struct ChangeWork {
    change: StructureChange,
    /// Per output, its reference files with the level inherited from
    /// the file each was cut from (outputs clip or concatenate disjoint
    /// ranges, so levels ≥ 1 stay pairwise disjoint).
    files: Vec<Vec<(Rc<StoreFileData>, u32)>>,
    /// `(marker path, marker content)` per reference, written to the
    /// filesystem before the flip so a failover can list the outputs'
    /// file sets.
    markers: Vec<(String, Bytes)>,
}

/// The durable content of a reference marker file: which physical file
/// backs the reference and the clip range. (The simulation resolves
/// references through the shared registry; the marker's bytes exist so
/// the output directory listing — what a failover reads — is honest.)
fn encode_ref_marker(r: &StoreFileData) -> Bytes {
    let mut enc = crate::codec::Encoder::new();
    enc.put_bytes(r.backing_path().as_bytes());
    enc.put_u32(r.region().0);
    match r.key_range() {
        Some((min, max)) => {
            enc.put_u8(1);
            enc.put_bytes(min);
            enc.put_bytes(max);
        }
        None => enc.put_u8(0),
    }
    enc.finish()
}

impl RegionServer {
    /// Observability of one kind of structure change — splits or merges:
    /// candidacies, intents, completions (shared handles; clone freely).
    pub fn structure_stats(&self, kind: ChangeKind) -> &StructureStats {
        kind.pick(&self.split_stats, &self.merge_stats)
    }

    /// The kind of the split or merge this server has pending or
    /// executing, if any.
    pub fn pending_change(&self) -> Option<ChangeKind> {
        self.pending_change.borrow().as_ref().map(|p| p.kind())
    }

    /// The head of both candidacy timers: whether a tick of `kind` may
    /// pick a new candidate. One structure change runs at a time per
    /// server; a pending change of this kind is advanced instead, and a
    /// pending change of the other kind defers this tick untouched (its
    /// own timer drives it).
    fn candidacy_open(self: &Rc<Self>, kind: ChangeKind) -> bool {
        if !self.alive.get() {
            return false;
        }
        match self.pending_change() {
            Some(pending) if pending == kind => {
                self.advance_pending_change();
                false
            }
            Some(_) => false,
            // No master wiring — structure changes are inert.
            None => self.master.borrow().is_some(),
        }
    }

    /// The split candidacy check (fixed-phase timer): the hosted region
    /// with the most durable bytes over the threshold, split at its
    /// largest file's middle row.
    pub(super) fn check_splits(self: &Rc<Self>) {
        if !self.candidacy_open(ChangeKind::Split) {
            return;
        }
        // Deepest store-file backlog first, ids as the deterministic
        // tie-break (same discipline as the compaction scheduler).
        let picked = {
            let regions = self.regions.borrow();
            let mut ordered: Vec<(&RegionId, &RegionState)> = regions.iter().collect();
            ordered.sort_unstable_by_key(|(id, _)| **id);
            let mut best: Option<(usize, RegionId, Bytes)> = None;
            for (id, st) in ordered {
                if !st.restructurable() {
                    continue;
                }
                let bytes: usize = st.storefiles.iter().map(|sf| sf.total_bytes()).sum();
                if bytes < self.cfg.split.threshold_bytes {
                    continue;
                }
                // Midpoint from file metadata: the largest store file's
                // middle row (HBase's midkey heuristic), valid only if it
                // falls strictly inside the region — both daughters must
                // be non-empty key ranges.
                let largest = st
                    .storefiles
                    .iter()
                    .max_by(|a, b| (a.total_bytes(), a.path()).cmp(&(b.total_bytes(), b.path())));
                let Some(key) = largest.and_then(|sf| sf.mid_row()) else {
                    continue;
                };
                if !st.desc.splits_at(&key) {
                    continue;
                }
                if best.as_ref().map(|(b, ..)| bytes > *b).unwrap_or(true) {
                    best = Some((bytes, *id, key));
                }
            }
            best
        };
        if let Some((_, region, split_key)) = picked {
            self.begin_change(vec![region], vec![split_key]);
        }
    }

    /// The merge candidacy check (fixed-phase timer): among hosted
    /// regions no structural operation is touching, the adjacent pair
    /// with the smallest combined durable bytes under the threshold.
    pub(super) fn check_merges(self: &Rc<Self>) {
        if !self.candidacy_open(ChangeKind::Merge) {
            return;
        }
        let picked = {
            let regions = self.regions.borrow();
            let mut hosted: Vec<(&RegionId, &RegionState)> = regions
                .iter()
                .filter(|(_, st)| st.restructurable())
                .collect();
            // Adjacency is a key-order property: sort by start key (the
            // sort also fixes HashMap iteration order, keeping runs with
            // the same seed byte-identical).
            hosted.sort_unstable_by(|a, b| a.1.desc.start.cmp(&b.1.desc.start));
            let mut best: Option<(usize, RegionId, RegionId)> = None;
            for w in hosted.windows(2) {
                let (lid, l) = w[0];
                let (rid, r) = w[1];
                if l.desc.end.as_deref() != Some(&r.desc.start[..]) {
                    continue; // co-hosted but not adjacent in the keyspace
                }
                let bytes: usize = l
                    .storefiles
                    .iter()
                    .chain(r.storefiles.iter())
                    .map(|sf| sf.total_bytes())
                    .sum();
                if bytes >= self.cfg.merge.threshold_bytes {
                    continue;
                }
                // Smallest combined pair first; strict < keeps the first
                // pair in key order on ties.
                if best.as_ref().map(|(b, ..)| bytes < *b).unwrap_or(true) {
                    best = Some((bytes, *lid, *rid));
                }
            }
            best
        };
        if let Some((_, left, right)) = picked {
            self.begin_change(vec![left, right], Vec::new());
        }
    }

    /// Admin trigger: merge the two hosted regions `left` and `right`
    /// immediately (subject to the same validation the candidacy timer
    /// applies), regardless of thresholds or whether the merge timer is
    /// enabled. Returns `false` without side effects when the pair is
    /// not currently mergeable here — not hosted, not adjacent, mid-op,
    /// or another structure change is in flight. This is the HBase-style
    /// `merge_region` admin surface; tests and benches use it to
    /// exercise the protocol deterministically.
    pub fn request_region_merge(self: &Rc<Self>, left: RegionId, right: RegionId) -> bool {
        if !self.alive.get()
            || self.pending_change.borrow().is_some()
            || self.master.borrow().is_none()
        {
            return false;
        }
        let ok = {
            let regions = self.regions.borrow();
            match (regions.get(&left), regions.get(&right)) {
                (Some(l), Some(r)) => {
                    l.restructurable()
                        && r.restructurable()
                        && l.desc.end.as_deref() == Some(&r.desc.start[..])
                }
                _ => false,
            }
        };
        if ok {
            self.begin_change(vec![left, right], Vec::new());
        }
        ok
    }

    /// Accepts a candidate: marks every input as mid-structural-op and
    /// starts driving the pending change (flush, then ask the master for
    /// an intent).
    fn begin_change(self: &Rc<Self>, inputs: Vec<RegionId>, cuts: Vec<Bytes>) {
        {
            let mut regions = self.regions.borrow_mut();
            for id in &inputs {
                if let Some(st) = regions.get_mut(id) {
                    st.restructuring = true;
                }
            }
        }
        let pending = PendingChange {
            inputs: inputs.clone(),
            cuts,
            flush_issued: false,
            intent_sent: false,
        };
        let kind = pending.kind();
        self.structure_stats(kind).considered.inc();
        self.event(kind.pick("split.consider", "merge.consider"), move |line| {
            line.write_str(&kind.inputs_label(&inputs))
        });
        *self.pending_change.borrow_mut() = Some(pending);
        self.advance_pending_change();
    }

    /// Drives the pending change forward: flush every input's memstore
    /// once, then ask the master for a durable intent. Anything the
    /// memstores absorb after the flush moves to the outputs at the
    /// flip, so the inputs keep serving throughout.
    fn advance_pending_change(self: &Rc<Self>) {
        let (kind, inputs, cuts, flush_issued, intent_sent) = {
            let p = self.pending_change.borrow();
            let Some(p) = p.as_ref() else { return };
            (
                p.kind(),
                p.inputs.clone(),
                p.cuts.clone(),
                p.flush_issued,
                p.intent_sent,
            )
        };
        if intent_sent {
            return; // waiting for the master's execute / denial
        }
        let (mut gone, mut flush_busy, mut dirty) = (false, false, false);
        {
            let regions = self.regions.borrow();
            for id in &inputs {
                match regions.get(id) {
                    Some(st) => {
                        flush_busy |= st.flush_busy();
                        dirty |= !st.memstore.is_empty();
                    }
                    None => gone = true,
                }
            }
        }
        if gone {
            self.clear_pending_change();
            return;
        }
        if flush_busy {
            return; // next check tick
        }
        if dirty && !flush_issued {
            if let Some(p) = self.pending_change.borrow_mut().as_mut() {
                p.flush_issued = true;
            }
            for id in &inputs {
                self.flush_region(*id);
            }
            return;
        }
        if let Some(p) = self.pending_change.borrow_mut().as_mut() {
            p.intent_sent = true;
        }
        let Some(master) = self.master.borrow().clone() else {
            self.clear_pending_change();
            return;
        };
        self.structure_stats(kind).intents_requested.inc();
        let (me, journal_inputs) = (self.id, inputs.clone());
        self.event(kind.pick("split.intent", "merge.intent"), move |line| {
            line.write_str(&kind.inputs_label(&journal_inputs))
        });
        let bytes = 96 + cuts.iter().map(Bytes::len).sum::<usize>();
        let (this, first) = (Rc::clone(self), inputs[0]);
        self.net.request(
            self.node,
            master.node(),
            bytes,
            move |reply| master.request_change(me, inputs, cuts, reply),
            move |answer| match answer {
                Some(change) => this.execute_change(change),
                None => this.change_request_denied(first),
            },
        );
    }

    /// Drops the pending change and clears its inputs' structural-op
    /// flags (denial, abandonment or a vanished region).
    fn clear_pending_change(&self) {
        let Some(pending) = self.pending_change.borrow_mut().take() else {
            return;
        };
        let mut regions = self.regions.borrow_mut();
        for id in &pending.inputs {
            if let Some(st) = regions.get_mut(id) {
                st.restructuring = false;
            }
        }
    }

    /// The master denied the request for the change whose first input is
    /// `first` (stale assignment, an intent already in flight, or an
    /// invalid shape, key or pair). The inputs resume normal
    /// flush/compaction scheduling.
    fn change_request_denied(&self, first: RegionId) {
        if !self.alive.get() {
            return;
        }
        let pending = self
            .pending_change
            .borrow()
            .as_ref()
            .filter(|p| p.inputs[0] == first)
            .map(|p| (p.kind(), p.inputs.clone()));
        if let Some((kind, inputs)) = pending {
            self.structure_stats(kind).aborted.inc();
            self.event(kind.pick("split.denied", "merge.denied"), move |line| {
                line.write_str(&kind.inputs_label(&inputs))
            });
            self.clear_pending_change();
        }
    }

    /// The master granted the request: the intent is durable — execute.
    /// Cuts a reference from every input store file into every output
    /// whose range it intersects, makes the references' marker files
    /// durable in the filesystem (so a failover can resolve the outputs'
    /// file sets), then flips atomically.
    fn execute_change(self: &Rc<Self>, change: StructureChange) {
        if !self.alive.get() {
            return;
        }
        let matches = self
            .pending_change
            .borrow()
            .as_ref()
            .map(|p| p.inputs == change.inputs && p.cuts.iter().eq(change.cuts()))
            .unwrap_or(false);
        if !matches {
            // We no longer recognize this intent (e.g. abandoned); tell
            // the master to roll it back rather than leaving it dangling.
            self.notify_change_aborted(change.inputs[0]);
            return;
        }
        // A compaction admitted before the change became pending may
        // still be in flight; every input's file set must be quiescent
        // before references are cut over it. Retry shortly (fixed delay,
        // no RNG).
        let busy = {
            let regions = self.regions.borrow();
            change
                .inputs
                .iter()
                .any(|id| regions.get(id).map(|st| !st.quiescent()).unwrap_or(false))
        };
        if busy {
            let this = Rc::clone(self);
            self.sim
                .schedule_in(SimDuration::from_millis(200), move || {
                    this.execute_change(change)
                });
            return;
        }
        let kind = change.kind();
        self.structure_stats(kind).executing.inc();
        let journal_change = change.clone();
        self.event(kind.pick("split.execute", "merge.execute"), move |line| {
            line.write_str(&journal_change.label())
        });
        let sources: Option<Vec<(RegionDescriptor, Vec<(Rc<StoreFileData>, u32)>)>> = {
            let regions = self.regions.borrow();
            change
                .inputs
                .iter()
                .map(|id| {
                    regions.get(id).map(|st| {
                        (
                            st.desc.clone(),
                            st.storefiles
                                .iter()
                                .map(|sf| (Rc::clone(sf), st.level_of(sf.path())))
                                .collect(),
                        )
                    })
                })
                .collect()
        };
        let Some(sources) = sources else {
            self.notify_change_aborted(change.inputs[0]);
            self.clear_pending_change();
            return;
        };
        let mut files: Vec<Vec<(Rc<StoreFileData>, u32)>> = vec![Vec::new(); change.outputs.len()];
        let mut markers: Vec<(String, Bytes)> = Vec::new();
        for (src, src_files) in &sources {
            for (sf, level) in src_files {
                let base = sf.path().rsplit('/').next().unwrap_or("file");
                for (out, out_files) in change.outputs.iter().zip(files.iter_mut()) {
                    // Merged inputs may both hold references with the
                    // same base name (after earlier splits of a common
                    // ancestor); the source region id disambiguates.
                    let path = match kind {
                        ChangeKind::Split => format!("/store/{}/ref-{base}", out.id),
                        ChangeKind::Merge => format!("/store/{}/ref-{}-{base}", out.id, src.id.0),
                    };
                    // The part of the file the output owns: where the
                    // source's range and the output's overlap.
                    let lo = (&src.start).max(&out.start);
                    let hi = match (&src.end, &out.end) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.as_ref().or(b.as_ref()),
                    };
                    let Some(r) =
                        StoreFileData::reference(sf, out.id, path, lo, hi.map(|b| &b[..]))
                    else {
                        continue;
                    };
                    let r = Rc::new(r);
                    // The source's physical file must outlive this
                    // reference; the registry tracks the hold.
                    self.registry.add_backing_ref(r.backing_path());
                    self.registry.insert(Rc::clone(&r));
                    markers.push((r.path().to_owned(), encode_ref_marker(&r)));
                    out_files.push((r, *level));
                }
            }
        }
        let work = Rc::new(ChangeWork {
            change,
            files,
            markers,
        });
        self.write_change_markers(work, 0);
    }

    /// Writes reference marker file `idx` to the filesystem, then
    /// recurses; once all are durable the flip runs. A crash mid-way
    /// leaves only orphaned markers under output directories the region
    /// map never learns about — the master's failover rolls the intent
    /// back and recovers the inputs from their untouched files.
    fn write_change_markers(self: &Rc<Self>, work: Rc<ChangeWork>, idx: usize) {
        if !self.alive.get() {
            return;
        }
        if idx == work.markers.len() {
            self.finish_change(&work);
            return;
        }
        let (path, content) = work.markers[idx].clone();
        let weak = Rc::downgrade(self);
        self.dfs.write_file(&path, content, move |result| {
            let Some(server) = weak.upgrade() else { return };
            if !server.alive.get() {
                return;
            }
            if result.is_err() {
                server.abort_granted_change(&work);
                return;
            }
            server.write_change_markers(work, idx + 1);
        });
    }

    /// Server-side rollback of a granted intent (marker writes failed):
    /// unregister the references, release the backing holds (the inputs
    /// still own their physical files, so nothing is deleted),
    /// best-effort delete the markers, and tell the master.
    fn abort_granted_change(self: &Rc<Self>, work: &ChangeWork) {
        for (sf, _) in work.files.iter().flatten() {
            self.registry.remove(sf.path());
            let _ = self.registry.release_backing_ref(sf.backing_path());
        }
        for (path, _) in &work.markers {
            self.dfs.delete(path);
        }
        let kind = work.change.kind();
        self.structure_stats(kind).aborted.inc();
        let inputs = work.change.inputs.clone();
        self.event(kind.pick("split.abort", "merge.abort"), move |line| {
            line.write_str(&kind.inputs_label(&inputs))
        });
        self.clear_pending_change();
        self.notify_change_aborted(work.change.inputs[0]);
    }

    fn notify_change_aborted(&self, first: RegionId) {
        let Some(master) = self.master.borrow().clone() else {
            return;
        };
        let id = self.id;
        self.net.send(self.node, master.node(), 48, move || {
            master.change_aborted(id, first)
        });
    }

    /// The atomic flip: in one event every input region state is removed
    /// and every output appears online — reference files as its store
    /// stack, the inputs' leftover memstore cells routed to the output
    /// that covers their row. At no instant are an input and an output
    /// both servable. The master is then told to apply the map change.
    fn finish_change(self: &Rc<Self>, work: &ChangeWork) {
        if !self.alive.get() {
            return;
        }
        let change = &work.change;
        let superseded = {
            let mut regions = self.regions.borrow_mut();
            if !change.inputs.iter().all(|id| regions.contains_key(id)) {
                drop(regions);
                self.abort_granted_change(work);
                return;
            }
            let inputs: Vec<RegionState> = change
                .inputs
                .iter()
                .map(|id| regions.remove(id).expect("checked"))
                .collect();
            // Leftover memstore entries (absorbed since the pre-change
            // flush; all covered by WAL records the failover remaps by
            // row) move to the output that starts at or below their row
            // — the outputs partition the inputs' ranges.
            let mut memstores: Vec<MemStore> =
                change.outputs.iter().map(|_| MemStore::new()).collect();
            for (r, c, ts, v) in inputs.iter().flat_map(|st| st.memstore.iter()) {
                let owner = change.outputs.iter().rposition(|o| o.start <= *r);
                memstores[owner.unwrap_or(0)].apply(r.clone(), c.clone(), ts, v.clone());
            }
            // An input file that is itself a reference (the input came
            // from an earlier split or merge) is superseded: the new
            // references back directly onto the physical file and hold
            // their own counts. Its retirement is destructive (registry
            // and filesystem deletes), so it runs *after* the flip,
            // behind the same coordination fence as compaction input
            // retirement — a zombie server must not delete files its
            // failover successor is reading.
            let superseded: Vec<Rc<StoreFileData>> = inputs
                .iter()
                .flat_map(|st| st.storefiles.iter())
                .filter(|sf| sf.is_reference())
                .cloned()
                .collect();
            for ((desc, files), memstore) in change.outputs.iter().zip(&work.files).zip(memstores) {
                regions.insert(
                    desc.id,
                    RegionState {
                        file_levels: files
                            .iter()
                            .filter(|(_, l)| *l > 0)
                            .map(|(f, l)| (f.path().to_owned(), *l))
                            .collect(),
                        online: true,
                        ..RegionState::new(
                            desc.clone(),
                            memstore,
                            files.iter().map(|(f, _)| Rc::clone(f)).collect(),
                        )
                    },
                );
            }
            superseded
        };
        // The inputs' cached blocks belong to regions that no longer
        // exist; the outputs refill under their own ids.
        for id in &change.inputs {
            self.cache.borrow_mut().evict_region(*id);
        }
        // The inputs' accumulated load history moves to the outputs in
        // equal shares — the placement signal must not read a server
        // that just split its hottest region, or merged two warm ones,
        // as suddenly idle.
        let load: u64 = change
            .inputs
            .iter()
            .map(|id| self.region_load.get(id.0 as u64))
            .sum();
        for id in &change.inputs {
            self.region_load.remove(id.0 as u64);
        }
        let (share, last) = (load / change.outputs.len() as u64, change.outputs.len() - 1);
        for (i, out) in change.outputs.iter().enumerate() {
            let part = if i < last {
                share
            } else {
                load - share * last as u64
            };
            self.region_load.add(out.id.0 as u64, part);
        }
        self.pending_change.borrow_mut().take();
        let kind = change.kind();
        self.structure_stats(kind).completed.inc();
        let journal_change = change.clone();
        self.event(kind.pick("split.flip", "merge.flip"), move |line| {
            line.write_str(&journal_change.label())
        });
        self.update_file_metrics();
        // A split parent's replica group follows the flip: daughters
        // inherit the parent's lanes (brought in sync by immediate
        // full-state syncs carrying the daughters' reference files), the
        // parent's shadows are closed.
        if let ([parent], [bottom, top]) = (&change.inputs[..], &change.outputs[..]) {
            self.split_replica_groups(*parent, bottom.id, top.id);
        }
        if !superseded.is_empty() {
            self.retire_superseded_references(superseded);
        }
        if let Some(master) = self.master.borrow().clone() {
            let (id, first) = (self.id, change.inputs[0]);
            self.net.send(self.node, master.node(), 64, move || {
                master.change_completed(id, first)
            });
        }
    }

    /// Destroys intermediate reference files superseded by a later
    /// structure change, releasing (and possibly destroying) their
    /// backing holds — behind the same liveness fence as compaction's
    /// input retirement ([`RegionServer::behind_liveness_fence`]): this
    /// server's successor, if it has one, reads exactly these files. A
    /// wrongly held fence merely leaks them (reads stay correct).
    fn retire_superseded_references(self: &Rc<Self>, refs: Vec<Rc<StoreFileData>>) {
        self.behind_liveness_fence(move |server| {
            for sf in refs {
                server.registry.remove(sf.path());
                server.dfs.delete(sf.path());
                let backing = sf.backing_path().to_owned();
                if server.registry.release_backing_ref(&backing) {
                    server.registry.remove(&backing);
                    server.dfs.delete(&backing);
                }
            }
        });
    }

    /// Master RPC: close `region` so it can reopen on another server.
    /// The region goes offline immediately (requests get NotServing, as
    /// during a failover), its memstore is flushed, and once the file
    /// set is quiescent the state is dropped and the answer is `true`.
    /// Refuses (`false`) when the region is mid-flight in any other
    /// operation; a crash mid-close simply never answers, and the
    /// master's failover of this server recovers the region — still
    /// assigned here — through the normal WAL path.
    pub(crate) fn prepare_move<D: FnOnce(bool) + 'static>(
        self: &Rc<Self>,
        region: RegionId,
        reply: Reply<bool, D>,
    ) {
        if !self.alive.get() {
            return;
        }
        let ok = self.pending_move.borrow().is_none() && !self.cfg.replication && {
            let regions = self.regions.borrow();
            let st = regions.get(&region);
            st.is_some_and(|st| st.restructurable() && !st.compaction_in_progress)
        };
        if !ok {
            reply.send(48, false);
            return;
        }
        {
            let mut regions = self.regions.borrow_mut();
            let st = regions.get_mut(&region).expect("checked above");
            st.online = false;
            // The structural-op flag keeps flush checks and compaction
            // candidacy away while this close drives the flush itself.
            st.restructuring = true;
        }
        *self.pending_move.borrow_mut() = Some(region);
        self.event("move.close", move |line| write!(line, "region={region}"));
        self.advance_pending_move(region, reply, 0);
    }

    /// Polls the moving region toward quiescence (fixed 200ms steps, no
    /// RNG): flush anything dirty, wait out in-flight flushes, then drop
    /// the state and answer. Gives up (reopening the region in place) if
    /// the filesystem stays unavailable past the attempt cap.
    fn advance_pending_move<D: FnOnce(bool) + 'static>(
        self: &Rc<Self>,
        region: RegionId,
        reply: Reply<bool, D>,
        attempts: u32,
    ) {
        const MAX_ATTEMPTS: u32 = 50;
        if !self.alive.get() {
            return;
        }
        let regions = self.regions.borrow();
        let state = regions.get(&region);
        let state = state.map(|st| (!st.quiescent(), !st.memstore.is_empty()));
        drop(regions);
        let closed = match state {
            None => false,
            Some((busy, dirty)) if (busy || dirty) && attempts < MAX_ATTEMPTS => {
                if dirty && !busy {
                    self.flush_region(region);
                }
                let this = Rc::clone(self);
                self.sim
                    .schedule_in(SimDuration::from_millis(200), move || {
                        this.advance_pending_move(region, reply, attempts + 1)
                    });
                return;
            }
            // Filesystem unavailable: abandon the move and resume serving
            // in place — the region lost availability for the poll
            // window, not its data.
            Some((busy, dirty)) if busy || dirty => {
                if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
                    st.online = true;
                    st.restructuring = false;
                }
                false
            }
            Some(_) => {
                self.regions.borrow_mut().remove(&region);
                self.cache.borrow_mut().evict_region(region);
                self.region_load.remove(region.0 as u64);
                self.update_file_metrics();
                self.event("move.closed", move |line| write!(line, "region={region}"));
                true
            }
        };
        self.pending_move.borrow_mut().take();
        reply.send(48, closed);
    }
}

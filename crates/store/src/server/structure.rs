//! Online structure changes — region splits, merges and moves — on the
//! server: one protocol (see ARCHITECTURE.md, "Structure changes").
//!
//! candidate → flush the inputs → durable intent at the master → a
//! reference file (and its marker) from every input file into every
//! output it intersects → one atomic flip → tell the master. A split is
//! the 1→2 shape, a merge the 2→1 shape, a move the 1→1 shape; they
//! differ in how a candidate is picked ([`RegionServer::check_splits`],
//! [`RegionServer::check_merges`], the [`RegionServer::request_region_merge`]
//! admin trigger and the master's [`RegionServer::request_region_move`]),
//! in the strings [`ChangeKind`] supplies, and in where a move's output
//! opens: not here, but wherever the master places it. Everything from
//! [`RegionServer::begin_change`] on is written once.

use super::{RegionServer, RegionState};
use crate::codec::WalRecord;
use crate::memstore::MemStore;
use crate::region::{journal_kind, ChangeKind, RegionDescriptor, StructureChange};
use crate::sstable::StoreFileData;
use crate::types::{Mutation, RegionId};
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, MetricsRegistry};
use cumulo_sim::SimDuration;

use std::rc::Rc;

/// The fixed delay (no RNG) of the change's own retries: a granted
/// change waiting for its inputs' file sets to quiesce, and a pending
/// move, which no candidacy tick drives, polling its flush.
const POLL: SimDuration = SimDuration::from_millis(200);

/// Shared observability for one kind of online structure change — a
/// server keeps one each for splits, merges and moves (all handles clone
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
    /// under its `store.{split,merge,move}.*` key with the server's
    /// `labels`.
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
    /// nothing for a merge or a move.
    cuts: Vec<Bytes>,
    /// Whether the pre-change flush round has been issued.
    flush_issued: bool,
    /// Whether the intent request has been sent to the master.
    intent_sent: bool,
}

impl PendingChange {
    pub(super) fn kind(&self) -> ChangeKind {
        ChangeKind::of(self.inputs.len(), self.cuts.len() + 1)
    }
}

/// Everything a granted change carries between the reference-building
/// phase, the marker writes and the flip.
struct ChangeWork {
    change: StructureChange,
    /// Per output, its reference files.
    files: Vec<Vec<Rc<StoreFileData>>>,
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
    /// Observability of one kind of structure change — splits, merges or
    /// moves: candidacies, intents, completions (shared handles; clone
    /// freely).
    pub fn structure_stats(&self, kind: ChangeKind) -> &StructureStats {
        kind.pick(&self.split_stats, &self.merge_stats, &self.move_stats)
    }

    /// The kind of the split, merge or move this server has pending or
    /// executing, if any.
    pub fn pending_change(&self) -> Option<ChangeKind> {
        self.mem.borrow().pending_change.as_ref().map(|p| p.kind())
    }

    /// The head of both candidacy timers: whether a tick of `kind` may
    /// pick a new candidate. One structure change runs at a time per
    /// server; a pending change of this kind is advanced instead, and a
    /// pending change of another kind defers this tick untouched (its
    /// own timer, or a move's own poll, drives it).
    fn candidacy_open(self: &Rc<Self>, kind: ChangeKind) -> bool {
        match self.pending_change() {
            Some(pending) if pending == kind => {
                self.advance_pending_change();
                false
            }
            Some(_) => false,
            None => true,
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
            let mem = self.mem.borrow();
            let mut best: Option<(usize, RegionId, Bytes)> = None;
            for (id, st) in mem.regions.iter() {
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
            let regions = &self.mem.borrow().regions;
            let mut hosted: Vec<(&RegionId, &RegionState)> = regions
                .iter()
                .filter(|(_, st)| st.restructurable())
                .collect();
            // Adjacency is a key-order property: sort by start key.
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
        let ok = {
            let mem = self.mem.borrow();
            match (mem.regions.get(&left), mem.regions.get(&right)) {
                (Some(l), Some(r)) => {
                    mem.pending_change.is_none()
                        && l.restructurable()
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

    /// The master's move request: begin moving `region`, under
    /// [`RegionServer::request_region_merge`]'s rules and only with
    /// replication off. Returns whether the move began.
    pub(crate) fn request_region_move(self: &Rc<Self>, region: RegionId) -> bool {
        let ok = !self.cfg.replication
            && self.pending_change().is_none()
            && self.with_region(region, |st| st.restructurable()) == Some(true);
        if ok {
            self.begin_change(vec![region], Vec::new());
        }
        ok
    }

    /// Accepts a candidate: marks every input as mid-structural-op and
    /// starts driving the pending change (flush, then ask the master for
    /// an intent).
    fn begin_change(self: &Rc<Self>, inputs: Vec<RegionId>, cuts: Vec<Bytes>) {
        let pending = PendingChange {
            inputs: inputs.clone(),
            cuts,
            flush_issued: false,
            intent_sent: false,
        };
        let kind = pending.kind();
        self.structure_stats(kind).considered.inc();
        let fields = kind.input_fields(&inputs);
        self.event(journal_kind!(kind, "consider"), &fields);
        {
            let mut mem = self.mem.borrow_mut();
            for id in &inputs {
                if let Some(st) = mem.regions.get_mut(id) {
                    st.restructuring = true;
                }
            }
            mem.pending_change = Some(pending);
        }
        self.advance_pending_change();
    }

    /// Drives the pending change forward: flush every input's memstore
    /// once, then ask the master for a durable intent. Anything the
    /// memstores absorb after the flush moves to the outputs at the
    /// flip, so the inputs keep serving throughout. A split or a merge
    /// waits for its kind's next candidacy tick; a move polls itself.
    fn advance_pending_change(self: &Rc<Self>) {
        let (kind, inputs, cuts, flush_issued, intent_sent) = {
            let mem = self.mem.borrow();
            let Some(p) = &mem.pending_change else { return };
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
            let mem = self.mem.borrow();
            for id in &inputs {
                match mem.regions.get(id) {
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
            self.poll_move(kind);
            return; // next check tick
        }
        if dirty && !flush_issued {
            if let Some(p) = self.mem.borrow_mut().pending_change.as_mut() {
                p.flush_issued = true;
            }
            for id in &inputs {
                self.flush_region(*id);
            }
            self.poll_move(kind);
            return;
        }
        if let Some(p) = self.mem.borrow_mut().pending_change.as_mut() {
            p.intent_sent = true;
        }
        self.structure_stats(kind).intents_requested.inc();
        let me = self.id;
        let fields = kind.input_fields(&inputs);
        self.event(journal_kind!(kind, "intent"), &fields);
        let bytes = 96 + cuts.iter().map(Bytes::len).sum::<usize>();
        let (this, master, first) = (Rc::clone(self), Rc::clone(&self.master), inputs[0]);
        self.net.request(
            &self.request_change,
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

    /// Advances a pending move again after [`POLL`]: no candidacy tick
    /// drives a move. A split or a merge waits for its own kind's tick.
    fn poll_move(self: &Rc<Self>, kind: ChangeKind) {
        if kind == ChangeKind::Move {
            self.after(POLL, |this| {
                if this.pending_change() == Some(ChangeKind::Move) {
                    this.advance_pending_change();
                }
            });
        }
    }

    /// Drops the pending change and clears its inputs' structural-op
    /// flags (denial, abandonment or a vanished region).
    fn clear_pending_change(&self) {
        let mut mem = self.mem.borrow_mut();
        let Some(pending) = mem.pending_change.take() else {
            return;
        };
        for id in &pending.inputs {
            if let Some(st) = mem.regions.get_mut(id) {
                st.restructuring = false;
            }
        }
    }

    /// The master denied the request for the change whose first input is
    /// `first` (stale assignment, an intent already in flight, or an
    /// invalid shape, key or pair). The inputs resume normal
    /// flush/compaction scheduling.
    fn change_request_denied(&self, first: RegionId) {
        let pending = self
            .mem
            .borrow()
            .pending_change
            .as_ref()
            .filter(|p| p.inputs[0] == first)
            .map(|p| (p.kind(), p.inputs.clone()));
        if let Some((kind, inputs)) = pending {
            self.structure_stats(kind).aborted.inc();
            let fields = kind.input_fields(&inputs);
            self.event(journal_kind!(kind, "denied"), &fields);
            self.clear_pending_change();
        }
    }

    /// The master granted the request: the intent is durable — execute.
    /// Cuts a reference from every input store file into every output
    /// whose range it intersects, makes the references' marker files
    /// durable in the filesystem (so a failover can resolve the outputs'
    /// file sets), then flips atomically.
    fn execute_change(self: &Rc<Self>, change: StructureChange) {
        let matches = self
            .mem
            .borrow()
            .pending_change
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
            let regions = &self.mem.borrow().regions;
            let busy = |id| regions.get(id).is_some_and(|st| !st.quiescent());
            change.inputs.iter().any(busy)
        };
        if busy {
            self.after(POLL, move |this| this.execute_change(change));
            return;
        }
        let kind = change.kind();
        self.structure_stats(kind).executing.inc();
        let fields = change.fields();
        self.event(journal_kind!(kind, "execute"), &fields);
        let sources: Option<Vec<(RegionDescriptor, Vec<Rc<StoreFileData>>)>> = {
            let regions = &self.mem.borrow().regions;
            change
                .inputs
                .iter()
                .map(|id| {
                    regions
                        .get(id)
                        .map(|st| (st.desc.clone(), st.storefiles.clone()))
                })
                .collect()
        };
        let Some(sources) = sources else {
            self.notify_change_aborted(change.inputs[0]);
            self.clear_pending_change();
            return;
        };
        let mut files: Vec<Vec<Rc<StoreFileData>>> = vec![Vec::new(); change.outputs.len()];
        let mut markers: Vec<(String, Bytes)> = Vec::new();
        for (src, src_files) in &sources {
            for sf in src_files {
                let base = sf.path().rsplit('/').next().unwrap_or("file");
                for (out, out_files) in change.outputs.iter().zip(files.iter_mut()) {
                    // Merged inputs may both hold references with the
                    // same base name (after earlier splits of a common
                    // ancestor); the source region id disambiguates.
                    let path = match kind {
                        ChangeKind::Split | ChangeKind::Move => {
                            format!("/store/{}/ref-{base}", out.id)
                        }
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
                    out_files.push(r);
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
        if idx == work.markers.len() {
            self.finish_change(&work);
            return;
        }
        let (path, content) = work.markers[idx].clone();
        let weak = Rc::downgrade(self);
        self.dfs.write_file(&path, content, move |result| {
            let Some(server) = weak.upgrade() else { return };
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
        for sf in work.files.iter().flatten() {
            self.registry.remove(sf.path());
            let _ = self.registry.release_backing_ref(sf.backing_path());
        }
        for (path, _) in &work.markers {
            self.dfs.delete(path);
        }
        let kind = work.change.kind();
        self.structure_stats(kind).aborted.inc();
        let fields = kind.input_fields(&work.change.inputs);
        self.event(journal_kind!(kind, "abort"), &fields);
        self.clear_pending_change();
        self.notify_change_aborted(work.change.inputs[0]);
    }

    fn notify_change_aborted(&self, first: RegionId) {
        let (master, id) = (Rc::clone(&self.master), self.id);
        let ex = &self.change_aborted;
        self.net.send(ex, self.node, master.node(), 48, move || {
            master.change_aborted(id, first)
        });
    }

    /// The atomic flip: in one event every input region state is removed
    /// and every output appears online — reference files as its store
    /// stack, the inputs' leftover memstore cells routed to the output
    /// that covers their row. At no instant are an input and an output
    /// both servable. The master is then told to apply the map change.
    /// A move's output does not open here: the master places it, with
    /// the leftover cells this message carries.
    fn finish_change(self: &Rc<Self>, work: &ChangeWork) {
        let change = &work.change;
        if !change
            .inputs
            .iter()
            .all(|id| self.mem.borrow().regions.contains_key(id))
        {
            self.abort_granted_change(work);
            return;
        }
        let kind = change.kind();
        let (superseded, leftovers) = {
            let mem = &mut *self.mem.borrow_mut();
            let regions = &mut mem.regions;
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
            // from an earlier structure change) is superseded: the new
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
            let mut leftovers = Vec::new();
            for ((desc, files), memstore) in change.outputs.iter().zip(&work.files).zip(memstores) {
                if kind == ChangeKind::Move {
                    leftovers = log_records(desc.id, &memstore);
                    continue;
                }
                regions.insert(
                    desc.id,
                    RegionState {
                        online: true,
                        ..RegionState::new(desc.clone(), memstore, files.clone())
                    },
                );
            }
            // The inputs' cached blocks belong to regions that no longer
            // exist; the outputs refill under their own ids.
            for id in &change.inputs {
                mem.cache.evict_region(*id);
            }
            mem.pending_change = None;
            (superseded, leftovers)
        };
        // The inputs' accumulated load history moves to the outputs in
        // equal shares — the placement signal must not read a server
        // that just split its hottest region, or merged two warm ones,
        // as suddenly idle. A move's goes with its input: the output's
        // next host charges its own.
        let load: u64 = change
            .inputs
            .iter()
            .map(|id| self.region_load.get(id.0 as u64))
            .sum();
        for id in &change.inputs {
            self.region_load.remove(id.0 as u64);
        }
        if kind != ChangeKind::Move {
            let (share, last) = (load / change.outputs.len() as u64, change.outputs.len() - 1);
            for (i, out) in change.outputs.iter().enumerate() {
                let part = if i < last {
                    share
                } else {
                    load - share * last as u64
                };
                self.region_load.add(out.id.0 as u64, part);
            }
        }
        self.structure_stats(kind).completed.inc();
        self.event(journal_kind!(kind, "flip"), &change.fields());
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
        let (master, id, first) = (Rc::clone(&self.master), self.id, change.inputs[0]);
        let bytes = 64 + leftovers.iter().map(WalRecord::wire_size).sum::<usize>();
        let ex = &self.change_completed;
        self.net.send(ex, self.node, master.node(), bytes, move || {
            master.change_completed(id, first, leftovers)
        });
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
}

/// `memstore`'s cells as log records of `region`, one per version: the
/// form a failed server's WAL split hands placement, so a move's leftover
/// cells reach its output's host as a failover's do.
fn log_records(region: RegionId, memstore: &MemStore) -> Vec<WalRecord> {
    let record = |(row, column, ts, value): (&Bytes, &Bytes, _, &Option<Bytes>)| {
        let (row, column) = (row.clone(), column.clone());
        let mutation = match value {
            Some(v) => Mutation::put(row, column, v.clone()),
            None => Mutation::delete(row, column),
        };
        WalRecord {
            region,
            ts,
            mutations: vec![mutation],
        }
    };
    memstore.iter().map(record).collect()
}

//! Primary/backup region replication on the server (see
//! ARCHITECTURE.md, "Region replication": the ship protocol, epoch
//! fencing, promotion vs replay).
//!
//! A primary keeps one *lane* per backup and sends it one stream of
//! [`StreamElement`]s: [`RegionServer::ship`] is the only function that
//! sends one, [`RegionServer::apply`] the only one that applies one to a
//! shadow. What comes back (acks, nacks, timeouts, the master's answers)
//! is put to the lane as a `LaneEvent`: `ReplLane::on` is the only
//! function that changes what state a lane is in. The rest is the master
//! saying which groups and shadows this server keeps.

use super::{RegionServer, RegionState};
use crate::error::StoreError;
use crate::memstore::MemStore;
use crate::region::RegionDescriptor;
use crate::types::{Mutation, RegionId, ServerId, Timestamp};
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, Gauge, MetricsRegistry};
use cumulo_sim::{NodeId, SimDuration};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::rc::{Rc, Weak};

/// Unacknowledged shipped bytes per backup lane at which the lane is
/// declared lagging: the primary stops shipping (and stops gating
/// client acks on it) and reports the backup ineligible for
/// promotion until a full re-sync completes.
const MAX_BACKLOG_BYTES: usize = 8 << 20;
/// How long the primary waits for a backup's ack before declaring
/// the lane out of sync (fixed delay, no RNG).
const ACK_TIMEOUT: SimDuration = SimDuration::from_millis(1500);
/// Period on which an unsync report is re-sent until the master's answer
/// lands: the lane's gates hold client acks for as long, so it is short
/// against [`ACK_TIMEOUT`], yet long against a LAN round trip — a
/// healthy master answers the first send (fixed delay, no RNG).
const REPORT_RETRY: SimDuration = SimDuration::from_millis(400);
/// Period of the re-sync timer that ships full region state to
/// out-of-sync lanes. Fixed phase — no RNG jitter (see the
/// compaction timer note).
pub(super) const RESYNC_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// Shared observability for primary/backup replication (all handles
/// clone cheaply and share state, like [`crate::CompactionStats`]).
#[derive(Clone, Debug)]
pub struct ReplicationStats {
    /// Mutation records shipped to backup lanes (primary side).
    pub ships: Counter,
    /// Payload bytes shipped to backup lanes (primary side).
    pub ship_bytes: Counter,
    /// Acks received from backups (primary side).
    pub acks: Counter,
    /// Gap/stale rejections received from backups (primary side).
    pub nacks: Counter,
    /// Full-state syncs shipped (primary side).
    pub syncs: Counter,
    /// Shipped records applied to a shadow (backup side).
    pub applied: Counter,
    /// Ships rejected because the sender's epoch was stale (backup side).
    pub fences: Counter,
    /// Regions this server fenced itself out of after learning a newer
    /// epoch exists (stale-primary self-fencing).
    pub fenced: Counter,
    /// Backup lanes declared out of sync (ack timeout, gap or backlog).
    pub lane_drops: Counter,
    /// Current unacknowledged shipped bytes across all lanes (primary).
    pub backlog_bytes: Gauge,
    /// Worst `shipped - acked` sequence distance across lanes (primary).
    pub lag: Gauge,
}

impl ReplicationStats {
    /// The server's replication statistics, each registered in
    /// `metrics` under its `store.repl.*` key with the server's `labels`.
    pub(crate) fn new(metrics: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let c = |name: &str| metrics.counter(name, labels);
        ReplicationStats {
            ships: c("store.repl.ships"),
            ship_bytes: c("store.repl.ship_bytes"),
            acks: c("store.repl.acks"),
            nacks: c("store.repl.nacks"),
            syncs: c("store.repl.syncs"),
            applied: c("store.repl.applied"),
            fences: c("store.repl.fences"),
            fenced: c("store.repl.fenced"),
            lane_drops: c("store.repl.lane_drops"),
            backlog_bytes: metrics.gauge("store.repl.backlog_bytes", labels),
            lag: metrics.gauge("store.repl.lag", labels),
        }
    }
}

/// One element of the stream a primary sends down a backup lane.
pub(super) enum StreamElement {
    /// One committed write-set portion: extends the shadow's memstore;
    /// the client's ack waits behind a gate for every lane it went to.
    WriteSet {
        ts: Timestamp,
        mutations: Vec<Mutation>,
    },
    /// The region's full state: re-baselines the shadow, and is what
    /// brings an out-of-sync lane back in.
    Sync {
        desc: RegionDescriptor,
        /// The durable file set.
        paths: Vec<String>,
        memstore: MemStore,
    },
}

impl StreamElement {
    /// The element's modelled size on the wire.
    fn wire_bytes(&self) -> usize {
        match self {
            // A ship header, then each mutation without the per-mutation
            // framing a client request gives it.
            StreamElement::WriteSet { mutations, .. } => {
                40 + mutations.iter().map(Mutation::payload_len).sum::<usize>()
            }
            StreamElement::Sync {
                paths, memstore, ..
            } => {
                let cell = |(r, c, _, v): (&Bytes, &Bytes, Timestamp, &Option<Bytes>)| {
                    r.len() + c.len() + v.as_ref().map_or(0, Bytes::len)
                };
                96 + paths.iter().map(String::len).sum::<usize>()
                    + memstore.iter().map(cell).sum::<usize>()
            }
        }
    }
}

/// A backup's reply to a stream element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplAck {
    /// Applied; the lane is caught up through this sequence number.
    Applied(u64),
    /// The element did not extend the shadow contiguously (ships were
    /// lost); the lane needs a full re-sync.
    Gap,
    /// The sender's epoch is older than the backup's: a newer replica
    /// group exists, the sender must fence itself. Carries the epoch the
    /// backup holds.
    Stale(u64),
}

/// A lane as messages and timers name it: the region, the epoch its
/// group was established under — whatever names another epoch was
/// delayed across a re-establish and is itself stale — and the backup.
#[derive(Clone, Copy)]
struct LaneId {
    region: RegionId,
    epoch: u64,
    backup: ServerId,
}

/// How a gated client ack is completed: `Ok` once every lane acked,
/// `Err(WrongRegion)` when the write must be retried elsewhere.
type Finish = Box<dyn FnOnce(Result<(), StoreError>)>;

/// Completes gated client acks — for callers to do *after* releasing the
/// `repl` borrow the closures were collected under.
fn resolve(finishes: Vec<Finish>, result: Result<(), StoreError>) {
    for finish in finishes {
        finish(result.clone());
    }
}

/// What a lane that client acks gate on has in flight.
#[derive(Debug, Default, PartialEq)]
struct InFlight {
    /// `seq -> (payload bytes, gate held)` of shipped-but-unacked
    /// elements.
    pending: BTreeMap<u64, (usize, Option<u64>)>,
    /// The payload bytes of `pending`, summed.
    bytes: usize,
}

impl InFlight {
    /// Forgets what `Applied(seq)` acknowledges — the lane is caught up
    /// through `seq` — and returns the gates those elements held.
    fn ack(&mut self, seq: u64) -> Vec<u64> {
        let unacked = self.pending.split_off(&seq.saturating_add(1));
        let acked = std::mem::replace(&mut self.pending, unacked);
        self.bytes -= acked.values().map(|(bytes, _)| bytes).sum::<usize>();
        acked.into_values().filter_map(|(_, gate)| gate).collect()
    }
}

/// What a lane is to its primary (ARCHITECTURE.md, "Lane states"). Only
/// the two states client acks gate on have anything in flight to hold.
#[derive(Debug, PartialEq)]
enum LaneState {
    /// Only a full-state sync ships, nothing gates. Where a lane starts.
    OutOfSync,
    /// Sync `seq` is on its way and nothing else ships; its `Applied` is
    /// what brings the lane in (a late ack for an ordinary data ship must
    /// not). `outrun`: a write-set passed this lane by since the sync was
    /// cut — the shadow it re-baselines lacks it, and nothing sent later
    /// carries it, so the ack must leave the lane out and the next
    /// re-sync tick tries again.
    Syncing { seq: u64, outrun: bool },
    /// Every element ships and client acks gate on the lane. A sync it
    /// takes is booked like a write-set, so the idle epoch probe waits
    /// for a refresh's ack with everything else unacked.
    InSync(InFlight),
    /// An unsync report to the master is in flight and nothing ships;
    /// gates still hold until the master acks (the report is the fencing
    /// point — a primary partitioned from the master can never un-gate).
    Unsyncing(InFlight),
}

/// Everything that happens to a lane.
#[derive(Clone, Copy, Debug)]
enum LaneEvent {
    /// [`RegionServer::ship`] sent the lane element `seq`, having asked
    /// [`ReplLane::takes`]; `held` is the element's `pending` entry.
    Took {
        seq: u64,
        sync: bool,
        held: (usize, Option<u64>),
    },
    /// A write-set went down the group's in-sync lanes without this one.
    PassedBy,
    /// The backup applied the stream through this sequence number.
    Applied(u64),
    /// The backup found a gap in the stream.
    Gap,
    /// This element left [`ACK_TIMEOUT`] ago.
    AckTimeout(u64),
    /// An element found the backlog full or the backup's handle gone.
    Lagging,
    /// The master answered the unsync report.
    ReportAcked,
    /// The lane's group was fenced.
    Fenced,
}

/// What whoever put an event to a lane owes the rest of the server.
#[derive(Debug, PartialEq)]
enum LaneAction {
    Nothing,
    /// Report the lane to the master as no longer in sync.
    Report,
    /// The lane let go of these gates.
    Release(Vec<u64>),
    /// The lane came in: tell the master its backup is eligible.
    Resynced,
}

/// Primary-side state of one backup lane: one stream to one shadow.
struct ReplLane {
    backup: ServerId,
    handle: Weak<RegionServer>,
    node: NodeId,
    /// The sequence number the next element down this lane takes. The
    /// numbers are the lane's own — its shadow checks them for
    /// contiguity — and are not comparable across lanes.
    next_seq: u64,
    state: LaneState,
}

impl ReplLane {
    /// A lane to `backup` as establishing its group leaves it: nothing in
    /// flight, out of sync until its first full-state sync is acked.
    fn new(backup: ServerId, node: NodeId, handle: Weak<RegionServer>) -> Self {
        ReplLane {
            backup,
            handle,
            node,
            next_seq: 0,
            state: LaneState::OutOfSync,
        }
    }

    /// The one place a lane changes state: what `event` makes of it and
    /// what the caller must do about it. Every pair has a named arm
    /// (`every_pair_of_state_and_event_is_in_the_table` spells them out).
    fn on(&mut self, event: LaneEvent) -> LaneAction {
        use {LaneAction as A, LaneEvent as E, LaneState as S};
        let (next, action) = match (std::mem::replace(&mut self.state, S::OutOfSync), event) {
            (S::OutOfSync, E::Took { seq, sync, .. }) if sync => {
                (S::Syncing { seq, outrun: false }, A::Nothing)
            }
            (S::InSync(mut b), E::Took { seq, held, .. }) => {
                b.pending.insert(seq, held);
                b.bytes += held.0;
                (S::InSync(b), A::Nothing)
            }
            (S::Syncing { seq, .. }, E::PassedBy) => (S::Syncing { seq, outrun: true }, A::Nothing),
            (S::Syncing { seq, outrun }, E::Applied(acked)) if acked == seq => match outrun {
                false => (S::InSync(InFlight::default()), A::Resynced),
                true => (S::OutOfSync, A::Nothing),
            },
            (S::InSync(mut b), E::Applied(seq)) => {
                let gates = b.ack(seq);
                (S::InSync(b), A::Release(gates))
            }
            (S::Unsyncing(mut b), E::Applied(seq)) => {
                let gates = b.ack(seq);
                (S::Unsyncing(b), A::Release(gates))
            }
            (S::InSync(b), E::Gap | E::Lagging) => (S::Unsyncing(b), A::Report),
            (S::InSync(b), E::AckTimeout(seq)) if b.pending.contains_key(&seq) => {
                (S::Unsyncing(b), A::Report)
            }
            // The sync was lost. Nothing gates on the lane and the master
            // holds its backup ineligible until it is told otherwise, so
            // there is nothing to report: the next re-sync tick cuts a
            // fresh sync, and a late ack for this one flips nothing.
            (S::Syncing { seq, .. }, E::AckTimeout(lost)) if lost == seq => {
                (S::OutOfSync, A::Nothing)
            }
            // Written off: every gate the lane still held lets go.
            (S::Unsyncing(mut b), E::ReportAcked) => (S::OutOfSync, A::Release(b.ack(u64::MAX))),
            // Nothing is in flight on a fenced group's lanes: a report
            // or sync left pending here would be retried for good.
            (_, E::Fenced) => (S::OutOfSync, A::Nothing),
            // Ignored. No sync is on its way for the write-set to outrun;
            // a late ack for a stream the lane has since dropped out of;
            // acked in time, or nothing to take out (not in sync, or
            // reported already); the answer to a re-sent report.
            (s @ (S::OutOfSync | S::InSync(_) | S::Unsyncing(_)), E::PassedBy)
            | (s @ (S::OutOfSync | S::Syncing { .. }), E::Applied(_))
            | (s, E::Gap | E::Lagging | E::AckTimeout(_))
            | (s @ (S::OutOfSync | S::Syncing { .. } | S::InSync(_)), E::ReportAcked) => {
                (s, A::Nothing)
            }
            // One un-acked sync at a time per out-of-sync lane (the next
            // timer tick retries), and nothing to a reported one.
            (S::OutOfSync | S::Syncing { .. } | S::Unsyncing(_), E::Took { .. }) => {
                unreachable!("ship() sent an element to a lane that does not take it")
            }
        };
        self.state = next;
        debug_assert!(self.is_consistent(), "{:?} after {event:?}", self.state);
        action
    }

    /// What holds of a lane between transitions: the byte count is its
    /// unacked elements' sum.
    fn is_consistent(&self) -> bool {
        let sum = |b: &InFlight| b.pending.values().map(|(bytes, _)| bytes).sum::<usize>();
        self.in_flight().is_none_or(|b| b.bytes == sum(b))
    }

    /// Whether `ship()` sends this lane an element. A sync re-baselines a
    /// shadow, so it also goes to an out-of-sync lane, and to an in-sync
    /// one unless it is for the out-of-sync lanes only; a write-set
    /// extends the stream, so only an in-sync lane takes it.
    fn takes(&self, sync: bool, resync_only: bool) -> bool {
        match self.state {
            LaneState::OutOfSync => sync,
            LaneState::InSync(_) => !(sync && resync_only),
            LaneState::Syncing { .. } | LaneState::Unsyncing(_) => false,
        }
    }

    /// What client acks wait for on this lane, if it gates any.
    fn in_flight(&self) -> Option<&InFlight> {
        match &self.state {
            LaneState::InSync(b) | LaneState::Unsyncing(b) => Some(b),
            LaneState::OutOfSync | LaneState::Syncing { .. } => None,
        }
    }

    /// In sync with nothing unacked: the lane the idle epoch probe is for.
    fn is_idle_in_sync(&self) -> bool {
        matches!(&self.state, LaneState::InSync(b) if b.pending.is_empty())
    }
}

/// One client ack (plus its T_P bookkeeping) gated on backup acks.
struct ReplGate {
    /// Lanes whose ack is still outstanding.
    waiting: Vec<ServerId>,
    /// Attached by [`RegionServer::arm_gate`] in the event that shipped
    /// the write-set.
    finish: Option<Finish>,
}

/// Primary-side replication state of one hosted region.
struct ReplGroup {
    epoch: u64,
    lanes: Vec<ReplLane>,
    /// Gated client acks in ship order, which is the order they fire in.
    gates: BTreeMap<u64, ReplGate>,
    next_gate: u64,
    /// A backup holds a newer epoch: this server is no longer the
    /// rightful primary. The region was marked offline; all pending
    /// gates failed with `WrongRegion`.
    fenced: bool,
}

impl ReplGroup {
    /// An unfenced group under `epoch` with nothing shipped yet.
    fn new(epoch: u64, lanes: Vec<ReplLane>) -> Self {
        ReplGroup {
            epoch,
            lanes,
            gates: BTreeMap::new(),
            next_gate: 0,
            fenced: false,
        }
    }

    fn lane_mut(&mut self, backup: ServerId) -> Option<&mut ReplLane> {
        self.lanes.iter_mut().find(|l| l.backup == backup)
    }

    /// Fires every gate at the front of the queue whose acks are all in,
    /// strictly in sequence order (the client-visible commit order must
    /// match the ship order). Returns the finish closures for the caller
    /// to [`resolve`].
    fn drain_ready_gates(&mut self) -> Vec<Finish> {
        let mut finishes = Vec::new();
        while let Some(front) = self.gates.first_entry() {
            if !front.get().waiting.is_empty() || front.get().finish.is_none() {
                break;
            }
            finishes.extend(front.remove().finish);
        }
        finishes
    }

    /// `backup`'s lane lets go of `gates`; returns the finish closures of
    /// whatever that completes, for the caller to [`resolve`].
    fn release(&mut self, backup: ServerId, gates: &[u64]) -> Vec<Finish> {
        for gate in gates {
            if let Some(gate) = self.gates.get_mut(gate) {
                gate.waiting.retain(|b| *b != backup);
            }
        }
        self.drain_ready_gates()
    }

    /// Empties the gate queue whatever acks are outstanding — the group
    /// was re-established, fenced or split away under the gated writes —
    /// and returns the finish closures in sequence order, for the caller
    /// to [`resolve`].
    fn take_all_gates(&mut self) -> Vec<Finish> {
        let gates = std::mem::take(&mut self.gates);
        gates.into_values().filter_map(|g| g.finish).collect()
    }
}

/// Backup-side shadow of a region hosted elsewhere.
struct ShadowRegion {
    desc: RegionDescriptor,
    epoch: u64,
    /// Next sequence number expected from the primary.
    next_seq: u64,
    memstore: MemStore,
    /// Durable store-file paths of the primary's file set, refreshed by
    /// each full-state sync (resolved through the shared registry at
    /// promotion).
    storefile_paths: Vec<String>,
    /// In sync with the primary: contiguous ship stream since the last
    /// full-state sync. Only a synced shadow is eligible for promotion.
    synced: bool,
}

impl ShadowRegion {
    /// An empty shadow, out of sync until the primary's first full-state
    /// sync re-baselines it.
    fn new(desc: RegionDescriptor, epoch: u64) -> Self {
        ShadowRegion {
            desc,
            epoch,
            next_seq: 0,
            memstore: MemStore::new(),
            storefile_paths: Vec::new(),
            synced: false,
        }
    }
}

#[derive(Default)]
pub(super) struct ReplState {
    /// Primary-side groups, keyed by hosted region.
    groups: HashMap<RegionId, ReplGroup>,
    /// Backup-side shadows, keyed by region.
    shadows: HashMap<RegionId, ShadowRegion>,
}

impl ReplState {
    /// The group `id` names, if it is still established under that epoch.
    fn group_of(&mut self, id: LaneId) -> Option<&mut ReplGroup> {
        let group = self.groups.get_mut(&id.region);
        group.filter(|g| g.epoch == id.epoch)
    }
}

impl RegionServer {
    /// Replication observability: ship/ack/fence counters and the
    /// backlog/lag gauges (shared handles; clone freely).
    pub fn replication_stats(&self) -> &ReplicationStats {
        &self.repl_stats
    }

    /// Whether this server fenced itself out of `region` (a backup holds
    /// a newer replica-group epoch).
    pub fn region_fenced(&self, region: RegionId) -> bool {
        let repl = self.repl.borrow();
        repl.groups.get(&region).is_some_and(|g| g.fenced)
    }

    /// Whether the lane `id` names still exists and `is` holds of it.
    fn lane_is(&self, id: LaneId, is: impl FnOnce(&ReplLane) -> bool) -> bool {
        let mut repl = self.repl.borrow_mut();
        let lane = repl.group_of(id).and_then(|g| g.lane_mut(id.backup));
        lane.is_some_and(|l| is(l))
    }

    /// Whether this server leads a replica group for `region`.
    pub(super) fn replicates(&self, region: RegionId) -> bool {
        self.repl.borrow().groups.contains_key(&region)
    }

    /// Master RPC: (re)establishes the replica group this server leads
    /// for `region`. Every lane starts (or resets to) out of sync — the
    /// next full-state sync brings it in, and only from then on do
    /// client acks gate on it. Pending gates are released: no lane is in
    /// sync anymore, and the syncs that follow carry the full state the
    /// gated writes are part of.
    pub(crate) fn establish_replica_group(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        backups: Vec<(ServerId, NodeId, Weak<RegionServer>)>,
    ) {
        if !self.alive.get() {
            return;
        }
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let group = repl
                .groups
                .entry(region)
                .or_insert_with(|| ReplGroup::new(epoch, Vec::new()));
            group.epoch = epoch;
            group.fenced = false;
            group.lanes = backups
                .into_iter()
                .map(|(backup, node, handle)| ReplLane::new(backup, node, handle))
                .collect();
            group.lanes.sort_unstable_by_key(|l| l.backup);
            group.take_all_gates()
        };
        self.event("replication.establish", move |line| {
            write!(line, "region={region} epoch={epoch}")
        });
        resolve(finishes, Ok(()));
        self.update_repl_gauges();
    }

    /// Master RPC: this server is (or stays) a backup for `region` under
    /// `epoch`. The shadow is created if missing and always marked out
    /// of sync — the primary's next full-state sync re-baselines it
    /// (sequence numbers from different primaries must never be mixed).
    pub(crate) fn open_shadow(&self, region: RegionId, desc: RegionDescriptor, epoch: u64) {
        if !self.alive.get() {
            return;
        }
        {
            let mut repl = self.repl.borrow_mut();
            let shadow = repl
                .shadows
                .entry(region)
                .or_insert_with(|| ShadowRegion::new(desc.clone(), epoch));
            shadow.desc = desc;
            shadow.epoch = shadow.epoch.max(epoch);
            shadow.synced = false;
        }
        self.event("replication.shadow_open", move |line| {
            write!(line, "region={region} epoch={epoch}")
        });
    }

    /// Master RPC: `region`'s shadow is obsolete (parent of an applied
    /// split, or this backup left the group).
    pub(crate) fn close_shadow(&self, region: RegionId, epoch: u64) {
        if !self.alive.get() {
            return;
        }
        let removed = {
            let mut repl = self.repl.borrow_mut();
            match repl.shadows.get(&region) {
                Some(s) if s.epoch <= epoch => repl.shadows.remove(&region).is_some(),
                _ => false,
            }
        };
        if removed {
            self.event("replication.shadow_close", move |line| {
                write!(line, "region={region}")
            });
        }
    }

    /// Master RPC (promotion probe): this backup's view of `region` —
    /// shadow epoch and sync state; `None` from a dead process. (How far
    /// the shadow has applied is no part of it: sequence numbers are per
    /// lane, and every in-sync shadow holds every acknowledged write.)
    pub(crate) fn query_replica(&self, region: RegionId) -> Option<(u64, bool)> {
        if !self.alive.get() {
            return None;
        }
        let repl = self.repl.borrow();
        let shadow = repl.shadows.get(&region);
        Some(shadow.map_or((0, false), |s| (s.epoch, s.synced)))
    }

    /// Master RPC: this backup won the promotion for `region` after
    /// `failed`'s crash. The shadow converts into a hosted (offline)
    /// region; its inherited memstore is flushed (the shadow's data is
    /// durable only in the dead primary's WAL until then) and the
    /// regular recovery gating runs with `promoted = true` — the
    /// recovery manager replays only the transaction-log suffix above
    /// the persisted floor instead of waiting for a full WAL split.
    pub(crate) fn promote_replica(self: &Rc<Self>, region: RegionId, epoch: u64, failed: ServerId) {
        if !self.alive.get() {
            return;
        }
        let shadow = self.repl.borrow_mut().shadows.remove(&region);
        let Some(shadow) = shadow else {
            return;
        };
        let storefiles = self.adoptable_files(&shadow.storefile_paths);
        self.regions.borrow_mut().insert(
            region,
            RegionState::new(shadow.desc, shadow.memstore, storefiles),
        );
        self.event("replication.promote", move |line| {
            write!(line, "region={region} epoch={epoch} failed={failed}")
        });
        self.update_file_metrics();
        self.flush_region(region);
        self.finish_region_open(region, Some(failed), true);
    }

    /// Sends `element` down `region`'s backup lanes — the one place that
    /// picks the lanes ([`ReplLane::takes`]), takes the sequence numbers,
    /// books what is in flight, sends, and arranges the ack and its
    /// timeout. `resync_only` narrows a sync to the out-of-sync lanes (the
    /// re-sync timer) from every lane (the file set changed under all of
    /// them: flush, compaction, split); it says nothing about other
    /// elements, and only those count against a lane's backlog.
    /// Returns the gate to arm with a write-set's client ack
    /// ([`RegionServer::arm_gate`]) if at least one lane took it.
    pub(super) fn ship(
        self: &Rc<Self>,
        region: RegionId,
        element: StreamElement,
        resync_only: bool,
    ) -> Option<u64> {
        let bytes = element.wire_bytes();
        let sync = matches!(element, StreamElement::Sync { .. });
        let mut laggards: Vec<LaneId> = Vec::new();
        let (gate, targets) = {
            let mut repl = self.repl.borrow_mut();
            let group = repl.groups.get_mut(&region)?;
            if group.fenced {
                return None;
            }
            // The gate a write-set's lanes hold, opened below if any lane
            // takes it.
            let gate = (!sync).then_some(group.next_gate);
            let epoch = group.epoch;
            let mut targets: Vec<(u64, LaneId, NodeId, Rc<RegionServer>)> = Vec::new();
            for lane in group.lanes.iter_mut() {
                if !lane.takes(sync, resync_only) {
                    if !sync {
                        lane.on(LaneEvent::PassedBy);
                    }
                    continue;
                }
                let backup = lane.backup;
                let id = LaneId {
                    region,
                    epoch,
                    backup,
                };
                let unacked = lane.in_flight().map_or(0, |b| b.bytes);
                let full = !sync && unacked + bytes > MAX_BACKLOG_BYTES;
                let Some(handle) = lane.handle.upgrade().filter(|_| !full) else {
                    laggards.push(id);
                    continue;
                };
                let seq = lane.next_seq;
                lane.next_seq += 1;
                let held = (bytes, gate);
                lane.on(LaneEvent::Took { seq, sync, held });
                targets.push((seq, id, lane.node, handle));
            }
            let gate = gate.filter(|_| !targets.is_empty());
            if let Some(gate) = gate {
                let waiting = targets.iter().map(|(_, id, ..)| id.backup).collect();
                let finish = None;
                group.gates.insert(gate, ReplGate { waiting, finish });
                group.next_gate += 1;
            }
            (gate, targets)
        };
        for lane in laggards {
            self.lane_event(lane, LaneEvent::Lagging);
        }
        if targets.is_empty() {
            return None;
        }
        let element = Rc::new(element);
        for (seq, lane, node, handle) in targets {
            let LaneId { epoch, backup, .. } = lane;
            let stats = &self.repl_stats;
            match &*element {
                StreamElement::WriteSet { .. } => {
                    stats.ships.inc();
                    stats.ship_bytes.add(bytes as u64);
                    let me = self.id;
                    self.span("repl.ship", move || {
                        format!(
                            "server={me} region={region} seq={seq} \
                             backup={backup} bytes={bytes}"
                        )
                    });
                }
                StreamElement::Sync { .. } => {
                    stats.syncs.inc();
                    stats.ship_bytes.add(bytes as u64);
                    self.event("replication.sync", move |line| {
                        write!(
                            line,
                            "region={region} seq={seq} backup={backup} bytes={bytes}"
                        )
                    });
                }
            }
            let (element, this) = (Rc::clone(&element), Rc::clone(self));
            self.net.request(
                self.node,
                node,
                bytes,
                move |reply| {
                    if let Some(ack) = handle.apply(region, epoch, seq, &element) {
                        reply.send(40, ack);
                    }
                },
                move |ack| this.handle_repl_ack(lane, ack),
            );
            self.schedule_ack_timeout(lane, seq);
        }
        self.update_repl_gauges();
        gate
    }

    /// Declares the lane out of sync if `seq` is still unacked when the
    /// fixed timeout fires (a dead or partitioned backup must not hold
    /// client acks forever — but un-gating waits for the master's ack,
    /// see [`RegionServer::lane_event`]).
    fn schedule_ack_timeout(self: &Rc<Self>, lane: LaneId, seq: u64) {
        let weak = Rc::downgrade(self);
        self.sim.schedule_in(ACK_TIMEOUT, move || {
            if let Some(this) = weak.upgrade().filter(|this| this.alive.get()) {
                this.lane_event(lane, LaneEvent::AckTimeout(seq));
            }
        });
    }

    /// Puts `event` to the lane `id` names, if its group still stands
    /// under that epoch, and does what the lane asks for. Taking a lane
    /// out of sync starts with a report to the master, and the lane's
    /// gates only release once the master acked it: the report is the
    /// fencing point — the master now considers the backup ineligible
    /// for promotion, so acking clients without its coverage is sound. A
    /// primary partitioned from the master never receives the ack, never
    /// un-gates, and therefore never acks a write an eligible backup is
    /// missing.
    fn lane_event(self: &Rc<Self>, id: LaneId, event: LaneEvent) {
        let LaneId { region, backup, .. } = id;
        let (action, finishes) = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.group_of(id) else {
                return;
            };
            let lane = group.lane_mut(backup);
            let action = lane.map_or(LaneAction::Nothing, |l| l.on(event));
            let finishes = match &action {
                LaneAction::Release(gates) => group.release(backup, gates),
                _ => Vec::new(),
            };
            (action, finishes)
        };
        match action {
            LaneAction::Nothing => {}
            LaneAction::Release(_) => {
                resolve(finishes, Ok(()));
                self.update_repl_gauges();
            }
            LaneAction::Report => {
                self.repl_stats.lane_drops.inc();
                self.event("replication.lane_unsynced", move |line| {
                    write!(line, "region={region} backup={backup}")
                });
                self.report_lane_unsynced(id);
            }
            LaneAction::Resynced => {
                self.event("replication.lane_resynced", move |line| {
                    write!(line, "region={region} backup={backup}")
                });
                if let Some(master) = self.master.borrow().clone() {
                    self.net.send(self.node, master.node(), 48, move || {
                        master.replica_synced(region, id.epoch, backup);
                    });
                }
            }
        }
    }

    /// Sends (and re-sends on a fixed period until the master's ack
    /// lands) the ineligibility report for an out-of-sync lane.
    fn report_lane_unsynced(self: &Rc<Self>, lane: LaneId) {
        let Some(master) = self.master.borrow().clone() else {
            // No master wiring (unit tests): release locally.
            self.finish_lane_drop(lane, false);
            return;
        };
        if !self.lane_is(lane, |l| matches!(l.state, LaneState::Unsyncing(_))) {
            return;
        }
        let this = Rc::clone(self);
        self.net.request_within(
            REPORT_RETRY,
            self.node,
            master.node(),
            64,
            move |reply| {
                let stale = master.replica_unsynced(lane.region, lane.epoch, lane.backup);
                reply.send(32, stale);
            },
            move |stale| match stale {
                Some(stale) => this.finish_lane_drop(lane, stale),
                None if this.alive.get() => this.report_lane_unsynced(lane),
                None => {}
            },
        );
    }

    /// The master answered the ineligibility report. Normally the lane
    /// leaves the gating set and its held gates release; a `stale`
    /// answer means this server is a fenced-out ex-primary — fence the
    /// whole group instead of un-gating (its held acks must fail, never
    /// succeed).
    fn finish_lane_drop(self: &Rc<Self>, id: LaneId, stale: bool) {
        if !self.alive.get() {
            return;
        }
        if !stale {
            self.lane_event(id, LaneEvent::ReportAcked);
        } else if self.repl.borrow_mut().group_of(id).is_some() {
            self.fence_group(id.region, id.epoch + 1);
        }
    }

    /// Attaches the completion of a gated client ack to its gate (the
    /// gate was registered by [`RegionServer::ship`] in the same event,
    /// so it still exists unless the group was fenced or re-established
    /// in between).
    pub(super) fn arm_gate(self: &Rc<Self>, region: RegionId, gate: u64, finish: Finish) {
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                finish(Ok(()));
                return;
            };
            if group.fenced {
                finish(Err(StoreError::WrongRegion(region)));
                return;
            }
            match group.gates.get_mut(&gate) {
                Some(gate) => gate.finish = Some(finish),
                None => {
                    finish(Ok(()));
                    return;
                }
            }
            group.drain_ready_gates()
        };
        resolve(finishes, Ok(()));
    }

    /// Primary side: a backup's reply to a stream element.
    fn handle_repl_ack(self: &Rc<Self>, id: LaneId, ack: ReplAck) {
        if !self.alive.get() {
            return;
        }
        match ack {
            ReplAck::Applied(seq) => {
                self.repl_stats.acks.inc();
                self.lane_event(id, LaneEvent::Applied(seq));
            }
            ReplAck::Gap => {
                self.repl_stats.nacks.inc();
                self.lane_event(id, LaneEvent::Gap);
            }
            ReplAck::Stale(newer) => {
                self.repl_stats.nacks.inc();
                self.fence_group(id.region, newer);
            }
        }
    }

    /// A backup holds a newer epoch than this server's group: a
    /// promotion happened behind a partition and this server is a stale
    /// primary. Fence: the region goes offline (clients get
    /// `WrongRegion` and refresh their maps toward the new primary) and
    /// every gated-but-unacked write fails — it was never acknowledged,
    /// so failing it loses nothing the client could rely on.
    fn fence_group(self: &Rc<Self>, region: RegionId, newer_epoch: u64) {
        let finishes = {
            let mut repl = self.repl.borrow_mut();
            let Some(group) = repl.groups.get_mut(&region) else {
                return;
            };
            // A fence directive names the epoch that supersedes this
            // group; one that does not (a reply delayed across a
            // re-establish) is itself stale and must be ignored.
            if group.fenced || group.epoch >= newer_epoch {
                return;
            }
            group.fenced = true;
            for lane in group.lanes.iter_mut() {
                lane.on(LaneEvent::Fenced);
            }
            group.take_all_gates()
        };
        if let Some(st) = self.regions.borrow_mut().get_mut(&region) {
            st.online = false;
        }
        self.repl_stats.fenced.inc();
        self.event("replication.fenced", move |line| {
            write!(line, "region={region} newer_epoch={newer_epoch}")
        });
        resolve(finishes, Err(StoreError::WrongRegion(region)));
        self.update_repl_gauges();
    }

    /// Backup side: applies one stream element to `region`'s shadow and
    /// returns its ack — the one ladder every element climbs: alive, not
    /// fenced out by this server's own primacy, not from a stale epoch,
    /// contiguous. A sync re-baselines, so it needs no contiguity and
    /// creates a missing shadow; anything else must carry exactly the
    /// next sequence number of a shadow that is in sync.
    fn apply(
        self: &Rc<Self>,
        region: RegionId,
        epoch: u64,
        seq: u64,
        element: &StreamElement,
    ) -> Option<ReplAck> {
        if !self.alive.get() {
            return None;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            return Some(stale);
        }
        let ack = {
            let mut repl = self.repl.borrow_mut();
            let sync = matches!(element, StreamElement::Sync { .. });
            if let StreamElement::Sync { desc, .. } = element {
                repl.shadows
                    .entry(region)
                    .or_insert_with(|| ShadowRegion::new(desc.clone(), epoch));
            }
            match repl.shadows.get_mut(&region) {
                None => ReplAck::Gap,
                Some(shadow) if epoch < shadow.epoch => ReplAck::Stale(shadow.epoch),
                Some(shadow) if !sync && (!shadow.synced || seq != shadow.next_seq) => {
                    shadow.synced = false;
                    ReplAck::Gap
                }
                Some(shadow) => {
                    match element {
                        StreamElement::WriteSet { ts, mutations } => {
                            for m in mutations {
                                let (row, column) = (m.row.clone(), m.column.clone());
                                shadow.memstore.apply_mutation(row, column, *ts, &m.kind);
                            }
                        }
                        StreamElement::Sync {
                            desc,
                            paths,
                            memstore,
                        } => {
                            shadow.desc = desc.clone();
                            shadow.epoch = epoch;
                            shadow.memstore = memstore.clone();
                            shadow.storefile_paths = paths.clone();
                            shadow.synced = true;
                        }
                    }
                    shadow.next_seq = seq + 1;
                    ReplAck::Applied(seq)
                }
            }
        };
        self.note_backup_ack(region, &ack);
        Some(ack)
    }

    /// Peer side of the idle-lane epoch probe: answers `Stale` only when
    /// the probing server's epoch is superseded here — this server hosts
    /// `region` as primary, or holds a shadow under a newer epoch.
    /// Silence (`None`) is the healthy answer; the probe repeats on the
    /// next re-sync tick. This is how a quiesced stale primary (nothing
    /// in flight when a partition cut it off, so no ack timeout ever
    /// fired) discovers a promotion it slept through and fences itself.
    fn probe_epoch(self: &Rc<Self>, region: RegionId, epoch: u64) -> Option<ReplAck> {
        if !self.alive.get() {
            return None;
        }
        if let Some(stale) = self.fence_check(region, epoch) {
            return Some(stale);
        }
        let newer = self
            .repl
            .borrow()
            .shadows
            .get(&region)
            .map(|s| s.epoch)
            .filter(|e| *e > epoch)?;
        let ack = ReplAck::Stale(newer);
        self.note_backup_ack(region, &ack);
        Some(ack)
    }

    /// A ship addressed to a region this server hosts as *primary* comes
    /// from a stale ex-primary — unless its group is the younger one: then
    /// the stale ex-primary is this server (it was promoted away from
    /// behind a partition, and the master has since made it a backup), so
    /// it fences itself and takes the element as any backup would. The
    /// sender is fenced with this group's epoch (or one past its own, if
    /// the group is not established yet).
    fn fence_check(self: &Rc<Self>, region: RegionId, epoch: u64) -> Option<ReplAck> {
        if !self.regions.borrow().contains_key(&region) {
            return None;
        }
        let own = self.repl.borrow().groups.get(&region).map(|g| g.epoch);
        if own.is_some_and(|own| own < epoch) {
            self.fence_group(region, epoch);
            return None;
        }
        let newer = own.unwrap_or(epoch + 1).max(epoch + 1);
        self.repl_stats.fences.inc();
        self.event("replication.fence", move |line| {
            write!(line, "region={region} stale_epoch={epoch} newer={newer}")
        });
        Some(ReplAck::Stale(newer))
    }

    /// Counts backup-side outcomes (fence events are recorded at the
    /// rejection site).
    fn note_backup_ack(&self, region: RegionId, ack: &ReplAck) {
        match ack {
            ReplAck::Applied(_) => self.repl_stats.applied.inc(),
            ReplAck::Gap => {}
            ReplAck::Stale(_) => {
                self.repl_stats.fences.inc();
                self.event("replication.fence", move |line| {
                    write!(line, "region={region}")
                });
            }
        }
    }

    /// Ships `region`'s full state to its backup lanes: every lane when
    /// the file set changed under them (flush, compaction, split), the
    /// out-of-sync ones only (`resync_only`) on the re-sync timer. A
    /// no-op when the region is unreplicated, and skipped while a flush
    /// snapshot is in flight — its data is in neither the memstore nor
    /// the durable file set yet; the flush completion re-ships.
    pub(super) fn sync_lanes(self: &Rc<Self>, region: RegionId, resync_only: bool) {
        if !self.alive.get() || !self.replicates(region) {
            return;
        }
        let element = {
            let regions = self.regions.borrow();
            let Some(st) = regions.get(&region).filter(|st| !st.flush_busy()) else {
                return;
            };
            StreamElement::Sync {
                desc: st.desc.clone(),
                paths: st
                    .storefiles
                    .iter()
                    .map(|sf| sf.path().to_owned())
                    .collect(),
                memstore: st.memstore.clone(),
            }
        };
        self.ship(region, element, resync_only);
    }

    /// The re-sync timer tick: bring out-of-sync lanes back via
    /// full-state syncs (regions in sorted order for determinism), and
    /// epoch-probe idle in-sync lanes — a primary with nothing in flight
    /// would otherwise never learn it was superseded behind a partition.
    pub(super) fn check_resyncs(self: &Rc<Self>) {
        if !self.alive.get() {
            return;
        }
        let mut due: Vec<RegionId> = Vec::new();
        let mut probes: Vec<(LaneId, NodeId, Rc<RegionServer>)> = Vec::new();
        {
            let repl = self.repl.borrow();
            // lint:allow(CD001, reason = "regions and probes are only collected here; both are sorted below before any send, so hash order never reaches the network")
            for (&region, group) in repl.groups.iter().filter(|(_, g)| !g.fenced) {
                // Lanes with neither a report nor a sync outstanding.
                for lane in &group.lanes {
                    if lane.state == LaneState::OutOfSync {
                        due.push(region);
                    } else if lane.is_idle_in_sync() {
                        if let Some(handle) = lane.handle.upgrade() {
                            let (epoch, backup) = (group.epoch, lane.backup);
                            let id = LaneId {
                                region,
                                epoch,
                                backup,
                            };
                            probes.push((id, lane.node, handle));
                        }
                    }
                }
            }
        }
        due.sort_unstable();
        due.dedup();
        for region in due {
            self.sync_lanes(region, true);
        }
        probes.sort_unstable_by_key(|(id, ..)| (id.region, id.backup));
        for (id, node, handle) in probes {
            let this = Rc::clone(self);
            self.net.request(
                self.node,
                node,
                24,
                move |reply| {
                    if let Some(ack) = handle.probe_epoch(id.region, id.epoch) {
                        reply.send(40, ack);
                    }
                },
                move |ack| this.handle_repl_ack(id, ack),
            );
        }
    }

    /// Moves the parent's replica group to the split daughters at the
    /// flip: daughters inherit the lanes (out of sync until the
    /// immediate full-state syncs ack), the parent's shadows close, and
    /// any write still gated on the parent fails with `WrongRegion` —
    /// the retry is idempotent by `(row, version)` and re-routes to a
    /// daughter after a map refresh.
    pub(super) fn split_replica_groups(
        self: &Rc<Self>,
        parent: RegionId,
        bottom: RegionId,
        top: RegionId,
    ) {
        let (finishes, epoch, lanes) = {
            let mut repl = self.repl.borrow_mut();
            let Some(mut group) = repl.groups.remove(&parent) else {
                return;
            };
            for daughter in [bottom, top] {
                let inherited = group.lanes.iter();
                let lanes = inherited.map(|l| ReplLane::new(l.backup, l.node, l.handle.clone()));
                repl.groups
                    .insert(daughter, ReplGroup::new(group.epoch, lanes.collect()));
            }
            (group.take_all_gates(), group.epoch, group.lanes)
        };
        resolve(finishes, Err(StoreError::WrongRegion(parent)));
        for lane in &lanes {
            let Some(handle) = lane.handle.upgrade() else {
                continue;
            };
            self.net.send(self.node, lane.node, 48, move || {
                handle.close_shadow(parent, epoch);
            });
        }
        self.sync_lanes(bottom, false);
        self.sync_lanes(top, false);
        self.update_repl_gauges();
    }

    /// Refreshes the replication gauges: total unacked backlog bytes and
    /// the worst shipped-minus-acked distance across in-sync lanes.
    fn update_repl_gauges(&self) {
        let repl = self.repl.borrow();
        let mut backlog = 0u64;
        let mut lag = 0u64;
        // lint:allow(CD001, reason = "order-independent reduction: a sum and a max over all lanes, both commutative")
        for group in repl.groups.values() {
            for b in group.lanes.iter().filter_map(ReplLane::in_flight) {
                backlog += b.bytes as u64;
                lag = lag.max(b.pending.len() as u64);
            }
        }
        self.repl_stats.backlog_bytes.set(backlog);
        self.repl_stats.lag.set(lag);
    }
}

#[cfg(test)]
mod tests {
    use super::LaneAction::{Nothing, Release, Report, Resynced};
    use super::LaneEvent::{
        AckTimeout, Applied, Fenced, Gap, Lagging, PassedBy, ReportAcked, Took,
    };
    use super::LaneState::{InSync, OutOfSync, Syncing, Unsyncing};
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A lane in `state` that has handed out sequence numbers 0..=8.
    fn lane(state: LaneState) -> ReplLane {
        ReplLane {
            next_seq: 9,
            state,
            ..ReplLane::new(ServerId(1), NodeId(1), Weak::new())
        }
    }

    fn in_flight(pending: &[(u64, usize, Option<u64>)]) -> InFlight {
        InFlight {
            pending: pending.iter().map(|(s, b, g)| (*s, (*b, *g))).collect(),
            bytes: pending.iter().map(|(_, b, _)| b).sum(),
        }
    }

    /// Every (state, event) pair, what it leaves the lane in and what it
    /// asks of the caller — `None` where the pair cannot happen and `on`
    /// panics. A pair missing from the table fails the count at the end.
    #[test]
    fn every_pair_of_state_and_event_is_in_the_table() {
        // Write-set 5 under gate 0, a sync as 6, write-set 8 under
        // gate 1; then what `Applied(6)` leaves of it; then nothing.
        let full = || in_flight(&[(5, 100, Some(0)), (6, 40, None), (8, 60, Some(1))]);
        let tail = || in_flight(&[(8, 60, Some(1))]);
        let idle = || in_flight(&[]);
        let syncing = |outrun| Syncing { seq: 7, outrun };
        let took = |sync, gate| Took {
            seq: 9,
            sync,
            held: (30, gate),
        };
        let with_9 = |gate| {
            in_flight(&[
                (5, 100, Some(0)),
                (6, 40, None),
                (8, 60, Some(1)),
                (9, 30, gate),
            ])
        };
        type Row = (LaneState, LaneEvent, Option<(LaneState, LaneAction)>);
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            // Out of sync: a sync starts the way in, all else is ignored.
            (OutOfSync, took(true, None), Some((Syncing { seq: 9, outrun: false }, Nothing))),
            (OutOfSync, took(false, Some(2)), None),
            (OutOfSync, PassedBy, Some((OutOfSync, Nothing))),
            (OutOfSync, Applied(7), Some((OutOfSync, Nothing))),
            (OutOfSync, Gap, Some((OutOfSync, Nothing))),
            (OutOfSync, AckTimeout(7), Some((OutOfSync, Nothing))),
            (OutOfSync, Lagging, Some((OutOfSync, Nothing))),
            (OutOfSync, ReportAcked, Some((OutOfSync, Nothing))),
            (OutOfSync, Fenced, Some((OutOfSync, Nothing))),
            // Syncing: only the ack of that sync or its timeout ends it,
            // and only a sync nothing outran brings the lane in.
            (syncing(false), took(true, None), None),
            (syncing(false), took(false, Some(2)), None),
            (syncing(false), PassedBy, Some((syncing(true), Nothing))),
            (syncing(true), PassedBy, Some((syncing(true), Nothing))),
            (syncing(false), Applied(7), Some((InSync(idle()), Resynced))),
            (syncing(true), Applied(7), Some((OutOfSync, Nothing))),
            (syncing(false), Applied(6), Some((syncing(false), Nothing))),
            (syncing(false), Applied(8), Some((syncing(false), Nothing))),
            (syncing(false), Gap, Some((syncing(false), Nothing))),
            (syncing(false), AckTimeout(7), Some((OutOfSync, Nothing))),
            (syncing(true), AckTimeout(7), Some((OutOfSync, Nothing))),
            (syncing(false), AckTimeout(6), Some((syncing(false), Nothing))),
            (syncing(false), Lagging, Some((syncing(false), Nothing))),
            (syncing(false), ReportAcked, Some((syncing(false), Nothing))),
            (syncing(true), Fenced, Some((OutOfSync, Nothing))),
            // In sync: everything is booked, acks release gates, and
            // whatever says the backup is behind starts the report.
            (InSync(full()), took(false, Some(2)), Some((InSync(with_9(Some(2))), Nothing))),
            (InSync(full()), took(true, None), Some((InSync(with_9(None)), Nothing))),
            (InSync(full()), PassedBy, Some((InSync(full()), Nothing))),
            (InSync(full()), Applied(6), Some((InSync(tail()), Release(vec![0])))),
            (InSync(full()), Applied(4), Some((InSync(full()), Release(vec![])))),
            (InSync(full()), Applied(8), Some((InSync(idle()), Release(vec![0, 1])))),
            (InSync(full()), Gap, Some((Unsyncing(full()), Report))),
            (InSync(full()), AckTimeout(5), Some((Unsyncing(full()), Report))),
            (InSync(tail()), AckTimeout(5), Some((InSync(tail()), Nothing))),
            (InSync(full()), Lagging, Some((Unsyncing(full()), Report))),
            (InSync(full()), ReportAcked, Some((InSync(full()), Nothing))),
            (InSync(full()), Fenced, Some((OutOfSync, Nothing))),
            // Unsyncing: nothing ships, late acks still release, and the
            // master's answer writes the rest off.
            (Unsyncing(full()), took(true, None), None),
            (Unsyncing(full()), took(false, Some(2)), None),
            (Unsyncing(full()), PassedBy, Some((Unsyncing(full()), Nothing))),
            (Unsyncing(full()), Applied(6), Some((Unsyncing(tail()), Release(vec![0])))),
            (Unsyncing(full()), Gap, Some((Unsyncing(full()), Nothing))),
            (Unsyncing(full()), AckTimeout(5), Some((Unsyncing(full()), Nothing))),
            (Unsyncing(full()), Lagging, Some((Unsyncing(full()), Nothing))),
            (Unsyncing(full()), ReportAcked, Some((OutOfSync, Release(vec![0, 1])))),
            (Unsyncing(idle()), ReportAcked, Some((OutOfSync, Release(vec![])))),
            (Unsyncing(full()), Fenced, Some((OutOfSync, Nothing))),
        ];
        let state_kind = |s: &LaneState| match s {
            OutOfSync => 0,
            Syncing { .. } => 1,
            InSync(_) => 2,
            Unsyncing(_) => 3,
        };
        let event_kind = |e: &LaneEvent| match e {
            Took { .. } => 0,
            PassedBy => 1,
            Applied(_) => 2,
            Gap => 3,
            AckTimeout(_) => 4,
            Lagging => 5,
            ReportAcked => 6,
            Fenced => 7,
        };
        let mut pairs = BTreeSet::new();
        for (state, event, expected) in table {
            pairs.insert((state_kind(&state), event_kind(&event)));
            let pair = format!("{state:?} on {event:?}");
            let mut lane = lane(state);
            match expected {
                Some((next, action)) => {
                    assert_eq!(lane.on(event), action, "{pair}: action");
                    assert_eq!(lane.state, next, "{pair}: next state");
                }
                None => {
                    let outcome = catch_unwind(AssertUnwindSafe(|| lane.on(event)));
                    assert!(outcome.is_err(), "{pair}: should be unreachable");
                }
            }
        }
        assert_eq!(pairs.len(), 4 * 8, "a (state, event) pair has no row");
    }

    proptest! {
        /// Any sequence of events `ship()` and the network can put to a
        /// lane keeps it consistent, keeps the gates waiting on it exactly
        /// those an in-sync or reported lane holds, and brings it in only
        /// by the ack of a sync that nothing outran.
        #[test]
        fn random_events_keep_a_lane_consistent(
            steps in prop::collection::vec((0u8..10, any::<u8>(), 1usize..5000), 1..200),
        ) {
            let mut lane = ReplLane::new(ServerId(1), NodeId(1), Weak::new());
            // The gates of the lane's group that wait on this lane.
            let mut waiting = BTreeSet::new();
            let mut next_gate = 0u64;
            for (kind, arg, bytes) in steps {
                let some_seq = u64::from(arg) % (lane.next_seq + 1);
                let sync = kind == 2;
                let event = match kind {
                    // `ship()`: ask, then tell.
                    0..=2 if lane.takes(sync, arg % 2 == 1) => {
                        let gate = (!sync).then_some(next_gate);
                        waiting.extend(gate);
                        next_gate += 1;
                        lane.next_seq += 1;
                        Took { seq: lane.next_seq - 1, sync, held: (bytes, gate) }
                    }
                    0 | 1 => PassedBy,
                    2 => continue,
                    3 | 4 => Applied(some_seq),
                    5 => Gap,
                    6 => AckTimeout(some_seq),
                    7 => Lagging,
                    8 => ReportAcked,
                    _ => Fenced,
                };
                let syncing = match lane.state {
                    Syncing { seq, outrun } => Some((seq, outrun)),
                    _ => None,
                };
                let was_in = matches!(lane.state, InSync(_));
                match lane.on(event) {
                    Release(gates) => {
                        for gate in gates {
                            prop_assert!(waiting.remove(&gate), "gate {gate} released twice");
                        }
                    }
                    // The group takes every gate when it is fenced.
                    _ if matches!(event, Fenced) => waiting.clear(),
                    _ => {}
                }
                prop_assert!(lane.is_consistent(), "{:?} after {event:?}", lane.state);
                let held: BTreeSet<u64> = lane
                    .in_flight()
                    .map(|b| b.pending.values().filter_map(|(_, gate)| *gate).collect())
                    .unwrap_or_default();
                prop_assert_eq!(&held, &waiting, "{:?} after {:?}", lane.state, event);
                if !was_in && matches!(lane.state, InSync(_)) {
                    let Applied(acked) = event else {
                        return Err(TestCaseError::fail(format!("{event:?} brought a lane in")));
                    };
                    prop_assert_eq!(syncing, Some((acked, false)));
                }
            }
        }
    }
}

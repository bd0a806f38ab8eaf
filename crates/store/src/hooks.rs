//! Integration hooks the recovery middleware installs into the store.
//!
//! The paper keeps its "extensions to the key-value store … to a minimum"
//! (§1): a hook in the master that reports server failures, a hook in
//! region initialization that delays a recovered region's online
//! declaration until transactional recovery completes, and server-side
//! tracking of applied write-sets. [`RecoveryHooks`] is exactly that
//! surface; `cumulo-core` provides the real implementation, and
//! [`NoopHooks`] is the behaviour of a vanilla (non-transactional)
//! cluster.
//!
//! The other two traits point the opposite way — the master-side
//! surfaces a region server calls, kept here so the `server` module
//! never names `master.rs`: [`StructureCoordinator`] (three calls, the
//! same three for a split and a merge) and [`ReplicationCoordinator`].

use crate::server::RegionServer;
use crate::types::{RegionId, ServerId, Timestamp};
use bytes::Bytes;
use cumulo_sim::NodeId;
use std::fmt;
use std::rc::Rc;

/// The master-side coordination surface an online structure change (a
/// region split or merge) needs: the region server proposes the change,
/// the master validates it, allocates the output ids and persists the
/// [`crate::StructureChange`] intent, and the server reports completion
/// (or abandonment). The `Master` implements this; servers hold it as a
/// trait object so the `server` module does not depend on `master.rs`.
/// All calls are made *at the master's node* — callers send themselves
/// there through the simulated network first (see
/// [`StructureCoordinator::node`]).
pub trait StructureCoordinator {
    /// The node the coordinator runs on (the RPC destination).
    fn node(&self) -> NodeId;

    /// A server asks to replace `inputs` (which it hosts; adjacent, in
    /// key order) by `cuts.len() + 1` new regions with `cuts` as the
    /// boundaries between them: one input and one cut is a split, two
    /// inputs and no cut a merge. The master validates, persists the
    /// intent, and — once it is durable — tells the server to execute;
    /// anything else is denied.
    fn request_change(&self, server: ServerId, inputs: Vec<RegionId>, cuts: Vec<Bytes>);

    /// The server finished the local flip of the change whose first
    /// input is `first`: the outputs are online in its memory, the
    /// inputs are gone. The master applies the change to the region map
    /// and retires the intent.
    fn change_completed(&self, server: ServerId, first: RegionId);

    /// The server abandoned an intent it was granted (e.g. the reference
    /// marker writes failed); the master rolls the intent back.
    fn change_aborted(&self, server: ServerId, first: RegionId);
}

/// Callbacks from the store into the recovery middleware.
pub trait RecoveryHooks {
    /// The master detected that `failed` died; its `regions` are about to
    /// be reassigned. (Paper §3.2: "We added a hook in the master server
    /// that notifies our recovery manager whenever a server fails.")
    fn on_server_failed(&self, failed: ServerId, regions: &[RegionId]);

    /// Region `region` finished HBase-internal recovery on `server` after
    /// `failed`'s crash. The region must not go online until `online` is
    /// invoked. (Paper §3.2: the region "waits for a response from our
    /// recovery manager before proceeding to actually declare the region
    /// online".)
    /// `promoted` is true when the region arrived via replica promotion
    /// rather than WAL-split placement: recovery still replays the
    /// transaction-log suffix above the persisted floor (idempotently),
    /// on top of the promoted shadow instead of an adopted WAL-split file.
    fn on_region_recovered(
        &self,
        server: Rc<RegionServer>,
        region: RegionId,
        failed: ServerId,
        promoted: bool,
        online: Box<dyn FnOnce()>,
    );

    /// A write-set portion for `region` was applied at `server` (WAL
    /// buffer + memstore), with WAL sequence `wal_seq`. `floor` carries
    /// the piggybacked `T_P(failed)` when the write is a recovery replay
    /// (Algorithm 3, lines 18–21). The persist tracker queues a PQ entry.
    fn on_write_set_applied(
        &self,
        server: ServerId,
        region: RegionId,
        ts: Timestamp,
        wal_seq: u64,
        floor: Option<Timestamp>,
    );
}

/// The master-side coordination surface region replication needs beyond
/// [`StructureCoordinator`]: lane sync-state reports. A primary must not
/// release write gates for an out-of-sync lane until the master has
/// acknowledged the report — the master is the promotion arbiter, so its
/// ack is what makes un-gating sound (the backup is now ineligible). All
/// calls are made *at the master's node*; callers send themselves there
/// through the simulated network first.
pub trait ReplicationCoordinator {
    /// The node the coordinator runs on (the RPC destination).
    fn node(&self) -> NodeId;

    /// `backup`'s lane for `region` (replica-group `epoch`) fell out of
    /// sync (gap, backlog overflow, or ack timeout). The master records
    /// the ineligibility and invokes `done(false)`; only then may the
    /// primary release gates held for that lane. When the report's epoch
    /// is older than the currently established group (the reporter is a
    /// stale ex-primary, e.g. resurfacing from a healed partition after a
    /// promotion), the master answers `done(true)` instead: the reporter
    /// must fence itself rather than un-gate.
    fn replica_unsynced(
        &self,
        region: RegionId,
        epoch: u64,
        backup: ServerId,
        done: Box<dyn FnOnce(bool)>,
    );

    /// `backup`'s lane for `region` completed a full-state sync that
    /// nothing outran: its shadow holds everything the primary served,
    /// and every client ack gates on it from here on. This — not the
    /// shadow's own account — is what makes the backup eligible for
    /// promotion, first after an establish and again after a report.
    fn replica_synced(&self, region: RegionId, epoch: u64, backup: ServerId);
}

/// Hooks for a cluster without the recovery middleware: regions go online
/// immediately after internal recovery, nothing is tracked.
#[derive(Default)]
pub struct NoopHooks;

impl fmt::Debug for NoopHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NoopHooks")
    }
}

impl RecoveryHooks for NoopHooks {
    fn on_server_failed(&self, _failed: ServerId, _regions: &[RegionId]) {}

    fn on_region_recovered(
        &self,
        _server: Rc<RegionServer>,
        _region: RegionId,
        _failed: ServerId,
        _promoted: bool,
        online: Box<dyn FnOnce()>,
    ) {
        online();
    }

    fn on_write_set_applied(
        &self,
        _server: ServerId,
        _region: RegionId,
        _ts: Timestamp,
        _wal_seq: u64,
        _floor: Option<Timestamp>,
    ) {
    }
}

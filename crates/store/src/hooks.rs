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

use crate::server::RegionServer;
use crate::types::{RegionId, ServerId, Timestamp};
use std::fmt;
use std::rc::Rc;

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

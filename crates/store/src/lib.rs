//! HBase-like distributed key-value store substrate.
//!
//! This crate reproduces the parts of HBase the paper's recovery
//! middleware interacts with (§2.1):
//!
//! * a table partitioned into **regions** (contiguous key ranges), each
//!   hosted by one **region server** — with **online structure
//!   changes**: a hot region is atomically replaced by two daughters, or
//!   two shrunken neighbours by their union, the new store-file sets
//!   being O(metadata) reference files over the old regions' files (see
//!   ARCHITECTURE.md, "Structure changes");
//! * per-region in-memory **memstores** holding recent updates, flushed in
//!   batches to immutable **store files** in the distributed filesystem;
//! * a per-server **write-ahead log** whose synchronous flush can be
//!   *deactivated* — the paper's asynchronous-persistence mode, where a
//!   server ack does not imply durability;
//! * a **block cache** whose cold-start after failover produces the slow
//!   return to peak throughput in the paper's Fig. 3;
//! * a **master** that detects server failures through the coordination
//!   service, splits the failed server's WAL into one store file per
//!   region, and reassigns regions to surviving servers — with the paper's two recovery hooks
//!   (failure notification, and gating a recovered region's online
//!   declaration on the recovery manager's response);
//! * a **store client** with location caching and, per §3.2 of the paper,
//!   *unbounded* retries.
//!
//! The transactional layers live above: `cumulo-txn` (transaction manager)
//! and `cumulo-core` (the failure-recovery middleware, the paper's
//! contribution).
//!
//! # The LSM lifecycle
//!
//! A cell's value travels through the classic log-structured-merge
//! stages, each handing durability or serving duty to the next:
//!
//! 1. **WAL append** — every mutation is first buffered into the server's
//!    write-ahead log ([`Wal`]); in synchronous mode the ack waits for
//!    the filesystem, in the paper's asynchronous mode it does not.
//! 2. **Memstore apply** — the mutation lands in the region's in-memory,
//!    MVCC-versioned [`MemStore`] and is immediately readable.
//! 3. **Flush** — when a memstore exceeds its size threshold, its
//!    contents are snapshotted and written to the distributed filesystem
//!    as a sorted, immutable **store file** ([`StoreFileData`]) carrying
//!    min/max row-key range metadata and a deterministic per-file
//!    [`bloom`] filter over its `(row, column)` pairs; the WAL entries it
//!    covers become dead weight. A failover takes the same step for a
//!    dead server: the master sorts each region's share of its split
//!    WAL into one store file ([`StoreFileData::from_wal_records`]),
//!    which the region's next host adopts with the others at open.
//!    Point gets consult only files whose range covers the key *and*
//!    whose filter matches ([`FilterStats`] counts probes, skips and
//!    false positives); scans prune by range only.
//! 4. **Compaction** — flushes accumulate store files, and every read
//!    must consult all of them (*read amplification*). The background
//!    [`compaction`] stage merges the widest window of similarly-sized
//!    files back down into one (size-tiered: file ranges overlap
//!    freely), crash-safely (temp-name writes, atomic renames, then input
//!    retirement).
//! 5. **MVCC garbage collection** — during the merge, versions shadowed
//!    at or below the transaction manager's *oldest active snapshot* are
//!    dropped, and a major compaction also purges tombstones that no
//!    longer shadow anything. Disk usage and read cost stay proportional
//!    to live data, not to write history.
//!
//! # Compaction tuning
//!
//! All knobs live on [`CompactionConfig`] (per cluster via
//! `cumulo-core`'s `ClusterConfig`):
//!
//! * **Thresholds**: `min_files` is the candidacy floor, `max_files`
//!   caps one merge, and `tier_ratio` is how far apart two file sizes
//!   may be and still count as one tier.
//! * **Backpressure** (`backpressure`, on by default): the deficit
//!   scheduler defers due merges while windowed handler utilization
//!   exceeds `utilization_threshold`, forcing them after
//!   `max_deferrals` ticks; past `stall_file_limit` store files a
//!   region's memstore flushes stall. Lower
//!   the threshold to favor foreground p99 in bursty workloads; raise
//!   `max_deferrals` only with filters on, since deferral grows the
//!   consulted-file count for overwritten keys.
//! * **Pacing**: `check_interval` bounds merge admission to one region
//!   per server per tick; `merge_service_per_entry` is the modeled CPU
//!   a merge charges against the shared handler slots.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blockcache;
pub mod bloom;
mod client;
pub mod codec;
pub mod compaction;
mod error;
mod hooks;
mod master;
mod memstore;
pub mod merge_iter;
mod region;
mod server;
mod sstable;
mod types;
mod wal;

pub use blockcache::BlockCache;
pub use bloom::CellKey;
pub use client::{Replay, StoreClient, StoreClientConfig};
pub use codec::WalRecord;
pub use compaction::{CompactionConfig, CompactionStats};
pub use error::StoreError;
pub use hooks::{NoopHooks, RecoveryHooks};
pub use master::{Master, MasterConfig, MoveConfig, ServerDirectory};
pub use memstore::{MemStore, VersionedValue};
pub use region::{ChangeKind, RegionDescriptor, RegionMap, StructureChange};
pub use server::{
    FilterStats, RegionServer, RegionServerConfig, ReplicationStats, ScanPage, SplitConfig,
    StructureStats,
};
pub use sstable::{StoreFileBuilder, StoreFileData, StoreFileEntry, StoreFileRegistry};
pub use types::{ClientId, Mutation, MutationKind, RegionId, ServerId, Timestamp, WriteSet};
pub use wal::{split_wal, Wal, WalSplit, WalSyncMode};

//! The independent transaction manager (the paper's §2.2).
//!
//! The paper integrates a middleware transaction manager with the
//! key-value store; its internals are out of the paper's scope ("the
//! overall architecture of the transaction management component will soon
//! be submitted for publication in an independent manuscript"), so this
//! crate implements the minimal contract the recovery protocol depends
//! on:
//!
//! * **monotonically increasing commit timestamps** that define the
//!   serialization order (§2.2);
//! * a **recovery log** to which a committed transaction's write-set,
//!   commit timestamp and client id are forced *at commit time* with
//!   group commit — the single durability point of the whole system;
//! * log **fetch** operations used by the recovery manager
//!   (`fetch_after(ts)` for server recovery, `fetch_client_after(c, ts)`
//!   for client recovery) and **truncation** below the global persisted
//!   threshold `T_P` (§3.2: "transactions with timestamp T < T_P may be
//!   truncated from the recovery log");
//! * snapshot-isolation **write-write conflict detection**
//!   (first-committer-wins), since the paper assumes some concurrency
//!   control exists;
//! * a **flush watermark** assigning read snapshots under which every
//!   committed transaction is fully flushed, so reads never observe a
//!   partially flushed commit (ARCHITECTURE.md, protocol refinements).
//!
//! Per §4.1 the log has "access to its own high performance stable
//! storage"; the manager itself is assumed reliable (its replication is
//! the companion paper's subject). Recovery **manager** failure — which
//! this paper does treat (§3.3) — is handled in `cumulo-core`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod conflict;
mod log;
mod manager;
mod oracle;

pub use client::TmClient;
pub use conflict::ConflictChecker;
pub use log::{LogRecord, RecoveryLog, RecoveryLogConfig};
pub use manager::{CommitOutcome, TransactionManager, TxnId};
pub use oracle::TimestampOracle;

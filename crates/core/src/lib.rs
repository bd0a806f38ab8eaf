//! **Cumulo** — transactional failure recovery for a distributed
//! key-value store.
//!
//! This crate is the paper's contribution (Ahmad, Kemme, Brondino,
//! Patiño-Martínez, Jiménez-Peris: *Transactional Failure Recovery for a
//! Distributed Key-Value Store*, Middleware 2013): a failure-recovery
//! middleware for a system where an independent transaction manager owns
//! durability (commit-time logging) while the key-value store persists
//! asynchronously. Its pieces:
//!
//! * [`TransactionalClient`] — the extended key-value client: deferred
//!   updates, commit through the transaction manager, post-commit flush,
//!   and Algorithm 1's flushed-threshold tracking ([`FlushTracker`]).
//!   Applications drive it through first-class [`Transaction`] handles
//!   with typed [`TxnError`]s, a batched `multi_get` read path (one
//!   store RPC per region), and the conflict-retrying
//!   [`TransactionalClient::run`] combinator under a [`RetryPolicy`];
//! * [`ServerTracker`] — Algorithm 3's server-side runtime: heartbeat-
//!   driven WAL persistence and persisted-threshold tracking
//!   ([`PersistTracker`]);
//! * [`RecoveryManager`] — Algorithms 2 and 4: global thresholds
//!   `T_F`/`T_P`, client- and server-failure recovery by replaying the
//!   transaction manager's log via the [`RecoveryClient`] `c_R`, log
//!   truncation, and §3.3's recovery-manager crash/restart;
//! * [`MiddlewareHooks`] — the minimal store-side integration surface;
//! * [`Cluster`] — a one-call harness that wires the full simulated
//!   deployment (filesystem, coordination service, store, transaction
//!   manager, middleware) with fault-injection helpers;
//! * [`History`] — the transactions a run's clients saw, recorded at the
//!   [`Transaction`] door, and the checker that they are snapshot
//!   isolated and durable.
//!
//! # Quickstart
//!
//! ```
//! use cumulo_core::{Cluster, ClusterConfig, TxnError};
//! use cumulo_store::Timestamp;
//! use cumulo_sim::SimDuration;
//! use std::{cell::RefCell, rc::Rc};
//!
//! let cluster = Cluster::build(ClusterConfig {
//!     clients: 1,
//!     key_count: 1_000,
//!     ..ClusterConfig::default()
//! });
//! let client = cluster.client(0).clone();
//! let outcome: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> =
//!     Rc::new(RefCell::new(None));
//! let o = outcome.clone();
//! client.begin(move |txn| {
//!     let txn = txn.expect("client is live");
//!     txn.put("user000000000001", "f0", "hello").unwrap();
//!     txn.commit(move |r| *o.borrow_mut() = Some(r));
//! });
//! cluster.run_for(SimDuration::from_secs(1));
//! assert!(matches!(*outcome.borrow(), Some(Ok(_))));
//! // The committed value is readable (and will survive a server crash).
//! let v = cluster.read_cell("user000000000001", "f0", SimDuration::from_secs(5));
//! assert_eq!(v.as_deref(), Some(&b"hello"[..]));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod flush_tracker;
pub mod history;
mod hooks_impl;
pub mod paths;
mod persist_tracker;
mod recovery_client;
mod recovery_manager;
mod server_tracker;
// CD005, the no-panic contract of the public client surface: misuse
// surfaces as a `TxnError`, never a panic. Tests may still unwrap
// (clippy.toml's `allow-*-in-tests`); each vetted internal-invariant
// site carries an `#[expect(clippy::expect_used, reason = "...")]`.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
mod txn_client;

pub use cluster::{Cluster, ClusterConfig};
pub use flush_tracker::FlushTracker;
pub use history::History;
pub use hooks_impl::MiddlewareHooks;
pub use persist_tracker::PersistTracker;
pub use recovery_client::RecoveryClient;
pub use recovery_manager::{RecoveryManager, RecoveryManagerConfig};
pub use server_tracker::{ServerTracker, ServerTrackerConfig};
pub use txn_client::{
    PersistenceMode, RetryPolicy, RunFinish, Transaction, TransactionalClient, TxnClientConfig,
    TxnError,
};

// Re-exported so client-facing code can name commit timestamps and
// transaction ids without depending on the lower crates directly.
pub use cumulo_store::Timestamp;
pub use cumulo_txn::TxnId;

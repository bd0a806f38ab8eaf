//! Deterministic discrete-event simulation kernel for the Cumulo stack.
//!
//! Everything in the Cumulo reproduction — the HDFS-like filesystem, the
//! HBase-like store, the transaction manager and the recovery middleware —
//! runs on top of this kernel. The kernel provides:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]) advanced only by event
//!   execution, so a 300-second experiment runs in milliseconds of real time;
//! * a single seeded random-number generator, so *identical seeds produce
//!   identical executions*, which the test suite relies on;
//! * a [`Network`] that delivers messages FIFO per (source, destination)
//!   pair, models latency and jitter, and drops traffic to/from crashed
//!   nodes or across partitions;
//! * a [`Disk`] model with serialized writes and fsync latency;
//! * a [`ServiceQueue`] modelling a `k`-core CPU, which produces the
//!   saturation knees that the paper's throughput/latency figures depend on;
//! * [`metrics`] (histograms, time series) used by the benchmark harness.
//!
//! # Example
//!
//! ```
//! use cumulo_sim::{Sim, SimDuration};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let sim = Sim::new(42);
//! let fired = Rc::new(Cell::new(false));
//! let f = fired.clone();
//! sim.schedule_in(SimDuration::from_millis(5), move || f.set(true));
//! sim.run_for(SimDuration::from_millis(10));
//! assert!(fired.get());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod disk;
mod kernel;
pub mod metrics;
mod net;
mod service;
mod time;
mod timer;
pub mod trace;

pub use disk::{Disk, DiskConfig};
pub use kernel::Sim;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use net::{LatencyConfig, Network, NodeId, Reply, Settle, Within};
pub use service::ServiceQueue;
pub use time::{SimDuration, SimTime};
pub use timer::{every, every_from, TimerHandle};
pub use trace::{Journal, JournalEntry};

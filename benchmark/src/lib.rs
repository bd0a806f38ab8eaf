//! The repo's one benchmark: five named workloads, end-to-end metrics on
//! both clocks, a per-layer ledger measured from outside. See README.md.

pub mod alloc_count;
pub mod audit;
pub mod catalog;
pub mod diff;
pub mod driver;
pub mod e2e;
pub mod host;
pub mod json;
pub mod ledger;
pub mod micro;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod workload;

//! The five workloads and the operation stream each one is driven with.
//!
//! Every number here is a frozen constant: the open rates were set to
//! the nearest 50 tps below 60 % of the closed-loop peak measured on
//! the commit this benchmark was added to (see README.md).

use crate::rng::{Rng, ScrambledZipf};
use bytes::Bytes;

/// Length of every stored value, in bytes (the paper's 100-byte cells).
pub const VALUE_LEN: usize = 100;
/// The one column every workload reads and writes.
pub const COLUMN: &str = "f0";
/// Rows a scan asks for.
pub const SCAN_LEN: usize = 50;
/// A row is not written again by the next this-many transactions of the
/// stream, so two transactions can only conflict if the system lets more
/// than `NO_REWRITE_WINDOW` of them overlap: on a healthy system no
/// operation fails, and `core.abort_share` above zero means the flush
/// watermark has fallen that far behind.
pub const NO_REWRITE_WINDOW: u32 = 4096;

/// What a transaction does.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mix {
    /// The paper's §4.1 transaction: 10 ops, each a `get` or a `put`
    /// with equal probability, uniform keys.
    OltpRw,
    /// 10 `get`s, scrambled-zipfian keys (θ = 0.99).
    ReadZipf,
    /// 10 blind `put`s, uniform keys.
    WriteHeavy,
    /// 2 scans of 50 rows from a uniform start, then 2 blind `put`s.
    ScanRange,
}

/// One workload: topology-independent sizes and the two config fields
/// the benchmark is allowed to set.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub mix: Mix,
    /// Rows loaded (and the key space operations draw from).
    pub rows: u64,
    /// Whether `load_rows` pre-warms the block caches.
    pub warm_cache: bool,
    /// `server_cfg.block_cache_capacity`, when not the default.
    pub block_cache_rows: Option<usize>,
    /// `server_cfg.memstore_flush_bytes`, when not the default.
    pub memstore_flush_bytes: Option<usize>,
    /// Open phase: arrivals per simulated second, and its length.
    pub open_tps: u64,
    pub open_secs: u64,
    /// Closed phase length (0 = the workload has none).
    pub closed_secs: u64,
    /// Whether client 15 and server 0 are crashed during the open phase.
    pub crashes: bool,
}

/// The topology every workload runs on (with [`CLOSED_WORKERS`] clients).
pub const SERVERS: usize = 2;
pub const REGIONS: usize = 4;
/// Unmeasured open-loop traffic before the open phase, in sim-seconds.
pub const WARMUP_SECS: u64 = 5;
/// Workers of the closed phase (one per client).
pub const CLOSED_WORKERS: usize = 16;
/// `failover`: offsets of the two crashes from the open phase's start.
pub const CRASH_CLIENT_AT_SECS: u64 = 20;
pub const CRASH_SERVER_AT_SECS: u64 = 40;
/// `failover`: which client and which server die.
pub const CRASHED_CLIENT: usize = 15;
pub const CRASHED_SERVER: usize = 0;

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "oltp_rw",
            why: "paper's 10-op 50/50 get/put transaction, warm cache: every layer does a share of the work",
            mix: Mix::OltpRw,
            rows: 200_000,
            warm_cache: true,
            block_cache_rows: None,
            memstore_flush_bytes: None,
            open_tps: 350,
            open_secs: 30,
            closed_secs: 20,
            crashes: false,
        },
        Spec {
            name: "read_zipf",
            why: "read-only zipfian gets, cold start, cache holds 10% of the data: the store read path does the work, the write path none",
            mix: Mix::ReadZipf,
            rows: 200_000,
            warm_cache: false,
            block_cache_rows: Some(10_000),
            memstore_flush_bytes: None,
            open_tps: 200,
            open_secs: 30,
            closed_secs: 20,
            crashes: false,
        },
        Spec {
            name: "write_heavy",
            why: "blind 10-put transactions with a 256 KiB memstore: commit log, WAL, flushes and compactions do the work, the read path none",
            mix: Mix::WriteHeavy,
            rows: 200_000,
            warm_cache: true,
            block_cache_rows: None,
            memstore_flush_bytes: Some(256 << 10),
            open_tps: 400,
            open_secs: 30,
            closed_secs: 0,
            crashes: false,
        },
        Spec {
            name: "scan_range",
            why: "two 50-row scans plus two puts per transaction: the read path used by range, merging memstore and files",
            mix: Mix::ScanRange,
            rows: 100_000,
            warm_cache: true,
            block_cache_rows: None,
            memstore_flush_bytes: None,
            open_tps: 100,
            open_secs: 20,
            closed_secs: 3,
            crashes: false,
        },
        Spec {
            name: "failover",
            why: "paper's Fig. 3: the oltp_rw mix through a client crash and a region-server crash; detection, WAL split, replay and cache re-warm do the work",
            mix: Mix::OltpRw,
            rows: 200_000,
            warm_cache: true,
            block_cache_rows: None,
            memstore_flush_bytes: None,
            open_tps: 50,
            open_secs: 110,
            closed_secs: 0,
            crashes: true,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// One operation on the row with the given index.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Put(u32),
    Scan(u32),
}

/// One transaction of the stream. `seq` numbers transactions from 0 in
/// stream order and is what every value this transaction writes carries.
#[derive(Clone, Debug)]
pub struct Txn {
    pub seq: u32,
    pub ops: Vec<Op>,
}

impl Txn {
    pub fn put_rows(&self) -> impl Iterator<Item = u32> + '_ {
        self.ops.iter().filter_map(|op| match op {
            Op::Put(r) => Some(*r),
            _ => None,
        })
    }
}

/// The operation stream of one repetition: a pure function of
/// `(workload, seed)`, drawn in `seq` order.
pub struct Stream {
    mix: Mix,
    rows: u64,
    rng: Rng,
    zipf: Option<ScrambledZipf>,
    /// `seq + 1` of the last transaction that wrote each row (0 = none).
    last_writer: Vec<u32>,
    next_seq: u32,
}

impl Stream {
    pub fn new(spec: &Spec, seed: u64) -> Stream {
        Stream {
            mix: spec.mix,
            rows: spec.rows,
            // Decorrelate from `ClusterConfig::seed`, which gets the same
            // number: the two generators must not walk in step.
            rng: Rng::new(seed ^ 0xB5AD_4ECE_DA1C_E2A9),
            zipf: (spec.mix == Mix::ReadZipf).then(|| ScrambledZipf::new(spec.rows, 0.99)),
            last_writer: vec![0; spec.rows as usize],
            next_seq: 0,
        }
    }

    fn uniform(&mut self) -> u32 {
        self.rng.below(self.rows) as u32
    }

    fn write_row(&mut self) -> u32 {
        loop {
            let row = self.uniform();
            let last = self.last_writer[row as usize];
            if last == 0 || self.next_seq + 1 - last >= NO_REWRITE_WINDOW {
                self.last_writer[row as usize] = self.next_seq + 1;
                return row;
            }
        }
    }

    pub fn next_txn(&mut self) -> Txn {
        let ops = match self.mix {
            Mix::OltpRw => (0..10)
                .map(|_| {
                    if self.rng.next_u64() & 1 == 0 {
                        Op::Get(self.uniform())
                    } else {
                        Op::Put(self.write_row())
                    }
                })
                .collect(),
            Mix::ReadZipf => (0..10)
                .map(|_| {
                    let zipf = self.zipf.as_ref().expect("built with the mix");
                    Op::Get(zipf.next(&mut self.rng) as u32)
                })
                .collect(),
            Mix::WriteHeavy => (0..10).map(|_| Op::Put(self.write_row())).collect(),
            Mix::ScanRange => vec![
                Op::Scan(self.uniform()),
                Op::Scan(self.uniform()),
                Op::Put(self.write_row()),
                Op::Put(self.write_row()),
            ],
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        Txn { seq, ops }
    }
}

/// The row key `load_rows` gives row `i`.
pub fn key(row: u32) -> Bytes {
    Bytes::from(format!("user{row:012}"))
}

/// Inverse of [`key`]; `None` for a key the benchmark never made.
pub fn row_of(key: &[u8]) -> Option<u32> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

/// The value transaction `seq` writes: its sequence number, padded to
/// [`VALUE_LEN`] bytes.
pub fn value(seq: u32) -> Bytes {
    let mut v = format!("{seq:010}").into_bytes();
    v.resize(VALUE_LEN, b'.');
    Bytes::from(v)
}

/// The sequence number a stored value carries; `None` for the loader's
/// initial value (or anything else the benchmark did not write).
pub fn seq_of(value: &[u8]) -> Option<u32> {
    std::str::from_utf8(value.get(..10)?).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_repeats_for_a_seed_and_differs_across_seeds() {
        let spec = by_name("oltp_rw").unwrap();
        let draw = |seed| {
            let mut s = Stream::new(&spec, seed);
            (0..50).map(|_| s.next_txn().ops).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn no_row_is_rewritten_within_the_window() {
        let spec = by_name("write_heavy").unwrap();
        let mut s = Stream::new(&spec, 1);
        let mut last = std::collections::HashMap::new();
        for _ in 0..3 * NO_REWRITE_WINDOW {
            let t = s.next_txn();
            for row in t.put_rows() {
                if let Some(prev) = last.insert(row, t.seq) {
                    assert!(t.seq - prev >= NO_REWRITE_WINDOW, "row {row} rewritten");
                }
            }
        }
    }

    #[test]
    fn keys_and_values_round_trip() {
        assert_eq!(row_of(&key(123_456)), Some(123_456));
        assert_eq!(seq_of(&value(77)), Some(77));
        assert_eq!(value(77).len(), VALUE_LEN);
        assert_eq!(seq_of(&[0x61; VALUE_LEN]), None);
    }
}

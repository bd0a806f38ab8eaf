//! Host-time micro-loops: wall nanoseconds per direct call of one
//! layer's public function, in a tight loop over pre-built inputs. They
//! split `wall_us_per_txn` by layer the way spans split `txn_p50_ms`.

use crate::host::HostSpeed;
use crate::rng::Rng;
use crate::workload::{key, value, COLUMN};
use bytes::Bytes;
use cumulo_sim::{Sim, SimDuration};
use cumulo_store::codec::encode_wal_batch;
use cumulo_store::{
    BlockCache, ClientId, MemStore, Mutation, RegionId, StoreFileData, Timestamp, WalRecord,
    WriteSet,
};
use cumulo_txn::{ConflictChecker, LogRecord, RecoveryLog, RecoveryLogConfig};
use std::hint::black_box;
use std::time::Instant;

/// Rows of the memstore and store file the loops run against.
const ROWS: u32 = 50_000;
const CALLS: u32 = 50_000;

#[derive(Clone, Debug)]
pub struct Micro {
    pub memstore_apply_ns: f64,
    pub memstore_get_ns: f64,
    pub sstable_get_ns: f64,
    pub sstable_scan50_ns: f64,
    pub blockcache_access_ns: f64,
    pub wal_encode_ns: f64,
    pub conflict_check_ns: f64,
    pub log_append_ns: f64,
    pub sim_event_ns: f64,
}

fn per_call(calls: u32, mut f: impl FnMut(u32)) -> f64 {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / f64::from(calls)
}

fn write_set(seq: u32, rng: &mut Rng) -> WriteSet {
    let mut ws = WriteSet::new();
    for _ in 0..5 {
        let row = rng.below(u64::from(ROWS)) as u32;
        ws.push(Mutation::put(key(row), COLUMN, value(seq)));
    }
    ws
}

/// Runs every loop once; results are scaled to reference host speed.
pub fn run() -> Micro {
    let mut host = HostSpeed::default();
    let speed_before = host.now();
    let mut rng = Rng::new(0x5EED);
    let column = Bytes::from(COLUMN);
    let keys: Vec<Bytes> = (0..ROWS).map(key).collect();
    let picks: Vec<usize> = (0..CALLS)
        .map(|_| rng.below(u64::from(ROWS)) as usize)
        .collect();

    let mut ms = MemStore::new();
    let memstore_apply_ns = per_call(ROWS, |i| {
        ms.apply(
            keys[i as usize].clone(),
            column.clone(),
            Timestamp(1),
            Some(value(i)),
        );
    });
    let memstore_get_ns = per_call(CALLS, |i| {
        black_box(ms.get(&keys[picks[i as usize]], COLUMN.as_bytes(), Timestamp::MAX));
    });

    let file = StoreFileData::from_memstore(RegionId(0), "/micro/file", &ms);
    let sstable_get_ns = per_call(CALLS, |i| {
        black_box(file.get(&keys[picks[i as usize]], COLUMN.as_bytes(), Timestamp::MAX));
    });
    let sstable_scan50_ns = per_call(200, |i| {
        let start = picks[i as usize].min(ROWS as usize - 51);
        black_box(file.scan(&keys[start], Some(&keys[start + 50]), Timestamp::MAX));
    });

    let mut cache = BlockCache::new(10_000);
    for k in &keys[..10_000] {
        cache.insert(RegionId(0), k.clone());
    }
    let blockcache_access_ns = per_call(CALLS, |i| {
        black_box(cache.access(RegionId(0), &keys[picks[i as usize] % 20_000]));
    });

    let sets: Vec<WriteSet> = (0..1_000).map(|i| write_set(i, &mut rng)).collect();
    let records: Vec<WalRecord> = sets
        .iter()
        .enumerate()
        .map(|(i, ws)| WalRecord {
            region: RegionId(0),
            ts: Timestamp(i as u64 + 1),
            mutations: ws.mutations.clone(),
        })
        .collect();
    let wal_encode_ns = per_call(CALLS, |i| {
        black_box(encode_wal_batch(
            &records[i as usize % records.len()..][..1],
        ));
    });

    let checker = ConflictChecker::new();
    let conflict_check_ns = per_call(CALLS, |i| {
        let ws = &sets[i as usize % sets.len()];
        black_box(checker.check_and_record(
            ws,
            Timestamp(u64::from(i)),
            Timestamp(u64::from(i) + 1),
        ));
    });

    let sim = Sim::new(1);
    let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
    let log_append_ns = per_call(CALLS, |i| {
        log.append(
            LogRecord {
                ts: Timestamp(u64::from(i) + 1),
                client: ClientId(0),
                write_set: sets[i as usize % sets.len()].clone(),
            },
            || {},
        );
        if i % 64 == 63 {
            sim.run_for(SimDuration::from_millis(2));
            log.truncate_below(Timestamp(u64::from(i)));
        }
    });

    let bare = Sim::new(1);
    let sim_event_ns = per_call(CALLS, |i| {
        bare.schedule_in(SimDuration::from_micros(u64::from(i % 7)), || {});
        if i % 64 == 63 {
            bare.run_for(SimDuration::from_millis(1));
        }
    });

    let speed = (speed_before + host.now()) / 2.0;
    Micro {
        memstore_apply_ns: memstore_apply_ns * speed,
        memstore_get_ns: memstore_get_ns * speed,
        sstable_get_ns: sstable_get_ns * speed,
        sstable_scan50_ns: sstable_scan50_ns * speed,
        blockcache_access_ns: blockcache_access_ns * speed,
        wal_encode_ns: wal_encode_ns * speed,
        conflict_check_ns: conflict_check_ns * speed,
        log_append_ns: log_append_ns * speed,
        sim_event_ns: sim_event_ns * speed,
    }
}

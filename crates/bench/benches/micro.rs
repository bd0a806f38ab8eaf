//! Criterion micro-benchmarks of the core data structures and protocol
//! building blocks.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cumulo_core::{FlushTracker, PersistTracker};
use cumulo_sim::metrics::Histogram;
use cumulo_sim::trace::Journal;
use cumulo_sim::{Sim, SimTime};
use cumulo_store::bloom::BloomFilter;
use cumulo_store::codec::{decode_wal_batch, encode_wal_batch, WalRecord};
use cumulo_store::compaction::{merge_store_files, GcWatermark};
use cumulo_store::{BlockCache, MemStore, Mutation, RegionId, StoreFileData, Timestamp, WriteSet};
use cumulo_txn::{ConflictChecker, LogRecord, RecoveryLog, RecoveryLogConfig};
use cumulo_ycsb::generators::{ScrambledZipfian, Uniform};
use std::rc::Rc;

fn bench_memstore(c: &mut Criterion) {
    c.bench_function("memstore/apply_10k", |b| {
        b.iter_batched(
            MemStore::new,
            |mut ms| {
                for i in 0..10_000u64 {
                    ms.apply(
                        Bytes::from(format!("row{:08}", i % 1000)),
                        Bytes::from_static(b"f0"),
                        Timestamp(i),
                        Some(Bytes::from_static(b"value")),
                    );
                }
                ms
            },
            BatchSize::SmallInput,
        )
    });
    let mut ms = MemStore::new();
    for i in 0..100_000u64 {
        ms.apply(
            Bytes::from(format!("row{:08}", i % 10_000)),
            Bytes::from_static(b"f0"),
            Timestamp(i),
            Some(Bytes::from_static(b"value")),
        );
    }
    c.bench_function("memstore/get_hot", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            let key = format!("row{i:08}");
            std::hint::black_box(ms.get(key.as_bytes(), b"f0", Timestamp::MAX))
        })
    });
}

/// The wall side of the range-read path: a 50-row scan seeks into a
/// 50 k-row memstore or store file (it must not walk it), and a point
/// get that misses probes the memstore with a borrowed key.
fn bench_scans(c: &mut Criterion) {
    const ROWS: usize = 50_000;
    let keys: Vec<Bytes> = (0..ROWS)
        .map(|i| Bytes::from(format!("row{i:08}")))
        .collect();
    let absent: Vec<Bytes> = (0..ROWS)
        .map(|i| Bytes::from(format!("row{i:08}x")))
        .collect();
    let mut ms = MemStore::new();
    for key in &keys {
        ms.apply(
            key.clone(),
            Bytes::from_static(b"f0"),
            Timestamp(1),
            Some(Bytes::from_static(b"value")),
        );
    }
    let file = StoreFileData::from_memstore(RegionId(0), "/bench/file", &ms);
    // A stride coprime to the row count visits starts all over the range.
    let next = |i: &mut usize| {
        *i = (*i + 7_919) % (ROWS - 50);
        *i
    };
    c.bench_function("memstore/scan50_of_50k", |b| {
        let mut i = 0;
        b.iter(|| {
            let at = next(&mut i);
            std::hint::black_box(ms.scan(&keys[at], Some(&keys[at + 50]), Timestamp::MAX))
        })
    });
    c.bench_function("sstable/scan50_of_50k", |b| {
        let mut i = 0;
        b.iter(|| {
            let at = next(&mut i);
            std::hint::black_box(file.scan(&keys[at], Some(&keys[at + 50]), Timestamp::MAX))
        })
    });
    c.bench_function("memstore/get_miss", |b| {
        let mut i = 0;
        b.iter(|| std::hint::black_box(ms.get(&absent[next(&mut i)], b"f0", Timestamp::MAX)))
    });
}

/// The background file pipeline — flush build, encode, point lookup,
/// filter build, compaction merge — at the sizes `write_heavy` runs it:
/// a loaded 50 k-row base file of 100-byte values meeting three
/// flush-sized files of fresh versions.
fn bench_file_pipeline(c: &mut Criterion) {
    const ROWS: usize = 50_000;
    const FLUSH_ROWS: usize = 2_000;
    let keys: Vec<Bytes> = (0..ROWS)
        .map(|i| Bytes::from(format!("user{i:012}")))
        .collect();
    let value = Bytes::from(vec![0x61; 100]);
    let memstore = |rows: &mut dyn Iterator<Item = usize>, ts: u64| {
        let mut ms = MemStore::new();
        for i in rows {
            ms.apply(
                keys[i].clone(),
                Bytes::from_static(b"f0"),
                Timestamp(ts),
                Some(value.clone()),
            );
        }
        ms
    };
    let base_ms = memstore(&mut (0..ROWS), 1);
    c.bench_function("sstable/build_from_memstore_50k", |b| {
        b.iter(|| StoreFileData::from_memstore(RegionId(0), "/bench/base", &base_ms))
    });
    let base = Rc::new(StoreFileData::from_memstore(
        RegionId(0),
        "/bench/base",
        &base_ms,
    ));
    c.bench_function("sstable/encode_50k", |b| {
        b.iter(|| std::hint::black_box(&base).encode())
    });
    c.bench_function("sstable/get_of_50k", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 7_919) % ROWS;
            std::hint::black_box(base.get(&keys[i], b"f0", Timestamp::MAX))
        })
    });
    // Absent keys that sort between the stored rows: the probe ends at an
    // empty slot or after one mismatched key.
    let absent: Vec<Bytes> = (0..ROWS)
        .map(|i| Bytes::from(format!("user{i:012}x")))
        .collect();
    c.bench_function("sstable/get_miss_of_50k", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 7_919) % ROWS;
            std::hint::black_box(base.get(&absent[i], b"f0", Timestamp::MAX))
        })
    });
    // One hot cell with 10 000 versions in a single file, read at
    // snapshots spread over the whole chain.
    const VERSIONS: u64 = 10_000;
    let mut hot = MemStore::new();
    for ts in 1..=VERSIONS {
        hot.apply(
            keys[0].clone(),
            Bytes::from_static(b"f0"),
            Timestamp(ts),
            Some(value.clone()),
        );
    }
    let hot = StoreFileData::from_memstore(RegionId(0), "/bench/hot", &hot);
    c.bench_function("sstable/get_deep_chain_10k_versions", |b| {
        let mut snapshot = 0;
        b.iter(|| {
            snapshot = (snapshot + 7_919) % VERSIONS;
            std::hint::black_box(hot.get(&keys[0], b"f0", Timestamp(snapshot)))
        })
    });
    let encoded = base.encode();
    c.bench_function("sstable/decode_50k", |b| {
        b.iter(|| StoreFileData::decode("/bench/base", std::hint::black_box(&encoded)))
    });
    c.bench_function("bloom/build_50k", |b| {
        b.iter(|| BloomFilter::build(keys.iter().map(|k| (&k[..], &b"f0"[..]))))
    });
    // Three flushes of rows spread over the base file, each newer than
    // the last; the watermark sits between them, so some base versions
    // are shadowed and dropped and some are kept.
    let mut inputs = vec![Rc::clone(&base)];
    for f in 0..3 {
        let mut rows = (0..FLUSH_ROWS).map(|j| (j * 23 + f * 7) % ROWS);
        let ms = memstore(&mut rows, 10 + f as u64);
        let path = format!("/bench/flush{f}");
        inputs.push(Rc::new(StoreFileData::from_memstore(
            RegionId(0),
            path,
            &ms,
        )));
    }
    c.bench_function("compaction/merge_50k_plus_3x2k", |b| {
        b.iter(|| {
            merge_store_files(
                RegionId(0),
                "/bench/merged",
                std::hint::black_box(&inputs),
                GcWatermark::at(Timestamp(11)),
                false,
                &|_, _, _| false,
            )
        })
    });
}

fn bench_block_cache(c: &mut Criterion) {
    c.bench_function("blockcache/access_insert", |b| {
        let mut cache = BlockCache::new(10_000);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = Bytes::from(format!("row{:08}", i % 20_000));
            if !cache.access(RegionId(0), &key) {
                cache.insert(RegionId(0), key);
            }
        })
    });
}

fn bench_trackers(c: &mut Criterion) {
    c.bench_function("flush_tracker/1k_commit_flush_advance", |b| {
        b.iter_batched(
            FlushTracker::new,
            |mut t| {
                for i in 1..=1_000u64 {
                    t.on_committed(Timestamp(i));
                }
                for i in (1..=1_000u64).rev() {
                    t.on_flushed(Timestamp(i));
                }
                t.advance()
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("persist_tracker/1k_apply_sync", |b| {
        b.iter_batched(
            PersistTracker::new,
            |mut t| {
                t.on_t_f(Timestamp(1_000));
                for i in 1..=1_000u64 {
                    t.on_applied(Timestamp(i), i, None);
                }
                t.on_synced(1_000)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_codec(c: &mut Criterion) {
    let records: Vec<WalRecord> = (0..100)
        .map(|i| WalRecord {
            region: RegionId(i % 4),
            ts: Timestamp(i as u64),
            mutations: (0..5)
                .map(|j| Mutation::put(format!("row{i}-{j}"), "f0", vec![0u8; 100]))
                .collect(),
        })
        .collect();
    c.bench_function("codec/encode_wal_batch_100x5", |b| {
        b.iter(|| encode_wal_batch(std::hint::black_box(&records)))
    });
    let encoded = encode_wal_batch(&records);
    c.bench_function("codec/decode_wal_batch_100x5", |b| {
        b.iter(|| decode_wal_batch(std::hint::black_box(&encoded)).unwrap())
    });
}

fn bench_recovery_log(c: &mut Criterion) {
    c.bench_function("recovery_log/append_fetch_truncate_1k", |b| {
        b.iter_batched(
            || Sim::new(1),
            |sim| {
                let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
                for i in 1..=1_000u64 {
                    let ws: WriteSet = vec![Mutation::put(format!("row{i}"), "f0", "v")]
                        .into_iter()
                        .collect();
                    log.append(
                        LogRecord {
                            ts: Timestamp(i),
                            client: cumulo_store::ClientId(0),
                            write_set: ws,
                        },
                        || {},
                    );
                }
                sim.run_for(cumulo_sim::SimDuration::from_secs(2));
                let fetched = log.fetch_after(Timestamp(500)).len();
                log.truncate_below(Timestamp(900));
                std::hint::black_box((fetched, log.len()))
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_conflict_checker(c: &mut Criterion) {
    c.bench_function("conflict_checker/check_5writes", |b| {
        let ck = ConflictChecker::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let ws: WriteSet = (0..5)
                .map(|j| Mutation::put(format!("row{}", (i * 5 + j) % 100_000), "f0", "v"))
                .collect();
            ck.check_and_record(&ws, Timestamp(i.saturating_sub(10)), Timestamp(i))
        })
    });
}

fn bench_generators(c: &mut Criterion) {
    let sim = Sim::new(9);
    let uni = Uniform::new(500_000);
    let zip = ScrambledZipfian::new(500_000);
    c.bench_function("generators/uniform", |b| b.iter(|| uni.next_key(&sim)));
    c.bench_function("generators/scrambled_zipfian", |b| {
        b.iter(|| zip.next_key(&sim))
    });
}

fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram/record_with_p99", |b| {
        let h = Histogram::new();
        let mut i = 1u64;
        b.iter(|| {
            i = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(i % 10_000_000);
            if i.is_multiple_of(1024) {
                std::hint::black_box(h.quantile(0.99));
            }
        })
    });
}

/// What every RPC and transaction step pays for an enabled journal whose
/// ring evicts the record before anyone reads it: the shipped default.
fn bench_journal(c: &mut Criterion) {
    c.bench_function("journal/record_unread", |b| {
        let journal = Journal::new(65_536);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (queue_ns, service_ns) = (i % 977, 250_000 + i % 13);
            journal.record(SimTime::from_nanos(i), "rpc.get", move || {
                format!(
                    "server=1 region=3 queue_ns={queue_ns} service_ns={service_ns} files=2 probes=3 hit=true"
                )
            });
        })
    });
}

criterion_group!(
    benches,
    bench_memstore,
    bench_scans,
    bench_file_pipeline,
    bench_block_cache,
    bench_trackers,
    bench_codec,
    bench_recovery_log,
    bench_conflict_checker,
    bench_generators,
    bench_histogram,
    bench_journal,
);
criterion_main!(benches);

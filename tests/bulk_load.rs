//! `Cluster::load_rows`: what the bulk loader leaves behind.
//!
//! The loader writes each region's rows as one store file at version 0,
//! which joins its live region the way a flush's file does. Two checks
//! hold it still: every loaded file is the file a memstore holding the
//! same cells would flush to, byte for byte; and a fixed load's files,
//! simulated clock, message count and block-cache contents are pinned as
//! literals.

mod common;

use bytes::Bytes;
use common::{fnv1a, key};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use cumulo_store::{MemStore, StoreFileData, Timestamp};
use std::rc::Rc;

/// The cluster the pins below were taken on: the key space is sized for
/// fewer rows than are loaded, so the last region takes the surplus.
fn loaded_cluster(columns: &[&str], warm_cache: bool) -> Cluster {
    let cluster = Cluster::build(ClusterConfig {
        seed: 29,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 2_000,
        ..ClusterConfig::default()
    });
    cluster.load_rows(2_500, columns, 8, warm_cache);
    cluster
}

/// The loaded file of every region, in key order.
fn loaded_files(cluster: &Cluster) -> Vec<Rc<StoreFileData>> {
    let map = cluster.master.snapshot_map();
    map.regions()
        .iter()
        .map(|desc| {
            let path = format!("/store/{}/loaded", desc.id);
            cluster
                .registry
                .get(&path)
                .expect("every region got a file")
        })
        .collect()
}

#[test]
fn loaded_files_are_the_flush_of_a_memstore_holding_the_same_rows() {
    // Unsorted, with a duplicate: a memstore orders the columns and keeps
    // one version of each cell.
    let columns = ["f1", "f0", "f1"];
    let cluster = loaded_cluster(&columns, false);
    let map = cluster.master.snapshot_map();
    let value = Bytes::from(vec![0x61; 8]);
    for (desc, file) in map.regions().iter().zip(loaded_files(&cluster)) {
        let mut ms = MemStore::new();
        for row in (0..2_500)
            .map(key)
            .filter(|row| desc.contains(row.as_bytes()))
        {
            for column in columns {
                ms.apply(
                    Bytes::from(row.clone()),
                    Bytes::copy_from_slice(column.as_bytes()),
                    Timestamp::ZERO,
                    Some(value.clone()),
                );
            }
        }
        let flushed = StoreFileData::from_memstore(desc.id, file.path(), &ms);
        assert_eq!(file.region(), desc.id);
        assert_eq!(file.len(), flushed.len(), "{}", file.path());
        assert_eq!(file.total_bytes(), flushed.total_bytes(), "{}", file.path());
        assert_eq!(file.encode(), flushed.encode(), "{}", file.path());
    }
}

#[test]
fn a_fixed_load_is_pinned() {
    let cluster = loaded_cluster(&["f0"], true);
    let files = loaded_files(&cluster);
    // Path, entries, image bytes, image digest.
    let files: Vec<(&str, usize, usize, u64)> = files
        .iter()
        .map(|f| (f.path(), f.len(), f.encode().len(), fnv1a(f.encode())))
        .collect();
    assert_eq!(
        files,
        [
            ("/store/r0/loaded", 500, 24_144, 5_761_534_769_620_683_454),
            ("/store/r1/loaded", 500, 24_144, 9_391_387_262_728_756_729),
            ("/store/r2/loaded", 500, 24_144, 6_324_898_574_566_710_106),
            (
                "/store/r3/loaded",
                1_000,
                48_268,
                13_743_216_011_436_211_923
            ),
        ]
    );
    // Bootstrap and load together: the instant they end at, and the
    // messages they sent.
    assert_eq!(cluster.now().nanos(), 1_700_000_000);
    assert_eq!(cluster.net.messages_sent(), 118);

    // The load warmed every row into its server's cache: one read per
    // region, each a hit.
    for row in [0, 500, 1_000, 2_499] {
        let got = cluster.read_cell(key(row), "f0", SimDuration::from_secs(5));
        assert_eq!(got.as_deref(), Some(&[0x61; 8][..]), "row {row}");
    }
    for server in &cluster.servers {
        assert_eq!(server.cache_hit_rate(), 1.0, "{}", server.id());
    }
}

#[test]
fn an_unwarmed_load_leaves_the_caches_cold() {
    let cluster = loaded_cluster(&["f0"], false);
    for row in [0, 500, 1_000, 2_499] {
        assert!(cluster
            .read_cell(key(row), "f0", SimDuration::from_secs(5))
            .is_some());
    }
    for server in &cluster.servers {
        assert_eq!(server.cache_hit_rate(), 0.0, "{}", server.id());
    }
}

#[test]
fn a_warm_up_that_overflows_the_cache_is_pinned() {
    // 700 rows of cache per server, fewer than either server loads
    // (1,000 and 1,500 rows), so the warm-up evicts.
    let mut cfg = ClusterConfig {
        seed: 29,
        clients: 2,
        servers: 2,
        regions: 4,
        key_count: 2_000,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.block_cache_capacity = 700;
    let cluster = Cluster::build(cfg);
    cluster.load_rows(2_500, &["f0"], 8, true);
    let map = cluster.master.snapshot_map();

    // Per server: cached rows and evictions after the warm-up.
    let counts: Vec<(usize, u64)> = cluster
        .servers
        .iter()
        .map(|s| (s.block_cache().len(), s.block_cache().evictions()))
        .collect();
    assert_eq!(counts, [(700, 300), (700, 800)]);

    // Per region: whether its first and last loaded row stayed cached.
    let bounds = [(0, 499), (500, 999), (1_000, 1_499), (1_500, 2_499)];
    let resident: Vec<(bool, bool)> = map
        .regions()
        .iter()
        .zip(bounds)
        .map(|(desc, (first, last))| {
            let server = map.server_for(desc.id).expect("assigned");
            let cache = cluster.servers[server.0 as usize].block_cache();
            (
                cache.contains(desc.id, key(first).as_bytes()),
                cache.contains(desc.id, key(last).as_bytes()),
            )
        })
        .collect();
    assert_eq!(
        resident,
        [(false, true), (false, false), (true, true), (false, true)]
    );

    // A fixed read sequence, then each server's hits and misses: a read
    // of an evicted row misses and caches it, so its second read hits.
    for row in [0, 499, 0, 500, 999, 1_000, 1_499, 1_500, 2_499, 1_500] {
        let got = cluster.read_cell(key(row), "f0", SimDuration::from_secs(5));
        assert_eq!(got.as_deref(), Some(&[0x61; 8][..]), "row {row}");
    }
    let reads: Vec<(u64, u64, usize, u64)> = cluster
        .servers
        .iter()
        .map(|s| {
            let cache = s.block_cache();
            (cache.hits(), cache.misses(), cache.len(), cache.evictions())
        })
        .collect();
    assert_eq!(reads, [(4, 1, 700, 301), (2, 3, 700, 803)]);
}

//! End-to-end tests of the bloom-filtered point-get read path: under a
//! write-heavy load with a crash/recovery schedule, gets must return
//! exactly the same results with filters enabled and disabled (toggled
//! at runtime over the identical store-file stack), and the verifying
//! read path must observe zero filter false negatives.

mod common;

use common::{key, write_load};
use cumulo_core::{Cluster, ClusterConfig};
use cumulo_sim::SimDuration;
use std::collections::HashMap;

const ROWS: u64 = 1_500;
/// Padding of each written value, so memstores hit the flush threshold
/// quickly.
const VALUE_PAD: usize = 120;

/// A cluster tuned so flushes pile up store files within seconds, with
/// filter verification on (every filter skip is cross-checked against
/// the exact membership test).
fn filter_cluster(seed: u64, compaction: bool) -> Cluster {
    let mut cfg = ClusterConfig {
        seed,
        clients: 6,
        servers: 2,
        regions: 4,
        key_count: ROWS,
        ..ClusterConfig::default()
    };
    cfg.server_cfg.compaction.enabled = compaction;
    cfg.server_cfg.compaction.min_files = 4;
    cfg.server_cfg.memstore_flush_bytes = 24 << 10; // 24 KiB
    cfg.server_cfg.flush_check_interval = SimDuration::from_millis(500);
    cfg.server_cfg.verify_filters = true;
    Cluster::build(cfg)
}

/// Reads every row once through the probe client.
fn read_all(cluster: &Cluster) -> HashMap<u64, Option<String>> {
    (0..ROWS)
        .map(|r| {
            let got = cluster
                .read_cell(key(r), "f0", SimDuration::from_secs(10))
                .map(|b| String::from_utf8_lossy(&b).into_owned());
            (r, got)
        })
        .collect()
}

/// The headline equivalence check: a crash/recovery schedule runs under
/// filters, then every row is read twice over the identical quiesced
/// file stack — once with bloom probing on, once off. The two result
/// sets must be identical, match the acked writes, and the verifying
/// read path must have seen zero false negatives.
#[test]
fn gets_identical_with_filters_on_and_off_through_failures() {
    let cluster = filter_cluster(913, false);
    cluster.load_rows(ROWS, &["f0"], 64, true);

    // Write load, a server crash in the middle, recovery, more load.
    write_load(&cluster, 40, VALUE_PAD);
    cluster.crash_server(0);
    cluster.run_for(SimDuration::from_secs(8)); // failover + region recovery
    let acked = write_load(&cluster, 40, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(15)); // drain flushes

    assert!(
        cluster.all_regions_online(),
        "regions failed to recover after the crash"
    );

    cluster.set_bloom_filters(true);
    let with_filters = read_all(&cluster);
    let totals_on = cluster.filter_totals();
    cluster.set_bloom_filters(false);
    let without_filters = read_all(&cluster);

    assert_eq!(
        with_filters, without_filters,
        "filters changed read results"
    );
    // `acked` is a `HashMap`: each iteration independently asserts one
    // row's value, so visit order affects nothing but which assertion
    // fires first on failure.
    for (row, (_, val)) in acked.borrow().iter() {
        let got = with_filters[row]
            .as_ref()
            .unwrap_or_else(|| panic!("acked row {row} missing"));
        assert_eq!(got, val, "row {row} lost its newest acked value");
    }
    assert_eq!(
        totals_on.false_negatives, 0,
        "bloom filters produced false negatives"
    );
    assert!(totals_on.probes > 0, "the filtered pass never probed");
    assert!(
        totals_on.filter_skips > 0,
        "filters never pruned a file despite a deep stack"
    );
    assert!(
        totals_on.false_positive_rate() <= 0.05,
        "false positive rate {:.4} far above the design point",
        totals_on.false_positive_rate()
    );
}

/// The same schedule with compaction enabled: filters and compaction
/// compose (merge outputs carry rebuilt filters), and filter metadata
/// churn is visible in the compaction stats.
#[test]
fn filters_compose_with_compaction_and_recovery() {
    let cluster = filter_cluster(914, true);
    cluster.load_rows(ROWS, &["f0"], 64, true);

    write_load(&cluster, 40, VALUE_PAD);
    cluster.crash_server(1);
    cluster.run_for(SimDuration::from_secs(8));
    let acked = write_load(&cluster, 40, VALUE_PAD);
    cluster.run_for(SimDuration::from_secs(15));

    assert!(cluster.all_regions_online());
    assert!(cluster.total_compactions() > 0, "no compactions ran");
    let (dropped, created): (u64, u64) = cluster
        .servers
        .iter()
        .map(|s| {
            let st = s.compaction_stats();
            (st.filter_bytes_dropped.get(), st.filter_bytes_created.get())
        })
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    assert!(
        dropped > 0 && created > 0,
        "compaction reported no filter metadata churn (dropped={dropped}, created={created})"
    );

    let reads = read_all(&cluster);
    // `acked` is a `HashMap`: each iteration independently asserts one
    // row's value, so visit order affects nothing but which assertion
    // fires first on failure.
    for (row, (_, val)) in acked.borrow().iter() {
        let got = reads[row]
            .as_ref()
            .unwrap_or_else(|| panic!("acked row {row} missing"));
        assert_eq!(got, val, "row {row} lost its newest acked value");
    }
    let totals = cluster.filter_totals();
    assert_eq!(totals.false_negatives, 0);
    assert!(totals.probes > 0);
}

//! The YCSB driver against a failing cluster: end-to-end sanity of the
//! measurement pipeline itself (throughput accounting, stall behaviour,
//! rate limiting) and the no-loss guarantee under load. The driver's
//! transactions go through the same `Transaction` door as every other
//! client's, so each run ends with the history audit (`common::audit`).

mod common;

use common::plan::{Action, Drive, FaultPlan, Victim};
use common::{audit, fingerprint};
use cumulo_core::{Cluster, ClusterConfig, History, PersistenceMode};
use cumulo_sim::SimDuration;
use cumulo_ycsb::{Driver, KeyDistribution, Workload};

/// A loaded two-server cluster, and the history it records from the end
/// of the load on.
fn cluster(seed: u64) -> (Cluster, History) {
    let c = Cluster::build(ClusterConfig {
        seed,
        servers: 2,
        clients: 10,
        regions: 4,
        key_count: 20_000,
        persistence: PersistenceMode::Asynchronous,
        ..ClusterConfig::default()
    });
    c.load_rows(20_000, &["f0"], 100, true);
    let history = c.attach_history();
    (c, history)
}

#[test]
fn rate_limited_driver_hits_its_target() {
    let (c, history) = cluster(51);
    let workload = Workload {
        record_count: 20_000,
        threads: 10,
        target_tps: Some(60.0),
        window: SimDuration::from_secs(2),
        ..Workload::default()
    };
    let driver = Driver::new(&c, workload);
    let report = driver.run(&c, SimDuration::from_secs(2), SimDuration::from_secs(20));
    assert!(
        (report.throughput_tps - 60.0).abs() < 6.0,
        "offered 60 tps, measured {:.1}",
        report.throughput_tps
    );
    assert!(
        report.mean_ms > 1.0 && report.mean_ms < 100.0,
        "mean {} ms",
        report.mean_ms
    );
    assert!(report.p99_ms >= report.p95_ms && report.p95_ms >= report.mean_ms / 2.0);
    audit(&c, &history);
}

#[test]
fn unlimited_driver_saturates_servers() {
    let (c, history) = cluster(52);
    let workload = Workload {
        record_count: 20_000,
        threads: 30,
        target_tps: None,
        ..Workload::default()
    };
    let driver = Driver::new(&c, workload);
    let report = driver.run(&c, SimDuration::from_secs(2), SimDuration::from_secs(10));
    // Two servers, calibrated to ~300 tps each: expect roughly 450–700.
    assert!(
        report.throughput_tps > 400.0 && report.throughput_tps < 800.0,
        "saturation at {:.1} tps",
        report.throughput_tps
    );
    audit(&c, &history);
}

#[test]
fn zipfian_workload_runs_and_aborts_more_than_uniform() {
    let run = |dist: KeyDistribution, seed: u64| {
        let (c, history) = cluster(seed);
        let workload = Workload {
            record_count: 20_000,
            threads: 20,
            distribution: dist,
            ..Workload::default()
        };
        let driver = Driver::new(&c, workload);
        let report = driver.run(&c, SimDuration::from_secs(1), SimDuration::from_secs(8));
        audit(&c, &history);
        report
    };
    let uniform = run(KeyDistribution::Uniform, 53);
    let zipf = run(KeyDistribution::Zipfian, 53);
    assert!(zipf.committed > 0 && uniform.committed > 0);
    // Hot keys conflict more under first-committer-wins.
    assert!(
        zipf.aborted > uniform.aborted,
        "zipfian aborts {} should exceed uniform aborts {}",
        zipf.aborted,
        uniform.aborted
    );
}

#[test]
fn throughput_dips_and_recovers_around_a_server_crash() {
    let (c, history) = cluster(54);
    let workload = Workload {
        record_count: 20_000,
        threads: 20,
        target_tps: Some(150.0),
        window: SimDuration::from_secs(2),
        ..Workload::default()
    };
    let driver = Driver::new(&c, workload);
    driver.start(SimDuration::ZERO, SimDuration::from_secs(60));
    FaultPlan::new()
        .at(
            SimDuration::from_secs(30),
            Action::CrashServer(Victim::Index(0)),
        )
        .run(&c, Drive::time(SimDuration::from_secs(62)));

    let windows = driver.windows();
    let rate = |i: usize| windows[i].rate(SimDuration::from_secs(2));
    // Steady before the crash (windows 5..14 ≈ t=10..28).
    for i in 5..14 {
        assert!(
            rate(i) > 120.0,
            "window {i} should be steady, got {:.1}",
            rate(i)
        );
    }
    // A clear dip around the crash (t=30..36 → windows 15..18).
    let dip = (15..19).map(rate).fold(f64::MAX, f64::min);
    assert!(dip < 110.0, "expected a throughput dip, got min {:.1}", dip);
    // Recovered by t>=46 (window 23+).
    for i in 23..28 {
        assert!(
            rate(i) > 120.0,
            "window {i} should have recovered, got {:.1}",
            rate(i)
        );
    }
    // Nothing stuck: all regions online at the end.
    assert!(c.all_regions_online());
    audit(&c, &history);
    assert_eq!(
        fingerprint(&c),
        [664_673, 402_027, 401_877, 150],
        "run fingerprint"
    );
}

#[test]
fn hotspot_rmw_workload_commits_under_contention() {
    // YCSB-F-style read-modify-write on a hotspot distribution: heavy
    // write-write contention, many first-committer-wins aborts — but the
    // system keeps committing and stays consistent.
    let (c, history) = cluster(55);
    let workload = Workload {
        record_count: 20_000,
        threads: 20,
        distribution: KeyDistribution::HotSpot,
        rmw_ratio: 1.0,
        ..Workload::default()
    };
    let driver = Driver::new(&c, workload);
    let report = driver.run(&c, SimDuration::from_secs(1), SimDuration::from_secs(8));
    assert!(report.committed > 200, "committed {}", report.committed);
    assert!(report.aborted > 0, "hotspot RMW must produce conflicts");
    // Consistency spot-check: the hottest rows hold committed values.
    let v = c.read_cell("user000000000000", "f0", SimDuration::from_secs(10));
    assert!(v.is_some(), "hottest row must have data");
    audit(&c, &history);
}

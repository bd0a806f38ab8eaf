//! Figure 3: failure detection and recovery — throughput (a) and
//! response time (b) over wall-clock time with a region-server crash.
//!
//! 50 client threads against two region servers at an offered load of
//! 250 tps ("near the peak capacity for a single region server"),
//! heartbeats of one second. A server is killed mid-run. The paper's
//! shape: a sharp throughput drop and response-time spike at the crash;
//! the actual recovery takes a few seconds; the return to pre-failure
//! levels takes ~30 s while the surviving server's block cache warms up
//! to the recovered regions' data; no transactions are lost.
//!
//! Run: `cargo run --release -p cumulo-bench --bin fig3`

use cumulo_bench::report::{
    kv, print_timeline, report_fields, timeline_json, BenchArgs, BenchReport,
};
use cumulo_bench::{paper_workload, standard_cluster, Scale};
use cumulo_core::PersistenceMode;
use cumulo_sim::SimDuration;
use cumulo_ycsb::Driver;

fn main() {
    let args = BenchArgs::parse();
    let scale = Scale::from_env();
    let total = SimDuration::from_secs(300);
    let crash_at = SimDuration::from_secs(120);
    let window = SimDuration::from_secs(5);
    let offered = 250.0;
    let mut rep = BenchReport::new("fig3");
    rep.config("rows", scale.rows);
    rep.config("total_s", total.as_secs_f64());
    rep.config("crash_at_s", crash_at.as_secs_f64());
    rep.config("offered_tps", offered);

    let cluster = standard_cluster(
        3003,
        50,
        PersistenceMode::Asynchronous,
        SimDuration::from_secs(1),
        scale.rows,
    );
    let mut workload = paper_workload(scale.rows, 50, Some(offered));
    workload.window = window;
    let driver = Driver::new(&cluster, workload);

    // No warm-up exclusion: the whole timeline is the figure.
    driver.start(SimDuration::ZERO, total);
    cluster.run_for(crash_at);
    let committed_before = driver.stats().committed.get();
    eprintln!(
        "[fig3] crashing rs0 at t={}s ({} committed so far)",
        cluster.now().as_secs_f64(),
        committed_before
    );
    let crashed_at = cluster.now();
    cluster.crash_server(0);
    cluster.run_for(total.saturating_sub(crash_at) + SimDuration::from_secs(5));

    let r = driver.report();
    eprintln!(
        "[fig3] done: {} committed, {} aborted",
        r.committed, r.aborted
    );
    eprintln!(
        "[fig3] region recoveries: {}, recovery replays: {} portions",
        cluster.rm.region_recovery_count(),
        cluster.rm.recovery_client().region_txns_replayed()
    );
    eprintln!(
        "[fig3] survivor cache hit rate: {:.3}",
        cluster.servers[1].cache_hit_rate()
    );

    println!("time_s,throughput_tps,mean_ms,max_ms");
    for w in driver.windows() {
        println!(
            "{:.0},{:.1},{:.2},{:.2}",
            w.start.as_secs_f64(),
            w.rate(window),
            w.mean() as f64 / 1e6,
            w.max as f64 / 1e6,
        );
    }

    if args.timeline {
        print_timeline("fig3", &driver.windows(), window);
    }
    let mut fields = report_fields(&r);
    fields.extend([
        kv("committed_before_crash", committed_before),
        kv("region_recoveries", cluster.rm.region_recovery_count()),
        kv(
            "replayed_portions",
            cluster.rm.recovery_client().region_txns_replayed(),
        ),
        kv(
            "survivor_cache_hit_rate",
            cluster.servers[1].cache_hit_rate(),
        ),
        (
            "timeline".to_owned(),
            timeline_json(&driver.windows(), window),
        ),
    ]);
    rep.phase(fields);
    rep.cluster("fig3", &cluster);
    rep.write(&args);

    // The figure's claims, read off the windows printed above. A sharp
    // drop and a response-time spike: of the window the crash fell in and
    // the one after it (which of the two takes the stall depends on how
    // far into its window the crash lands), one commits under 60 % of the
    // offered load and one holds a response of over a second.
    let windows = driver.windows();
    let hit = (crashed_at.nanos() / window.nanos()) as usize;
    let dip = &windows[hit..=hit + 1];
    let low = dip.iter().map(|w| w.rate(window)).fold(f64::MAX, f64::min);
    let spike_ms = dip.iter().map(|w| w.max).max().unwrap_or(0) as f64 / 1e6;
    assert!(
        low < 0.6 * offered && spike_ms > 1_000.0,
        "no failure dip: lowest window {low:.1} tps of {offered} offered, longest response {spike_ms:.0} ms"
    );
    // The return to the pre-failure level (the paper: ~30 s, the
    // survivor's cache warming to the recovered regions): every full
    // window from 30 s after the crash is within 5 % of the offered load.
    // The last window is cut short by the end of the run.
    let back_by = crashed_at + SimDuration::from_secs(30);
    for w in &windows[..windows.len() - 1] {
        assert!(
            w.start < back_by || (w.rate(window) - offered).abs() <= 0.05 * offered,
            "window at {:.0} s: {:.1} tps is not within 5 % of {offered} offered",
            w.start.as_secs_f64(),
            w.rate(window)
        );
    }
    // rs0 hosted two of the four regions; each is recovered once.
    assert_eq!(cluster.rm.region_recovery_count(), 2, "region recoveries");
}

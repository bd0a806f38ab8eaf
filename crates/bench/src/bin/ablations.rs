//! Ablations of the design choices ARCHITECTURE.md calls out:
//!
//! (a) tracking on/off — runtime overhead of the checkpointing
//!     thresholds, and the recovery-replay volume each implies;
//! (b) filesystem replication factor 1/2/3 — the durability substrate's
//!     cost during normal processing;
//! (c) heartbeat interval vs recovery replay volume — the conservative
//!     threshold means up to one heartbeat interval of transactions is
//!     replayed unnecessarily (§3.1);
//! (d) client-failure recovery timeline (complement of Fig. 3).
//!
//! Run: `cargo run --release -p cumulo-bench --bin ablations`

use cumulo_bench::{paper_workload, run_measurement, Scale};
use cumulo_core::{Cluster, ClusterConfig, PersistenceMode};
use cumulo_sim::SimDuration;
use cumulo_ycsb::Driver;

fn build(seed: u64, rows: u64, tracking: bool, replication: usize, hb_ms: u64) -> Cluster {
    let cluster = Cluster::build(ClusterConfig {
        seed,
        servers: 2,
        clients: 50,
        regions: 4,
        key_count: rows,
        replication,
        persistence: PersistenceMode::Asynchronous,
        heartbeat_interval: SimDuration::from_millis(hb_ms),
        tracking,
        ..ClusterConfig::default()
    });
    cluster.load_rows(rows, &["f0"], 100, true);
    cluster
}

fn main() {
    let scale = Scale::from_env();

    // (a) Tracking on/off: normal-processing overhead + replay volume.
    println!("# ablation_a: tracking overhead and replay volume");
    println!("tracking,throughput_tps,mean_ms,log_len_after,replayed_portions");
    let mut kept_and_replayed = Vec::new();
    for tracking in [true, false] {
        let cluster = build(4001 + tracking as u64, scale.rows, tracking, 2, 1_000);
        let workload = paper_workload(scale.rows, 50, None);
        let r = run_measurement(&cluster, workload, scale.warmup, scale.measure);
        // Now crash a server and measure how much had to be replayed.
        cluster.crash_server(0);
        cluster.run_for(SimDuration::from_secs(30));
        let replayed = cluster.rm.recovery_client().region_txns_replayed();
        println!(
            "{tracking},{:.1},{:.2},{},{replayed}",
            r.throughput_tps,
            r.mean_ms,
            cluster.tm.log().len()
        );
        eprintln!(
            "[ablation a] tracking={tracking}: {:.1} tps, log kept {} records, replayed {} portions",
            r.throughput_tps,
            cluster.tm.log().len(),
            replayed
        );
        kept_and_replayed.push((cluster.tm.log().len(), replayed));
    }
    // What the thresholds are for: with tracking the log is truncated and
    // a failure replays its tail; without, the log keeps everything and a
    // failure replays all of it.
    let ((kept_on, replayed_on), (kept_off, replayed_off)) =
        (kept_and_replayed[0], kept_and_replayed[1]);
    assert!(
        kept_on < kept_off && replayed_on < replayed_off,
        "tracking bought nothing: log kept {kept_on} vs {kept_off} records, \
         replayed {replayed_on} vs {replayed_off} portions"
    );

    // (b) Replication factor.
    println!("# ablation_b: filesystem replication factor");
    println!("replication,throughput_tps,mean_ms,p95_ms");
    for repl in [1usize, 2, 3] {
        let cluster = build(4100 + repl as u64, scale.rows, true, repl, 1_000);
        let workload = paper_workload(scale.rows, 50, None);
        let r = run_measurement(&cluster, workload, scale.warmup, scale.measure);
        println!(
            "{repl},{:.1},{:.2},{:.2}",
            r.throughput_tps, r.mean_ms, r.p95_ms
        );
        eprintln!(
            "[ablation b] repl={repl}: {:.1} tps, mean {:.2} ms",
            r.throughput_tps, r.mean_ms
        );
    }

    // (c) Heartbeat interval vs recovery replay volume.
    println!("# ablation_c: heartbeat interval vs replay volume on failure");
    println!("heartbeat_ms,replayed_portions,recovery_complete");
    let mut replayed_by_interval = Vec::new();
    for hb in [250u64, 1_000, 5_000] {
        let cluster = build(4200 + hb, scale.rows, true, 2, hb);
        let workload = paper_workload(scale.rows, 50, Some(250.0));
        let driver = Driver::new(&cluster, workload);
        driver.start(SimDuration::ZERO, SimDuration::from_secs(60));
        cluster.run_for(SimDuration::from_secs(30));
        cluster.crash_server(0);
        cluster.run_for(SimDuration::from_secs(35));
        let replayed = cluster.rm.recovery_client().region_txns_replayed();
        let ok = cluster.all_regions_online();
        println!("{hb},{replayed},{ok}");
        eprintln!("[ablation c] hb={hb} ms: replayed {replayed} portions, recovered={ok}");
        replayed_by_interval.push(replayed);
    }
    // §3.1's conservative threshold: up to one heartbeat interval of
    // transactions is replayed needlessly, so replay grows with it.
    assert!(
        replayed_by_interval.windows(2).all(|w| w[0] < w[1]),
        "replay volume does not grow with the heartbeat interval: {replayed_by_interval:?}"
    );

    // (d) Client-failure recovery timeline.
    println!("# ablation_d: client failure timeline");
    println!("time_s,throughput_tps,mean_ms");
    {
        let cluster = build(4300, scale.rows, true, 2, 1_000);
        let mut workload = paper_workload(scale.rows, 50, Some(250.0));
        workload.window = SimDuration::from_secs(5);
        let driver = Driver::new(&cluster, workload);
        driver.start(SimDuration::ZERO, SimDuration::from_secs(120));
        cluster.run_for(SimDuration::from_secs(60));
        // Kill a fifth of the client processes (their threads die too).
        for i in 0..10 {
            cluster.crash_client(i);
        }
        eprintln!("[ablation d] crashed 10/50 clients at t=60s");
        cluster.run_for(SimDuration::from_secs(65));
        eprintln!(
            "[ablation d] client recoveries: {}, replayed {} transactions",
            cluster.rm.client_recovery_count(),
            cluster.rm.recovery_client().client_txns_replayed()
        );
        for w in driver.windows() {
            println!(
                "{:.0},{:.1},{:.2}",
                w.start.as_secs_f64(),
                w.rate(SimDuration::from_secs(5)),
                w.mean() as f64 / 1e6
            );
        }
    }
}

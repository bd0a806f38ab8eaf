//! Figure 2(b): overhead of the reliability tracking as a function of the
//! heartbeat interval.
//!
//! 50 client threads, two region servers, asynchronous persistence; the
//! heartbeat interval sweeps 50 ms → 10 s (the paper's range). Short
//! intervals pay the fixed synchronized-structure cost too often
//! (contention on the request handlers); long intervals drain large
//! tracking queues in bursts and sync the WAL rarely, causing latency
//! spikes. The paper's observation: "both throughput and response time
//! vary as a function of the heartbeat interval, and we are able to find
//! a good interval value for our setup."
//!
//! Run: `cargo run --release -p cumulo-bench --bin fig2b`

use cumulo_bench::report::{kv, print_timeline, report_fields, BenchArgs, BenchReport};
use cumulo_bench::{paper_workload, run_measurement, standard_cluster, Scale};
use cumulo_core::PersistenceMode;
use cumulo_sim::SimDuration;

fn main() {
    let args = BenchArgs::parse();
    let scale = Scale::from_env();
    let intervals_ms = [50u64, 100, 250, 500, 1_000, 2_000, 5_000, 10_000];
    let mut rep = BenchReport::new("fig2b");
    rep.config("rows", scale.rows);
    println!("heartbeat_ms,throughput_tps,mean_ms,p95_ms,p99_ms,committed");
    let mut committed = Vec::new();
    for &hb in &intervals_ms {
        let cluster = standard_cluster(
            2000 + hb,
            50,
            PersistenceMode::Asynchronous,
            SimDuration::from_millis(hb),
            scale.rows,
        );
        let workload = paper_workload(scale.rows, 50, None);
        let (driver, r) = run_measurement(&cluster, workload, scale.warmup, scale.measure);
        println!(
            "{hb},{:.1},{:.2},{:.2},{:.2},{}",
            r.throughput_tps, r.mean_ms, r.p95_ms, r.p99_ms, r.committed
        );
        eprintln!(
            "[fig2b] hb={hb:6} ms -> {:7.1} tps, mean {:6.2} ms, p95 {:6.2} ms, p99 {:6.2} ms",
            r.throughput_tps, r.mean_ms, r.p95_ms, r.p99_ms
        );
        if args.timeline {
            print_timeline(&format!("hb{hb}"), &driver.windows(), driver.window());
        }
        let mut fields = vec![kv("heartbeat_ms", hb)];
        fields.extend(report_fields(&r));
        rep.phase(fields);
        committed.push((hb, r.committed));
    }
    rep.write(&args);

    // The paper's §4.3 contention claim: heartbeating every 50 ms pays
    // the tracking structures' fixed cost twenty times as often as the
    // 1 s interval and commits fewer transactions for it.
    let at = |ms| committed.iter().find(|(hb, _)| *hb == ms).expect("swept").1;
    assert!(
        at(50) < at(1_000),
        "the 50 ms heartbeat committed {} transactions, the 1 s one {}: no contention cost",
        at(50),
        at(1_000)
    );
}

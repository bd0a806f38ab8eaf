//! Figure 2(a): benefits of asynchronous persistence.
//!
//! Response time (ms) versus throughput (tps) for synchronous and
//! asynchronous persistence, traced by sweeping the closed-loop client
//! thread count on the paper's 2-server setup. The paper's claim: the
//! asynchronous curve sits strictly below the synchronous one, because
//! commit acknowledgements do not wait for the store flush + HDFS sync.
//!
//! Run: `cargo run --release -p cumulo-bench --bin fig2a`

use cumulo_bench::{paper_workload, run_measurement, standard_cluster, Scale};
use cumulo_core::PersistenceMode;
use cumulo_sim::SimDuration;
use cumulo_ycsb::DriverReport;

fn main() {
    let scale = Scale::from_env();
    let threads = [4usize, 8, 16, 24, 32, 48, 64, 96];
    println!("mode,threads,throughput_tps,mean_ms,p95_ms,p99_ms,committed,aborted");
    let mut curves = Vec::new();
    for (mode, name) in [
        (PersistenceMode::Synchronous, "sync"),
        (PersistenceMode::Asynchronous, "async"),
    ] {
        for &t in &threads {
            let cluster = standard_cluster(
                1000 + t as u64,
                t.min(50),
                mode,
                SimDuration::from_secs(1),
                scale.rows,
            );
            let workload = paper_workload(scale.rows, t, None);
            let r = run_measurement(&cluster, workload, scale.warmup, scale.measure);
            println!(
                "{name},{t},{:.1},{:.2},{:.2},{:.2},{},{}",
                r.throughput_tps, r.mean_ms, r.p95_ms, r.p99_ms, r.committed, r.aborted
            );
            eprintln!(
                "[fig2a] {name:5} threads={t:3} -> {:7.1} tps, mean {:6.2} ms, p95 {:6.2} ms",
                r.throughput_tps, r.mean_ms, r.p95_ms
            );
            curves.push(r);
        }
    }

    // The figure's claim: the asynchronous curve lies below the
    // synchronous one at every thread count, and reaches further right.
    let (sync, asynchronous) = curves.split_at(threads.len());
    for ((s, a), t) in sync.iter().zip(asynchronous).zip(threads) {
        assert!(
            a.mean_ms < s.mean_ms,
            "threads={t}: async mean {:.2} ms is not below sync {:.2} ms",
            a.mean_ms,
            s.mean_ms
        );
    }
    let peak = |curve: &[DriverReport]| curve.iter().map(|r| r.throughput_tps).fold(0.0, f64::max);
    assert!(
        peak(asynchronous) > peak(sync),
        "async peak {:.1} tps is not above sync peak {:.1} tps",
        peak(asynchronous),
        peak(sync)
    );
}

//! The end-to-end metrics of one repetition, computed from nothing but
//! the driver's own timing and accessor reads.

use crate::driver::{Outcome, Phase, Rep};
use crate::json::Value;
use crate::stats::quantile;
use crate::workload::{Mix, Spec};

/// Simulated-time results: exact for a `(workload, seed)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SimE2e {
    pub txn_p50_ms: f64,
    pub txn_p99_ms: f64,
    pub txn_samples: u64,
    pub peak_tps: Option<f64>,
    pub visible_p99_ms: Option<f64>,
    pub visible_samples: u64,
    pub outage_ms: Option<f64>,
    pub stall_max_ms: Option<f64>,
    pub degraded_s: Option<f64>,
    pub client_recovery_ms: Option<f64>,
}

/// Counts and host-time results of one repetition.
#[derive(Clone, Debug)]
pub struct RepSummary {
    pub seed: u64,
    pub sim: SimE2e,
    /// Host-time metrics, scaled to reference host speed.
    pub setup_s: f64,
    pub wall_us_per_txn: f64,
    /// Host speed over the measured phases (reference = 1.0).
    pub host_speed: f64,
    /// Transactions issued in the measured phases, and those of them
    /// that did not commit.
    pub attempted: u64,
    pub failed: u64,
    /// Transactions committed inside the measured phases.
    pub committed: u64,
    pub events: u64,
}

const MS: f64 = 1e6;

pub fn summarize(spec: &Spec, rep: &Rep) -> RepSummary {
    let measured = || rep.recs.iter().filter(|r| r.phase != Phase::Warmup);
    let attempted = measured().count() as u64;
    let failed = measured()
        .filter(|r| !matches!(r.outcome, Outcome::Committed(_)))
        .count() as u64;
    let committed = measured()
        .filter(|r| matches!(r.outcome, Outcome::Committed(_)) && r.end_ns <= rep.closed_end_ns)
        .count() as u64;

    // Open phase, due instant → commit outcome. A transaction that did not
    // commit exceeds any limit: it sorts last and reads as the phase length.
    let open_len_ns = rep.open_end_ns - rep.open_start_ns;
    let mut latency: Vec<u64> = rep
        .recs
        .iter()
        .filter(|r| r.phase == Phase::Open)
        .map(|r| r.latency_ns().unwrap_or(u64::MAX))
        .collect();
    latency.sort_unstable();
    let at = |q| quantile(&latency, q).map_or(0.0, |ns| ns.min(open_len_ns) as f64 / MS);

    let peak_tps = (spec.closed_secs > 0).then(|| {
        let done = rep
            .recs
            .iter()
            .filter(|r| r.phase == Phase::Closed && r.latency_ns().is_some())
            .filter(|r| r.end_ns <= rep.closed_end_ns)
            .count();
        done as f64 / spec.closed_secs as f64
    });

    let mut visible = rep.visible_ns.clone();
    visible.sort_unstable();
    let visible_p99_ms = (spec.mix != Mix::ReadZipf)
        .then(|| quantile(&visible, 0.99).map(|ns| ns as f64 / MS))
        .flatten();

    let crash = &rep.crash;
    let span_ms = |from: Option<u64>, to: Option<u64>| Some((to? - from?) as f64 / MS);
    let (stall_max_ms, degraded_s) = match crash.server_crash_ns {
        Some(crashed) => (stall_max_ms(rep, crashed), degraded_s(rep, crashed)),
        None => (None, None),
    };

    RepSummary {
        seed: rep.seed,
        sim: SimE2e {
            txn_p50_ms: at(0.50),
            txn_p99_ms: at(0.99),
            txn_samples: latency.len() as u64,
            peak_tps,
            visible_p99_ms,
            visible_samples: visible.len() as u64,
            outage_ms: span_ms(crash.server_crash_ns, crash.regions_online_ns),
            stall_max_ms,
            degraded_s,
            client_recovery_ms: span_ms(crash.client_crash_ns, crash.client_recovered_ns),
        },
        setup_s: rep.setup_wall_s * rep.setup_host_speed,
        wall_us_per_txn: rep.measured_wall_s * rep.measured_host_speed * 1e6
            / committed.max(1) as f64,
        host_speed: rep.measured_host_speed,
        attempted,
        failed,
        committed,
        events: rep.deltas.events,
    }
}

fn open_latencies(rep: &Rep, from_ns: u64, to_ns: u64) -> impl Iterator<Item = u64> + '_ {
    let open_len_ns = rep.open_end_ns - rep.open_start_ns;
    rep.recs
        .iter()
        .filter(move |r| r.phase == Phase::Open && r.due_ns >= from_ns && r.due_ns < to_ns)
        .map(move |r| r.latency_ns().unwrap_or(open_len_ns))
}

/// Worst latency of any transaction due in the 60 s after the crash.
fn stall_max_ms(rep: &Rep, crashed_ns: u64) -> Option<f64> {
    open_latencies(rep, crashed_ns, crashed_ns + 60_000_000_000)
        .max()
        .map(|ns| ns as f64 / MS)
}

/// Server crash → start of the first 5-s window (stepped by 1 s) whose
/// mean latency is at most twice the mean before the first crash.
fn degraded_s(rep: &Rep, crashed_ns: u64) -> Option<f64> {
    let mean = |from: u64, to: u64| {
        let (sum, n) = open_latencies(rep, from, to)
            .fold((0u128, 0u64), |(s, n), l| (s + u128::from(l), n + 1));
        (n > 0).then(|| sum as f64 / n as f64)
    };
    let first_crash = rep.crash.client_crash_ns.unwrap_or(crashed_ns);
    let healthy = mean(rep.open_start_ns, first_crash)?;
    (0u64..)
        .map(|k| crashed_ns + k * 1_000_000_000)
        .take_while(|start| start + 5_000_000_000 <= rep.open_end_ns)
        .find(|start| mean(*start, start + 5_000_000_000).is_some_and(|m| m <= 2.0 * healthy))
        .map(|start| (start - crashed_ns) as f64 / 1e9)
}

// A repetition runs in a child process; its summary crosses the pipe as
// one JSON object.

const SIM_FIELDS: [&str; 8] = [
    "txn_p50_ms",
    "txn_p99_ms",
    "peak_tps",
    "visible_p99_ms",
    "outage_ms",
    "stall_max_ms",
    "degraded_s",
    "client_recovery_ms",
];

impl SimE2e {
    /// The metric called `name` (`None` where this workload has none).
    pub fn get(&self, name: &str) -> Option<f64> {
        match name {
            "txn_p50_ms" => Some(self.txn_p50_ms),
            "txn_p99_ms" => Some(self.txn_p99_ms),
            "peak_tps" => self.peak_tps,
            "visible_p99_ms" => self.visible_p99_ms,
            "outage_ms" => self.outage_ms,
            "stall_max_ms" => self.stall_max_ms,
            "degraded_s" => self.degraded_s,
            "client_recovery_ms" => self.client_recovery_ms,
            _ => None,
        }
    }
}

impl RepSummary {
    pub fn to_json(&self) -> Value {
        let sim = SIM_FIELDS
            .iter()
            .map(|name| (*name, Value::num(self.sim.get(name))))
            .chain([
                ("txn_samples", Value::Num(self.sim.txn_samples as f64)),
                (
                    "visible_samples",
                    Value::Num(self.sim.visible_samples as f64),
                ),
            ]);
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("sim", Value::obj(sim)),
            ("setup_s", Value::Num(self.setup_s)),
            ("wall_us_per_txn", Value::Num(self.wall_us_per_txn)),
            ("host_speed", Value::Num(self.host_speed)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("committed", Value::Num(self.committed as f64)),
            ("events", Value::Num(self.events as f64)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<RepSummary> {
        let num = |v: &Value, key: &str| v.get(key)?.as_f64();
        let sim = v.get("sim")?;
        Some(RepSummary {
            seed: num(v, "seed")? as u64,
            sim: SimE2e {
                txn_p50_ms: num(sim, "txn_p50_ms")?,
                txn_p99_ms: num(sim, "txn_p99_ms")?,
                txn_samples: num(sim, "txn_samples")? as u64,
                peak_tps: num(sim, "peak_tps"),
                visible_p99_ms: num(sim, "visible_p99_ms"),
                visible_samples: num(sim, "visible_samples")? as u64,
                outage_ms: num(sim, "outage_ms"),
                stall_max_ms: num(sim, "stall_max_ms"),
                degraded_s: num(sim, "degraded_s"),
                client_recovery_ms: num(sim, "client_recovery_ms"),
            },
            setup_s: num(v, "setup_s")?,
            wall_us_per_txn: num(v, "wall_us_per_txn")?,
            host_speed: num(v, "host_speed")?,
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            committed: num(v, "committed")? as u64,
            events: num(v, "events")? as u64,
        })
    }
}

//! Runs workloads: untraced repetitions for the end-to-end metrics, then
//! (optionally) one traced repetition each for the per-layer ledger.
//!
//! Every repetition runs in a child process of its own (this executable,
//! re-invoked as `rep …`), one at a time. The system's components hold
//! each other through the event queue, so a dropped `Cluster` is never
//! freed (~150 MB for 200 k rows); a process per repetition keeps memory
//! flat and starts every set-up measurement from the same allocator state.

use crate::catalog::{self, Clock, E2eDef};
use crate::driver;
use crate::e2e::{summarize, RepSummary};
use crate::json::{self, Value};
use crate::ledger::{self, HostContext, Ledger};
use crate::micro;
use crate::report;
use crate::stats::median;
use crate::workload::{Spec, REGIONS, SERVERS};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seeds per workload: `seed`, `seed + 1`, `seed + 2`.
pub const SEEDS: u64 = 3;

pub struct Options {
    pub workloads: Vec<Spec>,
    pub seed: u64,
    /// Host seconds of untraced repetitions to spend per workload; one
    /// repetition per seed is run however long that takes.
    pub seconds: f64,
    pub traced: bool,
}

/// What one child process reports.
pub struct ChildRep {
    pub summary: RepSummary,
    pub cells_checked: u64,
    pub lost_commits: u64,
    pub violations: Vec<String>,
    pub peak_rss_mb: Option<f64>,
    /// Traced only.
    pub ledger: Option<Ledger>,
}

pub struct WorkloadResult {
    pub spec: Spec,
    pub seed: u64,
    /// Untraced repetitions in run order; repetition `k` used seed
    /// `seed + k % SEEDS`.
    pub reps: Vec<RepSummary>,
    pub cells_checked: u64,
    pub lost_commits: u64,
    pub violations: Vec<String>,
    pub ledger: Option<Ledger>,
    peak_rss_mb: Option<f64>,
    spent_s: f64,
}

impl WorkloadResult {
    fn done(&self, opts: &Options) -> bool {
        self.reps.len() as u64 >= SEEDS && self.spent_s >= opts.seconds
    }

    fn absorb(&mut self, child: &ChildRep) {
        self.cells_checked += child.cells_checked;
        self.lost_commits += child.lost_commits;
        self.violations.extend(child.violations.iter().cloned());
        self.peak_rss_mb = [self.peak_rss_mb, child.peak_rss_mb]
            .into_iter()
            .flatten()
            .reduce(f64::max);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Transactions issued and not committed over one repetition per seed.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let first = &self.reps[..(SEEDS as usize).min(self.reps.len())];
        (
            first.iter().map(|r| r.attempted).sum(),
            first.iter().map(|r| r.failed).sum(),
        )
    }

    /// The samples behind an end-to-end metric: one per seed for a
    /// simulated-time metric, one per repetition for a host-time one.
    /// `None` where the metric is not defined on this workload.
    pub fn samples(&self, def: &E2eDef) -> Option<Vec<f64>> {
        if !def.applies_to(self.spec.name) {
            return None;
        }
        match def.clock {
            Clock::Wall => Some(self.reps.iter().map(|r| wall_value(r, def.name)).collect()),
            Clock::Sim => self
                .reps
                .iter()
                .take(SEEDS as usize)
                .map(|r| r.sim.get(def.name))
                .collect(),
        }
    }

    /// The reported value: the median over the seeds (simulated time) or
    /// over the repetitions (host time).
    pub fn value(&self, def: &E2eDef) -> Option<f64> {
        median(&self.samples(def)?)
    }
}

fn wall_value(rep: &RepSummary, name: &str) -> f64 {
    match name {
        "setup_s" => rep.setup_s,
        "wall_us_per_txn" => rep.wall_us_per_txn,
        other => unreachable!("{other} is not a host-time metric"),
    }
}

/// `write_heavy` only measures background work if background work ran.
fn check_background_work(spec: &Spec, rep: &driver::Rep, violations: &mut Vec<String>) {
    if spec.memstore_flush_bytes.is_none() {
        return;
    }
    let flushes = &rep.gauges.memstore_flushes;
    if flushes.len() < REGIONS || flushes.values().any(|n| *n < 3) {
        violations.push(format!(
            "fewer than 3 memstore flushes in a region: {flushes:?}"
        ));
    }
    let compactions: Vec<_> =
        ledger::registry_entries(&rep.registry, "store.compaction.completed").collect();
    if compactions.len() < SERVERS || compactions.iter().any(|(_, n)| *n < 1) {
        violations.push(format!("a server completed no compaction: {compactions:?}"));
    }
}

/// What the ledger must show for a workload to measure what it claims to.
fn check_ledger(spec: &Spec, ledger: &Ledger, violations: &mut Vec<String>) {
    let get = |name: &str| ledger.get(name).copied().flatten();
    if get("core.gen_late_max_ms").is_some_and(|ms| ms != 0.0) {
        violations.push("the generator issued a transaction after its due instant".to_owned());
    }
    if let ("read_zipf", Some(rate)) = (spec.name, get("store.cache_hit_rate")) {
        if !(rate > 0.2 && rate < 0.95) {
            violations.push(format!("cache hit rate {rate} does not exercise the cache"));
        }
    }
    if let ("oltp_rw", Some(share)) = (spec.name, get("core.abort_share")) {
        if share >= 0.02 {
            violations.push(format!("abort share {share} is not a healthy run"));
        }
    }
}

/// The child side, given what [`spawn_rep`] passes: one repetition,
/// reported as one JSON line on stdout. A traced repetition also writes
/// its span file into the output directory.
pub fn rep_main(args: &[String]) -> Result<(), String> {
    let parsed = match args {
        [workload, seed, traced, out] => crate::workload::by_name(workload)
            .zip(seed.parse::<u64>().ok())
            .map(|(spec, seed)| (spec, seed, traced == "1", Path::new(out))),
        _ => None,
    };
    let (spec, seed, traced, out) = parsed.ok_or("rep: bad arguments")?;
    let spec = &spec;
    let mut rep = driver::run(spec, seed, traced);
    let summary = summarize(spec, &rep);
    let mut violations = rep.audit.violations.clone();
    check_background_work(spec, &rep, &mut violations);
    let ledger = traced.then(|| ledger::build(&rep, &summary));
    if let Some(ledger) = &ledger {
        check_ledger(spec, ledger, &mut violations);
    }
    if let Some(trace) = rep.trace.take() {
        if trace.trace_dropped > 0 {
            violations.push(format!(
                "the trace journal evicted {} records between two drains",
                trace.trace_dropped
            ));
        }
        report::write_trace(out, spec.name, seed, &trace.spans)
            .map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let mut fields = vec![
        ("summary", summary.to_json()),
        ("cells_checked", Value::Num(rep.audit.cells_checked as f64)),
        ("lost_commits", Value::Num(rep.audit.lost_commits as f64)),
        (
            "violations",
            Value::Arr(violations.into_iter().map(Value::Str).collect()),
        ),
        ("peak_rss_mb", Value::num(ledger::peak_rss_mb())),
    ];
    if let Some(ledger) = ledger {
        fields.push((
            "ledger",
            Value::obj(ledger.iter().map(|(k, v)| (*k, Value::num(*v)))),
        ));
    }
    println!("{}", Value::obj(fields).compact());
    Ok(())
}

/// The parent side: runs one repetition in a child and reads its report.
fn spawn_rep(spec: &Spec, seed: u64, traced: bool, out: &Path) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(&exe)
        .args(["rep", spec.name, &seed.to_string()])
        .arg(if traced { "1" } else { "0" })
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed}: repetition failed: {}",
            spec.name, output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let parsed = (|| {
        let v = json::parse(text.lines().last()?).ok()?;
        let ledger = v.get("ledger").map(|l| {
            catalog::PER_LAYER
                .iter()
                .filter_map(|d| Some((d.name, l.get(d.name)?.as_f64())))
                .collect()
        });
        Some(ChildRep {
            summary: RepSummary::from_json(v.get("summary")?)?,
            cells_checked: v.get("cells_checked")?.as_f64()? as u64,
            lost_commits: v.get("lost_commits")?.as_f64()? as u64,
            violations: v
                .get("violations")?
                .as_arr()?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect(),
            peak_rss_mb: v.get("peak_rss_mb").and_then(Value::as_f64),
            ledger,
        })
    })();
    parsed.ok_or_else(|| format!("{} seed {seed}: unreadable repetition report", spec.name))
}

pub fn run(opts: &Options, out: &Path) -> Result<Vec<WorkloadResult>, String> {
    let mut results: Vec<WorkloadResult> = opts
        .workloads
        .iter()
        .map(|spec| WorkloadResult {
            spec: spec.clone(),
            seed: opts.seed,
            reps: Vec::new(),
            cells_checked: 0,
            lost_commits: 0,
            violations: Vec::new(),
            ledger: None,
            peak_rss_mb: None,
            spent_s: 0.0,
        })
        .collect();

    // Repetitions interleave round-robin across workloads, so that drift
    // of the machine is spread evenly over them.
    while results.iter().any(|r| !r.done(opts)) {
        for res in results.iter_mut().filter(|r| !r.done(opts)) {
            let k = res.reps.len() as u64;
            let started = Instant::now();
            let child = spawn_rep(&res.spec, opts.seed + k % SEEDS, false, out)?;
            res.spent_s += started.elapsed().as_secs_f64();
            res.absorb(&child);
            if let Some(first) = res.reps.get((k % SEEDS) as usize).filter(|_| k >= SEEDS) {
                if first.sim != child.summary.sim || first.events != child.summary.events {
                    res.violations.push(format!(
                        "seed {} gave different simulated results on repetition {k}",
                        child.summary.seed
                    ));
                }
            }
            res.reps.push(child.summary);
        }
    }

    if opts.traced {
        let micro = micro::run();
        for res in &mut results {
            let mut child = spawn_rep(&res.spec, opts.seed, true, out)?;
            res.absorb(&child);
            // Recording is pure: it may cost host time, never simulated time.
            let (traced, untraced) = (&child.summary, &res.reps[0]);
            if traced.sim != untraced.sim || traced.events != untraced.events {
                res.violations.push(format!(
                    "the traced run's simulated results differ from the untraced run's: {:?} vs {:?}",
                    traced.sim, untraced.sim
                ));
            }
            let mut ledger = child.ledger.take().unwrap_or_default();
            ledger::add_host_context(
                &mut ledger,
                &child.summary,
                &HostContext {
                    untraced: &res.reps,
                    peak_rss_mb: res.peak_rss_mb,
                    micro: &micro,
                },
            );
            res.ledger = Some(ledger);
        }
    }
    Ok(results)
}

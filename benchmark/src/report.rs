//! What a run prints and writes: the `name value unit` table, the result
//! files, and the one-line JSON object the harness contract asks for.

use crate::catalog::{Bound, Clock, END_TO_END, PER_LAYER};
use crate::driver::Span;
use crate::json::Value;
use crate::run::{WorkloadResult, SEEDS};
use crate::stats::iqr_share;
use std::path::{Path, PathBuf};

/// Where result files go: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    manifest.join("out")
}

fn show(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |v| format!("{v}"))
}

pub fn print_table(res: &WorkloadResult) {
    let w = res.spec.name;
    let (attempted, failed) = res.attempted_failed();
    println!(
        "# {w}: seeds {}..={}, {} repetitions",
        res.seed,
        res.seed + SEEDS - 1,
        res.reps.len()
    );
    println!("{w}.attempted {attempted} count");
    println!("{w}.failed {failed} count");
    let sim = &res.reps[0].sim;
    println!("{w}.txn_samples {} count", sim.txn_samples);
    println!("{w}.visible_samples {} count", sim.visible_samples);
    for def in END_TO_END.iter().filter(|d| d.applies_to(w)) {
        println!("{w}.{} {} {}", def.name, show(res.value(def)), def.unit);
    }
    if let Some(ledger) = &res.ledger {
        for def in PER_LAYER {
            let v = ledger.get(def.name).copied().flatten();
            println!("{w}.{} {} {}", def.name, show(v), def.unit);
        }
    }
    println!("{w}.cells_checked {} count", res.cells_checked);
    println!("{w}.lost_commits {} count", res.lost_commits);
    for v in res.violations.iter().take(20) {
        println!("{w}.VIOLATION {v}");
    }
}

/// `BENCH_<workload>.json`.
pub fn bench_json(res: &WorkloadResult) -> Value {
    let w = res.spec.name;
    let (attempted, failed) = res.attempted_failed();
    let e2e = END_TO_END.iter().filter(|d| d.applies_to(w)).map(|def| {
        let samples = res.samples(def).unwrap_or_default();
        let mut fields = vec![
            ("value", Value::num(res.value(def))),
            ("unit", Value::Str(def.unit.into())),
            ("better", Value::Str(def.better.as_str().into())),
            ("clock", Value::Str(def.clock.as_str().into())),
            match def.bound {
                Bound::Share(s) => ("bound", Value::Num(s)),
                Bound::Abs(a) => ("bound_abs", Value::Num(a)),
            },
            ("spread", Value::num(iqr_share(&samples))),
            (
                "samples",
                Value::Arr(samples.iter().map(|v| Value::Num(*v)).collect()),
            ),
        ];
        if def.clock == Clock::Sim {
            // Exact per seed: what the repeatability check compares.
            let per_seed = res
                .reps
                .iter()
                .take(SEEDS as usize)
                .map(|r| (r.seed.to_string(), Value::num(r.sim.get(def.name))));
            fields.push(("per_seed", Value::obj(per_seed)));
        }
        (def.name, Value::obj(fields))
    });
    let mut top = vec![
        ("workload", Value::Str(w.into())),
        ("why", Value::Str(res.spec.why.into())),
        ("seed", Value::Num(res.seed as f64)),
        ("repetitions", Value::Num(res.reps.len() as f64)),
        ("correct", Value::Bool(res.correct())),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "txn_samples",
            Value::Num(res.reps[0].sim.txn_samples as f64),
        ),
        ("cells_checked", Value::Num(res.cells_checked as f64)),
        ("lost_commits", Value::Num(res.lost_commits as f64)),
        (
            "violations",
            Value::Arr(
                res.violations
                    .iter()
                    .take(20)
                    .map(|v| Value::Str(v.clone()))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::obj(e2e)),
    ];
    if let Some(ledger) = &res.ledger {
        let per_layer = PER_LAYER.iter().map(|def| {
            let v = ledger.get(def.name).copied().flatten();
            (
                def.name,
                Value::obj([
                    ("value", Value::num(v)),
                    ("unit", Value::Str(def.unit.into())),
                    ("exact", Value::Bool(def.exact)),
                ]),
            )
        });
        top.push(("per_layer", Value::obj(per_layer)));
    }
    Value::obj(top)
}

/// `TRACE_<workload>.json`: per-span-name totals, then every span the
/// driver recorded as `[name, txn, start_ns, end_ns]` (`txn` is the
/// parent transaction's sequence number; its own span is named "txn").
pub fn write_trace(dir: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in spans {
        let t = totals.entry(s.name).or_default();
        t.0 += 1;
        t.1 += s.end_ns - s.start_ns;
    }
    let totals = totals.iter().map(|(name, (count, ns))| {
        (
            *name,
            Value::obj([
                ("count", Value::Num(*count as f64)),
                ("total_ms", Value::Num(*ns as f64 / 1e6)),
            ]),
        )
    });
    let spans = spans.iter().map(|s| {
        Value::Arr(vec![
            Value::Str(s.name.into()),
            Value::Num(f64::from(s.txn)),
            Value::Num(s.start_ns as f64),
            Value::Num(s.end_ns as f64),
        ])
    });
    let doc = Value::obj([
        ("workload", Value::Str(workload.into())),
        ("seed", Value::Num(seed as f64)),
        ("span_totals", Value::obj(totals)),
        ("spans", Value::Arr(spans.collect())),
    ]);
    std::fs::create_dir_all(dir)?;
    // Compact: a span file runs to hundreds of thousands of entries.
    std::fs::write(
        dir.join(format!("TRACE_{workload}.json")),
        doc.compact() + "\n",
    )
}

pub fn write_bench(dir: &Path, res: &WorkloadResult) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", res.spec.name));
    std::fs::write(path, bench_json(res).pretty())
}

/// In the contract's one-line object a metric that was not measured
/// reads -1: no metric here can be negative, and the line must hold a
/// number for every name `BENCHMARK.json` lists.
const NOT_MEASURED: f64 = -1.0;

/// The harness contract's result line. Untraced: every end-to-end metric
/// defined on all workloads. Traced: the workload-specific end-to-end
/// metrics, then the per-layer ledger.
pub fn contract_line(res: &WorkloadResult, traced: bool) -> String {
    let metric = |v: Option<f64>, unit: &str| {
        Value::obj([
            (
                "value",
                Value::Num(v.filter(|v| v.is_finite()).unwrap_or(NOT_MEASURED)),
            ),
            ("unit", Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(&str, Value)> = if traced {
        let ledger = res.ledger.as_ref();
        END_TO_END
            .iter()
            .filter(|d| !d.on_every_workload())
            .map(|d| (d.name, metric(res.value(d), d.unit)))
            .chain(PER_LAYER.iter().map(|d| {
                let v = ledger.and_then(|l| l.get(d.name).copied().flatten());
                (d.name, metric(v, d.unit))
            }))
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|d| d.on_every_workload())
            .map(|d| (d.name, metric(res.value(d), d.unit)))
            .collect()
    };
    let (attempted, failed) = res.attempted_failed();
    Value::obj([
        ("correct", Value::Bool(res.correct())),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::obj(metrics)),
    ])
    .compact()
}

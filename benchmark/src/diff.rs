//! `diff A B` and `selfcheck`: compare two result directories.

use crate::catalog::{self, Better, Bound, Clock};
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;

type Results = BTreeMap<String, Value>;

pub fn load(dir: &Path) -> Result<Results, String> {
    let mut out = Results::new();
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in listing {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let Some(workload) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let value = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.insert(workload.to_owned(), value);
    }
    if out.is_empty() {
        return Err(format!("{}: no BENCH_<workload>.json files", dir.display()));
    }
    Ok(out)
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own run-to-run spread exceeds the bound.
    Unresolved,
}

/// Judges `b` against `a` under `bound`; `spread` is the larger of the
/// two sides' interquartile ranges as a share of their median.
pub fn verdict(a: f64, b: f64, better: Better, bound: Bound, spread: f64) -> Verdict {
    let (allowed, noise) = match bound {
        Bound::Share(s) => (s * a.abs(), spread * a.abs()),
        Bound::Abs(x) => (x, spread * a.abs()),
    };
    if noise > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric<'a>(doc: &'a Value, section: &str, name: &str) -> Option<&'a Value> {
    doc.get(section)?.get(name)
}

fn num(v: Option<&Value>, key: &str) -> Option<f64> {
    v?.get(key)?.as_f64()
}

fn percent(a: f64, b: f64) -> String {
    if a == 0.0 {
        return if b == 0.0 { "0%".into() } else { "n/a".into() };
    }
    format!("{:+.2}%", (b - a) / a * 100.0)
}

/// Prints the per-workload, per-metric delta table of `b` against `a`;
/// returns whether any end-to-end metric is worse by more than its bound.
pub fn diff(a: &Results, b: &Results) -> bool {
    let mut any_worse = false;
    for (workload, doc_a) in a {
        let Some(doc_b) = b.get(workload) else {
            println!("# {workload}: only in the first directory");
            continue;
        };
        println!("# {workload}");
        println!(
            "{:<38} {:>14} {:>14} {:>9}  verdict",
            "metric", "A", "B", "delta"
        );
        for def in catalog::END_TO_END
            .iter()
            .filter(|d| d.applies_to(workload))
        {
            let (ma, mb) = (
                metric(doc_a, "end_to_end", def.name),
                metric(doc_b, "end_to_end", def.name),
            );
            let (Some(va), Some(vb)) = (num(ma, "value"), num(mb, "value")) else {
                println!("{:<38} {:>14} {:>14} {:>9}  n/a", def.name, "-", "-", "-");
                continue;
            };
            let spread = num(ma, "spread")
                .unwrap_or(0.0)
                .max(num(mb, "spread").unwrap_or(0.0));
            let v = verdict(va, vb, def.better, def.bound, spread);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<38} {:>14.4} {:>14.4} {:>9}  {}",
                def.name,
                va,
                vb,
                percent(va, vb),
                format!("{v:?}").to_lowercase()
            );
        }
        for def in catalog::PER_LAYER {
            let va = num(metric(doc_a, "per_layer", def.name), "value");
            let vb = num(metric(doc_b, "per_layer", def.name), "value");
            if let (Some(va), Some(vb)) = (va, vb) {
                println!(
                    "{:<38} {:>14.4} {:>14.4} {:>9}",
                    def.name,
                    va,
                    vb,
                    percent(va, vb)
                );
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("# {workload}: only in the second directory");
    }
    any_worse
}

/// Two runs of the *same code*: every simulated-time metric and every
/// exact count must be identical per seed, every host-time metric must
/// agree within its bound. Prints the table; returns whether all held.
pub fn same_code(a: &Results, b: &Results) -> bool {
    let mut ok = a.keys().eq(b.keys());
    if !ok {
        println!("the two runs cover different workloads");
    }
    for (workload, doc_a) in a {
        let Some(doc_b) = b.get(workload) else {
            continue;
        };
        println!("# {workload}");
        for def in catalog::END_TO_END
            .iter()
            .filter(|d| d.applies_to(workload))
        {
            let (ma, mb) = (
                metric(doc_a, "end_to_end", def.name),
                metric(doc_b, "end_to_end", def.name),
            );
            let (va, vb) = (num(ma, "value"), num(mb, "value"));
            let pass = match def.clock {
                Clock::Sim => {
                    let seeds = |m: Option<&Value>| m.and_then(|m| m.get("per_seed")).cloned();
                    va.is_some() && seeds(ma) == seeds(mb)
                }
                Clock::Wall => match (va, vb, def.bound) {
                    (Some(x), Some(y), Bound::Share(s)) => (y - x).abs() <= s * x.min(y),
                    _ => false,
                },
            };
            ok &= pass;
            println!(
                "{:<38} {:>14} {:>14} {:>9}  {}",
                def.name,
                va.map_or("null".into(), |v| format!("{v:.4}")),
                vb.map_or("null".into(), |v| format!("{v:.4}")),
                va.zip(vb).map_or("-".into(), |(x, y)| percent(x, y)),
                match (pass, def.clock) {
                    (true, Clock::Sim) => "identical",
                    (true, Clock::Wall) => "within bound",
                    (false, _) => "MISMATCH",
                }
            );
        }
        for def in catalog::PER_LAYER.iter().filter(|d| d.exact) {
            let va = metric(doc_a, "per_layer", def.name).and_then(|m| m.get("value"));
            let vb = metric(doc_b, "per_layer", def.name).and_then(|m| m.get("value"));
            let pass = va.is_some() && va == vb;
            ok &= pass;
            println!(
                "{:<38} {:>14} {:>14} {:>9}  {}",
                def.name,
                va.map_or("-".into(), Value::compact),
                vb.map_or("-".into(), Value::compact),
                "",
                if pass { "identical" } else { "MISMATCH" }
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let share = Bound::Share(0.05);
        assert_eq!(
            verdict(100.0, 104.0, Better::Lower, share, 0.01),
            Verdict::Same
        );
        assert_eq!(
            verdict(100.0, 106.0, Better::Lower, share, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 94.0, Better::Lower, share, 0.01),
            Verdict::Better
        );
        assert_eq!(
            verdict(100.0, 94.0, Better::Higher, share, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            verdict(100.0, 120.0, Better::Lower, share, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(5.0, 7.0, Better::Lower, Bound::Abs(1.0), 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(5.0, 5.5, Better::Lower, Bound::Abs(1.0), 0.0),
            Verdict::Same
        );
    }
}

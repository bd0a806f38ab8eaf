//! `BENCHMARK.json` at the repo root must say what the catalogue says.

use cumulo_benchmark::catalog::{Bound, Clock, END_TO_END, PER_LAYER};
use cumulo_benchmark::json::{self, Value};
use cumulo_benchmark::workload;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn names(list: &Value) -> Vec<&str> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect()
}

#[test]
fn workloads_match() {
    let doc = manifest();
    let listed = doc.get("workloads").unwrap();
    let ours: Vec<_> = workload::all().iter().map(|s| s.name).collect();
    assert_eq!(names(listed), ours);
    for (entry, spec) in listed.as_arr().unwrap().iter().zip(workload::all()) {
        assert_eq!(entry.get("why").unwrap().as_str(), Some(spec.why));
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
}

#[test]
fn end_to_end_is_every_metric_defined_on_all_workloads() {
    let doc = manifest();
    let listed = doc.get("end_to_end").unwrap().as_arr().unwrap();
    let ours: Vec<_> = END_TO_END
        .iter()
        .filter(|d| d.on_every_workload())
        .collect();
    assert_eq!(listed.len(), ours.len());
    for (entry, def) in listed.iter().zip(ours) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(def.better.as_str())
        );
        // The harness has no "unresolved": it refuses a benchmark whose ten
        // seeds spread by more than the bound on any workload, so a
        // host-time metric's bound there is what `scan_range` needs.
        let listed = entry.get("bound").unwrap().as_f64().unwrap();
        match def.clock {
            Clock::Sim => assert_eq!(Bound::Share(listed), def.bound),
            Clock::Wall => {
                assert!(matches!(def.bound, Bound::Share(ours) if ours <= listed && listed <= 0.25))
            }
        }
    }
}

#[test]
fn per_layer_is_the_workload_specific_metrics_then_the_ledger() {
    let doc = manifest();
    let listed = doc.get("per_layer").unwrap();
    let ours: Vec<(&str, &str, &str)> = END_TO_END
        .iter()
        .filter(|d| !d.on_every_workload())
        .map(|d| (d.name, d.unit, d.better.as_str()))
        .chain(
            PER_LAYER
                .iter()
                .map(|d| (d.name, d.unit, d.better.as_str())),
        )
        .collect();
    assert_eq!(names(listed), ours.iter().map(|d| d.0).collect::<Vec<_>>());
    for (entry, (_, unit, better)) in listed.as_arr().unwrap().iter().zip(&ours) {
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(*unit));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(*better));
    }
    assert!(ours.len() <= 128);
}

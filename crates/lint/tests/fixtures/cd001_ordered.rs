// Fixture: ordered collections and look-alike names — none of these may
// produce findings. Linted as crates/sim/src/metrics.rs. Not compiled.
use std::collections::{BTreeMap, BTreeSet};

/// A `HashMap` in a doc comment, or "HashSet" in a string, is not code.
struct GaugeMap {
    v: Rc<RefCell<BTreeMap<u64, u64>>>,
}

fn snapshot(m: &GaugeMap) -> Vec<(u64, u64)> {
    m.v.borrow().iter().map(|(k, v)| (*k, *v)).collect()
}

// A map field named `v` above, and here an unrelated `v` (a `GaugeVec`)
// iterated by index: a local name shared with a map field is never a
// finding, so it needs no suppression.
fn render(metric: &Metric) {
    if let Metric::Vec { v, slot_label } = metric {
        for (i, val) in v.snapshot().into_iter().enumerate() {
            put(slot_label, i, val, "HashSet");
        }
    }
}

fn look_alikes(hash_mapped: BTreeSet<u64>) -> usize {
    let HashMapLike = hash_mapped.len();
    HashMapLike
}

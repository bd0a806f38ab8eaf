// Fixture: every name of std's per-process-salted hashing is a finding
// where it is written, whatever the code later does with the value.
// Linted as crates/store/src/fixture.rs. Not compiled.
use std::collections::HashMap; //~ CD001
use std::collections::{hash_map::Entry, BTreeMap}; //~ CD001

struct Index {
    rows: HashMap<u64, HashSet<u64>>, //~ CD001
    order: BTreeMap<u64, u64>,
}

// The loop is not a finding: the declaration above already is, and a
// reduction or a sort after it would not have made the map ordered.
fn emit_all(index: &Index) -> Vec<u64> {
    let mut out = Vec::new();
    for (k, _) in index.rows.iter() {
        out.push(*k);
    }
    out
}

fn local_binding() -> usize {
    let m = std::collections::HashSet::<u64>::new(); //~ CD001
    m.len()
}

fn entry(slot: hash_set::Iter<'_, u64>) -> Option<&u64> { //~ CD001
    slot.into_iter().next()
}

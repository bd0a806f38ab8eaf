// Fixture, first half of a pair: a salted map field declared in one file
// and iterated from another that is not its `mod.rs` child (the second
// half, cd001_field_use.rs). The rule flags the declaration, so where
// the map is iterated does not matter. Linted as
// crates/store/src/table.rs. Not compiled.

pub struct Table {
    pub rows: std::collections::HashMap<u64, u64>, //~ CD001
}

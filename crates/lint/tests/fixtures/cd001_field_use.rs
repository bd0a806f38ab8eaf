// Fixture, second half of a pair: iterating cd001_field_decl.rs's field
// from a sibling file. Nothing here names a salted type, so there is
// nothing to flag; the finding is at the declaration. Linted as
// crates/store/src/reader.rs. Not compiled.
use crate::table::Table;

pub fn dump(table: &Table) -> Vec<u64> {
    table.rows.keys().copied().collect()
}

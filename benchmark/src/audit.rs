//! Correctness audits: the "outputs are correct" half of every run.
//!
//! Pure functions over what the driver recorded, so they can be fed
//! fabricated evidence in `tests/audit.rs`.

use crate::driver::{Outcome, Rec};
use crate::workload;
use std::collections::BTreeMap;

#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Cells read back after the run.
    pub cells_checked: u64,
    /// Cells that did not hold their highest-timestamp acknowledged write.
    pub lost_commits: u64,
    /// Every violation found, lost commits included.
    pub violations: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// For every row the stream wrote: the `(commit ts, seq)` of its
/// highest-timestamp *acknowledged* writer.
pub fn expected_final(recs: &[Rec]) -> BTreeMap<u32, (u64, u32)> {
    let mut expected: BTreeMap<u32, (u64, u32)> = BTreeMap::new();
    for rec in recs {
        let Outcome::Committed(ts) = rec.outcome else {
            continue;
        };
        for row in rec.txn.put_rows() {
            let e = expected.entry(row).or_insert((ts, rec.txn.seq));
            if ts > e.0 {
                *e = (ts, rec.txn.seq);
            }
        }
    }
    expected
}

/// Checks what was read back (`(row, seq the stored value carries)`)
/// against [`expected_final`]. A cell may instead hold the write of a
/// transaction that wrote it but never got an outcome: its commit may
/// have succeeded with a later timestamp without the driver hearing.
pub fn check_read_back(
    expected: &BTreeMap<u32, (u64, u32)>,
    found: &[(u32, Option<u32>)],
    recs: &[Rec],
) -> Report {
    let mut report = Report::default();
    for (row, got) in found {
        report.cells_checked += 1;
        let Some((ts, seq)) = expected.get(row).copied() else {
            continue;
        };
        if *got == Some(seq) {
            continue;
        }
        let unheard_writer = got.and_then(|g| recs.get(g as usize)).is_some_and(|r| {
            matches!(r.outcome, Outcome::Pending | Outcome::Failed)
                && r.txn.put_rows().any(|w| w == *row)
        });
        if unheard_writer {
            continue;
        }
        report.lost_commits += 1;
        report.violations.push(format!(
            "lost commit: row {row} should hold txn {seq} (ts {ts}) but holds {got:?}"
        ));
    }
    if report.cells_checked != expected.len() as u64 {
        report.violations.push(format!(
            "read back {} cells of {} written",
            report.cells_checked,
            expected.len()
        ));
    }
    report
}

/// A scan from row `start` with limit `limit` over a table of
/// `table_rows` single-column rows must return exactly the next
/// `min(limit, rows to table end)` row keys, in key order.
pub fn check_scan(start: u32, table_rows: u64, limit: usize, rows: &[&[u8]]) -> Result<(), String> {
    let want = (table_rows - u64::from(start)).min(limit as u64) as usize;
    if rows.len() != want {
        return Err(format!(
            "scan from row {start} returned {} rows, expected {want}",
            rows.len()
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        if workload::row_of(row) != Some(start + i as u32) {
            return Err(format!(
                "scan from row {start}: position {i} holds {:?}",
                String::from_utf8_lossy(row)
            ));
        }
    }
    Ok(())
}

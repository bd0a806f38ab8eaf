//! The audits must catch what they exist to catch: feed them a
//! fabricated lost commit and a truncated scan.

use cumulo_benchmark::audit::{check_read_back, check_scan, expected_final};
use cumulo_benchmark::driver::{Outcome, Phase, Rec};
use cumulo_benchmark::workload::{key, Op, Txn};

fn rec(seq: u32, rows: &[u32], outcome: Outcome) -> Rec {
    Rec {
        txn: Txn {
            seq,
            ops: rows.iter().map(|r| Op::Put(*r)).collect(),
        },
        phase: Phase::Open,
        client: 0,
        due_ns: 0,
        end_ns: 1,
        outcome,
    }
}

#[test]
fn a_lost_commit_is_caught() {
    // Row 7 was written by txn 0 (ts 10) and then txn 1 (ts 20), both
    // acknowledged; row 8 by a conflict-aborted txn 2 only.
    let recs = vec![
        rec(0, &[7], Outcome::Committed(10)),
        rec(1, &[7], Outcome::Committed(20)),
        rec(2, &[8], Outcome::Aborted),
    ];
    let expected = expected_final(&recs);
    assert_eq!(expected.get(&7), Some(&(20, 1)));
    assert_eq!(
        expected.get(&8),
        None,
        "an aborted write is expected nowhere"
    );

    let intact = check_read_back(&expected, &[(7, Some(1))], &recs);
    assert!(intact.passed(), "{:?}", intact.violations);

    // The store lost txn 1 and still shows txn 0's value…
    let stale = check_read_back(&expected, &[(7, Some(0))], &recs);
    assert_eq!(stale.lost_commits, 1);
    assert!(!stale.passed());
    // …or lost everything and shows the loader's value.
    let gone = check_read_back(&expected, &[(7, None)], &recs);
    assert_eq!(gone.lost_commits, 1);
    // A cell that was never read back is a failure too.
    assert!(!check_read_back(&expected, &[], &recs).passed());
}

#[test]
fn an_unacknowledged_writer_may_be_visible_but_an_aborted_one_may_not() {
    let mut recs = vec![
        rec(0, &[7], Outcome::Committed(10)),
        rec(1, &[7], Outcome::Pending),
    ];
    let expected = expected_final(&recs);
    assert!(check_read_back(&expected, &[(7, Some(1))], &recs).passed());
    recs[1].outcome = Outcome::Aborted;
    assert_eq!(
        check_read_back(&expected, &[(7, Some(1))], &recs).lost_commits,
        1
    );
}

#[test]
fn a_truncated_scan_is_caught() {
    let rows: Vec<_> = (100..150).map(key).collect();
    let full: Vec<&[u8]> = rows.iter().map(|r| &r[..]).collect();
    assert_eq!(check_scan(100, 1_000, 50, &full), Ok(()));
    // Cut short, as a scan that stopped at a region boundary would be.
    assert!(check_scan(100, 1_000, 50, &full[..30]).is_err());
    // A gap or a wrong order is caught as well.
    let mut gap = full.clone();
    gap.remove(10);
    gap.push(&rows[0]);
    assert!(check_scan(100, 1_000, 50, &gap).is_err());
    // At the end of the table fewer rows are right, not an error.
    let tail: Vec<_> = (980..1_000).map(key).collect();
    let tail: Vec<&[u8]> = tail.iter().map(|r| &r[..]).collect();
    assert_eq!(check_scan(980, 1_000, 50, &tail), Ok(()));
}

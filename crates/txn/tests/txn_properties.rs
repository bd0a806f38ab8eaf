//! Property-based tests of the transaction manager's invariants.

use cumulo_sim::{NodeId, Sim, SimDuration, SimTime};
use cumulo_store::{ClientId, Mutation, Timestamp, WriteSet};
use cumulo_txn::{
    CommitOutcome, ConflictChecker, LogRecord, RecoveryLog, RecoveryLogConfig, TransactionManager,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn ws(rows: &[u16]) -> WriteSet {
    rows.iter()
        .map(|r| Mutation::put(format!("row{r}"), "c", "v"))
        .collect()
}

proptest! {
    /// First-committer-wins: for any interleaving of overlapping
    /// transactions, the set of committed transactions is conflict-free —
    /// no two committed transactions with overlapping write-sets where
    /// the later one's snapshot predates the earlier one's commit.
    #[test]
    fn committed_transactions_are_conflict_serializable(
        txns in prop::collection::vec(
            (prop::collection::vec(0u16..30, 1..5), 0usize..8),
            2..40
        ),
    ) {
        let checker = ConflictChecker::new();
        // Simulate: transactions begin in waves; `delay` controls how
        // stale each snapshot is relative to commit order.
        let mut committed: Vec<(Vec<u16>, u64, u64)> = Vec::new(); // (rows, start, commit)
        for (i, (rows, delay)) in txns.iter().enumerate() {
            let commit_ts = (i + 1) as u64;
            let start_ts = commit_ts.saturating_sub(*delay as u64 + 1);
            let write_set = ws(rows);
            if checker.check_and_record(&write_set, Timestamp(start_ts), Timestamp(commit_ts)) {
                committed.push((rows.clone(), start_ts, commit_ts));
            }
        }
        // Verify pairwise: overlapping committed txns must not be
        // "concurrent" (one's start before the other's commit, both ways).
        for (i, (rows_a, start_a, commit_a)) in committed.iter().enumerate() {
            for (rows_b, start_b, commit_b) in committed.iter().skip(i + 1) {
                let overlap = rows_a.iter().any(|r| rows_b.contains(r));
                if overlap {
                    let a_before_b = commit_a <= start_b;
                    let b_before_a = commit_b <= start_a;
                    prop_assert!(
                        a_before_b || b_before_a,
                        "concurrent overlapping commits: a=({start_a},{commit_a}) b=({start_b},{commit_b})"
                    );
                }
            }
        }
    }

    /// The recovery log's fetch operations are consistent with a model:
    /// fetch_after(t) returns exactly the records with ts > t in order,
    /// and truncation below t removes exactly the records with ts < t.
    #[test]
    fn recovery_log_fetch_and_truncate_match_model(
        entries in prop::collection::vec((1u64..500, 0u32..4), 1..80),
        fetch_at in 0u64..500,
        truncate_at in 0u64..500,
    ) {
        let sim = Sim::new(5);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let mut model: Vec<(u64, u32)> = Vec::new();
        for (ts, client) in &entries {
            // Skip duplicate timestamps (the oracle guarantees uniqueness).
            if model.iter().any(|(t, _)| t == ts) {
                continue;
            }
            model.push((*ts, *client));
            log.append(
                LogRecord {
                    ts: Timestamp(*ts),
                    client: ClientId(*client),
                    write_set: ws(&[(*ts % 100) as u16]),
                },
                || {},
            );
        }
        sim.run_for(SimDuration::from_secs(2));
        model.sort_unstable();

        let fetched: Vec<u64> = log.fetch_after(Timestamp(fetch_at)).iter().map(|r| r.ts.0).collect();
        let expect: Vec<u64> = model.iter().map(|(t, _)| *t).filter(|t| *t > fetch_at).collect();
        prop_assert_eq!(fetched, expect);

        for c in 0..4u32 {
            let got: Vec<u64> =
                log.fetch_client_after(ClientId(c), Timestamp(fetch_at)).iter().map(|r| r.ts.0).collect();
            let expect: Vec<u64> = model
                .iter()
                .filter(|(t, cl)| *t > fetch_at && *cl == c)
                .map(|(t, _)| *t)
                .collect();
            prop_assert_eq!(got, expect, "client {}", c);
        }

        log.truncate_below(Timestamp(truncate_at));
        let remaining: Vec<u64> = log.fetch_after(Timestamp::ZERO).iter().map(|r| r.ts.0).collect();
        let expect: Vec<u64> = model.iter().map(|(t, _)| *t).filter(|t| *t >= truncate_at).collect();
        prop_assert_eq!(remaining, expect);
    }

    /// Self-clocking group commit over random arrival schedules: the
    /// flushes are reconstructed from outside (acknowledgements of one
    /// batch share an instant; a flush of `n` equal records took
    /// `device_round(n)` up to that instant) and checked against the
    /// contract — a flush starts the moment the log is idle and has
    /// something to write, never earlier, so flushes never overlap and an
    /// append waits for at most one flush other than its own.
    #[test]
    fn group_commit_is_self_clocking_over_random_arrivals(
        max_gap_us in 0u64..2_001,
        gap_permille in prop::collection::vec(0u64..1_001, 1..401),
    ) {
        let sim = Sim::new(7);
        let log = RecoveryLog::new(&sim, RecoveryLogConfig::default());
        let acks: Rc<RefCell<Vec<(usize, SimTime)>>> = Rc::default();
        let mut arrivals: Vec<SimTime> = Vec::new();
        for (i, permille) in gap_permille.iter().enumerate() {
            sim.run_for(SimDuration::from_nanos(max_gap_us * permille));
            arrivals.push(sim.now());
            let (sim2, acks2) = (sim.clone(), Rc::clone(&acks));
            log.append(
                LogRecord {
                    ts: Timestamp(i as u64 + 1),
                    client: ClientId(0),
                    write_set: ws(&[1_000 + i as u16]), // equal sizes
                },
                move || acks2.borrow_mut().push((i, sim2.now())),
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        let n = arrivals.len();
        let acks = acks.borrow();
        prop_assert_eq!(
            acks.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>(),
            "every append acknowledged once, in append order"
        );

        // One device round for a flush of `count` of these records.
        let record_size = LogRecord {
            ts: Timestamp(1),
            client: ClientId(0),
            write_set: ws(&[1_000]),
        }
        .wire_size();
        let disk = RecoveryLogConfig::default().disk;
        let device_round = |count: usize| {
            disk.write_time(count * record_size) + disk.sync_time(count * record_size)
        };

        // (first member, size, end) of every flush, in order.
        let mut flushes: Vec<(usize, usize, SimTime)> = Vec::new();
        for (i, at) in acks.iter() {
            match flushes.last_mut() {
                Some((_, size, end)) if *end == *at => *size += 1,
                _ => flushes.push((*i, 1, *at)),
            }
        }
        prop_assert_eq!(flushes.len() as u64, log.batch_count());
        prop_assert_eq!(
            flushes.iter().map(|f| f.1 as u64).sum::<u64>(),
            log.append_count()
        );
        let mut previous: Option<(usize, SimTime)> = None; // (size, end)
        for (first, size, end) in flushes.iter().copied() {
            let round = device_round(size);
            let prev_end = previous.map_or(SimTime::ZERO, |(_, e)| e);
            prop_assert!(end >= prev_end + round, "flushes overlap: {flushes:?}");
            let start = prev_end.max(arrivals[first]);
            prop_assert_eq!(
                start + round,
                end,
                "a flush starts as soon as the log is idle and a record waits"
            );
            let wait = previous.map_or(SimDuration::ZERO, |(s, _)| device_round(s));
            for arrived in &arrivals[first..first + size] {
                prop_assert!(*arrived <= start, "a record rode a flush begun before it arrived");
                prop_assert!(
                    end - *arrived <= wait + round,
                    "acknowledged later than two device rounds after arrival"
                );
            }
            previous = Some((size, end));
        }
        // Arrivals faster than the device syncs must batch: n flushes of
        // one record each cannot start less than n - 1 rounds apart, and
        // the last of them starts no earlier than the last arrival but one.
        if n >= 3 && arrivals[n - 1] - arrivals[0] < device_round(1) * (n as u64 - 2) {
            prop_assert!(log.batch_count() < log.append_count());
        }
    }
}

/// Commit acknowledgements arrive strictly after log durability and carry
/// strictly increasing timestamps, regardless of request interleaving.
#[test]
fn commit_acks_are_ordered_and_durable() {
    let sim = Sim::new(11);
    let tm = TransactionManager::new(&sim, NodeId(0));
    let acks: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..50usize {
        let (txn, _) = tm.handle_begin(ClientId((i % 3) as u32));
        let acks2 = acks.clone();
        let tm2 = Rc::clone(&tm);
        tm.handle_commit(txn, ws(&[i as u16]), move |o| {
            if let CommitOutcome::Committed(ts) = o {
                // Durability check: the record must already be fetchable.
                assert!(
                    tm2.log()
                        .fetch_after(Timestamp(ts.0 - 1))
                        .iter()
                        .any(|r| r.ts == ts),
                    "ack before log durability"
                );
                acks2.borrow_mut().push((ts.0, i));
            }
        });
        // Interleave time so batches vary.
        if i % 7 == 0 {
            sim.run_for(SimDuration::from_micros(500));
        }
    }
    sim.run_for(SimDuration::from_secs(1));
    let acks = acks.borrow();
    assert_eq!(acks.len(), 50);
    assert!(
        acks.windows(2).all(|w| w[0].0 < w[1].0),
        "acks out of timestamp order"
    );
}

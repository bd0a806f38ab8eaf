//! Atomicity and snapshot-consistency tests: multi-row transactions
//! spanning regions and servers must be all-or-nothing in every snapshot
//! a reader can observe — through crashes, recoveries and replays.

mod common;

use common::bank::{shift_rng, Bank};
use common::fingerprint;
use common::plan::{run_or_shrink, Action, Drive, FaultPlan, Victim};
use cumulo_core::{Cluster, ClusterConfig, TransactionalClient};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

const ACCOUNTS: u64 = 120;
const INITIAL: i64 = 500;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

/// The shared schedule of the conservation tests, on the cluster with
/// its RNG shifted by `shift` draws: 60 rounds of transfers with a
/// server crash after round 20 and a client crash after round 40, then
/// a full-balance audit and the run's fingerprint. A failed audit
/// prints the plan shrunk to the crashes it needs.
fn run_transfer_schedule(shift: u32, pin: [u64; 4]) {
    const TICK: SimDuration = SimDuration::from_millis(400);
    let plan = FaultPlan::new()
        .at(TICK * 21, Action::CrashServer(Victim::Index(0)))
        .at(TICK * 41, Action::CrashClient(2));
    let label = format!("seed 31 shift {shift}");
    let cluster = run_or_shrink(&label, &plan, |plan| {
        let cluster = conservation_cluster();
        // Extra draws that shift every subsequent gen_range/gen_f64.
        shift_rng(&cluster, shift);
        transfers(&cluster, plan, TICK);
        cluster
    });
    assert_eq!(fingerprint(&cluster), pin, "{label}: run fingerprint");
}

/// 60 rounds of `tick`, each one transfer per live client, under `plan`;
/// then the drain and the audit.
fn transfers(cluster: &Cluster, plan: &FaultPlan, tick: SimDuration) {
    let committed = Rc::new(Cell::new(0u32));
    let load = |cluster: &Cluster, _| BANK.transfer_round(cluster, &committed);
    let _report = plan.run(cluster, Drive::rounds(60, tick).load(load));
    cluster.run_for(SimDuration::from_secs(25));
    assert!(
        committed.get() > 100,
        "enough transfers committed: {}",
        committed.get()
    );

    assert_eq!(
        BANK.total(cluster),
        ACCOUNTS as i64 * INITIAL,
        "atomicity violated: money not conserved"
    );
}

fn conservation_cluster() -> Cluster {
    Cluster::build(ClusterConfig {
        seed: 31,
        clients: 6,
        servers: 3,
        regions: 6,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    })
}

/// Runs transfers with a mid-run server crash and client crash, then
/// audits that the total balance is conserved.
#[test]
fn transfers_conserve_total_balance_through_failures() {
    run_transfer_schedule(0, [14_958, 9_183, 9_128, 55]);
}

/// Regression probe for the RNG-shift seed race (ROADMAP "Open items"):
/// the same schedule as
/// [`transfers_conserve_total_balance_through_failures`], but with the
/// simulation's RNG stream shifted by a few extra draws — what any
/// innocent new jittered timer at server start would do.
///
/// Before the fix, shifted schedules lost or invented exactly one
/// transfer amount (a half-applied-looking write-set): the shift made a
/// transaction straddle the round-20 server crash with its start
/// snapshot pinned *below* the flush watermark, and the transaction
/// manager's conflict table was pruned at the watermark — so the
/// straggler's write-write conflict with a transaction committed after
/// its snapshot went undetected and its commit silently overwrote the
/// rival's leg (a lost update). The fix prunes the conflict table at the
/// oldest *pinned* snapshot instead (`cumulo-txn`'s manager); two draws
/// at seed 31 was a deterministic reproduction.
#[test]
fn transfers_conserve_total_balance_with_shifted_rng() {
    for (shift, pin) in [
        (1u32, [15_109, 9_276, 9_194, 82]),
        (2, [14_944, 9_173, 9_127, 46]),
        (3, [15_037, 9_224, 9_154, 70]),
    ] {
        run_transfer_schedule(shift, pin);
    }
}

/// A reader transaction must never observe one half of a two-row
/// transaction: its snapshot (the flush watermark) only exposes fully
/// flushed commits.
#[test]
fn readers_never_observe_partial_write_sets() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 32,
        clients: 4,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    // Writer: repeatedly writes (a, b) with matching values v, v.
    let writer = cluster.client(0).clone();
    let gen = Rc::new(Cell::new(0u64));
    fn write_pair(writer: TransactionalClient, gen: Rc<Cell<u64>>) {
        if !writer.is_alive() {
            return;
        }
        let v = gen.get() + 1;
        gen.set(v);
        writer.begin(move |txn| {
            let Ok(txn) = txn else { return };
            // Rows in different regions (12 and 800 of 1000 split 4 ways).
            let _ = txn.put("user000000000012", "pair", v.to_string());
            let _ = txn.put("user000000000800", "pair", v.to_string());
            txn.commit(|_| {});
        });
    }
    // Reader checks the pair matches in every snapshot it gets.
    let violations = Rc::new(Cell::new(0u32));
    fn read_pair(reader: TransactionalClient, violations: Rc<Cell<u32>>) {
        if !reader.is_alive() {
            return;
        }
        reader.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let violations2 = violations.clone();
            let txn2 = txn.clone();
            txn.get("user000000000012", "pair", move |a| {
                let Ok(a) = a else { return };
                let violations3 = violations2.clone();
                let txn3 = txn2.clone();
                txn2.get("user000000000800", "pair", move |b| {
                    let Ok(b) = b else { return };
                    if a != b {
                        violations3.set(violations3.get() + 1);
                    }
                    txn3.commit(|_| {});
                });
            });
        });
    }
    for _ in 0..200 {
        write_pair(writer.clone(), gen.clone());
        read_pair(cluster.client(1).clone(), violations.clone());
        read_pair(cluster.client(2).clone(), violations.clone());
        cluster.run_for(SimDuration::from_millis(25));
    }
    cluster.run_for(SimDuration::from_secs(5));
    assert_eq!(violations.get(), 0, "a reader observed a torn write-set");
    assert!(gen.get() > 100);
}

/// Same torn-read check, but with a server crash in the middle: recovery
/// replay must not expose partial write-sets either (the paper's region
/// online gating).
#[test]
fn recovery_does_not_expose_partial_write_sets() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 33,
        clients: 4,
        servers: 2,
        regions: 4,
        key_count: 1_000,
        ..ClusterConfig::default()
    });
    let writer = cluster.client(0).clone();
    let violations = Rc::new(Cell::new(0u32));
    let mut wrote = 0u64;
    for round in 0..150u64 {
        if writer.is_alive() {
            let v = round + 1;
            wrote = v;
            writer.begin(move |txn| {
                let Ok(txn) = txn else { return };
                let _ = txn.put("user000000000012", "pair", v.to_string());
                let _ = txn.put("user000000000800", "pair", v.to_string());
                txn.commit(|_| {});
            });
        }
        // Reader on another client.
        let reader = cluster.client(1).clone();
        let violations2 = violations.clone();
        reader.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let v3 = violations2.clone();
            let txn2 = txn.clone();
            txn.get("user000000000012", "pair", move |a| {
                let Ok(a) = a else { return };
                let txn3 = txn2.clone();
                txn2.get("user000000000800", "pair", move |b| {
                    let Ok(b) = b else { return };
                    if a != b {
                        v3.set(v3.get() + 1);
                    }
                    txn3.commit(|_| {});
                });
            });
        });
        cluster.run_for(SimDuration::from_millis(40));
        if round == 75 {
            cluster.crash_server(0);
        }
    }
    cluster.run_for(SimDuration::from_secs(20));
    assert_eq!(violations.get(), 0, "torn read during/after recovery");
    // And the final state reflects some committed pair.
    let a = cluster.read_cell("user000000000012", "pair", SimDuration::from_secs(10));
    let b = cluster.read_cell("user000000000800", "pair", SimDuration::from_secs(10));
    assert_eq!(a, b, "final pair mismatch");
    assert!(wrote > 0);
}

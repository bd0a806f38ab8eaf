//! The conflict-retry combinator: `TransactionalClient::run` re-executes
//! a transfer body in a *new* transaction on write-write conflict, and
//! the bank-transfer invariant (total balance conserved) holds no matter
//! how many attempts were needed — because every attempt re-reads the
//! balances at its own fresh snapshot and a conflicted attempt writes
//! nothing.

mod common;

use common::bank::{account, Bank};
use cumulo_core::{Cluster, ClusterConfig, RetryPolicy, TxnError};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

/// Few accounts + many concurrent writers = reliable write-write
/// conflicts (two transfers picking an overlapping account and
/// committing concurrently).
const ACCOUNTS: u64 = 10;
const INITIAL: i64 = 1_000;
const BANK: Bank = Bank {
    accounts: ACCOUNTS,
    initial: INITIAL,
};

fn transfer(
    cluster: &Cluster,
    client_idx: usize,
    policy: RetryPolicy,
    committed: Rc<Cell<u32>>,
    exhausted: Rc<Cell<u32>>,
) {
    let sim = cluster.sim.clone();
    let from = sim.gen_range(0, ACCOUNTS);
    let to = (from + 1 + sim.gen_range(0, ACCOUNTS - 1)) % ACCOUNTS;
    let amount = sim.gen_range(1, 30) as i64;
    cluster.client(client_idx).run(
        policy,
        move |txn, finish| {
            let txn2 = txn.clone();
            txn.get(account(from), "bal", move |vf| {
                let bf = match vf {
                    Ok(v) => BANK.parse(v),
                    Err(e) => return finish(Err(e)),
                };
                let txn3 = txn2.clone();
                txn2.get(account(to), "bal", move |vt| {
                    let bt = match vt {
                        Ok(v) => BANK.parse(v),
                        Err(e) => return finish(Err(e)),
                    };
                    let wrote = txn3
                        .put(account(from), "bal", (bf - amount).to_string())
                        .and_then(|()| txn3.put(account(to), "bal", (bt + amount).to_string()));
                    finish(wrote);
                });
            });
        },
        move |r| match r {
            Ok(_) => committed.set(committed.get() + 1),
            Err(TxnError::Conflict) => exhausted.set(exhausted.get() + 1),
            Err(e) => panic!("unexpected transfer error: {e}"),
        },
    );
}

#[test]
fn run_retry_conserves_transfer_totals_under_induced_conflicts() {
    let cluster = Cluster::build(ClusterConfig {
        seed: 81,
        clients: 6,
        servers: 2,
        regions: 2,
        key_count: ACCOUNTS,
        ..ClusterConfig::default()
    });
    let committed = Rc::new(Cell::new(0u32));
    let exhausted = Rc::new(Cell::new(0u32));
    let policy = RetryPolicy {
        max_attempts: 8,
        ..RetryPolicy::default()
    };
    // Three transfers in flight per client per round: heavy write-write
    // contention over 10 accounts.
    for _ in 0..40 {
        for ci in 0..cluster.clients.len() {
            for _ in 0..3 {
                transfer(&cluster, ci, policy, committed.clone(), exhausted.clone());
            }
        }
        cluster.run_for(SimDuration::from_millis(300));
    }
    cluster.run_for(SimDuration::from_secs(20));

    let retries: u64 = cluster
        .clients
        .iter()
        .map(|c| c.conflict_retry_count())
        .sum();
    assert!(
        retries > 0,
        "the schedule must induce conflicts for this test to mean anything"
    );
    assert!(
        committed.get() > 200,
        "most transfers should eventually commit, got {}",
        committed.get()
    );

    assert_eq!(
        BANK.total(&cluster),
        ACCOUNTS as i64 * INITIAL,
        "retries must never replay a write-set (committed {}, exhausted {}, retries {retries})",
        committed.get(),
        exhausted.get(),
    );
}

/// The retry schedule itself: deterministic geometric ramp, capped,
/// no RNG draws.
#[test]
fn retry_policy_backoff_is_deterministic_and_capped() {
    let p = RetryPolicy {
        max_attempts: 10,
        initial_backoff: SimDuration::from_millis(10),
        multiplier: 2,
        max_backoff: SimDuration::from_millis(70),
    };
    let ramp: Vec<u64> = (0..5)
        .map(|i| p.backoff_for(i).nanos() / 1_000_000)
        .collect();
    assert_eq!(ramp, vec![10, 20, 40, 70, 70]);
    // And it never draws from a simulation RNG: same inputs, same answer.
    assert_eq!(p.backoff_for(3), p.backoff_for(3));
    assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
}

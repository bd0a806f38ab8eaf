//! The bank-transfer workload the failure suites audit with: accounts
//! `user{i:012}` holding a `bal` column, random zero-sum transfers, and
//! the sum every audit compares against `accounts * initial`.
//!
//! Every helper draws randomness only through `cluster.sim`, in a fixed
//! order (`from`, `to`, `amount` per transfer; one key per filler), so a
//! suite's seed keeps meaning the same schedule.

use cumulo_core::{Cluster, TransactionalClient};
use cumulo_sim::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

/// The row key of account `i`.
pub fn account(i: u64) -> String {
    super::key(i)
}

/// A bank of `accounts` accounts that each open at `initial` (an account
/// never written reads as its opening balance).
#[derive(Copy, Clone)]
pub struct Bank {
    pub accounts: u64,
    pub initial: i64,
}

impl Bank {
    /// The balance a `bal` cell holds.
    pub fn parse(&self, v: Option<bytes::Bytes>) -> i64 {
        v.map(|b| String::from_utf8_lossy(&b).parse().unwrap_or(0))
            .unwrap_or(self.initial)
    }

    /// One money transfer between two distinct random accounts over the
    /// whole key space (so transfers routinely straddle region
    /// boundaries): read both balances, move a random amount, commit.
    /// `committed` counts the transfers whose commit succeeded.
    pub fn transfer(
        &self,
        cluster: &Cluster,
        client: TransactionalClient,
        committed: Rc<Cell<u32>>,
    ) {
        let bank = *self;
        let sim = cluster.sim.clone();
        let from = sim.gen_range(0, bank.accounts);
        let to = (from + 1 + sim.gen_range(0, bank.accounts - 1)) % bank.accounts;
        let amount = sim.gen_range(1, 20) as i64;
        client.begin(move |txn| {
            let Ok(txn) = txn else { return };
            let txn2 = txn.clone();
            txn.get(account(from), "bal", move |vf| {
                let Ok(vf) = vf else { return };
                let bf = bank.parse(vf);
                let txn3 = txn2.clone();
                txn2.get(account(to), "bal", move |vt| {
                    let Ok(vt) = vt else { return };
                    let bt = bank.parse(vt);
                    let _ = txn3.put(account(from), "bal", (bf - amount).to_string());
                    let _ = txn3.put(account(to), "bal", (bt + amount).to_string());
                    txn3.commit(move |r| {
                        if r.is_ok() {
                            committed.set(committed.get() + 1);
                        }
                    });
                });
            });
        });
    }

    /// Every live client fires one transfer, in client order.
    pub fn transfer_round(&self, cluster: &Cluster, committed: &Rc<Cell<u32>>) {
        for i in 0..cluster.clients.len() {
            let client = cluster.client(i).clone();
            if client.is_alive() {
                self.transfer(cluster, client, Rc::clone(committed));
            }
        }
    }

    /// The sum of every balance, read through the cluster's audit path.
    /// Transfers are zero-sum, so once in-flight ones drained anything
    /// but `accounts * initial` means a committed write was lost or
    /// doubly applied.
    pub fn total(&self, cluster: &Cluster) -> i64 {
        (0..self.accounts)
            .map(|i| self.parse(cluster.read_cell(account(i), "bal", SimDuration::from_secs(10))))
            .sum()
    }
}

/// One bulky single-row write into the hot prefix `[0, hot)` (a separate
/// `pad` column, so balances are untouched) — the fuel that grows the
/// regions there past a split threshold.
pub fn filler(cluster: &Cluster, client: TransactionalClient, hot: u64, round: u64) {
    let key = cluster.sim.gen_range(0, hot);
    client.begin(move |txn| {
        let Ok(txn) = txn else { return };
        let _ = txn.put(
            account(key),
            "pad",
            format!("{round:_<512}"), // 512 bytes of padding
        );
        txn.commit(|_| {});
    });
}

/// Steps the simulation in `step`-sized increments until `pred` holds or
/// `max` elapses; returns whether the predicate fired.
pub fn run_until(
    cluster: &Cluster,
    step: SimDuration,
    max: SimDuration,
    mut pred: impl FnMut() -> bool,
) -> bool {
    let deadline = cluster.now() + max;
    while cluster.now() < deadline {
        if pred() {
            return true;
        }
        cluster.run_for(step);
    }
    pred()
}

/// Shifts the RNG stream by `shift` extra draws so the same logical
/// schedule runs under perturbed timings (the repo's standard seed-race
/// probe).
pub fn shift_rng(cluster: &Cluster, shift: u32) {
    for _ in 0..shift {
        let _ = cluster.sim.jitter(SimDuration::from_secs(1), 0.5);
    }
}

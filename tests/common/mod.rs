//! Shared deterministic fault-injection helpers for the failure suites.
//!
//! Every fault a suite injects is a step of one [`plan::FaultPlan`]: a
//! `Debug`-printable list of `(Trigger, Action)` pairs whose
//! triggers are a time offset, an observed cluster state or the run's
//! end, and whose actions are crashes, partitions, heals and
//! recovery-manager flaps. The seed-derived chaos lottery draws its plan
//! up front ([`plan::Lottery`]), so the runner draws no randomness.
//! [`plan::FaultPlan::run`] drives a cluster through rounds of load under
//! it and returns a [`plan::Report`] of what fired, when, and on whom; a failure
//! message prints the plan, the report and the seed, and
//! [`plan::run_or_shrink`] adds the failing plan shrunk to a literal.
//!
//! The structure-change suites' three crash points are written once, in
//! [`crash_points`], for splits, merges and moves. The merge suites'
//! setup crash, which has a precondition of its own, is
//! [`crash_for_adjacency`].
//!
//! Every helper draws randomness only through `cluster.sim`, so a
//! schedule is a pure function of the seed and a failing run replays
//! byte-identically.
//!
//! The bank-transfer workload those suites audit with is in [`bank`];
//! [`audit`] checks a run's recorded history and reads back what it
//! wrote.
//! [`replication_digest`] turns what a run's replication did into one
//! number a suite can pin, [`lines_digest`] does the same for how a
//! run's journal records render, and [`fingerprint`] for a whole run.
//!
//! The setup every suite repeats is here once: the row [`key`], the
//! three-client [`small_cluster`], [`run_txn`] / [`begin_txn`] to drive
//! one transaction, and the flush-forcing [`write_load`].

#![allow(
    dead_code,
    reason = "each integration-test binary compiles its own copy of this module and uses a subset of it"
)]

pub mod bank;
pub mod crash_points;
pub mod plan;

use plan::{Action, Drive, FaultPlan, Victim};

use cumulo_core::{Cluster, ClusterConfig, History, Timestamp, Transaction, TxnError};
use cumulo_sim::{JournalEntry, SimDuration};
use cumulo_store::{RegionId, ServerId};
use std::cell::RefCell;
use std::rc::Rc;

/// The row key of row `i` of the loaded table.
pub fn key(i: u64) -> String {
    format!("user{i:012}")
}

/// Two servers, four regions, three clients over 10 000 keys.
pub fn small_cluster(seed: u64) -> Cluster {
    Cluster::build(ClusterConfig {
        seed,
        clients: 3,
        servers: 2,
        regions: 4,
        key_count: 10_000,
        ..ClusterConfig::default()
    })
}

/// Runs one update transaction to completion, driving the simulation;
/// returns the commit timestamp (panics on abort).
pub fn run_txn(cluster: &Cluster, client_idx: usize, writes: &[(u64, &str, &str)]) -> u64 {
    let client = cluster.client(client_idx).clone();
    let outcome: Rc<RefCell<Option<Result<Timestamp, TxnError>>>> = Rc::new(RefCell::new(None));
    let o = outcome.clone();
    let writes: Vec<(String, String, String)> = writes
        .iter()
        .map(|(k, c, v)| (key(*k), c.to_string(), v.to_string()))
        .collect();
    client.begin(move |txn| {
        let txn = txn.expect("begin on live client");
        for (row, col, val) in &writes {
            txn.put(row.clone(), col.clone(), val.clone()).unwrap();
        }
        txn.commit(move |r| *o.borrow_mut() = Some(r));
    });
    let deadline = cluster.now() + SimDuration::from_secs(30);
    while outcome.borrow().is_none() {
        cluster.run_for(SimDuration::from_millis(20));
        assert!(cluster.now() < deadline, "transaction stalled");
    }
    let r = outcome.borrow_mut().take().unwrap();
    match r {
        Ok(ts) => ts.0,
        Err(e) => panic!("unexpected abort: {e}"),
    }
}

/// Begins a transaction on client `client_idx`, drives the cluster for
/// a second and hands back the handle.
pub fn begin_txn(c: &Cluster, client_idx: usize) -> Transaction {
    let slot: Rc<RefCell<Option<Transaction>>> = Rc::new(RefCell::new(None));
    let s2 = slot.clone();
    c.client(client_idx)
        .begin(move |txn| *s2.borrow_mut() = Some(txn.expect("begin on live client")));
    c.run_for(SimDuration::from_secs(1));
    let txn = slot.borrow_mut().take().expect("begin completed");
    txn
}

/// Drives `rounds` of write-heavy load — every live client writes four
/// random rows of the key space a round, values padded with `pad` bytes
/// so memstores hit the flush threshold quickly. What it committed is
/// for an attached history to audit ([`audit`]).
pub fn write_load(cluster: &Cluster, rounds: u64, pad: usize) {
    let row_count = cluster.config().key_count;
    for round in 0..rounds {
        for ci in 0..cluster.clients.len() {
            let client = cluster.client(ci).clone();
            if !client.is_alive() {
                continue;
            }
            let rows: Vec<u64> = (0..4)
                .map(|_| cluster.sim.gen_range(0, row_count))
                .collect();
            let val = format!("r{round}c{ci}{:=>pad$}", "");
            client.begin(move |txn| {
                let Ok(txn) = txn else { return };
                for r in &rows {
                    let _ = txn.put(key(*r), "f0", format!("{val}-{r:04}"));
                }
                txn.commit(|_| {});
            });
        }
        cluster.run_for(SimDuration::from_millis(250));
    }
}

/// Audits a run that recorded `history` from its start: the checker
/// over the recorded transactions, then a read-back at the newest
/// version of every cell a committed or unresolved write-set holds,
/// checked by the same read rules. Panics naming the first violations.
/// Returns how many cells it read back.
///
/// Run it once the load has drained: a read-back taken while a commit
/// is still flushing would miss it.
pub fn audit(cluster: &Cluster, history: &History) -> usize {
    let mut violations = history.check();
    let read_back = cluster.read_back(history);
    assert!(!read_back.is_empty(), "the history recorded no write");
    violations.extend(history.check_read_back(&read_back));
    let first: Vec<String> = violations
        .iter()
        .take(10)
        .map(ToString::to_string)
        .collect();
    assert!(
        violations.is_empty(),
        "{} history violations, first:\n{}",
        violations.len(),
        first.join("\n")
    );
    read_back.len()
}

/// The merge suites' setup crash. Merge candidates are *adjacent
/// co-hosted* regions, which the bootstrap striping never produces, so
/// each merge schedule first runs ten rounds of `load` (300 ms apart),
/// crashes the last server and waits for the failover to put its regions
/// on survivors. Where they land is the load-aware placement's choice and
/// so the seed's: once every region is online this asserts that some
/// adjacent pair shares a host, and otherwise fails at once — `schedule`
/// (the test's seed, and its RNG shift if it has one) and the placement
/// are in the message — instead of letting the test wait for a merge no
/// server can propose. A seed that fails here is re-seeded, not waited
/// out.
pub fn crash_for_adjacency(cluster: &Cluster, schedule: &str, mut load: impl FnMut()) {
    const TICK: SimDuration = SimDuration::from_millis(300);
    let last = Victim::Index(cluster.servers.len() - 1);
    FaultPlan::new()
        .at_end(Action::CrashServer(last))
        .run(cluster, Drive::rounds(10, TICK).load(|_, _| load()));
    let recovered = bank::run_until(
        cluster,
        SimDuration::from_millis(200),
        SimDuration::from_secs(60),
        || cluster.all_regions_online(),
    );
    assert!(recovered, "{schedule}: setup failover did not finish");
    let map = cluster.master.snapshot_map();
    let placement: Vec<(RegionId, Option<ServerId>)> = map
        .regions()
        .iter()
        .map(|d| (d.id, map.server_for(d.id)))
        .collect();
    assert!(
        placement.windows(2).any(|pair| pair[0].1 == pair[1].1),
        "{schedule}: the setup failover left no adjacent co-hosted pair of regions, so no \
         merge can ever be proposed; placement in key order: {placement:?}. Pick another seed."
    );
}

/// What a run's replication did, as one number: an FNV-1a digest over one
/// `<nanos> <kind>` line per `replication.*` event in journal order
/// (details are left out: they carry sequence numbers), then one line of
/// the servers' summed `ReplicationStats`. A suite that asserts outcomes
/// pins this beside them, so a change to *when* a lane ships, drops or
/// re-syncs shows up even where the outcome survives it.
pub fn replication_digest(cluster: &Cluster) -> u64 {
    assert_eq!(cluster.events.dropped(), 0, "the event journal overflowed");
    let mut text = String::new();
    for e in cluster.events.entries() {
        if e.kind.starts_with("replication.") {
            text += &format!("{} {}\n", e.time.nanos(), e.kind);
        }
    }
    let mut sums = [0u64; 11];
    for server in &cluster.servers {
        let r = server.replication_stats();
        let stats = [
            r.ships.get(),
            r.ship_bytes.get(),
            r.acks.get(),
            r.nacks.get(),
            r.syncs.get(),
            r.applied.get(),
            r.fences.get(),
            r.fenced.get(),
            r.lane_drops.get(),
            r.backlog_bytes.get(),
            r.lag.get(),
        ];
        for (sum, stat) in sums.iter_mut().zip(stats) {
            *sum += stat;
        }
    }
    text += &format!("{sums:?}\n");
    fnv1a(&text)
}

/// What each of a run's `replication.*` events says: [`lines_digest`]
/// over them, the pin beside [`replication_digest`] that covers their
/// details.
pub fn replication_lines_digest(cluster: &Cluster) -> u64 {
    assert_eq!(cluster.events.dropped(), 0, "the event journal overflowed");
    let entries = cluster.events.entries();
    lines_digest(
        entries
            .iter()
            .filter(|e| e.kind.starts_with("replication.")),
    )
}

/// An FNV-1a digest over one full `<nanos> <kind> <detail>` line per
/// entry, as `Journal::dump` renders it: a change to how any of the
/// records renders changes the number.
pub fn lines_digest<'a>(entries: impl IntoIterator<Item = &'a JournalEntry>) -> u64 {
    let text: String = entries
        .into_iter()
        .map(|e| format!("{} {} {}\n", e.time.nanos(), e.kind, e.detail))
        .collect();
    fnv1a(&text)
}

/// What a whole run did, as four numbers a suite can pin: the events
/// the simulation executed and the messages the network sent, delivered
/// and dropped (`Network`'s `Debug` totals, without its node names). A
/// change to when any fault lands, or to what the load draws, moves it.
pub fn fingerprint(cluster: &Cluster) -> [u64; 4] {
    let net = &cluster.net;
    [
        cluster.sim.events_executed(),
        net.messages_sent(),
        net.messages_delivered(),
        net.messages_dropped(),
    ]
}

/// The 64-bit FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    bytes
        .as_ref()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |digest, &byte| {
            (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
        })
}

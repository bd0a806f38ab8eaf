//! Shared deterministic chaos-schedule helpers for the failure suites.
//!
//! Three fault-injection shapes recur across `tests/{chaos, partitions,
//! workload_under_failure, replication_chaos}.rs`:
//!
//! 1. **Fixed schedules** — crash/partition/heal actions pinned to
//!    simulated-time offsets ([`ChaosSchedule`]), run either as pure
//!    time ([`ChaosSchedule::run`]) or interleaved with per-round load
//!    ([`ChaosSchedule::run_rounds`]).
//! 2. **Seed-derived dice faults** — a per-round fault lottery drawn
//!    from the cluster's RNG ([`DiceFaults`]), exactly reproducible
//!    from the seed.
//! 3. **Crash-when-observed** — crash the first server caught in some
//!    transient state, e.g. mid-compaction or mid-split
//!    ([`crash_first_observed`]).
//!
//! The merge suites' setup crash, which has a precondition of its own, is
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
//! number a suite can pin, and [`lines_digest`] does the same for how a
//! run's journal records render.
//!
//! The setup every suite repeats is here once: the row [`key`], the
//! three-client [`small_cluster`], [`run_txn`] / [`begin_txn`] to drive
//! one transaction, and the flush-forcing [`write_load`].

#![allow(
    dead_code,
    reason = "each integration-test binary compiles its own copy of this module and uses a subset of it"
)]

pub mod bank;

use cumulo_core::{Cluster, ClusterConfig, History, Timestamp, Transaction, TxnError};
use cumulo_sim::{JournalEntry, NodeId, SimDuration};
use cumulo_store::{ChangeKind, RegionId, RegionServer, ServerId};
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

/// One fault-injection step in a [`ChaosSchedule`].
pub enum ChaosAction {
    /// Crash the i-th region server.
    CrashServer(usize),
    /// Crash the i-th client.
    CrashClient(usize),
    /// Partition the i-th region server's node from every other node
    /// (the machine drops off the rack switch; the process stays up).
    IsolateServer(usize),
    /// Remove every installed partition.
    HealAll,
    /// Partition a specific node pair.
    Partition(NodeId, NodeId),
    /// Heal a specific node pair.
    Heal(NodeId, NodeId),
    /// Crash the recovery manager process.
    CrashRecoveryManager,
    /// Restart the recovery manager process.
    RestartRecoveryManager,
}

/// A deterministic schedule of [`ChaosAction`]s at simulated-time
/// offsets (relative to when the run starts). Steps at equal offsets
/// apply in insertion order.
pub struct ChaosSchedule {
    steps: Vec<(SimDuration, ChaosAction)>,
}

impl ChaosSchedule {
    pub fn new() -> Self {
        Self { steps: Vec::new() }
    }

    /// Builder: apply `action` once `offset` of simulated time has
    /// elapsed since the run began.
    pub fn at(mut self, offset: SimDuration, action: ChaosAction) -> Self {
        self.steps.push((offset, action));
        self
    }

    fn apply(cluster: &Cluster, action: &ChaosAction) {
        match action {
            ChaosAction::CrashServer(i) => cluster.crash_server(*i),
            ChaosAction::CrashClient(i) => cluster.crash_client(*i),
            ChaosAction::IsolateServer(i) => cluster.net.isolate(cluster.servers[*i].node()),
            ChaosAction::HealAll => cluster.net.heal_all(),
            ChaosAction::Partition(a, b) => cluster.net.partition(*a, *b),
            ChaosAction::Heal(a, b) => cluster.net.heal(*a, *b),
            ChaosAction::CrashRecoveryManager => cluster.crash_recovery_manager(),
            ChaosAction::RestartRecoveryManager => cluster.restart_recovery_manager(),
        }
    }

    fn sorted(&self) -> Vec<&(SimDuration, ChaosAction)> {
        let mut steps: Vec<&(SimDuration, ChaosAction)> = self.steps.iter().collect();
        steps.sort_by_key(|(t, _)| *t); // stable: ties keep insertion order
        steps
    }

    /// Pure-time run: advance the cluster to each step's offset in
    /// order, apply it, then run out the remainder of `total`.
    pub fn run(&self, cluster: &Cluster, total: SimDuration) {
        let mut elapsed = SimDuration::ZERO;
        for (t, action) in self.sorted() {
            if *t > elapsed {
                cluster.run_for(t.saturating_sub(elapsed));
                elapsed = *t;
            }
            Self::apply(cluster, action);
        }
        if total > elapsed {
            cluster.run_for(total.saturating_sub(elapsed));
        }
    }

    /// Round-based run under load: each round first applies every step
    /// due at or before the round's start offset, then fires `load`,
    /// then advances one `tick`. Steps due after the final round still
    /// apply at the end (offset exactly `rounds * tick`).
    pub fn run_rounds(
        &self,
        cluster: &Cluster,
        rounds: u64,
        tick: SimDuration,
        mut load: impl FnMut(&Cluster, u64),
    ) {
        let steps = self.sorted();
        let mut next = 0usize;
        for round in 0..rounds {
            let now = tick * round;
            while next < steps.len() && steps[next].0 <= now {
                Self::apply(cluster, &steps[next].1);
                next += 1;
            }
            load(cluster, round);
            cluster.run_for(tick);
        }
        while next < steps.len() {
            Self::apply(cluster, &steps[next].1);
            next += 1;
        }
    }
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        Self::new()
    }
}

/// The chaos suite's per-round fault lottery: each call rolls one
/// `[0, 100)` die from the cluster RNG and maybe crashes a server,
/// crashes a client, or flaps the recovery manager — bounded so the
/// cluster can always still make progress. Deterministic in the seed.
pub struct DiceFaults {
    /// Never take more than this many servers down.
    pub max_servers_down: usize,
    /// Never crash a client when only this many remain alive.
    pub min_live_clients: usize,
    rm_down: bool,
    servers_down: usize,
}

impl DiceFaults {
    pub fn new() -> Self {
        Self {
            max_servers_down: 2,
            min_live_clients: 2,
            rm_down: false,
            servers_down: 0,
        }
    }

    /// Rolls this round's fault die and applies the outcome.
    pub fn round(&mut self, cluster: &Cluster) {
        let dice = cluster.sim.gen_range(0, 100);
        match dice {
            0..=3 if self.servers_down < self.max_servers_down => {
                // Crash a random live server (always keep one).
                let live: Vec<usize> = (0..cluster.servers.len())
                    .filter(|i| cluster.servers[*i].is_alive())
                    .collect();
                if live.len() > 1 {
                    let victim = live[cluster.sim.gen_range(0, live.len() as u64) as usize];
                    cluster.crash_server(victim);
                    self.servers_down += 1;
                }
            }
            4..=6 => {
                // Crash a random live client (keep a quorum of them).
                let live: Vec<usize> = (0..cluster.clients.len())
                    .filter(|i| cluster.clients[*i].is_alive())
                    .collect();
                if live.len() > self.min_live_clients {
                    let victim = live[cluster.sim.gen_range(0, live.len() as u64) as usize];
                    cluster.crash_client(victim);
                }
            }
            7..=8 if !self.rm_down => {
                cluster.crash_recovery_manager();
                self.rm_down = true;
            }
            9..=11 if self.rm_down => {
                cluster.restart_recovery_manager();
                self.rm_down = false;
            }
            _ => {}
        }
    }

    /// End of schedule: bring a downed recovery manager back so the
    /// convergence phase can drain.
    pub fn settle(&mut self, cluster: &Cluster) {
        if self.rm_down {
            cluster.restart_recovery_manager();
            self.rm_down = false;
        }
    }
}

impl Default for DiceFaults {
    fn default() -> Self {
        Self::new()
    }
}

/// Crashes the first live server observed with a hosted region in the
/// state `pred` describes (mid-compaction, mid-split, …). Returns true
/// if a victim was found and crashed. Poll this between fine-grained
/// `run_for` steps to land a crash inside a transient window.
pub fn crash_first_observed(
    cluster: &Cluster,
    pred: impl Fn(&RegionServer, RegionId) -> bool,
) -> bool {
    let victim = (0..cluster.servers.len()).find(|&i| {
        let s = &cluster.servers[i];
        s.is_alive() && s.hosted_regions().iter().any(|r| pred(s, *r))
    });
    match victim {
        Some(v) => {
            cluster.crash_server(v);
            true
        }
        None => false,
    }
}

/// The index of the live server with a structure change of `kind`
/// pending or executing, if any.
pub fn changing_server(cluster: &Cluster, kind: ChangeKind) -> Option<usize> {
    cluster
        .servers
        .iter()
        .position(|s| s.is_alive() && s.pending_change() == Some(kind))
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
    for _ in 0..10 {
        load();
        cluster.run_for(SimDuration::from_millis(300));
    }
    cluster.crash_server(cluster.servers.len() - 1);
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

/// The 64-bit FNV-1a hash of `text`.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |digest, byte| {
        (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

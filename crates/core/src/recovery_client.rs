//! The recovery client `c_R` — the recovery manager's local client that
//! replays write-sets from the transaction manager's log.
//!
//! It differs from a regular client in three ways (§3.2): it replays with
//! the *original* commit timestamp instead of requesting a fresh one; in
//! server recovery it filters each write-set down to the updates that
//! fall in the recovering region; and it piggybacks the failed server's
//! `T_P(s)` on every replayed update so the receiving server inherits
//! responsibility for the replayed data.

use cumulo_sim::metrics::Counter;
use cumulo_sim::Sim;
use cumulo_store::{Mutation, RegionId, StoreClient, Timestamp};
use cumulo_txn::{LogRecord, TmClient};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Replayed write-set portions a region replay keeps in flight. Replay
/// is idempotent and every version is keyed by its original commit
/// timestamp, so portions may land in any order — as live clients'
/// flushes already do; one at a time, each paid a full round trip while
/// the recovering server's handlers sat idle. A handful is enough to keep
/// those busy: the replay is then bound by their service time.
const REPLAY_WINDOW: usize = 8;

/// One region's replay in progress (shared by its in-flight portions).
struct RegionReplay {
    region: RegionId,
    floor: Timestamp,
    items: Vec<(Timestamp, Vec<Mutation>)>,
    /// The next item to send.
    next: Cell<usize>,
    /// Items acknowledged so far.
    applied: Cell<usize>,
    done: RefCell<Option<Box<dyn FnOnce()>>>,
}

/// The recovery client. Shared via `Rc`; lives on the recovery manager's
/// node.
pub struct RecoveryClient {
    sim: Sim,
    store: StoreClient,
    tm: TmClient,
    client_txns_replayed: Counter,
    region_txns_replayed: Counter,
}

impl fmt::Debug for RecoveryClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryClient")
            .field("client_txns_replayed", &self.client_txns_replayed.get())
            .field("region_txns_replayed", &self.region_txns_replayed.get())
            .finish()
    }
}

impl RecoveryClient {
    /// Creates the recovery client; `store` and `tm` must both be bound
    /// to the recovery manager's node.
    pub fn new(sim: &Sim, store: StoreClient, tm: TmClient) -> Rc<RecoveryClient> {
        Rc::new(RecoveryClient {
            sim: sim.clone(),
            store,
            tm,
            client_txns_replayed: Counter::new(),
            region_txns_replayed: Counter::new(),
        })
    }

    /// The region containing `row` (static boundary lookup, used by the
    /// recovery manager to filter write-sets per region).
    pub fn region_for(&self, row: &[u8]) -> RegionId {
        self.store.region_for(row)
    }

    /// Re-seeds the store client's region map from the master (called by
    /// the cluster harness after the table is bootstrapped).
    pub fn reseed_region_map(&self) {
        self.store.reseed_region_map();
    }

    /// Client recovery (Algorithm 2): replays each record's *full*
    /// write-set with its original commit timestamp, sequentially in
    /// commit order, notifying the transaction manager of each completed
    /// flush (the dead client can no longer do so). `done` runs when the
    /// whole log suffix has been replayed.
    pub fn replay_client_log(self: &Rc<Self>, records: Vec<LogRecord>, done: Box<dyn FnOnce()>) {
        self.replay_client_next(Rc::new(records), 0, done);
    }

    fn replay_client_next(
        self: &Rc<Self>,
        records: Rc<Vec<LogRecord>>,
        idx: usize,
        done: Box<dyn FnOnce()>,
    ) {
        let Some(record) = records.get(idx) else {
            done();
            return;
        };
        let ts = record.ts;
        let this = Rc::clone(self);
        let records2 = Rc::clone(&records);
        // Replays use the original commit timestamp; no fresh one is
        // requested. Not flagged as a region replay: client-recovery
        // targets normally-online regions and retries through outages.
        self.store.flush(ts, &record.write_set, move || {
            this.client_txns_replayed.inc();
            // The dead client cannot report the flush; c_R does it.
            this.tm.flush_complete(ts);
            this.replay_client_next(records2, idx + 1, done);
        });
    }

    /// Server recovery (Algorithm 4's replay): applies the given
    /// region-filtered updates to the recovering region, `REPLAY_WINDOW`
    /// of them in flight at a time, each carrying the effective recovery
    /// `floor` (the failed server's `T_P(s)`, lowered further by any
    /// interrupted earlier recovery of the same region). `done` runs when
    /// every update is applied.
    pub fn replay_region_log(
        self: &Rc<Self>,
        region: RegionId,
        items: Vec<(Timestamp, Vec<Mutation>)>,
        floor: Timestamp,
        done: Box<dyn FnOnce()>,
    ) {
        let txns = items.len();
        self.sim
            .events()
            .record(self.sim.now(), "region.replay_start", move || {
                format!("region={region} txns={txns}")
            });
        if items.is_empty() {
            done();
            return;
        }
        let replay = Rc::new(RegionReplay {
            region,
            floor,
            items,
            next: Cell::new(0),
            applied: Cell::new(0),
            done: RefCell::new(Some(done)),
        });
        for _ in 0..REPLAY_WINDOW {
            self.replay_region_next(&replay);
        }
    }

    /// Sends the replay's next unsent item, if any; its ack sends the one
    /// after, or completes the replay when it is the last one out.
    fn replay_region_next(self: &Rc<Self>, replay: &Rc<RegionReplay>) {
        let idx = replay.next.get();
        let Some((ts, mutations)) = replay.items.get(idx) else {
            return;
        };
        replay.next.set(idx + 1);
        let this = Rc::clone(self);
        let replay2 = Rc::clone(replay);
        // `replay = true`: the target region is still offline (gated on
        // this very recovery); the floor piggyback makes the receiving
        // server inherit responsibility for the replayed updates.
        self.store.multi_put(
            replay.region,
            *ts,
            mutations.clone(),
            Some(replay.floor),
            true,
            move || {
                this.region_txns_replayed.inc();
                replay2.applied.set(replay2.applied.get() + 1);
                if replay2.applied.get() < replay2.items.len() {
                    this.replay_region_next(&replay2);
                } else if let Some(done) = replay2.done.borrow_mut().take() {
                    done();
                }
            },
        );
    }

    /// Transactions replayed by client recoveries.
    pub fn client_txns_replayed(&self) -> u64 {
        self.client_txns_replayed.get()
    }

    /// Per-region write-set portions replayed by server recoveries.
    pub fn region_txns_replayed(&self) -> u64 {
        self.region_txns_replayed.get()
    }
}

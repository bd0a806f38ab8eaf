//! Server-side persisted-threshold tracking — Algorithm 3 of the paper.
//!
//! Each region server maintains a threshold timestamp `T_P(s)` with the
//! local invariant: *every transaction with commit timestamp ≤ `T_P(s)`
//! in which this server participates has been received in full and
//! persisted (its WAL records are durable in the filesystem).*
//!
//! A server cannot deduce this from its own receipts alone (a gap in the
//! timestamps it saw may be a transaction it simply does not participate
//! in — §3.2's "20, 22, 23 but misses 21" example). The paper's solution:
//! the server advances `T_P(s)` only up to the *global flushed threshold*
//! `T_F` published by the recovery manager, because every transaction
//! ≤ `T_F` is known to have been received in full by all its
//! participants. The heartbeat first persists everything received (drains
//! `PQ` by syncing the WAL), then advances.
//!
//! Two refinements close races the paper leaves implicit (ARCHITECTURE.md,
//! "Protocol refinements"):
//!
//! * **floors** — a replayed update carries the failed server's
//!   `T_P(s_failed)`; `T_P` drops to that floor immediately and cannot
//!   re-advance past any *unsynced* replay entry's floor;
//! * **entry bound** — `T_P` never advances past an unsynced entry's own
//!   timestamp, so a `T_F` that was computed *after* a flush ack cannot
//!   overclaim an entry still sitting in the WAL buffer.
//!
//! The invariant is load-bearing twice over: server-failure recovery
//! replays only the log suffix *above* the failed server's `T_P(s)`
//! (anything below must already be in its durable WAL, i.e. in the
//! store file the WAL split writes), and the recovery manager truncates
//! the log below the global `T_P` — an overclaim would therefore both
//! skip a needed replay *and* destroy the record that could have fixed
//! it.

use cumulo_store::Timestamp;
use std::collections::BTreeMap;
use std::fmt;

#[derive(Clone, Copy, Debug)]
struct PqEntry {
    ts: Timestamp,
    floor: Option<Timestamp>,
}

impl PqEntry {
    /// The highest `T_P` permitted while this entry is unsynced.
    fn bound(&self) -> Timestamp {
        match self.floor {
            Some(f) => f,
            None => Timestamp(self.ts.0.saturating_sub(1)),
        }
    }
}

/// The `(PQ, T_P)` state of one region server.
///
/// # Example
///
/// ```
/// use cumulo_core::PersistTracker;
/// use cumulo_store::Timestamp;
///
/// let mut t = PersistTracker::new();
/// t.on_applied(Timestamp(10), 1, None);
/// t.on_t_f(Timestamp(10)); // recovery manager's global flushed threshold
/// // Heartbeat: the WAL synced through sequence 1.
/// t.on_synced(1);
/// assert_eq!(t.t_p(), Timestamp(10));
/// ```
pub struct PersistTracker {
    /// Applied-but-unsynced write-set portions, keyed by WAL sequence.
    pq: BTreeMap<u64, PqEntry>,
    t_p: Timestamp,
    /// Latest global `T_F` received from the recovery manager (`T'_F`).
    t_f_latest: Timestamp,
}

impl fmt::Debug for PersistTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistTracker")
            .field("t_p", &self.t_p)
            .field("t_f_latest", &self.t_f_latest)
            .field("pq_len", &self.pq.len())
            .finish()
    }
}

impl Default for PersistTracker {
    fn default() -> Self {
        PersistTracker::new()
    }
}

impl PersistTracker {
    /// Creates a tracker with `T_P = 0`.
    pub fn new() -> PersistTracker {
        PersistTracker::with_threshold(Timestamp::ZERO)
    }

    /// Creates a tracker starting at the given threshold (Algorithm 4
    /// seeds a registering server with the current global `T_P`).
    pub fn with_threshold(t_p: Timestamp) -> PersistTracker {
        PersistTracker {
            pq: BTreeMap::new(),
            t_p,
            t_f_latest: Timestamp::ZERO,
        }
    }

    /// Records a write-set portion applied to the WAL buffer + memstore
    /// ("On receive: apply; PQ.queue"). `floor` is the piggybacked
    /// `T_P(s_failed)` of a recovery replay; per Algorithm 3 it lowers
    /// `T_P` immediately, so this server "inherits responsibility for the
    /// replayed updates".
    pub fn on_applied(&mut self, ts: Timestamp, wal_seq: u64, floor: Option<Timestamp>) {
        self.pq.insert(wal_seq, PqEntry { ts, floor });
        if let Some(f) = floor {
            if f < self.t_p {
                self.t_p = f;
            }
        }
    }

    /// Records the latest global `T_F` published by the recovery manager
    /// ("T'_F ← read latest T_F from recovery manager").
    pub fn on_t_f(&mut self, t_f: Timestamp) {
        if t_f > self.t_f_latest {
            self.t_f_latest = t_f;
        }
    }

    /// Heartbeat completion: the WAL is durable through `synced_seq`.
    /// Drains the covered `PQ` entries and advances `T_P` to the highest
    /// safe value: `min(T'_F, bounds of remaining unsynced entries)`,
    /// never regressing. Returns the new threshold.
    pub fn on_synced(&mut self, synced_seq: u64) -> Timestamp {
        self.pq = self.pq.split_off(&(synced_seq + 1));
        let bound = self.pq.values().map(PqEntry::bound).min();
        let candidate = match bound {
            Some(b) => self.t_f_latest.min(b),
            None => self.t_f_latest,
        };
        if candidate > self.t_p {
            self.t_p = candidate;
        }
        self.t_p
    }

    /// The current persisted threshold.
    pub fn t_p(&self) -> Timestamp {
        self.t_p
    }

    /// Applied-but-unsynced entries — the paper's queue-size alert
    /// monitors this (§3.2).
    pub fn pending(&self) -> usize {
        self.pq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_to_t_f_after_sync() {
        let mut t = PersistTracker::new();
        t.on_applied(Timestamp(5), 1, None);
        t.on_applied(Timestamp(7), 2, None);
        t.on_t_f(Timestamp(6));
        assert_eq!(t.t_p(), Timestamp::ZERO, "no advance before sync");
        assert_eq!(t.on_synced(2), Timestamp(6));
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn does_not_advance_past_unsynced_entries() {
        let mut t = PersistTracker::new();
        t.on_applied(Timestamp(5), 1, None);
        t.on_t_f(Timestamp(10));
        // Entry 5 (seq 1) is NOT covered by this sync: T_P must stay
        // below 5 even though T_F says 10.
        t.on_applied(Timestamp(12), 2, None);
        assert_eq!(t.on_synced(0), Timestamp(4));
        assert_eq!(t.on_synced(1), Timestamp(10), "now only ts-12 is unsynced");
        assert_eq!(t.on_synced(2), Timestamp(10));
    }

    #[test]
    fn replay_floor_lowers_immediately_and_pins_until_synced() {
        let mut t = PersistTracker::new();
        t.on_t_f(Timestamp(100));
        t.on_synced(0);
        assert_eq!(t.t_p(), Timestamp(100));
        // A replayed update for a failed server with T_P(s)=30 arrives.
        t.on_applied(Timestamp(50), 1, Some(Timestamp(30)));
        assert_eq!(
            t.t_p(),
            Timestamp(30),
            "inherits responsibility immediately"
        );
        // T_F moves on, but the floor pins T_P while the replay is unsynced.
        t.on_t_f(Timestamp(120));
        assert_eq!(t.on_synced(0), Timestamp(30));
        // Once synced, T_P may advance past the floor.
        assert_eq!(t.on_synced(1), Timestamp(120));
    }

    #[test]
    fn multiple_floors_take_the_minimum() {
        let mut t = PersistTracker::new();
        t.on_t_f(Timestamp(100));
        t.on_synced(0); // raise T_P to 100 first
        t.on_applied(Timestamp(60), 1, Some(Timestamp(40)));
        t.on_applied(Timestamp(55), 2, Some(Timestamp(20)));
        assert_eq!(t.t_p(), Timestamp(20));
        // Sync only the first: the second floor still pins.
        assert_eq!(t.on_synced(1), Timestamp(20));
        assert_eq!(t.on_synced(2), Timestamp(100));
    }

    #[test]
    fn t_p_is_monotone_absent_floors() {
        let mut t = PersistTracker::new();
        t.on_t_f(Timestamp(50));
        t.on_synced(0);
        assert_eq!(t.t_p(), Timestamp(50));
        // A stale (lower) T_F cannot regress the threshold.
        let mut stale = PersistTracker::new();
        stale.on_t_f(Timestamp(50));
        stale.on_synced(0);
        stale.on_t_f(Timestamp(40)); // ignored: on_t_f keeps the max
        stale.on_synced(0);
        assert_eq!(stale.t_p(), Timestamp(50));
    }

    #[test]
    fn seeded_threshold() {
        let t = PersistTracker::with_threshold(Timestamp(33));
        assert_eq!(t.t_p(), Timestamp(33));
    }

    #[test]
    fn idempotent_duplicate_receipts_are_harmless() {
        // A client retry redelivers a write-set: both copies enter PQ at
        // different WAL sequences; both must be covered before advancing.
        let mut t = PersistTracker::new();
        t.on_t_f(Timestamp(10));
        t.on_applied(Timestamp(8), 1, None);
        t.on_applied(Timestamp(8), 2, None); // duplicate
        assert_eq!(
            t.on_synced(1),
            Timestamp(7),
            "duplicate unsynced: bound at 7"
        );
        assert_eq!(t.on_synced(2), Timestamp(10));
    }

    #[test]
    fn paper_gap_example() {
        // §3.2: server received and persisted 20, 22, 23 but not 21. With
        // T_F = 20 it must hold at 20; once T_F reaches 23 (global flush
        // of 21 confirmed by its client), it may advance to 23.
        let mut t = PersistTracker::new();
        t.on_applied(Timestamp(20), 1, None);
        t.on_applied(Timestamp(22), 2, None);
        t.on_applied(Timestamp(23), 3, None);
        t.on_t_f(Timestamp(20));
        assert_eq!(t.on_synced(3), Timestamp(20));
        t.on_t_f(Timestamp(23));
        assert_eq!(t.on_synced(3), Timestamp(23));
    }
}

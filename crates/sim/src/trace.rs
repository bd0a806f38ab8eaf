//! Bounded, deterministic in-memory journals for trace spans and
//! failure events.
//!
//! A [`Journal`] is an append-only ring buffer of timestamped records.
//! Every [`Sim`](crate::Sim) owns two from its creation on, and they are
//! the only ones there are: a *trace journal* ([`Sim::trace`](crate::Sim::trace))
//! holding per-transaction lifecycle spans and per-RPC service-time
//! breakdowns, and a *failure-event journal*
//! ([`Sim::events`](crate::Sim::events)) holding recovery-protocol
//! transitions (crash, failover, WAL replay, threshold advancement,
//! split and compaction state changes).
//!
//! Determinism rules (see ARCHITECTURE.md, "Observability"):
//!
//! * entries are timestamped in **sim-time only** — no wall clock;
//! * recording never draws from the simulation RNG and never schedules
//!   events, so it cannot perturb an execution;
//! * every accessor returns entries in `(time, seq)` order, where `seq`
//!   is the global record order — two runs of the same seed produce
//!   byte-identical [`Journal::dump`] output;
//! * the ring-buffer cap bounds memory: the oldest entries are evicted
//!   first, but the per-kind [`Journal::counts`] keep counting evicted
//!   records, so aggregate assertions survive long runs.
//!
//! ## Details render on read
//!
//! The journals are always on, and a run nobody inspects evicts almost
//! every record unread. So [`Journal::record`] keeps the
//! closure that renders a record's detail line and runs it the first
//! time the record is read ([`Journal::entries`],
//! [`Journal::drain_sorted`], [`Journal::dump`]) — or never, if the ring
//! evicts the record first. What a read returns must be what recording
//! eagerly would have stored, hence the **capture-values rule**: a detail
//! closure owns everything it formats — `move` closures over `Copy`
//! values, or clones taken at the record site — and never holds an `Rc`
//! (or any other handle) to state that can change between the record and
//! the read. Debug builds check the rule: `record` renders eagerly as
//! well, and the read asserts that the late rendering is the same string.
//!
//! Handles are cheap to clone (`Rc`-shared) and single-threaded, like
//! the rest of the simulation.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

/// One journal record: a sim-timestamped, kind-tagged detail line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEntry {
    /// Simulation time at which the record was appended.
    pub time: SimTime,
    /// Global append order (monotonic across all kinds); breaks ties
    /// between records appended in the same simulation instant.
    pub seq: u64,
    /// Record kind, e.g. `"rpc.get"` or `"split.applied"` — a static
    /// taxonomy so per-kind counting needs no allocation.
    pub kind: &'static str,
    /// Free-form `key=value` detail (deterministic content only).
    pub detail: String,
}

/// A record's detail line: the closure given to [`Journal::record`]
/// until the record is first read, the string it rendered afterwards.
enum Detail {
    Pending {
        render: Box<dyn Fn() -> String>,
        /// What rendering at record time gave (module docs).
        #[cfg(debug_assertions)]
        eager: String,
    },
    Rendered(String),
}

/// A retained record: a [`JournalEntry`] whose detail may be pending.
struct Slot {
    time: SimTime,
    seq: u64,
    kind: &'static str,
    detail: Detail,
}

impl Slot {
    /// The record as readers see it, its detail rendered now if this is
    /// the first read; `detail` copies the rendered line, or takes it
    /// when the record is leaving the ring.
    fn entry(&mut self, detail: impl FnOnce(&mut String) -> String) -> JournalEntry {
        if let Detail::Pending {
            render,
            #[cfg(debug_assertions)]
            eager,
        } = &self.detail
        {
            let line = render();
            #[cfg(debug_assertions)]
            assert_eq!(
                &line, eager,
                "the detail closure of a {} record captured state that changed after the record",
                self.kind
            );
            self.detail = Detail::Rendered(line);
        }
        let Detail::Rendered(line) = &mut self.detail else {
            unreachable!("rendered above");
        };
        JournalEntry {
            time: self.time,
            seq: self.seq,
            kind: self.kind,
            detail: detail(line),
        }
    }
}

struct JournalInner {
    entries: VecDeque<Slot>,
    counts: BTreeMap<&'static str, u64>,
    next_seq: u64,
    dropped: u64,
    cap: usize,
}

/// A bounded, deterministic event journal (see the module docs).
#[derive(Clone)]
pub struct Journal {
    inner: Rc<RefCell<JournalInner>>,
}

impl Journal {
    /// Creates a journal retaining at most `cap` entries (oldest evicted
    /// first; per-kind counts keep counting). Only the kernel does: a
    /// run's journals are its [`Sim`](crate::Sim)'s.
    pub(crate) fn new(cap: usize) -> Journal {
        Journal {
            inner: Rc::new(RefCell::new(JournalInner {
                entries: VecDeque::new(),
                counts: BTreeMap::new(),
                next_seq: 0,
                dropped: 0,
                cap,
            })),
        }
    }

    /// Appends one record. `detail` renders the record's detail line; it
    /// runs when the record is first read, and never if the ring evicts
    /// the record unread. It must therefore
    /// own what it formats — see the capture-values rule in the module
    /// docs, which debug builds enforce by also rendering here.
    pub fn record(&self, now: SimTime, kind: &'static str, detail: impl Fn() -> String + 'static) {
        let mut inner = self.inner.borrow_mut();
        *inner.counts.entry(kind).or_insert(0) += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.cap == 0 {
            // Counts-only journal: nothing retained.
            inner.dropped += 1;
            return;
        }
        if inner.entries.len() == inner.cap {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(Slot {
            time: now,
            seq,
            kind,
            detail: Detail::Pending {
                #[cfg(debug_assertions)]
                eager: detail(),
                render: Box::new(detail),
            },
        });
    }

    /// Number of entries currently retained (≤ the cap).
    pub fn len(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().entries.is_empty()
    }

    /// Entries evicted by the ring-buffer cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Total records ever appended (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.inner.borrow().next_seq
    }

    /// Records appended under `kind`, including evicted ones.
    pub fn count(&self, kind: &str) -> u64 {
        self.inner.borrow().counts.get(kind).copied().unwrap_or(0)
    }

    /// Per-kind record counts, sorted by kind. Includes evicted records.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .borrow()
            .counts
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// A copy of the retained entries in `(time, seq)` order.
    pub fn entries(&self) -> Vec<JournalEntry> {
        let mut inner = self.inner.borrow_mut();
        let mut v: Vec<JournalEntry> = inner
            .entries
            .iter_mut()
            .map(|s| s.entry(|line| line.clone()))
            .collect();
        v.sort_by_key(|e| (e.time, e.seq));
        v
    }

    /// Removes and returns the retained entries in `(time, seq)` order.
    /// Per-kind counts and the total are unaffected.
    pub fn drain_sorted(&self) -> Vec<JournalEntry> {
        let mut inner = self.inner.borrow_mut();
        let mut v: Vec<JournalEntry> = inner
            .entries
            .drain(..)
            .map(|mut s| s.entry(std::mem::take))
            .collect();
        v.sort_by_key(|e| (e.time, e.seq));
        v
    }

    /// Renders the retained entries as one line per record —
    /// `<nanos> <kind> <detail>` — in `(time, seq)` order. Two runs of
    /// the same seed produce byte-identical dumps (the journal
    /// determinism probe in the test suite diffs exactly this).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in self.entries() {
            out.push_str(&format!("{} {} {}\n", e.time.nanos(), e.kind, e.detail));
        }
        out
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Journal")
            .field("len", &inner.entries.len())
            .field("total", &inner.next_seq)
            .field("dropped", &inner.dropped)
            .field("cap", &inner.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn records_and_dumps_in_order() {
        let j = Journal::new(16);
        j.record(t(5), "b", || "x=1".into());
        j.record(t(5), "a", || "x=2".into());
        j.record(t(9), "b", || "x=3".into());
        assert_eq!(j.len(), 3);
        assert_eq!(j.count("b"), 2);
        assert_eq!(j.dump(), "5 b x=1\n5 a x=2\n9 b x=3\n");
    }

    #[test]
    fn ring_cap_evicts_oldest_but_counts_survive() {
        let j = Journal::new(2);
        for i in 0..5u64 {
            j.record(t(i), "k", move || format!("i={i}"));
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.count("k"), 5);
        assert_eq!(j.total_recorded(), 5);
        let e = j.entries();
        assert_eq!(e[0].detail, "i=3");
        assert_eq!(e[1].detail, "i=4");
    }

    /// How often a detail closure runs at record time: debug builds
    /// render eagerly as well, to check the capture-values rule.
    const EAGER: u32 = cfg!(debug_assertions) as u32;

    /// A detail closure that counts its calls.
    fn counted(calls: &Rc<Cell<u32>>, line: &'static str) -> impl Fn() -> String + 'static {
        let calls = Rc::clone(calls);
        move || {
            calls.set(calls.get() + 1);
            line.to_owned()
        }
    }

    #[test]
    fn details_render_on_first_read_only() {
        let j = Journal::new(8);
        let calls = Rc::new(Cell::new(0));
        j.record(t(2), "k", counted(&calls, "b"));
        j.record(t(1), "k", counted(&calls, "a"));
        assert_eq!(calls.get(), 2 * EAGER, "recording renders nothing");
        let read = j.entries();
        assert_eq!(calls.get(), 2 * EAGER + 2);
        // What a read returns is what eager recording stored: same
        // fields, same order, same dump.
        let details: Vec<&str> = read.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, ["a", "b"]);
        assert_eq!((read[0].seq, read[1].seq), (1, 0));
        assert_eq!(j.dump(), "1 k a\n2 k b\n");
        assert_eq!(j.entries(), read);
        assert_eq!(calls.get(), 2 * EAGER + 2, "later reads reuse the line");
        // Draining hands the rendered lines over; nothing is left to
        // render twice.
        assert_eq!(j.drain_sorted(), read);
        assert!(j.entries().is_empty());
        assert_eq!(calls.get(), 2 * EAGER + 2);
    }

    #[test]
    fn drain_renders_unread_entries_once() {
        let j = Journal::new(8);
        let calls = Rc::new(Cell::new(0));
        j.record(t(1), "k", counted(&calls, "a"));
        assert_eq!(j.drain_sorted()[0].detail, "a");
        assert_eq!(calls.get(), EAGER + 1);
        assert!(j.drain_sorted().is_empty() && j.entries().is_empty());
        assert_eq!(calls.get(), EAGER + 1);
    }

    #[test]
    fn evicted_records_never_render() {
        let calls = Rc::new(Cell::new(0));
        let j = Journal::new(1);
        j.record(t(1), "k", counted(&calls, "evicted"));
        j.record(t(2), "k", counted(&calls, "kept"));
        let counts_only = Journal::new(0);
        counts_only.record(t(1), "k", counted(&calls, "uncounted"));
        assert_eq!(j.dump(), "2 k kept\n");
        assert_eq!(calls.get(), 2 * EAGER + 1, "only the retained record");
        assert_eq!((j.dropped(), counts_only.dropped()), (1, 1));
    }

    /// The capture-values rule, enforced: a closure that reads shared
    /// state renders differently late than it would have at record time.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "captured state that changed")]
    fn a_detail_over_shared_state_is_caught_on_read() {
        let j = Journal::new(8);
        let state = Rc::new(Cell::new(1));
        let seen = Rc::clone(&state);
        j.record(t(1), "k", move || format!("state={}", seen.get()));
        state.set(2);
        j.entries();
    }

    #[test]
    fn drain_empties_entries_only() {
        let j = Journal::new(8);
        j.record(t(1), "k", || "a".into());
        j.record(t(2), "k", || "b".into());
        let drained = j.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert!(j.is_empty());
        assert_eq!(j.count("k"), 2);
    }
}

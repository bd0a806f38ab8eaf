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
//! ## Records are typed fields, rendered on read
//!
//! A record is its kind plus at most [`MAX_FIELDS`] named [`Value`]s,
//! built with the [`fields!`](crate::fields) macro. [`Journal::record`]
//! copies them into the ring with no heap allocation; a read
//! ([`Journal::entries`], [`Journal::drain_sorted`], [`Journal::dump`])
//! renders them as the record's `name=value` detail line, and a record
//! the ring evicts unread is never rendered. A value is a copy taken at
//! the record site, so a late rendering is what an eager one would have
//! been. Readers that want the facts rather than the text take them from
//! [`JournalEntry::field`].
//!
//! Handles are cheap to clone (`Rc`-shared) and single-threaded, like
//! the rest of the simulation.

use crate::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// The most fields a record carries (`rpc.get` and `rpc.scan` have
/// seven).
pub const MAX_FIELDS: usize = 7;

/// One field's value; its `Display` is the field's rendering. `T` holds
/// a `Text`'s string: an `Rc<str>`, except in a ring slot, which keeps
/// the string beside its values so that they are `Copy` (`Slot`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value<T = Rc<str>> {
    /// A count, size, time in nanoseconds, timestamp or sequence number.
    Num(u64),
    /// An id, rendered as its prefix and number: `rs0`, `r3`, `c2`.
    Id(&'static str, u32),
    /// `true` or `false`.
    Flag(bool),
    /// A fixed word, e.g. an abort's cause.
    Word(&'static str),
    /// An owned string (a store file's path).
    Text(T),
}

impl<T> Value<T> {
    /// This value with a `Text`'s string replaced by `text` of it.
    fn map_text<U>(&self, text: impl FnOnce(&T) -> U) -> Value<U> {
        match self {
            Value::Num(n) => Value::Num(*n),
            Value::Id(prefix, n) => Value::Id(prefix, *n),
            Value::Flag(b) => Value::Flag(*b),
            Value::Word(w) => Value::Word(w),
            Value::Text(t) => Value::Text(text(t)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Id(prefix, n) => write!(f, "{prefix}{n}"),
            Value::Flag(b) => write!(f, "{b}"),
            Value::Word(w) => f.write_str(w),
            Value::Text(t) => f.write_str(t),
        }
    }
}

macro_rules! num_values {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as u64)
            }
        }
    )*};
}

num_values!(u64, u32, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Flag(b)
    }
}

impl From<&'static str> for Value {
    fn from(w: &'static str) -> Value {
        Value::Word(w)
    }
}

impl From<String> for Value {
    fn from(t: String) -> Value {
        Value::Text(t.into())
    }
}

/// One field of a record: its name and its value.
pub type Field = (&'static str, Value);

/// A reference to an array of [`Field`]s from `name = value` pairs, in
/// order, each value converted by `Value::from`; a bare `name` is `name
/// = name`. `fields!(region = id, files)` renders `region=r3 files=2`.
#[macro_export]
macro_rules! fields {
    (@value $name:ident = $value:expr) => {
        $value
    };
    (@value $name:ident) => {
        $name
    };
    ($($name:ident $(= $value:expr)?),* $(,)?) => {
        &[$((
            stringify!($name),
            $crate::trace::Value::from($crate::fields!(@value $name $(= $value)?)),
        )),*]
    };
}

/// One journal record: a sim-timestamped, kind-tagged list of fields.
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
    /// The fields rendered: `name=value` pairs, space-separated.
    pub detail: String,
    fields: [Option<Field>; MAX_FIELDS],
}

impl JournalEntry {
    /// The value of the field called `name`, if the record has one.
    pub fn field(&self, name: &str) -> Option<&Value> {
        let mut fields = self.fields.iter().flatten();
        fields.find(|(n, _)| *n == name).map(|(_, value)| value)
    }
}

/// A retained record, its fields not yet rendered. A full ring
/// overwrites its oldest slot in place, and its values are `Copy` so
/// that the overwrite reads nothing of the old record first (in a ring
/// that size, a cache miss per line): a `Text`'s string sits in `text`.
struct Slot {
    time: SimTime,
    seq: u64,
    kind: &'static str,
    text: Option<Rc<str>>,
    fields: [Option<(&'static str, Value<()>)>; MAX_FIELDS],
}

impl Slot {
    const EMPTY: Slot = Slot {
        time: SimTime::ZERO,
        seq: 0,
        kind: "",
        text: None,
        fields: [None; MAX_FIELDS],
    };

    /// Overwrites this slot with a record of `kind` whose fields are
    /// those of each of `parts`, in order.
    fn write(&mut self, time: SimTime, seq: u64, kind: &'static str, parts: &[&[Field]]) {
        (self.time, self.seq, self.kind, self.text) = (time, seq, kind, None);
        let mut n = 0;
        for part in parts {
            for (name, value) in *part {
                assert!(n < MAX_FIELDS, "a record has at most MAX_FIELDS fields");
                let value = value.map_text(|text| self.text = Some(Rc::clone(text)));
                self.fields[n] = Some((name, value));
                n += 1;
            }
        }
        self.fields[n..].fill(None);
    }

    /// The record as readers see it, its fields rendered now.
    fn entry(&self) -> JournalEntry {
        let text = |_: &()| {
            self.text
                .clone()
                .expect("a Text value's string is the slot's")
        };
        let field = |held: &Option<(_, Value<()>)>| held.map(|(name, v)| (name, v.map_text(text)));
        let fields = self.fields.each_ref().map(field);
        let mut detail = String::with_capacity(16 * MAX_FIELDS);
        for (i, (name, value)) in fields.iter().flatten().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(detail, "{sep}{name}={value}").expect("a String accepts every write");
        }
        JournalEntry {
            time: self.time,
            seq: self.seq,
            kind: self.kind,
            detail,
            fields,
        }
    }
}

struct JournalInner {
    /// The retained records, in no particular order: once the ring is
    /// full, a record overwrites the oldest one, at `oldest`, in place.
    slots: Vec<Slot>,
    oldest: usize,
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
    /// Creates a journal retaining at most `cap` entries, `cap ≥ 1`
    /// (oldest evicted first; per-kind counts keep counting). Only the
    /// kernel does: a run's journals are its [`Sim`](crate::Sim)'s.
    pub(crate) fn new(cap: usize) -> Journal {
        assert!(cap > 0, "a journal retains at least one record");
        Journal {
            inner: Rc::new(RefCell::new(JournalInner {
                slots: Vec::new(),
                oldest: 0,
                counts: BTreeMap::new(),
                next_seq: 0,
                dropped: 0,
                cap,
            })),
        }
    }

    /// Appends one record of `kind` whose fields are those of each of
    /// `parts`, in order, copied into the ring (module docs).
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_FIELDS`] fields.
    pub fn record(&self, now: SimTime, kind: &'static str, parts: &[&[Field]]) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        *inner.counts.entry(kind).or_insert(0) += 1;
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let at = if inner.slots.len() < inner.cap {
            inner.slots.push(Slot::EMPTY);
            inner.slots.len() - 1
        } else {
            inner.dropped += 1;
            let oldest = inner.oldest;
            inner.oldest = (oldest + 1) % inner.cap;
            oldest
        };
        inner.slots[at].write(now, seq, kind, parts);
    }

    /// Number of entries currently retained (≤ the cap).
    pub fn len(&self) -> usize {
        self.inner.borrow().slots.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().slots.is_empty()
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
        let inner = self.inner.borrow();
        let mut v: Vec<JournalEntry> = inner.slots.iter().map(Slot::entry).collect();
        v.sort_by_key(|e| (e.time, e.seq));
        v
    }

    /// Removes and returns the retained entries in `(time, seq)` order.
    /// Per-kind counts and the total are unaffected.
    pub fn drain_sorted(&self) -> Vec<JournalEntry> {
        let mut inner = self.inner.borrow_mut();
        inner.oldest = 0;
        let mut v: Vec<JournalEntry> = inner.slots.drain(..).map(|slot| slot.entry()).collect();
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
            .field("len", &inner.slots.len())
            .field("total", &inner.next_seq)
            .field("dropped", &inner.dropped)
            .field("cap", &inner.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn records_and_dumps_in_order() {
        let j = Journal::new(16);
        j.record(t(5), "b", &[fields!(x = 1u64)]);
        j.record(t(5), "a", &[fields!(x = 2u64)]);
        j.record(t(9), "b", &[fields!(x = 3u64)]);
        assert_eq!(j.len(), 3);
        assert_eq!(j.count("b"), 2);
        assert_eq!(j.dump(), "5 b x=1\n5 a x=2\n9 b x=3\n");
    }

    #[test]
    fn ring_cap_evicts_oldest_but_counts_survive() {
        let j = Journal::new(2);
        for i in 0..5u64 {
            j.record(t(i), "k", &[fields!(i = i)]);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.count("k"), 5);
        assert_eq!(j.total_recorded(), 5);
        let e = j.entries();
        assert_eq!(e[0].detail, "i=3");
        assert_eq!(e[1].detail, "i=4");
    }

    #[test]
    fn fields_render_in_order_and_read_back_typed() {
        let j = Journal::new(8);
        let path = String::from("/store/r3/000001-rs0");
        let head = fields!(server = Value::Id("rs", 0), n = 7u64);
        j.record(
            t(2),
            "k",
            &[head, fields!(on = true, cause = "user", file = path)],
        );
        j.record(t(1), "k", &[]);
        let read = j.entries();
        assert_eq!((read[0].seq, read[1].seq), (1, 0));
        assert_eq!(read[0].detail, "");
        let e = &read[1];
        assert_eq!(
            e.detail,
            "server=rs0 n=7 on=true cause=user file=/store/r3/000001-rs0"
        );
        assert_eq!(e.field("n"), Some(&Value::Num(7)));
        assert_eq!(e.field("server"), Some(&Value::Id("rs", 0)));
        assert_eq!(e.field("missing"), None);
        assert_eq!(j.dump(), format!("1 k \n2 k {}\n", e.detail));
    }

    #[test]
    fn evicted_records_never_render() {
        let j = Journal::new(1);
        j.record(t(1), "k", &[fields!(at = "evicted")]);
        j.record(t(2), "k", &[fields!(at = "kept")]);
        assert_eq!(j.dump(), "2 k at=kept\n");
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn drain_empties_entries_only() {
        let j = Journal::new(8);
        j.record(t(1), "k", &[fields!(x = "a")]);
        j.record(t(2), "k", &[fields!(x = "b")]);
        let drained = j.drain_sorted();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].detail, "x=b");
        assert!(j.is_empty() && j.entries().is_empty());
        assert_eq!(j.count("k"), 2);
    }
}

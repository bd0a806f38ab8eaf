//! The event loop: a priority queue of `(time, sequence, closure)` entries
//! plus the seeded RNG that is the sole source of randomness.

use crate::metrics::MetricsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::Journal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;

type EventFn = Box<dyn FnOnce()>;

struct Slot {
    at: u64,
    seq: u64,
    f: EventFn,
}

// BinaryHeap is a max-heap; invert the ordering so the earliest (time, seq)
// pops first. Ties on time break by insertion sequence, which makes
// same-instant events run in schedule order — important for determinism.
impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct Inner {
    now: Cell<u64>,
    seq: Cell<u64>,
    queue: RefCell<BinaryHeap<Slot>>,
    rng: RefCell<StdRng>,
    executed: Cell<u64>,
    metrics: MetricsRegistry,
    trace: Journal,
    events: Journal,
}

/// Records the trace journal retains before evicting the oldest.
const TRACE_CAP: usize = 65_536;
/// Records the failure-event journal retains.
const EVENTS_CAP: usize = 16_384;

/// Handle to the simulation kernel.
///
/// `Sim` is a cheap clone (`Rc` internally); every component keeps one.
/// Events are plain `FnOnce()` closures capturing whatever `Rc` handles they
/// need, so no global component registry is required.
///
/// The kernel is also the run's one recorder: the metrics registry and
/// the two journals exist from [`Sim::new`] on, so a component registers
/// its metrics in its constructor and records from its first event — no
/// component has a state in which it records nothing. Recording is pure:
/// it never draws from the RNG and never schedules an event.
///
/// # Example
///
/// ```
/// use cumulo_sim::{Sim, SimDuration, SimTime};
///
/// let sim = Sim::new(7);
/// sim.schedule_in(SimDuration::from_secs(1), || {});
/// let events = sim.run_until(SimTime::from_secs(2));
/// assert_eq!(events, 1);
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("pending", &self.pending_events())
            .field("executed", &self.events_executed())
            .finish()
    }
}

impl Sim {
    /// Creates a new simulation whose RNG is seeded with `seed`.
    ///
    /// Two simulations with the same seed and the same schedule of calls
    /// execute identically.
    pub fn new(seed: u64) -> Sim {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(0),
                seq: Cell::new(0),
                queue: RefCell::new(BinaryHeap::new()),
                rng: RefCell::new(StdRng::seed_from_u64(seed)),
                executed: Cell::new(0),
                metrics: MetricsRegistry::new(),
                trace: Journal::new(TRACE_CAP),
                events: Journal::new(EVENTS_CAP),
            }),
        }
    }

    /// The run's metrics registry: every component's counters, gauges
    /// and histograms under stable `name{labels}` keys.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// The run's trace journal: per-RPC service spans (`rpc.*`) and
    /// per-transaction lifecycle spans (`txn.*`).
    pub fn trace(&self) -> &Journal {
        &self.inner.trace
    }

    /// The run's failure-event journal: recovery-protocol transitions
    /// (failover, replay, threshold advancement, structure changes,
    /// replication, compaction and flush backpressure).
    pub fn events(&self) -> &Journal {
        &self.inner.events
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.inner.now.get())
    }

    /// Schedules `f` to run `delay` after the current instant.
    pub fn schedule_in(&self, delay: SimDuration, f: impl FnOnce() + 'static) {
        self.schedule_at(self.now() + delay, f);
    }

    /// Schedules `f` to run at absolute instant `at` (clamped to now if in
    /// the past, so an event can never run "before" the clock).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let at = at.nanos().max(self.inner.now.get());
        let seq = self.inner.seq.get();
        self.inner.seq.set(seq + 1);
        self.inner.queue.borrow_mut().push(Slot {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Runs every event scheduled at or before `t`, then advances the clock
    /// to exactly `t`. Returns the number of events executed.
    pub fn run_until(&self, t: SimTime) -> u64 {
        let mut n = 0;
        loop {
            let next = {
                let mut q = self.inner.queue.borrow_mut();
                match q.peek() {
                    Some(slot) if slot.at <= t.nanos() => q.pop(),
                    _ => None,
                }
            };
            match next {
                Some(slot) => {
                    debug_assert!(slot.at >= self.inner.now.get(), "time went backwards");
                    self.inner.now.set(slot.at);
                    (slot.f)();
                    n += 1;
                }
                None => break,
            }
        }
        self.inner.now.set(t.nanos());
        self.inner.executed.set(self.inner.executed.get() + n);
        n
    }

    /// Runs the simulation forward by `d`. Returns events executed.
    pub fn run_for(&self, d: SimDuration) -> u64 {
        self.run_until(self.now() + d)
    }

    /// Executes the single earliest pending event, advancing the clock to it.
    /// Returns `false` if the queue is empty.
    pub fn step(&self) -> bool {
        let next = self.inner.queue.borrow_mut().pop();
        match next {
            Some(slot) => {
                self.inner.now.set(slot.at);
                (slot.f)();
                self.inner.executed.set(self.inner.executed.get() + 1);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains or `max_events` have executed.
    ///
    /// Systems with periodic timers never go idle; the cap prevents an
    /// accidental infinite loop in tests. Returns events executed.
    pub fn run_until_idle(&self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Total events executed since the simulation started.
    pub fn events_executed(&self) -> u64 {
        self.inner.executed.get()
    }

    /// Runs `f` with exclusive access to the simulation RNG.
    ///
    /// All randomness in a simulation must flow through this method to keep
    /// executions reproducible.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Samples a uniform fraction in `[0, 1)` from the simulation RNG.
    pub fn gen_f64(&self) -> f64 {
        use rand::Rng;
        self.with_rng(|r| r.gen::<f64>())
    }

    /// Samples a uniform integer in `[lo, hi)` from the simulation RNG.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&self, lo: u64, hi: u64) -> u64 {
        use rand::Rng;
        assert!(lo < hi, "empty range");
        self.with_rng(|r| r.gen_range(lo..hi))
    }

    /// Adds multiplicative jitter: returns a duration uniform in
    /// `[d, d * (1 + frac))`.
    pub fn jitter(&self, d: SimDuration, frac: f64) -> SimDuration {
        if frac <= 0.0 || d.is_zero() {
            return d;
        }
        d.mul_f64(1.0 + self.gen_f64() * frac)
    }
}

impl SimTime {
    /// Creates an instant from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime::from_nanos(ms * 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (delay_ms, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_millis(delay_ms), move || {
                log.borrow_mut().push(tag);
            });
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_events_run_in_schedule_order() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10u32 {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_millis(5), move || {
                log.borrow_mut().push(tag);
            });
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_events() {
        let sim = Sim::new(1);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        let s = sim.clone();
        sim.schedule_in(SimDuration::from_millis(1), move || {
            h.set(h.get() + 1);
            let h2 = h.clone();
            s.schedule_in(SimDuration::from_millis(1), move || h2.set(h2.get() + 1));
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn run_until_does_not_run_future_events() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        sim.schedule_in(SimDuration::from_secs(5), move || f.set(true));
        sim.run_until(SimTime::from_secs(4));
        assert!(!fired.get());
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_secs(6));
        assert!(fired.get());
    }

    #[test]
    fn past_events_clamp_to_now() {
        let sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(10));
        let fired = Rc::new(Cell::new(SimTime::ZERO));
        let f = fired.clone();
        let s = sim.clone();
        sim.schedule_at(SimTime::from_secs(1), move || f.set(s.now()));
        sim.run_until(SimTime::from_secs(11));
        assert_eq!(fired.get(), SimTime::from_secs(10));
    }

    #[test]
    fn determinism_same_seed_same_draws() {
        let a = Sim::new(99);
        let b = Sim::new(99);
        let xs: Vec<u64> = (0..32).map(|_| a.gen_range(0, 1 << 40)).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.gen_range(0, 1 << 40)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn the_recorder_is_on_from_the_start_and_pure() {
        let sim = Sim::new(99);
        let twin = Sim::new(99);
        sim.events().record(sim.now(), "k", || "a=1".into());
        sim.trace().record(sim.now(), "s", || "b=2".into());
        sim.metrics().counter("c", &[]).inc();
        assert_eq!(sim.events().dump(), "0 k a=1\n");
        assert_eq!(sim.trace().count("s"), 1);
        assert_eq!(sim.metrics().sum("c"), 1);
        // Clones are handles on the same recorder.
        assert_eq!(sim.clone().events().count("k"), 1);
        // Recording scheduled nothing and drew nothing.
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.gen_range(0, 1 << 40), twin.gen_range(0, 1 << 40));
    }

    #[test]
    fn run_until_idle_respects_cap() {
        let sim = Sim::new(1);
        // A self-perpetuating timer chain.
        fn tick(sim: Sim, n: Rc<Cell<u64>>) {
            let s = sim.clone();
            sim.schedule_in(SimDuration::from_millis(1), move || {
                n.set(n.get() + 1);
                tick(s.clone(), n);
            });
        }
        let n = Rc::new(Cell::new(0));
        tick(sim.clone(), n.clone());
        let ran = sim.run_until_idle(100);
        assert_eq!(ran, 100);
        assert_eq!(n.get(), 100);
    }

    #[test]
    fn jitter_bounds() {
        let sim = Sim::new(5);
        let base = SimDuration::from_millis(10);
        for _ in 0..100 {
            let j = sim.jitter(base, 0.25);
            assert!(j >= base);
            assert!(j <= base.mul_f64(1.25));
        }
        assert_eq!(sim.jitter(base, 0.0), base);
    }
}

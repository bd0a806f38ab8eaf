//! Measurement utilities: shared counters, HDR-style latency histograms,
//! windowed time series and the cluster-wide [`MetricsRegistry`].
//!
//! The benchmark harness uses [`Histogram`] for response-time percentiles
//! (Fig. 2a/2b) and [`TimeSeries`] for the failure-timeline plots (Fig. 3).
//! Every long-lived counter or gauge in the cluster also registers into a
//! [`MetricsRegistry`] under a `name{label=value,...}` key, and
//! [`MetricsRegistry::snapshot`] renders the whole cluster state as one
//! fully sorted, deterministic key→value map. The registry is how bins
//! and tests read a cluster's numbers: [`MetricsRegistry::sum`] and
//! [`MetricsRegistry::max`] for totals so far, and
//! [`MetricsSnapshot::diff`] then [`MetricsSnapshot::sum`] for one
//! measurement phase.

use crate::time::{SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// A shared monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter {
    v: Rc<Cell<u64>>,
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.set(self.v.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.get()
    }
}

/// A shared last-value gauge (e.g. a current queue depth or the current
/// read-amplification factor). Unlike [`Counter`] it can move down. Born
/// registered: [`MetricsRegistry::gauge`] makes one.
#[derive(Clone)]
pub struct Gauge {
    v: Rc<Cell<u64>>,
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: u64) {
        self.v.set(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.get()
    }
}

/// A shared map of last-value gauges keyed by a sparse integer id (e.g. a
/// region id): each key holds an independent gauge, and snapshots come
/// back in key order. Like [`Gauge`],
/// clones share state, and [`MetricsRegistry::gauge_map`] makes one.
#[derive(Clone)]
pub struct GaugeMap {
    v: Rc<RefCell<BTreeMap<u64, u64>>>,
}

impl fmt::Debug for GaugeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GaugeMap({} keys)", self.v.borrow().len())
    }
}

impl GaugeMap {
    /// Sets the gauge for `key`.
    pub fn set(&self, key: u64, value: u64) {
        self.v.borrow_mut().insert(key, value);
    }

    /// Adds to the gauge for `key` (starting from 0 when absent).
    pub fn add(&self, key: u64, delta: u64) {
        *self.v.borrow_mut().entry(key).or_insert(0) += delta;
    }

    /// Removes `key`'s gauge (e.g. the region moved away).
    pub fn remove(&self, key: u64) {
        self.v.borrow_mut().remove(&key);
    }

    /// The gauge for `key` (0 when absent).
    pub fn get(&self, key: u64) -> u64 {
        self.v.borrow().get(&key).copied().unwrap_or(0)
    }

    /// Sum over all keys.
    pub fn total(&self) -> u64 {
        self.v.borrow().values().sum()
    }

    /// All `(key, value)` pairs, in key order.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        self.v.borrow().iter().map(|(k, v)| (*k, *v)).collect()
    }
}

const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Maps a value to its logarithmic bucket (~3% relative precision).
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as u64;
    let shift = msb - SUB_BITS as u64;
    let sub = (v >> shift) & (SUB_COUNT - 1);
    (((msb - SUB_BITS as u64) * SUB_COUNT) + SUB_COUNT + sub) as usize
}

/// Lower bound of the bucket with the given index (inverse of
/// [`bucket_index`] up to bucket granularity).
fn bucket_lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return idx;
    }
    let group = (idx - SUB_COUNT) / SUB_COUNT;
    let sub = (idx - SUB_COUNT) % SUB_COUNT;
    (SUB_COUNT + sub) << group
}

/// A log-bucketed histogram of `u64` samples (typically nanoseconds), with
/// ~3% relative error on quantiles — the same trade-off as HdrHistogram.
///
/// # Example
///
/// ```
/// use cumulo_sim::metrics::Histogram;
///
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "{p50}");
/// ```
#[derive(Clone, Default)]
pub struct Histogram {
    counts: Rc<RefCell<Vec<u64>>>,
    count: Rc<Cell<u64>>,
    sum: Rc<Cell<u64>>,
    max: Rc<Cell<u64>>,
    min: Rc<Cell<u64>>,
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = bucket_index(v);
        {
            let mut counts = self.counts.borrow_mut();
            if counts.len() <= idx {
                counts.resize(idx + 1, 0);
            }
            counts[idx] += 1;
        }
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get().saturating_add(v));
        if v > self.max.get() {
            self.max.set(v);
        }
        if self.count.get() == 1 || v < self.min.get() {
            self.min.set(v);
        }
    }

    /// Records a duration's nanoseconds.
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.get().checked_div(self.count.get()).unwrap_or(0)
    }

    /// Largest sample seen (0 if empty).
    pub fn max(&self) -> u64 {
        self.max.get()
    }

    /// Smallest sample seen (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count.get() == 0 {
            0
        } else {
            self.min.get()
        }
    }

    /// Value at quantile `q` in `[0, 1]`, within bucket precision.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let total = self.count.get();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let counts = self.counts.borrow();
        let mut seen = 0;
        for (idx, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Report the bucket's highest contained value, clamped to
                // the true max so `quantile(1.0) == max()`.
                let upper = bucket_lower_bound(idx + 1).saturating_sub(1);
                return upper.min(self.max.get());
            }
        }
        self.max.get()
    }

    /// Resets the histogram to empty.
    pub fn clear(&self) {
        self.counts.borrow_mut().clear();
        self.count.set(0);
        self.sum.set(0);
        self.max.set(0);
        self.min.set(0);
    }
}

/// One aggregated window of a [`TimeSeries`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Window {
    /// Window start instant.
    pub start: SimTime,
    /// Samples recorded in the window.
    pub count: u64,
    /// Sum of sample values.
    pub sum: u64,
    /// Largest sample value (0 if none).
    pub max: u64,
}

impl Window {
    /// Mean sample value in this window (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Events per second given the window length.
    pub fn rate(&self, window: SimDuration) -> f64 {
        self.count as f64 / window.as_secs_f64()
    }
}

/// Fixed-window time series: counts and value aggregates per window of
/// simulated time. Used for throughput/response-time timelines (Fig. 3).
#[derive(Clone)]
pub struct TimeSeries {
    window: SimDuration,
    data: Rc<RefCell<Vec<Window>>>,
}

impl fmt::Debug for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSeries")
            .field("window", &self.window)
            .field("windows", &self.data.borrow().len())
            .finish()
    }
}

impl TimeSeries {
    /// Creates a series with the given aggregation window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> TimeSeries {
        assert!(!window.is_zero(), "window must be non-zero");
        TimeSeries {
            window,
            data: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Records an event at `now` with associated `value` (e.g. a response
    /// time in nanoseconds; use 0 when only counting).
    pub fn record(&self, now: SimTime, value: u64) {
        let idx = (now.nanos() / self.window.nanos()) as usize;
        let mut data = self.data.borrow_mut();
        while data.len() <= idx {
            let start = SimTime::from_nanos(data.len() as u64 * self.window.nanos());
            data.push(Window {
                start,
                count: 0,
                sum: 0,
                max: 0,
            });
        }
        let w = &mut data[idx];
        w.count += 1;
        w.sum = w.sum.saturating_add(value);
        if value > w.max {
            w.max = value;
        }
    }

    /// Snapshot of all windows from t=0 through the last recorded event.
    pub fn windows(&self) -> Vec<Window> {
        self.data.borrow().clone()
    }

    /// Snapshot padded with empty windows up to (and excluding) `until`,
    /// so quiet periods appear as zero-throughput windows in plots.
    pub fn windows_until(&self, until: SimTime) -> Vec<Window> {
        let mut out = self.data.borrow().clone();
        let needed = (until.nanos() / self.window.nanos()) as usize;
        while out.len() < needed {
            let start = SimTime::from_nanos(out.len() as u64 * self.window.nanos());
            out.push(Window {
                start,
                count: 0,
                sum: 0,
                max: 0,
            });
        }
        out
    }
}

/// The metric handle kinds a registry entry can hold.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Map {
        m: GaugeMap,
        /// Label name attached to each map key (e.g. `region`).
        key_label: String,
    },
    Histogram(Histogram),
}

struct Registered {
    name: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Renders `name{k=v,...}` with labels sorted by label name; bare `name`
/// when there are no labels.
fn render_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<&(String, String)> = labels.iter().collect();
    sorted.sort();
    let body: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// One rendered snapshot entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SnapEntry {
    value: u64,
    /// Monotonic entries (counters, histogram sample counts) subtract in
    /// [`MetricsSnapshot::diff`]; level entries (gauges, quantiles) keep
    /// the later value.
    monotonic: bool,
}

/// A point-in-time rendering of a [`MetricsRegistry`]: a fully sorted
/// `key → value` map. Keys are `name{label=value,...}` strings; values
/// are plain `u64`s, so the map serializes deterministically.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, SnapEntry>,
}

impl MetricsSnapshot {
    /// Value under the exact rendered key, if present.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.get(key).map(|e| e.value)
    }

    /// All `(key, value)` pairs in sorted key order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.entries.iter().map(|(k, e)| (k.as_str(), e.value))
    }

    /// Number of rendered entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The change since `earlier`: monotonic entries (counters,
    /// histogram counts) subtract saturating; level entries (gauges,
    /// quantiles) keep this snapshot's value. Keys absent from `earlier`
    /// count from zero; keys only in `earlier` are dropped.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(k, e)| {
                let value = if e.monotonic {
                    let before = earlier.get(k).unwrap_or(0);
                    e.value.saturating_sub(before)
                } else {
                    e.value
                };
                (
                    k.clone(),
                    SnapEntry {
                        value,
                        monotonic: e.monotonic,
                    },
                )
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Sum of the entries of every label set of `name` (`name` itself and
    /// `name{...}`, not a longer name that shares the prefix), as
    /// [`MetricsRegistry::sum`] adds the live metrics; after
    /// [`MetricsSnapshot::diff`] a counter adds its delta and a gauge its
    /// later value. A histogram's entries render under `name.count`,
    /// `name.p99` and so on.
    pub fn sum(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|labels| labels.is_empty() || labels.starts_with('{'))
            })
            .map(|(_, e)| e.value)
            .sum()
    }

    /// Renders one `key value` line per entry, sorted by key — two runs
    /// of the same seed produce byte-identical output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, e) in &self.entries {
            out.push_str(&format!("{k} {}\n", e.value));
        }
        out
    }
}

/// A run-wide registry of named, labeled metrics. Every
/// [`Sim`](crate::Sim) owns one from its creation on
/// ([`Sim::metrics`](crate::Sim::metrics)), and that is the only one
/// there is.
///
/// Handles ([`Counter`], [`Gauge`], [`GaugeMap`], [`Histogram`]) are
/// born registered: the registry creates them
/// (`registry.counter(...)`, `registry.gauge_map(...)`, …) and a
/// component keeps the handle. Registering the same `name{labels}`
/// twice panics.
///
/// The registry is an `Rc`-shared handle like the metrics themselves;
/// registration and snapshotting never draw from the simulation RNG and
/// never schedule events, so observing a cluster cannot perturb it.
///
/// # Example
///
/// ```
/// use cumulo_sim::Sim;
///
/// let sim = Sim::new(1);
/// let reg = sim.metrics();
/// let gets0 = reg.counter("store.gets", &[("server", "0")]);
/// let gets1 = reg.counter("store.gets", &[("server", "1")]);
/// gets0.add(3);
/// gets1.add(4);
/// assert_eq!(reg.sum("store.gets"), 7);
/// let snap = reg.snapshot();
/// assert_eq!(snap.get("store.gets{server=0}"), Some(3));
/// ```
#[derive(Clone)]
pub struct MetricsRegistry {
    /// Keyed by the rendered key, which also rejects a duplicate.
    inner: Rc<RefCell<BTreeMap<String, Registered>>>,
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.inner.borrow().len())
    }
}

impl MetricsRegistry {
    /// Creates an empty registry. Only the kernel does: a run's
    /// registry is its [`Sim`](crate::Sim)'s.
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Rc::default(),
        }
    }

    fn push(&self, name: &str, labels: &[(&str, &str)], metric: Metric) {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let key = render_key(name, &labels);
        let mut inner = self.inner.borrow_mut();
        assert!(!inner.contains_key(&key), "metric {key} registered twice");
        inner.insert(
            key,
            Registered {
                name: name.to_owned(),
                labels,
                metric,
            },
        );
    }

    /// Creates and registers a [`Counter`].
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.push(name, labels, Metric::Counter(c.clone()));
        c
    }

    /// Creates and registers a [`Gauge`].
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge { v: Rc::default() };
        self.push(name, labels, Metric::Gauge(g.clone()));
        g
    }

    /// Creates and registers a [`Histogram`]. The snapshot renders
    /// `.count` (monotonic), `.mean`, `.p50`, `.p95`, `.p99` and `.max`
    /// sub-entries.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.push(name, labels, Metric::Histogram(h.clone()));
        h
    }

    /// Creates and registers a [`GaugeMap`]; each key `k` renders with an
    /// extra `key_label=k` label (e.g. `region=7`).
    pub fn gauge_map(&self, name: &str, labels: &[(&str, &str)], key_label: &str) -> GaugeMap {
        let m = GaugeMap { v: Rc::default() };
        self.push(
            name,
            labels,
            Metric::Map {
                m: m.clone(),
                key_label: key_label.to_owned(),
            },
        );
        m
    }

    /// Number of registered metrics (label sets count individually).
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Sum of all [`Counter`]/[`Gauge`] values registered under `name`
    /// (across every label set). [`GaugeMap`]s contribute their totals.
    pub fn sum(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .values()
            .filter(|r| r.name == name)
            .map(|r| match &r.metric {
                Metric::Counter(c) => c.get(),
                Metric::Gauge(g) => g.get(),
                Metric::Map { m, .. } => m.total(),
                Metric::Histogram(h) => h.count(),
            })
            .sum()
    }

    /// Maximum [`Counter`]/[`Gauge`] value registered under `name` (0
    /// when none is).
    pub fn max(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .values()
            .filter(|r| r.name == name)
            .map(|r| match &r.metric {
                Metric::Counter(c) => c.get(),
                Metric::Gauge(g) => g.get(),
                Metric::Map { m, .. } => m.snapshot().iter().map(|(_, v)| *v).max().unwrap_or(0),
                Metric::Histogram(h) => h.max(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Renders every registered metric into a fully sorted
    /// [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: BTreeMap<String, SnapEntry> = BTreeMap::new();
        let mut put = |key: String, value: u64, monotonic: bool| {
            entries.insert(key, SnapEntry { value, monotonic });
        };
        for (key, r) in self.inner.borrow().iter() {
            match &r.metric {
                Metric::Counter(c) => put(key.clone(), c.get(), true),
                Metric::Gauge(g) => put(key.clone(), g.get(), false),
                Metric::Map { m, key_label } => {
                    for (k, val) in m.snapshot() {
                        let mut labels = r.labels.clone();
                        labels.push((key_label.clone(), k.to_string()));
                        put(render_key(&r.name, &labels), val, false);
                    }
                }
                Metric::Histogram(h) => {
                    let sub = |suffix: &str| render_key(&format!("{}.{suffix}", r.name), &r.labels);
                    put(sub("count"), h.count(), true);
                    put(sub("mean"), h.mean(), false);
                    put(sub("p50"), h.quantile(0.5), false);
                    put(sub("p95"), h.quantile(0.95), false);
                    put(sub("p99"), h.quantile(0.99), false);
                    put(sub("max"), h.max(), false);
                }
            }
        }
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_precision() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, 10_000_000_000] {
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v, "lower bound {lb} above value {v}");
            // Relative error bounded by bucket width: < 1/32.
            assert!(
                (v - lb) as f64 <= (v as f64 / 32.0).max(1.0),
                "v={v} lb={lb}"
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut values: Vec<u64> = (0..10_000u64).chain((1..60).map(|s| 1u64 << s)).collect();
        values.sort_unstable();
        let mut prev = 0;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
        }
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.1, 1_000u64), (0.5, 5_000), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "q={q} got={got} expect~{expect}");
        }
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.mean(), 5_000);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn clear_resets() {
        let h = Histogram::new();
        h.record(500);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn counter_shares_state_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways_and_shares_state() {
        let g = MetricsRegistry::new().gauge("g", &[]);
        assert_eq!(g.get(), 0);
        let g2 = g.clone();
        g.set(10);
        assert_eq!(g2.get(), 10);
        g2.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn time_series_windows() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_nanos(100), 10);
        ts.record(SimTime::from_nanos(200), 30);
        ts.record(SimTime::from_secs(2), 100);
        let ws = ts.windows();
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].count, 2);
        assert_eq!(ws[0].mean(), 20);
        assert_eq!(ws[0].max, 30);
        assert_eq!(ws[1].count, 0);
        assert_eq!(ws[2].count, 1);
        assert!((ws[0].rate(SimDuration::from_secs(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn windows_until_pads_trailing_quiet_period() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_nanos(5), 1);
        let ws = ts.windows_until(SimTime::from_secs(5));
        assert_eq!(ws.len(), 5);
        assert!(ws[4].count == 0);
    }

    #[test]
    fn registry_sums_and_snapshots_sorted() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("store.gets", &[("server", "1")]);
        let b = reg.counter("store.gets", &[("server", "0")]);
        let g = reg.gauge("store.depth", &[("server", "0")]);
        a.add(5);
        b.add(2);
        g.set(9);
        assert_eq!(reg.sum("store.gets"), 7);
        assert_eq!(reg.max("store.gets"), 5);
        assert_eq!(reg.sum("absent"), 0);
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.entries().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "store.depth{server=0}",
                "store.gets{server=0}",
                "store.gets{server=1}"
            ]
        );
        assert_eq!(snap.get("store.gets{server=1}"), Some(5));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicate_keys() {
        let reg = MetricsRegistry::new();
        reg.counter("dup", &[("server", "0")]);
        reg.counter("dup", &[("server", "0")]);
    }

    #[test]
    fn registry_map_renders_with_extra_label() {
        let reg = MetricsRegistry::new();
        let m = reg.gauge_map("store.region.load", &[("server", "0")], "region");
        m.set(12, 100);
        m.set(3, 50);
        let snap = reg.snapshot();
        assert_eq!(snap.get("store.region.load{region=3,server=0}"), Some(50));
        assert_eq!(snap.sum("store.region.load"), reg.sum("store.region.load"));
    }

    #[test]
    fn snapshot_diff_subtracts_monotonic_keeps_level() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c", &[]);
        let g = reg.gauge("g", &[]);
        c.add(10);
        g.set(7);
        let before = reg.snapshot();
        c.add(5);
        g.set(3);
        let d = reg.snapshot().diff(&before);
        assert_eq!(d.get("c"), Some(5));
        assert_eq!(d.get("g"), Some(3));
    }

    #[test]
    fn snapshot_sum_adds_the_label_sets_of_one_name() {
        let reg = MetricsRegistry::new();
        let gets0 = reg.counter("store.gets", &[("server", "0")]);
        let gets1 = reg.counter("store.gets", &[("server", "1")]);
        let longer = reg.counter("store.gets_ok", &[("server", "0")]);
        let bare = reg.counter("master.failovers", &[]);
        let bytes0 = reg.gauge("store.filter.bytes", &[("server", "0")]);
        let bytes1 = reg.gauge("store.filter.bytes", &[("server", "1")]);
        gets0.add(2);
        gets1.add(3);
        longer.add(100);
        bare.add(7);
        bytes0.set(10);
        bytes1.set(20);
        let before = reg.snapshot();
        assert_eq!(before.sum("store.gets"), 5);
        assert_eq!(before.sum("store.gets"), reg.sum("store.gets"));
        assert_eq!(before.sum("master.failovers"), 7);
        assert_eq!(before.sum("store.filter.bytes"), 30);
        assert_eq!(before.sum("store.get"), 0);

        gets1.add(4);
        longer.add(100);
        bytes0.set(1);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.sum("store.gets"), 4, "a counter sums its delta");
        assert_eq!(delta.sum("store.gets_ok"), 100);
        assert_eq!(delta.sum("master.failovers"), 0);
        assert_eq!(
            delta.sum("store.filter.bytes"),
            21,
            "a gauge keeps its later value"
        );
    }

    #[test]
    fn histogram_renders_sub_entries() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("rt", &[("client", "2")]);
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.get("rt.count{client=2}"), Some(100));
        assert!(snap.get("rt.p99{client=2}").unwrap() >= 90);
        assert_eq!(snap.get("rt.max{client=2}"), Some(100));
    }
}

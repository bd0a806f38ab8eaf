//! How fast the host is while a host-time metric is taken.
//!
//! The sandbox's speed wanders by ±10 % over minutes and drops by a third
//! for seconds at a time, for every process at once; no statistic over
//! repetitions survives the first. So every host-time metric is
//! multiplied by the speed of the host over the stretch it was taken on:
//! a fixed piece of reference work, shaped like the simulator's own
//! (ordered-map range lookups, a working set of about 1 MB), is timed
//! beside it and compared with what it takes on the undisturbed sandbox.
//!
//! Inside the measured phases the work is sampled every [`GAP`] of host
//! time and the samples are averaged: a before/after reading follows the
//! phases' own speed no better than no reading at all (the scaled time
//! per transaction of 27 repetitions varied by 6–9 % with it, by 2.8 %
//! with the in-phase mean, by 7–10 % unscaled).

use crate::rng::Rng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Host nanoseconds one sample takes on the sandbox this benchmark was
/// sized on, undisturbed (speed 1.0): back to back, and between two
/// stretches of the simulator, which leaves the caches cold.
const BACK_TO_BACK_NS: f64 = 760_000.0;
const IN_PHASE_NS: f64 = 850_000.0;
/// Entries of the reference map, and lookups per sample.
const ENTRIES: u64 = 30_000;
const PROBES: u32 = 5_000;
/// Host time between two samples taken by [`HostSpeed::tick`]: the
/// reference work costs a twentieth of what it measures.
const GAP: Duration = Duration::from_millis(20);
/// Samples [`HostSpeed::now`] takes.
const BURST: u32 = 10;

pub struct HostSpeed {
    map: BTreeMap<[u8; 16], u64>,
    rng: Rng,
    last: Instant,
    /// Samples taken by `tick` since the last `take`: count, total time.
    ticks: u32,
    ticked: Duration,
}

/// `workload::key` without the allocation: the allocation counter may be
/// armed while a sample runs.
fn key(row: u64) -> [u8; 16] {
    let mut key = *b"user000000000000";
    let mut rest = row;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut rng = Rng::new(42);
        let map = (0..ENTRIES)
            .map(|i| (key(rng.below(1_000_000)), i))
            .collect();
        HostSpeed {
            map,
            rng,
            last: Instant::now(),
            ticks: 0,
            ticked: Duration::ZERO,
        }
    }
}

impl HostSpeed {
    fn sample(&mut self) -> Duration {
        let start = Instant::now();
        let mut odd = 0u64;
        for _ in 0..PROBES {
            let probe = key(self.rng.below(1_000_000));
            odd += self.map.range(probe..).next().map_or(0, |(_, v)| *v & 1);
        }
        std::hint::black_box(odd);
        self.last = Instant::now();
        self.last - start
    }

    /// The speed right now (reference = 1.0), from [`BURST`] samples back
    /// to back. Call outside any stopwatch.
    pub fn now(&mut self) -> f64 {
        let total: Duration = (0..BURST).map(|_| self.sample()).sum();
        BACK_TO_BACK_NS * f64::from(BURST) / total.as_nanos() as f64
    }

    /// Call often inside a measured stretch; samples once per [`GAP`].
    pub fn tick(&mut self) {
        if self.last.elapsed() >= GAP {
            let took = self.sample();
            self.ticks += 1;
            self.ticked += took;
        }
    }

    /// The mean speed over the `tick` samples since the last call, and
    /// the host time they took, which the caller's stopwatch ran through.
    /// A stretch too short for a sample reads as the speed right now.
    pub fn take(&mut self) -> (f64, Duration) {
        let (ticks, ticked) = (
            std::mem::take(&mut self.ticks),
            std::mem::take(&mut self.ticked),
        );
        if ticks == 0 {
            return (self.now(), ticked);
        }
        let speed = IN_PHASE_NS * f64::from(ticks) / ticked.as_nanos() as f64;
        (speed, ticked)
    }
}

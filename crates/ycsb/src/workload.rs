//! The transactional workload definition.

use cumulo_sim::SimDuration;

/// How keys are chosen.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum KeyDistribution {
    /// Uniform over the key space ("random row operations", §4.1).
    Uniform,
    /// Scrambled zipfian (YCSB's default access skew).
    Zipfian,
    /// Hotspot: 90% of operations on the hottest 1% of keys.
    HotSpot,
}

/// The paper's update transaction: `ops_per_txn` random row operations
/// with a read/update mix, over `record_count` rows.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Number of loaded rows (paper: 500 000).
    pub record_count: u64,
    /// Row-key prefix.
    pub key_prefix: String,
    /// Column families/fields per row.
    pub fields: Vec<String>,
    /// Value size per field, in bytes.
    pub field_len: usize,
    /// Operations per transaction (paper: 10).
    pub ops_per_txn: usize,
    /// Fraction of operations that are reads (paper: 0.5).
    pub read_ratio: f64,
    /// Fraction of *update* operations performed as read-modify-write
    /// (YCSB workload F style): the client reads the cell, then writes a
    /// derived value within the same transaction.
    pub rmw_ratio: f64,
    /// Fraction of operations performed as short range scans (YCSB
    /// workload E style), decided before the read/update split. While
    /// zero (the default) the driver draws nothing extra from the
    /// simulation RNG, so existing seeds replay identically.
    pub scan_ratio: f64,
    /// Rows per scan operation.
    pub scan_len: usize,
    /// Key distribution.
    pub distribution: KeyDistribution,
    /// [`KeyDistribution::HotSpot`] only: the fraction of the key space
    /// forming the hot set. Shrink it (with the default region layout)
    /// to concentrate the hot set inside one region — the split-trigger
    /// workload.
    pub hotspot_keys_fraction: f64,
    /// [`KeyDistribution::HotSpot`] only: the fraction of operations
    /// that land in the hot set.
    pub hotspot_ops_fraction: f64,
    /// Number of simulated client threads (paper: 50).
    pub threads: usize,
    /// Offered load in transactions/second; `None` = closed loop at full
    /// speed (each thread starts its next transaction immediately).
    pub target_tps: Option<f64>,
    /// On-window of a bursty duty cycle: while non-zero, threads only
    /// *start* transactions during the first `burst_on` of every
    /// `burst_on + burst_off` period (arrivals landing in the off-window
    /// are pushed to the next cycle start). Zero (the default) disables
    /// the duty cycle. Deterministic — no extra RNG draws.
    pub burst_on: SimDuration,
    /// Off-window of the duty cycle (only meaningful with a non-zero
    /// `burst_on`).
    pub burst_off: SimDuration,
    /// Measurement window for the time series.
    pub window: SimDuration,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            record_count: 500_000,
            key_prefix: "user".to_owned(),
            fields: vec!["f0".to_owned()],
            field_len: 100,
            ops_per_txn: 10,
            read_ratio: 0.5,
            rmw_ratio: 0.0,
            scan_ratio: 0.0,
            scan_len: 20,
            distribution: KeyDistribution::Uniform,
            hotspot_keys_fraction: 0.01,
            hotspot_ops_fraction: 0.9,
            threads: 50,
            target_tps: None,
            burst_on: SimDuration::ZERO,
            burst_off: SimDuration::ZERO,
            window: SimDuration::from_secs(5),
        }
    }
}

impl Workload {
    /// The row key for record `i`.
    pub fn key(&self, i: u64) -> String {
        format!("{}{:012}", self.key_prefix, i)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters.
    pub fn validate(&self) {
        assert!(self.record_count > 0, "no records");
        assert!(!self.fields.is_empty(), "no fields");
        assert!(self.ops_per_txn > 0, "no operations");
        assert!(
            (0.0..=1.0).contains(&self.read_ratio),
            "read ratio out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.rmw_ratio),
            "rmw ratio out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.scan_ratio),
            "scan ratio out of range"
        );
        assert!(
            self.scan_ratio == 0.0 || self.scan_len > 0,
            "scans need a positive length"
        );
        assert!(
            self.hotspot_keys_fraction > 0.0 && self.hotspot_keys_fraction <= 1.0,
            "hotspot key fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.hotspot_ops_fraction),
            "hotspot ops fraction out of range"
        );
        assert!(
            self.burst_on.is_zero() == self.burst_off.is_zero(),
            "burst_on and burst_off must both be set (or both zero)"
        );
        assert!(self.threads > 0, "no threads");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let w = Workload::default();
        w.validate();
        assert_eq!(w.record_count, 500_000);
        assert_eq!(w.ops_per_txn, 10);
        assert!((w.read_ratio - 0.5).abs() < f64::EPSILON);
        assert_eq!(w.threads, 50);
        assert_eq!(w.key(7), "user000000000007");
    }

    #[test]
    #[should_panic(expected = "read ratio")]
    fn bad_ratio_panics() {
        Workload {
            read_ratio: 1.5,
            ..Workload::default()
        }
        .validate();
    }
}

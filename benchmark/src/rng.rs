//! The benchmark's own seeded generators. Workload inputs are drawn
//! here and nowhere else — never from `cluster.sim`'s RNG — so a change
//! in the system cannot shift the operation stream it is measured on.

/// SplitMix64: small, fast, and good enough for key selection.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (`n > 0`); the modulo bias is below 2^-40 for
    /// every table size used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's scrambled zipfian over `[0, n)`: ranks follow a zipfian law
/// with exponent `theta`, and each rank is hashed to a key so the hot
/// keys are spread over the whole table (and hence over all regions).
#[derive(Clone, Debug)]
pub struct ScrambledZipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ScrambledZipf {
    pub fn new(n: u64, theta: f64) -> ScrambledZipf {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        ScrambledZipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn next(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64
        };
        mix(rank.min(self.n - 1)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = ScrambledZipf::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.next(&mut rng) as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = hits[..10].iter().sum();
        assert!(top10 > 30_000, "top 1% of keys drew {top10} of 100000");
    }
}

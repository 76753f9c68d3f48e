//! Seeded input generation: a small deterministic RNG, Poisson arrival
//! schedules, a Zipf key sampler and the fingerprint that pins what a
//! seed produced.

use venom_fp16::Half;
use venom_tensor::Matrix;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// A generator for an independent stream derived from this seed.
    pub fn fork(seed: u64, stream: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0xa076_1d64_78bd_642f)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A derived seed for the library's own seeded generators.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 1
    }
}

/// Arrival offsets (seconds from the phase start) of a Poisson process at
/// `rate` per second, covering `duration_s`.
pub fn poisson_offsets(rng: &mut Rng, rate: f64, duration_s: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

/// Zipf probabilities of ranks `0..n`: proportional to `1 / (rank+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    w.into_iter().map(|x| x / total).collect()
}

/// `len` ranks in seeded order whose counts follow `probs` exactly (up
/// to rounding by largest remainder): only the order is random, so the
/// share of each rank does not vary from seed to seed.
pub fn quota_sequence(rng: &mut Rng, probs: &[f64], len: usize) -> Vec<usize> {
    let exact: Vec<f64> = probs.iter().map(|p| p * len as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..probs.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut seq: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    for i in (1..seq.len()).rev() {
        seq.swap(i, rng.below(i + 1));
    }
    seq
}

/// FNV-1a over everything a workload generated: arrival schedule, key
/// sequence and operand bits. Equal seeds give equal fingerprints.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.u64(u64::from(v.to_bits()));
        }
    }

    pub fn halves(&mut self, m: &Matrix<Half>) {
        for v in m.as_slice() {
            self.u64(u64::from(v.to_bits()));
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close_to_requested() {
        let mut rng = Rng::new(7);
        let n = poisson_offsets(&mut rng, 500.0, 20.0).len() as f64;
        assert!((n / 20.0 - 500.0).abs() < 25.0, "rate {}", n / 20.0);
    }

    #[test]
    fn quota_sequence_keeps_zipf_shares_exactly() {
        let probs = zipf_weights(24, 1.2);
        assert!(probs[0] > probs[1] && probs[1] > probs[23]);
        let count = |seed: u64, rank: usize| {
            quota_sequence(&mut Rng::new(seed), &probs, 5000)
                .iter()
                .filter(|&&r| r == rank)
                .count()
        };
        for rank in [0, 5, 23] {
            assert_eq!(count(1, rank), count(2, rank));
            assert!((count(1, rank) as f64 - probs[rank] * 5000.0).abs() <= 1.0);
        }
        let (a, b) = (
            quota_sequence(&mut Rng::new(1), &probs, 100),
            quota_sequence(&mut Rng::new(2), &probs, 100),
        );
        assert_eq!(a.len(), 100);
        assert_ne!(a, b, "the order is seeded");
    }
}

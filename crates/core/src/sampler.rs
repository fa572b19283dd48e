//! SHARDS-style spatial sampling (§3.2, "Tracking workload
//! characteristics").
//!
//! Full-stream reuse tracking would cost memory proportional to the
//! working set; ADAPT instead samples the block stream *spatially*: an LBA
//! is in the sample iff `hash(lba) < rate · 2^64`. Hashing makes the
//! decision stateless and consistent — every access to a sampled block is
//! observed, accesses to unsampled blocks never are — which preserves
//! reuse structure (Waldspurger et al., FAST '15). Ages need no scaling
//! (they are full-stream bytes); the sampled write volume is scaled by `1/rate`.

use adapt_lss::Lba;

/// SplitMix64 finalizer: the sampling hash, and the demotion Bloom filters' mixer.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Spatial sampler with a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct SpatialSampler {
    /// Inclusion threshold: sampled iff `hash(lba) < threshold`.
    threshold: u64,
    /// The sampling rate as a fraction.
    rate: f64,
}

impl SpatialSampler {
    /// Create a sampler with the given rate in `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0,1], got {rate}");
        let threshold = if rate >= 1.0 { u64::MAX } else { (rate * u64::MAX as f64) as u64 };
        Self { threshold, rate }
    }

    /// Scale factor to convert sampled distances to full-stream distances.
    pub fn scale(&self) -> f64 {
        1.0 / self.rate
    }

    /// Whether `lba` is in the sample.
    #[inline]
    pub fn is_sampled(&self, lba: Lba) -> bool {
        mix64(lba ^ 0x5A4D_91E3_7C25_11D7) < self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_samples_everything() {
        let s = SpatialSampler::new(1.0);
        assert!((0..1000u64).all(|l| s.is_sampled(l)));
    }

    #[test]
    fn observed_rate_close_to_nominal() {
        for rate in [0.5, 0.1, 1.0 / 64.0] {
            let s = SpatialSampler::new(rate);
            let n = 1_000_000u64;
            let hits = (0..n).filter(|&l| s.is_sampled(l)).count() as f64;
            let observed = hits / n as f64;
            assert!((observed - rate).abs() / rate < 0.05, "rate {rate}: observed {observed}");
        }
    }

    #[test]
    fn decision_is_stable_per_lba() {
        let s = SpatialSampler::new(0.25);
        for lba in 0..1000u64 {
            assert_eq!(s.is_sampled(lba), s.is_sampled(lba));
        }
    }

    #[test]
    fn scale_is_reciprocal() {
        let s = SpatialSampler::new(0.01);
        assert!((s.scale() - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        SpatialSampler::new(0.0);
    }
}

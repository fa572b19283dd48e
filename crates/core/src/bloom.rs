//! A compact Bloom filter.
//!
//! Building block of the cascading discriminator (§3.4). Lookup is a
//! handful of hash-and-probe operations — the paper's "overhead of
//! nanoseconds" requirement — implemented with double hashing from a
//! single 64-bit mix (Kirsch–Mitzenmacher).

use crate::sampler::mix64;
use adapt_lss::Lba;

/// Hash probes per element (≈ 1 % false positives at 9.6 bits/element).
const HASHES: u32 = 7;

/// Fixed-capacity Bloom filter over LBAs.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    inserted: usize,
    capacity: usize,
}

impl BloomFilter {
    /// Create a filter sized for `capacity` insertions at roughly 1% false
    /// positives (≈ 9.6 bits/element, 7 hash probes).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let bits_needed = (capacity * 10).next_power_of_two().max(64);
        Self {
            bits: vec![0u64; bits_needed / 64],
            mask: bits_needed as u64 - 1,
            inserted: 0,
            capacity,
        }
    }

    #[inline]
    fn probe(&self, lba: Lba, i: u32) -> (usize, u64) {
        let h = mix64(lba ^ 0x9E37_79B9_7F4A_7C15);
        let g = mix64(lba.rotate_left(32) ^ 0xC2B2_AE3D_27D4_EB4F);
        let idx = h.wrapping_add((i as u64).wrapping_mul(g | 1)) & self.mask;
        ((idx / 64) as usize, 1u64 << (idx % 64))
    }

    /// Insert an LBA.
    pub fn insert(&mut self, lba: Lba) {
        for i in 0..HASHES {
            let (word, bit) = self.probe(lba, i);
            self.bits[word] |= bit;
        }
        self.inserted += 1;
    }

    /// Membership test (false positives possible, negatives exact).
    #[inline]
    pub fn contains(&self, lba: Lba) -> bool {
        (0..HASHES).all(|i| {
            let (word, bit) = self.probe(lba, i);
            self.bits[word] & bit != 0
        })
    }

    /// Whether the filter reached its design capacity (rotate signal).
    pub fn is_full(&self) -> bool {
        self.inserted >= self.capacity
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.capacity() * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_items_found() {
        let mut f = BloomFilter::new(1000);
        for i in 0..1000u64 {
            f.insert(i * 7);
        }
        for i in 0..1000u64 {
            assert!(f.contains(i * 7), "missing {}", i * 7);
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut f = BloomFilter::new(1000);
        for i in 0..1000u64 {
            f.insert(i);
        }
        let fps = (10_000..110_000u64).filter(|&x| f.contains(x)).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = BloomFilter::new(10);
        assert!(!f.contains(0));
        assert!(!f.contains(123456));
    }

    #[test]
    fn fullness_tracks_capacity() {
        let mut f = BloomFilter::new(3);
        assert!(!f.is_full());
        f.insert(1);
        f.insert(2);
        f.insert(3);
        assert!(f.is_full());
    }

    #[test]
    fn memory_scales_with_capacity() {
        assert!(BloomFilter::new(10_000).memory_bytes() > BloomFilter::new(100).memory_bytes());
    }
}

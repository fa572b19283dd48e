//! Chunk-to-device mapping (left-symmetric rotation, generalized k + m).
//!
//! In mdraid's default `left-symmetric` RAID-5 layout, the parity chunk of
//! stripe `s` lives on device `(n - 1 - s) mod n`, and data chunks fill the
//! remaining devices starting *after* the parity device, wrapping around.
//! This spreads both parity and data evenly, so sequential appends load all
//! spindles uniformly — the property the counters tests assert.
//!
//! With `m` parity chunks per stripe ([`crate::ArrayConfig::parity_devices`])
//! the same rotation generalizes: parity chunk `j` of stripe `s` lives on
//! device `(n - 1 - (s mod n) + j) mod n`, and the `k = n - m` data columns
//! follow after the last parity device. `m = 1` reproduces the original
//! RAID-5 mapping exactly, so every address computed before this layer
//! generalized is unchanged.

use crate::config::ArrayConfig;
use serde::{Deserialize, Serialize};

/// Physical location of one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkLocation {
    /// Stripe index (row).
    pub stripe: u64,
    /// Device index the chunk lands on.
    pub device: usize,
    /// Column within the stripe's data area (0..data_columns), i.e. the
    /// logical position of this chunk among the stripe's data chunks.
    pub column: usize,
}

/// What role a device plays within one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripeRole {
    /// Data column `c` (shard index `c`).
    Data(usize),
    /// Parity chunk `j` (shard index `k + j`).
    Parity(usize),
}

/// Left-symmetric address mapping for a `k + m` array.
#[derive(Debug, Clone, Copy)]
pub struct StripeLayout {
    cfg: ArrayConfig,
}

impl StripeLayout {
    /// Build a layout over the given geometry.
    pub fn new(cfg: ArrayConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The geometry.
    pub fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    /// Device holding parity chunk 0 of `stripe` (the XOR/P chunk; the
    /// only parity device when `m = 1`).
    pub fn parity_device(&self, stripe: u64) -> usize {
        self.parity_device_j(stripe, 0)
    }

    /// Device holding parity chunk `j` of `stripe` (`j < m`).
    pub fn parity_device_j(&self, stripe: u64, j: usize) -> usize {
        debug_assert!(j < self.cfg.parity_devices);
        let n = self.cfg.num_devices as u64;
        (((n - 1) - (stripe % n)) as usize + j) % self.cfg.num_devices
    }

    /// The devices holding the `m` parity chunks of `stripe`, in parity
    /// row order.
    pub fn parity_devices(&self, stripe: u64) -> impl Iterator<Item = usize> + '_ {
        (0..self.cfg.parity_devices).map(move |j| self.parity_device_j(stripe, j))
    }

    /// Map a logical chunk sequence number (0, 1, 2, … as the log appends)
    /// to its physical location.
    pub fn locate(&self, chunk_seq: u64) -> ChunkLocation {
        let k = self.cfg.data_columns() as u64;
        let (stripe, column) = (chunk_seq / k, (chunk_seq % k) as usize);
        let base = self.parity_device_j(stripe, 0);
        // Left-symmetric: data columns start on the device after the last
        // parity device.
        let device = (base + self.cfg.parity_devices + column) % self.cfg.num_devices;
        ChunkLocation { stripe, device, column }
    }

    /// What `device` holds within `stripe`: a data column or a parity
    /// chunk.
    pub fn role_of(&self, stripe: u64, device: usize) -> StripeRole {
        let n = self.cfg.num_devices;
        let base = self.parity_device_j(stripe, 0);
        let offset = (device + n - base) % n;
        if offset < self.cfg.parity_devices {
            StripeRole::Parity(offset)
        } else {
            StripeRole::Data(offset - self.cfg.parity_devices)
        }
    }

    /// The Reed-Solomon shard index of `device` within `stripe`: data
    /// columns map to `0..k`, parity chunk `j` to `k + j`.
    pub fn shard_of(&self, stripe: u64, device: usize) -> usize {
        match self.role_of(stripe, device) {
            StripeRole::Data(c) => c,
            StripeRole::Parity(j) => self.cfg.data_columns() + j,
        }
    }

    /// Logical chunk sequence number range `[start, end)` belonging to
    /// `stripe`.
    pub fn stripe_chunks(&self, stripe: u64) -> std::ops::Range<u64> {
        let k = self.cfg.data_columns() as u64;
        stripe * k..(stripe + 1) * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        StripeLayout::new(ArrayConfig::new(4, 65536))
    }

    #[test]
    fn parity_rotates_over_all_devices() {
        let l = layout();
        let devices: Vec<usize> = (0..4).map(|s| l.parity_device(s)).collect();
        assert_eq!(devices, vec![3, 2, 1, 0]);
        assert_eq!(l.parity_device(4), 3); // wraps
    }

    #[test]
    fn data_never_lands_on_parity_device() {
        let l = layout();
        for seq in 0..1000 {
            let loc = l.locate(seq);
            assert_ne!(loc.device, l.parity_device(loc.stripe), "chunk {seq}");
        }
    }

    #[test]
    fn three_data_chunks_per_stripe() {
        let l = layout();
        assert_eq!(l.locate(0).stripe, 0);
        assert_eq!(l.locate(2).stripe, 0);
        assert_eq!(l.locate(3).stripe, 1);
        assert_eq!(l.stripe_chunks(2), 6..9);
    }

    #[test]
    fn columns_within_stripe_are_distinct_devices() {
        let l = layout();
        for stripe in 0..100u64 {
            let mut devices: Vec<usize> =
                l.stripe_chunks(stripe).map(|seq| l.locate(seq).device).collect();
            devices.push(l.parity_device(stripe));
            devices.sort_unstable();
            assert_eq!(devices, vec![0, 1, 2, 3], "stripe {stripe}");
        }
    }

    #[test]
    fn sequential_appends_balance_devices() {
        // Over many whole stripes every device receives the same number of
        // chunks (data + parity combined).
        let l = layout();
        let mut per_device = [0u64; 4];
        for stripe in 0..400u64 {
            for seq in l.stripe_chunks(stripe) {
                per_device[l.locate(seq).device] += 1;
            }
            per_device[l.parity_device(stripe)] += 1;
        }
        assert!(per_device.iter().all(|&c| c == per_device[0]), "{per_device:?}");
    }

    #[test]
    fn five_device_layout_consistent() {
        let l = StripeLayout::new(ArrayConfig::new(5, 65536));
        for seq in 0..500 {
            let loc = l.locate(seq);
            assert!(loc.device < 5);
            assert!(loc.column < 4);
            assert_ne!(loc.device, l.parity_device(loc.stripe));
        }
    }

    #[test]
    fn raid6_stripe_covers_every_device_once() {
        // 6+2: each stripe's 6 data + 2 parity chunks land on 8 distinct
        // devices.
        let l = StripeLayout::new(ArrayConfig::with_parity(8, 2, 65536));
        for stripe in 0..64u64 {
            let mut devices: Vec<usize> =
                l.stripe_chunks(stripe).map(|seq| l.locate(seq).device).collect();
            devices.extend(l.parity_devices(stripe));
            devices.sort_unstable();
            assert_eq!(devices, (0..8).collect::<Vec<_>>(), "stripe {stripe}");
        }
    }

    #[test]
    fn multi_parity_appends_balance_devices() {
        let l = StripeLayout::new(ArrayConfig::with_parity(7, 3, 65536));
        let mut per_device = [0u64; 7];
        for stripe in 0..700u64 {
            for seq in l.stripe_chunks(stripe) {
                per_device[l.locate(seq).device] += 1;
            }
            for p in l.parity_devices(stripe) {
                per_device[p] += 1;
            }
        }
        assert!(per_device.iter().all(|&c| c == per_device[0]), "{per_device:?}");
    }

    #[test]
    fn roles_and_shards_are_consistent() {
        for cfg in [ArrayConfig::new(4, 65536), ArrayConfig::with_parity(8, 2, 65536)] {
            let l = StripeLayout::new(cfg);
            let k = cfg.data_columns();
            for stripe in 0..50u64 {
                for seq in l.stripe_chunks(stripe) {
                    let loc = l.locate(seq);
                    assert_eq!(l.role_of(stripe, loc.device), StripeRole::Data(loc.column));
                    assert_eq!(l.shard_of(stripe, loc.device), loc.column);
                }
                for (j, p) in l.parity_devices(stripe).enumerate() {
                    assert_eq!(l.role_of(stripe, p), StripeRole::Parity(j));
                    assert_eq!(l.shard_of(stripe, p), k + j);
                }
            }
        }
    }

    #[test]
    fn m1_layout_is_byte_identical_to_historical_raid5() {
        // The pre-generalization mapping: parity at (n-1) - (s % n), data
        // starting one past it. Every address must be unchanged.
        let l = layout();
        for seq in 0..2000u64 {
            let loc = l.locate(seq);
            let stripe = seq / 3;
            let parity = (4 - 1 - (stripe % 4) as usize) % 4;
            assert_eq!(l.parity_device(stripe), parity);
            assert_eq!(loc.device, (parity + 1 + (seq % 3) as usize) % 4);
        }
    }
}

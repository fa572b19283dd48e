//! Volume → shard routing.
//!
//! The address space of every registered volume is cut into fixed
//! `range_blocks` routing ranges; each `(volume, range)` pair hashes onto
//! one shard. Within a shard, ranges are packed into consecutive *slots*
//! of the shard-local LBA space in registration order, so the shard's
//! engine sees a dense address space sized exactly to the ranges it owns
//! — no sparse holes, no cross-shard coordination.
//!
//! The whole table is a pure function of (shard count, range size,
//! registration order): after a crash it is rebuilt identically from the
//! builder configuration, so the mapping needs no persistence, and two
//! servers configured alike route identically — the property the
//! deterministic replay harness leans on.

use crate::api::{SubmitError, VolumeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One volume registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeSpec {
    /// Host-visible volume id.
    pub id: VolumeId,
    /// Capacity in blocks (rounded up to whole ranges for routing).
    pub blocks: u64,
}

/// A routed request: target shard and shard-local address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// Target shard.
    pub shard: u32,
    /// First block in the shard's local LBA space.
    pub local_lba: u64,
}

/// One SplitMix64 step — a full-avalanche mix so consecutive ranges of
/// one volume scatter across shards instead of striping.
fn mix64(x: u64) -> u64 {
    adapt_trace::rng::mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Static routing table shared by all clients of one server.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: u32,
    range_blocks: u64,
    /// Volume id → capacity in blocks.
    capacity: HashMap<VolumeId, u64>,
    /// `(volume, range)` → `(shard, slot)`.
    slots: HashMap<(VolumeId, u64), (u32, u64)>,
    /// Slots assigned per shard.
    shard_slots: Vec<Vec<(VolumeId, u64)>>,
}

impl ShardRouter {
    /// Build the table. Volumes are processed in the given order and
    /// ranges in ascending order, so the mapping is reproducible from
    /// configuration alone. Duplicate volume ids panic (a builder bug).
    ///
    /// # Panics
    ///
    /// If `shards == 0`, `range_blocks == 0`, or a volume id repeats.
    pub fn new(shards: u32, range_blocks: u64, volumes: &[VolumeSpec]) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(range_blocks > 0, "need a nonzero routing range");
        let mut capacity = HashMap::new();
        let mut slots = HashMap::new();
        let mut shard_slots = vec![Vec::new(); shards as usize];
        for v in volumes {
            assert!(capacity.insert(v.id, v.blocks).is_none(), "volume {} registered twice", v.id);
            let ranges = v.blocks.div_ceil(range_blocks);
            for range in 0..ranges {
                let shard = (mix64(((v.id as u64) << 32) ^ range) % shards as u64) as u32;
                let slot = shard_slots[shard as usize].len() as u64;
                shard_slots[shard as usize].push((v.id, range));
                slots.insert((v.id, range), (shard, slot));
            }
        }
        Self { shards, range_blocks, capacity, slots, shard_slots }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Routing-range size in blocks.
    pub fn range_blocks(&self) -> u64 {
        self.range_blocks
    }

    /// The `(volume, range)` slots owned by `shard`, in slot order.
    pub fn shard_ranges(&self, shard: u32) -> &[(VolumeId, u64)] {
        &self.shard_slots[shard as usize]
    }

    /// Dense local LBA space the shard's engine must cover, in blocks.
    pub fn shard_user_blocks(&self, shard: u32) -> u64 {
        self.shard_slots[shard as usize].len() as u64 * self.range_blocks
    }

    /// Validate and route one request. Rejects unknown volumes, requests
    /// past the volume's registered capacity, zero-length requests, and
    /// requests crossing a routing-range boundary (they could land on two
    /// shards).
    pub fn locate(&self, volume: VolumeId, lba: u64, blocks: u32) -> Result<Routed, SubmitError> {
        if blocks == 0 {
            return Err(SubmitError::ZeroBlocks);
        }
        let Some(&capacity) = self.capacity.get(&volume) else {
            return Err(SubmitError::UnknownVolume { volume });
        };
        let end = match lba.checked_add(blocks as u64) {
            Some(end) if end <= capacity => end,
            _ => return Err(SubmitError::OutOfRange { volume, lba, blocks, capacity }),
        };
        let range = lba / self.range_blocks;
        if (end - 1) / self.range_blocks != range {
            return Err(SubmitError::CrossesShardBoundary { volume, lba, blocks });
        }
        let (shard, slot) = self.slots[&(volume, range)];
        Ok(Routed { shard, local_lba: slot * self.range_blocks + lba % self.range_blocks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED: [(u32, u64); 30] = [
        (0, 0),
        (3, 1),
        (2, 2),
        (3, 259),
        (1, 4),
        (2, 261),
        (3, 518),
        (3, 775),
        (0, 264),
        (3, 1033),
        (1, 266),
        (3, 1291),
        (3, 1548),
        (3, 1805),
        (2, 526),
        (0, 527),
        (2, 768),
        (1, 513),
        (3, 2050),
        (3, 2307),
        (2, 1024),
        (2, 1281),
        (1, 770),
        (3, 2563),
        (3, 2820),
        (2, 1541),
        (3, 3078),
        (2, 1799),
        (2, 2056),
        (2, 2313),
    ];

    fn router() -> ShardRouter {
        ShardRouter::new(
            4,
            256,
            &[VolumeSpec { id: 1, blocks: 4096 }, VolumeSpec { id: 2, blocks: 1000 }],
        )
    }

    #[test]
    fn every_range_is_owned_exactly_once() {
        let r = router();
        let total: usize = (0..4).map(|s| r.shard_ranges(s).len()).sum();
        // vol 1: 4096/256 = 16 ranges; vol 2: ceil(1000/256) = 4 ranges.
        assert_eq!(total, 20);
        let blocks: u64 = (0..4).map(|s| r.shard_user_blocks(s)).sum();
        assert_eq!(blocks, 20 * 256);
    }

    #[test]
    fn routing_is_deterministic_and_dense() {
        let a = router();
        let b = router();
        for lba in (0..4096).step_by(64) {
            let ra = a.locate(1, lba, 1).unwrap();
            let rb = b.locate(1, lba, 1).unwrap();
            assert_eq!(ra, rb, "identical config ⇒ identical routing");
            assert!(ra.local_lba < a.shard_user_blocks(ra.shard));
        }
    }

    #[test]
    fn ranges_scatter_across_shards() {
        let r = router();
        let shards: std::collections::HashSet<u32> =
            (0..4096).step_by(256).map(|lba| r.locate(1, lba, 1).unwrap().shard).collect();
        assert!(shards.len() >= 3, "16 ranges should hit ≥3 of 4 shards, got {shards:?}");
    }

    #[test]
    fn offsets_within_range_are_preserved() {
        let r = router();
        let base = r.locate(1, 512, 1).unwrap();
        let off = r.locate(1, 512 + 37, 1).unwrap();
        assert_eq!(off.shard, base.shard);
        assert_eq!(off.local_lba, base.local_lba + 37);
    }

    #[test]
    fn validation_rejects_bad_requests() {
        let r = router();
        assert_eq!(r.locate(9, 0, 1), Err(SubmitError::UnknownVolume { volume: 9 }));
        assert_eq!(r.locate(1, 0, 0), Err(SubmitError::ZeroBlocks));
        assert!(matches!(r.locate(2, 999, 2), Err(SubmitError::OutOfRange { .. })));
        assert!(matches!(r.locate(1, u64::MAX - 1, 4), Err(SubmitError::OutOfRange { .. })));
        assert!(matches!(r.locate(1, 255, 2), Err(SubmitError::CrossesShardBoundary { .. })));
        // Whole-range request at the boundary is fine.
        assert!(r.locate(1, 256, 256).is_ok());
    }

    /// `(shard, local_lba)` of one request per routing range of a fixed
    /// 4-shard, 3-volume table, recorded from the hand-written SplitMix64
    /// finalizer this router used before it called the trace crate's.
    #[test]
    fn routing_is_pinned() {
        let r = ShardRouter::new(
            4,
            256,
            &[
                VolumeSpec { id: 1, blocks: 4096 },
                VolumeSpec { id: 2, blocks: 1000 },
                VolumeSpec { id: 5, blocks: 2560 },
            ],
        );
        let got: Vec<(u32, u64)> = [(1, 16), (2, 4), (5, 10)]
            .into_iter()
            .flat_map(|(vol, ranges)| (0..ranges).map(move |range| (vol, range * 256 + range)))
            .map(|(vol, lba)| {
                let routed = r.locate(vol, lba, 1).unwrap();
                (routed.shard, routed.local_lba)
            })
            .collect();
        assert_eq!(got, PINNED);
    }

    #[test]
    fn single_shard_owns_everything() {
        let r = ShardRouter::new(1, 128, &[VolumeSpec { id: 7, blocks: 1024 }]);
        assert_eq!(r.shard_user_blocks(0), 1024);
        for lba in 0..1024 {
            assert_eq!(r.locate(7, lba, 1).unwrap().shard, 0);
        }
    }
}

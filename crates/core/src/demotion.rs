//! Proactive demotion placement (§3.4).
//!
//! Each GC-rewritten group owns a *cascading discriminator*: a FIFO of
//! Bloom filters. During GC, every valid block that migrates **back into
//! its own group** has its LBA inserted into that group's discriminator —
//! such blocks demonstrably live as long as that group's segments. At
//! user-write time, the block's score per group is the number of filters
//! containing its LBA; if the best score reaches the threshold, the block
//! is demoted straight into that GC group, skipping the chain of
//! migrations that would otherwise carry it there (the dominant rewrite
//! traffic under Zipfian workloads).
//!
//! Every filter has the same capacity and the same hash, so an LBA probes
//! the same `HASHES` positions in all of them. The filters are therefore
//! stored *bit-sliced*: byte `p` of one array holds bit `p` of every
//! filter, one bit lane per filter. One probe pass (hash once, AND seven
//! bytes) answers every filter of every group at once.

use adapt_lss::{GroupId, Lba, LssConfig};
use adapt_trace::rng::mix64;

/// Bloom filters per cascading discriminator; no figure from the paper is
/// on record here. Four generations let a score of [`SCORE_THRESHOLD`]
/// mean "re-migrated in two different epochs".
const FILTERS_PER_DISCRIMINATOR: usize = 4;

/// Minimum RA-identifier score that demotes a user write — the paper's
/// "pre-defined threshold" (§3.4; no value on record here). Two: one hit may be a
/// Bloom false positive, two filters agreeing rarely are.
const SCORE_THRESHOLD: u32 = 2;

/// Hash probes per element (≈ 1 % false positives at ≥ 10 bits/element,
/// double hashing from two 64-bit mixes, Kirsch–Mitzenmacher).
const HASHES: u64 = 7;

/// Bits per filter per insertion of capacity (rounded up to a power of
/// two, so a probe position is a mask, not a division).
const BITS_PER_ELEMENT: usize = 10;

/// The [`HASHES`] byte positions of `lba` in filters of `mask + 1` bits,
/// shared by every filter: two mixes, then double hashing.
#[inline]
fn probes(lba: Lba, mask: u64) -> impl Iterator<Item = usize> {
    let h = mix64(lba ^ 0x9E37_79B9_7F4A_7C15);
    let g = mix64(lba.rotate_left(32) ^ 0xC2B2_AE3D_27D4_EB4F) | 1;
    (0..HASHES).map(move |i| (h.wrapping_add(i.wrapping_mul(g)) & mask) as usize)
}

/// One group's FIFO of filters, as a ring over its bit lanes.
#[derive(Debug, Clone)]
struct Discriminator {
    group: GroupId,
    /// Ring slot of the newest filter; the oldest is the next slot.
    newest: usize,
    /// Filters in use, up to [`FILTERS_PER_DISCRIMINATOR`].
    live: usize,
    /// Insertions into the newest filter.
    inserted: usize,
}

/// The RA (re-access) identifier: one discriminator per GC group, all
/// filters bit-sliced into one array. Filter `slot` of group `gi` is bit
/// lane `gi · FILTERS_PER_DISCRIMINATOR + slot`.
#[derive(Debug, Clone)]
pub struct RaIdentifier {
    discriminators: Vec<Discriminator>,
    /// Byte `p` holds bit `p` of every filter.
    slices: Vec<u8>,
    /// Filter length in bits, minus one.
    mask: u64,
    /// Insertions per filter before the cascade rotates.
    filter_capacity: usize,
}

impl RaIdentifier {
    /// Create an identifier for the given GC groups, its filters sized to
    /// the engine's volume: a sixteenth of the logical blocks, within
    /// 256..=65 536 insertions per filter.
    pub fn new(gc_groups: &[GroupId], lss: &LssConfig) -> Self {
        Self::with_filter_capacity(gc_groups, (lss.user_blocks / 16).clamp(256, 65_536) as usize)
    }

    /// As [`RaIdentifier::new`] with an explicit per-filter capacity. At
    /// most two groups fit: their filters share one byte per position.
    pub fn with_filter_capacity(gc_groups: &[GroupId], filter_capacity: usize) -> Self {
        assert!(gc_groups.len() * FILTERS_PER_DISCRIMINATOR <= u8::BITS as usize);
        assert!(filter_capacity > 0);
        let bits = (filter_capacity * BITS_PER_ELEMENT).next_power_of_two().max(64);
        let discriminators = gc_groups
            .iter()
            .map(|&group| Discriminator { group, newest: 0, live: 1, inserted: 0 })
            .collect();
        Self { discriminators, slices: vec![0; bits], mask: bits as u64 - 1, filter_capacity }
    }

    /// The lanes (filters) that contain `lba`.
    #[inline]
    fn lanes(&self, lba: Lba) -> u8 {
        let mut lanes = u8::MAX;
        for p in probes(lba, self.mask) {
            lanes &= self.slices[p];
            if lanes == 0 {
                break;
            }
        }
        lanes
    }

    /// GC observed `lba` migrating from `from` back into `to`; a same-group
    /// migration trains that group's discriminator. When the newest filter
    /// is full the ring advances; once all filters are live, that clears
    /// the oldest filter's lane.
    pub fn observe_migration(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        if from != to {
            return;
        }
        let Some(gi) = self.discriminators.iter().position(|d| d.group == to) else {
            return;
        };
        let d = &mut self.discriminators[gi];
        if d.inserted >= self.filter_capacity {
            d.newest = (d.newest + 1) % FILTERS_PER_DISCRIMINATOR;
            d.inserted = 0;
            if d.live < FILTERS_PER_DISCRIMINATOR {
                d.live += 1; // a lane no filter has used yet is already clear
            } else {
                let keep = !(1u8 << (gi * FILTERS_PER_DISCRIMINATOR + d.newest));
                self.slices.iter_mut().for_each(|b| *b &= keep);
            }
        }
        d.inserted += 1;
        let bit = 1u8 << (gi * FILTERS_PER_DISCRIMINATOR + d.newest);
        for p in probes(lba, self.mask) {
            self.slices[p] |= bit;
        }
    }

    /// Demotion check at user-write time: a group's score is the number
    /// of its filters containing `lba`; the highest-scoring group (the
    /// last on a tie) wins if it reaches `SCORE_THRESHOLD`.
    pub fn check(&self, lba: Lba) -> Option<GroupId> {
        let lanes = self.lanes(lba);
        let nibble = (1u8 << FILTERS_PER_DISCRIMINATOR) - 1;
        let (best, score) = self
            .discriminators
            .iter()
            .enumerate()
            .map(|(gi, d)| {
                (d.group, ((lanes >> (gi * FILTERS_PER_DISCRIMINATOR)) & nibble).count_ones())
            })
            .max_by_key(|&(_, s)| s)?;
        (score >= SCORE_THRESHOLD).then_some(best)
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slices.capacity()
            + self.discriminators.capacity() * std::mem::size_of::<Discriminator>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_trace::rng::Xoshiro256StarStar;
    use std::collections::VecDeque;

    /// The filters as they were before slicing: one word-packed Bloom
    /// filter per generation, each hashing the LBA on its own.
    #[derive(Clone)]
    struct BloomFilter {
        bits: Vec<u64>,
        mask: u64,
        inserted: usize,
        capacity: usize,
    }

    impl BloomFilter {
        fn new(capacity: usize) -> Self {
            let bits_needed = (capacity * 10).next_power_of_two().max(64);
            Self {
                bits: vec![0u64; bits_needed / 64],
                mask: bits_needed as u64 - 1,
                inserted: 0,
                capacity,
            }
        }

        fn probe(&self, lba: Lba, i: u32) -> (usize, u64) {
            let h = mix64(lba ^ 0x9E37_79B9_7F4A_7C15);
            let g = mix64(lba.rotate_left(32) ^ 0xC2B2_AE3D_27D4_EB4F);
            let idx = h.wrapping_add((i as u64).wrapping_mul(g | 1)) & self.mask;
            ((idx / 64) as usize, 1u64 << (idx % 64))
        }

        fn insert(&mut self, lba: Lba) {
            for i in 0..7 {
                let (word, bit) = self.probe(lba, i);
                self.bits[word] |= bit;
            }
            self.inserted += 1;
        }

        fn contains(&self, lba: Lba) -> bool {
            (0..7).all(|i| {
                let (word, bit) = self.probe(lba, i);
                self.bits[word] & bit != 0
            })
        }
    }

    /// The unsliced identifier: a `VecDeque` cascade of [`BloomFilter`]s
    /// per group, every filter scored on every check.
    struct Reference {
        gc_groups: Vec<GroupId>,
        cascades: Vec<VecDeque<BloomFilter>>,
        capacity: usize,
    }

    impl Reference {
        fn new(gc_groups: &[GroupId], capacity: usize) -> Self {
            let cascades =
                gc_groups.iter().map(|_| VecDeque::from([BloomFilter::new(capacity)])).collect();
            Self { gc_groups: gc_groups.to_vec(), cascades, capacity }
        }

        fn observe_migration(&mut self, lba: Lba, from: GroupId, to: GroupId) {
            if from != to {
                return;
            }
            let Some(i) = self.gc_groups.iter().position(|&g| g == to) else { return };
            let filters = &mut self.cascades[i];
            match filters.back_mut() {
                Some(newest) if newest.inserted < newest.capacity => newest.insert(lba),
                _ => {
                    if filters.len() == FILTERS_PER_DISCRIMINATOR {
                        filters.pop_front();
                    }
                    let mut fresh = BloomFilter::new(self.capacity);
                    fresh.insert(lba);
                    filters.push_back(fresh);
                }
            }
        }

        fn check(&self, lba: Lba) -> Option<GroupId> {
            let (best, score) = self
                .cascades
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.iter().filter(|f| f.contains(lba)).count() as u32))
                .max_by_key(|&(_, s)| s)?;
            (score >= SCORE_THRESHOLD).then(|| self.gc_groups[best])
        }
    }

    /// Score of `lba` in group `gi`, as the cascade counts it.
    fn score(ra: &RaIdentifier, lba: Lba, gi: usize) -> u32 {
        (ra.lanes(lba) >> (gi * FILTERS_PER_DISCRIMINATOR) & 0xF).count_ones()
    }

    #[test]
    fn sliced_identifier_matches_the_unsliced_cascade() {
        let groups = [4, 5];
        for (seed, capacity) in [(1, 1), (2, 3), (3, 17), (4, 64)] {
            let mut rng = Xoshiro256StarStar::new(seed);
            let mut sliced = RaIdentifier::with_filter_capacity(&groups, capacity);
            let mut reference = Reference::new(&groups, capacity);
            let mut demotions = 0;
            for step in 0..20_000 {
                let lba = rng.next_bounded(4 * capacity as u64 + 8);
                if rng.next_bounded(3) == 0 {
                    let from = 2 + rng.next_bounded(4) as GroupId;
                    let to = if rng.next_bounded(4) == 0 {
                        from
                    } else {
                        2 + rng.next_bounded(4) as GroupId
                    };
                    sliced.observe_migration(lba, from, to);
                    reference.observe_migration(lba, from, to);
                } else {
                    let got = sliced.check(lba);
                    assert_eq!(got, reference.check(lba), "capacity {capacity}, step {step}");
                    demotions += u32::from(got.is_some());
                }
            }
            assert!(demotions > 0, "capacity {capacity}: the stream never demoted");
        }
    }

    #[test]
    fn cascade_rotates_fifo() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2], 2);
        for lba in 0..10u64 {
            ra.observe_migration(lba, 2, 2);
        }
        // The oldest entries (0, 1) were evicted with their filter.
        assert_eq!(score(&ra, 0, 0), 0);
        assert!(score(&ra, 9, 0) >= 1);
    }

    #[test]
    fn ring_advances_only_past_capacity() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2], 3);
        for lba in 0..3u64 {
            ra.observe_migration(lba, 2, 2);
        }
        assert_eq!((ra.discriminators[0].newest, ra.discriminators[0].live), (0, 1));
        ra.observe_migration(3, 2, 2);
        assert_eq!((ra.discriminators[0].newest, ra.discriminators[0].live), (1, 2));
    }

    #[test]
    fn score_counts_filters() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2], 2);
        // Insert the same LBA across several filter generations.
        for _ in 0..4 {
            ra.observe_migration(77, 2, 2);
            ra.observe_migration(1000, 2, 2); // fill the filter to force rotation
        }
        assert!(score(&ra, 77, 0) >= 3, "score {}", score(&ra, 77, 0));
    }

    #[test]
    fn ra_identifier_trains_on_same_group_migrations_only() {
        let mut ra = RaIdentifier::with_filter_capacity(&[4, 5], 100);
        // Cross-group migration: no training.
        ra.observe_migration(9, 5, 4);
        assert_eq!(ra.check(9), None);
        // Two same-group migrations into group 4: demote.
        ra.observe_migration(9, 4, 4);
        assert_eq!(ra.check(9), None); // score 1 < threshold 2
        ra.observe_migration(9, 4, 4);
        // Both insertions landed in the same filter; score counts filters,
        // so we need insertions across generations. Force rotation:
        for filler in 100..200u64 {
            ra.observe_migration(filler, 4, 4);
        }
        ra.observe_migration(9, 4, 4);
        assert_eq!(ra.check(9), Some(4));
    }

    #[test]
    fn check_prefers_highest_scoring_group() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2, 3], 2);
        // One generation in group 2, two in group 3.
        ra.observe_migration(5, 2, 2);
        ra.observe_migration(5, 3, 3);
        ra.observe_migration(1000, 3, 3); // fill group 3's filter to force rotation
        ra.observe_migration(5, 3, 3);
        assert_eq!(ra.check(5), Some(3));
    }

    #[test]
    fn unknown_lba_not_demoted() {
        let ra = RaIdentifier::with_filter_capacity(&[2, 3], 10);
        assert_eq!(ra.check(12345), None);
        assert_eq!(ra.lanes(0), 0);
    }

    #[test]
    fn inserted_items_found() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2, 3], 1000);
        for i in 0..1000u64 {
            ra.observe_migration(i * 7, 3, 3);
        }
        for i in 0..1000u64 {
            assert_eq!(score(&ra, i * 7, 1), 1, "missing {}", i * 7);
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2], 1000);
        for i in 0..1000u64 {
            ra.observe_migration(i, 2, 2);
        }
        let fps = (10_000..110_000u64).filter(|&x| score(&ra, x, 0) > 0).count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn memory_is_one_byte_per_filter_bit() {
        let small = RaIdentifier::with_filter_capacity(&[2, 3], 100);
        let large = RaIdentifier::with_filter_capacity(&[2, 3], 10_000);
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(large.memory_bytes() - (10_000 * BITS_PER_ELEMENT).next_power_of_two() < 256);
    }

    #[test]
    fn memory_bounded_by_rotation() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2, 3], 10);
        let before = ra.memory_bytes();
        for lba in 0..10_000u64 {
            ra.observe_migration(lba, 2, 2);
        }
        assert_eq!(ra.memory_bytes(), before);
    }
}

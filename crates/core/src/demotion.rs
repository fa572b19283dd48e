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

use crate::bloom::BloomFilter;
use adapt_lss::{GroupId, Lba, LssConfig};
use std::collections::VecDeque;

/// Bloom filters per cascading discriminator; no figure from the paper is
/// on record here. Four generations let a score of [`SCORE_THRESHOLD`]
/// mean "re-migrated in two different epochs".
const FILTERS_PER_DISCRIMINATOR: usize = 4;

/// Minimum RA-identifier score that demotes a user write — the paper's
/// "pre-defined threshold" (§3.4; no value on record here). Two: one hit may be a
/// Bloom false positive, two filters agreeing rarely are.
const SCORE_THRESHOLD: u32 = 2;

/// FIFO cascade of Bloom filters for one GC group.
#[derive(Debug, Clone)]
pub struct CascadingDiscriminator {
    filters: VecDeque<BloomFilter>,
    filter_capacity: usize,
}

impl CascadingDiscriminator {
    /// Create a cascade of at most [`FILTERS_PER_DISCRIMINATOR`] filters,
    /// each sized for `filter_capacity` insertions.
    pub fn new(filter_capacity: usize) -> Self {
        let mut filters = VecDeque::with_capacity(FILTERS_PER_DISCRIMINATOR);
        filters.push_back(BloomFilter::new(filter_capacity));
        Self { filters, filter_capacity }
    }

    /// Record a re-access observation; rotates filters FIFO when the
    /// newest fills, bounding memory.
    pub fn insert(&mut self, lba: Lba) {
        match self.filters.back_mut() {
            Some(newest) if !newest.is_full() => newest.insert(lba),
            _ => {
                if self.filters.len() == FILTERS_PER_DISCRIMINATOR {
                    self.filters.pop_front();
                }
                let mut fresh = BloomFilter::new(self.filter_capacity);
                fresh.insert(lba);
                self.filters.push_back(fresh);
            }
        }
    }

    /// Score = number of filters containing the LBA.
    #[inline]
    pub fn score(&self, lba: Lba) -> u32 {
        self.filters.iter().filter(|f| f.contains(lba)).count() as u32
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.filters.iter().map(|f| f.memory_bytes()).sum::<usize>() + std::mem::size_of::<Self>()
    }
}

/// The RA (re-access) identifier: one discriminator per GC group.
#[derive(Debug, Clone)]
pub struct RaIdentifier {
    /// GC group ids covered, in order.
    gc_groups: Vec<GroupId>,
    discriminators: Vec<CascadingDiscriminator>,
}

impl RaIdentifier {
    /// Create an identifier for the given GC groups, its filters sized to
    /// the engine's volume: a sixteenth of the logical blocks, within
    /// 256..=65 536 insertions per filter.
    pub fn new(gc_groups: &[GroupId], lss: &LssConfig) -> Self {
        Self::with_filter_capacity(gc_groups, (lss.user_blocks / 16).clamp(256, 65_536) as usize)
    }

    /// As [`RaIdentifier::new`] with an explicit per-filter capacity.
    pub fn with_filter_capacity(gc_groups: &[GroupId], filter_capacity: usize) -> Self {
        let discriminators =
            gc_groups.iter().map(|_| CascadingDiscriminator::new(filter_capacity)).collect();
        Self { gc_groups: gc_groups.to_vec(), discriminators }
    }

    /// GC observed `lba` migrating from `from` back into `to`; a same-group
    /// migration trains that group's discriminator.
    pub fn observe_migration(&mut self, lba: Lba, from: GroupId, to: GroupId) {
        if from == to {
            if let Some(i) = self.gc_groups.iter().position(|&g| g == to) {
                self.discriminators[i].insert(lba);
            }
        }
    }

    /// Demotion check at user-write time: the GC group with the highest
    /// score wins if it reaches [`SCORE_THRESHOLD`].
    pub fn check(&self, lba: Lba) -> Option<GroupId> {
        let (best_idx, best_score) = self
            .discriminators
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.score(lba)))
            .max_by_key(|&(_, s)| s)?;
        (best_score >= SCORE_THRESHOLD).then(|| self.gc_groups[best_idx])
    }

    /// Resident bytes.
    pub fn memory_bytes(&self) -> usize {
        self.discriminators.iter().map(|d| d.memory_bytes()).sum::<usize>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_rotates_fifo() {
        let mut c = CascadingDiscriminator::new(2);
        for lba in 0..10u64 {
            c.insert(lba);
        }
        assert_eq!(c.filters.len(), FILTERS_PER_DISCRIMINATOR);
        // The oldest entries (0, 1) were evicted with their filter.
        assert_eq!(c.score(0), 0);
        assert!(c.score(9) >= 1);
    }

    #[test]
    fn score_counts_filters() {
        let mut c = CascadingDiscriminator::new(2);
        // Insert the same LBA across several filter generations.
        for _ in 0..4 {
            c.insert(77);
            c.insert(1000); // fill the filter to force rotation
        }
        assert!(c.score(77) >= 3, "score {}", c.score(77));
    }

    #[test]
    fn ra_identifier_trains_on_same_group_migrations_only() {
        let mut ra = RaIdentifier::with_filter_capacity(&[2, 3, 4, 5], 100);
        // Cross-group migration: no training.
        ra.observe_migration(9, 2, 3);
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
    }

    #[test]
    fn memory_bounded_by_rotation() {
        let mut c = CascadingDiscriminator::new(10);
        let before = c.memory_bytes();
        for lba in 0..10_000u64 {
            c.insert(lba);
        }
        let after = c.memory_bytes();
        assert!(
            after <= before * (FILTERS_PER_DISCRIMINATOR + 1),
            "memory grew unbounded: {before} -> {after}"
        );
    }
}

//! WARCIP: Write Amplification Reduction by Clustering I/O Pages
//! (Yang, Pei & Yang, SYSTOR 2019).
//!
//! WARCIP clusters pages by their *rewrite interval* — the wall-clock gap
//! between consecutive writes to the same page — on the theory that pages
//! rewritten at similar cadence invalidate together. We implement the
//! clustering as streaming one-dimensional k-means over `log2(interval)`:
//! each write is assigned to the nearest centroid (its cluster = its
//! group) and pulls that centroid toward itself with a small learning
//! rate. Centroids are kept sorted so group 0 is always the
//! shortest-interval (hottest) cluster.
//!
//! Configuration per the paper: five user clusters plus one GC group.

use crate::lba_table::LbaTable;
use adapt_lss::{GroupId, GroupKind, Lba, PlacementPolicy, PolicyCtx, VictimMeta};

/// User clusters in the paper's WARCIP configuration.
pub const WARCIP_USER_GROUPS: usize = 5;

/// Learning rate of the online k-means update.
const LEARNING_RATE: f64 = 0.05;

/// Rewrite-interval clustering policy.
#[derive(Debug, Clone)]
pub struct Warcip {
    groups: Vec<GroupKind>,
    /// Last write wall-clock (µs) + 1 per block; 0 = never written.
    last_write_us: LbaTable<u64>,
    /// Cluster centroids in log2(µs) space, ascending.
    centroids: Vec<f64>,
}

impl Default for Warcip {
    fn default() -> Self {
        Self::new()
    }
}

impl Warcip {
    /// Create with the paper's 5+1 configuration.
    pub fn new() -> Self {
        Self::with_user_groups(WARCIP_USER_GROUPS)
    }

    /// Create with a custom number of user clusters (≥ 2).
    pub fn with_user_groups(k: usize) -> Self {
        assert!((2..=254).contains(&k));
        let mut groups = vec![GroupKind::User; k];
        groups.push(GroupKind::Gc);
        // Seed centroids across the plausible interval range: 100 µs … 100 s,
        // evenly spaced in log2 space.
        let lo = (100.0f64).log2();
        let hi = (100_000_000.0f64).log2();
        let centroids = (0..k).map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64).collect();
        Self { groups, last_write_us: LbaTable::default(), centroids }
    }

    /// The GC group id.
    pub fn gc_group(&self) -> GroupId {
        (self.groups.len() - 1) as GroupId
    }

    /// Current centroids (log2 µs), for inspection.
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }

    /// Nearest centroid index for a log-interval.
    fn nearest(&self, x: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &c) in self.centroids.iter().enumerate() {
            let d = (x - c).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl PlacementPolicy for Warcip {
    fn name(&self) -> &'static str {
        "WARCIP"
    }

    fn groups(&self) -> &[GroupKind] {
        &self.groups
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        let prev = self.last_write_us.get(lba);
        self.last_write_us.set(lba, ctx.now_us + 1);
        if prev == 0 {
            // First write: no interval yet — treat as the coldest cluster
            // (an unknown page is assumed long-lived).
            return (self.centroids.len() - 1) as GroupId;
        }
        let interval_us = ctx.now_us.saturating_sub(prev - 1).max(1);
        let x = (interval_us as f64).log2();
        let cluster = self.nearest(x);
        // Online k-means update keeps clusters tracking the workload.
        self.centroids[cluster] += LEARNING_RATE * (x - self.centroids[cluster]);
        // Preserve ordering so group ids keep their hot→cold meaning.
        self.centroids.sort_by(f64::total_cmp);
        cluster as GroupId
    }

    fn place_gc(&mut self, _ctx: &PolicyCtx, _lba: Lba, _victim: &VictimMeta) -> GroupId {
        self.gc_group()
    }

    fn memory_bytes(&self) -> usize {
        self.last_write_us.memory_bytes()
            + self.centroids.capacity() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_at(now_us: u64) -> PolicyCtx<'static> {
        PolicyCtx { now_us, ..Default::default() }
    }

    fn victim() -> VictimMeta {
        VictimMeta { seg: 0, group: 0, created_user_bytes: 0, valid_blocks: 0, segment_blocks: 128 }
    }

    #[test]
    fn first_write_is_cold() {
        let mut p = Warcip::new();
        assert_eq!(p.place_user(&ctx_at(0), 5), 4);
    }

    #[test]
    fn short_intervals_cluster_hot_long_cluster_cold() {
        let mut p = Warcip::new();
        // Warm up block 1 at a 200 µs cadence and block 2 at 10 s.
        let mut t = 0;
        let mut hot_group = 0;
        for _ in 0..50 {
            t += 200;
            hot_group = p.place_user(&ctx_at(t), 1);
        }
        let mut cold_group = 0;
        let mut t2 = 0;
        for _ in 0..50 {
            t2 += 10_000_000;
            cold_group = p.place_user(&ctx_at(t2), 2);
        }
        assert!(hot_group < cold_group, "hot {hot_group} vs cold {cold_group}");
    }

    #[test]
    fn gc_always_goes_to_gc_group() {
        let mut p = Warcip::new();
        assert_eq!(p.place_gc(&ctx_at(0), 1, &victim()), 5);
    }

    #[test]
    fn centroids_stay_sorted() {
        let mut p = Warcip::new();
        let mut t = 0;
        for i in 0..1000u64 {
            t += (i % 17 + 1) * 97;
            p.place_user(&ctx_at(t), i % 50);
        }
        let c = p.centroids();
        assert!(c.windows(2).all(|w| w[0] <= w[1]), "{c:?}");
    }

    #[test]
    fn topology_is_five_plus_one() {
        let p = Warcip::new();
        assert_eq!(p.groups().len(), 6);
        assert_eq!(p.groups()[5], GroupKind::Gc);
        assert!(p.groups()[..5].iter().all(|&k| k == GroupKind::User));
    }

    #[test]
    fn zero_interval_handled() {
        let mut p = Warcip::new();
        p.place_user(&ctx_at(100), 1);
        // Same-timestamp rewrite: interval clamps to 1 µs, no NaN.
        let g = p.place_user(&ctx_at(100), 1);
        assert!((g as usize) < 5);
        assert!(p.centroids().iter().all(|c| c.is_finite()));
    }
}

//! SepBIT: separation via Block Invalidation Time inference
//! (Wang et al., FAST 2022).
//!
//! SepBIT infers how long a freshly written block will live from how long
//! its *previous* version lived, measured on the user-byte clock: when LBA
//! `b` is rewritten, the previous version's lifespan was
//! `v = now_bytes − last_write_bytes(b)`. If `v` is below the threshold
//! `ℓ`, the new version is predicted short-lived (class 1), else class 2.
//! GC-rewritten blocks are split by *age* `u = now_bytes −
//! last_write_bytes(b)` into classes 3–6 with exponentially growing bounds
//! `ℓ, 4ℓ, 16ℓ`.
//!
//! `ℓ` self-tunes as the average lifespan of recently collected class-1
//! segments (EWMA here); until the first class-1 collection it is infinite
//! so early user writes all land in class 1, which is exactly how the
//! original bootstraps.
//!
//! Group map: 0–1 user (classes 1–2), 2–5 GC (classes 3–6).

use crate::lba_table::LbaTable;
use adapt_lss::{GroupId, GroupKind, Lba, PlacementPolicy, PolicyCtx, ReclaimInfo, VictimMeta};

/// EWMA factor for the class-1 lifespan threshold.
const EWMA_ALPHA: f64 = 0.5;

/// The SepBIT policy.
#[derive(Debug, Clone)]
pub struct SepBit {
    groups: [GroupKind; 6],
    /// Byte-clock of each block's last *user* write, +1 (0 = never).
    last_write_bytes: LbaTable<u64>,
    /// Lifespan threshold ℓ in bytes; `f64::INFINITY` until learned.
    threshold: f64,
}

impl Default for SepBit {
    fn default() -> Self {
        Self::new()
    }
}

impl SepBit {
    /// Class-1 group (predicted short-lived user writes).
    pub const CLASS1: GroupId = 0;
    /// Class-2 group (other user writes).
    pub const CLASS2: GroupId = 1;

    /// Create the policy with its paper-default 2+4 groups.
    pub fn new() -> Self {
        Self {
            groups: [
                GroupKind::User,
                GroupKind::User,
                GroupKind::Gc,
                GroupKind::Gc,
                GroupKind::Gc,
                GroupKind::Gc,
            ],
            last_write_bytes: LbaTable::default(),
            threshold: f64::INFINITY,
        }
    }

    /// Current lifespan threshold ℓ (bytes).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Age of `lba`'s current data on the byte clock, if ever written:
    /// the lifespan [`SepBit::class_user`] infers for the next write.
    #[inline]
    pub fn age_bytes(&self, lba: Lba, now_bytes: u64) -> Option<u64> {
        let v = self.last_write_bytes.get(lba);
        if v == 0 {
            None
        } else {
            Some(now_bytes.saturating_sub(v - 1))
        }
    }

    /// Stamp a user write of `lba` at `now_bytes` without classing it
    /// (ADAPT's demoted writes bypass the hot/cold split).
    #[inline]
    pub fn record_write(&mut self, lba: Lba, now_bytes: u64) {
        self.last_write_bytes.set(lba, now_bytes + 1);
    }

    /// Class a user write against `threshold` and stamp it. The inferred
    /// BIT of the new write is the lifespan of the version it kills; a
    /// first write allows no inference and goes to class 2 (unknown data
    /// is assumed long-lived). SepBIT passes its own ℓ; ADAPT passes
    /// whichever threshold governs.
    #[inline]
    pub fn class_user(&mut self, lba: Lba, now_bytes: u64, threshold: f64) -> GroupId {
        let class = match self.age_bytes(lba, now_bytes) {
            Some(v) if (v as f64) < threshold => Self::CLASS1,
            _ => Self::CLASS2,
        };
        self.record_write(lba, now_bytes);
        class
    }

    /// Residual-lifespan class (groups 2..=5) of a GC-rewritten block by
    /// its age, with bounds ℓ, 4ℓ, 16ℓ over `ladder_base`; a block never
    /// user-written is the coldest.
    #[inline]
    pub fn gc_class(&self, lba: Lba, now_bytes: u64, ladder_base: f64) -> GroupId {
        let a = self.age_bytes(lba, now_bytes).unwrap_or(u64::MAX) as f64;
        if a < ladder_base {
            2
        } else if a < 4.0 * ladder_base {
            3
        } else if a < 16.0 * ladder_base {
            4
        } else {
            5
        }
    }

    /// Fold one reclaimed segment's lifespan into an EWMA estimate that is
    /// infinite until its first observation.
    pub fn ewma_lifespan(estimate: f64, lifespan: f64) -> f64 {
        if estimate.is_finite() {
            EWMA_ALPHA * lifespan + (1.0 - EWMA_ALPHA) * estimate
        } else {
            lifespan
        }
    }
}

impl PlacementPolicy for SepBit {
    fn name(&self) -> &'static str {
        "SepBIT"
    }

    fn groups(&self) -> &[GroupKind] {
        &self.groups
    }

    fn place_user(&mut self, ctx: &PolicyCtx, lba: Lba) -> GroupId {
        self.class_user(lba, ctx.user_bytes, self.threshold)
    }

    fn place_gc(&mut self, ctx: &PolicyCtx, lba: Lba, _victim: &VictimMeta) -> GroupId {
        self.gc_class(lba, ctx.user_bytes, self.threshold)
    }

    fn on_segment_reclaimed(&mut self, _ctx: &PolicyCtx, info: &ReclaimInfo) {
        // ℓ tracks the lifespan of collected class-1 segments.
        if info.group == Self::CLASS1 {
            self.threshold = Self::ewma_lifespan(self.threshold, info.lifespan_bytes() as f64);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.last_write_bytes.memory_bytes() + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(user_bytes: u64) -> PolicyCtx<'static> {
        PolicyCtx { user_bytes, ..Default::default() }
    }

    fn victim(group: GroupId) -> VictimMeta {
        VictimMeta { seg: 0, group, created_user_bytes: 0, valid_blocks: 0, segment_blocks: 128 }
    }

    fn reclaim(group: GroupId, created: u64, now: u64) -> ReclaimInfo {
        ReclaimInfo {
            seg: 0,
            group,
            created_user_bytes: created,
            reclaimed_user_bytes: now,
            migrated_blocks: 0,
        }
    }

    #[test]
    fn bootstrap_sends_rewrites_to_class1() {
        let mut p = SepBit::new();
        assert_eq!(p.place_user(&ctx(0), 1), SepBit::CLASS2); // first write
                                                              // With ℓ = ∞ every inferred lifespan is "short".
        assert_eq!(p.place_user(&ctx(10_000), 1), SepBit::CLASS1);
    }

    #[test]
    fn age_is_none_before_first_write_then_exact() {
        let mut p = SepBit::new();
        assert_eq!(p.age_bytes(3, 0), None);
        assert_eq!(p.age_bytes(3, 50_000), None);
        p.record_write(3, 8192);
        assert_eq!(p.age_bytes(3, 8192), Some(0));
        assert_eq!(p.age_bytes(3, 20_480), Some(12_288));
        // A write at byte clock 0 is remembered too (the table stores +1).
        p.class_user(4, 0, f64::INFINITY);
        assert_eq!(p.age_bytes(4, 4096), Some(4096));
        assert_eq!(p.age_bytes(5, 4096), None);
    }

    #[test]
    fn threshold_learned_from_class1_reclaims() {
        let mut p = SepBit::new();
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 1_000_000));
        assert!((p.threshold() - 1_000_000.0).abs() < 1e-6);
        // EWMA halves toward the next observation.
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 2_000_000));
        assert!((p.threshold() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn class2_reclaims_do_not_move_threshold() {
        let mut p = SepBit::new();
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 1_000_000));
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS2, 0, 9_000_000));
        p.on_segment_reclaimed(&ctx(0), &reclaim(3, 0, 9_000_000));
        assert!((p.threshold() - 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn user_separation_after_learning() {
        let mut p = SepBit::new();
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 1_000_000));
        p.place_user(&ctx(0), 7);
        // Rewritten quickly (lifespan 100k < ℓ=1M): hot.
        assert_eq!(p.place_user(&ctx(100_000), 7), SepBit::CLASS1);
        p.place_user(&ctx(200_000), 8);
        // Rewritten slowly (lifespan 5M > ℓ): cold.
        assert_eq!(p.place_user(&ctx(5_200_000), 8), SepBit::CLASS2);
    }

    #[test]
    fn residual_classes_follow_age_ladder() {
        let mut p = SepBit::new();
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 1_000_000));
        // Blocks written at byte-clock 0, collected at different ages.
        p.place_user(&ctx(0), 1);
        assert_eq!(p.place_gc(&ctx(500_000), 1, &victim(0)), 2); // age < ℓ
        assert_eq!(p.place_gc(&ctx(2_000_000), 1, &victim(0)), 3); // < 4ℓ
        assert_eq!(p.place_gc(&ctx(8_000_000), 1, &victim(0)), 4); // < 16ℓ
        assert_eq!(p.place_gc(&ctx(20_000_000), 1, &victim(0)), 5); // ≥ 16ℓ
    }

    #[test]
    fn gc_of_unknown_block_is_coldest() {
        let mut p = SepBit::new();
        p.on_segment_reclaimed(&ctx(0), &reclaim(SepBit::CLASS1, 0, 1_000));
        assert_eq!(p.place_gc(&ctx(0), 999, &victim(0)), 5);
    }

    #[test]
    fn topology_two_user_four_gc() {
        let p = SepBit::new();
        assert_eq!(p.groups().len(), 6);
        assert_eq!(&p.groups()[..2], &[GroupKind::User, GroupKind::User]);
        assert!(p.groups()[2..].iter().all(|&k| k == GroupKind::Gc));
    }
}

//! Garbage-collection victim selection.
//!
//! Two classic policies, both evaluated throughout the paper's §4:
//!
//! * **Greedy** — pick the sealed segment with the most garbage.
//! * **Cost-Benefit** (Rosenblum & Ousterhout, LFS '92) — maximize
//!   `age · (1 − u) / 2u`, where `u` is the segment's valid fraction and
//!   `age` the time since the segment was created. Cost-Benefit prefers
//!   slightly-dirty *old* segments over very dirty young ones, which pays
//!   off under skewed workloads.

use crate::segment::{Segment, SegmentState};
use crate::types::SegmentId;
use serde::{Deserialize, Serialize};

/// Which victim-selection policy the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcSelection {
    /// Most-garbage-first.
    Greedy,
    /// LFS cost-benefit score.
    CostBenefit,
}

/// The LFS cost-benefit score of a sealed segment: `age · (1 − u) / 2u`
/// with `u = valid / capacity` and `age` in byte-clock units. Fully
/// garbage segments (`u == 0`) are free wins and score infinitely.
///
/// Shared by the naive scan below and the bucketed index
/// ([`crate::gc_buckets::SegmentBuckets`]) so both paths compute
/// bit-identical floats — the equivalence property test depends on that.
#[inline]
pub fn cost_benefit_score(valid: u32, capacity: u32, age_bytes: u64) -> f64 {
    let u = valid as f64 / capacity as f64;
    if u == 0.0 {
        f64::INFINITY
    } else {
        age_bytes as f64 * (1.0 - u) / (2.0 * u)
    }
}

impl GcSelection {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            GcSelection::Greedy => "Greedy",
            GcSelection::CostBenefit => "Cost-Benefit",
        }
    }

    /// Choose a victim among sealed segments. `now_user_bytes` is the byte
    /// clock used for segment age. Returns `None` when no sealed segment
    /// exists or none has any garbage to reclaim... except that under
    /// pressure a fully-valid victim is still legal (it frees nothing, so
    /// we skip those: collecting them would loop forever).
    pub fn select(&self, segments: &[Segment], now_user_bytes: u64) -> Option<SegmentId> {
        let candidates =
            segments.iter().filter(|s| s.state == SegmentState::Sealed && s.garbage_blocks() > 0);
        match self {
            GcSelection::Greedy => candidates
                .max_by_key(|s| (s.garbage_blocks(), std::cmp::Reverse(s.id)))
                .map(|s| s.id),
            GcSelection::CostBenefit => candidates
                .map(|s| {
                    let age = now_user_bytes.saturating_sub(s.created_user_bytes);
                    (s.id, cost_benefit_score(s.valid_blocks, s.capacity(), age))
                })
                // Scores are never NaN or -0.0 (age >= 0, `u` < 1 on a
                // segment with garbage, `u == 0` scores +inf), so
                // `total_cmp` orders them exactly as `partial_cmp` would.
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(id, _)| id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Slot;

    /// Build a sealed segment with `valid` of `cap` blocks valid, created
    /// at byte-clock `created`.
    fn sealed(id: SegmentId, cap: u32, valid: u32, created: u64) -> Segment {
        let mut s = Segment::new(id, cap);
        s.open(0, created, 0);
        for i in 0..cap {
            s.append_slot(Slot::Block(i as u64));
        }
        s.seal();
        s.valid_blocks = valid;
        s
    }

    #[test]
    fn greedy_picks_most_garbage() {
        let segs = vec![sealed(0, 8, 6, 0), sealed(1, 8, 2, 0), sealed(2, 8, 4, 0)];
        assert_eq!(GcSelection::Greedy.select(&segs, 100), Some(1));
    }

    #[test]
    fn skips_fully_valid_segments() {
        let segs = vec![sealed(0, 8, 8, 0), sealed(1, 8, 8, 0)];
        assert_eq!(GcSelection::Greedy.select(&segs, 100), None);
        assert_eq!(GcSelection::CostBenefit.select(&segs, 100), None);
    }

    #[test]
    fn skips_open_segments() {
        let mut open = Segment::new(0, 8);
        open.open(0, 0, 0);
        open.append_slot(Slot::Block(1));
        let segs = vec![open, sealed(1, 8, 7, 0)];
        assert_eq!(GcSelection::Greedy.select(&segs, 100), Some(1));
    }

    #[test]
    fn cost_benefit_prefers_older_at_equal_utilization() {
        // Same garbage; the older (created earlier) segment wins.
        let segs = vec![sealed(0, 8, 4, 900), sealed(1, 8, 4, 100)];
        assert_eq!(GcSelection::CostBenefit.select(&segs, 1000), Some(1));
    }

    #[test]
    fn cost_benefit_can_prefer_old_low_garbage_over_young_dirty() {
        // Young, very dirty: age 10, u=0.25 → 10*0.75/0.5 = 15.
        // Old, lightly dirty: age 10000, u=0.875 → 10000*0.125/1.75 ≈ 714.
        let segs = vec![sealed(0, 8, 2, 990), sealed(1, 8, 7, 0)];
        assert_eq!(GcSelection::CostBenefit.select(&segs, 1000), Some(1));
        // Greedy disagrees:
        assert_eq!(GcSelection::Greedy.select(&segs, 1000), Some(0));
    }

    #[test]
    fn empty_or_all_free_returns_none() {
        let segs = vec![Segment::new(0, 8)];
        assert_eq!(GcSelection::Greedy.select(&segs, 0), None);
    }

    #[test]
    fn zero_valid_segment_is_best_for_cost_benefit() {
        let segs = vec![sealed(0, 8, 0, 999), sealed(1, 8, 1, 0)];
        assert_eq!(GcSelection::CostBenefit.select(&segs, 1000), Some(0));
    }
}

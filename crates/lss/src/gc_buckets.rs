//! Incremental, utilization-bucketed GC victim selection.
//!
//! The naive [`GcSelection::select`](crate::gc::GcSelection::select) scans
//! every segment on every GC pass — O(total segments), and the perf
//! harness measured it at 15–30% of replay wall time on medium volumes.
//! This module replaces the scan with an index maintained incrementally on
//! every invalidate/seal/reclaim:
//!
//! * Sealed segments are always full (`seal()` asserts it), so garbage is
//!   `capacity − valid_blocks` and segments with equal `valid_blocks` have
//!   equal utilization. We keep one bucket (a `Vec<SegmentId>`) per exact
//!   valid count, `0..=capacity` — for the default 128-block segments
//!   that is 129 buckets.
//! * A per-segment `(valid, position)` table makes every move a
//!   `swap_remove` + push: O(1) per invalidated block.
//! * **Greedy** is the lowest non-empty bucket below `capacity` (fewest
//!   valid = most garbage); a `min_occupied` cursor makes finding it O(1)
//!   amortized. Ties break to the smallest id, matching the naive scan.
//! * **Cost-Benefit** scores `age · (1 − u) / 2u` — within a bucket `u`
//!   is constant, so the bucket's best candidate is simply its *oldest*
//!   member (smallest creation byte-clock). Each bucket caches that
//!   member; removing the cached member marks the cache dirty and the
//!   next selection repairs it by scanning just that bucket. A full
//!   selection is then one score evaluation per non-empty bucket
//!   (≤ capacity + 1), independent of segment count.
//!
//! Tie-breaking mirrors the naive scan bit-for-bit (the equivalence
//! property test in `tests/` checks scores, and the unit tests here check
//! victims): naive `max_by` keeps the *last* maximal element of the
//! id-ordered scan, i.e. the highest id among score ties. Within a bucket
//! equal score means equal age, so the cache prefers smaller `created`,
//! then larger id; across buckets we compare `(score, id)`. The `u == 0`
//! bucket scores uniformly infinite, so its representative is its max id
//! regardless of age.

use crate::gc::{cost_benefit_score, GcSelection};
use crate::segment::{Segment, SegmentState};
use crate::types::SegmentId;

/// Per-bucket cache of the best Cost-Benefit candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Oldest {
    /// Bucket is empty.
    Empty,
    /// Cached best member: `(created_user_bytes, id)` — minimal created,
    /// maximal id among created-ties.
    Known(u64, SegmentId),
    /// The cached best was removed; recompute on next selection.
    Dirty,
}

/// Untracked marker for the position table.
const NOT_TRACKED: u32 = u32::MAX;

/// The bucketed index over sealed segments. Owned by the engine and kept
/// in lockstep with segment state; see the maintenance hooks in
/// `engine.rs` (`attach_sealed`, `detach_victim`, `invalidate_block`).
#[derive(Debug, Clone)]
pub struct SegmentBuckets {
    /// Segment capacity in blocks (buckets are indexed by valid count).
    capacity: u32,
    /// `buckets[v]` = sealed segments with exactly `v` valid blocks.
    buckets: Vec<Vec<SegmentId>>,
    /// Per segment: index within its bucket, or [`NOT_TRACKED`].
    pos: Vec<u32>,
    /// Per segment: tracked valid count (meaningful only when tracked).
    valid: Vec<u32>,
    /// Per segment: creation byte-clock at insert (CB age input).
    created: Vec<u64>,
    /// Per-bucket Cost-Benefit candidate cache.
    oldest: Vec<Oldest>,
    /// No non-empty bucket exists below this index (cursor, may lag).
    min_occupied: usize,
    /// Tracked (sealed) segment count.
    tracked: usize,
}

impl SegmentBuckets {
    /// An empty index for `total_segments` segments of `capacity` blocks.
    pub fn new(capacity: u32, total_segments: usize) -> Self {
        Self {
            capacity,
            buckets: vec![Vec::new(); capacity as usize + 1],
            pos: vec![NOT_TRACKED; total_segments],
            valid: vec![0; total_segments],
            created: vec![0; total_segments],
            oldest: vec![Oldest::Empty; capacity as usize + 1],
            min_occupied: capacity as usize + 1,
            tracked: 0,
        }
    }

    /// Number of tracked (sealed) segments.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether no segment is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// The tracked valid count of `seg`, or `None` if untracked.
    pub fn tracked_valid(&self, seg: SegmentId) -> Option<u32> {
        (self.pos[seg as usize] != NOT_TRACKED).then(|| self.valid[seg as usize])
    }

    /// Start tracking a freshly sealed segment.
    pub fn insert(&mut self, seg: SegmentId, valid: u32, created: u64) {
        debug_assert!(valid <= self.capacity);
        debug_assert_eq!(self.pos[seg as usize], NOT_TRACKED, "segment {seg} double-tracked");
        self.valid[seg as usize] = valid;
        self.created[seg as usize] = created;
        self.push_into(valid as usize, seg);
        self.tracked += 1;
    }

    /// Stop tracking `seg` (reclaimed, or detached for collection).
    pub fn remove(&mut self, seg: SegmentId) {
        debug_assert_ne!(self.pos[seg as usize], NOT_TRACKED, "segment {seg} not tracked");
        let v = self.valid[seg as usize] as usize;
        self.take_out(v, seg);
        self.tracked -= 1;
    }

    /// One block of `seg` was invalidated: move it down one bucket. No-op
    /// for untracked segments — the one legitimate caller of that shape is
    /// a lazy-append completing against the segment currently being
    /// collected (already detached via [`SegmentBuckets::remove`]).
    pub fn note_invalidate(&mut self, seg: SegmentId) {
        if self.pos[seg as usize] == NOT_TRACKED {
            return;
        }
        let v = self.valid[seg as usize] as usize;
        debug_assert!(v > 0, "invalidate below zero valid for segment {seg}");
        self.take_out(v, seg);
        self.valid[seg as usize] = (v - 1) as u32;
        self.push_into(v - 1, seg);
    }

    fn push_into(&mut self, bucket: usize, seg: SegmentId) {
        self.pos[seg as usize] = self.buckets[bucket].len() as u32;
        self.buckets[bucket].push(seg);
        let cand = (self.created[seg as usize], seg);
        self.oldest[bucket] = match self.oldest[bucket] {
            Oldest::Empty => Oldest::Known(cand.0, cand.1),
            Oldest::Known(c, id) if better_cb(cand, (c, id)) => Oldest::Known(cand.0, cand.1),
            other => other,
        };
        self.min_occupied = self.min_occupied.min(bucket);
    }

    fn take_out(&mut self, bucket: usize, seg: SegmentId) {
        let i = self.pos[seg as usize] as usize;
        debug_assert_eq!(self.buckets[bucket][i], seg);
        self.buckets[bucket].swap_remove(i);
        if let Some(&moved) = self.buckets[bucket].get(i) {
            self.pos[moved as usize] = i as u32;
        }
        self.pos[seg as usize] = NOT_TRACKED;
        self.oldest[bucket] = if self.buckets[bucket].is_empty() {
            Oldest::Empty
        } else {
            match self.oldest[bucket] {
                Oldest::Known(_, id) if id != seg => self.oldest[bucket],
                _ => Oldest::Dirty,
            }
        };
    }

    /// Repair a dirty Cost-Benefit cache by scanning its bucket.
    fn repair(&mut self, bucket: usize) -> Option<(u64, SegmentId)> {
        match self.oldest[bucket] {
            Oldest::Empty => None,
            Oldest::Known(c, id) => Some((c, id)),
            Oldest::Dirty => {
                let best = self.buckets[bucket]
                    .iter()
                    .map(|&id| (self.created[id as usize], id))
                    .reduce(|a, b| if better_cb(b, a) { b } else { a })
                    .expect("dirty cache on empty bucket");
                self.oldest[bucket] = Oldest::Known(best.0, best.1);
                Some(best)
            }
        }
    }

    /// Choose a victim among tracked segments with reclaimable garbage
    /// (valid < capacity). Equivalent to the naive scan over the sealed
    /// set — same score, same tie-breaks — in O(buckets) instead of
    /// O(segments).
    pub fn select(&mut self, policy: GcSelection, now_user_bytes: u64) -> Option<SegmentId> {
        match policy {
            GcSelection::Greedy => self.select_greedy(),
            GcSelection::CostBenefit => self.select_cost_benefit(now_user_bytes),
        }
    }

    fn select_greedy(&mut self) -> Option<SegmentId> {
        // Advance the cursor over drained buckets; it only ever moves down
        // when a segment enters a lower bucket, which resets it.
        while self.min_occupied < self.buckets.len() && self.buckets[self.min_occupied].is_empty() {
            self.min_occupied += 1;
        }
        // The full bucket (valid == capacity) holds no garbage.
        if self.min_occupied >= self.capacity as usize {
            return None;
        }
        self.buckets[self.min_occupied].iter().min().copied()
    }

    fn select_cost_benefit(&mut self, now_user_bytes: u64) -> Option<SegmentId> {
        let mut best: Option<(f64, SegmentId)> = None;
        // Bucket 0 is uniformly infinite-score; its tie-break is max id.
        if let Some(&id) = self.buckets[0].iter().max() {
            best = Some((f64::INFINITY, id));
        }
        for v in 1..self.capacity as usize {
            let Some((created, id)) = self.repair(v) else { continue };
            let age = now_user_bytes.saturating_sub(created);
            let score = cost_benefit_score(v as u32, self.capacity, age);
            if best.map(|(s, i)| (score, id) > (s, i)).unwrap_or(true) {
                best = Some((score, id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Sealed-utilization histogram in ten 10%-wide buckets, identical to
    /// a scan over sealed segments (same per-segment float rounding).
    pub fn histogram10(&self) -> [u64; 10] {
        let mut h = [0u64; 10];
        for (v, b) in self.buckets.iter().enumerate() {
            if !b.is_empty() {
                let u = v as f64 / self.capacity as f64;
                h[((u * 10.0) as usize).min(9)] += b.len() as u64;
            }
        }
        h
    }

    /// Mean valid fraction across tracked segments (1.0 when none).
    pub fn mean_utilization(&self) -> f64 {
        if self.tracked == 0 {
            return 1.0;
        }
        let cap = self.capacity as f64;
        let sum: f64 =
            self.buckets.iter().enumerate().map(|(v, b)| (v as f64 / cap) * b.len() as f64).sum();
        sum / self.tracked as f64
    }

    /// Verify internal consistency and lockstep with `segments` (test /
    /// debug aid, called from the engine's `check_invariants`). Every
    /// tracked segment must be sealed with the tracked valid count; a
    /// sealed segment may be untracked only while detached for collection
    /// (the engine checks tracking against its groups' sealed lists).
    /// Panics on violation.
    pub fn check_against(&self, segments: &[Segment]) {
        let mut tracked = 0usize;
        for s in segments {
            let Some(valid) = self.tracked_valid(s.id) else { continue };
            assert_eq!(s.state, SegmentState::Sealed, "non-sealed segment {} tracked", s.id);
            assert_eq!(valid, s.valid_blocks, "bucket drift for sealed segment {}", s.id);
            assert_eq!(self.created[s.id as usize], s.created_user_bytes);
            tracked += 1;
        }
        assert_eq!(tracked, self.tracked, "tracked count drift");
        for (v, b) in self.buckets.iter().enumerate() {
            for (i, &seg) in b.iter().enumerate() {
                assert_eq!(self.pos[seg as usize], i as u32, "position drift for {seg}");
                assert_eq!(self.valid[seg as usize], v as u32, "bucket drift for {seg}");
            }
            match self.oldest[v] {
                Oldest::Empty => assert!(b.is_empty(), "empty cache on non-empty bucket {v}"),
                Oldest::Dirty => assert!(!b.is_empty(), "dirty cache on empty bucket {v}"),
                Oldest::Known(c, id) => {
                    let best = b.iter().map(|&s| (self.created[s as usize], s)).reduce(|a, b| {
                        if better_cb(b, a) {
                            b
                        } else {
                            a
                        }
                    });
                    assert_eq!(best, Some((c, id)), "stale oldest cache in bucket {v}");
                }
            }
        }
    }
}

/// Cost-Benefit candidate ordering within a bucket: smaller creation clock
/// wins (older → higher score); equal ages keep the larger id, matching
/// the naive scan's last-maximal-element tie-break.
#[inline]
fn better_cb(a: (u64, SegmentId), b: (u64, SegmentId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 > b.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Slot;

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

    /// Build buckets tracking every sealed segment of `segs`.
    fn tracking(segs: &[Segment]) -> SegmentBuckets {
        let cap = segs.first().map(|s| s.capacity()).unwrap_or(8);
        let mut b = SegmentBuckets::new(cap, segs.len());
        for s in segs {
            if s.state == SegmentState::Sealed {
                b.insert(s.id, s.valid_blocks, s.created_user_bytes);
            }
        }
        b
    }

    #[test]
    fn matches_naive_greedy() {
        let segs = vec![sealed(0, 8, 6, 0), sealed(1, 8, 2, 0), sealed(2, 8, 4, 0)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::Greedy, 100), Some(1));
        assert_eq!(b.select(GcSelection::Greedy, 100), GcSelection::Greedy.select(&segs, 100));
    }

    #[test]
    fn greedy_ties_break_to_smallest_id() {
        let segs = vec![sealed(0, 8, 2, 0), sealed(1, 8, 2, 0), sealed(2, 8, 2, 0)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::Greedy, 100), Some(0));
        assert_eq!(b.select(GcSelection::Greedy, 100), GcSelection::Greedy.select(&segs, 100));
    }

    #[test]
    fn skips_fully_valid() {
        let segs = vec![sealed(0, 8, 8, 0), sealed(1, 8, 8, 0)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::Greedy, 100), None);
        assert_eq!(b.select(GcSelection::CostBenefit, 100), None);
    }

    #[test]
    fn cost_benefit_prefers_older_at_equal_utilization() {
        let segs = vec![sealed(0, 8, 4, 900), sealed(1, 8, 4, 100)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::CostBenefit, 1000), Some(1));
    }

    #[test]
    fn cost_benefit_zero_valid_ties_break_to_highest_id() {
        // All of bucket 0 scores +inf; the naive scan keeps the last
        // (highest-id) maximal element.
        let segs = vec![sealed(0, 8, 0, 0), sealed(1, 8, 0, 999), sealed(2, 8, 3, 0)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::CostBenefit, 1000), Some(1));
        assert_eq!(
            b.select(GcSelection::CostBenefit, 1000),
            GcSelection::CostBenefit.select(&segs, 1000)
        );
    }

    #[test]
    fn invalidate_moves_between_buckets() {
        let segs = vec![sealed(0, 8, 6, 0), sealed(1, 8, 5, 0)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::Greedy, 0), Some(1));
        // Drop segment 0 to 4 valid: it overtakes.
        b.note_invalidate(0);
        b.note_invalidate(0);
        assert_eq!(b.tracked_valid(0), Some(4));
        assert_eq!(b.select(GcSelection::Greedy, 0), Some(0));
    }

    #[test]
    fn remove_then_invalidate_is_noop() {
        let segs = vec![sealed(0, 8, 6, 0)];
        let mut b = tracking(&segs);
        b.remove(0);
        b.note_invalidate(0); // collection in flight: must not panic
        assert_eq!(b.len(), 0);
        assert_eq!(b.select(GcSelection::Greedy, 0), None);
    }

    #[test]
    fn dirty_cache_repairs_on_select() {
        // Two segments share a bucket; removing the cached oldest forces a
        // repair scan on the next CB selection.
        let segs = vec![sealed(0, 8, 4, 10), sealed(1, 8, 4, 20), sealed(2, 8, 4, 30)];
        let mut b = tracking(&segs);
        assert_eq!(b.select(GcSelection::CostBenefit, 100), Some(0));
        b.remove(0);
        assert_eq!(b.select(GcSelection::CostBenefit, 100), Some(1));
        b.check_against(&[segs[1].clone(), segs[2].clone()]);
    }

    #[test]
    fn histogram_and_mean_match_scan() {
        let segs: Vec<Segment> = (0..16).map(|i| sealed(i, 8, i % 9, i as u64)).collect();
        let b = tracking(&segs);
        let mut h = [0u64; 10];
        let mut sum = 0.0;
        for s in &segs {
            let u = s.valid_blocks as f64 / s.capacity() as f64;
            h[((u * 10.0) as usize).min(9)] += 1;
            sum += u;
        }
        assert_eq!(b.histogram10(), h);
        assert!((b.mean_utilization() - sum / segs.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn randomized_equivalence_with_naive() {
        // Deterministic pseudo-random churn; victims must match the naive
        // scan at every step for both policies.
        let cap = 8u32;
        let n = 24usize;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for policy in [GcSelection::Greedy, GcSelection::CostBenefit] {
            let mut segs: Vec<Segment> =
                (0..n).map(|i| sealed(i as SegmentId, cap, cap, next() % 1000)).collect();
            let mut b = tracking(&segs);
            let mut clock = 1000u64;
            for _ in 0..400 {
                let id = (next() % n as u64) as usize;
                if segs[id].valid_blocks > 0 {
                    segs[id].valid_blocks -= 1;
                    b.note_invalidate(id as SegmentId);
                }
                clock += next() % 50;
                assert_eq!(b.select(policy, clock), policy.select(&segs, clock), "{policy:?}");
            }
            b.check_against(&segs);
        }
    }
}

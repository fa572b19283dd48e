//! Ghost-set simulation (§3.2).
//!
//! A ghost set is a miniature, metadata-only model of the *user-written*
//! groups under one candidate hot/cold threshold. It tracks only LBAs and
//! timestamps: sampled writes are routed hot/cold by their age on the
//! user-byte clock, blocks coalesce into scaled chunks under a scaled
//! aggregation window, segments seal when full, and when the set runs out
//! of segments a greedy victim is collected.
//!
//! Two costs make up the ghost's WA estimate, mirroring what the real
//! user-written groups would pay under that threshold:
//!
//! * **Discards** — valid blocks at GC time. The real system would migrate
//!   them into GC-rewritten groups; the ghost discards and counts them.
//! * **Padding** — when a ghost chunk's aggregation window expires before
//!   the chunk fills, the missing blocks are charged as padding (and the
//!   pad slots consume segment space, exactly as real zero padding does).
//!   Per the paper, "the chunk aggregation time is proportionally
//!   increased": the window is scaled so that a sampled stream fills a
//!   scaled chunk with the same probability the full stream fills a real
//!   chunk.
//!
//! `WA ≈ 1 + (discarded + padded)/written` is the comparison metric across
//! sets; it is what makes the threshold choice *density-aware* — under
//! sparse traffic, thresholds that concentrate writes into one group pad
//! less and win, while dense skewed traffic rewards genuine separation.

use adapt_lss::{FxHashMap, Lba};

/// Sentinel marking a padding slot inside a ghost segment.
const PAD: Lba = Lba::MAX;

/// A segment in the ghost set.
#[derive(Debug, Clone, Default)]
struct GhostSegment {
    /// Slots written (LBAs, superseded duplicates, and PAD sentinels).
    blocks: Vec<Lba>,
    /// Blocks whose latest copy lives here.
    valid: u32,
    /// Whether the segment is sealed (full); open and reclaimed slots are
    /// not.
    sealed: bool,
}

/// Per-temperature open chunk state.
#[derive(Debug, Clone, Copy, Default)]
struct OpenChunk {
    /// Blocks accumulated in the current chunk.
    filled: u32,
    /// Timestamp of the chunk's first block (µs).
    first_ts_us: u64,
}

/// One candidate-threshold simulation.
#[derive(Debug, Clone)]
pub struct GhostSet {
    /// Hot/cold boundary in (scaled-up, i.e. real) bytes.
    threshold: u64,
    /// Blocks per ghost segment (scaled by the sampling rate).
    seg_blocks: u32,
    /// Blocks per ghost chunk.
    chunk_blocks: u32,
    /// Scaled chunk-aggregation window (µs).
    sla_us: u64,
    /// Maximum live segments (open + sealed) before GC must run.
    capacity_segs: u32,
    /// All segment slots (reused after reclaim).
    segments: Vec<GhostSegment>,
    /// Free slot ids.
    free_slots: Vec<u32>,
    /// Sealed segments by garbage slots: one bitset over segment ids per
    /// garbage count `k`, laid out word-major (word `w` of bucket `k` is
    /// `by_garbage[w * (seg_blocks + 1) + k]`), so it grows by appending.
    by_garbage: Vec<u64>,
    /// Open segment id per temperature (0 = hot, 1 = cold).
    open: [Option<u32>; 2],
    /// Open chunk fill/timer per temperature.
    chunk: [OpenChunk; 2],
    /// LBA → segment currently holding its latest copy.
    index: FxHashMap<Lba, u32>,
    /// Blocks written into the set.
    written: u64,
    /// Valid blocks discarded by GC.
    discarded: u64,
    /// Padding blocks charged by expired aggregation windows.
    padded: u64,
    /// Shadow-copy blocks charged by modeled cross-group aggregation.
    shadowed: u64,
    /// GC invocations.
    gc_count: u64,
}

impl GhostSet {
    /// Create a ghost set for one candidate threshold.
    pub fn new(
        threshold: u64,
        seg_blocks: u32,
        chunk_blocks: u32,
        sla_us: u64,
        capacity_segs: u32,
    ) -> Self {
        assert!(seg_blocks >= 1 && chunk_blocks >= 1);
        assert!(chunk_blocks <= seg_blocks);
        assert!(sla_us > 0);
        assert!(capacity_segs >= 4, "ghost set needs room for GC to matter");
        Self {
            threshold,
            seg_blocks,
            chunk_blocks,
            sla_us,
            capacity_segs,
            segments: Vec::new(),
            free_slots: Vec::new(),
            by_garbage: Vec::new(),
            open: [None, None],
            chunk: [OpenChunk::default(); 2],
            index: FxHashMap::default(),
            written: 0,
            discarded: 0,
            padded: 0,
            shadowed: 0,
            gc_count: 0,
        }
    }

    /// The candidate threshold (bytes).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Estimated user-group write amplification (GC discards + padding +
    /// aggregation shadow copies) under this threshold.
    pub fn wa(&self) -> f64 {
        if self.written == 0 {
            return 1.0;
        }
        1.0 + (self.discarded + self.padded + self.shadowed) as f64 / self.written as f64
    }

    /// GC invocations so far (stability signal).
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// Record a sampled write at time `ts_us`. `age_bytes` is the
    /// block's age on the user-byte clock (`None` = first write → cold).
    pub fn write(&mut self, lba: Lba, age_bytes: Option<u64>, ts_us: u64) {
        self.written += 1;
        // Expire stale aggregation windows on both temperatures first.
        for temp in 0..2 {
            self.expire_chunk(temp, ts_us);
        }
        // Invalidate the previous copy.
        if let Some(&seg) = self.index.get(&lba) {
            let s = &mut self.segments[seg as usize];
            s.valid -= 1;
            if s.sealed {
                let garbage = self.seg_blocks - s.valid;
                self.flip(seg, garbage - 1);
                self.flip(seg, garbage);
            }
        }
        let temp = match age_bytes {
            Some(v) if v < self.threshold => 0, // hot
            _ => 1,                             // cold
        };
        let seg_id = self.push_slot(temp, lba);
        self.index.insert(lba, seg_id);
        // Chunk timer bookkeeping.
        let c = &mut self.chunk[temp];
        if c.filled == 0 {
            c.first_ts_us = ts_us;
        }
        c.filled += 1;
        if c.filled >= self.chunk_blocks {
            *c = OpenChunk::default();
        }
    }

    /// Append one slot (an LBA or [`PAD`]) into `temp`'s open segment,
    /// sealing it when full; returns the segment id used. The chunk timer
    /// is the caller's business.
    fn push_slot(&mut self, temp: usize, slot: Lba) -> u32 {
        let seg_id = self.open_segment(temp);
        let seg = &mut self.segments[seg_id as usize];
        seg.blocks.push(slot);
        if slot != PAD {
            seg.valid += 1;
        }
        if seg.blocks.len() as u32 == self.seg_blocks {
            seg.sealed = true;
            let garbage = self.seg_blocks - seg.valid;
            self.open[temp] = None;
            self.flip(seg_id, garbage);
        }
        seg_id
    }

    /// If `temp`'s open chunk timed out, handle it the way ADAPT would:
    /// the hot chunk first tries cross-group aggregation — its pending
    /// blocks persist as shadow copies inside the cold chunk's free space
    /// (charged as shadow writes consuming cold segment slots) while the
    /// hot chunk keeps accumulating — and otherwise the chunk is closed
    /// with padding charged for the unfilled remainder.
    fn expire_chunk(&mut self, temp: usize, now_us: u64) {
        let c = self.chunk[temp];
        if c.filled == 0 || now_us.saturating_sub(c.first_ts_us) < self.sla_us {
            return;
        }
        if temp == 0 {
            // Hot side: model shadow append when the cold chunk has both
            // payload of its own and room for the substitutes (§3.3).
            let cold = self.chunk[1];
            if cold.filled > 0 && cold.filled + c.filled < self.chunk_blocks {
                self.shadowed += c.filled as u64;
                for _ in 0..c.filled {
                    self.push_slot(1, PAD); // substitutes become cold-segment garbage
                }
                self.chunk[1].filled += c.filled;
                if self.chunk[1].filled >= self.chunk_blocks {
                    self.chunk[1] = OpenChunk::default();
                }
                // Lazy append: the hot chunk keeps its fill, timer resets.
                self.chunk[0].first_ts_us = now_us;
                return;
            }
        }
        let missing = self.chunk_blocks - c.filled;
        self.padded += missing as u64;
        self.chunk[temp] = OpenChunk::default();
        // Pad slots consume real segment space.
        for _ in 0..missing {
            self.push_slot(temp, PAD);
        }
    }

    /// The open segment for a temperature, allocating (and GC-ing) as
    /// needed.
    fn open_segment(&mut self, temp: usize) -> u32 {
        if let Some(id) = self.open[temp] {
            return id;
        }
        if self.live_segments() >= self.capacity_segs {
            self.collect();
        }
        // A reclaimed slot comes back already reset by `collect`.
        let id = self.free_slots.pop().unwrap_or_else(|| {
            self.segments.push(GhostSegment::default());
            (self.segments.len() - 1) as u32
        });
        self.open[temp] = Some(id);
        id
    }

    fn live_segments(&self) -> u32 {
        (self.segments.len() - self.free_slots.len()) as u32
    }

    /// Add sealed segment `seg` to, or remove it from, the bucket of
    /// `garbage` slots.
    fn flip(&mut self, seg: u32, garbage: u32) {
        let buckets = self.seg_blocks as usize + 1;
        let word = seg as usize / 64;
        let len = (word + 1) * buckets;
        if self.by_garbage.len() < len {
            self.by_garbage.reserve_exact(len - self.by_garbage.len());
            self.by_garbage.resize(len, 0);
        }
        self.by_garbage[word * buckets + garbage as usize] ^= 1 << (seg % 64);
    }

    /// The greedy victim and its garbage slots: the sealed segment with
    /// the most garbage, the highest id on a tie.
    fn victim(&self) -> Option<(u32, u32)> {
        let buckets = self.seg_blocks as usize + 1;
        (0..buckets.min(self.by_garbage.len())).rev().find_map(|garbage| {
            let words = self.by_garbage[garbage..].iter().step_by(buckets);
            let (word, bits) = words.enumerate().rfind(|(_, &bits)| bits != 0)?;
            Some((word as u32 * 64 + 63 - bits.leading_zeros(), garbage as u32))
        })
    }

    /// Greedy GC: discard the [`GhostSet::victim`].
    fn collect(&mut self) {
        let Some((victim, garbage)) = self.victim() else {
            return; // nothing sealed yet; capacity will grow past the cap
        };
        self.flip(victim, garbage);
        self.gc_count += 1;
        // Iterate the victim's slots in place (only `index`/`discarded`
        // change here), so its block buffer keeps its allocation for the
        // segment's next life instead of being dropped every GC.
        for &lba in &self.segments[victim as usize].blocks {
            if lba != PAD && self.index.get(&lba) == Some(&victim) {
                // A valid block: the real system would migrate it to a GC
                // group; the ghost discards it and counts the rewrite.
                self.index.remove(&lba);
                self.discarded += 1;
            }
        }
        let s = &mut self.segments[victim as usize];
        s.blocks.clear();
        s.valid = 0;
        s.sealed = false;
        self.free_slots.push(victim);
    }

    /// Approximate resident bytes (the paper budgets ~20 B per simulated
    /// block: the LBA record plus index share). Per-segment bookkeeping
    /// (slot headers, free list, garbage buckets) is not counted.
    pub fn memory_bytes(&self) -> usize {
        let blocks: usize = self.segments.iter().map(|s| s.blocks.capacity() * 8).sum();
        blocks + self.index.capacity() * 24 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense-stream ghost with padding effectively disabled.
    fn dense(threshold: u64, capacity: u32) -> GhostSet {
        GhostSet::new(threshold, 4, 2, u64::MAX / 2, capacity)
    }

    #[test]
    fn no_gc_before_capacity() {
        let mut g = dense(1000, 8);
        for lba in 0..20u64 {
            g.write(lba, None, 0);
        }
        assert_eq!(g.gc_count(), 0);
        assert_eq!(g.wa(), 1.0);
    }

    #[test]
    fn gc_discards_valid_blocks() {
        let mut g = dense(1000, 4);
        // All cold, never overwritten: every GC discards a full segment.
        for lba in 0..64u64 {
            g.write(lba, None, 0);
        }
        assert!(g.gc_count() > 0);
        assert!(g.wa() > 1.0, "wa {}", g.wa());
    }

    #[test]
    fn overwritten_blocks_are_garbage_not_discarded() {
        let mut g = dense(1000, 4);
        // Hammer a tiny working set: segments become fully garbage before
        // GC, so almost nothing valid is ever discarded.
        for i in 0..400u64 {
            g.write(i % 4, Some(0), 0);
        }
        assert!(g.wa() < 1.2, "wa {}", g.wa());
    }

    #[test]
    fn threshold_routes_hot_and_cold() {
        let mut g = dense(1000, 16);
        g.write(1, Some(500), 0); // hot
        g.write(2, Some(5000), 0); // cold
        g.write(3, None, 0); // cold (unknown)
        assert_eq!(g.open.iter().filter(|o| o.is_some()).count(), 2);
        assert_ne!(g.open[0], g.open[1]);
    }

    #[test]
    fn good_threshold_beats_bad_threshold_on_gc() {
        // Dense workload: 8 hot blocks with tiny intervals, 64 cold blocks
        // with huge intervals. A separating threshold wins on GC discards.
        let run = |threshold: u64| {
            let mut g = dense(threshold, 16);
            let mut i = 0u64;
            for _ in 0..3000 {
                i += 1;
                if i.is_multiple_of(2) {
                    g.write(i % 8, Some(100), i);
                } else {
                    g.write(100 + (i % 64), Some(1_000_000), i);
                }
            }
            g.wa()
        };
        let separating = run(10_000);
        let mixing = run(1); // everything cold: hot+cold share segments
        assert!(separating < mixing, "separating {separating} vs mixing {mixing}");
    }

    #[test]
    fn sparse_stream_charges_padding() {
        // Chunk of 4 blocks, 100 µs window, arrivals 1 ms apart: every
        // block's chunk expires with 3 missing.
        let mut g = GhostSet::new(1000, 8, 4, 100, 8);
        for i in 0..50u64 {
            g.write(i, None, i * 1000);
        }
        assert!(g.padded > 0);
        assert!(g.wa() > 1.5, "wa {}", g.wa());
    }

    #[test]
    fn dense_stream_charges_no_padding() {
        let mut g = GhostSet::new(1000, 8, 4, 100, 8);
        for i in 0..50u64 {
            g.write(i, None, i); // 1 µs apart
        }
        assert_eq!(g.padded, 0);
    }

    #[test]
    fn density_awareness_prefers_single_group_when_sparse() {
        // Sparse alternating hot/cold stream: a threshold that sends
        // everything to one group halves the padded chunks.
        let run = |threshold: u64| {
            let mut g = GhostSet::new(threshold, 16, 4, 150, 12);
            for i in 0..4000u64 {
                // Alternate a rewrite-heavy set (interval ~2k bytes) and a
                // cold tail (interval ~1M bytes); 100 µs apart each.
                if i.is_multiple_of(2) {
                    g.write(i % 16, Some(2_000), i * 100);
                } else {
                    g.write(1000 + (i % 500), Some(1_000_000), i * 100);
                }
            }
            g.wa()
        };
        // threshold 1: everything cold (one group). threshold 10k:
        // separates hot/cold (two sparse groups → double padding).
        let single = run(1);
        let split = run(10_000);
        assert!(single < split, "sparse: single-group {single} should beat split {split}");
    }

    #[test]
    fn memory_stays_bounded() {
        let mut g = dense(1000, 8);
        for i in 0..100_000u64 {
            g.write(i % 1000, Some(i % 2000), i);
        }
        assert!(g.memory_bytes() < 100_000, "mem {}", g.memory_bytes());
    }

    #[test]
    fn bucketed_victim_matches_naive_scan() {
        use adapt_trace::rng::Xoshiro256StarStar;
        let naive = |g: &GhostSet| {
            g.segments
                .iter()
                .enumerate()
                .filter(|(_, s)| s.sealed)
                .max_by_key(|(_, s)| s.blocks.len() as u32 - s.valid)
                .map(|(i, s)| (i as u32, s.blocks.len() as u32 - s.valid))
        };
        let mut rng = Xoshiro256StarStar::new(7);
        // 100 segments span two bitset words; a 5 µs window pads often.
        let mut g = GhostSet::new(50_000, 8, 4, 5, 100);
        let mut now = 0;
        for step in 0..60_000 {
            now += rng.next_bounded(4);
            let lba = rng.next_bounded(600);
            g.write(lba, Some(rng.next_bounded(100_000)), now);
            assert_eq!(g.victim(), naive(&g), "step {step}");
        }
        assert!(g.gc_count() > 1000 && g.padded > 0);
    }

    #[test]
    fn wa_of_untouched_set_is_one() {
        let g = dense(5, 4);
        assert_eq!(g.wa(), 1.0);
        assert_eq!(g.written, 0);
    }
}

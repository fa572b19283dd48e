//! Reuse-distance tracking over the sampled stream (§3.2's "distance
//! tree").
//!
//! The *access interval* of a block is the number of distinct other blocks
//! referenced since its previous access. We track it with the classical
//! Fenwick-tree formulation of reuse distance: every access occupies a
//! fresh position in a virtual time line; a position is marked while it is
//! the *most recent* access of some block; the interval of a re-access is
//! the count of marked positions after the block's previous position.
//! The position line is compacted periodically so memory stays
//! proportional to the number of live sampled blocks, not stream length.
//!
//! The tracker is additionally *capacity-bounded*: blocks whose last
//! access is oldest are evicted (LRU over the position line) once the
//! live set exceeds [`DistanceTree::with_capacity`]'s bound, so memory
//! cannot grow with the footprint of the sampled address space. Eviction
//! piggybacks on compaction — the entries are already position-sorted
//! there — and drops an eighth of the capacity at a time, keeping the
//! amortized cost per access O(1). An evicted block reads as a first
//! access when it returns, exactly like a block never seen.

use adapt_lss::{FxHashMap, Lba};

/// Fenwick (binary indexed) tree over positions with u32 counters.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self { tree: vec![0; n + 1] }
    }

    /// Zero and resize in place, keeping the backing allocation when the
    /// new size fits (compaction runs on every segment's worth of
    /// accesses — reallocating there shows up in profiles).
    fn reset(&mut self, n: usize) {
        self.tree.clear();
        self.tree.resize(n + 1, 0);
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Add `delta` at position `i` (0-based).
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based).
    fn prefix(&self, i: usize) -> u32 {
        let mut i = i + 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Streaming reuse-distance tracker.
#[derive(Debug, Clone)]
pub struct DistanceTree {
    fenwick: Fenwick,
    last_pos: FxHashMap<Lba, usize>,
    next_pos: usize,
    /// Bound on the live set; oldest entries evict beyond it.
    max_blocks: usize,
    /// Reusable compaction buffer (position-sorted live entries).
    scratch: Vec<(usize, Lba)>,
}

impl DistanceTree {
    /// Create an empty tracker that tracks at most `max_blocks` distinct
    /// blocks, evicting least-recently-accessed entries beyond that.
    pub fn with_capacity(max_blocks: usize) -> Self {
        Self {
            fenwick: Fenwick::new(1024),
            last_pos: FxHashMap::default(),
            next_pos: 0,
            max_blocks: max_blocks.max(16),
            scratch: Vec::new(),
        }
    }

    /// Record an access; returns the reuse distance (distinct intervening
    /// blocks), or `None` for a first access (including a re-access after
    /// capacity eviction).
    pub fn access(&mut self, lba: Lba) -> Option<u64> {
        if self.next_pos == self.fenwick.len() {
            self.compact_keeping(self.max_blocks);
        }
        let pos = self.next_pos;
        self.next_pos += 1;
        let distance = match self.last_pos.get(&lba).copied() {
            Some(prev) => {
                // Marked positions strictly after prev = distinct blocks
                // whose latest access came after lba's.
                let after_prev =
                    self.fenwick.prefix(pos.saturating_sub(1)) - self.fenwick.prefix(prev);
                self.fenwick.add(prev, -1);
                Some(after_prev as u64)
            }
            None => None,
        };
        self.fenwick.add(pos, 1);
        self.last_pos.insert(lba, pos);
        // Enforce the cap with slack: dropping an eighth at a time keeps
        // the amortized eviction cost per access constant.
        if self.last_pos.len() > self.max_blocks {
            self.compact_keeping(self.max_blocks - self.max_blocks / 8);
        }
        distance
    }

    /// Rebuild the position line compactly, keeping only the `keep` most
    /// recently accessed blocks (the rest evict): surviving blocks keep
    /// their order but positions renumber 0..live. Buffers are reused
    /// across compactions, so steady state allocates nothing.
    fn compact_keeping(&mut self, keep: usize) {
        let mut entries = std::mem::take(&mut self.scratch);
        entries.clear();
        entries.extend(self.last_pos.iter().map(|(&l, &p)| (p, l)));
        entries.sort_unstable();
        let evict = entries.len().saturating_sub(keep);
        let live = entries.len() - evict;
        self.fenwick.reset((live * 2).max(1024));
        self.last_pos.clear();
        for (new_pos, &(_, lba)) in entries[evict..].iter().enumerate() {
            self.fenwick.add(new_pos, 1);
            self.last_pos.insert(lba, new_pos);
        }
        self.next_pos = live;
        self.scratch = entries;
    }

    /// Approximate resident bytes (the paper budgets ~44 B per sampled
    /// block; a hash map entry plus the Fenwick slot lands in that range).
    pub fn memory_bytes(&self) -> usize {
        self.fenwick.tree.capacity() * 4
            + self.scratch.capacity() * std::mem::size_of::<(usize, Lba)>()
            + self.last_pos.capacity() * (std::mem::size_of::<(Lba, usize)>() + 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracker whose cap no test stream reaches.
    fn tree() -> DistanceTree {
        DistanceTree::with_capacity(1 << 20)
    }

    #[test]
    fn first_access_has_no_distance() {
        let mut t = tree();
        assert_eq!(t.access(1), None);
        assert_eq!(t.access(2), None);
    }

    #[test]
    fn immediate_reaccess_distance_zero() {
        let mut t = tree();
        t.access(1);
        assert_eq!(t.access(1), Some(0));
    }

    #[test]
    fn classic_sequence() {
        // a b c a : distance(a) = 2 (b, c intervene)
        let mut t = tree();
        t.access(1);
        t.access(2);
        t.access(3);
        assert_eq!(t.access(1), Some(2));
        // b: c and a accessed since → 2
        assert_eq!(t.access(2), Some(2));
    }

    #[test]
    fn repeats_do_not_inflate_distance() {
        // a b b b a : only b intervenes → distance 1
        let mut t = tree();
        t.access(1);
        t.access(2);
        t.access(2);
        t.access(2);
        assert_eq!(t.access(1), Some(1));
    }

    #[test]
    fn compaction_preserves_distances() {
        let mut t = tree();
        // Touch enough distinct blocks to force several compactions.
        for round in 0..5u64 {
            for lba in 0..600u64 {
                t.access(lba);
            }
            let _ = round;
        }
        // Full cyclic scan: distance = 599 for every block.
        assert_eq!(t.access(0), Some(599));
        assert_eq!(t.last_pos.len(), 600);
    }

    #[test]
    fn memory_stays_bounded_past_capacity() {
        // Regression test: a never-repeating LBA stream 10× the block cap
        // must not grow the tracker — before capacity bounding, last_pos
        // grew with every distinct sampled LBA forever.
        let cap = 1024usize;
        let mut t = DistanceTree::with_capacity(cap);
        let baseline = {
            let mut warm = DistanceTree::with_capacity(cap);
            for lba in 0..cap as u64 {
                warm.access(lba);
            }
            warm.memory_bytes()
        };
        for lba in 0..10 * cap as u64 {
            t.access(lba);
        }
        assert!(t.last_pos.len() <= cap, "live {} > cap {cap}", t.last_pos.len());
        // Memory proportional to the cap (generous slack for hash-map load
        // factor and the eviction hysteresis), not to the stream footprint.
        assert!(
            t.memory_bytes() <= 4 * baseline.max(1),
            "memory {} vs warm baseline {baseline}",
            t.memory_bytes()
        );
        // Evicted blocks read as first accesses when they return.
        assert_eq!(t.access(0), None);
    }

    #[test]
    fn eviction_drops_oldest_first() {
        let mut t = DistanceTree::with_capacity(16);
        for lba in 0..18u64 {
            t.access(lba);
        }
        // The cap (16) was exceeded at the 17th insert: the oldest eighth
        // was dropped, the most recent survive.
        assert!(t.last_pos.len() <= 16);
        assert_eq!(t.access(17), Some(0), "newest block must survive eviction");
    }

    #[test]
    fn distances_match_naive_reference() {
        use adapt_trace::rng::Xoshiro256StarStar;
        let mut rng = Xoshiro256StarStar::new(99);
        let mut t = tree();
        let mut history: Vec<Lba> = Vec::new();
        for _ in 0..3000 {
            let lba = rng.next_bounded(200);
            // Naive reference: distinct LBAs after lba's last occurrence.
            let expect = history.iter().rposition(|&x| x == lba).map(|p| {
                let mut set = std::collections::HashSet::new();
                for &x in &history[p + 1..] {
                    set.insert(x);
                }
                set.len() as u64
            });
            assert_eq!(t.access(lba), expect, "lba {lba}");
            history.push(lba);
        }
    }
}

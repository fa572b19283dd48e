//! The chunk-flush interface between the log-structured layer and the
//! array, plus the accounting-only array implementation. (The array that
//! models faults is [`crate::store::InMemoryArray`].)

use crate::config::ArrayConfig;
use crate::counters::ArrayStats;
use crate::error::ArrayError;
use crate::fault::{ArrayHealth, ReadOutcome, ScrubStep};
use crate::layout::{ChunkLocation, StripeLayout};
use serde::{Deserialize, Serialize};

/// Category of bytes inside a flushed chunk, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Traffic {
    /// User-written payload.
    User,
    /// GC-rewritten payload.
    Gc,
    /// Cross-group shadow-append copies (ADAPT §3.3).
    Shadow,
    /// Zero padding appended to reach chunk alignment.
    Pad,
}

/// One chunk-sized write as seen by the array: a breakdown of the chunk's
/// bytes by traffic class. The sum of the parts must equal the configured
/// chunk size — the array never receives sub-chunk writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkFlush {
    /// Bytes of user payload.
    pub user_bytes: u64,
    /// Bytes of GC-rewrite payload.
    pub gc_bytes: u64,
    /// Bytes of shadow-append copies.
    pub shadow_bytes: u64,
    /// Bytes of zero padding.
    pub pad_bytes: u64,
    /// Originating group (stream) id, for multi-stream statistics.
    pub group: u8,
    /// Physical segment the chunk belongs to (segments are reused after
    /// GC, so this + `chunk_in_seg` is the chunk's stable physical
    /// address — what a device-level FTL sees being overwritten).
    pub seg: u32,
    /// Chunk index within the segment.
    pub chunk_in_seg: u32,
}

impl ChunkFlush {
    /// The chunk's physical address in chunk units, given the segment
    /// geometry.
    pub fn physical_chunk_addr(&self, chunks_per_segment: u32) -> u64 {
        self.seg as u64 * chunks_per_segment as u64 + self.chunk_in_seg as u64
    }
}

impl ChunkFlush {
    /// Total bytes in the chunk.
    pub fn total_bytes(&self) -> u64 {
        self.user_bytes + self.gc_bytes + self.shadow_bytes + self.pad_bytes
    }

    /// Payload (non-padding) bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.user_bytes + self.gc_bytes + self.shadow_bytes
    }
}

/// A chunk-flush digest recovered from the WAL tail, used by durable
/// sinks to restore records that were still in the volatile write cache
/// when power failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredFlush {
    /// Global chunk sequence number (equals the engine's flush sequence).
    pub chunk_seq: u64,
    /// The flush as originally issued.
    pub flush: ChunkFlush,
}

/// What a durable sink did to reconcile its on-disk state with the
/// recovered log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SinkReconcile {
    /// CRC-valid records found on disk.
    pub records_scanned: u64,
    /// Scanned records confirmed by the recovered log and kept.
    pub records_reused: u64,
    /// Records lost to the crash and rewritten from WAL digests.
    pub records_restored: u64,
    /// Scanned records beyond the durable log (unacknowledged tail),
    /// truncated away.
    pub records_discarded: u64,
}

/// Receiver of chunk-granular flushes.
pub trait ArraySink {
    /// Accept one chunk write. Implementations must reject (panic in debug)
    /// chunks whose size differs from the configured chunk size.
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation;

    /// Accept one chunk write *with its payload as a borrowed slice*.
    ///
    /// Ownership rule at the sink boundary: the payload belongs to the
    /// caller and is only valid for the duration of the call. A sink that
    /// stores or frames real bytes copies them exactly once, here, and
    /// accounts that copy in [`ArrayStats::copy_bytes`]; accounting-only
    /// sinks must not copy at all (the default ignores the payload and
    /// delegates to [`ArraySink::write_chunk`]). This is what lets flush,
    /// GC migration, and rebuild forward chunk payloads without pooled
    /// `Vec` round-trips.
    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        debug_assert_eq!(payload.len() as u64, self.config().chunk_bytes);
        let _ = payload;
        self.write_chunk(flush)
    }

    /// Array geometry.
    fn config(&self) -> &ArrayConfig;

    /// Accounting snapshot.
    fn stats(&self) -> &ArrayStats;

    /// Current array health. Sinks without fault modeling are always
    /// healthy.
    fn health(&self) -> ArrayHealth {
        ArrayHealth::Healthy
    }

    /// Account (and, in fault-modeling sinks, fault-check) one chunk read
    /// at a previously returned location. The default succeeds as a direct
    /// read — sinks without fault modeling never fail a read.
    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        let _ = loc;
        Ok(ReadOutcome::normal(self.config().chunk_bytes))
    }

    /// Advance the background scrub by at most `max_stripes` stripes.
    /// Sinks without integrity modeling return `None` (no scrub to run);
    /// the engine pumps this once per host op when scrubbing is enabled.
    fn scrub_step(&mut self, max_stripes: usize) -> Option<ScrubStep> {
        let _ = max_stripes;
        None
    }

    /// Make everything accepted so far durable ahead of a checkpoint.
    /// Volatile sinks have nothing to do.
    fn sync_for_checkpoint(&mut self) -> Result<(), ArrayError> {
        Ok(())
    }

    /// Reconcile the sink with a recovered log: `next_chunk_seq` chunk
    /// flushes are proven durable, and `tail` carries WAL digests for the
    /// most recent of them (anything a checkpoint already covered was
    /// synced at checkpoint time and must still be on disk). Sinks that
    /// don't support crash recovery return
    /// [`StorageFailure::Unsupported`](crate::error::StorageFailure).
    fn recover_reconcile(
        &mut self,
        next_chunk_seq: u64,
        tail: &[RecoveredFlush],
    ) -> Result<SinkReconcile, ArrayError> {
        let _ = (next_chunk_seq, tail);
        Err(ArrayError::Storage { failure: crate::error::StorageFailure::Unsupported })
    }
}

/// Accounting-only array model: maps appends through the RAID-5 layout and
/// maintains per-device counters, without storing any data bytes. O(1) per
/// chunk; this is what the trace-driven simulator uses.
#[derive(Debug, Clone)]
pub struct CountingArray {
    layout: StripeLayout,
    stats: ArrayStats,
    next_chunk_seq: u64,
}

impl CountingArray {
    /// Create an empty counting array.
    pub fn new(cfg: ArrayConfig) -> Self {
        Self {
            layout: StripeLayout::new(cfg),
            stats: ArrayStats::new(cfg.num_devices),
            next_chunk_seq: 0,
        }
    }

    /// Number of chunks flushed so far.
    pub fn chunks_written(&self) -> u64 {
        self.next_chunk_seq
    }

    /// The layout in use.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// Place and charge the next chunk of the log; also reports whether
    /// it closed its stripe.
    pub(crate) fn append(&mut self, flush: &ChunkFlush) -> (ChunkLocation, bool) {
        let placed = self.stats.charge_append(&self.layout, self.next_chunk_seq, flush);
        self.next_chunk_seq += 1;
        placed
    }
}

impl ArraySink for CountingArray {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        self.append(&flush).0
    }

    fn config(&self) -> &ArrayConfig {
        self.layout.config()
    }

    fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    fn recover_reconcile(
        &mut self,
        next_chunk_seq: u64,
        _tail: &[RecoveredFlush],
    ) -> Result<SinkReconcile, ArrayError> {
        // Nothing persists here; recovery just realigns the layout cursor
        // so future chunk locations stay in lockstep with the recovered
        // engine. Lifetime counters restart from zero (documented: stats
        // after in-memory recovery cover the post-recovery epoch only).
        self.next_chunk_seq = next_chunk_seq;
        Ok(SinkReconcile::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_chunk(group: u8) -> ChunkFlush {
        ChunkFlush {
            user_bytes: 65536,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group,
            seg: 0,
            chunk_in_seg: 0,
        }
    }

    fn padded_chunk(pad: u64) -> ChunkFlush {
        ChunkFlush {
            user_bytes: 65536 - pad,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: pad,
            group: 0,
            seg: 0,
            chunk_in_seg: 0,
        }
    }

    #[test]
    fn counts_full_and_padded() {
        let mut a = CountingArray::new(ArrayConfig::default());
        a.write_chunk(full_chunk(0));
        a.write_chunk(padded_chunk(4096));
        assert_eq!(a.stats().full_chunks, 1);
        assert_eq!(a.stats().padded_chunks, 1);
        assert_eq!(a.stats().pad_bytes(), 4096);
        assert_eq!(a.stats().data_bytes(), 65536 + 65536 - 4096);
    }

    #[test]
    fn parity_written_per_stripe() {
        let mut a = CountingArray::new(ArrayConfig::default());
        // 3 data columns per stripe with 4 devices.
        for _ in 0..6 {
            a.write_chunk(full_chunk(0));
        }
        assert_eq!(a.stats().stripes_completed, 2);
        assert_eq!(a.stats().parity_bytes(), 2 * 65536);
    }

    #[test]
    fn partial_stripe_has_no_parity_yet() {
        let mut a = CountingArray::new(ArrayConfig::default());
        a.write_chunk(full_chunk(0));
        a.write_chunk(full_chunk(0));
        assert_eq!(a.stats().stripes_completed, 0);
        assert_eq!(a.stats().parity_bytes(), 0);
    }

    #[test]
    fn long_append_balances_devices() {
        let mut a = CountingArray::new(ArrayConfig::default());
        for _ in 0..3 * 400 {
            a.write_chunk(full_chunk(0));
        }
        assert!(a.stats().device_imbalance() < 1e-9, "{:?}", a.stats().devices);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn rejects_misaligned_chunk() {
        let mut a = CountingArray::new(ArrayConfig::default());
        a.write_chunk(ChunkFlush {
            user_bytes: 100,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group: 0,
            seg: 0,
            chunk_in_seg: 0,
        });
    }

    #[test]
    fn chunk_flush_byte_math() {
        let f = ChunkFlush {
            user_bytes: 1,
            gc_bytes: 2,
            shadow_bytes: 3,
            pad_bytes: 4,
            group: 9,
            seg: 0,
            chunk_in_seg: 0,
        };
        assert_eq!(f.total_bytes(), 10);
        assert_eq!(f.payload_bytes(), 6);
    }

    #[test]
    fn default_sink_reads_always_succeed() {
        let mut a = CountingArray::new(ArrayConfig::default());
        let loc = a.write_chunk(full_chunk(0));
        assert_eq!(a.health(), crate::fault::ArrayHealth::Healthy);
        let out = a.read_chunk_at(loc).unwrap();
        assert_eq!(out.mode, crate::fault::ReadMode::Normal);
        assert_eq!(out.device_bytes_read, 65536);
    }

    #[test]
    fn default_sink_has_no_scrub() {
        let mut a = CountingArray::new(ArrayConfig::default());
        a.write_chunk(full_chunk(0));
        assert!(ArraySink::scrub_step(&mut a, 8).is_none());
    }

    fn raid6() -> ArrayConfig {
        // 6 data + 2 parity columns on 8 devices.
        ArrayConfig::with_parity(8, 2, 65536)
    }

    #[test]
    fn raid6_counting_charges_two_parity_chunks_per_stripe() {
        let mut a = CountingArray::new(raid6());
        for _ in 0..6 * 8 {
            a.write_chunk(full_chunk(0));
        }
        assert_eq!(a.stats().stripes_completed, 8);
        assert_eq!(a.stats().parity_bytes(), 8 * 2 * 65536);
        // 8 stripes = one full rotation: perfectly balanced.
        assert!(a.stats().device_imbalance() < 1e-9, "{:?}", a.stats().devices);
    }
}

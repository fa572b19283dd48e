//! Engine-level traffic metrics: the numbers behind every figure.

use crate::latency::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// Per-group traffic breakdown (blocks), snapshot for Fig. 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupTraffic {
    /// User payload blocks flushed from this group.
    pub user_blocks: u64,
    /// GC payload blocks flushed from this group.
    pub gc_blocks: u64,
    /// Shadow-copy blocks flushed into this group.
    pub shadow_blocks: u64,
    /// Padding blocks flushed from this group.
    pub pad_blocks: u64,
    /// Segments currently owned.
    pub segments: u32,
}

impl GroupTraffic {
    /// All flushed blocks from this group.
    pub fn total_blocks(&self) -> u64 {
        self.user_blocks + self.gc_blocks + self.shadow_blocks + self.pad_blocks
    }
}

/// Cumulative engine metrics. `reset()` zeroes the counters without
/// touching engine state, so measurement can start after a fill phase
/// (the paper measures WA over the update phase only).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LssMetrics {
    /// Logical bytes the host asked to write (trace write bytes).
    pub host_write_bytes: u64,
    /// User payload bytes flushed to the array.
    pub user_bytes: u64,
    /// GC payload bytes flushed to the array.
    pub gc_bytes: u64,
    /// Shadow-copy bytes flushed to the array.
    pub shadow_bytes: u64,
    /// Zero-padding bytes flushed to the array.
    pub pad_bytes: u64,
    /// Chunks flushed.
    pub chunks_flushed: u64,
    /// Chunks flushed with padding.
    pub padded_chunks: u64,
    /// GC passes executed.
    pub gc_passes: u64,
    /// Segments reclaimed.
    pub segments_reclaimed: u64,
    /// Valid blocks migrated by GC.
    pub blocks_migrated: u64,
    /// Host writes absorbed while still pending (overwritten in buffer
    /// before ever reaching the array).
    pub buffer_absorbed_blocks: u64,
    /// Times a pending block's home flush (lazy append) completed while a
    /// shadow copy existed.
    pub lazy_appends: u64,
    /// Times shadow-append was performed (per donated chunk).
    pub shadow_append_events: u64,
    /// Logical bytes the host asked to read.
    pub host_read_bytes: u64,
    /// Bytes fetched from the array to serve reads (whole chunks, §2.2:
    /// "For reads, systems fetch entire chunks encompassing the requested
    /// data").
    pub array_read_bytes: u64,
    /// Blocks served straight from the open-chunk buffers (still in RAM).
    pub buffer_read_blocks: u64,
    /// Blocks invalidated by TRIM/discard commands.
    pub trimmed_blocks: u64,
    /// Chunk reads served via parity reconstruction (array degraded or
    /// the chunk's home device failed/latent).
    pub degraded_reads: u64,
    /// Survivor bytes fetched to reconstruct missing chunks (n-1 chunks
    /// per degraded read).
    pub reconstructed_bytes: u64,
    /// Chunk-read attempts repeated after a transient array error.
    pub retried_reads: u64,
    /// Simulated microseconds spent backing off before read retries
    /// (kept out of the engine clock so SLA deadlines are unperturbed).
    pub retry_backoff_us: u64,
    /// GC invocations declined or deferred because the array was
    /// rebuilding (graceful-degradation policy: rebuild I/O has priority).
    pub gc_throttled: u64,
    /// Array bytes moved by the most recent completed rebuild (survivor
    /// reads plus spare writes), snapshotted from the sink when the array
    /// returns to healthy.
    pub rebuild_bytes: u64,
    /// Host operations (writes/reads/trims) processed between rebuild
    /// start and completion — the paper-style "time to rebuild" measured
    /// on the op clock. Accumulates across rebuilds.
    pub rebuild_ops: u64,
    /// Chunks whose checksum the background scrub verified.
    #[serde(default)]
    pub chunks_scrubbed: u64,
    /// Bytes read off devices by the scrub driver.
    #[serde(default)]
    pub scrub_read_bytes: u64,
    /// Checksum mismatches detected by scrub steps the engine pumped.
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Mismatched chunks scrub repaired from survivors and rewrote.
    #[serde(default)]
    pub corruptions_healed: u64,
    /// Mismatched chunks scrub could not repair (second fault in stripe).
    #[serde(default)]
    pub corruptions_unrecoverable: u64,
    /// Bytes written back by scrub repairs (mismatch + latent rewrites).
    #[serde(default)]
    pub heal_write_bytes: u64,
    /// Sum over scrub detections of ops between injection and detection.
    #[serde(default)]
    pub detection_latency_ops: u64,
    /// Latent sector errors the scrub rewrote before they could pair with
    /// a device failure into a double fault.
    #[serde(default)]
    pub scrub_latent_repaired: u64,
    /// Full scrub passes completed over the array.
    #[serde(default)]
    pub scrub_passes: u64,
    /// Scrub steps that yielded because a rebuild was in flight.
    #[serde(default)]
    pub scrub_paused: u64,
    /// Chunk reads that came back healed: the read path detected a
    /// checksum mismatch and repaired the chunk in place from survivors.
    #[serde(default)]
    pub healed_reads: u64,
    /// Time from each user block's arrival to its durability (full flush,
    /// padded flush, or shadow append), in µs.
    pub durability_latency: LatencyHistogram,
}

impl LssMetrics {
    /// Total bytes physically written to the array (excluding parity,
    /// which the array layer accounts separately).
    pub fn physical_bytes(&self) -> u64 {
        self.user_bytes + self.gc_bytes + self.shadow_bytes + self.pad_bytes
    }

    /// Write amplification including padding (the paper's headline WA:
    /// padding "exacerbates the actual write amplification ratio").
    pub fn wa(&self) -> f64 {
        if self.host_write_bytes == 0 {
            return 1.0;
        }
        self.physical_bytes() as f64 / self.host_write_bytes as f64
    }

    /// Write amplification excluding padding (the classical GC-only WA).
    pub fn wa_gc_only(&self) -> f64 {
        if self.host_write_bytes == 0 {
            return 1.0;
        }
        (self.user_bytes + self.gc_bytes + self.shadow_bytes) as f64 / self.host_write_bytes as f64
    }

    /// Padding share of all physically written bytes (Fig. 9's
    /// padding-traffic ratio).
    pub fn padding_ratio(&self) -> f64 {
        let total = self.physical_bytes();
        if total == 0 {
            return 0.0;
        }
        self.pad_bytes as f64 / total as f64
    }

    /// Read amplification: array bytes fetched per host byte requested.
    pub fn read_amplification(&self) -> f64 {
        if self.host_read_bytes == 0 {
            return 1.0;
        }
        self.array_read_bytes as f64 / self.host_read_bytes as f64
    }

    /// Zero every counter (measurement-window start).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Fold another engine's counters into this one, for array-wide
    /// rollups across independent shards: every counter sums and the
    /// durability-latency histograms merge bucket-wise. The exhaustive
    /// destructure makes a newly added counter a compile error here
    /// rather than a silently missing term in merged reports.
    pub fn merge_from(&mut self, other: &LssMetrics) {
        let LssMetrics {
            host_write_bytes,
            user_bytes,
            gc_bytes,
            shadow_bytes,
            pad_bytes,
            chunks_flushed,
            padded_chunks,
            gc_passes,
            segments_reclaimed,
            blocks_migrated,
            buffer_absorbed_blocks,
            lazy_appends,
            shadow_append_events,
            host_read_bytes,
            array_read_bytes,
            buffer_read_blocks,
            trimmed_blocks,
            degraded_reads,
            reconstructed_bytes,
            retried_reads,
            retry_backoff_us,
            gc_throttled,
            rebuild_bytes,
            rebuild_ops,
            chunks_scrubbed,
            scrub_read_bytes,
            corruptions_detected,
            corruptions_healed,
            corruptions_unrecoverable,
            heal_write_bytes,
            detection_latency_ops,
            scrub_latent_repaired,
            scrub_passes,
            scrub_paused,
            healed_reads,
            durability_latency,
        } = other;
        self.host_write_bytes += host_write_bytes;
        self.user_bytes += user_bytes;
        self.gc_bytes += gc_bytes;
        self.shadow_bytes += shadow_bytes;
        self.pad_bytes += pad_bytes;
        self.chunks_flushed += chunks_flushed;
        self.padded_chunks += padded_chunks;
        self.gc_passes += gc_passes;
        self.segments_reclaimed += segments_reclaimed;
        self.blocks_migrated += blocks_migrated;
        self.buffer_absorbed_blocks += buffer_absorbed_blocks;
        self.lazy_appends += lazy_appends;
        self.shadow_append_events += shadow_append_events;
        self.host_read_bytes += host_read_bytes;
        self.array_read_bytes += array_read_bytes;
        self.buffer_read_blocks += buffer_read_blocks;
        self.trimmed_blocks += trimmed_blocks;
        self.degraded_reads += degraded_reads;
        self.reconstructed_bytes += reconstructed_bytes;
        self.retried_reads += retried_reads;
        self.retry_backoff_us += retry_backoff_us;
        self.gc_throttled += gc_throttled;
        self.rebuild_bytes += rebuild_bytes;
        self.rebuild_ops += rebuild_ops;
        self.chunks_scrubbed += chunks_scrubbed;
        self.scrub_read_bytes += scrub_read_bytes;
        self.corruptions_detected += corruptions_detected;
        self.corruptions_healed += corruptions_healed;
        self.corruptions_unrecoverable += corruptions_unrecoverable;
        self.heal_write_bytes += heal_write_bytes;
        self.detection_latency_ops += detection_latency_ops;
        self.scrub_latent_repaired += scrub_latent_repaired;
        self.scrub_passes += scrub_passes;
        self.scrub_paused += scrub_paused;
        self.healed_reads += healed_reads;
        self.durability_latency.merge(durability_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wa_math() {
        let m = LssMetrics {
            host_write_bytes: 1000,
            user_bytes: 900,
            gc_bytes: 500,
            shadow_bytes: 100,
            pad_bytes: 500,
            ..Default::default()
        };
        assert!((m.wa() - 2.0).abs() < 1e-12);
        assert!((m.wa_gc_only() - 1.5).abs() < 1e-12);
        assert!((m.padding_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_defined() {
        let m = LssMetrics::default();
        assert_eq!(m.wa(), 1.0);
        assert_eq!(m.padding_ratio(), 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let mut m = LssMetrics { host_write_bytes: 5, ..Default::default() };
        m.reset();
        assert_eq!(m, LssMetrics::default());
    }

    #[test]
    fn read_amplification_math() {
        let m = LssMetrics { host_read_bytes: 4096, array_read_bytes: 65536, ..Default::default() };
        assert!((m.read_amplification() - 16.0).abs() < 1e-12);
        assert_eq!(LssMetrics::default().read_amplification(), 1.0);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = LssMetrics { host_write_bytes: 1000, user_bytes: 1000, ..Default::default() };
        a.durability_latency.record(10);
        let mut b = LssMetrics { host_write_bytes: 500, gc_bytes: 250, ..Default::default() };
        b.durability_latency.record(30);
        a.merge_from(&b);
        assert_eq!(a.host_write_bytes, 1500);
        assert_eq!(a.user_bytes, 1000);
        assert_eq!(a.gc_bytes, 250);
        assert_eq!(a.durability_latency.count(), 2);
        assert!((a.wa() - 1250.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn group_traffic_total() {
        let g = GroupTraffic {
            user_blocks: 1,
            gc_blocks: 2,
            shadow_blocks: 3,
            pad_blocks: 4,
            segments: 9,
        };
        assert_eq!(g.total_blocks(), 10);
    }
}
